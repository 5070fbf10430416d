"""Small fully connected embedding network.

Hidden layers use the rectifier max(a, 0); the final linear output is
L2-normalized onto the unit sphere.  Gradients flow through the
normalization via its exact Jacobian.  ``forward`` takes a (B, d_in)
batch, one input row (d_in,) being a batch of one, and returns (B, F)
embeddings; ``backward`` sums the parameter gradients over the batch's
rows.  A row whose pre-normalization output is all zero (possible
when every rectifier unit is off) is replaced by the first basis vector
and counted in ``fallback_count``; its local gradient is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TINY = 1e-12


@dataclass
class ForwardCache:
    """What ``backward`` needs from ``forward``, one row per batch row."""

    x: np.ndarray         # (B, d_in)
    hidden: list          # rectified hidden outputs, (B, hidden); > 0 where the unit is on
    prenorm: np.ndarray   # (B,) norms of the final linear output, before normalization
    f: np.ndarray         # (B, F)
    fallback: np.ndarray  # (B,) bool


class TinyEmbedder:
    """MLP d_in -> hidden... -> F with unit-norm output.

    ``layer_sizes`` includes input and output dims; with exactly two
    entries the network is a single linear layer.  Pass ``rng=None`` to
    get zero-initialized parameters (used when loading a snapshot).
    """

    def __init__(self, layer_sizes, rng=None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {layer_sizes}")
        self.layer_sizes = sizes
        self.weights = []
        self.biases = []
        self.fallback_count = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            if rng is None:
                W = np.zeros((fan_out, fan_in))
            else:
                W = rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
            self.weights.append(W)
            self.biases.append(np.zeros(fan_out))

    @property
    def dim_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def dim_out(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list:
        """Flat parameter list in a fixed order (weights and biases interleaved)."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    def forward(self, x) -> tuple[np.ndarray, ForwardCache]:
        """Unit-norm embeddings (B, F) of a batch (B, d_in) or of one input
        row (d_in,) as a batch of one, with the cache ``backward`` needs."""
        x = np.asarray(x, dtype=float)
        h = x[None, :] if x.ndim == 1 else x
        if h.ndim != 2 or h.shape[1] != self.dim_in:
            raise ValueError(f"input has shape {x.shape}, expected ({self.dim_in},) or (B, {self.dim_in})")
        if not np.isfinite(h).all():
            raise ValueError("non-finite input")
        x = h  # the cache keeps the batch of one
        hidden = []
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W.T + b, 0.0)
            hidden.append(h)
        v = h @ self.weights[-1].T + self.biases[-1]
        n = np.sqrt(np.vecdot(v, v))  # per row the same BLAS dot as np.linalg.norm
        dead = n < _TINY
        self.fallback_count += int(np.count_nonzero(dead))
        f = v / np.where(dead, 1.0, n)[:, None]
        f[dead] = np.eye(1, self.dim_out)[0]
        return f, ForwardCache(x=x, hidden=hidden, prenorm=n, f=f, fallback=dead)

    def backward(self, cache: ForwardCache, grad_f) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parameter gradients for an upstream dL/df, one (dW, db) pair per
        layer in forward order, summed over the rows of a batch."""
        if cache is None:
            raise ValueError("backward needs the ForwardCache from forward")
        g = np.asarray(grad_f, dtype=float)
        if g.shape != cache.f.shape:
            raise ValueError(f"grad has shape {g.shape}, expected {cache.f.shape}")
        # a fallback row's output is locally constant: dividing by inf zeroes it
        prenorm = np.where(cache.fallback, np.inf, cache.prenorm)
        delta = (g - np.vecdot(g, cache.f)[:, None] * cache.f) / prenorm[:, None]
        grads = [None] * len(self.weights)
        inputs = [cache.x] + cache.hidden
        for layer in range(len(self.weights) - 1, -1, -1):
            grads[layer] = (delta.T @ inputs[layer], delta.sum(axis=0))
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (cache.hidden[layer - 1] > 0.0)
        return grads
