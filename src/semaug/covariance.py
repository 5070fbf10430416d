"""Streaming per-class Gaussian statistics of embedding vectors.

Each class keeps a running mean and a population (divide-by-n) covariance.
An update folds in one embedding or a whole batch, merging each class's
share of the batch in one step.  The covariance matrices drive two things:
the quadratic forms that appear in the closed-form augmented losses, and the
Cholesky factors used to draw explicitly augmented embeddings.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .data import FLOAT, read_csv_rows

FULL = "full"
DIAGONAL = "diagonal"


class DegenerateCovarianceError(RuntimeError):
    """Covariance factorization failed even after diagonal jitter."""


@dataclass
class ClassStats:
    """Running statistics of one class.

    ``cov`` is the population covariance (single observation => zero matrix).
    In diagonal mode it is stored as an F-vector of per-coordinate variances.
    """

    class_id: int
    count: int
    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def empty(cls, class_id: int, dim: int, mode: str = FULL) -> "ClassStats":
        shape = (dim, dim) if mode == FULL else (dim,)
        return cls(class_id, 0, np.zeros(dim), np.zeros(shape))


# Element budget of one chunk of a batched step: the losses' augmentation
# term takes labels while their C x F differences fit it, and trial scoring
# takes trials while their embedding rows fit it, so the peak memory of
# either stays flat in the batch, class and trial count.
CHUNK_ELEMENTS = 1 << 16


def checked_batch(embedding, label, dim: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings as (B, dim) floats and labels as (B,) integers, checked
    by the one rule the bank and every loss share: a 1-D embedding with a
    scalar Python or numpy integer label (a bool is none) is a batch of
    one; a batch is not empty, its embeddings are finite and its labels
    lie in [0, num_classes).  A batch that breaks the rule raises
    ValueError before anything reads it."""
    f = np.asarray(embedding, dtype=float)
    if f.ndim == 1:
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
            raise ValueError(f"label {label!r} is not an integer")
        if not 0 <= label < num_classes:  # here, while a Python int too big for int64 is still one
            raise ValueError(f"label {label} out of range [0, {num_classes})")
        f, label = f[None, :], [label]
    labels = np.asarray(label)
    if f.ndim != 2 or f.shape[1] != dim:
        raise ValueError(f"embedding has shape {np.shape(embedding)}, expected ({dim},) or (B, {dim})")
    if labels.shape != f.shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"labels have shape {labels.shape} and dtype {labels.dtype}, "
                         f"expected integers of shape {f.shape[:1]}")
    if labels.size == 0:
        raise ValueError("empty batch")
    if not np.isfinite(f).all():
        raise ValueError("non-finite embedding")
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range [0, {num_classes})")
    return f, labels


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """A float64 zero array in an anonymous memory map of its own.

    Freeing a large malloc block raises glibc's threshold for serving
    requests by memory maps, so a process that trains one bank after
    another would serve its later requests from a heap that keeps freed
    pages.  A map of its own goes back to the system whole and leaves that
    threshold alone.
    """
    import mmap  # here, so that a process that never builds a bank never loads it

    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64, count=size).reshape(shape)


class ClassStatsView:
    """``bank.stats``: entry i is class i's :class:`ClassStats`, whose
    ``mean`` and ``cov`` are views of the bank's row i (writing into them
    writes the bank; ``count`` is a copy).  Assigning a ``ClassStats`` to
    entry i copies its count, mean and cov into row i, whatever its
    ``class_id``, once they pass the rule every stored row keeps: the count
    is an integer (a bool is none) in [0, 2**63), every cell is finite, no
    variance is negative and a full covariance is asymmetric by at most
    1e-12 * trace.  A rejected assignment raises ValueError and leaves the
    row as it was.  ``len`` and iteration follow the sequence protocol."""

    __slots__ = ("_bank",)

    def __init__(self, bank: "CovarianceBank"):
        self._bank = bank

    def __len__(self) -> int:
        return self._bank.num_classes

    def _row(self, i) -> int:
        i, n = operator.index(i), self._bank.num_classes
        if not -n <= i < n:
            raise IndexError(f"class {i} out of range [0, {n})")
        return i % n

    def __getitem__(self, i) -> ClassStats:
        i, b = self._row(i), self._bank
        return ClassStats(i, int(b.count[i]), b.mean[i], b.cov[i])

    def __setitem__(self, i, stats: ClassStats) -> None:
        i, b = self._row(i), self._bank
        mean, cov = np.asarray(stats.mean, dtype=float), np.asarray(stats.cov, dtype=float)
        if mean.shape != b.mean.shape[1:] or cov.shape != b.cov.shape[1:]:
            raise ValueError(f"stats have mean {mean.shape} and cov {cov.shape}, "
                             f"expected {b.mean.shape[1:]} and {b.cov.shape[1:]}")
        count = stats.count
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"count {count!r} is not an integer")
        if count < 0:
            raise ValueError(f"negative count {count}")
        if count >= 2**63:
            raise ValueError(f"count {count} too large")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("non-finite mean or covariance cell")
        variances = np.diagonal(cov) if cov.ndim == 2 else cov
        if np.any(variances < 0.0):
            raise ValueError(f"negative variance {float(variances.min())!r}")
        if cov.ndim == 2:
            asym = float(np.max(np.abs(cov - cov.T)))
            if asym > 1e-12 * float(np.trace(cov)):
                raise ValueError(f"covariance asymmetric by {asym:.3e}")
        b.count[i], b.mean[i], b.cov[i] = count, mean, cov


class CovarianceBank:
    """Per-class streaming mean/covariance container.

    The statistics are three arrays indexed by class: ``count`` (C,),
    ``mean`` (C, F) and ``cov`` (C, F, F), or (C, F) of variances in
    diagonal mode; ``stats`` views them class by class.  Updates are
    single-writer; reads are safe while no update is running.
    """

    def __init__(self, num_classes: int, dim: int, mode: str = FULL):
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if mode not in (FULL, DIAGONAL):
            raise ValueError(f"mode must be 'full' or 'diagonal', got {mode!r}")
        self.num_classes = num_classes
        self.dim = dim
        self.mode = mode
        self.count = np.zeros(num_classes, dtype=np.int64)
        self.mean = np.zeros((num_classes, dim))
        self.cov = _mapped_zeros((num_classes, dim, dim) if mode == FULL else (num_classes, dim))

    @property
    def stats(self) -> ClassStatsView:
        # made on each access: a view kept on the bank would form a
        # reference cycle and hold the arrays until a garbage collection
        return ClassStatsView(self)

    def update(self, embedding: np.ndarray, label) -> None:
        """Fold one embedding (F,) with its label, or a batch (B, F) with
        labels (B,), into the classes' running statistics.

        Each class present merges its k batch rows, with mean m and scatter
        M2 = sum (x - m)(x - m)^T, by the pairwise update of Chan, Golub &
        LeVeque: with d = m - mu and n' = n + k,
            mu' = mu + d*k/n',  cov' = (n*cov + M2 + (n*k/n')*d d^T)/n'.
        Its k = 1 case is the exact one-pass (Welford) step; either way the
        result is the two-pass population covariance of everything seen.

        Full covariances merge class by class in place, each from its own
        k x F rows and one F x F scatter, so memory stays flat in the batch
        size and class count; diagonal variances merge in one segmented sum
        over all the batch rows.  Means and counts update as one vector step.
        """
        x, labels = checked_batch(embedding, label, self.dim, self.num_classes)
        # the classes present, their batch counts k and batch means m, with
        # the rows of class i contiguous in batch order from starts[i]
        k = np.bincount(labels, minlength=self.num_classes)
        classes = np.flatnonzero(k)
        k = k[classes]
        starts = np.cumsum(k) - k
        x = x[np.argsort(labels, kind="stable")]
        m = np.add.reduceat(x, starts, axis=0) / k[:, None]
        n = self.count[classes]
        n1 = n + k
        d = m - self.mean[classes]
        w = n * k / n1
        if self.mode == FULL:
            for c, wc, dc, mc, nc, n1c, s, kc in zip(classes.tolist(), w.tolist(), d, m, n.tolist(),
                                                    n1.tolist(), starts.tolist(), k.tolist()):
                spread = wc * (dc[:, None] * dc)
                if kc > 1:
                    r = x[s:s + kc] - mc
                    spread += r.T @ r
                cov = self.cov[c]
                cov *= nc
                cov += spread
                cov /= n1c
        else:
            x -= np.repeat(m, k, axis=0)  # the sorted copy is ours: its rows become the
            x *= x                        # residuals, then their squares, in place
            spread = w[:, None] * d * d
            spread += np.add.reduceat(x, starts, axis=0)
            self.cov[classes] = (n[:, None] * self.cov[classes] + spread) / n1[:, None]
        self.mean[classes] += d * k[:, None] / n1[:, None]
        self.count[classes] = n1


def forms_and_products(cov: np.ndarray, R: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms phi (L, C) and covariance products U (L, C, F) of a
    stack of L labels, the one place where a covariance meets difference rows.

    ``cov`` holds the labels' covariances (L, F, F) or variances (L, F); a
    stack of one serves every label.  With D_l = R - R[labels[l]] for the
    (C, F) rows R, U_l = D_l Cov_l and phi[l, j] = D_l[j] . U_l[j], with
    phi[l, labels[l]] exactly 0.
    """
    D = R - R.take(labels, axis=0)[:, None, :]
    U = D @ cov if cov.ndim == 3 else D * cov[:, None, :]
    phi = np.einsum("lcf,lcf->lc", D, U)
    phi[np.arange(labels.size), labels] = 0.0
    return phi, U


def quadratic_forms(stats: ClassStats, head_weights: np.ndarray, label: int) -> np.ndarray:
    """Evaluate d_j^T Cov d_j with d_j = w_j - w_label against one class's
    cov: the one-label case of :func:`forms_and_products`.  The label's own
    entry is exactly zero."""
    w = np.asarray(head_weights, dtype=float)
    dim = stats.mean.shape[0]
    if w.ndim != 2 or w.shape[1] != dim:
        raise ValueError(f"weights have shape {w.shape}, expected (C, {dim})")
    if not 0 <= label < w.shape[0]:
        raise ValueError(f"label {label} out of range for {w.shape[0]} weight rows")
    phi, _ = forms_and_products(stats.cov[None], w, np.array([label]))
    return phi[0]


def sampler_factor(stats: ClassStats, lam: float) -> np.ndarray:
    """Cholesky-like factor L with L L^T = lam*Cov + eps*I.

    The jitter eps = 1e-9 * max(1, trace(lam*Cov)/F) guards against
    covariances that are positive semidefinite only up to rounding.
    A lam that is negative, not finite, or large enough to overflow
    lam*Cov raises ValueError.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    dim = stats.mean.shape[0]
    cov = stats.cov
    if cov.ndim == 2:
        asym = float(np.max(np.abs(cov - cov.T))) if dim > 0 else 0.0
        if asym > 1e-8:
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
    scaled = lam * cov
    trace = float(np.sum(scaled) if cov.ndim == 1 else np.trace(scaled))
    if not math.isfinite(trace):
        raise ValueError(f"class {stats.class_id}: lam * Cov is not finite at lam = {lam}")
    eps = 1e-9 * max(1.0, trace / dim)
    if cov.ndim == 1:
        return np.diag(np.sqrt(scaled + eps))
    try:
        return np.linalg.cholesky(scaled + eps * np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(
            f"class {stats.class_id}: factorization failed after jitter {eps:.3e}"
        ) from exc


def save_bank(bank: CovarianceBank, path: str) -> None:
    """Write a bank snapshot as CSV.

    Header line carries the bank geometry; each following row is
    (class_id, count, mean entries, row-major covariance entries), printed
    with 17 significant digits so float64 values round-trip bit-exactly.
    Each distinct 64-bit pattern of a row is formatted once: one ``%``
    template turns the row's sorted distinct values into text, and an
    index array then gives each cell the text of its own pattern.  A
    symmetric covariance thus costs at most F(F+1)/2 + F conversions
    instead of F² + F.  Bit patterns keep ``-0.0`` apart from ``0.0``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"num_classes={bank.num_classes},dim={bank.dim},mode={bank.mode}\n")
        for c, count in enumerate(bank.count.tolist()):
            cells = np.concatenate([bank.mean[c], np.ravel(bank.cov[c])])
            bits, where = np.unique(cells.view(np.int64), return_inverse=True)
            text = ((FLOAT + ",") * bits.size % tuple(bits.view(np.float64).tolist())).split(",")
            fh.write("%d,%d,%s\n" % (c, count, ",".join(np.array(text, dtype=object)[where])))


def load_bank(path: str) -> CovarianceBank:
    """Read a snapshot written by :func:`save_bank`, split into rows by
    ``data.read_csv_rows``; blank and whitespace-only lines are skipped.

    Every defect raises ``ValueError("<path>: line N: ...")``: a byte that
    is not UTF-8, a malformed header, a wrong row or cell count, a class id
    that is not an integer in range or that repeats, or a row that breaks
    the rule of :class:`ClassStatsView` (a negative count or one of 2**63 or
    more, a non-finite cell, a negative variance, or a full covariance
    asymmetric beyond 1e-12 * trace).
    """
    # A line is blank when it holds no comma and only whitespace.
    table, starts = read_csv_rows(path) if os.path.getsize(path) else ([], [1])
    kept = [i for i, row in enumerate(table) if len(row) > 1 or row and row[0].strip()]
    lines = [(starts[i], table[i]) for i in kept]
    if not lines:
        raise ValueError(f"{path}: line 1: empty bank file")
    head_no, head = lines[0]
    try:
        header = dict(item.split("=", 1) for item in head)
        num_classes = int(header["num_classes"])
        dim = int(header["dim"])
        mode = header["mode"]
    except (KeyError, ValueError):
        num_classes = dim = mode = None
    if num_classes is None or num_classes < 1 or dim < 1 or mode not in (FULL, DIAGONAL):
        raise ValueError(f"{path}: line {head_no}: malformed bank header {','.join(head)!r}")
    if len(lines) - 1 != num_classes:
        # blame the first surplus row, or the line after the last one
        n = lines[num_classes + 1][0] if len(lines) - 1 > num_classes else starts[kept[-1] + 1]
        raise ValueError(f"{path}: line {n}: expected {num_classes} rows, found {len(lines) - 1}")
    cov_len = dim * dim if mode == FULL else dim
    rows = lines[1:]
    # Cell counts are checked before the bank is allocated, so a header
    # that claims a huge geometry cannot allocate more than the file holds.
    for n, cells in rows:
        if len(cells) != 2 + dim + cov_len:
            raise ValueError(f"{path}: line {n}: expected {2 + dim + cov_len} cells, got {len(cells)}")
    bank = CovarianceBank(num_classes, dim, mode)
    seen = set()
    for n, cells in rows:
        try:
            cid, count = int(cells[0]), int(cells[1])
            values = np.array([float(v) for v in cells[2:]])
            if not 0 <= cid < num_classes:
                raise ValueError(f"class id {cid} out of range [0, {num_classes})")
            if cid in seen:
                raise ValueError(f"duplicate class id {cid}")
            seen.add(cid)
            mean, cov = values[:dim], values[dim:]
            bank.stats[cid] = ClassStats(cid, count, mean, cov.reshape(dim, dim) if mode == FULL else cov)
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
    return bank
