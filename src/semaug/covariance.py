"""Streaming per-class Gaussian statistics of embedding vectors.

Each class keeps a running mean and a population (divide-by-n) covariance.
An update folds in one embedding or a whole batch, merging each class's
share of the batch in one step.  The covariance matrices drive two things:
the quadratic forms that appear in the closed-form augmented losses, and the
Cholesky factors used to draw explicitly augmented embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FLOAT, utf8_error

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


class CovarianceBank:
    """Per-class streaming mean/covariance container.

    Updates are single-writer; reads are safe while no update is running.
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
        self.stats = [ClassStats.empty(c, dim, mode) for c in range(num_classes)]

    def update(self, embedding: np.ndarray, label) -> None:
        """Fold one embedding (F,) with its label, or a batch (B, F) with
        labels (B,), into the classes' running statistics.

        Each class present merges its k batch rows, with mean m and scatter
        M2 = sum (x - m)(x - m)^T, by the pairwise update of Chan, Golub &
        LeVeque: with d = m - mu and n' = n + k,
            mu' = mu + d*k/n',  cov' = (n*cov + M2 + (n*k/n')*d d^T)/n'.
        Its k = 1 case is the exact one-pass (Welford) step; either way the
        result is the two-pass population covariance of everything seen.
        """
        x = np.asarray(embedding, dtype=float)
        labels = np.asarray(label)
        if x.ndim == 1:
            x, labels = x[None, :], labels.reshape(-1)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"embedding has shape {np.shape(embedding)}, expected ({self.dim},) or (B, {self.dim})")
        if labels.shape != x.shape[:1] or labels.dtype.kind not in "iu":
            raise ValueError(f"labels have shape {labels.shape} and dtype {labels.dtype}, "
                             f"expected integers of shape {x.shape[:1]}")
        bad = (labels < 0) | (labels >= self.num_classes)
        if bad.any():
            raise ValueError(f"label {labels[bad][0]} out of range [0, {self.num_classes})")
        # the classes present, their batch counts k, running counts n and
        # batch means m, with the rows of each class contiguous in batch order
        order = np.argsort(labels, kind="stable")
        k = np.bincount(labels, minlength=self.num_classes)
        classes = np.flatnonzero(k)
        k = k[classes]
        starts = np.cumsum(k) - k
        x = x[order]
        m = np.add.reduceat(x, starts, axis=0) / k[:, None]
        stats = [self.stats[c] for c in classes.tolist()]
        n = np.array([st.count for st in stats])
        delta = m - np.array([st.mean for st in stats])
        full = self.mode == FULL
        for st, d, mi, s, ki, ni in zip(stats, delta, m, starts.tolist(), k.tolist(), n.tolist()):
            n1 = ni + ki
            w = ni * ki / n1
            spread = w * (d[:, None] * d) if full else w * d * d
            if ki > 1:
                r = x[s:s + ki] - mi
                spread += r.T @ r if full else (r * r).sum(axis=0)
            st.mean = st.mean + d * ki / n1
            st.cov = (ni * st.cov + spread) / n1
            st.count = n1


def quadratic_forms(stats: ClassStats, head_weights: np.ndarray, label: int) -> np.ndarray:
    """Evaluate d_j^T Cov d_j with d_j = w_j - w_label against one class's cov.

    The label's own entry is exactly zero (its difference vector is zero).
    Computed through :func:`forms_and_product`, the path the losses use.
    """
    w = np.asarray(head_weights, dtype=float)
    dim = stats.mean.shape[0]
    if w.ndim != 2 or w.shape[1] != dim:
        raise ValueError(f"weights have shape {w.shape}, expected (C, {dim})")
    if not 0 <= label < w.shape[0]:
        raise ValueError(f"label {label} out of range for {w.shape[0]} weight rows")
    return forms_and_product(stats, w - w[label], label)[0]


def forms_and_product(stats: ClassStats, diffs: np.ndarray, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms phi and covariance product U of difference rows.

    ``diffs`` holds d_j = w_j - w_label.  One matrix product U = D Cov
    (C x F x F, or C x F elementwise for a diagonal covariance) gives both
    phi_j = d_j . U_j, with phi_label = 0, and the U the loss gradients
    need, so callers never form the product twice.
    """
    U = apply_cov(stats, diffs)
    phi = np.einsum("cf,cf->c", diffs, U)
    phi[label] = 0.0
    return phi, U


def apply_cov(stats: ClassStats, rows: np.ndarray) -> np.ndarray:
    """Right-multiply difference rows by the class covariance (any mode)."""
    if stats.cov.ndim == 2:
        return rows @ stats.cov
    return rows * stats.cov


def sampler_factor(stats: ClassStats, lam: float) -> np.ndarray:
    """Cholesky-like factor L with L L^T = lam*Cov + eps*I.

    The jitter eps = 1e-9 * max(1, trace(lam*Cov)/F) guards against
    covariances that are positive semidefinite only up to rounding.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    dim = stats.mean.shape[0]
    if stats.cov.ndim == 1:
        scaled = lam * stats.cov
        eps = 1e-9 * max(1.0, float(np.sum(scaled)) / dim)
        return np.diag(np.sqrt(scaled + eps))
    cov = stats.cov
    asym = float(np.max(np.abs(cov - cov.T))) if dim > 0 else 0.0
    if asym > 1e-8:
        raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
    scaled = lam * cov
    eps = 1e-9 * max(1.0, float(np.trace(scaled)) / dim)
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
        for st in bank.stats:
            cells = np.concatenate([st.mean, np.ravel(st.cov)])
            bits, where = np.unique(cells.view(np.int64), return_inverse=True)
            text = ((FLOAT + ",") * bits.size % tuple(bits.view(np.float64).tolist())).split(",")
            fh.write("%d,%d,%s\n" % (st.class_id, st.count, ",".join(np.array(text, dtype=object)[where])))


def load_bank(path: str) -> CovarianceBank:
    """Read a snapshot written by :func:`save_bank`.

    Every defect raises ``ValueError("<path>: line N: ...")``: a byte that
    is not UTF-8, a malformed header, a wrong row or cell count, a class id
    that is not an integer in range or that repeats, a negative count, a
    non-finite cell, a negative variance, or a full covariance asymmetric
    beyond 1e-12 * trace.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
        except UnicodeDecodeError:
            raise utf8_error(path) from None
    if not lines:
        raise ValueError(f"{path}: line 1: empty bank file")
    head_no, head = lines[0]
    try:
        header = dict(item.split("=", 1) for item in head.split(","))
        num_classes = int(header["num_classes"])
        dim = int(header["dim"])
        mode = header["mode"]
    except (KeyError, ValueError):
        num_classes = dim = mode = None
    if num_classes is None or num_classes < 1 or dim < 1 or mode not in (FULL, DIAGONAL):
        raise ValueError(f"{path}: line {head_no}: malformed bank header {head!r}")
    if len(lines) - 1 != num_classes:
        # blame the first surplus row, or the line after the last one
        n = lines[num_classes + 1][0] if len(lines) - 1 > num_classes else lines[-1][0] + 1
        raise ValueError(f"{path}: line {n}: expected {num_classes} rows, found {len(lines) - 1}")
    cov_len = dim * dim if mode == FULL else dim
    rows = [(n, ln.split(",")) for n, ln in lines[1:]]
    # Cell counts are checked before the bank is allocated, so a header
    # that claims a huge geometry cannot allocate more than the file holds.
    for n, cells in rows:
        if len(cells) != 2 + dim + cov_len:
            raise ValueError(f"{path}: line {n}: expected {2 + dim + cov_len} cells, got {len(cells)}")
    bank = CovarianceBank(num_classes, dim, mode)
    seen = set()
    for n, cells in rows:
        where = f"{path}: line {n}"
        try:
            cid, count = int(cells[0]), int(cells[1])
            values = np.array([float(v) for v in cells[2:]])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not 0 <= cid < num_classes:
            raise ValueError(f"{where}: class id {cid} out of range [0, {num_classes})")
        if cid in seen:
            raise ValueError(f"{where}: duplicate class id {cid}")
        seen.add(cid)
        if count < 0:
            raise ValueError(f"{where}: negative count {count}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{where}: non-finite mean or covariance cell")
        mean, cov = values[:dim], values[dim:]
        if mode == FULL:
            cov = cov.reshape(dim, dim)
        variances = np.diagonal(cov) if mode == FULL else cov
        if np.any(variances < 0.0):
            raise ValueError(f"{where}: negative variance {float(variances.min())!r}")
        if mode == FULL:
            asym = float(np.max(np.abs(cov - cov.T)))
            if asym > 1e-12 * float(np.trace(cov)):
                raise ValueError(f"{where}: covariance asymmetric by {asym:.3e}")
        bank.stats[cid] = ClassStats(cid, count, mean, cov)
    return bank
