"""Verification trials, cosine scoring, EER and minDCF.

The error rates follow the accept-when-score-at-or-above-threshold rule:
FRR(t) is the fraction of target trials scoring below t, FAR(t) the
fraction of nontarget trials scoring at or above t.  Both metrics sweep
the same candidate thresholds: the sorted unique scores plus one sentinel
below the minimum and one above the maximum, so the accept-all and
reject-all policies are always part of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FLOAT, parse_rows, read_csv_rows, read_int_block, write_csv
from .rng import philox_rng


@dataclass
class TrialSet:
    index_a: np.ndarray
    index_b: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.index_a = np.asarray(self.index_a, dtype=int)
        self.index_b = np.asarray(self.index_b, dtype=int)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if not (self.index_a.shape == self.index_b.shape == self.is_target.shape):
            raise ValueError("trial arrays must have equal length")
        if np.any(self.index_a == self.index_b):
            raise ValueError("a trial cannot pair an index with itself")

    def __len__(self) -> int:
        return self.index_a.size


@dataclass
class ScoreSet:
    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.shape != self.is_target.shape:
            raise ValueError("scores and labels must have equal length")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


@dataclass
class DcfParams:
    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        if not (0 < self.c_miss < np.inf and 0 < self.c_fa < np.inf):
            raise ValueError("costs must be positive and finite")


def build_trials(labels, max_nontarget_per_target, seed) -> TrialSet:
    """All within-class pairs as targets; nontarget pairs sampled uniformly
    without replacement, capped at max_nontarget_per_target times the
    target count (pass float('inf') for exhaustive nontargets).  Indices
    refer to positions in ``labels``."""
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if n < 2:
        raise ValueError("need at least 2 samples to build trials")
    if not max_nontarget_per_target > 0:
        raise ValueError(f"max_nontarget_per_target must be > 0, got {max_nontarget_per_target}")
    ia, ib = np.triu_indices(n, k=1)
    target_mask = labels[ia] == labels[ib]
    ta, tb = ia[target_mask], ib[target_mask]
    na, nb = ia[~target_mask], ib[~target_mask]
    if ta.size == 0:
        raise ValueError("no class has two samples: no target pair exists")
    if na.size == 0:
        raise ValueError("only one class present: no nontarget pair exists")
    cap = max_nontarget_per_target * ta.size
    if na.size > cap:
        keep = philox_rng(seed).choice(na.size, size=int(cap), replace=False)
        keep.sort()
        na, nb = na[keep], nb[keep]
    return TrialSet(
        index_a=np.concatenate([ta, na]),
        index_b=np.concatenate([tb, nb]),
        is_target=np.concatenate([np.ones(ta.size, bool), np.zeros(na.size, bool)]),
    )


def score_trials(embeddings, trials: TrialSet) -> ScoreSet:
    """Cosine score for every trial; embeddings indexed by trial indices."""
    E = np.asarray(embeddings, dtype=float)
    norms = np.linalg.norm(E, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero-norm embedding row")
    U = E / norms[:, None]
    scores = np.clip(np.sum(U[trials.index_a] * U[trials.index_b], axis=1), -1.0, 1.0)
    return ScoreSet(scores=scores, is_target=trials.is_target.copy())


def _sweep(scoreset: ScoreSet):
    """Candidate thresholds with exact-count FRR and FAR at each."""
    t_scores = np.sort(scoreset.scores[scoreset.is_target])
    n_scores = np.sort(scoreset.scores[~scoreset.is_target])
    if t_scores.size == 0 or n_scores.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    uniq = np.unique(scoreset.scores)
    cand = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    frr = np.searchsorted(t_scores, cand, side="left") / t_scores.size
    far = (n_scores.size - np.searchsorted(n_scores, cand, side="left")) / n_scores.size
    return cand, frr, far


def compute_eer(scoreset: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    FAR - FRR is nonincreasing over the sweep, starting at +1 (accept all)
    and ending at -1 (reject all); the crossing is located exactly when a
    candidate hits it and linearly interpolated between the two adjacent
    candidates otherwise.
    """
    cand, frr, far = _sweep(scoreset)
    d = far - frr
    k = int(np.argmax(d <= 0.0))  # first index at or past the crossing
    if d[k] == 0.0:
        return float(frr[k]), float(cand[k])
    alpha = d[k - 1] / (d[k - 1] - d[k])
    eer = frr[k - 1] + alpha * (frr[k] - frr[k - 1])
    threshold = cand[k - 1] + alpha * (cand[k] - cand[k - 1])
    return float(eer), float(threshold)


def compute_min_dcf(scoreset: ScoreSet, params: DcfParams | None = None) -> float:
    """Minimum normalized detection cost over the threshold sweep.

    Normalization divides by the better trivial policy's cost, so the
    result never exceeds 1 (reject-all or accept-all is always swept).
    """
    p = params if params is not None else DcfParams()
    cand, frr, far = _sweep(scoreset)
    norm = min(p.c_miss * p.p_target, p.c_fa * (1.0 - p.p_target))
    costs = (p.c_miss * p.p_target * frr + p.c_fa * (1.0 - p.p_target) * far) / norm
    return float(costs.min())


TRIALS_HEADER = ["index_a", "index_b", "is_target"]


def write_trials(path, trials: TrialSet) -> None:
    write_csv(path, TRIALS_HEADER, "%d,%d,%d",
              zip(trials.index_a.tolist(), trials.index_b.tolist(), trials.is_target.astype(int).tolist()))


def read_trials(path) -> TrialSet:
    """Read a trial list written by :func:`write_trials`.

    Every defect, including an index outside [0, 2**63), a trial that
    pairs an index with itself or an ``is_target`` other than 0 or 1,
    raises ``ValueError("<path>: line N: ...")``.  The block is cast to
    int64 in one call and checked at once; a file that fails names its
    first bad line by bisection (``data.parse_rows``), which holds because
    no rule looks ahead.  A file in the writer's own plain form is first
    read by ``data.read_int_block``, whose block goes through the same
    rules; only when that read or a rule fails is the file read again row
    by row, and only that read reports a defect.
    """
    def parse(block):
        try:
            T = np.array(block, dtype=np.int64)
            in_range = (T[:, :2] >= 0).all()
        except OverflowError:  # a cell outside int64: read again as Python ints to name it
            T = np.array([[int(v) for v in row] for row in block], dtype=object)
            in_range = ((T[:, :2] >= 0) & (T[:, :2] < 2**63)).all()
        if not in_range:
            raise ValueError("index outside [0, 2**63)")
        a, b, t = T.T
        if (a == b).any():
            raise ValueError(f"trial pairs index {a[(a == b).argmax()]} with itself")
        bad = (t != 0) & (t != 1)
        if bad.any():
            raise ValueError(f"is_target must be 0 or 1, got {t[bad.argmax()]}")
        return TrialSet(index_a=a, index_b=b, is_target=t == 1)

    block = read_int_block(path, TRIALS_HEADER, 3)
    if block is not None:
        try:
            return parse(block)
        except ValueError:
            pass  # the row read below names the line
    rows, lines = read_csv_rows(path)
    if rows[0] != TRIALS_HEADER:
        raise ValueError(f"{path}: line 1: expected header 'index_a,index_b,is_target'")
    return parse_rows(path, rows, lines, 3, parse)


def write_scores(path, trials: TrialSet, scoreset: ScoreSet) -> None:
    write_csv(path, ["index_a", "index_b", "score", "is_target"], "%d,%d," + FLOAT + ",%d",
              zip(trials.index_a.tolist(), trials.index_b.tolist(), scoreset.scores.tolist(),
                  scoreset.is_target.astype(int).tolist()))


def format_metrics(eer: float, min_dcf: float) -> str:
    return f"EER(%)={100.0 * eer:.3f} minDCF={min_dcf:.3f}"
