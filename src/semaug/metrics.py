"""Verification trials, cosine scoring, EER and minDCF.

The error rates follow the accept-when-score-at-or-above-threshold rule:
FRR(t) is the fraction of target trials scoring below t, FAR(t) the
fraction of nontarget trials scoring at or above t.  EER and minDCF come
from one sort of the scores: the candidate thresholds are the distinct
scores plus one sentinel below the minimum and one above the maximum, so
the accept-all and reject-all policies are always part of the sweep, and
a running count of targets gives exact FRR and FAR at every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CHUNK_ELEMENTS
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
        pairs = np.stack((self.index_a, self.index_b), axis=-1)
        if (negative := pairs[pairs < 0]).size:  # take would wrap it to a row from the end
            raise ValueError(f"trial index {negative[0]} is negative")
        if (same := self.index_a == self.index_b).any():
            raise ValueError(f"trial pairs index {self.index_a[same.argmax()]} with itself")

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
    if cap < 1:  # int(cap) would sample no nontarget pair
        raise ValueError(f"max_nontarget_per_target={max_nontarget_per_target} times {ta.size} "
                         "target pairs keeps no nontarget pair")
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
    """Cosine score for every trial; embeddings indexed by trial indices.
    Trials go in chunks whose two gathered (trials, F) blocks hold at most
    :data:`CHUNK_ELEMENTS` elements together, so memory is flat in the trial count."""
    E = np.asarray(embeddings, dtype=float)
    norms = np.linalg.norm(E, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero-norm embedding row")
    U = E / norms[:, None]
    scores = np.empty(len(trials))
    per = max(1, CHUNK_ELEMENTS // (2 * U.shape[1]))
    for s in range(0, scores.size, per):
        a, b = trials.index_a[s:s + per], trials.index_b[s:s + per]
        scores[s:s + per] = np.einsum("ij,ij->i", U.take(a, axis=0), U.take(b, axis=0))
    return ScoreSet(scores=np.clip(scores, -1.0, 1.0, out=scores), is_target=trials.is_target.copy())


def eer_and_min_dcf(scoreset: ScoreSet, params: DcfParams | None = None) -> tuple[float, float, float]:
    """Equal error rate, its threshold and minimum normalized detection cost.

    FAR - FRR is nonincreasing over the sweep, starting at +1 (accept all)
    and ending at -1 (reject all); the EER crossing is located exactly when
    a candidate hits it and linearly interpolated between the two adjacent
    candidates otherwise.  minDCF divides by the better trivial policy's
    cost, so it never exceeds 1 (reject-all and accept-all are swept).
    """
    p = params if params is not None else DcfParams()
    order = np.argsort(scoreset.scores)
    s = scoreset.scores[order]
    targets_before = np.concatenate([[0], np.cumsum(scoreset.is_target[order])])
    n_t = int(targets_before[-1])
    n_n = s.size - n_t
    if n_t == 0 or n_n == 0:
        raise ValueError("need at least one target and one nontarget trial")
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))  # first place of each distinct score
    cand = np.concatenate([[s[0] - 1.0], s[starts], [s[-1] + 1.0]])
    below = np.concatenate([[0], starts, [s.size]])  # scores below each candidate
    t_below = targets_before[below]
    frr = t_below / n_t
    far = (n_n - (below - t_below)) / n_n
    d = far - frr
    k = int(np.argmax(d <= 0.0))  # first index at or past the crossing
    if d[k] == 0.0:
        eer, threshold = frr[k], cand[k]
    else:
        alpha = d[k - 1] / (d[k - 1] - d[k])
        eer = frr[k - 1] + alpha * (frr[k] - frr[k - 1])
        threshold = cand[k - 1] + alpha * (cand[k] - cand[k - 1])
    norm = min(p.c_miss * p.p_target, p.c_fa * (1.0 - p.p_target))
    costs = (p.c_miss * p.p_target * frr + p.c_fa * (1.0 - p.p_target) * far) / norm
    return float(eer), float(threshold), float(costs.min())


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
        trials = TrialSet(index_a=a, index_b=b, is_target=t == 1)  # checks the self-pairs first
        bad = (t != 0) & (t != 1)
        if bad.any():
            raise ValueError(f"is_target must be 0 or 1, got {t[bad.argmax()]}")
        return trials

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
