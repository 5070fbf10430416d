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

from .data import FLOAT, data_rows, read_csv_rows, write_csv
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
        if not (self.c_miss > 0 and self.c_fa > 0):
            raise ValueError("costs must be positive")


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


def cosine_score(e_a, e_b) -> float:
    """Cosine similarity, clipped to [-1, 1] against rounding."""
    a = np.asarray(e_a, dtype=float)
    b = np.asarray(e_b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


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


def write_trials(path, trials: TrialSet) -> None:
    write_csv(path, ["index_a", "index_b", "is_target"],
              (("%d,%d,%d", row) for row in
               zip(trials.index_a.tolist(), trials.index_b.tolist(), trials.is_target.tolist())))


def read_trials(path) -> TrialSet:
    """Read a trial list written by :func:`write_trials`.

    Every defect, including an index outside [0, 2**63), a trial that
    pairs an index with itself or an ``is_target`` other than 0 or 1,
    raises ``ValueError("<path>: line N: ...")``.
    """
    ia, ib, tg = [], [], []
    rows = read_csv_rows(path)
    if rows[0] != ["index_a", "index_b", "is_target"]:
        raise ValueError(f"{path}: line 1: expected header 'index_a,index_b,is_target'")
    for ln, row in data_rows(path, rows, 3):
        try:
            a, b, t = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        if not (0 <= a < 2**63 and 0 <= b < 2**63):
            raise ValueError(f"{path}: line {ln}: index outside [0, 2**63)")
        if a == b:
            raise ValueError(f"{path}: line {ln}: trial pairs index {a} with itself")
        if t not in (0, 1):
            raise ValueError(f"{path}: line {ln}: is_target must be 0 or 1, got {t}")
        ia.append(a)
        ib.append(b)
        tg.append(t == 1)
    return TrialSet(index_a=np.array(ia), index_b=np.array(ib), is_target=np.array(tg))


def write_scores(path, trials: TrialSet, scoreset: ScoreSet) -> None:
    write_csv(path, ["index_a", "index_b", "score", "is_target"],
              (("%d,%d," + FLOAT + ",%d", row) for row in
               zip(trials.index_a.tolist(), trials.index_b.tolist(),
                   scoreset.scores.tolist(), scoreset.is_target.tolist())))


def format_metrics(eer: float, min_dcf: float) -> str:
    return f"EER(%)={100.0 * eer:.3f} minDCF={min_dcf:.3f}"
