"""Loss functions for embedding classifiers, with analytic gradients.

All five variants are one expression for a sample f of class y,

    value = log(1 + sum_{j != y} exp(a*(u_j - u_y) + a*m*coef + lam*a^2*phi_j/2)),

with phi_j = (w_j - w_y)^T Cov_y (w_j - w_y), the closed-form bound on the
expected loss when f is perturbed by N(0, lam*Cov_y).  Only the logit map
u differs:

* affine (``softmax_ce``, ``isda_bound``): u = W f + b, a = 1, no margin;
  ``softmax_ce`` is lam = 0, so it is plain cross entropy.
* cosine (``am_softmax``, ``daam_softmax``, ``dasa_bound``,
  ``margin_bound``): u_j = cos(w_j, f), a = s, margin m.

The margin coefficient coef and the strength lam follow one rule: each is
a factor times c(u_y), a difficulty coefficient (``DA`` or ``DY``) of the
target cosine, or c = 1 for mode ``none`` (the strength's ``constant``).
``am_softmax`` has coef = 1 and lam = 0; ``daam_softmax`` has coef = c(u_y);
``dasa_bound`` adds lam = ramp(t) * lambda0 or, with a dynamic strength,
ramp(t) * c(u_y); ``margin_bound`` takes lam and a frozen coef explicitly.

``variant_loss`` picks the variant a :class:`LossConfig` names.  Every
function takes a batch (B, F) with labels (B,); one embedding (F,) with an
int label is a batch of one.  Every call returns per-row values (B,),
embedding gradients (B, F) and ``per_sample_terms`` entries (B,), and the
weight (and bias) gradients of the summed loss.  Gradients are returned
for the embedding rows, the raw (unnormalized) weight rows, and, on the
affine map, the biases; with ``value_only=True`` a function returns the
values alone, gradients None.
The class covariance is treated as a constant: no gradient flows into the
statistics bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import CHUNK_ELEMENTS, ClassStats, CovarianceBank, checked_batch, forms_and_products

VARIANTS = ("softmax", "isda", "am", "daam", "dasa")
AFFINE_VARIANTS = ("softmax", "isda")  # u = W f + b with biases; the rest are cosine
DIFFICULTY_MODES = ("none", "DA", "DY")
STRENGTH_MODES = ("constant", "DA", "DY")
# Default finite-difference step: it keeps the extrapolation's rounding noise
# (2.7x one central difference's) below what tiny entries absorb at the 1e-5 gate.
GRAD_EPSILON = 6e-5


@dataclass
class ClassifierHead:
    """Last-layer parameters: weight rows, optional biases, scale, margin.

    The margin-loss path normalizes weight rows in the forward pass and
    expects unit-norm embeddings; biases are used only by the softmax path.
    """

    weights: np.ndarray
    biases: np.ndarray | None = None
    scale: float = 32.0
    margin: float = 0.2

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases is not None:
            self.biases = np.asarray(self.biases, dtype=float)
            if self.biases.shape != (self.weights.shape[0],):
                raise ValueError("biases must have one entry per weight row")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be nonnegative and finite, got {self.margin}")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class LossConfig:
    """Which loss variant to run and how augmentation strength is scheduled.

    ``ramp_total_iters`` is the schedule horizon T; strength stays zero for
    the first ``deferred_fraction`` of it and then ramps linearly as t/T
    times ``lambda0`` (or times the sample's difficulty coefficient when
    ``strength_mode`` is dynamic).

    Only ``daam`` and ``dasa`` weigh by difficulty and only ``dasa``
    schedules a dynamic strength, so other variants read ``difficulty =
    "none"`` and ``strength_mode = "constant"`` whatever they were given.
    ``lambda0`` is read only at a constant strength, by ``isda`` and by
    ``dasa`` with ``strength_mode = "constant"``: the default ``dasa``
    (``DA``) ignores it.
    """

    variant: str = "dasa"
    difficulty: str = "DA"
    strength_mode: str = "DA"
    lambda0: float = 0.15
    gamma: float = 2.0
    ramp_total_iters: int = 1
    deferred_fraction: float = 0.4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.difficulty not in DIFFICULTY_MODES:
            raise ValueError(f"difficulty must be one of {DIFFICULTY_MODES}, got {self.difficulty!r}")
        if self.strength_mode not in STRENGTH_MODES:
            raise ValueError(f"strength_mode must be one of {STRENGTH_MODES}, got {self.strength_mode!r}")
        if self.variant in ("softmax", "isda", "am"):
            self.difficulty = "none"
        if self.variant != "dasa":
            self.strength_mode = "constant"
        if not 0 <= self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be >= 0 and finite, got {self.lambda0}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma == math.inf:
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.ramp_total_iters < 1:
            raise ValueError(f"ramp_total_iters must be >= 1, got {self.ramp_total_iters}")
        if not 0.0 <= self.deferred_fraction <= 1.0:
            raise ValueError(f"deferred_fraction must be in [0, 1], got {self.deferred_fraction}")


@dataclass
class LossOutput:
    """Per-row values (B,), gradients w.r.t. the embedding rows (B, F),
    gradients of the summed value w.r.t. the head, and per-row terms
    ``cos_y``, ``coef`` and ``lambda`` (B,)."""

    value: np.ndarray
    grad_embedding: np.ndarray
    grad_weights: np.ndarray
    grad_biases: np.ndarray | None = None
    per_sample_terms: dict = field(default_factory=dict)


def difficulty_da(cos_y):
    """Difficulty coefficient (1 - cos)/2 in [0, 1], decreasing in cos;
    elementwise over an array of cosines, a float for one."""
    c = (1.0 - np.minimum(np.maximum(cos_y, -1.0), 1.0)) / 2.0
    return c if np.ndim(c) else float(c)


def difficulty_dy(cos_y, gamma: float):
    """Exponential difficulty coefficient exp(1 - cos)/gamma; elementwise
    over an array of cosines, a float for one."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    c = np.exp(1.0 - np.minimum(np.maximum(cos_y, -1.0), 1.0)) / gamma
    return c if np.ndim(c) else float(c)


def _scaled(name: str, spec, uy, gamma: float):
    """A (mode, factor) spec at the target cosines: factor * c(u_y) and its
    slope factor * c'(u_y) (0 where u_y is clamped), elementwise, c the
    mode's difficulty coefficient; modes ``none`` and ``constant`` give the
    floats factor and 0 for every row."""
    mode, factor = spec[0], float(spec[1])
    if not 0 <= factor < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {factor}")
    if mode in ("none", "constant"):
        return factor, 0.0
    c = np.asarray(uy, dtype=float)
    inside = np.abs(c) <= 1.0
    if mode == "DA":
        return factor * difficulty_da(c), factor * np.where(inside, -0.5, 0.0)
    if mode == "DY":
        v = difficulty_dy(c, gamma)
        return factor * v, factor * np.where(inside, -v, 0.0)
    raise ValueError(f"unknown difficulty mode {mode!r}")


def lambda_schedule(t: float, config: LossConfig, coef: float | None = None) -> float:
    """Augmentation strength at iteration t.

    The ramp t/T is zero during the deferred fraction and clamped at T.
    Constant mode returns ramp * lambda0; dynamic modes return ramp times
    the sample's difficulty coefficient, which the caller must supply.
    """
    if t < 0:
        raise ValueError(f"iteration must be >= 0, got {t}")
    frac = min(t, config.ramp_total_iters) / config.ramp_total_iters
    r = 0.0 if frac < config.deferred_fraction else frac
    if config.strength_mode == "constant":
        return r * config.lambda0
    if coef is None:
        raise ValueError("dynamic strength_mode needs the sample's difficulty coefficient")
    return r * coef


def reads_bank(config: LossConfig, t: float) -> bool:
    """Whether the loss ``config`` names may read the covariance bank at
    iteration t: only ``isda`` and ``dasa`` read it, and only for rows whose
    strength is nonzero, which takes a nonzero schedule."""
    return config.variant in ("isda", "dasa") and lambda_schedule(t, config, 1.0) > 0


def _diag_cos(w_y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cosine between each target weight row and its embedding as a (B, 1)
    column, for diagnostics only (0 where either is zero).  ``np.vecdot``
    takes the same BLAS dot per row as ``w_y[i] @ f[i]``."""
    denom = np.sqrt(np.vecdot(w_y, w_y)) * np.sqrt(np.vecdot(f, f))
    return (np.vecdot(w_y, f) / np.where(denom > 0, denom, np.inf))[:, None]


def _check_finite(*arrays) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            raise ValueError("non-finite values in loss inputs")


def _normalized_rows(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt((W * W).sum(axis=1))
    if (norms < 1e-12).any():
        raise ValueError("zero-norm weight row")
    return W / norms[:, None], norms


def _softmax_parts(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row maxima, row sums of exp(e - max) and the softmax of each row."""
    emax = e.max(axis=1, keepdims=True)
    ee = np.exp(e - emax)
    total = ee.sum(axis=1, keepdims=True)
    return emax, total, ee / total


def _augment(e, g, phi_rows, R, labels, lam, a: float, stats, value_only: bool) -> None:
    """Add the augmentation term lam*a^2*phi/2 to the rows of e with lam != 0,
    their phi to phi_rows (when given) and, unless ``value_only``, the
    covariance part of their weight gradient to g.

    ``lam`` is a (B, 1) column or one float for every row; ``stats`` is one
    ClassStats for every label or a CovarianceBank.  The distinct labels
    y of those rows are taken in chunks of :data:`CHUNK_ELEMENTS` // (C*F);
    per chunk, one gather of their covariances Cov_y and one call of
    :func:`~semaug.covariance.forms_and_products` give every label's
    product U_y = D Cov_y of the differences D = R - R_y and its quadratic
    forms phi_y = rowwise D . U_y (with phi_y[y] = 0).  Once a row's
    phi is added its e is final, so its softmax q and the weights
    w = lam*a^2 give the chunk's weight gradient: with s_y the sum of w*q
    over the rows of label y, g += sum_y s_y[:, None] * U_y and
    g[y] -= s_y @ U_y (row y of U_y is 0, so q's target slot drops out).
    """
    if isinstance(lam, np.ndarray):
        rows = np.flatnonzero(lam[:, 0] != 0.0)
    else:
        rows = np.arange(labels.size) if lam != 0.0 else labels[:0]
    if rows.size == 0:
        return
    if stats is None:
        raise ValueError("augmentation strength > 0 requires class statistics")
    # the rows grouped by label in label order, the distinct labels ys, and
    # each group's first position among the rows
    rows = rows[np.argsort(labels[rows], kind="stable")]
    ls = labels[rows]
    first = np.concatenate(([0], np.flatnonzero(ls[1:] != ls[:-1]) + 1, [ls.size]))
    ys = ls[first[:-1]]
    group = np.repeat(np.arange(ys.size), np.diff(first))  # each row's label among ys
    C, F = R.shape
    per = max(1, CHUNK_ELEMENTS // (C * F))
    for s in range(0, ys.size, per):
        y = ys[s:s + per]
        at = slice(first[s], first[min(s + per, ys.size)])
        sig = stats.cov[None] if isinstance(stats, ClassStats) else stats.cov.take(y, axis=0)
        phi, U = forms_and_products(sig, R, y)
        phi = phi.take(group[at] - s, axis=0)
        i = rows[at]
        lam_i = lam[i] if isinstance(lam, np.ndarray) else lam
        e[i] = e_i = e[i] + 0.5 * lam_i * a * a * phi
        if phi_rows is not None:
            phi_rows[i] = phi
        if not value_only:
            wq = np.add.reduceat(lam_i * a * a * _softmax_parts(e_i)[2], first[s:s + y.size] - first[s], axis=0)
            g += np.einsum("lc,lcf->cf", wq, U)
            g[y] -= (wq[:, None, :] @ U)[:, 0]


def _loss(
    embedding: np.ndarray,
    head: ClassifierHead,
    label,
    *,
    cosine: bool,
    stats=None,
    coef: tuple[str, float] = ("none", 1.0),
    lam: tuple[str, float] = ("none", 0.0),
    gamma: float = 1.0,
    value_only: bool = False,
) -> LossOutput:
    """The one forward/backward behind every variant (see the module doc).

    ``cosine`` picks the logit map: False gives u = W f + b with a = 1 and
    no margin; True gives u = W_hat f with a = s, margin m*coef, and the
    gradient chained back through the row normalization.  ``coef`` and
    ``lam`` are (mode, factor) pairs under one rule: each is factor *
    c(u_y), with slope factor * c'(u_y) into the gradient, where c is the
    mode's difficulty coefficient at ``gamma``, or c = 1 (no gradient path)
    for mode ``none`` or ``constant``; a factor must be finite and >= 0.
    ``stats`` is one ClassStats for every label, or a CovarianceBank whose
    row y holds class y's; it is read only for the labels of rows with
    lam != 0.  With ``value_only`` the call returns right after the value,
    with no gradients (None) and no per-sample terms.

    Every row is evaluated at once; the augmentation term takes the
    distinct labels of the rows with lam != 0 in chunks (see
    :func:`_augment`), so its memory stays flat in the class count.
    """
    f, labels = checked_batch(embedding, label, head.dim, head.num_classes)
    b = None if cosine else head.biases
    _check_finite(head.weights, b)
    if cosine:
        fnorm = np.sqrt(np.vecdot(f, f))
        off = np.abs(fnorm - 1.0) > 1e-3
        if off.any():
            if (fnorm < 1e-12).any():
                raise ValueError("zero-norm embedding")
            raise ValueError(f"embedding norm {fnorm[off][0]:.6f}, expected unit length")
        R, norms = _normalized_rows(head.weights)
        a, m = head.scale, head.margin
    else:
        R, a, m = head.weights, 1.0, 0.0
    B, C = f.shape[0], R.shape[0]
    u = f @ R.T if b is None else f @ R.T + b
    target = np.arange(0, B * C, C) + labels  # flat index of (i, labels[i]) in a (B, C) array
    uy = u.take(target)[:, None]

    # per-row coefficients and strengths: (B, 1) columns, or one float for every row
    coef, dcoef = _scaled("coef", coef, uy, gamma)
    lam, dlam = _scaled("lam", lam, uy, gamma)

    e = a * (u - uy) + a * m * coef
    e.put(target, 0.0)  # target slot carries the constant exp(0) = 1; phi is 0 there
    g = np.zeros(R.shape)  # d(sum of values)/d(R)
    phi_rows = np.zeros(e.shape) if isinstance(dlam, np.ndarray) and not value_only else None  # for d(lam)/d(u_y)
    _augment(e, g, phi_rows, R, labels, lam, a, stats, value_only)

    emax, total, q = _softmax_parts(e)
    value = emax[:, 0] + np.array([math.log(t) for t in total[:, 0].tolist()])
    if value_only:
        return LossOutput(value=value, grad_embedding=None, grad_weights=None)
    q.put(target, 0.0)
    # d(value)/d(u_y); d(value)/d(u_j) = a*q_j for j != y
    duy = (-a + a * m * dcoef) * q.sum(axis=1, keepdims=True)
    if phi_rows is not None:
        duy += 0.5 * a * a * dlam * np.vecdot(q, phi_rows)[:, None]
    grad_f = a * (q @ R) + duy * R.take(labels, axis=0)
    p = a * q  # d(value)/d(u), so p.T @ f is the rest of d(sum of values)/d(R)
    p.put(target, duy)
    g += p.T @ f
    grad_b = None if b is None else p.sum(axis=0)
    if cosine:
        # chain through row normalization: w_hat = w/|w|
        g = (g - (g * R).sum(axis=1, keepdims=True) * R) / norms[:, None]
    cos_y = uy if cosine else _diag_cos(R.take(labels, axis=0), f)
    terms = {"cos_y": cos_y, "coef": coef, "lambda": lam}
    return LossOutput(value=value, grad_embedding=grad_f, grad_weights=g, grad_biases=grad_b,
                      per_sample_terms={k: np.broadcast_to(v, (B, 1))[:, 0].copy() for k, v in terms.items()})


def softmax_ce(embedding: np.ndarray, head: ClassifierHead, label: int, *, value_only: bool = False) -> LossOutput:
    """Cross entropy -log softmax(W f + b)[label]: the affine map at lam = 0."""
    return _loss(embedding, head, label, cosine=False, value_only=value_only)


def isda_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    lam: float,
    label: int,
    *,
    value_only: bool = False,
) -> LossOutput:
    """Closed-form bound on the expected cross entropy under Gaussian
    perturbation of the embedding with covariance lam*Cov_label: the
    affine map with strength lam, so lam = 0 is ``softmax_ce`` itself.
    ``bank`` may also be one ClassStats, read as every label's."""
    return _loss(embedding, head, label, cosine=False, stats=bank, lam=("none", lam), value_only=value_only)


def am_softmax(embedding: np.ndarray, head: ClassifierHead, label: int, *, value_only: bool = False) -> LossOutput:
    """Additive-margin softmax on scaled cosines, no bias: the cosine map
    with coef = 1 and lam = 0."""
    return _loss(embedding, head, label, cosine=True, value_only=value_only)


def daam_softmax(
    embedding: np.ndarray,
    head: ClassifierHead,
    label: int,
    difficulty: str = "DA",
    gamma: float = 2.0,
    *,
    value_only: bool = False,
) -> LossOutput:
    """Additive-margin softmax with the margin scaled by a per-sample
    difficulty coefficient of the target cosine (harder samples get a
    larger effective margin)."""
    return _loss(embedding, head, label, cosine=True, coef=(difficulty, 1.0), gamma=gamma, value_only=value_only)


def dasa_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    label: int,
    config: LossConfig,
    t: float,
    *,
    value_only: bool = False,
) -> LossOutput:
    """Closed-form bound on the expected difficulty-aware margin loss under
    Gaussian embedding perturbation with covariance lam*Cov_label, where lam
    follows the config's schedule at iteration t."""
    return _loss(
        embedding, head, label, cosine=True, stats=bank, coef=(config.difficulty, 1.0),
        lam=(config.strength_mode, lambda_schedule(t, config, 1.0)), gamma=config.gamma, value_only=value_only,
    )


def margin_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    stats: ClassStats,
    label: int,
    lam: float,
    coef: float = 1.0,
    *,
    value_only: bool = False,
) -> LossOutput:
    """Margin-family bound at an explicit strength lam and an explicit,
    frozen margin coefficient (1.0 gives the plain-margin bound).  Used by
    the Monte-Carlo cross checks, which evaluate the coefficient once at
    the clean embedding."""
    return _loss(embedding, head, label, cosine=True, stats=stats, coef=("none", coef), lam=("none", lam),
                 value_only=value_only)


def variant_loss(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    label: int,
    config: LossConfig,
    t: float,
    *,
    value_only: bool = False,
) -> LossOutput:
    """The loss ``config.variant`` names, at iteration t of its schedule,
    for one embedding or a batch (see the module doc); with ``value_only``
    just its value."""
    v = config.variant
    if v == "softmax":
        return softmax_ce(embedding, head, label, value_only=value_only)
    if v == "isda":
        return isda_bound(embedding, head, bank, lambda_schedule(t, config), label, value_only=value_only)
    if v == "am":
        return am_softmax(embedding, head, label, value_only=value_only)
    if v == "daam":
        return daam_softmax(embedding, head, label, config.difficulty, config.gamma, value_only=value_only)
    return dasa_bound(embedding, head, bank, label, config, t, value_only=value_only)


def finite_difference_error(value, pairs, epsilon: float) -> float:
    """Max relative error of analytic gradients against finite differences.

    ``pairs`` lists (array, analytic gradient of ``value()`` w.r.t. that
    array); every entry is perturbed in place and restored bit-exactly.
    The numeric derivative is the Richardson extrapolation
    (4*D(eps/2) - D(eps))/3 of central differences
    D(h) = (value(x+h) - value(x-h))/(2h), which cancels the O(eps^2)
    truncation term that would otherwise dominate tiny entries.  The
    relative error of a pair (ga, gf) is |ga - gf| / max(1e-8, |ga| + |gf|).
    """
    def central(arr, idx, orig, h):
        arr[idx] = orig + h
        vp = value()
        arr[idx] = orig - h
        vm = value()
        arr[idx] = orig
        return (vp - vm) / (2 * h)

    worst = 0.0
    for arr, grad in pairs:
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            gf = (4 * central(arr, idx, orig, epsilon / 2) - central(arr, idx, orig, epsilon)) / 3
            ga = grad[idx]
            worst = max(worst, abs(ga - gf) / max(1e-8, abs(ga) + abs(gf)))
    return worst


def _check_epsilon(epsilon: float) -> None:
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon must be in [1e-7, 1e-4], got {epsilon}")


def loss_gradient_check(loss_fn, embedding: np.ndarray, head: ClassifierHead, epsilon: float = GRAD_EPSILON) -> float:
    """Max relative error of analytic gradients vs finite differences
    (see :func:`finite_difference_error`).

    ``loss_fn(embedding, head, value_only=False) -> LossOutput`` must close
    over everything else (label, bank, config); it is called on one
    embedding (F,), a batch of one, and the finite differences call it
    with ``value_only=True``.  Every entry of that row's grad_embedding,
    of grad_weights and, when present, of grad_biases is checked.
    """
    _check_epsilon(epsilon)
    f0 = np.asarray(embedding, dtype=float).copy()
    W0 = head.weights.copy()
    b0 = None if head.biases is None else head.biases.copy()
    out = loss_fn(f0, head)
    h = ClassifierHead(weights=W0, biases=b0, scale=head.scale, margin=head.margin)

    def value() -> float:
        return loss_fn(f0, h, value_only=True).value[0]  # h holds W0 and b0 themselves, perturbed in place

    pairs = [(f0, out.grad_embedding[0]), (W0, out.grad_weights)]
    if out.grad_biases is not None:
        pairs.append((b0, out.grad_biases))
    return finite_difference_error(value, pairs, epsilon)
