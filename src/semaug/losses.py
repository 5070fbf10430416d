"""Loss functions for embedding classifiers, with analytic gradients.

All five variants are one expression for a sample f of class y,

    value = log(1 + sum_{j != y} exp(a*(u_j - u_y) + a*m*coef + lam*a^2*phi_j/2)),

with phi_j = (w_j - w_y)^T Cov_y (w_j - w_y), the closed-form bound on the
expected loss when f is perturbed by N(0, lam*Cov_y).  Only the logit map
u differs:

* affine (``softmax_ce``, ``isda_bound``): u = W f + b, a = 1, no margin;
  ``softmax_ce`` is lam = 0, so it is plain cross entropy.
* cosine (``am_softmax``, ``daam_softmax``, ``dasa_bound``,
  ``margin_bound``): u_j = cos(w_j, f), a = s, margin m.  ``am_softmax``
  has coef = 1 and lam = 0; ``daam_softmax`` scales the margin by a
  per-sample difficulty coefficient (``DA`` or ``DY``) of u_y;
  ``dasa_bound`` adds the strength lam on the config's schedule, constant
  or itself a difficulty coefficient; ``margin_bound`` takes lam and a
  frozen coef explicitly.

``variant_loss`` picks the variant a :class:`LossConfig` names.  Every
function evaluates one sample; a batch loss is the mean of independent
per-sample evaluations.  Gradients are returned for the embedding, the
raw (unnormalized) weight rows, and, on the affine map, the biases.  The
class covariance is treated as a constant: no gradient flows into the
statistics bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import ClassStats, CovarianceBank, forms_and_product

VARIANTS = ("softmax", "isda", "am", "daam", "dasa")
DIFFICULTY_MODES = ("none", "DA", "DY")
STRENGTH_MODES = ("constant", "DA", "DY")


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
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.margin < 0:
            raise ValueError(f"margin must be nonnegative, got {self.margin}")

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
    """

    variant: str = "dasa"
    difficulty: str = "DA"
    strength_mode: str = "constant"
    lambda0: float = 0.1
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
        if self.variant in ("softmax", "isda", "am") and self.difficulty != "none":
            raise ValueError(f"variant {self.variant!r} does not take a difficulty mode")
        if self.variant != "dasa":
            self.strength_mode = "constant"  # only dasa schedules a dynamic strength
        if self.lambda0 < 0:
            raise ValueError(f"lambda0 must be >= 0, got {self.lambda0}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.ramp_total_iters < 1:
            raise ValueError(f"ramp_total_iters must be >= 1, got {self.ramp_total_iters}")
        if not 0.0 <= self.deferred_fraction <= 1.0:
            raise ValueError(f"deferred_fraction must be in [0, 1], got {self.deferred_fraction}")


@dataclass
class LossOutput:
    value: float
    grad_embedding: np.ndarray
    grad_weights: np.ndarray
    grad_biases: np.ndarray | None = None
    per_sample_terms: dict = field(default_factory=dict)


def difficulty_da(cos_y: float) -> float:
    """Difficulty coefficient (1 - cos)/2 in [0, 1], decreasing in cos."""
    c = min(max(float(cos_y), -1.0), 1.0)
    return (1.0 - c) / 2.0


def difficulty_dy(cos_y: float, gamma: float) -> float:
    """Exponential difficulty coefficient exp(1 - cos)/gamma."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    c = min(max(float(cos_y), -1.0), 1.0)
    return math.exp(1.0 - c) / gamma


def _coef_and_slope(mode: str, cos_y: float, gamma: float) -> tuple[float, float]:
    """Difficulty coefficient and its derivative w.r.t. cos_y (0 when clamped)."""
    inside = -1.0 <= cos_y <= 1.0
    if mode == "none":
        return 1.0, 0.0
    if mode == "DA":
        return difficulty_da(cos_y), -0.5 if inside else 0.0
    if mode == "DY":
        v = difficulty_dy(cos_y, gamma)
        return v, -v if inside else 0.0
    raise ValueError(f"unknown difficulty mode {mode!r}")


def _ramp(t: float, config: LossConfig) -> float:
    """Schedule ramp t/T, zero during the deferred fraction, clamped at T."""
    if t < 0:
        raise ValueError(f"iteration must be >= 0, got {t}")
    T = config.ramp_total_iters
    t = min(t, T)
    frac = t / T
    if frac < config.deferred_fraction:
        return 0.0
    return frac


def lambda_schedule(t: float, config: LossConfig, coef: float | None = None) -> float:
    """Augmentation strength at iteration t.

    Constant mode returns ramp * lambda0; dynamic modes return ramp times
    the sample's difficulty coefficient, which the caller must supply.
    """
    r = _ramp(t, config)
    if config.strength_mode == "constant":
        return r * config.lambda0
    if coef is None:
        raise ValueError("dynamic strength_mode needs the sample's difficulty coefficient")
    return r * coef


def _diag_cos(w_y: np.ndarray, f: np.ndarray) -> float:
    """Cosine between a weight row and the embedding, for diagnostics only."""
    denom = np.linalg.norm(w_y) * np.linalg.norm(f)
    return float(w_y @ f / denom) if denom > 0 else 0.0


def _check_finite(*arrays) -> None:
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise ValueError("non-finite values in loss inputs")


def _checked_embedding(embedding: np.ndarray, dim: int) -> np.ndarray:
    f = np.asarray(embedding, dtype=float)
    if f.shape != (dim,):
        raise ValueError(f"embedding has shape {f.shape}, expected ({dim},)")
    return f


def _normalized_rows(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(W, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero-norm weight row")
    return W / norms[:, None], norms


def _loss(
    embedding: np.ndarray,
    head: ClassifierHead,
    label: int,
    *,
    cosine: bool,
    stats: ClassStats | None = None,
    lam: float = 0.0,
    difficulty: str = "none",
    gamma: float = 1.0,
    strength_mode: str = "constant",
    ramp: float = 0.0,
    coef: float | None = None,
) -> LossOutput:
    """The one forward/backward behind every variant (see the module doc).

    ``cosine`` picks the logit map: False gives u = W f + b with a = 1 and
    no margin; True gives u = W_hat f with a = s, margin m*coef, and the
    gradient chained back through the row normalization.  ``coef`` freezes
    the margin coefficient (no gradient path); otherwise it follows
    ``difficulty``.  With a dynamic ``strength_mode``, lam = ramp * coef_s.
    """
    f = _checked_embedding(embedding, head.dim)
    if not 0 <= label < head.num_classes:
        raise ValueError(f"label {label} out of range")
    b = None if cosine else head.biases
    _check_finite(f, head.weights, b)
    if cosine:
        fnorm = np.linalg.norm(f)
        if fnorm < 1e-12:
            raise ValueError("zero-norm embedding")
        if abs(fnorm - 1.0) > 1e-3:
            raise ValueError(f"embedding norm {fnorm:.6f}, expected unit length")
        R, norms = _normalized_rows(head.weights)
        a, m = head.scale, head.margin
    else:
        R, a, m = head.weights, 1.0, 0.0
    u = R @ f if b is None else R @ f + b
    uy = float(u[label])

    if coef is None:
        coef, dcoef = _coef_and_slope(difficulty, uy, gamma)
    else:
        coef, dcoef = float(coef), 0.0
    dlam = 0.0
    if strength_mode != "constant":
        coef_s, dcoef_s = _coef_and_slope(strength_mode, uy, gamma)
        lam, dlam = ramp * coef_s, ramp * dcoef_s
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam != 0.0:
        if stats is None:
            raise ValueError("augmentation strength > 0 requires class statistics")
        phi, U = forms_and_product(stats, R - R[label], label)
    else:
        phi = np.zeros(head.num_classes)

    e = a * (u - uy) + a * m * coef + 0.5 * lam * a * a * phi
    e[label] = 0.0  # target slot carries the constant exp(0) = 1
    emax = e.max()
    ee = np.exp(e - emax)
    value = emax + math.log(ee.sum())
    q = ee / ee.sum()
    q[label] = 0.0
    Q = q.sum()

    # d(value)/d(u_y); d(value)/d(u_j) = a*q_j for j != y
    duy = (-a + a * m * dcoef) * Q
    if dlam != 0.0:
        duy += 0.5 * a * a * dlam * float(q @ phi)
    grad_f = a * (q @ R) + duy * R[label]
    g = (a * q)[:, None] * f[None, :]
    if lam != 0.0:
        g += (lam * a * a) * q[:, None] * U
        g[label] = duy * f - (lam * a * a) * (q @ U)
    else:
        g[label] = duy * f
    if cosine:
        # chain through row normalization: w_hat = w/|w|
        g = (g - np.sum(g * R, axis=1, keepdims=True) * R) / norms[:, None]
        cos_y = uy
    else:
        cos_y = _diag_cos(R[label], f)
    grad_b = None
    if b is not None:
        grad_b = q.copy()
        grad_b[label] = duy
    return LossOutput(
        value=float(value),
        grad_embedding=grad_f,
        grad_weights=g,
        grad_biases=grad_b,
        per_sample_terms={"cos_y": cos_y, "coef": float(coef), "lambda": float(lam)},
    )


def softmax_ce(embedding: np.ndarray, head: ClassifierHead, label: int) -> LossOutput:
    """Cross entropy -log softmax(W f + b)[label]: the affine map at lam = 0."""
    return _loss(embedding, head, label, cosine=False)


def isda_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    lam: float,
    label: int,
) -> LossOutput:
    """Closed-form bound on the expected cross entropy under Gaussian
    perturbation of the embedding with covariance lam*Cov_label: the
    affine map with strength lam, so lam = 0 is ``softmax_ce`` itself."""
    return _loss(embedding, head, label, cosine=False, stats=bank.stats[label], lam=lam)


def am_softmax(embedding: np.ndarray, head: ClassifierHead, label: int) -> LossOutput:
    """Additive-margin softmax on scaled cosines, no bias: the cosine map
    with coef = 1 and lam = 0."""
    return _loss(embedding, head, label, cosine=True)


def daam_softmax(
    embedding: np.ndarray,
    head: ClassifierHead,
    label: int,
    difficulty: str = "DA",
    gamma: float = 2.0,
) -> LossOutput:
    """Additive-margin softmax with the margin scaled by a per-sample
    difficulty coefficient of the target cosine (harder samples get a
    larger effective margin)."""
    return _loss(embedding, head, label, cosine=True, difficulty=difficulty, gamma=gamma)


def dasa_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    label: int,
    config: LossConfig,
    t: float,
) -> LossOutput:
    """Closed-form bound on the expected difficulty-aware margin loss under
    Gaussian embedding perturbation with covariance lam*Cov_label, where lam
    follows the config's schedule at iteration t."""
    constant = config.strength_mode == "constant"
    return _loss(
        embedding, head, label, cosine=True, stats=bank.stats[label],
        lam=lambda_schedule(t, config) if constant else 0.0,
        difficulty=config.difficulty, gamma=config.gamma,
        strength_mode=config.strength_mode, ramp=_ramp(t, config),
    )


def margin_bound(
    embedding: np.ndarray,
    head: ClassifierHead,
    stats: ClassStats,
    label: int,
    lam: float,
    coef: float = 1.0,
) -> LossOutput:
    """Margin-family bound at an explicit strength lam and an explicit,
    frozen margin coefficient (1.0 gives the plain-margin bound).  Used by
    the Monte-Carlo cross checks, which evaluate the coefficient once at
    the clean embedding."""
    return _loss(embedding, head, label, cosine=True, stats=stats, lam=lam, coef=coef)


def variant_loss(
    embedding: np.ndarray,
    head: ClassifierHead,
    bank: CovarianceBank,
    label: int,
    config: LossConfig,
    t: float,
) -> LossOutput:
    """The loss ``config.variant`` names, at iteration t of its schedule."""
    v = config.variant
    if v == "softmax":
        return softmax_ce(embedding, head, label)
    if v == "isda":
        return isda_bound(embedding, head, bank, lambda_schedule(t, config), label)
    if v == "am":
        return am_softmax(embedding, head, label)
    if v == "daam":
        return daam_softmax(embedding, head, label, config.difficulty, config.gamma)
    return dasa_bound(embedding, head, bank, label, config, t)


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


def loss_gradient_check(loss_fn, embedding: np.ndarray, head: ClassifierHead, epsilon: float = 6e-5) -> float:
    """Max relative error of analytic gradients vs finite differences
    (see :func:`finite_difference_error`).

    ``loss_fn(embedding, head) -> LossOutput`` must close over everything
    else (label, bank, config).  Every entry of grad_embedding, grad_weights
    and, when present, grad_biases is checked.  The default step 6e-5
    (differences at 3e-5 and 6e-5) keeps the extrapolation's rounding
    noise, about 2.7x that of one central difference at the same step,
    below what tiny entries can absorb at the 1e-5 gate.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon must be in [1e-7, 1e-4], got {epsilon}")
    f0 = np.asarray(embedding, dtype=float).copy()
    W0 = head.weights.copy()
    b0 = None if head.biases is None else head.biases.copy()
    out = loss_fn(f0, head)

    def value() -> float:
        h = ClassifierHead(weights=W0, biases=b0, scale=head.scale, margin=head.margin)
        return loss_fn(f0, h).value

    pairs = [(f0, out.grad_embedding), (W0, out.grad_weights)]
    if out.grad_biases is not None:
        pairs.append((b0, out.grad_biases))
    return finite_difference_error(value, pairs, epsilon)
