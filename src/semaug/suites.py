"""Randomized validation suites: Jensen-bound trials against the
Monte-Carlo oracle, and finite-difference gradient checks for every loss
variant and for the full network+head composition.

Each trial gets its own counter-based RNG stream keyed by (seed, family,
trial), so results are reproducible and trials are independent.  Both
gradient checks draw their scenario (label, weight rows, strength, the
label's class statistics and head) through one builder, ``_scenario``:
the loss check draws its embedding before it, the composed check its
network and input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import ClassStats, CovarianceBank, DIAGONAL, FULL, quadratic_forms
from .embedder import TinyEmbedder
from .losses import (
    AFFINE_VARIANTS,
    GRAD_EPSILON,
    VARIANTS,
    ClassifierHead,
    LossConfig,
    daam_softmax,
    finite_difference_error,
    loss_gradient_check,
    variant_loss,
    _check_epsilon,
    _normalized_rows,
)
from .montecarlo import McReport, _check_count, mc_expected_ce, mc_expected_margin
from .rng import philox_rng, rng_key

# Largest allowed spread (in nats) between margin-softmax exponents in a
# gradient-check scenario. Keeping every class term within e**-6 of the
# winner keeps every gradient entry large enough for central differences
# to resolve; wider spreads push true entries below the difference noise.
_SPREAD_CAP = 6.0

BOUND_FAMILIES = ("ce", "margin", "margin_da")
_FAMILY_ID = {"ce": 0, "margin": 1, "margin_da": 2}
_VARIANT_ID = {"softmax": 10, "isda": 11, "am": 12, "daam": 13, "dasa": 14}


@dataclass
class GradSettings:
    trials: int = 100
    composed_trials: int = 10
    epsilon: float = GRAD_EPSILON

    def __post_init__(self):
        for name in ("trials", "composed_trials"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        _check_epsilon(self.epsilon)


@dataclass
class BoundSettings:
    trials: int = 50
    samples: int = 100000

    def __post_init__(self):
        # zero trials is a valid run: it checks nothing and times start-up alone
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        _check_count(self.samples)


@dataclass
class BoundTrial:
    trial: int
    family: str
    lam: float
    report: McReport


@dataclass
class GradTrial:
    kind: str  # "loss" or "composed"
    variant: str
    trial: int
    max_rel_error: float


def _random_stats(rng, dim: int, scale: float | None = None) -> ClassStats:
    """Population statistics of a random anisotropic Gaussian cloud.

    When scale is given the covariance is rescaled so its mean diagonal
    entry equals scale; gradient-check scenarios use this to keep the
    quadratic terms small enough for finite differences to resolve.
    """
    n = dim + 5 + int(rng.integers(0, 2 * dim))
    center = rng.standard_normal(dim)
    A = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    pts = center + rng.standard_normal((n, dim)) @ A.T
    mean = pts.mean(axis=0)
    d = pts - mean
    cov = d.T @ d / n
    cov = 0.5 * (cov + cov.T)
    if scale is not None:
        cov *= scale / (np.trace(cov) / dim)
    return ClassStats(class_id=0, count=n, mean=mean, cov=cov)


def _unit(rng, dim: int, floor: float = 0.0) -> np.ndarray:
    """Random unit vector. A positive floor pushes every raw component
    away from zero first, so products like p_j * f_i stay clear of the
    finite-difference noise floor in gradient checks."""
    v = rng.standard_normal(dim)
    if floor > 0.0:
        small = np.abs(v) < floor
        v[small] = np.where(v[small] < 0.0, -floor, floor)
    return v / np.linalg.norm(v)


def jensen_trial(family: str, trial: int, count: int, seed) -> BoundTrial:
    """One randomized bound-vs-MC comparison for the given family."""
    if family not in BOUND_FAMILIES:
        raise ValueError(f"family must be one of {BOUND_FAMILIES}, got {family!r}")
    rng = philox_rng(seed, _FAMILY_ID[family], trial, 0)
    mc_key = rng_key(seed, _FAMILY_ID[family], trial, 1)
    C = 3 + int(rng.integers(0, 6))
    F = 3 + int(rng.integers(0, 8))
    stats = _random_stats(rng, F)
    lam = 10.0 ** rng.uniform(-2.0, 0.3)
    f = _unit(rng, F)
    label = int(rng.integers(0, C))
    W = rng.standard_normal((C, F)) / math.sqrt(F)
    if family == "ce":
        head = ClassifierHead(weights=W, biases=0.5 * rng.standard_normal(C))
        report = mc_expected_ce(f, head, stats, lam, label, count, mc_key)
    else:
        head = ClassifierHead(weights=W, biases=None,
                              scale=2.0 + 10.0 * rng.random(),
                              margin=0.05 + 0.35 * rng.random())
        # margin_da freezes the DA difficulty coefficient of the clean embedding
        coef = 1.0 if family == "margin" else daam_softmax(f, head, label, "DA").per_sample_terms["coef"][0]
        report = mc_expected_margin(f, head, stats, lam, label, coef, count, mc_key)
    return BoundTrial(trial=trial, family=family, lam=lam, report=report)


def jensen_suite(trials: int, count: int, seed) -> list[BoundTrial]:
    return [jensen_trial(fam, k, count, seed) for fam in BOUND_FAMILIES for k in range(trials)]


@dataclass
class FamilyVerdict:
    """One bound family's tallies under the acceptance rule."""

    family: str
    trials: int
    below: int  # trials with z < -3
    nan: int  # trials with a NaN z
    mean_slack: float

    @property
    def passed(self) -> bool:
        # written so that a NaN mean slack fails
        return self.nan == 0 and self.below / self.trials <= 0.02 and self.mean_slack >= 0.0


def family_verdicts(results: list[BoundTrial]) -> list[FamilyVerdict]:
    """Per-family tallies of the results, families in first-seen order."""
    verdicts = []
    for fam in dict.fromkeys(r.family for r in results):
        reps = [r.report for r in results if r.family == fam]
        verdicts.append(FamilyVerdict(family=fam, trials=len(reps),
                                      below=sum(1 for r in reps if r.z_score < -3.0),
                                      nan=sum(1 for r in reps if math.isnan(r.z_score)),
                                      mean_slack=sum(r.slack for r in reps) / len(reps)))
    return verdicts


def jensen_suite_passes(results: list[BoundTrial]) -> bool:
    """Acceptance rule, per family: no NaN z, at most 2% of trials below
    z = -3, and a mean slack that is >= 0."""
    return all(v.passed for v in family_verdicts(results))


def _tempered_scale(f, head: ClassifierHead, bank, label, cfg, t) -> float:
    """Shrink the margin scale until the realized exponent spread of the
    margin softmax fits _SPREAD_CAP. The coefficient and strength come
    from the loss itself at the untempered head; neither depends on the
    scale. Every term in the spread scales with s (the quadratic one with
    s**2, and a zero strength cancels it exactly), so the loop terminates."""
    terms = variant_loss(f, head, bank, label, cfg, t).per_sample_terms
    coef, lam = terms["coef"][0], terms["lambda"][0]
    What, _ = _normalized_rows(head.weights)
    rel = np.delete(What @ f - float(What[label] @ f), label)
    phi = np.delete(quadratic_forms(bank.stats[label], What, label), label)
    s, m = head.scale, head.margin
    while s > 0.25:
        b = s * rel + s * m * coef + 0.5 * lam * s * s * phi
        spread = max(float(b.max()), 0.0) - min(float(b.min()), 0.0)
        if spread <= _SPREAD_CAP:
            break
        s *= 0.8
    return s


def _scenario(rng, variant: str, C: int, F: int, diagonal: bool):
    """The (label, strength, bank, head) of one gradient-check scenario,
    drawn from rng in that order: the label, the weight rows, the
    strength, the label's class statistics (random variances when
    ``diagonal``) and the head. Only the label's class has statistics;
    a margin head keeps its untempered scale."""
    # Magnitudes here are deliberately tame (unit-scale rows, lambda well
    # below 1, modest scale s). Saturated softmax terms have true gradient
    # entries below what central differences can resolve against the
    # relative-error floor; the saturated regime is covered separately by
    # an absolute-error test.
    label = int(rng.integers(0, C))
    W = rng.standard_normal((C, F)) / math.sqrt(F)
    lam = 10.0 ** rng.uniform(-2.0, -0.5)
    bank = CovarianceBank(C, F, DIAGONAL if diagonal else FULL)
    if diagonal:
        bank.stats[label] = ClassStats(class_id=0, count=7, mean=rng.standard_normal(F),
                                       cov=rng.uniform(0.05, 0.6, F))
    else:
        bank.stats[label] = _random_stats(rng, F, scale=rng.uniform(0.1, 0.5))
    if variant in AFFINE_VARIANTS:
        head = ClassifierHead(weights=W, biases=0.5 * rng.standard_normal(C))
    else:
        head = ClassifierHead(weights=W, biases=None,
                              scale=2.0 + 2.0 * rng.random(), margin=0.05 + 0.25 * rng.random())
    return label, lam, bank, head


def _gradcheck_case(variant: str, trial: int, seed, kink_gap: float):
    """Inputs of one loss gradient check: (loss_fn, embedding, head).

    For the margin variants the embedding is redrawn while the target
    cosine lies within ``kink_gap`` of +-1, where the difficulty clamp
    puts a kink that a difference stencil must not straddle.
    """
    rng = philox_rng(seed, _VARIANT_ID[variant], trial)
    C = 3 + int(rng.integers(0, 6))
    F = 3 + int(rng.integers(0, 6))
    f = _unit(rng, F, floor=0.1)
    label, lam, bank, head = _scenario(rng, variant, C, F, diagonal=trial % 2 == 1)
    if variant == "dasa":
        cfg = LossConfig(
            variant="dasa",
            difficulty=("DA", "DY", "none")[trial % 3],
            strength_mode=("constant", "DA", "DY")[(trial // 3) % 3],
            lambda0=lam, gamma=2.0,
            ramp_total_iters=10, deferred_fraction=0.3,
        )
    else:
        # at t = T = 1 with nothing deferred the schedule is lambda0 itself
        cfg = LossConfig(variant=variant, difficulty=("DA", "DY")[trial % 2],
                         lambda0=lam, gamma=2.0, ramp_total_iters=1, deferred_fraction=0.0)
    t = int(rng.integers(0, 11)) if variant == "dasa" else 1
    if variant not in AFFINE_VARIANTS:
        What, _ = _normalized_rows(head.weights)
        while 1.0 - abs(float(What[label] @ f)) <= kink_gap:
            f = _unit(rng, F, floor=0.1)
        head = replace(head, scale=_tempered_scale(f, head, bank, label, cfg, t))
    return (lambda e, h, value_only=False: variant_loss(e, h, bank, label, cfg, t, value_only=value_only)), f, head


def gradcheck_suite(trials_per_variant: int, epsilon: float, seed) -> list[GradTrial]:
    """Finite-difference checks for all five loss variants."""
    out = []
    for variant in VARIANTS:
        for k in range(trials_per_variant):
            # every entry is stepped by up to epsilon, which moves the target
            # cosine by up to about epsilon; keep twice that clear of the clamp
            err = loss_gradient_check(*_gradcheck_case(variant, k, seed, 2 * epsilon), epsilon)
            out.append(GradTrial(kind="loss", variant=variant, trial=k, max_rel_error=err))
    return out


def composed_gradcheck(trials: int, epsilon: float, seed) -> list[GradTrial]:
    """Finite-difference checks of d(loss)/d(parameter) through the full
    embedding network and head, for every loss variant in rotation."""
    _check_epsilon(epsilon)
    out = []
    for k in range(trials):
        variant = VARIANTS[k % len(VARIANTS)]
        rng = philox_rng(seed, 20, k)
        d_in = 4 + int(rng.integers(0, 4))
        hidden = [5 + int(rng.integers(0, 4))]
        F = 3 + int(rng.integers(0, 4))
        C = 3 + int(rng.integers(0, 4))
        emb = TinyEmbedder([d_in] + hidden + [F], philox_rng(seed, 21, k))
        # Redraw the input until the forward pass is well away from the
        # kinks: enough live rectifier units for gradient flow, and a
        # pre-normalization magnitude that keeps the sphere projection
        # (and its curvature) benign for finite differences.
        x = rng.standard_normal(d_in)
        f, cache = emb.forward(x)
        for _ in range(50):
            alive = all(int(np.count_nonzero(h > 0)) >= 2 for h in cache.hidden)
            if not cache.fallback[0] and cache.prenorm[0] >= 0.5 and alive:
                break
            x = rng.standard_normal(d_in)
            f, cache = emb.forward(x)
        label, lam, bank, head = _scenario(rng, variant, C, F, diagonal=False)
        # the schedule at t = T with nothing deferred is lambda0 itself
        cfg = LossConfig(variant=variant, difficulty="DA", strength_mode="constant",
                         lambda0=lam, ramp_total_iters=10, deferred_fraction=0.0)
        if variant not in AFFINE_VARIANTS:
            head = replace(head, scale=_tempered_scale(f[0], head, bank, label, cfg, 10))
        # differentiate the forward pass the redraw loop settled on
        loss = variant_loss(f[0], head, bank, label, cfg, 10)
        pairs = list(zip(emb.parameters(), emb.backward(cache, loss.grad_embedding)))

        def value() -> float:
            return variant_loss(emb.forward(x)[0][0], head, bank, label, cfg, 10, value_only=True).value[0]

        pairs.append((head.weights, loss.grad_weights))
        if loss.grad_biases is not None:
            pairs.append((head.biases, loss.grad_biases))
        worst = finite_difference_error(value, pairs, epsilon)
        out.append(GradTrial(kind="composed", variant=variant, trial=k, max_rel_error=worst))
    return out
