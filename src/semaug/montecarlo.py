"""Monte-Carlo estimators for the expected losses that the closed-form
bounds dominate, plus a scalar Gaussian moment identity check.

The estimators draw augmented embeddings f + L z (z standard normal, L a
factor of lam times the class covariance), evaluate the exact per-draw
loss, and report the empirical mean with its standard error next to the
closed-form bound evaluated on identical inputs.  Two conventions matter
and are deliberate: draws are not renormalized, and the margin's
difficulty coefficient is evaluated once at the clean embedding.  That is
precisely the quantity the closed form bounds, so the comparison is
apples to apples.

The draws come in antithetic pairs (Hammersley & Morton, 1956): each
standard normal z gives f + L z and its mirror f - L z.  The pair mean is
an unbiased estimate of the expected loss, so n loss evaluations need n/2
normals.  The standard error is taken over the n/2 pair means; it beats
that of n iid draws when the two losses of a pair are negatively
correlated, as they are for a loss close to linear over the draws' spread.

The draw loop is laid out class-major.  Each chunk of n/2 pairs consumes
one (n/2, F) block of standard normals, as row-major draws would, but the
draws are formed as (F, n/2) arrays f + L z^T and f - L z^T, and the
per-draw losses work on (C, n/2) logits: every max, sum and log-sum-exp
over classes runs along axis 0, across the whole chunk, instead of along
a short last axis of length C.

Zero strength short-circuits to the deterministic loss with zero standard
error; no random numbers are consumed in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import ClassStats, sampler_factor
from .losses import ClassifierHead, _normalized_rows, isda_bound, margin_bound
from .rng import philox_rng

_CHUNK = 1 << 14
MIN_SAMPLES = 100  # fewer draws make the standard error itself unreliable


def _check_count(count: int, pairs: bool = True) -> None:
    if count < MIN_SAMPLES:
        raise ValueError(f"count must be >= {MIN_SAMPLES}, got {count}")
    if pairs and count % 2:
        raise ValueError(f"count must be even: the draws come in antithetic pairs, got {count}")


@dataclass
class McReport:
    """Empirical expected loss next to its closed-form bound.

    slack = bound_value - mean; z_score = slack / std_error, with the
    convention that zero slack at zero standard error scores 0, any
    other zero-error mismatch scores signed infinity, and a NaN slack or
    standard error scores NaN.
    """

    mean: float
    std_error: float
    samples: int
    bound_value: float
    slack: float
    z_score: float


@dataclass
class MomentReport:
    mc_mean: float
    std_error: float
    closed_form: float
    rel_error: float
    rel_std_error: float
    samples: int
    passed: bool


def sample_augmented(embedding, stats: ClassStats, lam: float, rng, count: int):
    """Draw (count, F) rows from N(f, lam*Cov + eps*I) around one embedding
    f, given as (F,) or as a batch of one (1, F).

    The generator yields one (count, F) block z of standard normals, and
    the draws are formed class-major as the C-contiguous (F, count) array
    f + L z^T; the result is its transpose, so ``draws.T`` is contiguous
    and ``W @ draws.T`` gives (C, count) logits without a copy.

    lam = 0 returns exact copies of f (no jitter noise, no RNG use): the
    zero-strength Monte-Carlo estimate must equal the deterministic loss
    with zero variance.
    """
    f = np.asarray(embedding, dtype=float)
    dim = stats.mean.shape[0]
    if f.shape not in ((dim,), (1, dim)):
        raise ValueError(f"embedding of shape {f.shape} does not fit class {stats.class_id}, "
                         f"whose mean has shape {stats.mean.shape}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    f = f.reshape(dim)
    if lam == 0.0:
        return np.tile(f, (count, 1))
    L = sampler_factor(stats, lam)
    draws = L @ rng.standard_normal((count, dim)).T
    draws += f[:, None]
    return draws.T


def _logsumexp(Z):
    """Log-sum-exp over the class axis (axis 0) of (C, n) logits.

    Works in place and consumes its argument: Z holds exp(Z - max) on
    return, so a caller that needs a row of the logits copies it first."""
    zmax = Z.max(axis=0)
    Z -= zmax
    np.exp(Z, out=Z)
    s = Z.sum(axis=0)
    np.log(s, out=s)
    s += zmax
    return s


def _estimate(embedding, stats: ClassStats, lam: float, count: int, seed, bound: float, loss_of) -> McReport:
    """Mean and standard error of ``loss_of`` over ``count`` augmented draws
    around the embedding, reported against the closed-form ``bound``.

    The draws are count/2 antithetic pairs f +- L z; the estimate is the
    mean of the pair means, and the standard error is taken over them.  A
    chunk holds ``_CHUNK // 2`` pairs and takes one contiguous block of
    the stream, so the chunk size cannot change the estimate.
    """
    if lam == 0.0:
        # every draw is f itself, so the estimate is exact by construction
        return McReport(mean=bound, std_error=0.0, samples=count,
                        bound_value=bound, slack=0.0, z_score=0.0)
    f = np.asarray(embedding, dtype=float)
    rng = philox_rng(seed)
    pairs = count // 2
    pair_means = np.empty(pairs)
    step = _CHUNK // 2
    for done in range(0, pairs, step):
        n = min(step, pairs - done)
        plus = sample_augmented(f, stats, lam, rng, count=n)
        mirror = (2.0 * f)[:, None] - plus.T  # f - L z, class-major like plus.T
        pair_means[done:done + n] = 0.5 * (loss_of(plus) + loss_of(mirror.T))
    mean = float(pair_means.mean())
    se = float(pair_means.std(ddof=1) / math.sqrt(pairs))  # pairs >= MIN_SAMPLES / 2
    slack = bound - mean
    if math.isnan(slack) or math.isnan(se):
        z = math.nan  # not +inf: the suite's pass rule fails a family on any NaN z
    elif se > 0.0:
        z = slack / se
    elif abs(slack) <= 1e-9 * max(1.0, abs(mean)):
        z = 0.0
    else:
        z = math.copysign(math.inf, slack)
    return McReport(mean=mean, std_error=se, samples=count,
                    bound_value=bound, slack=slack, z_score=float(z))


def mc_expected_ce(embedding, head: ClassifierHead, stats: ClassStats, lam: float,
                   label: int, count: int, seed) -> McReport:
    """Estimate E[cross entropy of W f~ + b] over augmented embeddings and
    compare against the closed-form bound on the same inputs."""
    _check_count(count)
    bound = float(isda_bound(embedding, head, stats, lam, label, value_only=True).value[0])

    def loss_of(draws):
        Z = head.weights @ draws.T
        if head.biases is not None:
            Z += head.biases[:, None]
        target = Z[label].copy()
        return _logsumexp(Z) - target

    return _estimate(embedding, stats, lam, count, seed, bound, loss_of)


def mc_expected_margin(embedding, head: ClassifierHead, stats: ClassStats, lam: float,
                       label: int, margin_coef: float, count: int, seed) -> McReport:
    """Estimate the expected margin loss log(1 + sum_{j!=y} exp(s(u~_j - u~_y)
    + s*m*coef)) over augmented embeddings, coef frozen at the clean
    embedding, and compare against the matching closed-form bound."""
    _check_count(count)
    coef = float(margin_coef)
    bound = float(margin_bound(embedding, head, stats, label, lam, coef, value_only=True).value[0])
    What, _ = _normalized_rows(head.weights)
    s = head.scale
    base = s * head.margin * coef

    def loss_of(draws):
        U = What @ draws.T
        U -= U[label].copy()
        U *= s
        U += base
        U[label] = 0.0  # target slot carries the constant exp(0) = 1
        return _logsumexp(U)

    return _estimate(embedding, stats, lam, count, seed, bound, loss_of)


def moment_identity_check(mu: float, sigma2: float, t: float, count: int, seed) -> MomentReport:
    """Check E[exp(t X)] = exp(t mu + sigma2 t^2 / 2) for X ~ N(mu, sigma2)
    by direct sampling; passes when the relative error is within five
    relative standard errors."""
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    if abs(t) * math.sqrt(sigma2) > 3.0:
        raise ValueError("t*sigma above 3 makes the MC variance unusable")
    _check_count(count, pairs=False)
    closed = math.exp(t * mu + 0.5 * sigma2 * t * t)
    if sigma2 == 0.0 or t == 0.0:
        # degenerate distribution: the estimate is the constant itself
        mean, se = math.exp(t * mu), 0.0
    else:
        rng = philox_rng(seed)
        x = mu + math.sqrt(sigma2) * rng.standard_normal(count)
        vals = np.exp(t * x)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(count))  # count >= MIN_SAMPLES
    rel_error = abs(mean - closed) / closed
    rel_se = se / closed
    return MomentReport(mc_mean=mean, std_error=se, closed_form=closed,
                        rel_error=rel_error, rel_std_error=rel_se,
                        samples=count, passed=rel_error <= 5.0 * rel_se)
