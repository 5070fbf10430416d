"""Monte-Carlo estimator contracts: zero-strength exactness, draw
statistics, chunking and seeding behavior, and the scalar moment identity."""

import math

import numpy as np
import pytest

import semaug.montecarlo as mc
from semaug.covariance import ClassStats, sampler_factor
from semaug.losses import ClassifierHead, _normalized_rows, isda_bound, margin_bound
from semaug.covariance import CovarianceBank, FULL
from semaug.montecarlo import (
    mc_expected_ce,
    mc_expected_margin,
    moment_identity_check,
    sample_augmented,
)
from semaug.rng import philox_rng


def random_stats(rng, dim):
    pts = rng.standard_normal((dim + 8, dim)) @ rng.standard_normal((dim, dim)).T
    mean = pts.mean(axis=0)
    d = pts - mean
    return ClassStats(class_id=0, count=len(pts), mean=mean, cov=d.T @ d / len(pts))


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# -- sampler -----------------------------------------------------------------


def test_zero_strength_draws_are_exact_copies_and_use_no_randomness():
    f = np.array([0.3, -1.2, 0.5])
    stats = ClassStats(0, 5, np.zeros(3), np.eye(3))
    rng = philox_rng(301)
    draws = sample_augmented(f, stats, 0.0, rng, count=4)
    np.testing.assert_array_equal(draws, np.tile(f, (4, 1)))
    # the generator state must be untouched
    assert rng.standard_normal() == philox_rng(301).standard_normal()


def test_sampler_shapes_and_validation():
    f = np.zeros(3)
    stats = ClassStats(0, 5, np.zeros(3), np.eye(3))
    rng = philox_rng(302)
    assert sample_augmented(f, stats, 0.5, rng, count=7).shape == (7, 3)
    with pytest.raises(TypeError):
        sample_augmented(f, stats, 0.5, rng)  # count is required
    with pytest.raises(ValueError):
        sample_augmented(f, stats, -0.1, rng, count=1)
    with pytest.raises(ValueError):
        sample_augmented(f, stats, 0.5, rng, count=0)


def test_sampler_rejects_an_embedding_of_the_wrong_dimension():
    stats = ClassStats(0, 5, np.zeros(3), np.eye(3))
    for lam in (0.0, 0.5):
        with pytest.raises(ValueError, match=r"shape \(4,\).*shape \(3,\)"):
            sample_augmented(np.zeros(4), stats, lam, philox_rng(306), count=5)
        with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
            sample_augmented(np.zeros((2, 3)), stats, lam, philox_rng(306), count=5)


def test_sampler_rejects_a_non_finite_or_overflowing_strength():
    stats = ClassStats(0, 5, np.zeros(3), np.eye(3))
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {lam}"):
            sample_augmented(np.zeros(3), stats, lam, philox_rng(307), count=5)
    with pytest.raises(ValueError, match="lam = 1e[+]?308"):
        with np.errstate(over="ignore"):
            sample_augmented(np.zeros(3), stats, 1e308, philox_rng(307), count=5)


def test_class_major_draws_match_row_major_draws_from_the_same_stream():
    # the reference forms f + z L^T from the same (count, F) block of normals
    for k, F in enumerate((3, 7, 10)):
        rng = philox_rng(308, k)
        f = rng.standard_normal(F)
        for stats in (random_stats(rng, F), ClassStats(0, 9, np.zeros(F), rng.random(F) + 0.1)):
            lam = 0.7
            draws = sample_augmented(f, stats, lam, philox_rng(309, k), count=1000)
            z = philox_rng(309, k).standard_normal((1000, F))
            want = f + z @ sampler_factor(stats, lam).T
            np.testing.assert_allclose(draws, want, rtol=1e-15, atol=0.0)


def test_draw_moments_match_the_target_gaussian():
    f = np.array([1.0, -2.0, 0.5, 3.0])
    stats = ClassStats(0, 9, np.zeros(4), np.eye(4))
    draws = sample_augmented(f, stats, 1.0, philox_rng(303), count=100_000)
    emp_mean = draws.mean(axis=0)
    emp_var = draws.var(axis=0)
    np.testing.assert_allclose(emp_mean, f, atol=0.02)
    assert 0.97 <= emp_var.mean() <= 1.03


def test_anisotropic_draw_covariance():
    rng = philox_rng(304)
    stats = random_stats(rng, 3)
    lam = 0.6
    draws = sample_augmented(np.zeros(3), stats, lam, philox_rng(305), count=200_000)
    emp = np.cov(draws.T, bias=True)
    np.testing.assert_allclose(emp, lam * stats.cov, atol=0.05 * np.abs(lam * stats.cov).max())


# -- expected-loss estimators ---------------------------------------------------


def _ce_inputs(seed):
    rng = philox_rng(seed)
    C, F = 5, 4
    W = rng.standard_normal((C, F)) / 2.0
    head = ClassifierHead(weights=W, biases=rng.standard_normal(C) / 2.0)
    stats = random_stats(rng, F)
    f = rng.standard_normal(F)
    return f, head, stats


def test_zero_strength_estimate_equals_the_deterministic_loss():
    f, head, stats = _ce_inputs(306)
    bank = CovarianceBank(5, 4, FULL)
    bank.stats[2] = stats
    want = isda_bound(f, head, bank, 0.0, 2).value
    rep = mc_expected_ce(f, head, stats, 0.0, 2, 500, seed=1)
    assert rep.mean == want
    assert rep.std_error == 0.0
    assert rep.z_score == 0.0
    assert rep.slack == 0.0
    assert rep.samples == 500

    head_m = ClassifierHead(weights=head.weights, scale=4.0, margin=0.2)
    fu = f / np.linalg.norm(f)
    want = margin_bound(fu, head_m, stats, 2, 0.0, 0.5).value
    rep = mc_expected_margin(fu, head_m, stats, 0.0, 2, 0.5, 500, seed=1)
    assert rep.mean == want and rep.std_error == 0.0 and rep.z_score == 0.0


def test_report_carries_the_matching_bound_value():
    f, head, stats = _ce_inputs(307)
    bank = CovarianceBank(5, 4, FULL)
    bank.stats[1] = ClassStats(1, stats.count, stats.mean, stats.cov)
    rep = mc_expected_ce(f, head, stats, 0.3, 1, 2000, seed=7)
    assert rep.bound_value == isda_bound(f, head, bank, 0.3, 1).value
    assert rep.slack == rep.bound_value - rep.mean
    if rep.std_error > 0:
        assert rep.z_score == pytest.approx(rep.slack / rep.std_error)


def test_estimates_are_deterministic_in_the_seed():
    f, head, stats = _ce_inputs(308)
    a = mc_expected_ce(f, head, stats, 0.4, 0, 3000, seed=42)
    b = mc_expected_ce(f, head, stats, 0.4, 0, 3000, seed=42)
    c = mc_expected_ce(f, head, stats, 0.4, 0, 3000, seed=43)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.mean != c.mean


def test_chunk_size_does_not_change_the_estimate(monkeypatch):
    f, head, stats = _ce_inputs(309)
    ref = mc_expected_ce(f, head, stats, 0.5, 3, 5000, seed=11)
    monkeypatch.setattr(mc, "_CHUNK", 777)
    chunked = mc_expected_ce(f, head, stats, 0.5, 3, 5000, seed=11)
    assert chunked.mean == ref.mean
    assert chunked.std_error == ref.std_error

    fu = unit(philox_rng(310), 4)
    head_m = ClassifierHead(weights=head.weights, scale=3.0, margin=0.2)
    ref = mc_expected_margin(fu, head_m, stats, 0.5, 3, 0.8, 5000, seed=11)
    monkeypatch.setattr(mc, "_CHUNK", 1024)
    chunked = mc_expected_margin(fu, head_m, stats, 0.5, 3, 0.8, 5000, seed=11)
    assert chunked.mean == ref.mean


def _row_major_ce(draws, head, label):
    Z = draws @ head.weights.T
    if head.biases is not None:
        Z = Z + head.biases
    zmax = Z.max(axis=1)
    return zmax + np.log(np.exp(Z - zmax[:, None]).sum(axis=1)) - Z[:, label]


def _row_major_margin(draws, head, label, coef):
    What, _ = _normalized_rows(head.weights)
    U = draws @ What.T
    B = head.scale * (U - U[:, [label]]) + head.scale * head.margin * coef
    B[:, label] = 0.0
    bmax = B.max(axis=1)
    return bmax + np.log(np.exp(B - bmax[:, None]).sum(axis=1))


def _row_major_estimate(f, stats, lam, count, seed, chunk, loss_of):
    # antithetic pairs f + z L^T and f - z L^T, chunk // 2 pairs per block of normals
    rng = philox_rng(seed)
    L = sampler_factor(stats, lam)
    pairs = count // 2
    means = []
    for done in range(0, pairs, chunk // 2):
        lz = rng.standard_normal((min(chunk // 2, pairs - done), f.size)) @ L.T
        means.append(0.5 * (loss_of(f + lz) + loss_of(f - lz)))
    means = np.concatenate(means)
    return means.mean(), means.std(ddof=1) / math.sqrt(pairs)


def test_class_major_estimators_match_the_row_major_loss_formulas(monkeypatch):
    # C = 8 is where the class-axis sum rounds differently from a row sum
    monkeypatch.setattr(mc, "_CHUNK", 777)
    for C in range(3, 9):
        rng = philox_rng(315, C)
        F = 3 + C % 4
        stats = random_stats(rng, F)
        W = rng.standard_normal((C, F)) / math.sqrt(F)
        label = int(rng.integers(0, C))
        f = unit(rng, F)

        head = ClassifierHead(weights=W, biases=0.5 * rng.standard_normal(C))
        rep = mc_expected_ce(f, head, stats, 0.6, label, 5000, seed=C)
        mean, se = _row_major_estimate(f, stats, 0.6, 5000, C, 777,
                                       lambda d: _row_major_ce(d, head, label))
        assert rep.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
        assert rep.std_error == pytest.approx(se, rel=1e-13, abs=0.0)

        head_m = ClassifierHead(weights=W, scale=8.0, margin=0.2)
        rep = mc_expected_margin(f, head_m, stats, 0.6, label, 0.7, 5000, seed=C)
        mean, se = _row_major_estimate(f, stats, 0.6, 5000, C, 777,
                                       lambda d: _row_major_margin(d, head_m, label, 0.7))
        assert rep.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
        assert rep.std_error == pytest.approx(se, rel=1e-13, abs=0.0)


def test_a_loss_linear_in_the_draw_has_every_pair_mean_at_its_value_at_f(monkeypatch):
    # f + L z and its mirror average to f only when both come from one z
    monkeypatch.setattr(mc, "_CHUNK", 777)
    f, head, stats = _ce_inputs(318)
    a = head.weights[1]
    seen = []

    def linear(draws):
        seen.append(draws @ a)
        return seen[-1]

    mc._estimate(f, stats, 0.9, 2000, 5, 0.0, linear)
    pair_means = np.concatenate([0.5 * (p + m) for p, m in zip(seen[::2], seen[1::2])])
    assert pair_means.size == 1000
    assert np.max(np.abs(pair_means - f @ a)) <= 1e-12
    assert np.std(np.concatenate(seen)) > 0.1  # the draws themselves do spread


def test_an_odd_count_is_rejected():
    f, head, stats = _ce_inputs(319)
    with pytest.raises(ValueError, match="count must be even.*got 2001"):
        mc_expected_ce(f, head, stats, 0.5, 0, 2001, seed=0)
    with pytest.raises(ValueError, match="count must be even.*got 101"):
        mc_expected_margin(unit(philox_rng(319), 4), ClassifierHead(weights=head.weights, scale=3.0, margin=0.2),
                           stats, 0.5, 0, 1.0, 101, seed=0)
    # the scalar moment check keeps its own iid draws, so any count will do
    assert moment_identity_check(0.0, 1.0, 1.0, 1001, seed=0).samples == 1001


def test_in_place_logsumexp_equals_the_out_of_place_formula():
    # C = 8 included: the in-place sum must round exactly as the fresh temporary did
    for C in range(3, 10):
        Z = 4.0 * philox_rng(317, C).standard_normal((C, 1000))
        zmax = Z.max(axis=0)
        want = zmax + np.log(np.exp(Z - zmax).sum(axis=0))
        assert np.array_equal(mc._logsumexp(Z.copy()), want)


def test_a_nan_estimate_scores_a_nan_z():
    # a NaN mean with zero or NaN spread used to score z = +inf, a pass
    f, head, stats = _ce_inputs(316)
    for losses in (np.full(16384, np.nan), np.r_[np.nan, np.zeros(16383)]):
        rep = mc._estimate(f, stats, 0.5, 200, 1, 1.0, lambda draws: losses[:len(draws)])
        assert math.isnan(rep.mean) and math.isnan(rep.z_score)
    rep = mc._estimate(f, stats, 0.5, 200, 1, math.nan, lambda draws: np.zeros(len(draws)))
    assert math.isnan(rep.z_score)
    with pytest.raises(ValueError, match="got nan"):
        mc_expected_ce(f, head, stats, math.nan, 0, 200, seed=1)


def test_standard_error_shrinks_with_the_sample_count():
    f, head, stats = _ce_inputs(311)
    small = mc_expected_ce(f, head, stats, 0.8, 2, 1000, seed=5)
    big = mc_expected_ce(f, head, stats, 0.8, 2, 16000, seed=5)
    ratio = big.std_error / small.std_error
    assert 0.125 <= ratio <= 0.5  # ideal is 1/4


def test_estimator_validation():
    f, head, stats = _ce_inputs(312)
    with pytest.raises(ValueError):
        mc_expected_ce(f, head, stats, 0.5, 0, 99, seed=0)
    fu = unit(philox_rng(313), 4)
    head_m = ClassifierHead(weights=head.weights, scale=3.0, margin=0.2)
    with pytest.raises(ValueError):
        mc_expected_margin(fu, head_m, stats, 0.5, 0, 1.0, 50, seed=0)
    with pytest.raises(ValueError):
        mc_expected_margin(fu, head_m, stats, 0.5, 0, -0.2, 500, seed=0)


def test_bound_dominates_the_estimate_on_a_typical_case():
    f, head, stats = _ce_inputs(314)
    rep = mc_expected_ce(f, head, stats, 0.5, 1, 50_000, seed=3)
    assert rep.z_score > -3.0
    assert rep.slack > -5 * max(rep.std_error, 1e-12)


# -- scalar moment identity -------------------------------------------------------


def test_moment_identity_exact_cases():
    rep = moment_identity_check(mu=0.3, sigma2=0.0, t=2.0, count=200, seed=0)
    assert rep.closed_form == pytest.approx(math.exp(0.6), rel=1e-15)
    assert rep.mc_mean == rep.closed_form
    assert rep.rel_error == 0.0 and rep.std_error == 0.0
    assert rep.passed

    rep = moment_identity_check(mu=-1.0, sigma2=2.0, t=0.0, count=200, seed=0)
    assert rep.closed_form == 1.0
    assert rep.mc_mean == 1.0
    assert rep.passed


def test_moment_identity_sampled_case():
    rep = moment_identity_check(mu=0.0, sigma2=1.0, t=1.0, count=100_000, seed=17)
    assert rep.closed_form == pytest.approx(math.exp(0.5), rel=1e-15)
    assert rep.passed
    assert rep.rel_error <= 5.0 * rep.rel_std_error
    assert rep.samples == 100_000


def test_moment_identity_validation():
    with pytest.raises(ValueError):
        moment_identity_check(0.0, -1.0, 1.0, 1000, seed=0)
    with pytest.raises(ValueError):
        moment_identity_check(0.0, 4.0, 2.0, 1000, seed=0)  # t*sigma = 4
    with pytest.raises(ValueError):
        moment_identity_check(0.0, 1.0, 1.0, 99, seed=0)
