"""Randomized suite plumbing: reproducibility, pass/fail aggregation rules,
and small smoke runs of the bound and gradient suites."""

import math

import numpy as np
import pytest

from semaug.covariance import DIAGONAL, FULL
from semaug.losses import loss_gradient_check
from semaug.montecarlo import McReport
from semaug.rng import philox_rng
from semaug.suites import (
    BOUND_FAMILIES,
    BoundTrial,
    composed_gradcheck,
    family_verdicts,
    gradcheck_suite,
    jensen_suite,
    jensen_suite_passes,
    jensen_trial,
    _gradcheck_case,
    _scenario,
)


def _trial(family, z, slack):
    rep = McReport(mean=1.0, std_error=0.1, samples=1000,
                   bound_value=1.0 + slack, slack=slack, z_score=z)
    return BoundTrial(trial=0, family=family, lam=0.5, report=rep)


def test_jensen_trial_is_deterministic():
    a = jensen_trial("ce", 3, 1500, seed=12)
    b = jensen_trial("ce", 3, 1500, seed=12)
    assert a.report.mean == b.report.mean
    assert a.report.std_error == b.report.std_error
    assert a.lam == b.lam
    c = jensen_trial("ce", 4, 1500, seed=12)
    assert c.report.mean != a.report.mean


def test_jensen_trial_rejects_unknown_family():
    with pytest.raises(ValueError):
        jensen_trial("kl", 0, 1000, seed=0)


def test_jensen_suite_covers_every_family():
    results = jensen_suite(2, 800, seed=5)
    assert len(results) == 2 * len(BOUND_FAMILIES)
    assert {r.family for r in results} == set(BOUND_FAMILIES)
    assert jensen_suite_passes(results)


def test_suite_pass_rule_tolerates_rare_low_z():
    results = [_trial("ce", 0.5, 0.2) for _ in range(99)] + [_trial("ce", -3.5, 0.2)]
    assert jensen_suite_passes(results)  # 1% below the line is allowed


def test_suite_pass_rule_rejects_frequent_low_z():
    results = [_trial("ce", 0.5, 0.2) for _ in range(96)] + [_trial("ce", -4.0, 0.2)] * 4
    assert not jensen_suite_passes(results)


def test_suite_pass_rule_rejects_negative_mean_slack():
    results = [_trial("margin", 0.5, -0.3) for _ in range(10)]
    assert not jensen_suite_passes(results)


def test_suite_pass_rule_is_per_family():
    good = [_trial("ce", 1.0, 0.5) for _ in range(10)]
    bad = [_trial("margin_da", -5.0, 0.1) for _ in range(10)]
    assert not jensen_suite_passes(good + bad)
    assert jensen_suite_passes(good)


def test_suite_pass_rule_rejects_nan_results():
    # NaN z and NaN slack used to pass: nan < -3 and nan < 0 are both false
    assert not jensen_suite_passes([_trial("ce", math.nan, math.nan) for _ in range(10)])
    one_nan = [_trial("ce", 1.0, 0.5) for _ in range(99)] + [_trial("ce", math.nan, 0.5)]
    assert not jensen_suite_passes(one_nan)
    assert not jensen_suite_passes([_trial("ce", 1.0, 0.5), _trial("ce", 1.0, math.nan)])


def test_family_verdicts_tally_each_family():
    results = ([_trial("margin", 0.5, -0.3)] * 3 + [_trial("ce", -4.0, 0.5)]
               + [_trial("ce", math.nan, 0.1)] + [_trial("ce", 1.0, 0.3)] * 2)
    verdicts = family_verdicts(results)
    assert [(v.family, v.trials, v.below, v.nan, v.passed) for v in verdicts] == [
        ("margin", 3, 0, 0, False), ("ce", 4, 1, 1, False)]
    assert verdicts[0].mean_slack == pytest.approx(-0.3)
    assert verdicts[1].mean_slack == pytest.approx(0.3)


def test_gradcheck_suite_smoke():
    results = gradcheck_suite(2, 3e-5, seed=0)
    assert len(results) == 10
    assert {r.variant for r in results} == {"softmax", "isda", "am", "daam", "dasa"}
    assert all(r.kind == "loss" for r in results)
    assert max(r.max_rel_error for r in results) < 1e-5


def test_composed_gradcheck_smoke():
    results = composed_gradcheck(5, 3e-5, seed=0)
    assert len(results) == 5
    assert {r.variant for r in results} == {"softmax", "isda", "am", "daam", "dasa"}
    assert all(r.kind == "composed" for r in results)
    assert max(r.max_rel_error for r in results) < 1e-5


def test_composed_gradcheck_rejects_a_step_out_of_range():
    """The same step range as gradcheck_suite: a step of 0.5 is an error,
    not a failed trial."""
    for epsilon in (0.5, 1e-8):
        with pytest.raises(ValueError, match="epsilon must be in"):
            composed_gradcheck(1, epsilon, seed=0)


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("variant", ["softmax", "isda", "am", "daam", "dasa"])
def test_a_scenario_has_statistics_at_its_label_only(variant, diagonal):
    labels = set()
    for key in range(6):
        label, lam, bank, head = _scenario(philox_rng(7, key), variant, 5, 4, diagonal)
        labels.add(label)
        assert bank.mode == (DIAGONAL if diagonal else FULL)
        assert bank.count[label] > 0
        assert not np.delete(bank.count, label).any()
        assert 10.0 ** -2 <= lam <= 10.0 ** -0.5
        assert head.weights.shape == (5, 4)
        assert (head.biases is not None) == (variant in ("softmax", "isda"))
    assert len(labels) > 1
    again = _scenario(philox_rng(7, key), variant, 5, 4, diagonal)
    assert again[:2] == (label, lam) and (again[3].scale, again[3].margin) == (head.scale, head.margin)
    for name in ("count", "mean", "cov"):
        np.testing.assert_array_equal(getattr(again[2], name), getattr(bank, name), strict=True)
    for name in ("weights", "biases"):
        np.testing.assert_array_equal(getattr(again[3], name), getattr(head, name), strict=True)


def test_gradcheck_suite_is_deterministic():
    a = gradcheck_suite(1, 3e-5, seed=9)
    b = gradcheck_suite(1, 3e-5, seed=9)
    assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]


def test_gradient_is_right_next_to_the_difficulty_clamp():
    """Seed 39, daam trial 29 draws a target cosine 1.47e-5 below the clamp
    at 1. The suite redraws that embedding, because its default stencil
    (6e-5) would straddle the clamp; a 1e-5 stencil stays inside it and
    checks the analytic gradient right there."""
    fn, f, head = _gradcheck_case("daam", 29, 39, kink_gap=0.0)
    assert 0.0 < 1.0 - fn(f, head).per_sample_terms["cos_y"][0] < 2e-5
    assert loss_gradient_check(fn, f, head, epsilon=1e-5) < 1e-5

    fn, f, head = _gradcheck_case("daam", 29, 39, kink_gap=1.2e-4)
    assert 1.0 - abs(fn(f, head).per_sample_terms["cos_y"][0]) > 1.2e-4
    assert loss_gradient_check(*_gradcheck_case("daam", 29, 39, 2 * 6e-5), 6e-5) < 1e-5
