"""Loss values against high-precision oracles, exact reduction identities
between variants, difficulty/schedule contracts, and gradient checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from semaug import losses
from semaug.covariance import CHUNK_ELEMENTS, DIAGONAL, FULL, ClassStats, CovarianceBank
from semaug.losses import (
    ClassifierHead,
    LossConfig,
    am_softmax,
    daam_softmax,
    dasa_bound,
    difficulty_da,
    difficulty_dy,
    isda_bound,
    lambda_schedule,
    loss_gradient_check,
    margin_bound,
    softmax_ce,
    variant_loss,
    _softmax_parts,
)
from semaug.rng import philox_rng


# -- high-precision oracles --------------------------------------------------
# Values recomputed in 60-digit arithmetic from the same float inputs, with
# none of the implementation's stabilization tricks.


def _mpf_list(xs):
    return [mp.mpf(float(x)) for x in xs]


def mp_softmax_value(W, b, f, label):
    with mp.workdps(60):
        fv = _mpf_list(f)
        z = [mp.fsum(wi * fi for wi, fi in zip(_mpf_list(row), fv)) for row in W]
        if b is not None:
            z = [zi + mp.mpf(float(bi)) for zi, bi in zip(z, b)]
        return float(mp.log(mp.fsum(mp.e ** zi for zi in z)) - z[label])


def mp_isda_value(W, b, f, cov, lam, label):
    with mp.workdps(60):
        fv = _mpf_list(f)
        rows = [_mpf_list(row) for row in W]
        z = [mp.fsum(wi * fi for wi, fi in zip(r, fv)) for r in rows]
        if b is not None:
            z = [zi + mp.mpf(float(bi)) for zi, bi in zip(z, b)]
        lam = mp.mpf(float(lam))
        terms = [mp.mpf(1)]
        for j in range(len(rows)):
            if j == label:
                continue
            d = [rows[j][a] - rows[label][a] for a in range(len(fv))]
            phi = mp.fsum(
                d[a] * mp.mpf(float(cov[a][c])) * d[c]
                for a in range(len(d))
                for c in range(len(d))
            )
            terms.append(mp.e ** (z[j] - z[label] + lam * phi / 2))
        return float(mp.log(mp.fsum(terms)))


def mp_margin_value(W, f, label, s, m, coef, lam=0.0, cov=None):
    with mp.workdps(60):
        fv = _mpf_list(f)
        what = []
        for row in W:
            r = _mpf_list(row)
            nrm = mp.sqrt(mp.fsum(x * x for x in r))
            what.append([x / nrm for x in r])
        u = [mp.fsum(wi * fi for wi, fi in zip(r, fv)) for r in what]
        s, m = mp.mpf(float(s)), mp.mpf(float(m))
        coef, lam = mp.mpf(float(coef)), mp.mpf(float(lam))
        terms = [mp.mpf(1)]
        for j in range(len(what)):
            if j == label:
                continue
            expo = s * (u[j] - u[label]) + s * m * coef
            if lam > 0:
                d = [what[j][a] - what[label][a] for a in range(len(fv))]
                phi = mp.fsum(
                    d[a] * mp.mpf(float(cov[a][c])) * d[c]
                    for a in range(len(d))
                    for c in range(len(d))
                )
                terms.append(mp.e ** (expo + lam * s * s * phi / 2))
            else:
                terms.append(mp.e ** expo)
        return float(mp.log(mp.fsum(terms)))


def random_stats(rng, dim):
    pts = rng.standard_normal((dim + 8, dim)) @ rng.standard_normal((dim, dim)).T
    mean = pts.mean(axis=0)
    d = pts - mean
    return ClassStats(class_id=0, count=len(pts), mean=mean, cov=d.T @ d / len(pts))


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def bank_with(stats, num_classes, label):
    bank = CovarianceBank(num_classes, stats.cov.shape[0], FULL)
    bank.stats[label] = ClassStats(label, stats.count, stats.mean, stats.cov)
    return bank


# -- hand cases --------------------------------------------------------------


def test_softmax_hand_case_equal_logits():
    head = ClassifierHead(weights=np.eye(2))
    out = softmax_ce(np.array([1.0, 1.0]), head, 0)
    assert out.value == pytest.approx(math.log(2.0), abs=1e-15)
    np.testing.assert_allclose(out.grad_embedding, [[-0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(out.grad_weights, [[-0.5, -0.5], [0.5, 0.5]], atol=1e-15)
    assert out.grad_biases is None


def test_isda_hand_case():
    # z = (1.5, -0.5), phi_1 = 2 under cov [[1,.5],[.5,2]], lam = 0.2:
    # value = log(1 + exp(-2 + 0.2)) = log(1 + exp(-1.8))
    head = ClassifierHead(weights=np.eye(2), biases=np.array([0.5, -0.5]))
    stats = ClassStats(0, 9, np.zeros(2), np.array([[1.0, 0.5], [0.5, 2.0]]))
    out = isda_bound(np.array([1.0, 0.0]), head, bank_with(stats, 2, 0), 0.2, 0)
    assert out.value == pytest.approx(0.15297761052607413, abs=1e-14)


def test_am_hand_case():
    # cosines (1, 0), s = 2, m = 0.2: value = log(1 + exp(-1.6)); the
    # non-unit rows exercise the normalization
    head = ClassifierHead(weights=np.array([[2.0, 0.0], [0.0, 3.0]]), scale=2.0, margin=0.2)
    out = am_softmax(np.array([1.0, 0.0]), head, 0)
    assert out.value == pytest.approx(0.18390074088833883, abs=1e-14)
    assert out.grad_biases is None
    assert out.per_sample_terms["coef"] == 1.0


def test_daam_hand_case():
    # cosines (0.6, 0.8), coef = (1-0.6)/2 = 0.2, s = 2, m = 0.25:
    # exponent = 0.4 + 0.1, value = log(1 + exp(0.5))
    head = ClassifierHead(weights=np.eye(2), scale=2.0, margin=0.25)
    out = daam_softmax(np.array([0.6, 0.8]), head, 0, "DA", 2.0)
    assert out.value == pytest.approx(0.9740769841801067, abs=1e-14)
    assert out.per_sample_terms["coef"] == pytest.approx(0.2, abs=1e-15)


def test_dasa_hand_case():
    # same geometry as the daam case plus lam = 0.1, identity covariance,
    # phi_1 = |e2-e1|^2 = 2: exponent gains 0.5*0.1*4*2 = 0.4
    head = ClassifierHead(weights=np.eye(2), scale=2.0, margin=0.25)
    bank = bank_with(ClassStats(0, 9, np.zeros(2), np.eye(2)), 2, 0)
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.1,
                     ramp_total_iters=1, deferred_fraction=0.0)
    out = dasa_bound(np.array([0.6, 0.8]), head, bank, 0, cfg, 1)
    assert out.value == pytest.approx(1.2411538747320878, abs=1e-14)
    assert out.per_sample_terms["lambda"] == 0.1


# -- randomized oracle comparisons -------------------------------------------


def test_softmax_matches_high_precision_oracle():
    rng = philox_rng(201)
    for k in range(20):
        C, F = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        W = rng.standard_normal((C, F))
        b = rng.standard_normal(C) if k % 2 else None
        f = rng.standard_normal(F)
        label = int(rng.integers(0, C))
        head = ClassifierHead(weights=W, biases=b)
        out = softmax_ce(f, head, label)
        assert out.value == pytest.approx(mp_softmax_value(W, b, f, label), rel=1e-13, abs=1e-13)


def test_isda_matches_high_precision_oracle():
    rng = philox_rng(202)
    for k in range(20):
        C, F = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        W = rng.standard_normal((C, F))
        b = rng.standard_normal(C) if k % 2 else None
        f = rng.standard_normal(F)
        label = int(rng.integers(0, C))
        stats = random_stats(rng, F)
        lam = 10.0 ** rng.uniform(-2, 0)
        out = isda_bound(f, ClassifierHead(weights=W, biases=b), bank_with(stats, C, label), lam, label)
        want = mp_isda_value(W, b, f, stats.cov, lam, label)
        assert out.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_margin_family_matches_high_precision_oracle():
    rng = philox_rng(203)
    for k in range(20):
        C, F = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        W = rng.standard_normal((C, F))
        f = unit(rng, F)
        label = int(rng.integers(0, C))
        s = 2.0 + 10.0 * rng.random()
        m = 0.05 + 0.3 * rng.random()
        head = ClassifierHead(weights=W, scale=s, margin=m)
        cos_y = float((W[label] / np.linalg.norm(W[label])) @ f)

        out = am_softmax(f, head, label)
        assert out.value == pytest.approx(mp_margin_value(W, f, label, s, m, 1.0), rel=1e-12, abs=1e-12)

        mode = ("DA", "DY")[k % 2]
        coef = difficulty_da(cos_y) if mode == "DA" else difficulty_dy(cos_y, 2.0)
        out = daam_softmax(f, head, label, mode, 2.0)
        assert out.value == pytest.approx(mp_margin_value(W, f, label, s, m, coef), rel=1e-12, abs=1e-12)

        stats = random_stats(rng, F)
        lam = 10.0 ** rng.uniform(-2, -0.5)
        out = margin_bound(f, head, stats, label, lam, coef)
        want = mp_margin_value(W, f, label, s, m, coef, lam, stats.cov)
        assert out.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_dasa_matches_high_precision_oracle_across_schedules():
    rng = philox_rng(204)
    for k in range(18):
        C, F = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        W = rng.standard_normal((C, F))
        f = unit(rng, F)
        label = int(rng.integers(0, C))
        head = ClassifierHead(weights=W, scale=2.0 + 4.0 * rng.random(), margin=0.2)
        stats = random_stats(rng, F)
        cfg = LossConfig(
            variant="dasa",
            difficulty=("DA", "DY", "none")[k % 3],
            strength_mode=("constant", "DA", "DY")[k // 6],
            lambda0=10.0 ** rng.uniform(-2, -0.5),
            ramp_total_iters=10,
            deferred_fraction=0.3,
        )
        t = int(rng.integers(0, 11))
        out = dasa_bound(f, head, bank_with(stats, C, label), label, cfg, t)

        cos_y = float((W[label] / np.linalg.norm(W[label])) @ f)
        if cfg.difficulty == "none":
            coef = 1.0
        elif cfg.difficulty == "DA":
            coef = difficulty_da(cos_y)
        else:
            coef = difficulty_dy(cos_y, cfg.gamma)
        if cfg.strength_mode == "constant":
            lam = lambda_schedule(t, cfg)
        else:
            sc = difficulty_da(cos_y) if cfg.strength_mode == "DA" else difficulty_dy(cos_y, cfg.gamma)
            lam = lambda_schedule(t, cfg, coef=sc)
        want = mp_margin_value(W, f, label, head.scale, head.margin, coef, lam, stats.cov)
        assert out.value == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert out.per_sample_terms["lambda"] == pytest.approx(lam, abs=1e-15)


# -- reduction identities -----------------------------------------------------


def assert_identical(a, c):
    """Value, every gradient and the per-sample terms agree bit for bit."""
    assert a.value == c.value
    np.testing.assert_array_equal(a.grad_embedding, c.grad_embedding)
    np.testing.assert_array_equal(a.grad_weights, c.grad_weights)
    assert (a.grad_biases is None) == (c.grad_biases is None)
    if c.grad_biases is not None:
        np.testing.assert_array_equal(a.grad_biases, c.grad_biases)
    assert a.per_sample_terms == c.per_sample_terms


def test_isda_at_zero_strength_is_exactly_softmax():
    rng = philox_rng(205)
    for _ in range(10):
        C, F = 5, 4
        W = rng.standard_normal((C, F))
        b = rng.standard_normal(C)
        f = rng.standard_normal(F)
        label = int(rng.integers(0, C))
        bank = bank_with(random_stats(rng, F), C, label)
        for biases in (b, None):
            head = ClassifierHead(weights=W, biases=biases)
            assert_identical(isda_bound(f, head, bank, 0.0, label), softmax_ce(f, head, label))


def test_dasa_in_deferred_region_is_exactly_daam():
    rng = philox_rng(206)
    for strength in ("constant", "DA", "DY"):
        W = rng.standard_normal((4, 5))
        f = unit(rng, 5)
        label = 2
        head = ClassifierHead(weights=W, scale=8.0, margin=0.25)
        bank = bank_with(random_stats(rng, 5), 4, label)
        cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode=strength,
                         lambda0=0.5, ramp_total_iters=10, deferred_fraction=0.4)
        a = dasa_bound(f, head, bank, label, cfg, 3)  # 0.3 < 0.4: strength off
        c = daam_softmax(f, head, label, "DA", cfg.gamma)
        assert_identical(a, c)


def test_dasa_without_difficulty_or_strength_is_exactly_am():
    rng = philox_rng(207)
    W = rng.standard_normal((4, 5))
    f = unit(rng, 5)
    head = ClassifierHead(weights=W, scale=10.0, margin=0.2)
    bank = bank_with(random_stats(rng, 5), 4, 1)
    cfg = LossConfig(variant="dasa", difficulty="none", strength_mode="constant", lambda0=0.4,
                     ramp_total_iters=10, deferred_fraction=1.0)
    a = dasa_bound(f, head, bank, 1, cfg, 9)  # strength deferred past this point
    c = am_softmax(f, head, 1)
    assert_identical(a, c)
    for gamma in (0.5, 2.0):
        assert_identical(daam_softmax(f, head, 1, "none", gamma), c)


def test_margin_bound_with_unit_coefficient_is_exactly_am():
    rng = philox_rng(208)
    W = rng.standard_normal((5, 4))
    f = unit(rng, 4)
    head = ClassifierHead(weights=W, scale=6.0, margin=0.3)
    stats = random_stats(rng, 4)
    a = margin_bound(f, head, stats, 0, 0.0, 1.0)
    c = am_softmax(f, head, 0)
    assert_identical(a, c)


def test_variant_loss_is_exactly_the_named_function():
    rng = philox_rng(215)
    C, F, label, t = 5, 4, 3, 7
    W = rng.standard_normal((C, F))
    f = unit(rng, F)
    bank = bank_with(random_stats(rng, F), C, label)
    affine = ClassifierHead(weights=W, biases=rng.standard_normal(C))
    cosine = ClassifierHead(weights=W, scale=6.0, margin=0.25)

    def cfg(variant, difficulty="none", strength="constant"):
        return LossConfig(variant=variant, difficulty=difficulty, strength_mode=strength,
                          lambda0=0.3, ramp_total_iters=10, deferred_fraction=0.2)

    assert_identical(variant_loss(f, affine, bank, label, cfg("softmax"), t),
                     softmax_ce(f, affine, label))
    isda = cfg("isda")
    assert_identical(variant_loss(f, affine, bank, label, isda, t),
                     isda_bound(f, affine, bank, lambda_schedule(t, isda), label))
    assert_identical(variant_loss(f, cosine, bank, label, cfg("am"), t),
                     am_softmax(f, cosine, label))
    for difficulty in ("none", "DA", "DY"):
        daam = cfg("daam", difficulty)
        assert_identical(variant_loss(f, cosine, bank, label, daam, t),
                         daam_softmax(f, cosine, label, difficulty, daam.gamma))
        for strength in ("constant", "DA", "DY"):
            dasa = cfg("dasa", difficulty, strength)
            assert_identical(variant_loss(f, cosine, bank, label, dasa, t),
                             dasa_bound(f, cosine, bank, label, dasa, t))


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want))) / max(float(np.max(np.abs(want))), 1e-300)


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_batch_rows_match_single_row_calls(mode):
    # Repeated labels, classes absent from the batch, a labelled class whose
    # bank entry is empty (count 0), and a row at cos_y = 1 exactly, where the
    # DA strength is 0 beside rows with positive strength.
    rng = philox_rng(216)
    C, F, t = 7, 5, 7
    W = rng.standard_normal((C, F))
    W[4] = 2.0 * np.eye(F)[0]
    labels = np.array([1, 3, 1, 4, 1, 3, 0, 1])
    f = np.array([unit(rng, F) for _ in labels])
    f[3] = np.eye(F)[0]
    bank = CovarianceBank(C, F, mode)
    for c in (1, 3, 4):
        stats = stats_in_mode(rng, F, mode)
        bank.stats[c] = ClassStats(c, stats.count, stats.mean, stats.cov)
    affine = ClassifierHead(weights=W, biases=rng.standard_normal(C))
    cosine = ClassifierHead(weights=W, scale=6.0, margin=0.25)

    def cfg(variant, difficulty="none", strength="constant"):
        return LossConfig(variant=variant, difficulty=difficulty, strength_mode=strength,
                          lambda0=0.3, ramp_total_iters=10, deferred_fraction=0.2)

    cases = [(affine, cfg("softmax")), (affine, cfg("isda")), (cosine, cfg("am"))]
    cases += [(cosine, cfg("daam", d)) for d in ("none", "DA", "DY")]
    cases += [(cosine, cfg("dasa", d, s)) for d in ("none", "DA", "DY") for s in ("constant", "DA", "DY")]
    for head, config in cases:
        batch = variant_loss(f, head, bank, labels, config, t)
        rows = [variant_loss(f[i], head, bank, int(labels[i]), config, t) for i in range(len(labels))]
        assert batch.value.shape == (len(labels),) and batch.grad_embedding.shape == f.shape
        assert _rel(batch.value, [r.value[0] for r in rows]) <= 1e-12
        assert _rel(batch.grad_embedding, [r.grad_embedding[0] for r in rows]) <= 1e-12
        for key in ("cos_y", "coef", "lambda"):
            want = [r.per_sample_terms[key][0] for r in rows]
            assert batch.per_sample_terms[key].shape == (len(labels),)
            assert _rel(batch.per_sample_terms[key], want) <= 1e-12 or not np.any(want)
        assert _rel(batch.grad_weights, sum(r.grad_weights for r in rows)) <= 1e-12
        assert (batch.grad_biases is None) == (head.biases is None)
        if head.biases is not None:
            assert _rel(batch.grad_biases, sum(r.grad_biases for r in rows)) <= 1e-12
        if config.strength_mode == "DA":
            lam = batch.per_sample_terms["lambda"]
            assert lam[3] == 0.0 and np.all(np.delete(lam, 3) > 0.0)


def test_batch_input_validation():
    head = ClassifierHead(weights=np.eye(3), biases=np.zeros(3))
    f = np.eye(3)[:2]
    with pytest.raises(ValueError, match="labels"):
        softmax_ce(f, head, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="labels"):
        softmax_ce(f, head, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="label 3 out of range"):
        softmax_ce(f, head, np.array([0, 3]))
    with pytest.raises(ValueError, match="shape"):
        softmax_ce(np.ones((2, 4)), head, np.array([0, 1]))
    with pytest.raises(ValueError, match="unit"):
        am_softmax(np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]), ClassifierHead(weights=np.eye(3)),
                   np.array([0, 1]))
    with pytest.raises(ValueError, match="statistics"):
        margin_bound(f, ClassifierHead(weights=np.eye(3)), None, np.array([0, 1]), 0.1)


# -- ordering and invariance --------------------------------------------------


def test_bound_value_is_nondecreasing_in_strength():
    rng = philox_rng(209)
    for _ in range(10):
        C, F = 5, 4
        W = rng.standard_normal((C, F))
        f = unit(rng, F)
        label = int(rng.integers(0, C))
        stats = random_stats(rng, F)
        head_b = ClassifierHead(weights=W, biases=rng.standard_normal(C))
        head_m = ClassifierHead(weights=W, scale=4.0, margin=0.2)
        bank = bank_with(stats, C, label)
        lams = [0.0, 0.05, 0.2, 1.0]
        ce = [isda_bound(f, head_b, bank, l, label).value for l in lams]
        mg = [margin_bound(f, head_m, stats, label, l, 0.7).value for l in lams]
        for seq in (ce, mg):
            for lo, hi in zip(seq, seq[1:]):
                assert hi >= lo - 1e-12


def test_class_permutation_equivariance():
    rng = philox_rng(210)
    C, F = 6, 4
    W = rng.standard_normal((C, F))
    b = rng.standard_normal(C)
    f = unit(rng, F)
    label = 2
    perm = rng.permutation(C)
    new_label = int(np.where(perm == label)[0][0])

    a = softmax_ce(f, ClassifierHead(weights=W, biases=b), label)
    p = softmax_ce(f, ClassifierHead(weights=W[perm], biases=b[perm]), new_label)
    assert p.value == pytest.approx(a.value, rel=1e-12)
    np.testing.assert_allclose(p.grad_weights, a.grad_weights[perm], atol=1e-12)
    np.testing.assert_allclose(p.grad_biases, a.grad_biases[perm], atol=1e-12)

    head = ClassifierHead(weights=W, scale=5.0, margin=0.2)
    head_p = ClassifierHead(weights=W[perm], scale=5.0, margin=0.2)
    a = daam_softmax(f, head, label, "DA", 2.0)
    p = daam_softmax(f, head_p, new_label, "DA", 2.0)
    assert p.value == pytest.approx(a.value, rel=1e-12)
    np.testing.assert_allclose(p.grad_weights, a.grad_weights[perm], atol=1e-12)


def test_margin_losses_ignore_weight_row_magnitudes():
    rng = philox_rng(211)
    W = rng.standard_normal((4, 5))
    f = unit(rng, 5)
    head = ClassifierHead(weights=W, scale=7.0, margin=0.15)
    base = am_softmax(f, head, 1)

    # powers of two rescale rows without any rounding at all
    quad = am_softmax(f, ClassifierHead(weights=4.0 * W, scale=7.0, margin=0.15), 1)
    assert quad.value == base.value
    np.testing.assert_array_equal(quad.grad_embedding, base.grad_embedding)
    np.testing.assert_array_equal(quad.grad_weights, base.grad_weights / 4.0)

    odd = am_softmax(f, ClassifierHead(weights=1.7 * W, scale=7.0, margin=0.15), 1)
    assert odd.value == pytest.approx(base.value, rel=1e-12)
    np.testing.assert_allclose(odd.grad_weights, base.grad_weights / 1.7, rtol=1e-10)


# -- difficulty coefficients ---------------------------------------------------


def test_difficulty_exact_values_and_clamping():
    assert difficulty_da(1.0) == 0.0
    assert difficulty_da(-1.0) == 1.0
    assert difficulty_da(0.0) == 0.5
    assert difficulty_da(2.5) == 0.0    # clamped to cos = 1
    assert difficulty_da(-3.0) == 1.0   # clamped to cos = -1
    assert difficulty_da(np.array([[2.5], [0.0], [-3.0]])).tolist() == [[0.0], [0.5], [1.0]]
    assert difficulty_dy(1.0, 2.0) == 0.5
    assert difficulty_dy(0.0, 2.0) == pytest.approx(1.3591409142295226, abs=1e-15)
    assert difficulty_dy(-1.0, 2.0) == pytest.approx(3.694528049465325, abs=1e-14)
    assert difficulty_dy(9.0, 2.0) == 0.5
    assert difficulty_dy(np.array([[9.0], [1.0]]), 2.0).tolist() == [[0.5], [0.5]]
    assert type(difficulty_dy(0.0, 2.0)) is float
    with pytest.raises(ValueError):
        difficulty_dy(0.0, 0.0)
    with pytest.raises(ValueError):
        difficulty_dy(0.0, -1.0)


def test_difficulty_strictly_decreasing_on_dense_grid():
    grid = np.linspace(-1.0, 1.0, 1000)
    for fn in (difficulty_da, lambda c: difficulty_dy(c, 2.0)):
        vals = [fn(c) for c in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_difficulty_ranges_hold_everywhere(c):
    assert 0.0 <= difficulty_da(c) <= 1.0
    assert 0.5 <= difficulty_dy(c, 2.0) <= math.exp(2.0) / 2.0


# -- strength schedule ----------------------------------------------------------


def test_schedule_endpoint_and_deferred_region():
    cfg = LossConfig(variant="dasa", strength_mode="constant", lambda0=0.1,
                     ramp_total_iters=10, deferred_fraction=0.4)
    assert lambda_schedule(0, cfg) == 0.0
    assert lambda_schedule(3, cfg) == 0.0          # 0.3 < 0.4
    assert lambda_schedule(4, cfg) == 0.4 * 0.1    # boundary is inclusive
    assert lambda_schedule(7, cfg) == 0.7 * 0.1
    assert lambda_schedule(10, cfg) == cfg.lambda0  # exact at the horizon
    assert lambda_schedule(25, cfg) == cfg.lambda0  # clamped past it
    with pytest.raises(ValueError):
        lambda_schedule(-1, cfg)


def test_schedule_dynamic_mode_scales_the_coefficient():
    cfg = LossConfig(variant="dasa", strength_mode="DA", lambda0=0.1,
                     ramp_total_iters=10, deferred_fraction=0.0)
    # dynamic strength multiplies the ramp by the sample coefficient alone
    assert lambda_schedule(5, cfg, coef=0.8) == 0.5 * 0.8
    assert lambda_schedule(10, cfg, coef=0.3) == 0.3
    with pytest.raises(ValueError):
        lambda_schedule(5, cfg)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_schedule_is_monotone_in_time(t1, t2):
    cfg = LossConfig(variant="dasa", strength_mode="constant", lambda0=0.25,
                     ramp_total_iters=20, deferred_fraction=0.35)
    lo, hi = sorted((t1, t2))
    assert lambda_schedule(lo, cfg) <= lambda_schedule(hi, cfg)


# -- gradients -------------------------------------------------------------------


def test_gradient_spot_checks():
    rng = philox_rng(212)
    f = unit(rng, 4)
    W = rng.standard_normal((3, 4)) / 2.0
    head = ClassifierHead(weights=W, biases=rng.standard_normal(3) / 2.0)
    err = loss_gradient_check(lambda e, h, **kw: softmax_ce(e, h, 1, **kw), f, head)
    assert err < 1e-5

    bank = bank_with(random_stats(rng, 4), 3, 1)
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="DY",
                     lambda0=0.05, ramp_total_iters=10, deferred_fraction=0.0)
    head = ClassifierHead(weights=W, scale=2.5, margin=0.2)
    err = loss_gradient_check(lambda e, h, **kw: dasa_bound(e, h, bank, 1, cfg, 6, **kw), f, head)
    assert err < 1e-5


def test_gradient_check_rejects_bad_epsilon():
    head = ClassifierHead(weights=np.eye(2))
    fn = lambda e, h, **kw: softmax_ce(e, h, 0, **kw)
    with pytest.raises(ValueError):
        loss_gradient_check(fn, np.array([1.0, 0.0]), head, epsilon=1e-8)
    with pytest.raises(ValueError):
        loss_gradient_check(fn, np.array([1.0, 0.0]), head, epsilon=1e-3)


def test_saturated_margin_gradients_agree_absolutely():
    """At a confidently-correct point the softmax saturates: true gradients
    sink below what central differences resolve relative to themselves, so
    the meaningful comparison is absolute."""
    f = np.array([1.0, 0.0, 0.0])
    W = np.array([[1.0, 0.0, 0.0], [-0.8, 0.5, 0.33]])
    head = ClassifierHead(weights=W, scale=32.0, margin=0.2)
    out = am_softmax(f, head, 0)
    eps = 3e-5

    worst = 0.0
    for i in range(3):
        fp, fm = f.copy(), f.copy()
        fp[i] += eps
        fm[i] -= eps
        fd = (am_softmax(fp, head, 0).value[0] - am_softmax(fm, head, 0).value[0]) / (2 * eps)
        worst = max(worst, abs(out.grad_embedding[0, i] - fd))
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += eps
        Wm[idx] -= eps
        hp = ClassifierHead(weights=Wp, scale=32.0, margin=0.2)
        hm = ClassifierHead(weights=Wm, scale=32.0, margin=0.2)
        fd = (am_softmax(f, hp, 0).value[0] - am_softmax(f, hm, 0).value[0]) / (2 * eps)
        worst = max(worst, abs(out.grad_weights[idx] - fd))
    assert worst < 1e-8


def test_gradient_check_catches_a_planted_error():
    """A 1e-4 relative error in a single analytic entry shows as ~5e-5,
    well above the 1e-5 gate, while the untouched gradients pass."""
    rng = philox_rng(213)
    f = unit(rng, 4)
    W = rng.standard_normal((5, 4)) / 2.0
    bank = bank_with(random_stats(rng, 4), 5, 2)
    head = ClassifierHead(weights=W, biases=rng.standard_normal(5) / 2.0)

    def planted(field, idx):
        def fn(e, h, value_only=False):
            out = isda_bound(e, h, bank, 0.05, 2, value_only=value_only)
            if not value_only:
                getattr(out, field)[idx] *= 1.0 + 1e-4
            return out
        return fn

    assert loss_gradient_check(lambda e, h, **kw: isda_bound(e, h, bank, 0.05, 2, **kw), f, head) < 1e-5
    for field, idx in (("grad_embedding", (0, 1)), ("grad_weights", (0, 1)), ("grad_biases", 3)):
        assert loss_gradient_check(planted(field, idx), f, head) > 4e-5, field


# -- shared covariance product against the two-product formulation ----------
# The cores read phi_j = d_j . (d_j Cov) off the same product the gradient
# uses.  The oracles below are the cores as they were before: phi from a
# three-operand einsum, and the product formed a second time for the gradient.


def _two_products(d, cov, label):
    phi = np.einsum("cf,fg,cg->c", d, cov, d) if cov.ndim == 2 else (d * d) @ cov
    phi[label] = 0.0
    return phi, (d @ cov if cov.ndim == 2 else d * cov)


def two_product_isda(f, head, cov, lam, label):
    W = head.weights
    z = W @ f + head.biases
    phi, U = _two_products(W - W[label], cov, label)
    a = (z - z[label]) + 0.5 * lam * phi
    a[label] = 0.0
    ea = np.exp(a - a.max())
    p = ea / ea.sum()
    grad_W = p[:, None] * (f[None, :] + lam * U)
    grad_W[label] = (p[label] - 1.0) * f - lam * (p @ U)
    grad_b = p.copy()
    grad_b[label] -= 1.0
    return a.max() + math.log(ea.sum()), W.T @ p - W[label], grad_W, grad_b


def coef_and_slope(mode, uy, gamma):
    """The difficulty coefficient c(u_y) for one float cosine and its slope
    dc/du_y, from the public coefficients and their derivatives by hand:
    (1 - u)/2 has slope -1/2, exp(1 - u)/gamma slope -c, and a cosine
    clamped to [-1, 1] slope 0."""
    if mode == "none":
        return 1.0, 0.0
    c = difficulty_da(uy) if mode == "DA" else difficulty_dy(uy, gamma)
    if abs(uy) > 1.0:
        return c, 0.0
    return c, -0.5 if mode == "DA" else -c


def two_product_margin(f, head, cov, label, margin_mode, strength_mode, lam, ramp, gamma, coef=None):
    norms = np.linalg.norm(head.weights, axis=1)
    What = head.weights / norms[:, None]
    s, m = head.scale, head.margin
    u = What @ f
    uy = float(u[label])
    dcoef = 0.0
    if coef is None:
        coef, dcoef = coef_and_slope(margin_mode, uy, gamma)
    dlam = 0.0
    if strength_mode != "constant":
        c, dc = coef_and_slope(strength_mode, uy, gamma)
        lam, dlam = ramp * c, ramp * dc
    phi, U = _two_products(What - What[label], cov, label)
    b = s * (u - uy) + s * m * coef + 0.5 * lam * s * s * phi
    b[label] = 0.0
    eb = np.exp(b - b.max())
    qn = eb / eb.sum()
    qn[label] = 0.0
    duy = (-s + s * m * dcoef) * qn.sum() + 0.5 * s * s * dlam * float(qn @ phi)
    g_hat = (s * qn)[:, None] * f[None, :] + (lam * s * s) * qn[:, None] * U
    g_hat[label] = duy * f - (lam * s * s) * (qn @ U)
    proj = g_hat - np.sum(g_hat * What, axis=1, keepdims=True) * What
    return b.max() + math.log(eb.sum()), s * (qn @ What) + duy * What[label], proj / norms[:, None]


def assert_same_loss(out, want):
    value, grad_f, grad_W = want[:3]
    assert abs(out.value - value) <= 1e-12 * abs(value)
    for got, ref in ((out.grad_embedding, grad_f), (out.grad_weights, grad_W)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if len(want) == 4:
        assert np.max(np.abs(out.grad_biases - want[3])) <= 1e-12 * np.max(np.abs(want[3]))


def stats_in_mode(rng, dim, mode):
    stats = random_stats(rng, dim)
    if mode == DIAGONAL:
        stats.cov = np.diagonal(stats.cov).copy()
    return stats


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_cores_match_the_two_product_formulation(mode):
    rng = philox_rng(214)
    C, F = 40, 24
    for trial in range(6):
        W = rng.standard_normal((C, F)) / math.sqrt(F)
        f = unit(rng, F)
        label = int(rng.integers(0, C))
        stats = stats_in_mode(rng, F, mode)
        stats.cov *= 0.3 / np.mean(stats.cov if mode == DIAGONAL else np.diagonal(stats.cov))
        bank = CovarianceBank(C, F, mode)
        bank.stats[label] = ClassStats(label, stats.count, stats.mean, stats.cov)
        lam = 0.05 + 0.3 * rng.random()

        head = ClassifierHead(weights=W, biases=rng.standard_normal(C) / 2.0)
        assert_same_loss(isda_bound(f, head, bank, lam, label),
                         two_product_isda(f, head, stats.cov, lam, label))

        head = ClassifierHead(weights=W, scale=6.0 + trial, margin=0.2)
        coef = 0.3 + rng.random()
        assert_same_loss(margin_bound(f, head, stats, label, lam, coef),
                         two_product_margin(f, head, stats.cov, label, "none", "constant",
                                            lam, 0.0, 1.0, coef=coef))
        for difficulty in ("none", "DA", "DY"):
            for strength in ("constant", "DA", "DY"):
                cfg = LossConfig(variant="dasa", difficulty=difficulty, strength_mode=strength,
                                 lambda0=lam, ramp_total_iters=10, deferred_fraction=0.2)
                t = 3 + trial
                want = two_product_margin(f, head, stats.cov, label, difficulty, strength,
                                          lambda_schedule(t, cfg) if strength == "constant" else 0.0,
                                          lambda_schedule(t, cfg, 1.0), cfg.gamma)
                assert_same_loss(dasa_bound(f, head, bank, label, cfg, t), want)


# -- batched augmentation term against the per-label loop -------------------
# The oracle is the augmentation term as it was before it was batched: for
# each distinct label y among the rows with lam != 0, one product
# U = D Cov_y gives those rows' quadratic forms and its share of the weight
# gradient.  Swapping it in for losses._augment gives the old loss whole.


def _groups(labels, lam):
    """(rows, label) for each distinct label among the rows with lam != 0,
    in label order; ``lam`` is a (B, 1) column or one float for every row."""
    on = (lam[:, 0] != 0.0).tolist() if isinstance(lam, np.ndarray) else [lam != 0.0] * labels.size
    rows = {}
    for i, y in enumerate(labels.tolist()):
        if on[i]:
            rows.setdefault(y, []).append(i)
    return [(np.array(r), y) for y, r in sorted(rows.items())]


def _add_cov_term(g, q, w, U, y):
    """Add the covariance term of the weight gradient of rows of label y,
    given their softmax q, w = lam*a^2 and U = D Cov_y (whose row y is 0)."""
    g += (w * q).sum(axis=0)[:, None] * U
    g[y] -= (w * (q @ U)).sum(axis=0)


def forms_and_product(stats, diffs, label):
    """Quadratic forms phi (phi_label = 0) and covariance product U = D Cov
    of the difference rows d_j = w_j - w_label against one class's cov."""
    U = diffs @ stats.cov if stats.cov.ndim == 2 else diffs * stats.cov
    phi = np.einsum("cf,cf->c", diffs, U)
    phi[label] = 0.0
    return phi, U


def per_label_augment(e, g, phi_rows, R, labels, lam, a, stats, value_only):
    for rows, y in _groups(labels, lam):
        if stats is None:
            raise ValueError("augmentation strength > 0 requires class statistics")
        phi, U = forms_and_product(stats if isinstance(stats, ClassStats) else stats.stats[y], R - R[y], y)
        lam_y = lam[rows] if isinstance(lam, np.ndarray) else lam
        e[rows] = e_y = e[rows] + 0.5 * lam_y * a * a * phi
        if phi_rows is not None:
            phi_rows[rows] = phi
        if not value_only:
            _add_cov_term(g, _softmax_parts(e_y)[2], lam_y * a * a, U, y)


def assert_close_outputs(got, want, tol=1e-12):
    for name in ("value", "grad_embedding", "grad_weights", "grad_biases"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert _rel(a, b) <= tol, name
    for key, b in want.per_sample_terms.items():
        assert _rel(got.per_sample_terms[key], b) <= tol or not np.any(b), key


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_batched_term_matches_the_per_label_loop(monkeypatch, mode):
    rng = philox_rng(217)
    C, F, B = 80, 96, 40
    per_chunk = CHUNK_ELEMENTS // (C * F)
    W = rng.standard_normal((C, F)) / math.sqrt(F)
    labels = rng.integers(0, C, B)
    labels[:3] = labels[3]  # one label on several rows
    assert np.unique(labels).size > 2 * per_chunk  # the labels span three chunks or more
    f = np.array([unit(rng, F) for _ in labels])
    bank = CovarianceBank(C, F, mode)
    bank.update(rng.standard_normal((4 * C, F)) * 0.3, np.arange(4 * C) % C)
    stats = stats_in_mode(rng, F, mode)
    stats.cov *= 0.3 / np.mean(stats.cov if mode == DIAGONAL else np.diagonal(stats.cov))
    affine = ClassifierHead(weights=W, biases=rng.standard_normal(C) / 2.0)
    cosine = ClassifierHead(weights=W, scale=8.0, margin=0.2)

    def calls(f, labels):
        def cfg(variant, difficulty="none", strength="constant"):
            return LossConfig(variant=variant, difficulty=difficulty, strength_mode=strength,
                              lambda0=0.4, ramp_total_iters=10, deferred_fraction=0.2)
        out = [lambda: variant_loss(f, affine, bank, labels, cfg("softmax"), 7),
               lambda: variant_loss(f, affine, bank, labels, cfg("isda"), 7),
               lambda: variant_loss(f, cosine, bank, labels, cfg("am"), 7)]
        out += [lambda d=d: variant_loss(f, cosine, bank, labels, cfg("daam", d), 7) for d in ("DA", "DY")]
        out += [lambda d=d, s=s: variant_loss(f, cosine, bank, labels, cfg("dasa", d, s), 7)
                for d in ("none", "DA", "DY") for s in ("constant", "DA", "DY")]
        # one ClassStats for every label, as margin_bound and the Monte Carlo suites pass it
        out += [lambda: margin_bound(f, cosine, stats, labels, 0.3, 0.7),
                lambda: losses._loss(f, affine, labels, cosine=False, stats=stats, lam=("none", 0.3))]
        return out

    for f_, labels_ in ((f, labels), (f[5], int(labels[5]))):
        batched = [call() for call in calls(f_, labels_)]
        with monkeypatch.context() as patch:
            patch.setattr(losses, "_augment", per_label_augment)
            looped = [call() for call in calls(f_, labels_)]
        for got, want in zip(batched, looped):
            assert_close_outputs(got, want)


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_value_only_is_the_value_of_the_full_call(mode):
    rng = philox_rng(218)
    C, F = 6, 5
    W = rng.standard_normal((C, F))
    labels = np.array([1, 3, 1, 4, 0, 3, 1])
    f = np.array([unit(rng, F) for _ in labels])
    bank = CovarianceBank(C, F, mode)
    bank.update(rng.standard_normal((30, F)), np.arange(30) % C)
    heads = {"softmax": ClassifierHead(weights=W, biases=rng.standard_normal(C)),
             "isda": ClassifierHead(weights=W, biases=rng.standard_normal(C))}
    for difficulty in ("DA", "DY"):
        for variant in ("softmax", "isda", "am", "daam", "dasa"):
            head = heads.get(variant, ClassifierHead(weights=W, scale=6.0, margin=0.25))
            cfg = LossConfig(variant=variant, difficulty=difficulty, strength_mode=difficulty,
                             lambda0=0.3, ramp_total_iters=10, deferred_fraction=0.2)
            for emb, lab in ((f, labels), (f[2], int(labels[2]))):
                full = variant_loss(emb, head, bank, lab, cfg, 7)
                only = variant_loss(emb, head, bank, lab, cfg, 7, value_only=True)
                assert type(only.value) is type(full.value)
                assert np.array_equal(only.value, full.value)
                assert only.grad_embedding is None and only.grad_weights is None


# -- input validation -------------------------------------------------------------


def test_margin_path_requires_unit_embedding():
    head = ClassifierHead(weights=np.eye(3))
    with pytest.raises(ValueError, match="unit"):
        am_softmax(np.array([0.9, 0.0, 0.0]), head, 0)
    with pytest.raises(ValueError, match="zero-norm"):
        am_softmax(np.zeros(3), head, 0)
    # a norm within the tolerance band passes
    am_softmax(np.array([1.0005, 0.0, 0.0]), head, 0)


def test_zero_norm_weight_row_rejected():
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="weight row"):
        am_softmax(np.array([1.0, 0.0]), ClassifierHead(weights=W), 0)


def test_label_and_finiteness_validation():
    head = ClassifierHead(weights=np.eye(2), biases=np.zeros(2))
    with pytest.raises(ValueError, match="label"):
        softmax_ce(np.array([1.0, 0.0]), head, 2)
    with pytest.raises(ValueError, match="label"):
        am_softmax(np.array([1.0, 0.0]), ClassifierHead(weights=np.eye(2)), -1)
    with pytest.raises(ValueError, match="shape"):
        softmax_ce(np.array([1.0, 0.0, 0.0]), head, 0)
    with pytest.raises(ValueError, match="finite"):
        softmax_ce(np.array([np.nan, 0.0]), head, 0)
    bad = ClassifierHead(weights=np.array([[np.inf, 0.0], [0.0, 1.0]]), biases=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        softmax_ce(np.array([1.0, 0.0]), bad, 0)


def test_negative_strength_rejected():
    stats = ClassStats(0, 5, np.zeros(2), np.eye(2))
    head = ClassifierHead(weights=np.eye(2), biases=np.zeros(2))
    for lam in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            isda_bound(np.array([1.0, 0.0]), head, bank_with(stats, 2, 0), lam, 0)
    # a frozen margin coefficient takes the same check as the strength
    for lam, coef, name in ((-0.1, 1.0, "lam"), (math.nan, 1.0, "lam"), (math.inf, 1.0, "lam"),
                            (0.1, -1.0, "coef"), (0.1, math.nan, "coef"), (0.1, math.inf, "coef")):
        with pytest.raises(ValueError, match=name):
            margin_bound(np.array([1.0, 0.0]), ClassifierHead(weights=np.eye(2)), stats, 0, lam, coef)


def test_head_validation():
    with pytest.raises(ValueError):
        ClassifierHead(weights=np.zeros(3))
    with pytest.raises(ValueError):
        ClassifierHead(weights=np.eye(3), biases=np.zeros(2))
    for bad in ({"scale": 0.0}, {"scale": math.inf}, {"margin": -0.1}, {"margin": math.nan}, {"margin": math.inf}):
        with pytest.raises(ValueError):
            ClassifierHead(weights=np.eye(3), **bad)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(variant="centerloss")
    for variant in ("softmax", "isda", "am"):
        # a difficulty mode on a variant that takes none is coerced away
        assert LossConfig(variant=variant, difficulty="DA").difficulty == "none"
        LossConfig(variant=variant, difficulty="none")  # ok
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", difficulty="hard")
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", strength_mode="ramp")
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", lambda0=-0.1)
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", gamma=0.0)
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", ramp_total_iters=0)
    with pytest.raises(ValueError):
        LossConfig(variant="dasa", deferred_fraction=1.2)
    # strength_mode on a non-dasa variant is tolerated and ignored
    LossConfig(variant="am", difficulty="none", strength_mode="DY")
