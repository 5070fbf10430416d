"""One rule for every numeric entry point: a 1-D input is a batch of one,
and every result has batch shape.  An (F,) input must give results equal
(==) to those of the same (1, F) batch."""

from dataclasses import fields

import numpy as np
import pytest

from semaug.covariance import DIAGONAL, FULL, ClassStats, CovarianceBank
from semaug.embedder import ForwardCache, TinyEmbedder
from semaug.losses import (
    ClassifierHead,
    LossConfig,
    am_softmax,
    daam_softmax,
    dasa_bound,
    isda_bound,
    margin_bound,
    softmax_ce,
    variant_loss,
)
from semaug.montecarlo import sample_augmented
from semaug.rng import philox_rng

C, F, LABEL = 5, 4, 2


def _setup(mode):
    rng = philox_rng(450)
    W = rng.standard_normal((C, F))
    affine = ClassifierHead(weights=W, biases=rng.standard_normal(C))
    cosine = ClassifierHead(weights=W, scale=6.0, margin=0.25)
    bank = CovarianceBank(C, F, mode)
    pts = rng.standard_normal((9, F))
    bank.update(pts, np.full(9, LABEL))
    f = rng.standard_normal(F)
    return affine, cosine, bank, f / np.linalg.norm(f)


def _dasa(strength):
    return LossConfig(variant="dasa", difficulty="DA", strength_mode=strength, lambda0=0.3,
                      ramp_total_iters=10, deferred_fraction=0.2)


# name -> loss(embedding, label, affine head, cosine head, bank, value_only)
LOSSES = {
    "softmax_ce": lambda f, y, aff, cos, bank, vo: softmax_ce(f, aff, y, value_only=vo),
    "isda_bound": lambda f, y, aff, cos, bank, vo: isda_bound(f, aff, bank, 0.3, y, value_only=vo),
    "am_softmax": lambda f, y, aff, cos, bank, vo: am_softmax(f, cos, y, value_only=vo),
    "daam_softmax": lambda f, y, aff, cos, bank, vo: daam_softmax(f, cos, y, "DY", 2.0, value_only=vo),
    "dasa_bound": lambda f, y, aff, cos, bank, vo: dasa_bound(f, cos, bank, y, _dasa("DY"), 7, value_only=vo),
    "margin_bound": lambda f, y, aff, cos, bank, vo: margin_bound(f, cos, bank.stats[LABEL], y, 0.3, 0.6,
                                                                  value_only=vo),
    "variant_loss": lambda f, y, aff, cos, bank, vo: variant_loss(f, cos, bank, y, _dasa("constant"), 7,
                                                                  value_only=vo),
}


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
@pytest.mark.parametrize("value_only", [False, True])
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_a_loss_takes_one_embedding_as_a_batch_of_one(name, value_only, mode):
    affine, cosine, bank, f = _setup(mode)
    loss = LOSSES[name]
    one = loss(f, LABEL, affine, cosine, bank, value_only)
    batch = loss(f[None, :], np.array([LABEL]), affine, cosine, bank, value_only)
    assert one.value.shape == (1,)
    np.testing.assert_array_equal(one.value, batch.value, strict=True)
    if value_only:
        assert one.grad_embedding is None and one.grad_weights is None and one.per_sample_terms == {}
        return
    assert one.grad_embedding.shape == (1, F)
    np.testing.assert_array_equal(one.grad_embedding, batch.grad_embedding, strict=True)
    np.testing.assert_array_equal(one.grad_weights, batch.grad_weights, strict=True)
    assert (one.grad_biases is None) == (batch.grad_biases is None)
    if one.grad_biases is not None:
        np.testing.assert_array_equal(one.grad_biases, batch.grad_biases, strict=True)
    assert set(one.per_sample_terms) == set(batch.per_sample_terms) == {"cos_y", "coef", "lambda"}
    for key, value in one.per_sample_terms.items():
        assert value.shape == (1,), key
        np.testing.assert_array_equal(value, batch.per_sample_terms[key], strict=True)


@pytest.mark.parametrize("label", [2.0, "1", True, np.bool_(True), None])
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_a_loss_rejects_a_label_that_is_not_an_integer(name, label):
    # the rule of CovarianceBank.update: a bad label is a ValueError, and a bool is no label
    affine, cosine, bank, f = _setup(FULL)
    with pytest.raises(ValueError, match="is not an integer"):
        LOSSES[name](f, label, affine, cosine, bank, False)


# The bank and every loss check a batch by one rule: each bad batch gives
# one message, whichever of them reads it.
CALLERS = {"CovarianceBank.update": lambda f, y, aff, cos, bank, vo: bank.update(f, y), **LOSSES}

_TWO = np.array([[1.0, 2.0, 0.5, -1.0], [0.3, -0.2, 1.0, 0.4]])
BAD_BATCHES = {
    "bool label": (_TWO[0], True, "label True is not an integer"),
    "float label": (_TWO[0], 2.0, "label 2.0 is not an integer"),
    "0-d array label": (_TWO[0], np.array(LABEL), f"label array({LABEL}) is not an integer"),
    "wide row": (np.ones(F + 1), LABEL, f"embedding has shape ({F + 1},), expected ({F},) or (B, {F})"),
    "wide batch": (np.ones((2, F + 1)), np.array([0, 1]),
                   f"embedding has shape (2, {F + 1}), expected ({F},) or (B, {F})"),
    "label count": (_TWO, np.array([0, 1, 2]),
                    "labels have shape (3,) and dtype int64, expected integers of shape (2,)"),
    "label dtype": (_TWO, np.array([0.0, 1.0]),
                    "labels have shape (2,) and dtype float64, expected integers of shape (2,)"),
    "empty batch": (np.zeros((0, F)), np.zeros(0, dtype=np.int64), "empty batch"),
    "nan row": (np.vstack([_TWO[0], np.full(F, np.nan)]), np.array([0, 1]), "non-finite embedding"),
    "inf row": (np.vstack([_TWO[0], [np.inf, 0.0, 0.0, 0.0]]), np.array([0, 1]), "non-finite embedding"),
    "label above range": (_TWO[0], C, f"label {C} out of range [0, {C})"),
    "negative label": (_TWO, np.array([1, -1]), f"label -1 out of range [0, {C})"),
}


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_a_bad_batch_gets_one_message_from_every_caller(caller, case):
    affine, cosine, bank, _ = _setup(FULL)
    before = [a.copy() for a in (bank.count, bank.mean, bank.cov)]
    embedding, label, message = BAD_BATCHES[case]
    with pytest.raises(ValueError) as info:
        CALLERS[caller](embedding, label, affine, cosine, bank, False)
    assert str(info.value) == message
    for old, new in zip(before, (bank.count, bank.mean, bank.cov)):
        np.testing.assert_array_equal(new, old, strict=True)  # a rejected batch changes nothing


@pytest.mark.parametrize("name,part", [(name, "weights") for name in sorted(LOSSES)]
                         + [("isda_bound", "biases"), ("softmax_ce", "biases")])  # the cosine map reads no biases
def test_a_loss_rejects_a_non_finite_head(name, part):
    affine, cosine, bank, f = _setup(FULL)
    if part == "weights":
        affine.weights[1, 2] = cosine.weights[1, 2] = np.nan
    else:
        affine.biases[1] = np.nan
    with pytest.raises(ValueError, match="^non-finite values in loss inputs$"):
        LOSSES[name](f, LABEL, affine, cosine, bank, False)


@pytest.mark.parametrize("label", [LABEL, np.int64(LABEL), np.uint8(LABEL)])
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_a_loss_takes_a_python_or_numpy_integer_label(name, label):
    affine, cosine, bank, f = _setup(FULL)
    np.testing.assert_array_equal(LOSSES[name](f, label, affine, cosine, bank, True).value,
                                  LOSSES[name](f, LABEL, affine, cosine, bank, True).value, strict=True)


def test_the_embedder_takes_one_row_as_a_batch_of_one():
    rng = philox_rng(451)
    net = TinyEmbedder([3, 6, F], rng)
    x = rng.standard_normal(3)
    f_one, one = net.forward(x)
    f_batch, batch = net.forward(x[None, :])
    assert f_one.shape == (1, F)
    np.testing.assert_array_equal(f_one, f_batch, strict=True)
    for field in fields(ForwardCache):
        a, b = getattr(one, field.name), getattr(batch, field.name)
        for u, v in zip(a, b) if isinstance(a, list) else [(a, b)]:
            assert u.shape[0] == 1, field.name
            np.testing.assert_array_equal(u, v, strict=True)
    upstream = rng.standard_normal((1, F))
    for (aW, ab), (bW, bb) in zip(net.backward(one, upstream), net.backward(batch, upstream)):
        np.testing.assert_array_equal(aW, bW, strict=True)
        np.testing.assert_array_equal(ab, bb, strict=True)


@pytest.mark.parametrize("lam", [0.0, 0.4])
@pytest.mark.parametrize("count", [1, 3])
def test_the_sampler_takes_one_embedding_as_a_batch_of_one(count, lam):
    _, _, bank, f = _setup(FULL)
    one = sample_augmented(f, bank.stats[LABEL], lam, philox_rng(452), count)
    batch = sample_augmented(f[None, :], bank.stats[LABEL], lam, philox_rng(452), count)
    assert one.shape == (count, F)
    np.testing.assert_array_equal(one, batch, strict=True)
