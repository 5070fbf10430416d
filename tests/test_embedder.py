"""Embedding network: forward conventions, the normalization Jacobian,
and the all-dead fallback contract."""

import numpy as np
import pytest

from semaug.embedder import TinyEmbedder
from semaug.rng import philox_rng


def make_net(sizes, seed=0):
    return TinyEmbedder(sizes, philox_rng(400, seed))


def test_single_linear_layer_identity():
    net = TinyEmbedder([3, 3])  # zero weights
    net.weights[0] = np.eye(3)
    f, cache = net.forward(np.array([2.0, 0.0, 0.0]))
    np.testing.assert_array_equal(f, [[1.0, 0.0, 0.0]])
    assert cache.prenorm.tolist() == [2.0]
    assert cache.fallback.tolist() == [False]
    assert cache.hidden == []


def test_output_is_unit_norm():
    rng = philox_rng(401)
    net = make_net([6, 8, 4], seed=1)
    for _ in range(20):
        f, _ = net.forward(rng.standard_normal(6))
        assert abs(np.linalg.norm(f) - 1.0) < 1e-9


def test_forward_matches_straight_line_reimplementation():
    rng = philox_rng(402)
    net = make_net([5, 7, 6, 3], seed=2)
    net.biases[0][:] = 0.1 * rng.standard_normal(7)
    net.biases[1][:] = 0.1 * rng.standard_normal(6)
    for _ in range(10):
        x = rng.standard_normal(5)
        h1 = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        h2 = np.maximum(net.weights[1] @ h1 + net.biases[1], 0.0)
        v = net.weights[2] @ h2 + net.biases[2]
        f, cache = net.forward(x)
        np.testing.assert_allclose(f, [v / np.linalg.norm(v)], atol=1e-12)
        np.testing.assert_allclose(f * cache.prenorm[:, None], [v], atol=1e-12)


def test_normalization_kills_the_radial_gradient_component():
    # moving along v only rescales the output, so dL/df parallel to f must
    # not reach the parameters
    net = make_net([4, 5, 3], seed=3)
    x = philox_rng(403).standard_normal(4)
    f, cache = net.forward(x)
    for g in net.backward(cache, 3.7 * f):
        assert np.abs(g).max() < 1e-12


def test_gradient_is_linear_in_the_upstream_vector():
    net = make_net([4, 5, 3], seed=4)
    rng = philox_rng(404)
    x = rng.standard_normal(4)
    _, cache = net.forward(x)
    g1, g2 = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
    a = net.backward(cache, g1)
    b = net.backward(cache, g2)
    c = net.backward(cache, g1 + 2.0 * g2)
    for ga, gb, gc in zip(a, b, c, strict=True):
        np.testing.assert_allclose(gc, ga + 2.0 * gb, atol=1e-12)


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    net = make_net([4, 5, 3], seed=5)
    _, cache = net.forward(philox_rng(405).standard_normal(4))
    for g in net.backward(cache, np.zeros((1, 3))):
        assert np.all(g == 0.0)


def test_parameter_gradients_match_finite_differences():
    net = make_net([4, 6, 3], seed=6)
    rng = philox_rng(406)
    x = rng.standard_normal(4)
    u = rng.standard_normal(3)  # loss = u . f

    def loss():
        return float(u @ net.forward(x)[0][0])

    _, cache = net.forward(x)
    grads = net.backward(cache, u[None, :])
    # one gradient per parameter, in the order and shape of parameters()
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    eps = 1e-6
    for arr, g in zip(net.parameters(), grads, strict=True):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            vp = loss()
            arr[idx] = orig - eps
            vm = loss()
            arr[idx] = orig
            fd = (vp - vm) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            it.iternext()


def test_all_dead_fallback_is_counted_and_locally_flat():
    net = TinyEmbedder([2, 3, 4])  # zero weights: every unit is off
    assert net.fallback_count == 0
    f, cache = net.forward(np.array([1.0, -1.0]))
    np.testing.assert_array_equal(f, [[1.0, 0.0, 0.0, 0.0]])
    assert cache.fallback.tolist() == [True]
    assert net.fallback_count == 1
    for g in net.backward(cache, np.ones((1, 4))):
        assert np.all(g == 0.0)
    net.forward(np.array([0.5, 0.5]))
    assert net.fallback_count == 2

    # a batch mixing dead rows and a live one counts each dead row and takes
    # its gradient from the live row alone
    net = TinyEmbedder([2, 3, 4])
    net.weights[0][:] = 1.0  # every hidden unit is off for inputs with a negative sum
    net.weights[1][:] = philox_rng(409).standard_normal((4, 3))
    X = np.array([[-1.0, -2.0], [0.5, 1.0], [-3.0, 0.5]])
    F, cache = net.forward(X)
    assert net.fallback_count == 2
    assert cache.fallback.tolist() == [True, False, True]
    np.testing.assert_array_equal(F[[0, 2]], [[1.0, 0.0, 0.0, 0.0]] * 2)
    live_f, live_cache = net.forward(X[1])
    np.testing.assert_allclose(F[1:2], live_f, rtol=1e-12, atol=0)
    upstream = philox_rng(410).standard_normal((3, 4))
    for g, live in zip(net.backward(cache, upstream), net.backward(live_cache, upstream[1:2]), strict=True):
        np.testing.assert_allclose(g, live, rtol=1e-12, atol=1e-15)


def test_batch_forward_and_backward_match_rows():
    net = make_net([5, 7, 6, 3], seed=9)
    rng = philox_rng(408)
    net.biases[0][:] = 0.1 * rng.standard_normal(7)
    X = rng.standard_normal((9, 5))
    upstream = rng.standard_normal((9, 3))
    F, cache = net.forward(X)
    assert F.shape == (9, 3) and cache.prenorm.shape == (9,) and cache.fallback.shape == (9,)
    rows = [net.forward(x) for x in X]
    np.testing.assert_allclose(F, [f[0] for f, _ in rows], rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.prenorm, [c.prenorm[0] for _, c in rows], rtol=1e-12, atol=0)
    per_row = [net.backward(c, g[None, :]) for (_, c), g in zip(rows, upstream)]
    summed = [sum(rows) for rows in zip(*per_row)]
    for g, s in zip(net.backward(cache, upstream), summed, strict=True):
        assert np.max(np.abs(g - s)) <= 1e-12 * np.max(np.abs(s))
    with pytest.raises(ValueError, match="shape"):
        net.backward(cache, upstream[:4])


def test_input_validation():
    net = make_net([3, 4, 2], seed=7)
    with pytest.raises(ValueError):
        net.forward(np.zeros(5))
    with pytest.raises(ValueError):
        net.forward(np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        net.forward(np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]))
    _, cache = net.forward(np.zeros(3) + 0.1)
    with pytest.raises(ValueError):
        net.backward(cache, np.zeros(3))
    with pytest.raises(ValueError):
        net.backward(None, np.zeros(2))


def test_constructor_validation():
    with pytest.raises(ValueError):
        TinyEmbedder([4])
    with pytest.raises(ValueError):
        TinyEmbedder([4, 0, 3])


def test_parameters_lists_every_array_in_order():
    net = make_net([3, 5, 2], seed=8)
    params = net.parameters()
    assert len(params) == 4
    assert params[0] is net.weights[0] and params[1] is net.biases[0]
    assert params[2] is net.weights[1] and params[3] is net.biases[1]
