"""Streaming statistics against a two-pass oracle, quadratic forms against
a triple loop, and the sampler factor / snapshot format contracts."""

import math

import numpy as np
import pytest

from semaug.covariance import (
    DIAGONAL,
    FULL,
    ClassStats,
    CovarianceBank,
    DegenerateCovarianceError,
    forms_and_products,
    load_bank,
    quadratic_forms,
    sampler_factor,
    save_bank,
)
from semaug.rng import philox_rng


def two_pass_stats(points):
    """Oracle: population mean/covariance computed the textbook way."""
    X = np.asarray(points, dtype=float)
    mean = X.mean(axis=0)
    d = X - mean
    return mean, d.T @ d / X.shape[0]


def fill_bank(points, labels, num_classes, dim, mode=FULL):
    bank = CovarianceBank(num_classes, dim, mode)
    for x, y in zip(points, labels):
        bank.update(x, y)
    return bank


def rel_frobenius(a, b):
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


def test_streaming_matches_two_pass_over_random_streams():
    rng = philox_rng(101)
    for k in range(100):
        n = int(rng.integers(2, 60))
        dim = int(rng.integers(1, 12))
        pts = rng.standard_normal((n, dim)) * rng.uniform(0.1, 4.0)
        bank = fill_bank(pts, [0] * n, 1, dim)
        mean, cov = two_pass_stats(pts)
        st = bank.stats[0]
        assert st.count == n
        np.testing.assert_allclose(st.mean, mean, rtol=0, atol=1e-10)
        assert rel_frobenius(st.cov, cov) <= 1e-8
        # the same stream folded in as batches of random sizes
        chunked = CovarianceBank(1, dim)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        for part in np.split(pts, cuts):
            chunked.update(part, np.zeros(len(part), dtype=int))
        assert chunked.stats[0].count == n
        np.testing.assert_allclose(chunked.stats[0].mean, mean, rtol=0, atol=1e-10)
        assert rel_frobenius(chunked.stats[0].cov, cov) <= 1e-8


def test_permuted_replay_reproduces_the_same_statistics():
    rng = philox_rng(102)
    for k in range(30):
        n = int(rng.integers(3, 40))
        dim = int(rng.integers(2, 8))
        pts = rng.standard_normal((n, dim))
        ref_mean, ref_cov = two_pass_stats(pts)
        order = rng.permutation(n)
        bank = fill_bank(pts[order], [0] * n, 1, dim)
        np.testing.assert_allclose(bank.stats[0].mean, ref_mean, atol=1e-10)
        assert rel_frobenius(bank.stats[0].cov, ref_cov) <= 1e-8


def test_two_point_hand_case_is_exact():
    # points (1,0) and (0,1): mean (1/2,1/2), covariance [[1/4,-1/4],[-1/4,1/4]]
    bank = fill_bank([[1.0, 0.0], [0.0, 1.0]], [0, 0], 1, 2)
    st = bank.stats[0]
    assert st.count == 2
    assert st.mean.tolist() == [0.5, 0.5]
    assert st.cov.tolist() == [[0.25, -0.25], [-0.25, 0.25]]


def test_single_observation_has_zero_covariance():
    bank = fill_bank([[3.0, -1.0, 2.0]], [0], 1, 3)
    st = bank.stats[0]
    assert st.count == 1
    assert np.all(st.cov == 0.0)
    np.testing.assert_array_equal(st.mean, [3.0, -1.0, 2.0])


def test_diagonal_mode_tracks_the_full_diagonal():
    rng = philox_rng(103)
    pts = rng.standard_normal((25, 5)) * np.array([0.5, 1.0, 2.0, 0.1, 3.0])
    full = fill_bank(pts, [0] * 25, 1, 5, FULL)
    diag = fill_bank(pts, [0] * 25, 1, 5, DIAGONAL)
    assert diag.stats[0].cov.shape == (5,)
    np.testing.assert_allclose(diag.stats[0].cov, np.diag(full.stats[0].cov), atol=1e-12)


def test_classes_accumulate_independently():
    rng = philox_rng(104)
    pts = rng.standard_normal((40, 3))
    labels = (np.arange(40) % 4).tolist()
    bank = fill_bank(pts, labels, 4, 3)
    for c in range(4):
        own = pts[np.array(labels) == c]
        mean, cov = two_pass_stats(own)
        assert bank.stats[c].count == len(own)
        np.testing.assert_allclose(bank.stats[c].mean, mean, atol=1e-12)
        assert rel_frobenius(bank.stats[c].cov, cov) <= 1e-8


def test_update_rejects_bad_shapes_and_labels():
    bank = CovarianceBank(2, 3)
    with pytest.raises(ValueError):
        bank.update(np.zeros(4), 0)
    with pytest.raises(ValueError):
        bank.update(np.zeros(3), 2)
    with pytest.raises(ValueError):
        bank.update(np.zeros(3), -1)
    with pytest.raises(ValueError, match="labels"):
        bank.update(np.zeros((3, 3)), np.array([0, 1]))
    with pytest.raises(ValueError, match="label 2 out of range"):
        bank.update(np.zeros((3, 3)), np.array([0, 2, 1]))
    assert all(st.count == 0 for st in bank.stats)  # a rejected batch changes nothing


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_batch_update_matches_the_stream(mode):
    rng = philox_rng(105)
    pts = rng.standard_normal((60, 4)) * np.array([0.5, 1.0, 2.0, 0.3])
    labels = rng.integers(0, 5, size=60)
    labels[:10] = 0  # class 0 is seen before the batches, classes 1-4 first inside one
    stream = fill_bank(pts, labels, 6, 4, mode)
    batched = fill_bank(pts[:10], labels[:10], 6, 4, mode)
    for start in range(10, 60, 13):
        batched.update(pts[start:start + 13], labels[start:start + 13])
    for a, b in zip(batched.stats, stream.stats):
        assert a.count == b.count
        np.testing.assert_allclose(a.mean, b.mean, rtol=0, atol=1e-12)
        assert rel_frobenius(a.cov, b.cov) <= 1e-12 if b.count else np.all(a.cov == 0.0)
    assert batched.stats[5].count == 0  # a class never seen keeps its empty statistics

    # a batch of one is the single-embedding update itself
    one, single = fill_bank(pts[:7], labels[:7], 6, 4, mode), fill_bank(pts[:7], labels[:7], 6, 4, mode)
    for x, c in zip(pts[7:20], labels[7:20]):
        one.update(x[None, :], np.array([c]))
        single.update(x, int(c))
        for a, b in zip(one.stats, single.stats):
            assert a.count == b.count and np.all(a.mean == b.mean) and np.all(a.cov == b.cov)


class ListBank:
    """Oracle: the bank as a list of ClassStats, merging a batch one class
    at a time by the Chan-Golub-LeVeque step written out per class."""

    def __init__(self, num_classes, dim, mode):
        self.mode = mode
        self.stats = [ClassStats.empty(c, dim, mode) for c in range(num_classes)]

    def update(self, x, labels):
        order = np.argsort(labels, kind="stable")
        k = np.bincount(labels, minlength=len(self.stats))
        classes = np.flatnonzero(k)
        k = k[classes]
        starts = np.cumsum(k) - k
        x = x[order]
        m = np.add.reduceat(x, starts, axis=0) / k[:, None]
        stats = [self.stats[c] for c in classes.tolist()]
        delta = m - np.array([st.mean for st in stats])
        full = self.mode == FULL
        for st, d, mi, s, ki in zip(stats, delta, m, starts.tolist(), k.tolist()):
            ni = st.count
            n1 = ni + ki
            w = ni * ki / n1
            spread = w * (d[:, None] * d) if full else w * d * d
            if ki > 1:
                r = x[s:s + ki] - mi
                spread += r.T @ r if full else (r * r).sum(axis=0)
            st.mean = st.mean + d * ki / n1
            st.cov = (ni * st.cov + spread) / n1
            st.count = n1


@pytest.mark.parametrize("C,F,B,mode", [
    (20, 16, 32, FULL),        # the toy shape: a few rows for each class present
    (20, 16, 32, DIAGONAL),
    (20, 16, 960, FULL),       # an epoch-end merge of every toy row at once
    (256, 64, 128, FULL),      # the paper-like shape: most classes take one or two rows
    (40, 48, 1500, DIAGONAL),  # a long segmented sum over many classes
    (6, 40, 300, FULL),        # few classes of many rows each
])
def test_array_bank_matches_the_per_class_merge(C, F, B, mode):
    rng = philox_rng(113)
    bank, oracle = CovarianceBank(C, F, mode), ListBank(C, F, mode)
    for _ in range(6):
        x = rng.standard_normal((B, F)) * rng.uniform(0.5, 2.0, F)
        labels = rng.integers(0, C, B)
        bank.update(x, labels)
        oracle.update(x, labels)
    for got, want in zip(bank.stats, oracle.stats):
        assert got.count == want.count
        if mode == FULL:  # the same arithmetic class by class: bit for bit
            assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)
        else:  # one segmented sum rounds apart from per-class sums
            np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-12 * max(1.0, np.abs(want.mean).max()))
            assert rel_frobenius(got.cov, want.cov) <= 1e-12 if want.count else np.all(got.cov == 0.0)


def test_stats_view_reads_write_through_and_assignments_copy():
    bank = CovarianceBank(4, 3, FULL)
    assert len(bank.stats) == 4 and [st.class_id for st in bank.stats] == [0, 1, 2, 3]
    st = bank.stats[1]
    st.mean[0] = 5.0
    st.cov[0, 1] = 2.0
    assert bank.mean[1, 0] == 5.0 and bank.cov[1, 0, 1] == 2.0 and bank.stats[1].mean[0] == 5.0
    given = ClassStats(class_id=0, count=7, mean=np.arange(3.0), cov=np.eye(3))
    bank.stats[2] = given
    given.mean[0] = given.cov[0, 0] = 99.0  # the bank holds a copy
    got = bank.stats[2]
    assert got.class_id == 2 and got.count == 7 and bank.count[2] == 7
    np.testing.assert_array_equal(got.mean, np.arange(3.0))
    np.testing.assert_array_equal(got.cov, np.eye(3))
    assert bank.stats[-1].class_id == 3
    with pytest.raises(IndexError):
        bank.stats[4]
    with pytest.raises(ValueError, match="cov"):
        bank.stats[0] = ClassStats(0, 1, np.zeros(3), np.zeros(3))  # a diagonal cov in a full bank
    diag = CovarianceBank(2, 3, DIAGONAL)
    diag.stats[1] = ClassStats(5, np.int64(4), np.ones(3), np.full(3, 0.5))  # a numpy integer is a count
    assert diag.count.tolist() == [0, 4] and diag.cov[1].tolist() == [0.5] * 3


@pytest.mark.parametrize("mode,stats,match", [
    (FULL, ClassStats(0, -3, np.zeros(2), np.zeros((2, 2))), r"^negative count -3$"),
    (FULL, ClassStats(1, 2.7, np.array([np.nan, 0.0]), np.eye(2)), r"^count 2\.7 is not an integer$"),
    (FULL, ClassStats(1, True, np.zeros(2), np.eye(2)), r"^count True is not an integer$"),
    (FULL, ClassStats(1, 2, np.array([np.nan, 0.0]), np.eye(2)), r"^non-finite mean or covariance cell$"),
    (FULL, ClassStats(1, 2**63, np.zeros(2), np.eye(2)), r"^count 9223372036854775808 too large$"),
    (FULL, ClassStats(1, 2, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])), r"^covariance asymmetric by"),
    (FULL, ClassStats(1, 2, np.zeros(2), -np.eye(2)), r"^negative variance -1\.0$"),
    (DIAGONAL, ClassStats(1, 2, np.zeros(2), np.array([0.5, -0.25])), r"^negative variance -0\.25$"),
])
def test_stats_assignment_keeps_the_rule_the_snapshot_reader_checks(tmp_path, mode, stats, match):
    bank = CovarianceBank(2, 2, mode)
    bank.stats[1] = ClassStats(1, 3, np.ones(2), np.ones(2) if mode == DIAGONAL else np.eye(2))
    before = [a.copy() for a in (bank.count, bank.mean, bank.cov)]
    with pytest.raises(ValueError, match=match):
        bank.stats[1] = stats
    assert all(np.array_equal(a, b) for a, b in zip((bank.count, bank.mean, bank.cov), before))
    # so every bank that can be built writes a snapshot that reads back
    save_bank(bank, tmp_path / "bank.csv")
    back = load_bank(tmp_path / "bank.csv")
    assert np.array_equal(back.count, bank.count) and np.array_equal(back.cov, bank.cov)


def test_bank_constructor_validation():
    with pytest.raises(ValueError):
        CovarianceBank(0, 3)
    with pytest.raises(ValueError):
        CovarianceBank(2, 0)
    with pytest.raises(ValueError):
        CovarianceBank(2, 3, mode="sparse")


# -- quadratic forms ------------------------------------------------------


def quadratic_forms_loop(stats, W, label):
    """Oracle: explicit loops, no vectorization shared with the implementation."""
    C = W.shape[0]
    cov = stats.cov if stats.cov.ndim == 2 else np.diag(stats.cov)
    out = np.zeros(C)
    for j in range(C):
        d = W[j] - W[label]
        acc = 0.0
        for a in range(len(d)):
            for b in range(len(d)):
                acc += d[a] * cov[a, b] * d[b]
        out[j] = acc
    out[label] = 0.0
    return out


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_quadratic_forms_match_triple_loop(mode):
    rng = philox_rng(105)
    for k in range(20):
        C = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 6))
        pts = rng.standard_normal((dim + 6, dim))
        bank = fill_bank(pts, [0] * (dim + 6), 1, dim, mode)
        W = rng.standard_normal((C, dim))
        label = int(rng.integers(0, C))
        got = quadratic_forms(bank.stats[0], W, label)
        want = quadratic_forms_loop(bank.stats[0], W, label)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert got[label] == 0.0
        assert np.all(got >= -1e-12)  # population covariance is PSD


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_quadratic_forms_match_row_products_at_paper_shape(mode):
    """quadratic_forms against d @ Cov @ d one row at a time, at a
    shape where BLAS blocking and the row-wise dot both come into play."""
    rng = philox_rng(110)
    C, dim = 300, 96
    pts = rng.standard_normal((2 * dim, dim)) @ rng.standard_normal((dim, dim)) / math.sqrt(dim)
    stats = fill_bank(pts, [0] * len(pts), 1, dim, mode).stats[0]
    cov = stats.cov if mode == FULL else np.diag(stats.cov)
    W = rng.standard_normal((C, dim))
    for label in (0, 137, C - 1):
        got = quadratic_forms(stats, W, label)
        want = np.array([d @ cov @ d for d in W - W[label]])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[label] == 0.0


def test_quadratic_forms_input_validation():
    st = ClassStats.empty(0, 3)
    with pytest.raises(ValueError):
        quadratic_forms(st, np.zeros((2, 4)), 0)
    with pytest.raises(ValueError):
        quadratic_forms(st, np.zeros((2, 3)), 5)


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_stacked_forms_equal_quadratic_forms_label_by_label(mode):
    """The kernel over a stack of labels, some repeated, gives each label
    the same bits as its one-label case, and phi is exactly 0 at each
    label."""
    rng = philox_rng(111)
    for C, dim in ((2, 1), (7, 5), (40, 24), (130, 33)):
        num_classes = min(C, 6)
        pts = rng.standard_normal((12 * dim, dim))
        bank = fill_bank(pts, rng.integers(0, num_classes, 12 * dim), num_classes, dim, mode)
        W = rng.standard_normal((C, dim))
        labels = rng.integers(0, num_classes, 5)
        phi, U = forms_and_products(bank.cov.take(labels, axis=0), W, labels)
        assert phi.shape == (5, C) and U.shape == (5, C, dim)
        for l, y in enumerate(labels.tolist()):
            assert np.array_equal(phi[l], quadratic_forms(bank.stats[y], W, y))
            assert np.array_equal(U[l], forms_and_products(bank.cov[y][None], W, np.array([y]))[1][0])
            assert phi[l, y] == 0.0


# -- sampler factor --------------------------------------------------------


def test_sampler_factor_reconstructs_scaled_covariance():
    rng = philox_rng(108)
    for mode in (FULL, DIAGONAL):
        pts = rng.standard_normal((30, 5))
        st = fill_bank(pts, [0] * 30, 1, 5, mode).stats[0]
        for lam in (0.0, 0.3, 2.0):
            L = sampler_factor(st, lam)
            cov = st.cov if mode == FULL else np.diag(st.cov)
            # reconstruction differs from lam*cov only by the tiny jitter
            np.testing.assert_allclose(L @ L.T, lam * cov, atol=1e-7)


def test_sampler_factor_zero_lambda_is_tiny():
    st = ClassStats(0, 5, np.zeros(3), np.eye(3))
    L = sampler_factor(st, 0.0)
    assert np.linalg.norm(L @ L.T) < 1e-8


def test_sampler_factor_rejects_negative_lambda_and_asymmetry():
    st = ClassStats(0, 5, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        sampler_factor(st, -0.1)
    crooked = ClassStats(0, 5, np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        sampler_factor(crooked, 1.0)


def test_sampler_factor_raises_on_indefinite_matrix():
    # symmetric but with a negative eigenvalue: jitter cannot rescue it
    bad = ClassStats(3, 5, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(DegenerateCovarianceError, match="class 3"):
        sampler_factor(bad, 1.0)


def test_sampler_factor_handles_rank_deficiency_via_jitter():
    # rank-1 covariance: plain Cholesky would fail, jitter keeps it PD
    v = np.array([1.0, 2.0, -1.0])
    st = ClassStats(0, 9, np.zeros(3), np.outer(v, v))
    L = sampler_factor(st, 0.7)
    np.testing.assert_allclose(L @ L.T, 0.7 * np.outer(v, v), atol=1e-6)


# -- snapshot round-trip ----------------------------------------------------


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_bank_snapshot_round_trip_is_bit_exact(tmp_path, mode):
    rng = philox_rng(109)
    pts = rng.standard_normal((50, 4)) * math.pi
    labels = (np.arange(50) % 3).tolist()
    bank = fill_bank(pts, labels, 3, 4, mode)
    path = tmp_path / "bank.csv"
    save_bank(bank, path)
    back = load_bank(path)
    assert back.num_classes == 3 and back.dim == 4 and back.mode == mode
    for a, b in zip(bank.stats, back.stats):
        assert a.count == b.count
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)


def save_bank_per_cell(bank, path):
    """Reference writer: one format() call per cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"num_classes={bank.num_classes},dim={bank.dim},mode={bank.mode}\n")
        for st in bank.stats:
            cells = [str(st.class_id), str(st.count)]
            cells += [format(v, ".17g") for v in st.mean]
            cells += [format(v, ".17g") for v in np.ravel(st.cov)]
            fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_save_bank_is_byte_identical_to_the_per_cell_writer(tmp_path, mode):
    rng = philox_rng(111)
    pts = rng.standard_normal((40, 5)) * 1e3
    bank = fill_bank(pts, (np.arange(40) % 4).tolist(), 5, 5, mode)  # class 4 stays empty
    st = bank.stats[1]
    st.mean[:4] = [-0.0, 1e-300, 3.0, -2.5e16]
    st.cov[0] = 0.0 if mode == DIAGONAL else [7.0, -0.0, 1e-300, 5e-324, 1.0]
    a, b = tmp_path / "fast.csv", tmp_path / "reference.csv"
    save_bank(bank, a)
    save_bank_per_cell(bank, b)
    assert a.read_bytes() == b.read_bytes()
    assert ",-0," in a.read_text() and ",1e-300," in a.read_text()


@pytest.mark.parametrize("mode", [FULL, DIAGONAL])
def test_save_bank_matches_the_per_cell_writer_at_f64(tmp_path, mode):
    """At the benchmark's F = 64, a symmetric bank written through the
    distinct-cell path, with signed zeros, subnormals and repeats mixed in."""
    rng = philox_rng(112)
    bank = CovarianceBank(4, 64, mode)
    bank.update(rng.standard_normal((60, 64)) * 10.0 ** rng.integers(-6, 6, (60, 1)),
                np.arange(60) % 3)  # class 3 stays empty
    st = bank.stats[2]
    st.mean[:8] = [-0.0, 0.0, 5e-324, 1e16, 1e17, 1e-5, 1e-4, 2.0]
    if mode == FULL:
        st.cov[0, 1:5] = st.cov[1:5, 0] = [-0.0, 5e-324, 1e17, 1e-4]
        st.cov[5, 6] = -st.cov[6, 5]  # one asymmetric pair
    else:
        st.cov[:4] = [0.0, -0.0, 5e-324, 2.0]
    a, b = tmp_path / "fast.csv", tmp_path / "reference.csv"
    save_bank(bank, a)
    save_bank_per_cell(bank, b)
    assert a.read_bytes() == b.read_bytes()


def test_bank_snapshot_header_and_shape_errors(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_bank(path)
    path.write_text("classes=2,dim=2,mode=full\n")
    with pytest.raises(ValueError, match="header"):
        load_bank(path)
    path.write_text("num_classes=2,dim=2,mode=full\n0,0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        load_bank(path)
    path.write_text("num_classes=1,dim=2,mode=full\n0,1,0,0,0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_bank(path)
