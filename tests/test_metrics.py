"""Verification metrics against a brute-force threshold oracle, plus the
trial-building and scoring conventions."""

import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semaug import metrics
from semaug.metrics import (
    DcfParams,
    ScoreSet,
    TrialSet,
    build_trials,
    eer_and_min_dcf,
    format_metrics,
    read_trials,
    score_trials,
    write_scores,
    write_trials,
)
from semaug.rng import philox_rng


# -- oracle -------------------------------------------------------------------
# Explicit per-threshold counting, one candidate at a time.  Shares the
# accept-at-or-above convention and the crossing definition with the
# implementation but none of its vectorized machinery.


def oracle_rates(scores, is_target):
    scores = np.asarray(scores, dtype=float)
    tg = np.asarray(is_target, dtype=bool)
    t, n = scores[tg], scores[~tg]
    cands = sorted(set(scores.tolist()))
    cands = [cands[0] - 1.0] + cands + [cands[-1] + 1.0]
    rows = []
    for c in cands:
        frr = sum(1 for s in t if s < c) / t.size
        far = sum(1 for s in n if s >= c) / n.size
        rows.append((float(c), frr, far))
    return rows


def oracle_eer(scores, is_target):
    prev = None
    for c, frr, far in oracle_rates(scores, is_target):
        d = far - frr
        if d <= 0.0:
            if d == 0.0:
                return frr, c
            pc, pfrr, pfar = prev
            pd = pfar - pfrr
            alpha = pd / (pd - d)
            return pfrr + alpha * (frr - pfrr), pc + alpha * (c - pc)
        prev = (c, frr, far)
    raise AssertionError("FAR - FRR never crossed zero")


def oracle_min_dcf(scores, is_target, p=None):
    p = p or DcfParams()
    norm = min(p.c_miss * p.p_target, p.c_fa * (1.0 - p.p_target))
    return min(
        (p.c_miss * p.p_target * frr + p.c_fa * (1.0 - p.p_target) * far) / norm
        for _, frr, far in oracle_rates(scores, is_target)
    )


def random_scoreset(rng):
    nt = int(rng.integers(1, 50))
    nn = int(rng.integers(1, 50))
    scores = np.concatenate([
        rng.normal(0.3, 0.4, nt),
        rng.normal(-0.2, 0.4, nn),
    ])
    if rng.random() < 0.4:
        scores = np.round(scores, 1)  # force heavy ties
    labels = np.concatenate([np.ones(nt, bool), np.zeros(nn, bool)])
    return ScoreSet(scores=scores, is_target=labels)


def test_sweep_equals_brute_force_on_random_scoresets():
    rng = philox_rng(501)
    for _ in range(80):
        ss = random_scoreset(rng)
        eer, thr, mdcf = eer_and_min_dcf(ss)
        oe, ot = oracle_eer(ss.scores, ss.is_target)
        assert eer == oe and thr == ot
        assert mdcf == oracle_min_dcf(ss.scores, ss.is_target)
        # the sweep sorts for itself: nontargets first gives the same triple
        assert eer_and_min_dcf(ScoreSet(scores=ss.scores[::-1], is_target=ss.is_target[::-1])) == (eer, thr, mdcf)


def test_min_dcf_matches_oracle_for_asymmetric_costs():
    rng = philox_rng(502)
    p = DcfParams(p_target=0.05, c_miss=10.0, c_fa=1.0)
    for _ in range(30):
        ss = random_scoreset(rng)
        assert eer_and_min_dcf(ss, p)[2] == oracle_min_dcf(ss.scores, ss.is_target, p)


# -- hand cases ----------------------------------------------------------------


def test_perfectly_separated_scores():
    ss = ScoreSet(scores=np.array([0.9, 0.8, 0.1, 0.2]),
                  is_target=np.array([True, True, False, False]))
    eer, thr, mdcf = eer_and_min_dcf(ss)
    assert eer == 0.0
    assert 0.2 < thr <= 0.8
    assert mdcf == 0.0


def test_perfectly_reversed_scores():
    ss = ScoreSet(scores=np.array([0.1, 0.9]), is_target=np.array([True, False]))
    eer, thr, _ = eer_and_min_dcf(ss)
    assert eer == 1.0


def test_identical_score_distributions_sit_at_half():
    ss = ScoreSet(scores=np.array([0.1, 0.5, 0.1, 0.5]),
                  is_target=np.array([True, True, False, False]))
    eer, _, _ = eer_and_min_dcf(ss)
    assert eer == 0.5


def test_interpolated_crossing_hand_case():
    # targets (0.2, 0.6, 0.8), nontargets (0.4, 0.5): the crossing falls
    # between candidates 0.5 and 0.6 at one third
    ss = ScoreSet(scores=np.array([0.2, 0.6, 0.8, 0.4, 0.5]),
                  is_target=np.array([True, True, True, False, False]))
    eer, thr, _ = eer_and_min_dcf(ss)
    assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert thr == pytest.approx(0.5 + (1.0 / 3.0) * 0.1, abs=1e-12)


def test_random_scores_give_chance_level_eer():
    rng = philox_rng(503)
    scores = rng.standard_normal(4000)
    labels = np.arange(4000) % 2 == 0
    eer, _, _ = eer_and_min_dcf(ScoreSet(scores=scores, is_target=labels))
    assert 0.45 <= eer <= 0.55


def test_min_dcf_never_exceeds_one():
    rng = philox_rng(504)
    for _ in range(40):
        ss = random_scoreset(rng)
        assert 0.0 <= eer_and_min_dcf(ss)[2] <= 1.0


# -- invariances ------------------------------------------------------------------


def test_metrics_are_invariant_under_monotone_transforms():
    rng = philox_rng(505)
    for _ in range(25):
        ss = random_scoreset(rng)
        base_eer, _, base_dcf = eer_and_min_dcf(ss)
        for transform in (lambda s: 2.0 * s + 1.0, lambda s: s ** 3):
            tt = ScoreSet(scores=transform(ss.scores), is_target=ss.is_target)
            eer, _, mdcf = eer_and_min_dcf(tt)
            assert eer == base_eer
            assert mdcf == base_dcf


def test_eer_is_symmetric_under_score_negation_and_label_swap():
    rng = philox_rng(506)
    for _ in range(20):
        nt, nn = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        scores = rng.standard_normal(nt + nn)  # continuous: ties are absent
        labels = np.concatenate([np.ones(nt, bool), np.zeros(nn, bool)])
        a, _, _ = eer_and_min_dcf(ScoreSet(scores=scores, is_target=labels))
        b, _, _ = eer_and_min_dcf(ScoreSet(scores=-scores, is_target=~labels))
        assert b == pytest.approx(a, abs=1e-12)


@given(st.data())
def test_error_rates_stay_in_the_unit_interval(data):
    nt = data.draw(st.integers(min_value=1, max_value=12))
    nn = data.draw(st.integers(min_value=1, max_value=12))
    vals = st.floats(min_value=-5, max_value=5, allow_nan=False, width=32)
    scores = data.draw(st.lists(vals, min_size=nt + nn, max_size=nt + nn))
    labels = [True] * nt + [False] * nn
    ss = ScoreSet(scores=np.array(scores, dtype=float), is_target=np.array(labels))
    eer, _, mdcf = eer_and_min_dcf(ss)
    assert 0.0 <= eer <= 1.0
    assert 0.0 <= mdcf <= 1.0


# -- trial building -----------------------------------------------------------------


def test_build_trials_enumerates_all_target_pairs():
    labels = [0, 0, 0, 1, 1, 2]
    trials = build_trials(labels, float("inf"), seed=0)
    # 3 within-class pairs for the triple, 1 for the pair, 11 cross pairs
    assert int(trials.is_target.sum()) == 4
    assert int((~trials.is_target).sum()) == 11
    lab = np.asarray(labels)
    same = lab[trials.index_a] == lab[trials.index_b]
    np.testing.assert_array_equal(same, trials.is_target)
    assert np.all(trials.index_a != trials.index_b)


def test_build_trials_caps_nontargets():
    labels = [0, 0, 0, 1, 1, 2]
    trials = build_trials(labels, 2, seed=3)
    assert int(trials.is_target.sum()) == 4
    assert int((~trials.is_target).sum()) == 8  # 2 per target, not 11
    pairs = set(zip(trials.index_a.tolist(), trials.index_b.tolist()))
    assert len(pairs) == len(trials)  # sampled without replacement


def test_build_trials_is_deterministic_in_the_seed():
    labels = (np.arange(30) % 5).tolist()
    a = build_trials(labels, 1, seed=11)
    b = build_trials(labels, 1, seed=11)
    c = build_trials(labels, 1, seed=12)
    np.testing.assert_array_equal(a.index_a, b.index_a)
    np.testing.assert_array_equal(a.index_b, b.index_b)
    assert not np.array_equal(a.index_b, c.index_b)


def test_build_trials_error_cases():
    with pytest.raises(ValueError):
        build_trials([0], 1, seed=0)
    with pytest.raises(ValueError, match="nontarget"):
        build_trials([0, 0, 0], 1, seed=0)
    with pytest.raises(ValueError, match="target"):
        build_trials([0, 1, 2], 1, seed=0)
    with pytest.raises(ValueError):
        build_trials([0, 0, 1, 1], 0, seed=0)


def test_build_trials_rejects_a_cap_that_keeps_no_nontarget():
    # 2 target pairs: 0.4 per target would sample int(0.8) = 0 of the 4 nontargets
    with pytest.raises(ValueError, match=r"^max_nontarget_per_target=0.4 times 2 target pairs keeps no nontarget pair$"):
        build_trials([0, 0, 1, 1], 0.4, seed=0)
    assert int((~build_trials([0, 0, 1, 1], 0.5, seed=0).is_target).sum()) == 1


# -- scoring ------------------------------------------------------------------------


def cosine_score(e_a, e_b) -> float:
    """One-pair oracle for score_trials: cosine similarity, clipped to
    [-1, 1] against rounding."""
    a = np.asarray(e_a, dtype=float)
    b = np.asarray(e_b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def test_cosine_score_known_values():
    assert cosine_score([1.0, 0.0], [0.0, 2.0]) == 0.0
    assert cosine_score([3.0, 4.0], [6.0, 8.0]) == 1.0  # norms 5 and 10 are exact
    assert cosine_score([1.0, 0.0], [-3.0, 0.0]) == -1.0
    with pytest.raises(ValueError):
        cosine_score([0.0, 0.0], [1.0, 0.0])


def test_score_trials_matches_pairwise_cosine():
    rng = philox_rng(507)
    E = rng.standard_normal((10, 5))
    trials = build_trials((np.arange(10) % 3).tolist(), float("inf"), seed=1)
    ss = score_trials(E, trials)
    for k in range(len(trials)):
        want = cosine_score(E[trials.index_a[k]], E[trials.index_b[k]])
        assert ss.scores[k] == pytest.approx(want, abs=1e-12)
    np.testing.assert_array_equal(ss.is_target, trials.is_target)


def test_score_trials_is_the_same_across_chunks(monkeypatch):
    """A budget of 4 rows at F = 5 splits the 253 trials into 64 chunks,
    the last one ragged: every score equals the one-chunk score bit for bit
    and its one-pair cosine within 1e-12."""
    rng = philox_rng(509)
    E = rng.standard_normal((23, 5))
    trials = build_trials((np.arange(23) % 4).tolist(), float("inf"), seed=2)
    whole = score_trials(E, trials)
    monkeypatch.setattr(metrics, "CHUNK_ELEMENTS", 2 * 4 * 5 + 1)
    chunked = score_trials(E, trials)
    np.testing.assert_array_equal(chunked.scores, whole.scores)
    for k in range(len(trials)):
        want = cosine_score(E[trials.index_a[k]], E[trials.index_b[k]])
        assert chunked.scores[k] == pytest.approx(want, abs=1e-12)


def test_score_trials_rejects_zero_rows():
    E = np.zeros((4, 3))
    E[0, 0] = 1.0
    trials = TrialSet(index_a=np.array([0]), index_b=np.array([1]),
                      is_target=np.array([True]))
    with pytest.raises(ValueError):
        score_trials(E, trials)


# -- containers and files --------------------------------------------------------------


def test_a_negative_trial_index_is_rejected_not_wrapped():
    # take would read index -1 as the last row and score [0.] here
    with pytest.raises(ValueError, match=r"^trial index -1 is negative$"):
        score_trials(np.eye(3), TrialSet([-1], [0], [True]))
    with pytest.raises(ValueError, match=r"^trial index -4 is negative$"):
        TrialSet(index_a=[0, 2], index_b=[1, -4], is_target=[True, False])


def test_container_validation():
    with pytest.raises(ValueError, match="itself"):
        TrialSet(index_a=np.array([1]), index_b=np.array([1]), is_target=np.array([True]))
    with pytest.raises(ValueError, match="equal length"):
        TrialSet(index_a=np.array([0, 1]), index_b=np.array([1]), is_target=np.array([True]))
    with pytest.raises(ValueError, match="finite"):
        ScoreSet(scores=np.array([np.nan]), is_target=np.array([True]))
    with pytest.raises(ValueError):
        DcfParams(p_target=0.0)
    with pytest.raises(ValueError):
        DcfParams(c_miss=-1.0)


def test_eer_needs_both_trial_kinds():
    with pytest.raises(ValueError):
        eer_and_min_dcf(ScoreSet(scores=np.array([0.5]), is_target=np.array([True])))


def test_trials_round_trip(tmp_path):
    trials = build_trials([0, 0, 1, 1, 2, 2], 3, seed=5)
    path = tmp_path / "trials.csv"
    write_trials(path, trials)
    back = read_trials(path)
    np.testing.assert_array_equal(back.index_a, trials.index_a)
    np.testing.assert_array_equal(back.index_b, trials.index_b)
    np.testing.assert_array_equal(back.is_target, trials.is_target)


def test_trials_file_errors(tmp_path):
    path = tmp_path / "trials.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trials(path)
    path.write_text("a,b,target\n0,1,1\n")
    with pytest.raises(ValueError, match="line 1"):
        read_trials(path)
    path.write_text("index_a,index_b,is_target\n0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trials(path)
    path.write_text("index_a,index_b,is_target\n0,x,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trials(path)
    path.write_text("index_a,index_b,is_target\n")
    with pytest.raises(ValueError, match="no data"):
        read_trials(path)


def test_score_file_preserves_full_precision(tmp_path):
    rng = philox_rng(508)
    E = rng.standard_normal((6, 4))
    trials = build_trials([0, 0, 1, 1, 2, 2], float("inf"), seed=0)
    ss = score_trials(E, trials)
    path = tmp_path / "scores.csv"
    write_scores(path, trials, ss)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index_a", "index_b", "score", "is_target"]
    got = np.array([float(r[2]) for r in rows[1:]])
    np.testing.assert_array_equal(got, ss.scores)


def test_metric_formatting():
    assert format_metrics(0.25, 0.5) == "EER(%)=25.000 minDCF=0.500"
    assert format_metrics(0.0123456, 1.0) == "EER(%)=1.235 minDCF=1.000"
