"""Acceptance gate for the whole package.

Each test checks one shipping criterion end to end and prints a single
PASS/FAIL line with the measured numbers, so a test run doubles as a
report.  Budgets are wall-clock upper bounds on the reference path.
"""

import math
import statistics
import time

import numpy as np

from semaug.cli import entry
from semaug.config import build, resolve, to_train_settings
from semaug.covariance import CovarianceBank
from semaug.data import SynthSpec, generate
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
    softmax_ce,
)
from semaug.metrics import DcfParams, ScoreSet, eer_and_min_dcf
from semaug.montecarlo import moment_identity_check
from semaug.rng import philox_rng
from semaug.suites import composed_gradcheck, gradcheck_suite, jensen_suite
from semaug.trainer import SgdNesterov, train


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: the specialised losses collapse onto their parents ---------------------


def _filled_bank(rng, num_classes, dim):
    bank = CovarianceBank(num_classes, dim)
    for c in range(num_classes):
        for _ in range(3):
            bank.update(rng.standard_normal(dim), c)
    return bank


def test_reduction_identities(capsys):
    start = time.perf_counter()
    rng = philox_rng(2026, 11)
    worst = 0.0
    for k in range(1000):
        C = int(rng.integers(2, 9))
        F = int(rng.integers(2, 11))
        W = rng.standard_normal((C, F))
        b = rng.standard_normal(C)
        f = rng.standard_normal(F)
        f /= np.linalg.norm(f)
        label = int(rng.integers(C))
        scale = float(rng.uniform(4.0, 32.0))
        margin = float(rng.uniform(0.05, 0.4))
        head = ClassifierHead(W, None, scale=scale, margin=margin)
        bank = _filled_bank(rng, C, F)

        diff = "DA" if k % 2 == 0 else "DY"
        cfg = LossConfig(variant="dasa", difficulty=diff, strength_mode="constant",
                         lambda0=0.0, gamma=2.0, ramp_total_iters=8,
                         deferred_fraction=0.0)
        d1 = abs(dasa_bound(f, head, bank, label, cfg, t=8).value
                 - daam_softmax(f, head, label, difficulty=diff).value)

        d2 = abs(daam_softmax(f, head, label, difficulty="none").value
                 - am_softmax(f, head, label).value)

        head_b = ClassifierHead(W, b, scale=scale, margin=margin)
        f_raw = rng.standard_normal(F) * 1.5
        d3 = abs(isda_bound(f_raw, head_b, bank, 0.0, label).value
                 - softmax_ce(f_raw, head_b, label).value)

        plain = ClassifierHead(W, None, scale=1.0, margin=0.0)
        Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
        cosine = ClassifierHead(Wn, None, scale=1.0, margin=0.0)
        d4 = abs(am_softmax(f, plain, label).value
                 - softmax_ce(f, cosine, label).value)

        worst = max(worst, d1, d2, d3, d4)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"4 reduction identities x 1000 trials, max |delta| = {worst:.3e} "
            f"(tol 1e-12), {elapsed:.1f}s (budget 10s)")


# -- 2: the closed forms really upper-bound the sampled expectations -----------


def test_bounds_hold_under_sampling(capsys):
    start = time.perf_counter()
    results = jensen_suite(trials=50, count=100000, seed=0)
    families = sorted({r.family for r in results})
    frac_ok, mean_slack = {}, {}
    for fam in families:
        rs = [r for r in results if r.family == fam]
        frac_ok[fam] = sum(1 for r in rs if r.report.z_score >= -3.0) / len(rs)
        mean_slack[fam] = sum(r.report.slack for r in rs) / len(rs)
    elapsed = time.perf_counter() - start
    ok = (len(families) == 3
          and all(v >= 0.98 for v in frac_ok.values())
          and all(v >= 0.0 for v in mean_slack.values())
          and elapsed < 180.0)
    _report(capsys, 2, ok,
            f"50 trials/family at M=1e5: min within-3SE fraction = "
            f"{min(frac_ok.values()):.3f} (need 0.98), min mean slack = "
            f"{min(mean_slack.values()):.4f} (need >= 0), {elapsed:.1f}s (budget 180s)")


# -- 3: scalar log-normal mean identity at high sample count -------------------


def test_moment_identity_at_a_million_samples(capsys):
    start = time.perf_counter()
    settings = [
        (0.0, 1.0, 0.5), (1.0, 0.5, 1.0), (-0.5, 2.0, 0.7), (0.3, 0.09, 3.0),
        (2.0, 1.0, -1.2), (0.0, 0.0, 1.7), (0.8, 1.3, 0.0), (-1.5, 0.25, 2.0),
        (0.6, 4.0, 0.4), (3.0, 0.5, 1.5),
    ]
    reports = [moment_identity_check(mu, s2, t, 10**6, seed=(31, i))
               for i, (mu, s2, t) in enumerate(settings)]
    n_pass = sum(r.passed for r in reports)
    worst = max(r.rel_error / r.rel_std_error if r.rel_std_error > 0 else 0.0
                for r in reports)
    elapsed = time.perf_counter() - start
    ok = n_pass == len(settings) and elapsed < 30.0
    _report(capsys, 3, ok,
            f"{n_pass}/{len(settings)} settings within 5 SE at M=1e6, "
            f"worst |error|/SE = {worst:.2f}, {elapsed:.1f}s (budget 30s)")


# -- 4: analytic gradients vs central differences ------------------------------


def test_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    results = gradcheck_suite(trials_per_variant=100, epsilon=3e-5, seed=0)
    results += composed_gradcheck(trials=10, epsilon=3e-5, seed=0)
    worst = max(r.max_rel_error for r in results)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and len(results) == 5 * 100 + 10 and elapsed < 60.0
    _report(capsys, 4, ok,
            f"{len(results)} checks (100/loss variant + 10 composed), "
            f"max rel error = {worst:.3e} (tol 1e-5), {elapsed:.1f}s (budget 60s)")


# -- 5: streaming covariance vs the two-pass textbook computation --------------


def test_streaming_covariance_matches_two_pass(capsys):
    start = time.perf_counter()
    rng = philox_rng(2026, 55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        dim = int(rng.integers(1, 12))
        pts = rng.standard_normal((n, dim)) * float(rng.uniform(0.1, 4.0))
        mean = pts.mean(axis=0)
        d = pts - mean
        cov = d.T @ d / n
        for order in (np.arange(n), rng.permutation(n)):
            bank = CovarianceBank(1, dim)
            for i in order:
                bank.update(pts[i], 0)
            err = np.linalg.norm(bank.stats[0].cov - cov)
            worst = max(worst, err / max(np.linalg.norm(cov), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 5, ok,
            f"100 streams + permuted replays, max rel Frobenius error = "
            f"{worst:.3e} (tol 1e-8), {elapsed:.1f}s (budget 10s)")


# -- 6: difficulty coefficients, pinned values and monotonicity ----------------


def test_difficulty_values_and_monotonicity(capsys):
    exact = (difficulty_da(1.0) == 0.0 and difficulty_da(-1.0) == 1.0
             and difficulty_da(0.0) == 0.5 and difficulty_dy(1.0, 2.0) == 0.5)
    dy_mid = abs(difficulty_dy(0.0, 2.0) - math.e / 2.0)
    grid = np.linspace(-1.0, 1.0, 1000)
    da = np.array([difficulty_da(c) for c in grid])
    dy = np.array([difficulty_dy(c, 2.0) for c in grid])
    monotone = bool(np.all(np.diff(da) < 0.0) and np.all(np.diff(dy) < 0.0))
    ok = exact and dy_mid <= 1e-12 and monotone
    _report(capsys, 6, ok,
            f"pinned values exact = {exact}, |DY(0,2) - e/2| = {dy_mid:.1e} "
            f"(tol 1e-12), strictly decreasing in cos on 1000-point grid = {monotone}")


# -- 7: fast sweep vs exhaustive threshold enumeration -------------------------


def _threshold_rows(scores, is_target):
    t, n = scores[is_target], scores[~is_target]
    cands = sorted(set(scores.tolist()))
    cands = [cands[0] - 1.0] + cands + [cands[-1] + 1.0]
    rows = []
    for c in cands:
        frr = sum(1 for s in t if s < c) / t.size
        far = sum(1 for s in n if s >= c) / n.size
        rows.append((float(c), frr, far))
    return rows


def _exhaustive_eer(scores, is_target):
    prev = None
    for c, frr, far in _threshold_rows(scores, is_target):
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


def _exhaustive_min_dcf(scores, is_target, p):
    norm = min(p.c_miss * p.p_target, p.c_fa * (1.0 - p.p_target))
    return min(
        (p.c_miss * p.p_target * frr + p.c_fa * (1.0 - p.p_target) * far) / norm
        for _, frr, far in _threshold_rows(scores, is_target)
    )


def test_metric_sweep_equals_exhaustive_enumeration(capsys):
    start = time.perf_counter()
    rng = philox_rng(2026, 77)
    params = DcfParams()
    n_sets, all_equal, all_invariant = 200, True, True
    for _ in range(n_sets):
        nt = int(rng.integers(1, 51))
        nn = int(rng.integers(1, 51))
        scores = np.concatenate([rng.normal(0.3, 0.4, nt),
                                 rng.normal(-0.2, 0.4, nn)])
        if rng.random() < 0.4:
            scores = np.round(scores, 1)
        labels = np.concatenate([np.ones(nt, bool), np.zeros(nn, bool)])
        ss = ScoreSet(scores=scores, is_target=labels)

        eer, thr, mdcf = eer_and_min_dcf(ss, params)
        oe, ot = _exhaustive_eer(ss.scores, ss.is_target)
        om = _exhaustive_min_dcf(ss.scores, ss.is_target, params)
        all_equal &= eer == oe and thr == ot and mdcf == om

        mapped = ScoreSet(scores=2.0 * ss.scores + 1.0, is_target=ss.is_target)
        m_eer, _, m_dcf = eer_and_min_dcf(mapped, params)
        all_invariant &= m_eer == eer and m_dcf == mdcf
    elapsed = time.perf_counter() - start
    ok = all_equal and all_invariant and elapsed < 30.0
    _report(capsys, 7, ok,
            f"{n_sets} score sets (<=100 trials): sweep == enumeration is "
            f"{all_equal}, monotone-map invariance is {all_invariant}, "
            f"{elapsed:.1f}s (budget 30s)")


# -- 8: the margin losses actually rank as intended on hard data ---------------


def test_variant_ordering_on_hard_pair_data(capsys):
    start = time.perf_counter()
    cfg = resolve(overrides={"opt.epochs": 90})
    variants = ("am", "daam", "dasa")
    eers = {v: [] for v in variants}
    for seed in range(5):
        ds = generate(build(SynthSpec, cfg, seed=seed))
        for v in variants:
            run = train(ds, build(LossConfig, cfg, variant=v),
                        to_train_settings(cfg, seed=seed))
            eers[v].append(run.final_eer)
    med = {v: statistics.median(eers[v]) for v in variants}
    reduction = statistics.median(
        [(a - d) / a for a, d in zip(eers["am"], eers["dasa"])])
    elapsed = time.perf_counter() - start
    ok = (med["daam"] <= med["am"] and med["dasa"] <= med["daam"]
          and reduction >= 0.03 and elapsed < 600.0)
    _report(capsys, 8, ok,
            f"median EER over 5 seeds: am={med['am']:.4f} daam={med['daam']:.4f} "
            f"dasa={med['dasa']:.4f}; median rel reduction dasa vs am = "
            f"{reduction:.1%} (need >= 3%), {elapsed:.0f}s (budget 600s)")


# -- 9: schedule endpoints are exact, not approximate ---------------------------


def test_schedule_and_lr_endpoints_are_exact(capsys):
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant",
                     lambda0=0.15, gamma=2.0, ramp_total_iters=1000,
                     deferred_fraction=0.4)
    deferred_zero = all(lambda_schedule(t, cfg) == 0.0 for t in (0, 1, 250, 399))
    at_end = lambda_schedule(1000, cfg) == 0.15

    opt = SgdNesterov(np.zeros(3), lr_init=0.05, lr_final=1e-4, total_iters=500)
    lr_exact = opt.lr_at(0) == 0.05 and opt.lr_at(500) == 1e-4
    ok = deferred_zero and at_end and lr_exact
    _report(capsys, 9, ok,
            f"lambda == 0 before 0.4T: {deferred_zero}, lambda(T) == lambda0: "
            f"{at_end}, lr(0)/lr(T) == endpoints: {lr_exact}")


# -- 10: every command replays byte-identically from its recorded config -------


def test_commands_replay_byte_identically(capsys, tmp_path):
    tiny = ["--set", "data.num_classes=3", "--set", "data.dim=6",
            "--set", "data.samples_per_class=8", "--set", "model.hidden=8",
            "--set", "model.embed_dim=4", "--set", "opt.epochs=2",
            "--set", "opt.batch_size=8"]

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert entry(["gen", "--out", str(g1), *tiny]) == 0
    assert entry(["gen", "--config", str(g1 / "gen.config"), "--out", str(g2)]) == 0
    gen_ok = (g1 / "dataset.csv").read_bytes() == (g2 / "dataset.csv").read_bytes()

    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    data_arg = ["--set", f"train.dataset={g1 / 'dataset.csv'}"]
    assert entry(["train", "--out", str(t1), *tiny, *data_arg]) == 0
    assert entry(["train", "--config", str(t1 / "train.config"), "--out", str(t2)]) == 0
    train_ok = all(
        (t1 / n).read_bytes() == (t2 / n).read_bytes()
        for n in ("metrics.csv", "model.csv", "bank.csv", "embeddings.csv", "trials.csv"))

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    pos = [str(t1 / "embeddings.csv"), str(t1 / "trials.csv")]
    assert entry(["score", "--out", str(s1), *pos]) == 0
    assert entry(["score", "--config", str(s1 / "score.config"),
                  "--out", str(s2), *pos]) == 0
    score_ok = (s1 / "scores.csv").read_bytes() == (s2 / "scores.csv").read_bytes()

    capsys.readouterr()
    ok = gen_ok and train_ok and score_ok
    _report(capsys, 10, ok,
            f"byte-identical replay from recorded config: gen={gen_ok} "
            f"train={train_ok} score={score_ok}")
