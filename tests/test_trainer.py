"""Training loop: optimizer conventions, determinism, variant reductions
under a disabled schedule, convergence on an easy problem, and snapshots."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from semaug import trainer
from semaug.covariance import CovarianceBank
from semaug.data import EVAL, TRAIN, SynthSpec, generate
from semaug.embedder import TinyEmbedder
from semaug.losses import ClassifierHead, LossConfig, variant_loss
from semaug.metrics import build_trials, compute_eer, compute_min_dcf, score_trials
from semaug.rng import philox_rng
from semaug.trainer import (
    SgdNesterov,
    TrainSettings,
    TrainingDivergedError,
    load_model,
    save_metrics,
    save_model,
    train,
)


def tiny_dataset(seed=0, num_classes=3, spc=10):
    return generate(SynthSpec(num_classes=num_classes, dim=6, samples_per_class=spc,
                              sigma=0.1, anisotropy=0.5, hard_pair_fraction=0.0, seed=seed))


def quick_settings(**over):
    base = dict(hidden=[8], embed_dim=4, epochs=2, batch_size=8,
                lr_init=0.05, lr_final=0.01, scale=8.0, margin=0.2, seed=0)
    base.update(over)
    return TrainSettings(**base)


# -- optimizer ----------------------------------------------------------------


def test_learning_rate_endpoints_are_exact():
    opt = SgdNesterov([np.zeros(2)], 0.05, 1e-4, total_iters=100)
    assert opt.lr_at(0) == 0.05
    assert opt.lr_at(100) == 1e-4
    assert opt.lr_at(250) == 1e-4
    # exponential decay passes through the geometric midpoint
    assert opt.lr_at(50) == pytest.approx(math.sqrt(0.05 * 1e-4), rel=1e-12)
    assert opt.lr_at(1) < 0.05
    with pytest.raises(ValueError):
        opt.lr_at(-1)
    with pytest.raises(ValueError):
        SgdNesterov([np.zeros(2)], 0.05, 1e-4, total_iters=0)


def test_update_rule_matches_the_stated_recurrence():
    # constant lr (equal endpoints) isolates the momentum arithmetic
    lr, mu, wd = 0.1, 0.9, 0.01
    p = np.array([1.0, -2.0])
    opt = SgdNesterov([p], lr, lr, total_iters=10, momentum=mu, weight_decay=wd)
    theta = p.copy()
    v = np.zeros(2)
    for t, g in enumerate([np.array([0.1, 0.2]), np.array([-0.3, 0.05])]):
        opt.step([g.copy()], t)
        gd = g + wd * theta
        v = mu * v - lr * gd
        theta = theta + mu * v - lr * gd
        np.testing.assert_array_equal(p, theta)


# -- the training loop ----------------------------------------------------------


def test_training_is_deterministic():
    ds = tiny_dataset()
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.1, deferred_fraction=0.3)
    a = train(ds, cfg, quick_settings())
    b = train(ds, cfg, quick_settings())
    assert [r.loss for r in a.metrics] == [r.loss for r in b.metrics]
    assert [r.eer for r in a.metrics] == [r.eer for r in b.metrics]
    np.testing.assert_array_equal(a.head.weights, b.head.weights)
    np.testing.assert_array_equal(a.eval_embeddings, b.eval_embeddings)
    c = train(ds, cfg, quick_settings(seed=1))
    assert a.metrics[-1].loss != c.metrics[-1].loss


# -- the per-sample reference loop -----------------------------------------------
# Training built from the 1-D calls: one forward, loss, backward and bank
# update per sample, summed per batch.  The batched `train` must reproduce it
# up to the rounding of summation order.


def per_sample_train(dataset, loss_config, settings):
    """(metrics rows, embedder, head, bank, diagnostics rows) of the per-sample loop."""
    X, y, C = dataset.features, dataset.labels, dataset.num_classes
    train_idx, eval_idx = dataset.indices(TRAIN), dataset.indices(EVAL)
    n_train, B = train_idx.size, settings.batch_size
    total_iters = settings.epochs * math.ceil(n_train / B)
    cfg = replace(loss_config, ramp_total_iters=total_iters)
    F = settings.embed_dim
    init_rng = philox_rng(settings.seed, 1)
    embedder = TinyEmbedder([dataset.dim] + list(settings.hidden) + [F], init_rng)
    head = ClassifierHead(weights=init_rng.standard_normal((C, F)) / math.sqrt(F),
                          biases=np.zeros(C) if cfg.variant in ("softmax", "isda") else None,
                          scale=settings.scale, margin=settings.margin)
    bank = CovarianceBank(C, F, settings.cov_mode)
    params = embedder.parameters() + [head.weights] + ([head.biases] if head.biases is not None else [])
    opt = SgdNesterov(params, settings.lr_init, settings.lr_final, total_iters,
                      settings.momentum, settings.weight_decay)
    shuffle_rng = philox_rng(settings.seed, 2)
    trials = build_trials(y[eval_idx], settings.max_nontarget_per_target, (settings.seed, 3))
    metrics, diag, t = [], [], 0
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(train_idx)
        sums = [0.0] * 4
        for start in range(0, n_train, B):
            batch = order[start:start + B]
            grads = [np.zeros_like(p) for p in params]
            seen = []
            for i in batch:
                f, cache = embedder.forward(X[i])
                out = variant_loss(f[0], head, bank, int(y[i]), cfg, t)
                value, per = out.value[0], {k: v[0] for k, v in out.per_sample_terms.items()}
                sums = [a + b for a, b in zip(sums, (value, per["cos_y"], per["coef"], per["lambda"]))]
                diag.append([t, int(i), per["cos_y"], per["coef"], per["lambda"], value])
                sample = [g for pair in embedder.backward(cache, out.grad_embedding) for g in pair]
                sample.append(out.grad_weights)
                if head.biases is not None:
                    sample.append(out.grad_biases)
                for acc, g in zip(grads, sample):
                    acc += g
                seen.append((f[0], int(y[i])))
            if not settings.stats_after_deferred_only or t / total_iters >= cfg.deferred_fraction:
                for f, label in seen:
                    bank.update(f, label)
            inv = 1.0 / len(batch)
            opt.step([g * inv for g in grads], t)
            t += 1
        embs = np.array([embedder.forward(X[i])[0][0] for i in eval_idx])
        scores = score_trials(embs, trials)
        metrics.append([v / n_train for v in sums] + [compute_eer(scores)[0], compute_min_dcf(scores, settings.dcf)])
    return np.array(metrics), embedder, head, bank, diag


def rel_gap(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


@pytest.mark.parametrize("variant,difficulty,strength,cov_mode", [
    ("softmax", "none", "constant", "full"),
    ("daam", "DA", "constant", "full"),
    ("dasa", "DA", "constant", "full"),
    ("dasa", "DY", "DA", "diagonal"),
])
def test_batched_training_matches_the_per_sample_loop(tmp_path, variant, difficulty, strength, cov_mode):
    ds = tiny_dataset(seed=3, num_classes=5, spc=14)
    cfg = LossConfig(variant=variant, difficulty=difficulty, strength_mode=strength,
                     lambda0=0.2, deferred_fraction=0.3)
    st = quick_settings(epochs=4, batch_size=7, cov_mode=cov_mode,
                        diagnostics_path=str(tmp_path / "diag.csv"))
    run = train(ds, cfg, st)
    metrics, embedder, head, bank, diag = per_sample_train(ds, cfg, st)
    assert run.total_iters * st.batch_size > ds.indices(TRAIN).size * st.epochs  # a ragged last batch
    assert (metrics[:, 3] > 0).any() or variant != "dasa"  # the run crosses the deferred fraction

    got = np.array([[r.loss, r.mean_cos_y, r.mean_coef, r.lam, r.eer, r.min_dcf] for r in run.metrics])
    for col in range(got.shape[1]):
        assert rel_gap(got[:, col], metrics[:, col]) <= 1e-10, col
    for got_p, want_p in zip(run.embedder.parameters() + [run.head.weights],
                             embedder.parameters() + [head.weights]):
        assert rel_gap(got_p, want_p) <= 1e-10
    if head.biases is not None:
        assert rel_gap(run.head.biases, head.biases) <= 1e-10
    for got_s, want_s in zip(run.bank.stats, bank.stats):
        assert got_s.count == want_s.count
        if want_s.count:
            assert rel_gap(got_s.mean, want_s.mean) <= 1e-10
            assert rel_gap(got_s.cov, want_s.cov) <= 1e-10
    with open(tmp_path / "diag.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[int(r[0]), int(r[1])] for r in rows] == [r[:2] for r in diag]
    got_d = np.array([[float(v) for v in r[2:]] for r in rows])
    want_d = np.array([r[2:] for r in diag])
    for col in range(want_d.shape[1]):
        assert rel_gap(got_d[:, col], want_d[:, col]) <= 1e-10, col


def test_disabled_schedule_reduces_dasa_to_daam():
    ds = tiny_dataset()
    daam = train(ds, LossConfig(variant="daam", difficulty="DA"), quick_settings())
    dasa = train(ds, LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.5,
                                deferred_fraction=1.0), quick_settings())
    assert [r.loss for r in dasa.metrics] == [r.loss for r in daam.metrics]
    assert [r.eer for r in dasa.metrics] == [r.eer for r in daam.metrics]
    np.testing.assert_array_equal(dasa.head.weights, daam.head.weights)


def test_disabled_schedule_reduces_isda_to_softmax():
    ds = tiny_dataset()
    soft = train(ds, LossConfig(variant="softmax", difficulty="none"), quick_settings())
    isda = train(ds, LossConfig(variant="isda", difficulty="none", lambda0=0.5,
                                deferred_fraction=1.0), quick_settings())
    assert [r.loss for r in isda.metrics] == [r.loss for r in soft.metrics]
    np.testing.assert_array_equal(isda.head.weights, soft.head.weights)
    np.testing.assert_array_equal(isda.head.biases, soft.head.biases)


def test_easy_problem_converges():
    ds = generate(SynthSpec(num_classes=2, dim=6, samples_per_class=16,
                            sigma=0.05, anisotropy=0.5, hard_pair_fraction=0.0, seed=4))
    run = train(ds, LossConfig(variant="am", difficulty="none"),
                quick_settings(epochs=25, batch_size=8, lr_final=1e-3))
    assert run.metrics[-1].loss < 0.05
    assert run.final_eer == 0.0
    assert run.metrics[-1].loss < run.metrics[0].loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_the_iteration():
    ds = tiny_dataset()
    huge = quick_settings(lr_init=1e200, lr_final=1e200, epochs=1)
    with pytest.raises(TrainingDivergedError, match="iteration"):
        train(ds, LossConfig(variant="am", difficulty="none"), huge)
    try:
        train(ds, LossConfig(variant="am", difficulty="none"), huge)
    except TrainingDivergedError as exc:
        assert exc.iteration >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["softmax", "isda", "am", "daam", "dasa"])
def test_a_blown_up_embedding_is_named(variant):
    """After one step at lr 1e150 the weights overflow the embedder's
    forward pass, whose check fires before any loss sees the batch."""
    huge = quick_settings(lr_init=1e150, lr_final=1e150, epochs=1)
    with pytest.raises(TrainingDivergedError, match=r"^non-finite embedding at iteration 1$"):
        train(tiny_dataset(), LossConfig(variant=variant), huge)


@pytest.mark.parametrize("term,column", [("cos_y", "mean_cos_y"), ("coef", "mean_coef"),
                                         ("lambda", "lambda"), ("eer", "eer"), ("min_dcf", "min_dcf")])
def test_a_non_finite_metrics_cell_names_its_column(monkeypatch, term, column):
    """A per-sample term that is infinite in the first step, or an epoch's
    EER or minDCF that is NaN, fails at the end of that epoch (3 steps of
    8 of the 24 training samples) and names the metrics column."""
    def loss(f, head, bank, labels, cfg, t):
        out = variant_loss(f, head, bank, labels, cfg, t)
        if t == 0 and term in out.per_sample_terms:
            out.per_sample_terms[term] = np.full(labels.size, math.inf)
        return out

    monkeypatch.setattr(trainer, "variant_loss", loss)
    if term == "eer":
        monkeypatch.setattr(trainer, "compute_eer", lambda scores: (math.nan, 0.0))
    if term == "min_dcf":
        monkeypatch.setattr(trainer, "compute_min_dcf", lambda scores, params: math.nan)
    with pytest.raises(TrainingDivergedError, match=rf"^non-finite {column} at iteration 3$"):
        train(tiny_dataset(), LossConfig(variant="dasa"), quick_settings())


def test_run_bookkeeping():
    ds = tiny_dataset(num_classes=3, spc=10)  # 8 train per class
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.1, deferred_fraction=0.4)
    st = quick_settings(epochs=3, batch_size=10)
    run = train(ds, cfg, st)
    assert run.total_iters == 3 * math.ceil(24 / 10)
    assert run.config.ramp_total_iters == run.total_iters
    assert len(run.metrics) == 3
    assert run.final_eer == run.metrics[-1].eer
    assert run.final_min_dcf == run.metrics[-1].min_dcf
    assert run.eval_embeddings.shape == (run.eval_indices.size, 4)
    # metrics recompute exactly from the returned artifacts
    from semaug.metrics import compute_eer, score_trials
    eer, _ = compute_eer(score_trials(run.eval_embeddings, run.trials))
    assert eer == run.final_eer


def test_bank_sees_every_sample_once_per_epoch():
    ds = tiny_dataset(num_classes=3, spc=10)
    cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.1, deferred_fraction=0.5)
    run = train(ds, cfg, quick_settings(epochs=4, batch_size=6))
    total = sum(run.bank.stats[c].count for c in range(3))
    assert total == 4 * 24

    gated = train(ds, cfg, quick_settings(epochs=4, batch_size=6,
                                          stats_after_deferred_only=True))
    total = sum(gated.bank.stats[c].count for c in range(3))
    assert total == 2 * 24  # only the second half of the run accumulates


def test_strength_mode_is_coerced_for_non_dasa_variants():
    ds = tiny_dataset()
    cfg = LossConfig(variant="am", difficulty="none", strength_mode="DY")
    run = train(ds, cfg, quick_settings(epochs=1))
    assert run.config.strength_mode == "constant"


def test_settings_validation():
    with pytest.raises(ValueError):
        TrainSettings(epochs=0)
    with pytest.raises(ValueError):
        TrainSettings(lr_init=0.0)
    for lr in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            TrainSettings(lr_init=lr)
        with pytest.raises(ValueError, match="finite"):
            TrainSettings(lr_final=lr)
    with pytest.raises(ValueError):
        TrainSettings(momentum=1.0)
    with pytest.raises(ValueError):
        TrainSettings(weight_decay=-0.1)
    with pytest.raises(ValueError):
        TrainSettings(seed=-2)


# -- files -------------------------------------------------------------------------


def test_model_round_trip_is_exact(tmp_path):
    ds = tiny_dataset()
    run = train(ds, LossConfig(variant="dasa", difficulty="DA", strength_mode="constant", lambda0=0.1),
                quick_settings(epochs=1))
    path = tmp_path / "model.csv"
    save_model(path, run.embedder, run.head)
    emb, head = load_model(path)
    assert emb.layer_sizes == run.embedder.layer_sizes
    for a, b in zip(emb.weights, run.embedder.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(emb.biases, run.embedder.biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(head.weights, run.head.weights)
    assert head.biases is None  # margin path trains without biases
    assert head.scale == run.head.scale and head.margin == run.head.margin

    x = ds.features[0]
    np.testing.assert_array_equal(emb.forward(x)[0], run.embedder.forward(x)[0])


def test_model_round_trip_keeps_biases(tmp_path):
    ds = tiny_dataset()
    run = train(ds, LossConfig(variant="softmax", difficulty="none"),
                quick_settings(epochs=1))
    path = tmp_path / "model.csv"
    save_model(path, run.embedder, run.head)
    _, head = load_model(path)
    np.testing.assert_array_equal(head.biases, run.head.biases)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("epoch,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="snapshot"):
        load_model(path)


def test_metrics_file_round_trip(tmp_path):
    ds = tiny_dataset()
    run = train(ds, LossConfig(variant="am", difficulty="none"), quick_settings())
    path = tmp_path / "metrics.csv"
    save_metrics(path, run.metrics)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "mean_cos_y", "mean_coef", "lambda", "eer", "min_dcf"]
    assert len(rows) == 1 + len(run.metrics)
    for row, r in zip(rows[1:], run.metrics):
        assert int(row[0]) == r.epoch
        assert float(row[1]) == r.loss
        assert float(row[5]) == r.eer


def test_diagnostics_stream(tmp_path):
    ds = tiny_dataset(num_classes=3, spc=10)
    path = tmp_path / "diag.csv"
    run = train(ds, LossConfig(variant="am", difficulty="none"),
                quick_settings(epochs=2, batch_size=6, diagnostics_path=str(path)))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "sample_id", "cos_y", "coef", "lambda", "loss"]
    body = rows[1:]
    assert len(body) == 2 * 24  # one row per sample visit
    iters = [int(r[0]) for r in body]
    assert iters == sorted(iters)
    assert max(iters) == run.total_iters - 1
    assert all(float(r[3]) == 1.0 for r in body)  # plain margin: coef is 1
    assert all(float(r[4]) == 0.0 for r in body)  # no augmentation strength
