"""The CSV writers against the per-cell writers they replaced: the same
bytes for every float, signed zeros, subnormals, infinities and the values
at which 17-digit 'g' formatting switches between fixed and exponent form
included.  The per-cell writers below are kept as oracles: ``csv.writer``
with one ``format(v, ".17g")`` call per cell.  The result tables of
``compare``, ``bound-check`` and ``grad-check`` and the trainer's
diagnostics are written through the commands themselves, with the
numbers they format swapped for chosen ones."""

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from semaug import cli, trainer
from semaug.cli import entry
from semaug.config import CompareSettings
from semaug.data import CHUNK_ROWS, TRAIN, Dataset, SynthSpec, generate, write_dataset, write_embeddings
from semaug.embedder import TinyEmbedder
from semaug.losses import ClassifierHead, LossConfig
from semaug.metrics import ScoreSet, TrialSet, write_scores, write_trials
from semaug.montecarlo import McReport
from semaug.rng import philox_rng
from semaug.suites import BOUND_FAMILIES, BoundTrial, GradTrial
from semaug.trainer import MetricsRow, TrainingDivergedError, TrainSettings, save_metrics, save_model, train

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, -1e17, 1e-5, 1e-4, -1e-4, 1e-300,
           1.0, 3.0, -2.0, 2.0**53, 2.0**53 + 2, 123456789012345678.0, 0.1, 1 / 3]


def floats(seed, shape):
    """Random floats over forty decades, with every SPECIAL value placed
    at random cells while the array has room for them."""
    rng = philox_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = x.reshape(-1)
    k = min(flat.size, len(SPECIAL))
    flat[rng.choice(flat.size, k, replace=False)] = SPECIAL[:k]
    return x


def write_dataset_per_cell(dataset, path):
    d = dataset.dim
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label"] + [f"x{i}" for i in range(d)] + ["split"])
        for label, row, tag in zip(dataset.labels, dataset.features, dataset.split):
            w.writerow([int(label)] + [format(v, ".17g") for v in row] + [tag])


def write_embeddings_per_cell(path, indices, vectors):
    V = np.asarray(vectors, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + [f"e{i}" for i in range(V.shape[1])])
        for idx, row in zip(indices, V):
            w.writerow([int(idx)] + [format(v, ".17g") for v in row])


def save_model_per_cell(path, embedder, head):
    def fmt(arr):
        return [format(float(v), ".17g") for v in np.asarray(arr).ravel()]

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["semaug-model", 1])
        w.writerow(["layers"] + [str(s) for s in embedder.layer_sizes])
        w.writerow(["scale", format(head.scale, ".17g")])
        w.writerow(["margin", format(head.margin, ".17g")])
        w.writerow(["head_biases", int(head.biases is not None)])
        for k, (W, b) in enumerate(zip(embedder.weights, embedder.biases)):
            w.writerow([f"W{k}"] + fmt(W))
            w.writerow([f"b{k}"] + fmt(b))
        w.writerow(["HW"] + fmt(head.weights))
        if head.biases is not None:
            w.writerow(["Hb"] + fmt(head.biases))


def write_scores_per_cell(path, trials, scoreset):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index_a", "index_b", "score", "is_target"])
        for a, b, s, t in zip(trials.index_a, trials.index_b, scoreset.scores, scoreset.is_target):
            w.writerow([int(a), int(b), format(float(s), ".17g"), int(t)])


def write_trials_per_cell(path, trials):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index_a", "index_b", "is_target"])
        for a, b, t in zip(trials.index_a, trials.index_b, trials.is_target):
            w.writerow([int(a), int(b), int(t)])


def save_metrics_per_cell(path, metrics):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "mean_cos_y", "mean_coef", "lambda", "eer", "min_dcf"])
        for r in metrics:
            w.writerow([r.epoch] + [format(v, ".17g") for v in
                                    (r.loss, r.mean_cos_y, r.mean_coef, r.lam, r.eer, r.min_dcf)])


def same_bytes(tmp_path, write, oracle, *args):
    """Both writers produce identical bytes; returns the text."""
    a, b = tmp_path / "fast.csv", tmp_path / "reference.csv"
    write(a, *args)
    oracle(b, *args)
    assert a.read_bytes() == b.read_bytes()
    return a.read_bytes().decode()


def test_write_dataset_matches_the_per_cell_writer(tmp_path):
    n = 40
    ds = Dataset(features=floats(1, (n, 7)), labels=np.arange(n) % 5,
                 split=np.where(np.arange(n) % 4 == 0, "eval", "train"))
    text = same_bytes(tmp_path, lambda p, d: write_dataset(d, p),
                      lambda p, d: write_dataset_per_cell(d, p), ds)
    assert "\r\n" in text and ",-0," in text.replace("\r\n", ",")
    same_bytes(tmp_path, lambda p, d: write_dataset(d, p),
               lambda p, d: write_dataset_per_cell(d, p), generate(SynthSpec(seed=3)))


@pytest.mark.parametrize("indices", [[3, 0, 7, 2**62, 11], np.array([5, 4, 3, 2, 1])])
def test_write_embeddings_matches_the_per_cell_writer(tmp_path, indices):
    text = same_bytes(tmp_path, write_embeddings, write_embeddings_per_cell, indices, floats(2, (5, 64)))
    for cell in ("4.9406564584124654e-324", "10000000000000000", "1e+17", "1.0000000000000001e-05",
                 "0.0001", "9007199254740992", "-0"):
        assert f",{cell}," in text.replace("\r\n", ",")


@pytest.mark.parametrize("biases", [False, True])
def test_save_model_matches_the_per_cell_writer(tmp_path, biases):
    emb = TinyEmbedder([6, 9, 4], philox_rng(5))
    emb.weights = [floats(6, W.shape) for W in emb.weights]
    emb.biases = [floats(7, b.shape) for b in emb.biases]
    for scale, margin in ((12, 0), (8.5, 0.2)):
        head = ClassifierHead(weights=floats(8, (3, 4)), biases=floats(9, 3) if biases else None,
                              scale=scale, margin=margin)
        same_bytes(tmp_path, save_model, save_model_per_cell, emb, head)


def test_write_scores_and_trials_match_the_per_cell_writers(tmp_path):
    n = len(SPECIAL) + 5
    trials = TrialSet(index_a=np.arange(n), index_b=np.arange(n) + 1, is_target=np.arange(n) % 3 == 0)
    scores = ScoreSet(scores=floats(10, n), is_target=trials.is_target)
    same_bytes(tmp_path, write_scores, write_scores_per_cell, trials, scores)
    same_bytes(tmp_path, write_trials, write_trials_per_cell, trials)


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_column_writers_match_the_per_cell_writers_at_chunk_boundaries(tmp_path, n):
    """Tables that end just before, on and just after a chunk boundary,
    with the SPECIAL floats also in the rows that straddle it."""
    def straddling(seed, shape):
        x = floats(seed, shape)
        k = min(n, len(SPECIAL))
        x[n - k:n] = np.reshape(SPECIAL[:k], (k,) + (1,) * (x.ndim - 1))
        return x

    trials = TrialSet(index_a=np.arange(n), index_b=np.arange(n) + 1, is_target=np.arange(n) % 3 == 0)
    scores = ScoreSet(scores=straddling(15, n), is_target=trials.is_target)
    assert same_bytes(tmp_path, write_trials, write_trials_per_cell, trials).count("\r\n") == n + 1
    same_bytes(tmp_path, write_scores, write_scores_per_cell, trials, scores)
    same_bytes(tmp_path, write_embeddings, write_embeddings_per_cell, range(n), straddling(16, (n, 3)))


def test_save_metrics_matches_the_per_cell_writer(tmp_path):
    rows = [MetricsRow(epoch, *v) for epoch, v in enumerate(floats(11, (4, 6)).tolist())]
    same_bytes(tmp_path, save_metrics, save_metrics_per_cell, rows)


# -- result tables and diagnostics: the per-cell writers of the commands --------


def write_compare_per_cell(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "difficulty", "strength_mode", "lambda0", "seed", "eer", "min_dcf"])
        w.writerows([v, difficulty, strength, format(lambda0, ".17g"), seed,
                     format(eer, ".17g"), format(min_dcf, ".17g")]
                    for v, difficulty, strength, lambda0, seed, eer, min_dcf in rows)


def write_bound_check_per_cell(path, results):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "variant", "lambda", "M", "mc_mean", "se", "bound", "slack", "z_score"])
        for r in results:
            w.writerow([r.trial, r.family, format(r.lam, ".17g"), r.report.samples] +
                       [format(v, ".17g") for v in
                        (r.report.mean, r.report.std_error, r.report.bound_value,
                         r.report.slack, r.report.z_score)])


def write_grad_check_per_cell(path, results, epsilon):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "variant", "trial", "epsilon", "max_rel_error"])
        for r in results:
            w.writerow([r.kind, r.variant, r.trial, format(epsilon, ".17g"), format(r.max_rel_error, ".17g")])


def write_diagnostics_per_cell(path, steps):
    """``steps``: (iteration, sample ids, cos_y, coef, lambda, loss) per training step."""
    with open(path, "w", newline="") as fh:
        diag = csv.writer(fh)
        diag.writerow(["iteration", "sample_id", "cos_y", "coef", "lambda", "loss"])
        for t, batch, *columns in steps:
            diag.writerows([t, i] + [format(v, ".17g") for v in row] for i, *row in
                           zip(batch.tolist(), *(c.tolist() for c in columns)))


def same_file(path, oracle, *args):
    """The file a command wrote has the bytes of the oracle's file."""
    reference = path.parent / "reference.csv"
    oracle(reference, *args)
    assert path.read_bytes() == reference.read_bytes()
    return path.read_bytes().decode()


def check_compare_csv(tmp_path, monkeypatch, variants, seeds):
    values = iter(floats(12, 2 * len(variants.split(",")) * len(seeds)).tolist())
    runs = []

    def fake_train(dataset, loss_config, settings):
        run = SimpleNamespace(final_eer=next(values), final_min_dcf=next(values))
        runs.append((loss_config, settings.seed, run))
        return run

    monkeypatch.setattr(cli, "generate", lambda spec: None)
    monkeypatch.setattr(cli, "train", fake_train)
    if not seeds:  # no config gives an empty compare, so its settings are stubbed
        build = cli.build
        monkeypatch.setattr(cli, "build", lambda cls, cfg, **kw: SimpleNamespace(variants=[], seeds=[])
                            if cls is CompareSettings else build(cls, cfg, **kw))
    out = tmp_path / "cmp"
    assert entry(["compare", "--out", str(out), "--set", f"compare.variants={variants or 'am,dasa'}",
                  "--set", f"compare.seeds={','.join(map(str, seeds)) or 0}", "--set", "loss.lambda0=1e-05"]) == 0
    rows = [(lc.variant, lc.difficulty, lc.strength_mode, 1e-05, seed, run.final_eer, run.final_min_dcf)
            for lc, seed, run in runs]
    assert len(rows) == len(variants.split(",")) * len(seeds)
    assert same_file(out / "compare.csv", write_compare_per_cell, rows).count("\r\n") == len(rows) + 1


def check_bound_check_csv(tmp_path, monkeypatch, n):
    cells = floats(13, (n, 5))
    cells[:4, 4] = [math.inf, -math.inf, -0.0, 5e-324][:n]
    results = [BoundTrial(trial=k, family=BOUND_FAMILIES[k % 3], lam=float(cells[k, 0]) ** 2,
                          report=McReport(*cells[k, :2].tolist(), 16384 + k, *cells[k, 2:].tolist()))
               for k in range(len(cells))]
    monkeypatch.setattr(cli, "jensen_suite", lambda trials, samples, seed: results)
    out = tmp_path / "bound"
    assert entry(["bound-check", "--out", str(out)]) == (3 if n else 0)  # a z-score of -inf fails the suite
    text = same_file(out / "bound_check.csv", write_bound_check_per_cell, results)
    assert text.count("\r\n") == n + 1
    assert not n or (",inf\r\n" in text and ",-inf\r\n" in text and ",-0\r\n" in text)


def check_grad_check_csv(tmp_path, monkeypatch, n_loss, n_composed):
    errors = floats(14, n_loss + n_composed).tolist()
    loss = [GradTrial("loss", v, k, e) for k, (v, e) in enumerate(zip(("am", "dasa") * n_loss, errors[:n_loss]))]
    composed = [GradTrial("composed", "daam", k, e) for k, e in enumerate(errors[n_loss:])]
    monkeypatch.setattr(cli, "gradcheck_suite", lambda trials, epsilon, seed: list(loss))
    monkeypatch.setattr(cli, "composed_gradcheck", lambda trials, epsilon, seed: composed)
    # the step's range ends; 5e-324 and 0.1 are among the error cells
    for epsilon in ("6e-05", "1e-7", "1e-4"):
        out = tmp_path / f"grad{epsilon}"
        assert entry(["grad-check", "--out", str(out), "--set", f"grad.epsilon={epsilon}"]) == (3 if errors else 0)
        text = same_file(out / "grad_check.csv", write_grad_check_per_cell, loss + composed, float(epsilon))
        assert text.count("\r\n") == n_loss + n_composed + 1


def test_compare_csv_matches_the_per_cell_writer(tmp_path, monkeypatch):
    check_compare_csv(tmp_path, monkeypatch, "softmax,daam,dasa", [0, 3, 11])


def test_bound_check_csv_matches_the_per_cell_writer(tmp_path, monkeypatch):
    check_bound_check_csv(tmp_path, monkeypatch, 24)


def test_grad_check_csv_matches_the_per_cell_writer(tmp_path, monkeypatch):
    check_grad_check_csv(tmp_path, monkeypatch, 16, 4)


@pytest.mark.parametrize("n", [0, CHUNK_ROWS + 1])
def test_result_tables_match_the_per_cell_writers_at_chunk_edges(tmp_path, monkeypatch, n):
    """The compare, bound-check and grad-check tables with no rows, and
    with one row past the first chunk."""
    check_compare_csv(tmp_path, monkeypatch, "softmax,isda,am,daam,dasa" if n else "", list(range(n // 5)))
    check_bound_check_csv(tmp_path, monkeypatch, n)
    check_grad_check_csv(tmp_path, monkeypatch, max(n - 4, 0), min(n, 4))


def check_diagnostics(tmp_path, monkeypatch, variant, cov_mode, diverge, spec, batch):
    """Every row the trainer reached, a diverged run's included, with the
    per-sample numbers replaced by chosen floats after each loss call."""
    ds = generate(spec)
    path = tmp_path / "diagnostics.csv"
    settings = TrainSettings(hidden=[6], embed_dim=3, epochs=3, batch_size=batch, cov_mode=cov_mode,
                             diagnostics_path=str(path))
    loss = trainer.variant_loss
    steps = []

    def chosen_floats(f, head, bank, labels, cfg, t):
        out = loss(f, head, bank, labels, cfg, t)
        cos_y, coef, lam, value = floats(100 + t, (4, labels.size))
        if diverge and t == 5:
            coef[0] = math.inf  # the epoch's mean coef is no longer finite
        out.per_sample_terms.update(cos_y=cos_y, coef=coef)
        out.per_sample_terms["lambda"] = lam
        out.value = value
        steps.append((t, cos_y, coef, lam, value))
        return out

    monkeypatch.setattr(trainer, "variant_loss", chosen_floats)
    if diverge:
        with pytest.raises(TrainingDivergedError):
            train(ds, LossConfig(variant=variant), settings)
    else:
        train(ds, LossConfig(variant=variant), settings)
    shuffle, train_idx, B = philox_rng(settings.seed, 2), ds.indices(TRAIN), settings.batch_size
    batches = [order[s:s + B] for order in (shuffle.permutation(train_idx) for _ in range(settings.epochs))
               for s in range(0, train_idx.size, B)]
    assert len(steps) == (len(batches) // 3 if diverge else len(batches))
    assert max(map(len, batches)) == batch
    same_file(path, write_diagnostics_per_cell, [(t, batch, *cols) for (t, *cols), batch in zip(steps, batches)])


@pytest.mark.parametrize("variant,cov_mode,diverge", [
    ("am", "full", False),
    ("dasa", "diagonal", False),
    ("dasa", "full", True),
])
def test_diagnostics_match_the_per_cell_writer(tmp_path, monkeypatch, variant, cov_mode, diverge):
    check_diagnostics(tmp_path, monkeypatch, variant, cov_mode, diverge,
                      SynthSpec(num_classes=4, dim=5, samples_per_class=12, seed=2), 7)


def test_diagnostics_of_a_batch_past_one_chunk_match_the_per_cell_writer(tmp_path, monkeypatch):
    """5 classes of 256 - 51 training samples: each epoch is one batch of CHUNK_ROWS + 1 rows."""
    check_diagnostics(tmp_path, monkeypatch, "dasa", "full", False,
                      SynthSpec(num_classes=5, dim=5, samples_per_class=256, seed=2), CHUNK_ROWS + 1)


def test_diagnostics_file_fails_before_any_training(tmp_path, monkeypatch):
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "variant_loss", no_step)
    settings = TrainSettings(epochs=1, diagnostics_path=str(tmp_path / "no" / "such" / "dir.csv"))
    with pytest.raises(FileNotFoundError):
        train(generate(SynthSpec(num_classes=3, samples_per_class=10)), LossConfig(), settings)
