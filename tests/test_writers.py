"""The CSV writers against the per-cell writers they replaced: the same
bytes for every float, signed zeros, subnormals and the values at which
17-digit 'g' formatting switches between fixed and exponent form included.
The per-cell writers below are kept as oracles: ``csv.writer`` with one
``format(v, ".17g")`` call per cell."""

import csv

import numpy as np
import pytest

from semaug.data import Dataset, SynthSpec, generate, write_dataset, write_embeddings
from semaug.embedder import TinyEmbedder
from semaug.losses import ClassifierHead
from semaug.metrics import ScoreSet, TrialSet, write_scores, write_trials
from semaug.rng import philox_rng
from semaug.trainer import MetricsRow, save_metrics, save_model

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


def test_save_metrics_matches_the_per_cell_writer(tmp_path):
    rows = [MetricsRow(epoch, *v) for epoch, v in enumerate(floats(11, (4, 6)).tolist())]
    same_bytes(tmp_path, save_metrics, save_metrics_per_cell, rows)
