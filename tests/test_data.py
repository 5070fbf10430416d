"""Synthetic data: geometry of the generated classes, split stratification,
reproducibility, and the CSV formats."""

import math

import numpy as np
import pytest

from semaug.data import (
    EVAL,
    TRAIN,
    Dataset,
    SynthSpec,
    generate,
    read_dataset,
    read_embeddings,
    write_dataset,
    write_embeddings,
)


def class_means(ds, split=None):
    idx = np.arange(len(ds.labels)) if split is None else ds.indices(split)
    C = ds.num_classes
    return np.array([ds.features[idx][ds.labels[idx] == c].mean(axis=0) for c in range(C)])


def nearest_center_accuracy(ds):
    """Oracle classifier: assign every sample to the closest class mean."""
    means = class_means(ds, TRAIN)
    d2 = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == ds.labels).mean())


def test_tiny_noise_makes_classes_trivially_separable():
    spec = SynthSpec(num_classes=8, dim=12, samples_per_class=20,
                     sigma=0.005, anisotropy=0.5, hard_pair_fraction=0.0, seed=3)
    assert nearest_center_accuracy(generate(spec)) == 1.0


def test_large_noise_with_hard_pairs_causes_confusions():
    spec = SynthSpec(num_classes=10, dim=12, samples_per_class=40,
                     sigma=0.8, anisotropy=0.6, hard_pair_fraction=1.0, seed=3)
    assert nearest_center_accuracy(generate(spec)) < 0.95


def test_hard_pairs_sit_at_small_angles():
    spec = SynthSpec(num_classes=4, dim=16, samples_per_class=60,
                     sigma=0.01, anisotropy=0.5, hard_pair_fraction=1.0, seed=5)
    means = class_means(generate(spec))
    means /= np.linalg.norm(means, axis=1)[:, None]
    for a, b in ((0, 1), (2, 3)):
        angle = math.degrees(math.acos(np.clip(means[a] @ means[b], -1, 1)))
        assert 4.0 <= angle <= 16.0
    cross = math.degrees(math.acos(np.clip(means[0] @ means[2], -1, 1)))
    assert cross > 20.0


def test_without_hard_pairs_classes_stay_well_separated():
    spec = SynthSpec(num_classes=6, dim=16, samples_per_class=40,
                     sigma=0.01, anisotropy=0.5, hard_pair_fraction=0.0, seed=7)
    means = class_means(generate(spec))
    means /= np.linalg.norm(means, axis=1)[:, None]
    for a in range(6):
        for b in range(a + 1, 6):
            angle = math.degrees(math.acos(np.clip(means[a] @ means[b], -1, 1)))
            assert angle > 20.0


def test_anisotropy_knob_shapes_the_class_scatter():
    flat = SynthSpec(num_classes=2, dim=10, samples_per_class=500,
                     sigma=0.3, anisotropy=0.0, hard_pair_fraction=0.0, seed=9)
    skew = SynthSpec(num_classes=2, dim=10, samples_per_class=500,
                     sigma=0.3, anisotropy=0.8, hard_pair_fraction=0.0, seed=9)
    for spec, lo, hi in ((flat, 1.0, 2.0), (skew, 3.0, np.inf)):
        ds = generate(spec)
        pts = ds.features[ds.labels == 0]
        cov = np.cov(pts.T, bias=True)
        eig = np.sort(np.linalg.eigvalsh(cov))
        ratio = eig[-1] / np.median(eig)
        assert lo <= ratio <= hi


def test_split_is_stratified_per_class():
    for n in (3, 4, 10, 40):
        spec = SynthSpec(num_classes=5, dim=4, samples_per_class=n,
                         sigma=0.35, anisotropy=0.5, seed=1)
        ds = generate(spec)
        for c in range(5):
            mask = ds.labels == c
            n_eval = int((ds.split[mask] == EVAL).sum())
            n_train = int((ds.split[mask] == TRAIN).sum())
            assert n_train + n_eval == n
            assert n_eval >= 1 and n_train >= 1
            assert abs(n_eval - 0.2 * n) <= 1.0


def test_generation_is_byte_identical_per_seed():
    spec = SynthSpec(num_classes=6, dim=8, samples_per_class=12,
                     sigma=0.35, anisotropy=0.5, seed=42)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.split, b.split)
    c = generate(SynthSpec(num_classes=6, dim=8, samples_per_class=12,
                           sigma=0.35, anisotropy=0.5, seed=43))
    assert not np.array_equal(a.features, c.features)


def test_dataset_container_validation():
    with pytest.raises(ValueError, match="equal length"):
        Dataset(features=np.zeros((3, 2)), labels=np.zeros(2, int),
                split=np.array([TRAIN] * 3))
    with pytest.raises(ValueError, match="split"):
        Dataset(features=np.zeros((2, 2)), labels=np.zeros(2, int),
                split=np.array(["dev", TRAIN]))


def test_indices_selects_the_right_rows():
    ds = Dataset(features=np.arange(8).reshape(4, 2), labels=np.array([0, 0, 1, 1]),
                 split=np.array([TRAIN, EVAL, TRAIN, EVAL]))
    np.testing.assert_array_equal(ds.indices(TRAIN), [0, 2])
    np.testing.assert_array_equal(ds.indices(EVAL), [1, 3])
    assert ds.num_classes == 2 and ds.dim == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(num_classes=1)
    with pytest.raises(ValueError):
        SynthSpec(dim=1)
    with pytest.raises(ValueError):
        SynthSpec(samples_per_class=1)
    with pytest.raises(ValueError):
        SynthSpec(sigma=0.0)
    with pytest.raises(ValueError):
        SynthSpec(anisotropy=1.0)
    with pytest.raises(ValueError):
        SynthSpec(hard_pair_fraction=1.5)
    with pytest.raises(ValueError):
        SynthSpec(seed=-1)


def test_dataset_round_trip_is_exact(tmp_path):
    ds = generate(SynthSpec(num_classes=3, dim=5, samples_per_class=6,
                            sigma=0.35, anisotropy=0.5, seed=2))
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.split, ds.split)


def test_dataset_file_errors(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_dataset(path)
    path.write_text("label,a,b,split\n0,1,2,train\n")
    with pytest.raises(ValueError, match="line 1"):
        read_dataset(path)
    path.write_text("label,x0,x1,split\n0,1.0,train\n")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset(path)
    path.write_text("label,x0,x1,split\n0,1.0,zz,train\n")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset(path)
    path.write_text("label,x0,x1,split\n0,1.0,2.0,dev\n")
    with pytest.raises(ValueError, match="split tag"):
        read_dataset(path)
    path.write_text("label,x0,x1,split\n")
    with pytest.raises(ValueError, match="no data"):
        read_dataset(path)


def test_embeddings_round_trip(tmp_path):
    vecs = np.array([[0.1, -0.2, 0.3], [1.0 / 3.0, 2.0 / 3.0, -1.0]])
    path = tmp_path / "emb.csv"
    write_embeddings(path, [4, 9], vecs)
    index, E = read_embeddings(path)
    assert index.dtype == np.int64 and index.tolist() == [4, 9]
    np.testing.assert_array_equal(E, vecs, strict=True)


def test_embeddings_file_errors(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_embeddings(path)
    path.write_text("id,e0\n0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_embeddings(path)
    path.write_text("index,e0,e1\n0,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_embeddings(path)
    path.write_text("index,e0\nx,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_embeddings(path)
    path.write_text("index,e0\n")
    with pytest.raises(ValueError, match="no data"):
        read_embeddings(path)
    # scoring cannot normalize a row of norm below 1e-12: the reader names it
    path.write_text("index,e0,e1\n0,1.0,0\n1,1e-13,0\n2,0,0\n")
    with pytest.raises(ValueError, match=r"emb\.csv: line 3: zero-norm embedding$"):
        read_embeddings(path)
