"""Every file reader returns a valid object or raises ValueError naming the
path and line: targeted defects, then hypothesis fuzzing of written files."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semaug.cli import entry
from semaug.covariance import DIAGONAL, FULL, CovarianceBank, load_bank, save_bank
from semaug.data import SynthSpec, generate, read_dataset, read_embeddings, write_dataset, write_embeddings
from semaug.embedder import TinyEmbedder
from semaug.losses import ClassifierHead
from semaug.metrics import TrialSet, read_trials, write_trials
from semaug.rng import philox_rng
from semaug.trainer import load_model, save_model


def bank_text(mode, tmp_path):
    rng = philox_rng(301)
    bank = CovarianceBank(3, 2, mode)
    for k in range(9):
        bank.update(rng.standard_normal(2), k % 3)
    path = tmp_path / "written_bank.csv"
    save_bank(bank, path)
    return path.read_text()


def model_text(tmp_path, biases):
    emb = TinyEmbedder([3, 4, 2], philox_rng(302))
    W = philox_rng(303).standard_normal((3, 2))
    head = ClassifierHead(weights=W, biases=np.ones(3) if biases else None, scale=8.0, margin=0.2)
    path = tmp_path / "written_model.csv"
    save_model(path, emb, head)
    return path.read_text()


def dataset_text(tmp_path):
    path = tmp_path / "written_data.csv"
    write_dataset(generate(SynthSpec(num_classes=2, dim=2, samples_per_class=3,
                                      sigma=0.35, anisotropy=0.5, seed=4)), path)
    return path.read_text()


def embeddings_text(tmp_path):
    path = tmp_path / "written_emb.csv"
    write_embeddings(path, [3, 0, 7], philox_rng(304).standard_normal((3, 2)))
    return path.read_text()


def trials_text(tmp_path):
    path = tmp_path / "written_trials.csv"
    write_trials(path, TrialSet(index_a=[0, 0, 3], index_b=[3, 7, 7], is_target=[True, False, False]))
    return path.read_text()


def set_cell(text, line, cell, value):
    """Replace one comma-separated cell of a 1-based line."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[cell] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def expect_line(reader, path, text, line, match):
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ") + ".*" + match):
        reader(path)


# -- load_bank ---------------------------------------------------------------


@pytest.mark.parametrize("line,cell,value,match", [
    (3, 0, "1.5", "invalid literal"),
    (3, 0, "7", "class id 7 out of range"),
    (3, 0, "-1", "out of range"),
    (3, 0, "0", "duplicate class id 0"),
    (2, 1, "-3", "negative count"),
    (2, 2, "nan", "non-finite"),
    (2, 5, "inf", "non-finite"),
    (2, 4, "-0.5", "negative variance"),
    (2, 5, "0.123", "asymmetric"),
])
def test_load_bank_names_each_defect(tmp_path, line, cell, value, match):
    text = set_cell(bank_text(FULL, tmp_path), line, cell, value)
    expect_line(load_bank, tmp_path / "bank.csv", text, line, match)


def test_load_bank_diagonal_and_header_defects(tmp_path):
    path = tmp_path / "bank.csv"
    text = bank_text(DIAGONAL, tmp_path)
    expect_line(load_bank, path, set_cell(text, 4, 5, "-1e-300"), 4, "negative variance")
    expect_line(load_bank, path, set_cell(text, 1, 1, "dim"), 1, "malformed bank header")
    expect_line(load_bank, path, set_cell(text, 1, 2, "mode=sparse"), 1, "malformed bank header")
    expect_line(load_bank, path, text + "0,1,0,0,0,0\n", 5, "expected 3 rows, found 4")
    expect_line(load_bank, path, "\n".join(text.split("\n")[:3]), 4, "expected 3 rows, found 2")


def check_bank(bank):
    assert len({st.class_id for st in bank.stats}) == bank.num_classes
    for st in bank.stats:
        assert st.count >= 0
        assert np.all(np.isfinite(st.mean)) and np.all(np.isfinite(st.cov))
        variances = np.diagonal(st.cov) if bank.mode == FULL else st.cov
        assert np.all(variances >= 0.0)
        if bank.mode == FULL:
            assert np.max(np.abs(st.cov - st.cov.T)) <= 1e-12 * np.trace(st.cov)


# -- load_model --------------------------------------------------------------


@pytest.mark.parametrize("line,cell,value,match", [
    (2, 2, "x", "row 'layers'"),
    (2, 2, "0", "layer sizes"),
    (3, 1, "0", "scale must be positive"),
    (4, 1, "-0.1", "margin must be nonnegative"),
    (5, 1, "2", "head_biases must be 0 or 1"),
    (6, 0, "W1", "expected row 'W0', found 'W1'"),
    (6, 3, "nan", "non-finite"),
    (7, 2, "1e999", "non-finite"),
])
def test_load_model_names_each_defect(tmp_path, line, cell, value, match):
    text = set_cell(model_text(tmp_path, biases=False), line, cell, value)
    expect_line(load_model, tmp_path / "model.csv", text, line, match)


def test_load_model_missing_and_misshapen_rows(tmp_path):
    path = tmp_path / "model.csv"
    text = model_text(tmp_path, biases=True)
    lines = text.split("\n")  # ..., line 10 HW, line 11 Hb, then ''
    expect_line(load_model, path, "\n".join(lines[:9]) + "\n", 10, "missing row 'HW'")
    expect_line(load_model, path, "\n".join(lines[:10]) + "\n", 11, "missing row 'Hb'")
    expect_line(load_model, path, "\n".join(lines[:10] + ["Hb,1,1"]) + "\n", 11,
                re.escape("row 'Hb' has 2 values, expected 3"))
    expect_line(load_model, path, "\n".join(lines[:9] + ["HW,1,2,3"] + lines[10:]), 10,
                "expected a positive multiple of 2")
    expect_line(load_model, path, "\n".join(lines[:5] + ["W0,1"] + lines[6:]), 6,
                re.escape("row 'W0' has 1 values, expected 12"))
    expect_line(load_model, path, text + "HW,1,2\n", 12, "unexpected row 'HW'")


def check_model(loaded):
    emb, head = loaded
    sizes = emb.layer_sizes
    for k, (W, b) in enumerate(zip(emb.weights, emb.biases)):
        assert W.shape == (sizes[k + 1], sizes[k]) and b.shape == (sizes[k + 1],)
        assert np.all(np.isfinite(W)) and np.all(np.isfinite(b))
    assert head.weights.shape[1] == sizes[-1] and np.all(np.isfinite(head.weights))
    assert head.scale > 0 and head.margin >= 0 and math.isfinite(head.scale)


# -- read_dataset --------------------------------------------------------------


def test_read_dataset_rejects_non_finite_features_and_negative_labels(tmp_path):
    path = tmp_path / "data.csv"
    text = dataset_text(tmp_path)
    expect_line(read_dataset, path, set_cell(text, 3, 1, "nan"), 3, "non-finite feature")
    expect_line(read_dataset, path, set_cell(text, 4, 2, "-inf"), 4, "non-finite feature")
    expect_line(read_dataset, path, set_cell(text, 5, 0, "-1"), 5, re.escape("outside [0, 2**63)"))
    expect_line(read_dataset, path, set_cell(text, 5, 0, str(2**63)), 5, "outside")


def check_dataset(ds):
    assert np.all(np.isfinite(ds.features)) and np.all(ds.labels >= 0)
    assert ds.features.shape == (ds.labels.size, ds.dim)
    assert set(ds.split.tolist()) <= {"train", "eval"}


# -- read_embeddings and read_trials -------------------------------------------


@pytest.mark.parametrize("line,cell,value,match", [
    (2, 1, "nan", "non-finite value"),
    (3, 2, "-inf", "non-finite value"),
    (4, 0, "3", "duplicate index 3"),
    (3, 0, "-1", re.escape("outside [0, 2**63)")),
    (3, 0, str(2**63), "outside"),
])
def test_read_embeddings_names_each_defect(tmp_path, line, cell, value, match):
    text = set_cell(embeddings_text(tmp_path), line, cell, value)
    expect_line(read_embeddings, tmp_path / "emb.csv", text, line, match)


@pytest.mark.parametrize("line,cell,value,match", [
    (2, 1, "0", "pairs index 0 with itself"),
    (3, 2, "7", "is_target must be 0 or 1, got 7"),
    (4, 2, "-1", "is_target must be 0 or 1"),
    (2, 0, "-2", "outside"),
    (4, 1, str(2**64), "outside"),
])
def test_read_trials_names_each_defect(tmp_path, line, cell, value, match):
    text = set_cell(trials_text(tmp_path), line, cell, value)
    expect_line(read_trials, tmp_path / "trials.csv", text, line, match)


@pytest.mark.parametrize("reader,text", [(read_embeddings, embeddings_text), (read_trials, trials_text)])
def test_overlong_field_names_the_line(tmp_path, reader, text):
    path = tmp_path / "file.csv"
    expect_line(reader, path, set_cell(text(tmp_path), 3, 1, "1" * 200_000), 3, "field larger")


def test_score_exits_2_on_bad_inputs(tmp_path, capsys):
    emb, trials = embeddings_text(tmp_path), trials_text(tmp_path)
    for bad_emb, bad_trials in ((set_cell(emb, 2, 1, "1" * 200_000), trials),
                                (set_cell(emb, 2, 1, "nan"), trials),
                                (emb, set_cell(trials, 2, 1, "0"))):
        (tmp_path / "emb.csv").write_text(bad_emb)
        (tmp_path / "trials.csv").write_text(bad_trials)
        assert entry(["score", "--out", str(tmp_path / "s"),
                      str(tmp_path / "emb.csv"), str(tmp_path / "trials.csv")]) == 2
        assert re.search(r"\.csv: line 2: ", capsys.readouterr().err)


def check_embeddings(embs):
    assert embs and all(isinstance(k, int) and 0 <= k < 2**63 for k in embs)
    dims = {v.shape for v in embs.values()}
    assert len(dims) == 1 and all(np.all(np.isfinite(v)) for v in embs.values())


def check_trials(trials):
    n = trials.index_a.size
    assert n > 0 and trials.index_b.shape == trials.is_target.shape == (n,)
    assert np.all(trials.index_a >= 0) and np.all(trials.index_b >= 0)
    assert not np.any(trials.index_a == trials.index_b)
    assert trials.is_target.dtype == bool


# -- fuzzing -------------------------------------------------------------------

CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "-1", "-0", "0", "1", "2", "3", "0.5",
                     "99999999999999999999999", "x", "=", "mode=full", "dim=2"]),
    st.text(max_size=6),
)


@st.composite
def mutated(draw, text):
    """A written file with one to three random edits: a cell replaced,
    dropped or inserted, a line dropped, duplicated or swapped, or a cut."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["set", "drop_cell", "add_cell", "drop", "dup", "swap", "cut"]))
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if op == "set":
            cells[j] = draw(CELLS)
        elif op == "drop_cell":
            del cells[j]
        elif op == "add_cell":
            cells.insert(j, draw(CELLS))
        elif op == "drop":
            cells = None
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            text = "\n".join(lines)
            return text[:draw(st.integers(0, len(text)))]
        if op in ("set", "drop_cell", "add_cell"):
            lines[i] = ",".join(cells)
        elif cells is None:
            del lines[i]
        if not lines:
            lines = [""]
    return "\n".join(lines)


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def fuzz_reader(reader, check, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        loaded = reader(path)
    except ValueError as exc:
        assert re.match(re.escape(f"{path}: line ") + r"\d+: ", str(exc)), str(exc)
    else:
        check(loaded)


@FUZZ
@given(data=st.data(), mode=st.sampled_from([FULL, DIAGONAL]))
def test_fuzzed_bank_files_load_or_name_the_line(tmp_path, data, mode):
    text = data.draw(mutated(bank_text(mode, tmp_path)))
    fuzz_reader(load_bank, check_bank, tmp_path / "bank.csv", text)


@FUZZ
@given(data=st.data(), biases=st.booleans())
def test_fuzzed_model_files_load_or_name_the_line(tmp_path, data, biases):
    text = data.draw(mutated(model_text(tmp_path, biases)))
    fuzz_reader(load_model, check_model, tmp_path / "model.csv", text)


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_files_load_or_name_the_line(tmp_path, data):
    text = data.draw(mutated(dataset_text(tmp_path)))
    fuzz_reader(read_dataset, check_dataset, tmp_path / "data.csv", text)


@FUZZ
@given(data=st.data())
def test_fuzzed_embedding_files_load_or_name_the_line(tmp_path, data):
    text = data.draw(mutated(embeddings_text(tmp_path)))
    fuzz_reader(read_embeddings, check_embeddings, tmp_path / "emb.csv", text)


@FUZZ
@given(data=st.data())
def test_fuzzed_trial_files_load_or_name_the_line(tmp_path, data):
    text = data.draw(mutated(trials_text(tmp_path)))
    fuzz_reader(read_trials, check_trials, tmp_path / "trials.csv", text)
