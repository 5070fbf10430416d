"""Every file reader returns a valid object or raises ValueError naming the
path and line: targeted defects, then hypothesis fuzzing of written files
(raw bytes that are not UTF-8 included), then the block readers of dataset,
embedding and trial files against the row-by-row readers they replaced."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semaug import metrics
from semaug.cli import entry
from semaug.config import REGISTRY, parse_config_file, resolve, serialize
from semaug.covariance import DIAGONAL, FULL, CovarianceBank, load_bank, save_bank
from semaug.data import (
    EVAL,
    TRAIN,
    Dataset,
    SynthSpec,
    generate,
    read_csv_rows,
    read_dataset,
    read_embeddings,
    write_dataset,
    write_embeddings,
)
from semaug.embedder import TinyEmbedder
from semaug.losses import ClassifierHead
from semaug.metrics import TRIALS_HEADER, TrialSet, read_trials, write_trials
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


def config_text(tmp_path):
    return serialize(resolve())


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
    (2, 1, str(2**63), "count 9223372036854775808 too large"),  # the bank's counts are int64
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


def test_load_bank_blank_lines(tmp_path):
    path = tmp_path / "bank.csv"
    text = bank_text(DIAGONAL, tmp_path)
    expect_line(load_bank, path, "", 1, "empty bank file")
    expect_line(load_bank, path, "\n \n\t\n", 1, "empty bank file")
    lines = text.split("\n")
    path.write_text("\n".join(lines[:2] + ["  ", "\t"] + lines[2:]))
    want = load_bank(tmp_path / "written_bank.csv")
    got = load_bank(path)
    for g, w in zip(got.stats, want.stats):
        assert (g.class_id, g.count) == (w.class_id, w.count)
        assert g.mean.tobytes() == w.mean.tobytes() and g.cov.tobytes() == w.cov.tobytes()
    # a line of commas and spaces is not blank: it is a row with too few cells
    expect_line(load_bank, path, "\n".join(lines[:2] + [" , "] + lines[3:]), 3, "expected 6 cells, got 2")


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
    # the first and the last data row: the bounds of the bisection
    expect_line(read_dataset, path, set_cell(text, 2, 3, "dev"), 2, "unknown split tag 'dev'")
    expect_line(read_dataset, path, set_cell(text, 7, 0, "x"), 7, "invalid literal for int")


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
    (2, 0, "x", "invalid literal for int"),
    (4, 2, "inf", "non-finite value"),
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
    (4, 2, str(2**63), "is_target must be 0 or 1, got 9223372036854775808"),
    (2, 0, "1.5", "invalid literal for int"),
    (4, 0, "7", "pairs index 7 with itself"),
])
def test_read_trials_names_each_defect(tmp_path, line, cell, value, match):
    text = set_cell(trials_text(tmp_path), line, cell, value)
    expect_line(read_trials, tmp_path / "trials.csv", text, line, match)


@pytest.mark.parametrize("reader,text,early,late,match", [
    (read_dataset, dataset_text, (3, 1, "nan"), (5, 1, "0,0"), "non-finite feature"),
    (read_dataset, dataset_text, (3, 3, "test"), (5, 0, "x"), "unknown split tag 'test'"),
    (read_embeddings, embeddings_text, (2, 1, "nan"), (4, 0, "x"), "non-finite value"),
    (read_embeddings, embeddings_text, (3, 0, "3"), (4, 1, "1,2"), "duplicate index 3"),
    (read_trials, trials_text, (2, 2, "7"), (4, 1, "0,0"), "is_target must be 0 or 1, got 7"),
    (read_trials, trials_text, (3, 0, "7"), (4, 0, "x"), "pairs index 7 with itself"),
])
def test_an_earlier_row_breaking_a_later_rule_is_named_first(tmp_path, reader, text, early, late, match):
    """The earlier row breaks a rule checked after the cast and width rules
    that the later row breaks; the earlier row's line is the one named."""
    bad = set_cell(set_cell(text(tmp_path), *late), *early)
    expect_line(reader, tmp_path / "file.csv", bad, early[0], match)


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
                     "99999999999999999999999", "x", "=", "mode=full", "dim=2",
                     "1_0", "1__0", "\u0661", "0x1p3", "5e-324", "1e-400", " 2 ", "infinity"]),
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


@st.composite
def mutated_bytes(draw, text):
    """A :func:`mutated` file as bytes, with up to two runs of raw bytes
    dropped in at random offsets, which often leave it no longer UTF-8."""
    data = draw(mutated(text)).encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.binary(min_size=1, max_size=2)) + data[i:]
    return data


def first_undecodable_line(data):
    """1-based line of the first byte that is not UTF-8, or None."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def fuzz_reader(reader, check, path, data):
    path.write_bytes(data)
    bad_line = first_undecodable_line(data)
    try:
        loaded = reader(path)
    except ValueError as exc:
        assert re.match(re.escape(f"{path}: line ") + r"\d+: ", str(exc)), str(exc)
        if bad_line is not None:
            assert str(exc).startswith(f"{path}: line {bad_line}: "), str(exc)
    else:
        assert bad_line is None
        check(loaded)


@FUZZ
@given(data=st.data(), mode=st.sampled_from([FULL, DIAGONAL]))
def test_fuzzed_bank_files_load_or_name_the_line(tmp_path, data, mode):
    raw = data.draw(mutated_bytes(bank_text(mode, tmp_path)))
    fuzz_reader(load_bank, check_bank, tmp_path / "bank.csv", raw)


@FUZZ
@given(data=st.data(), biases=st.booleans())
def test_fuzzed_model_files_load_or_name_the_line(tmp_path, data, biases):
    raw = data.draw(mutated_bytes(model_text(tmp_path, biases)))
    fuzz_reader(load_model, check_model, tmp_path / "model.csv", raw)


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_files_load_or_name_the_line(tmp_path, data):
    raw = data.draw(mutated_bytes(dataset_text(tmp_path)))
    fuzz_reader(read_dataset, check_dataset, tmp_path / "data.csv", raw)


@FUZZ
@given(data=st.data())
def test_fuzzed_embedding_files_load_or_name_the_line(tmp_path, data):
    raw = data.draw(mutated_bytes(embeddings_text(tmp_path)))
    fuzz_reader(read_embeddings, check_embeddings, tmp_path / "emb.csv", raw)


@FUZZ
@given(data=st.data())
def test_fuzzed_trial_files_load_or_name_the_line(tmp_path, data):
    raw = data.draw(mutated_bytes(trials_text(tmp_path)))
    fuzz_reader(read_trials, check_trials, tmp_path / "trials.csv", raw)


def check_config(values):
    assert set(values) <= set(REGISTRY)


@FUZZ
@given(data=st.data())
def test_fuzzed_config_files_parse_or_name_the_line(tmp_path, data):
    raw = data.draw(mutated_bytes(config_text(tmp_path)))
    fuzz_reader(parse_config_file, check_config, tmp_path / "run.config", raw)


# -- non-UTF-8 input -------------------------------------------------------------


READERS = [
    (read_dataset, dataset_text),
    (read_embeddings, embeddings_text),
    (read_trials, trials_text),
    (load_model, lambda tmp_path: model_text(tmp_path, biases=True)),
    (load_bank, lambda tmp_path: bank_text(FULL, tmp_path)),
    (parse_config_file, config_text),
]


@pytest.mark.parametrize("reader,text", READERS)
def test_non_utf8_byte_names_path_and_line(tmp_path, reader, text):
    lines = text(tmp_path).encode("utf-8").split(b"\n")
    path = tmp_path / "input"
    path.write_bytes(b"\n".join(lines[:2] + [lines[2][:3] + b"\xff" + lines[2][3:]] + lines[3:]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + ".*can't decode byte 0xff"):
        reader(path)
    # a multi-byte sequence cut short by the end of the file
    path.write_bytes(b"\n".join(lines[:3]) + b"\n\xc3")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ") + ".*unexpected end of data"):
        reader(path)


def test_cli_exits_2_naming_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    cfg = tmp_path / "bad.config"
    cfg.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    assert entry(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2
    assert f"{cfg}: line 2: " in capsys.readouterr().err
    data = tmp_path / "bad.csv"
    data.write_bytes(dataset_text(tmp_path).encode("utf-8").replace(b"train", b"tr\xffin", 2))
    assert entry(["train", "--out", str(tmp_path / "t"), "--set", f"train.dataset={data}"]) == 2
    assert f"{data}: line 2: " in capsys.readouterr().err


# -- physical line numbers after a quoted line break -----------------------------


def quote_break(text, line, cell):
    """Quote one cell of a 1-based line with a line break inside it, which
    moves every later row one physical line down."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[cell] = f'"{cells[cell]}\n"'
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def test_embedding_file_with_a_quoted_line_break_names_the_physical_line(tmp_path):
    path = tmp_path / "emb.csv"
    expect_line(read_embeddings, path, 'index,e0,e1\r\n0,"1\r\n",3\r\n1,nan,2\r\n', 4, "non-finite value")
    expect_line(read_embeddings, path, 'index,"e0\r\n"\r\n', 3, "no data rows")


@pytest.mark.parametrize("reader,text,quoted,defect,line,match", [
    (read_dataset, dataset_text, (2, 1), (4, 1, "nan"), 5, "non-finite feature"),
    (read_embeddings, embeddings_text, (2, 1), (3, 1, "nan"), 4, "non-finite value"),
    (read_trials, trials_text, (2, 0), (3, 2, "7"), 4, "is_target must be 0 or 1"),
    (load_model, lambda p: model_text(p, biases=False), (3, 1), (6, 3, "nan"), 7, "non-finite"),
    (load_bank, lambda p: bank_text(FULL, p), (2, 2), (3, 1, "-1"), 4, "negative count"),
])
def test_each_reader_names_the_physical_line_after_a_quoted_line_break(
        tmp_path, reader, text, quoted, defect, line, match):
    clean = quote_break(text(tmp_path), *quoted)
    path = tmp_path / "file.csv"
    path.write_text(clean)
    reader(path)  # a quoted line break alone is no defect
    expect_line(reader, path, quote_break(set_cell(text(tmp_path), *defect), *quoted), line, match)


def test_missing_rows_are_named_after_a_last_row_that_spans_lines(tmp_path):
    text = "\n".join(bank_text(FULL, tmp_path).split("\n")[:3])  # a row short, no final newline
    expect_line(load_bank, tmp_path / "bank.csv", quote_break(text, 3, 2), 5, "expected 3 rows, found 2")
    lines = model_text(tmp_path, biases=True).split("\n")  # ..., line 10 HW, line 11 Hb
    text = quote_break("\n".join(lines[:10]) + "\n", 10, 1)
    expect_line(load_model, tmp_path / "model.csv", text, 12, "missing row 'Hb'")


# -- block readers against the row-by-row readers --------------------------------


def data_rows(path, rows: list, lines, width: int):
    """Yield (line number, fields) for each non-blank row after the header
    row, ``lines`` numbering the rows as :func:`read_csv_rows` does.  A row
    without ``width`` fields, or no such row at all, raises
    ``ValueError("<path>: line N: ...")``."""
    if not any(rows[1:]):
        raise ValueError(f"{path}: line {lines[-1]}: no data rows")
    for ln, row in zip(lines[1:], rows[1:]):
        if row:
            if len(row) != width:
                raise ValueError(f"{path}: line {ln}: expected {width} fields, got {len(row)}")
            yield ln, row


def read_dataset_per_row(path):
    """Oracle: the row-by-row reader that read_dataset replaced."""
    rows, lines = read_csv_rows(path)
    header = rows[0]
    if len(header) < 3 or header[0] != "label" or header[-1] != "split":
        raise ValueError(f"{path}: line 1: expected header 'label,x0,...,split'")
    d = len(header) - 2
    if header[1:-1] != [f"x{i}" for i in range(d)]:
        raise ValueError(f"{path}: line 1: malformed feature columns")
    labels, feats, split = [], [], []
    for ln, row in data_rows(path, rows, lines, d + 2):
        try:
            label = int(row[0])
            x = [float(v) for v in row[1:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        if not 0 <= label < 2**63:
            raise ValueError(f"{path}: line {ln}: label {label} outside [0, 2**63)")
        if not all(math.isfinite(v) for v in x):
            raise ValueError(f"{path}: line {ln}: non-finite feature")
        if row[-1] not in (TRAIN, EVAL):
            raise ValueError(f"{path}: line {ln}: unknown split tag {row[-1]!r}")
        labels.append(label)
        feats.append(x)
        split.append(row[-1])
    return Dataset(features=np.array(feats), labels=np.array(labels), split=np.array(split))


def read_embeddings_per_row(path):
    """Oracle: the row-by-row reader that read_embeddings replaced."""
    rows, lines = read_csv_rows(path)
    header = rows[0]
    if len(header) < 2 or header[0] != "index":
        raise ValueError(f"{path}: line 1: expected header 'index,e0,...'")
    out = {}
    for ln, row in data_rows(path, rows, lines, len(header)):
        try:
            idx = int(row[0])
            e = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        if not 0 <= idx < 2**63:
            raise ValueError(f"{path}: line {ln}: index {idx} outside [0, 2**63)")
        if idx in out:
            raise ValueError(f"{path}: line {ln}: duplicate index {idx}")
        if not all(math.isfinite(v) for v in e):
            raise ValueError(f"{path}: line {ln}: non-finite value")
        out[idx] = np.array(e)
    return out


def read_trials_per_row(path):
    """Oracle: the row-by-row reader that read_trials replaced."""
    ia, ib, tg = [], [], []
    rows, lines = read_csv_rows(path)
    if rows[0] != ["index_a", "index_b", "is_target"]:
        raise ValueError(f"{path}: line 1: expected header 'index_a,index_b,is_target'")
    for ln, row in data_rows(path, rows, lines, 3):
        try:
            a, b, t = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        if not (0 <= a < 2**63 and 0 <= b < 2**63):
            raise ValueError(f"{path}: line {ln}: index outside [0, 2**63)")
        if a == b:
            raise ValueError(f"{path}: line {ln}: trial pairs index {a} with itself")
        if t not in (0, 1):
            raise ValueError(f"{path}: line {ln}: is_target must be 0 or 1, got {t}")
        ia.append(a)
        ib.append(b)
        tg.append(t == 1)
    return TrialSet(index_a=np.array(ia), index_b=np.array(ib), is_target=np.array(tg))


def outcome(reader, path):
    try:
        return reader(path), None
    except ValueError as exc:
        return None, str(exc)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@FUZZ
@given(data=st.data())
def test_read_dataset_agrees_with_the_row_reader(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data.draw(mutated_bytes(dataset_text(tmp_path))))
    (got, err), (want, want_err) = outcome(read_dataset, path), outcome(read_dataset_per_row, path)
    assert err == want_err
    if want is not None:
        assert same_bits(got.features, want.features)
        assert got.labels.tolist() == want.labels.tolist() and got.split.tolist() == want.split.tolist()


@FUZZ
@given(data=st.data())
def test_read_embeddings_agrees_with_the_row_reader(tmp_path, data):
    path = tmp_path / "emb.csv"
    path.write_bytes(data.draw(mutated_bytes(embeddings_text(tmp_path))))
    (got, err), (want, want_err) = outcome(read_embeddings, path), outcome(read_embeddings_per_row, path)
    assert err == want_err
    if want is not None:
        assert list(got) == list(want)
        assert all(same_bits(got[k], want[k]) for k in want)


def same_trials(got, want):
    return all(getattr(got, name).dtype == getattr(want, name).dtype
               and getattr(got, name).tolist() == getattr(want, name).tolist()
               for name in ("index_a", "index_b", "is_target"))


# spellings of a cell's value that numpy's tokenizer might read more loosely than ``int``
LOOSE_CELLS = ["\x1c{}", "{}\x1c", "0" * 5000 + "{}", "0{}", " {} ", "+{}", "{}.0", "{}e0", '"{}"', "\u0660{}"]


@st.composite
def trial_tables(draw):
    """Trial files of a few rows of random cells, mostly valid, so that
    valid files, self-pairs, targets other than 0 or 1, negative and
    int64-overflowing indices and ragged rows are all common; and the
    inputs numpy's tokenizer might read more loosely than the csv module
    and ``int``: bare ``\\n`` and ``\\r`` line ends, ``#`` rows, quoted
    cells, whitespace-only lines, a byte-order mark, float, signed and
    zero-padded spellings, non-ASCII digits, a leading ``\\x1c`` and
    trailing commas.  Half the files are the writer's plain form (the
    exact header, valid rows, every line ended by ``\\r\\n``) but for one
    cell in one of those loose spellings: only such a file tells a block
    read that checks its input too little from the row read."""
    if draw(st.booleans()):
        valid = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1)).filter(lambda r: r[0] != r[1])
        rows = [list(map(str, r)) for r in draw(st.lists(valid, min_size=1, max_size=5))]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[i][j] = draw(st.sampled_from(LOOSE_CELLS)).format(rows[i][j])
        return "".join(",".join(line) + "\r\n" for line in [TRIALS_HEADER] + rows).encode()
    index = st.one_of(st.integers(0, 4).map(str),
                      st.sampled_from(["-1", str(2**63 - 1), str(2**63), "1_0", " 2 ", "x", "1e3", "1.0",
                                       "+1", "\u0663", '"1"', "01", "\x1c2", "0" * 5000 + "3"]))
    target = st.sampled_from(["0", "1"]) | st.sampled_from(["-1", "2", "01", "x", "1.0", "+1", "\u0661"])
    row = (st.tuples(index, index, target).map(",".join) | st.lists(index, max_size=4).map(",".join)
           | st.sampled_from(["# x", " ", "\t", "0,1,1,", '"0",1,1']))
    header = st.just("index_a,index_b,is_target") | st.just("\ufeffindex_a,index_b,is_target")
    end = st.just("\r\n") | st.sampled_from(["\n", "\r"])
    lines = [draw(header)] + draw(st.lists(row, max_size=5))
    return "".join(line + draw(end) for line in lines).encode()


@FUZZ
@given(data=st.data())
def test_read_trials_agrees_with_the_row_reader(tmp_path, data):
    path = tmp_path / "trials.csv"
    path.write_bytes(data.draw(st.one_of(mutated_bytes(trials_text(tmp_path)), trial_tables())))
    (got, err), (want, want_err) = outcome(read_trials, path), outcome(read_trials_per_row, path)
    assert err == want_err
    assert want is None or same_trials(got, want)


LOOSE_TRIAL_BODIES = {
    "lf": "0,1,1\n2,3,0\n",
    "cr": "0,1,1\r2,3,0\r",
    "blank-lines": "0,1,1\r\r\n\r\n2,3,0",
    "comment": "0,1,1\r\n# x\r\n",
    "quoted": '"0",1,1\r\n',
    "space-line": "0,1,1\r\n \r\n",
    "tab-line": "0,1,1\r\n\t\r\n",
    "exponent": "1e3,1,1\r\n",
    "point": "1.0,2,1\r\n",
    "point-target": "2,1,1.0\r\n",
    "plus": "+1,2,1\r\n",
    "arabic-digit": "\u0663,1,1\r\n",
    "arabic-target": "2,1,\u0661\r\n",
    "trailing-comma": "0,1,1,\r\n",
    "leading-x1c": "\x1c2,1,1\r\n",
    "trailing-x1c": "2\x1c,1,1\r\n",
    "nul": "2,1,1\x00\r\n",
    "zero-padded": "01,2,1\r\n",
    "past-int-digits": "0" * 5000 + "2,1,1\r\n",
    "past-field-limit": " " * 200_000 + "2,1,1\r\n",
}


@pytest.mark.parametrize("body", LOOSE_TRIAL_BODIES)
@pytest.mark.parametrize("bom", [False, True])
def test_read_trials_agrees_with_the_row_reader_on_loose_spellings(tmp_path, bom, body):
    """Each spelling numpy's tokenizer might read more loosely than the csv
    module and ``int``, in a file that otherwise passes for the writer's."""
    path = tmp_path / "trials.csv"
    header = "\ufeff" * bom + "index_a,index_b,is_target\r\n"
    path.write_text(header + LOOSE_TRIAL_BODIES[body], encoding="utf-8", newline="")
    (got, err), (want, want_err) = outcome(read_trials, path), outcome(read_trials_per_row, path)
    assert err == want_err
    assert want is None or same_trials(got, want)


def test_read_trials_takes_the_block_read_on_written_files(tmp_path, monkeypatch):
    """The writer's output, at 1, 2 and 1,500 rows with indices up to
    2**63 - 1, never reaches the row read; the same file with bare
    ``\\n`` line ends does."""
    def no_row_read(path):
        raise AssertionError("read row by row")

    monkeypatch.setattr(metrics, "read_csv_rows", no_row_read)
    path = tmp_path / "trials.csv"
    for n in (1, 2, 1500):
        rng = philox_rng(305 + n)
        a = rng.integers(0, 2**63 - 1, n) if n > 1 else np.array([0])
        trials = TrialSet(index_a=a, index_b=a + 1, is_target=rng.integers(0, 2, n) == 1)
        write_trials(path, trials)
        assert same_trials(read_trials(path), trials)
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    with pytest.raises(AssertionError, match="read row by row"):
        read_trials(path)
