"""Synthetic multi-class datasets with a controllable difficulty knob,
plus the dataset and embedding CSV formats.

Class centers are drawn uniformly on the unit sphere; a configurable
fraction of center pairs is then re-placed at a small angular separation
(5 to 15 degrees), which makes those classes genuinely confusable.
Samples are the center plus Gaussian noise with one boosted variation
direction per class.  For hard-pair members that direction points
(noisily) at the partner center, so their scatter is elongated exactly
along the axis that confuses the pair; a per-class covariance model can
exploit that structure, an isotropic margin cannot.  Inputs are left
un-normalized; normalization happens inside the embedding network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .rng import philox_rng


@dataclass
class SynthSpec:
    num_classes: int = 20
    dim: int = 20
    samples_per_class: int = 60
    sigma: float = 0.3
    anisotropy: float = 0.65
    hard_pair_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.samples_per_class < 2:
            raise ValueError(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.anisotropy < 1.0:
            raise ValueError(f"anisotropy must be in [0, 1), got {self.anisotropy}")
        if not 0.0 <= self.hard_pair_fraction <= 1.0:
            raise ValueError(f"hard_pair_fraction must be in [0, 1], got {self.hard_pair_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


TRAIN, EVAL = "train", "eval"


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.split = np.asarray(self.split)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ValueError("features, labels and split must have equal length")
        bad = set(np.unique(self.split)) - {TRAIN, EVAL}
        if bad:
            raise ValueError(f"unknown split tags {sorted(bad)}")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def indices(self, split: str) -> np.ndarray:
        return np.nonzero(self.split == split)[0]


def generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset: equal SynthSpec, equal bytes.

    The eval split takes the last round(0.2 * samples_per_class) samples
    of each class (clamped so both splits stay nonempty), which keeps the
    eval fraction within one sample of 20% per class.
    """
    rng = philox_rng(spec.seed, 0)
    C, d, n = spec.num_classes, spec.dim, spec.samples_per_class

    centers = rng.standard_normal((C, d))
    centers /= np.linalg.norm(centers, axis=1)[:, None]

    num_hard = round(spec.hard_pair_fraction * (C // 2))
    partner = {}
    for i in range(num_hard):
        a, b = 2 * i, 2 * i + 1
        u = centers[a]
        r = rng.standard_normal(d)
        r -= (r @ u) * u
        r /= np.linalg.norm(r)
        angle = rng.uniform(math.radians(5.0), math.radians(15.0))
        centers[b] = math.cos(angle) * u + math.sin(angle) * r
        partner[a], partner[b] = b, a

    # One boosted scatter direction per class; hard-pair members aim it
    # at their partner (with jitter) so the confusable axis carries the
    # extra variance.
    boost = 3.0 * spec.anisotropy
    dirs = np.zeros((C, d))
    for c in range(C):
        if c in partner:
            u = centers[partner[c]] - centers[c]
            u = u / np.linalg.norm(u) + 0.3 * rng.standard_normal(d)
        else:
            u = rng.standard_normal(d)
        dirs[c] = u / np.linalg.norm(u)

    eval_n = min(max(int(round(0.2 * n)), 1), n - 1)
    feats = np.empty((C * n, d))
    labels = np.empty(C * n, dtype=int)
    split = np.empty(C * n, dtype=object)
    for c in range(C):
        z = rng.standard_normal((n, d))
        g = rng.standard_normal((n, 1))
        noise = spec.sigma * (z + boost * g * dirs[c])
        feats[c * n:(c + 1) * n] = centers[c] + noise
        labels[c * n:(c + 1) * n] = c
        split[c * n:(c + 1) * n - eval_n] = TRAIN
        split[(c + 1) * n - eval_n:(c + 1) * n] = EVAL
    return Dataset(features=feats, labels=labels, split=np.array(split, dtype=str))


FLOAT = "%.17g"  # 17 significant digits: every float64 round-trips bit-exactly


def float_cells(n: int) -> str:
    """The ``%`` template of ``n`` comma-separated :data:`FLOAT` cells."""
    return ",".join([FLOAT] * n)


def write_csv(path, header: list, lines) -> None:
    """Write a header line, then one CSV line per ``(template, values)``
    pair, formatted by a single ``%``.  Lines end in ``"\\r\\n"``: the
    bytes are those ``csv.writer`` writes for the same cells, which are
    numbers and fixed names it never quotes.  Lines go out as ``lines``
    yields them, so no file is held in memory."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for template, values in lines:
            fh.write(template % values)
            fh.write("\r\n")


def write_dataset(dataset: Dataset, path) -> None:
    d = dataset.dim
    row = "%d," + float_cells(d) + ",%s"
    write_csv(path, ["label"] + [f"x{i}" for i in range(d)] + ["split"],
              ((row, (label, *x.tolist(), tag)) for label, x, tag in
               zip(dataset.labels.tolist(), dataset.features, dataset.split.tolist())))


def read_csv_rows(path) -> list[list[str]]:
    """Every row of a CSV file, a blank line as an empty list.  An empty
    file, one that is not UTF-8, or one the csv module rejects (a field
    over its size limit, say), raises ``ValueError("<path>: line N: ...")``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise utf8_error(path) from None
    if not rows:
        raise ValueError(f"{path}: line 1: empty file")
    return rows


def utf8_error(path) -> ValueError:
    """The ``ValueError("<path>: line N: ...")`` for a file that does not
    decode as UTF-8, N being the line of its first undecodable byte.  A
    newline byte never sits inside a UTF-8 sequence, so the file decodes
    exactly when each of its lines does."""
    with open(path, "rb") as fh:
        for ln, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}: line {ln}: {exc}")
    raise AssertionError(f"{path}: every line decodes as UTF-8")


def data_rows(path, rows: list, width: int):
    """Yield (line number, fields) for each non-blank row after the header
    line.  A row without ``width`` fields, or no such row at all, raises
    ``ValueError("<path>: line N: ...")``."""
    if not any(rows[1:]):
        raise ValueError(f"{path}: line {len(rows) + 1}: no data rows")
    for ln, row in enumerate(rows[1:], start=2):
        if row:
            if len(row) != width:
                raise ValueError(f"{path}: line {ln}: expected {width} fields, got {len(row)}")
            yield ln, row


def first_bad_line(path, rows: list, width: int, check) -> None:
    """Raise ``ValueError("<path>: line N: ...")`` for the first data row
    that :func:`data_rows` or ``check(fields)`` rejects; ``check`` rejects
    by raising ``ValueError`` or by returning a message.  A reader that
    checks its rows as one block calls this only once the block failed,
    to name the line a row-by-row reader would name."""
    for ln, row in data_rows(path, rows, width):
        try:
            message = check(row)
        except ValueError as exc:
            message = str(exc)
        if message:
            raise ValueError(f"{path}: line {ln}: {message}")
    raise AssertionError(f"{path}: the block check failed but every row passes")


def read_dataset(path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Every defect, including a non-finite feature or a label outside
    [0, 2**63), raises ``ValueError("<path>: line N: ...")``.  The feature
    block is cast to float in one call and checked finite in one call;
    only a file that fails goes row by row to find its first bad line.
    """
    rows = read_csv_rows(path)
    header = rows[0]
    if len(header) < 3 or header[0] != "label" or header[-1] != "split":
        raise ValueError(f"{path}: line 1: expected header 'label,x0,...,split'")
    d = len(header) - 2
    if header[1:-1] != [f"x{i}" for i in range(d)]:
        raise ValueError(f"{path}: line 1: malformed feature columns")
    body = [row for row in rows[1:] if row]
    try:
        labels = [int(row[0]) for row in body]
        feats = np.array([row[1:-1] for row in body], dtype=float)
        split = [row[-1] for row in body]
        ok = (body and all(len(row) == d + 2 for row in body)
              and min(labels) >= 0 and max(labels) < 2**63 and np.isfinite(feats).all()
              and set(split) <= {TRAIN, EVAL})
    except ValueError:
        ok = False
    if not ok:
        def check(row):
            label, x = int(row[0]), [float(v) for v in row[1:-1]]
            if not 0 <= label < 2**63:
                return f"label {label} outside [0, 2**63)"
            if not all(map(math.isfinite, x)):
                return "non-finite feature"
            if row[-1] not in (TRAIN, EVAL):
                return f"unknown split tag {row[-1]!r}"
        first_bad_line(path, rows, d + 2, check)
    return Dataset(features=feats, labels=np.array(labels), split=np.array(split))


def write_embeddings(path, indices, vectors) -> None:
    """Embedding CSV: header 'index,e0,...,e{F-1}', one row per vector."""
    V = np.asarray(vectors, dtype=float)
    row = "%d," + float_cells(V.shape[1])
    write_csv(path, ["index"] + [f"e{i}" for i in range(V.shape[1])],
              ((row, (int(idx), *e.tolist())) for idx, e in zip(indices, V)))


def read_embeddings(path) -> dict[int, np.ndarray]:
    """Read an embedding CSV written by :func:`write_embeddings`.

    Every defect, including a non-finite value, an index outside
    [0, 2**63) or a repeated index, raises ``ValueError("<path>: line N: ...")``.
    As in :func:`read_dataset`, the value block is cast and checked at once.
    """
    rows = read_csv_rows(path)
    header = rows[0]
    if len(header) < 2 or header[0] != "index":
        raise ValueError(f"{path}: line 1: expected header 'index,e0,...'")
    width = len(header)
    body = [row for row in rows[1:] if row]
    try:
        indices = [int(row[0]) for row in body]
        E = np.array([row[1:] for row in body], dtype=float)
        ok = (body and all(len(row) == width for row in body)
              and min(indices) >= 0 and max(indices) < 2**63
              and len(set(indices)) == len(indices) and np.isfinite(E).all())
    except ValueError:
        ok = False
    if not ok:
        seen = set()

        def check(row):
            idx, e = int(row[0]), [float(v) for v in row[1:]]
            if not 0 <= idx < 2**63:
                return f"index {idx} outside [0, 2**63)"
            if idx in seen:
                return f"duplicate index {idx}"
            seen.add(idx)
            if not all(map(math.isfinite, e)):
                return "non-finite value"
        first_bad_line(path, rows, width, check)
    return dict(zip(indices, E))
