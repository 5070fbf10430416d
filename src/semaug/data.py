"""Synthetic multi-class datasets with a controllable difficulty knob,
plus every CSV table format: the dialect and the 17-digit float cell of
each table the package writes (all through the one chunked
``write(template, rows)`` of :func:`open_csv`) or reads
(:func:`read_csv_rows`, and :func:`read_int_block` for a clean integer
table) live here alone.  The one exception is the ``bank.csv`` writer,
``covariance.save_bank``, whose ``\\n`` line ends and ``key=value`` header
``bench/checks.py`` parses.

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
import io
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

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
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
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
        if not set(np.unique(self.split)) <= {TRAIN, EVAL}:
            tag = next(s for s in self.split.tolist() if s not in (TRAIN, EVAL))
            raise ValueError(f"unknown split tag {str(tag)!r}")

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


CHUNK_ROWS = 1024  # rows formatted by one ``%`` and written by one ``fh.write``


@contextmanager
def open_csv(path, header: list):
    """Create ``path``, write its header line and hand back
    ``write(template, rows)``, which writes one line per row of ``rows``
    as it comes: each chunk of :data:`CHUNK_ROWS` rows is formatted by a
    single ``%`` over ``template`` repeated, each copy ended by ``"\\r\\n"``,
    and written by one ``fh.write``.  These are the bytes ``csv.writer``
    writes for the same cells, numbers and fixed names it never quotes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")

        def write(template: str, rows) -> None:
            line = template + "\r\n"
            rows = iter(rows)
            for first in rows:  # a chunk: this row and up to CHUNK_ROWS - 1 more, all as wide
                cells = (*first, *chain.from_iterable(islice(rows, CHUNK_ROWS - 1)))
                fh.write(line * (len(cells) // len(first)) % cells)

        yield write


def write_csv(path, header: list, template: str, rows) -> None:
    """Write the header and one ``template`` line per tuple of ``rows``
    through :func:`open_csv`, never a whole file in memory."""
    with open_csv(path, header) as write:
        write(template, rows)


def write_dataset(dataset: Dataset, path) -> None:
    d = dataset.dim
    write_csv(path, ["label"] + [f"x{i}" for i in range(d)] + ["split"], "%d," + float_cells(d) + ",%s",
              zip(dataset.labels.tolist(), *dataset.features.T.tolist(), dataset.split.tolist()))


def read_csv_rows(path) -> tuple[list[list[str]], range | list[int]]:
    """Every row of a CSV file, a blank line as an empty list, and the
    physical line each row starts on: ``lines[i]`` for row i, with one more
    entry, ``lines[-1]``, the line after the last row.  A row starts on
    line i + 1 unless a quoted field before it holds a line break.  An
    empty file, one that is not UTF-8, or one the csv module rejects (a
    field over its size limit, say), raises ``ValueError("<path>: line N: ...")``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
            if reader.line_num == len(rows):
                lines = range(1, len(rows) + 2)
            else:  # some row spans lines: read again, noting where each ends
                fh.seek(0)
                reader = csv.reader(fh)
                lines = [1] + [reader.line_num + 1 for _ in reader]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise utf8_error(path) from None
    if not rows:
        raise ValueError(f"{path}: line 1: empty file")
    return rows, lines


def read_int_block(path, header: list, width: int) -> np.ndarray | None:
    """The (N, ``width``) int64 block of a file in the plain form the
    writers give an integer table: the ``header`` line ended by
    ``"\\r\\n"``, then N > 0 rows of decimal cells with no sign and no
    leading zero, each line ended by ``"\\r\\n"``, ``"\\r"`` or ``"\\n"``.
    numpy's C tokenizer reads it.  Any other file, or an error or warning
    on the way, gives None, and the caller reads the file with
    :func:`read_csv_rows`.  In the plain form the block is the one ``int``
    gives cell by cell; outside it the two can differ: numpy strips a
    ``"\\x1c"`` that ``int`` rejects, and reads leading zeros past
    ``int``'s digit limit or the csv module's field limit."""
    head = (",".join(header) + "\r\n").encode()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(head):
            return None
        body = data[len(head):]
        separators = body.translate(None, b"0123456789")
        if separators.translate(None, b",\r\n"):
            return None  # a byte besides digits, commas and line ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=np.int64, delimiter=",",
                               comments=None, quotechar=None, ndmin=2)
    except (OSError, ValueError, Warning):  # a warning raised as an error
        return None
    if block.shape[0] == 0 or block.shape[1] != width:
        return None
    if shortest_digits(block) != len(body) - len(separators):
        return None  # some cell has a leading zero
    return block


def shortest_digits(cells: np.ndarray) -> int:
    """The number of digits of the non-negative ``cells`` written without leading zeros."""
    total = cells.size
    for k in range(1, 19):
        above = int(np.count_nonzero(cells >= 10**k))
        if not above:
            break
        total += above
    return total


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


def parse_rows(path, rows: list, lines, width: int, parse):
    """``parse(block)`` of the non-blank rows after the header row.  No
    such row, a row not ``width`` fields wide, or a ``ValueError`` from
    ``parse`` raises ``ValueError("<path>: line N: <message>")``, ``lines``
    numbering the rows as :func:`read_csv_rows` does.  N and the message are
    those of the shortest failing prefix, found by bisection with the same
    checks: its last row is the first bad row, because a rule of ``parse``
    may look back at earlier rows but never ahead."""
    body = [row for row in rows[1:] if row]
    if not body:
        raise ValueError(f"{path}: line {lines[-1]}: no data rows")

    def attempt(block):
        for row in block:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
        return parse(block)

    try:
        return attempt(body)
    except ValueError as exc:
        message = str(exc)
    ok, bad = 0, len(body)  # the prefix of ok rows passes, that of bad rows fails
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            attempt(body[:mid])
            ok = mid
        except ValueError as exc:
            bad, message = mid, str(exc)
    ln = [ln for ln, row in zip(lines[1:], rows[1:]) if row][bad - 1]
    raise ValueError(f"{path}: line {ln}: {message}")


def read_dataset(path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Every defect, including a non-finite feature or a label outside
    [0, 2**63), raises ``ValueError("<path>: line N: ...")``.  The feature
    block is cast to float in one call and checked finite in one call; a
    file that fails names its first bad line by bisection
    (:func:`parse_rows`), which holds because no rule looks ahead.
    """
    rows, lines = read_csv_rows(path)
    header = rows[0]
    if len(header) < 3 or header[0] != "label" or header[-1] != "split":
        raise ValueError(f"{path}: line 1: expected header 'label,x0,...,split'")
    d = len(header) - 2
    if header[1:-1] != [f"x{i}" for i in range(d)]:
        raise ValueError(f"{path}: line 1: malformed feature columns")

    def parse(block):
        labels = [int(row[0]) for row in block]
        feats = np.array([row[1:-1] for row in block], dtype=float)
        lo, hi = min(labels), max(labels)
        if lo < 0 or hi >= 2**63:
            raise ValueError(f"label {lo if lo < 0 else hi} outside [0, 2**63)")
        if not np.isfinite(feats).all():
            raise ValueError("non-finite feature")
        return Dataset(features=feats, labels=np.array(labels), split=np.array([row[-1] for row in block]))

    return parse_rows(path, rows, lines, d + 2, parse)


def write_embeddings(path, indices, vectors) -> None:
    """Embedding CSV: header 'index,e0,...,e{F-1}', one row per vector."""
    V = np.asarray(vectors, dtype=float)
    # a list, like the value columns: ints made lazily from a numpy array,
    # between the cells of each chunk, left the heap more fragmented (about
    # 8 MB more peak RSS over a 30 s paper-shape benchmark run)
    write_csv(path, ["index"] + [f"e{i}" for i in range(V.shape[1])], "%d," + float_cells(V.shape[1]),
              zip(list(map(int, indices)), *V.T.tolist()))


def read_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an embedding CSV written by :func:`write_embeddings` as
    ``(index, E)`` in file order: the int64 indices (N,) and the float
    embeddings (N, F), row i of ``E`` being the embedding of ``index[i]``.

    Every defect, including a non-finite value, a row of norm below 1e-12
    (which scoring cannot normalize), an index outside [0, 2**63) or a
    repeated index, raises ``ValueError("<path>: line N: ...")``.  As in
    :func:`read_dataset`, the value block is cast and checked at once.
    """
    rows, lines = read_csv_rows(path)
    header = rows[0]
    if len(header) < 2 or header[0] != "index":
        raise ValueError(f"{path}: line 1: expected header 'index,e0,...'")

    def parse(block):
        indices = [int(row[0]) for row in block]
        E = np.array([row[1:] for row in block], dtype=float)
        lo, hi = min(indices), max(indices)
        if lo < 0 or hi >= 2**63:
            raise ValueError(f"index {lo if lo < 0 else hi} outside [0, 2**63)")
        if len(set(indices)) < len(indices):
            seen = set()
            for i in indices:
                if i in seen:
                    raise ValueError(f"duplicate index {i}")
                seen.add(i)
        if not np.isfinite(E).all():
            raise ValueError("non-finite value")
        if (np.linalg.norm(E, axis=1) < 1e-12).any():
            raise ValueError("zero-norm embedding")
        return np.array(indices, dtype=np.int64), E

    return parse_rows(path, rows, lines, len(header), parse)
