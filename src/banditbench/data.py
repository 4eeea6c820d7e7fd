"""Dataset ingestion and the classification-to-bandit transformation.

Supports plain CSV (with a small key-value schema file describing column
types) and IDX image/label containers (optionally gzipped).  The bandit
transformation is: normalize each feature row to unit norm, optionally apply
the duplicated-half transform (so a freshly initialized network outputs 0),
then disjoint-encode into one block-sparse context per class.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import itertools
import json
import struct
from dataclasses import dataclass

import numpy as np

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels in [0, n_classes).  A row's
    features are its row of `features` divided by `divisor`, which a stream
    applies one block at a time: IDX pixels stay bytes, divided by 255."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    provenance: str = ""  # where data not read from files came from
    n_dropped: int = 0
    sources: tuple[str, ...] = ()  # the files it was read from
    divisor: float = 1.0

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on row count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values after ingestion")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def origin(self) -> str:
        """The files it was read from, or where it came from."""
        return ";".join(self.sources) or self.provenance

    @property
    def n_zero_rows(self) -> int:
        """Rows of zero norm, which normalize_unit maps to the unit basis
        vector (a row of tiny values counts: its squares underflow).  The
        squares are summed in float64, so an integer table cannot wrap."""
        sq_norms = np.einsum("ij,ij->i", self.features, self.features,
                             dtype=np.float64)
        return int(np.count_nonzero(sq_norms == 0.0))


@dataclass
class BanditRound:
    """One round: K arm contexts, their expected rewards, and realized rewards."""

    contexts: np.ndarray        # (K, d)
    expected_rewards: np.ndarray  # (K,)
    rewards: np.ndarray         # (K,) realized payoff if the arm were pulled


def read_pairs(path: str, sep: str) -> dict[str, str]:
    """The `key <sep> value` lines of a text file, by key in file order;
    '#' starts a comment anywhere on a line.  A line without sep, or a key
    given twice, is rejected naming the file."""
    pairs: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, found, value = (part.strip() for part in line.partition(sep))
            if not found:
                raise ValueError(f"{path}: malformed line {raw.rstrip()!r}")
            if key in pairs:
                raise ValueError(f"{path}: repeated key {key!r}")
            pairs[key] = value
    return pairs


def parse_schema(path: str) -> tuple[dict[str, str], str]:
    """Read a schema file of `column: numeric|categorical` lines and one
    `label: column` line."""
    types = read_pairs(path, ":")
    label_col = types.pop("label", None)
    for key, value in types.items():
        if value not in ("numeric", "categorical"):
            raise ValueError(f"{path}: unknown column type {value!r} for {key!r}")
    if label_col is None:
        raise ValueError(f"schema {path} does not declare a label column")
    return types, label_col


def _levels(cells) -> tuple[np.ndarray, int]:
    """Each cell's level, levels numbered in order of first appearance, and
    the number of levels."""
    levels: dict[str, int] = {}
    codes = np.asarray([levels.setdefault(v, len(levels)) for v in cells],
                       dtype=np.int64)
    return codes, len(levels)


def ingest_csv(path: str, label_column: str,
               schema: dict[str, str]) -> LabeledDataset:
    """Load a CSV, whose first row is a header if it names the label column
    and whose columns are c0, c1, ... if not.  Rows with a "" or "?" cell
    or the wrong length are dropped and counted, and the kept rows are read
    column by column, in file order.  Categorical columns are one-hot in
    uint8 blocks, so an all-categorical table stays uint8."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    if label_column in rows[0]:
        columns, rows = rows[0], rows[1:]
    else:
        columns = [f"c{i}" for i in range(len(rows[0]))]
        if label_column not in columns:
            raise ValueError(f"{path}: label column {label_column!r} not "
                             "found (headerless file uses c0..)")
    for c in columns:
        if columns.count(c) > 1:
            raise ValueError(f"{path}: column {c!r} repeats in the header")
        if c != label_column and c not in schema:
            raise ValueError(f"{path}: column {c!r} is not in the schema")

    for row in rows:
        row[:] = [v.strip() for v in row]
    kept = [row for row in rows if len(row) == len(columns)
            and "" not in row and "?" not in row]
    if not kept:
        raise ValueError(f"{path}: zero usable rows after dropping incomplete ones")

    blocks = []
    for c, cells in zip(columns, zip(*kept)):
        if c == label_column:
            labels, n_classes = _levels(cells)
        elif schema[c] == "numeric":
            try:
                block = np.asarray([float(v) for v in cells])[:, None]
                if not np.isfinite(block).all():
                    bad = cells[np.argmin(np.isfinite(block))]
                    raise ValueError(f"non-finite value {bad!r}")
            except ValueError as err:
                raise ValueError(f"{path}: numeric column {c!r}: {err}") from None
            blocks.append(block)
        else:
            codes, n_levels = _levels(cells)
            blocks.append((codes[:, None] == range(n_levels)).view(np.uint8))

    return LabeledDataset(np.hstack(blocks), labels, n_classes,
                          n_dropped=len(rows) - len(kept), sources=(path,))


def _open_maybe_gzip(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, path: str, what: str) -> bytearray:
    """count bytes of fh, or a ValueError naming path and both counts.  A
    gzip stream cut short raises EOFError once read1 has returned it all."""
    data = bytearray()
    with contextlib.suppress(EOFError):
        while len(data) < count and (chunk := fh.read1(count - len(data))):
            data += chunk
    if len(data) != count:
        raise ValueError(f"{path}: truncated: expected {count} {what}, "
                         f"found {len(data)}")
    return data


def ingest_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label pair.  The pixels stay bytes, one per pixel,
    with a divisor of 255 that scales them to [0, 1] block by block."""
    with _open_maybe_gzip(images_path) as fh:
        magic, n, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path, "header bytes"))
        if magic != IDX_MAGIC_IMAGES:
            raise ValueError(f"{images_path}: bad image magic 0x{magic:08x}")
        if n == 0:
            raise ValueError(f"{images_path}: the header says 0 images")
        raw = _read_exact(fh, n * rows * cols, images_path, "pixel bytes")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)

    with _open_maybe_gzip(labels_path) as fh:
        magic, n_lab = struct.unpack(
            ">II", _read_exact(fh, 8, labels_path, "header bytes"))
        if magic != IDX_MAGIC_LABELS:
            raise ValueError(f"{labels_path}: bad label magic 0x{magic:08x}")
        labels = np.frombuffer(_read_exact(fh, n_lab, labels_path, "labels"),
                               dtype=np.uint8).astype(np.int64)
    if n != n_lab:
        raise ValueError(f"{images_path}, {labels_path}: image count {n} "
                         f"!= label count {n_lab}")

    return LabeledDataset(images, labels,
                          n_classes=int(labels.max()) + 1,
                          sources=(images_path, labels_path), divisor=255.0)


# Rows per block when a stream is built: large enough that each array op
# covers many rounds, small enough that a block and its temporaries stay
# far below what a policy holds.
BLOCK_ROWS = 256


class RoundStream:
    """The rounds of one episode, built BLOCK_ROWS at a time as iteration
    reaches them.  `blocks()` starts the build over (a seeded build replays
    its draws) and yields an iterator over each block's rounds, so every
    iter() plays the same rounds and holds about one block at a time.
    `stream[i]` builds the blocks up to the one holding round i."""

    def __init__(self, blocks, length: int):
        self._blocks = blocks
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return itertools.chain.from_iterable(self._blocks())

    def __getitem__(self, i: int) -> BanditRound:
        if not 0 <= i < self._length:
            raise IndexError(f"round {i} of a {self._length}-round stream")
        block = next(itertools.islice(self._blocks(), i // BLOCK_ROWS, None))
        return next(itertools.islice(block, i % BLOCK_ROWS, None))


def normalize_unit(x: np.ndarray) -> np.ndarray:
    """Scale one row, or each row of an (n, d) block, to unit L2 norm; a zero
    row maps to e1 (degenerate-row policy).  A row's squared norm is the BLAS
    dot product np.linalg.norm takes on a 1-D row, in both shapes."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0])
    zero = norm[..., 0] == 0.0
    out = x / np.where(zero[..., None], 1.0, norm)
    out[zero] = 0.0     # a row whose squares underflow is not all zeros
    out[zero, ..., 0] = 1.0
    return out


def duplicate_half(x: np.ndarray) -> np.ndarray:
    """Map a unit vector x, or each row of an (n, d) block, to
    [x/sqrt(2); x/sqrt(2)] (unit norm, equal halves)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(np.sqrt(np.einsum("...i,...i->...", x, x)) - 1.0) > 1e-9):
        raise ValueError("duplicate_half expects a unit-norm input")
    d = x.shape[-1]
    out = np.empty(x.shape[:-1] + (2 * d,))
    np.divide(x, np.sqrt(2.0), out=out[..., :d])
    out[..., d:] = out[..., :d]
    return out


def disjoint_encode(x: np.ndarray, n_arms: int) -> np.ndarray:
    """Block-sparse per-arm contexts: arm k holds x in block k, shape
    (K, K*d) for one row and (n, K, K*d) for an (n, d) block."""
    if n_arms < 2:
        raise ValueError("disjoint encoding needs at least 2 arms")
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    lead = x.shape[:-1]
    out = np.zeros(lead + (n_arms, n_arms * d))
    arms = np.arange(n_arms)
    out.reshape(lead + (n_arms, n_arms, d))[..., arms, arms, :] = x[..., None, :]
    return out


def classification_rounds(dataset: LabeledDataset,
                          duplicate: bool = True) -> RoundStream:
    """Every row as a bandit round with 0/1 indicator rewards, built
    BLOCK_ROWS rows at a time; each round holds views into its block."""
    def blocks():
        for start in range(0, len(dataset), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            z = normalize_unit(dataset.features[block] / dataset.divisor)
            if duplicate:
                z = duplicate_half(z)
            contexts = disjoint_encode(z, dataset.n_classes)
            labels = dataset.labels[block]
            expected = np.zeros((len(labels), dataset.n_classes))
            expected[np.arange(len(labels)), labels] = 1.0
            yield map(BanditRound, contexts, expected, expected.copy())

    return RoundStream(blocks, len(dataset))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(dataset: LabeledDataset, path: str,
                   duplicate: bool = True) -> dict:
    """Record dataset stats, and the checksum of each of its source files, as
    a JSON manifest."""
    manifest = {
        "rows": len(dataset),
        "n_classes": dataset.n_classes,
        "raw_dim": int(dataset.features.shape[1]),
        "dropped_rows": dataset.n_dropped,
        "zero_rows": dataset.n_zero_rows,
        "provenance": dataset.origin,
        "duplicate_half": duplicate,
    }
    if dataset.sources:
        manifest["sha256"] = {source: _sha256(source) for source in dataset.sources}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
