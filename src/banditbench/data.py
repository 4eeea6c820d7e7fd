"""Dataset ingestion and the classification-to-bandit transformation.

Supports plain CSV (with a small key-value schema file describing column
types) and IDX image/label containers (optionally gzipped).  The bandit
transformation is: normalize each feature row to unit norm, optionally apply
the duplicated-half transform (so a freshly initialized network outputs 0),
then disjoint-encode into one block-sparse context per class.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import logging
import struct
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    provenance: str = ""
    n_dropped: int = 0

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
    def n_zero_rows(self) -> int:
        """Rows of zero norm, which normalize_unit maps to the unit basis
        vector (a row of tiny values counts: its squares underflow)."""
        sq_norms = np.einsum("ij,ij->i", self.features, self.features)
        return int(np.count_nonzero(sq_norms == 0.0))


@dataclass
class BanditRound:
    """One round: K arm contexts, their expected rewards, and realized rewards."""

    contexts: np.ndarray        # (K, d)
    expected_rewards: np.ndarray  # (K,)
    rewards: np.ndarray         # (K,) realized payoff if the arm were pulled

    @property
    def optimal_arm(self) -> int:
        return int(np.argmax(self.expected_rewards))


def parse_schema(path: str) -> tuple[dict[str, str], str]:
    """Read a key-value schema file: `column: numeric|categorical`, `label: col`."""
    types: dict[str, str] = {}
    label_col = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "label":
                label_col = value
            elif value in ("numeric", "categorical"):
                types[key] = value
            else:
                raise ValueError(f"unknown column type {value!r} for {key!r}")
    if label_col is None:
        raise ValueError(f"schema {path} does not declare a label column")
    return types, label_col


def ingest_csv(path: str, label_column: str,
               schema: dict[str, str]) -> LabeledDataset:
    """Load a CSV into a numeric dataset.

    Categorical columns are one-hot expanded (level order = first appearance);
    rows with missing values are dropped and counted.  Row order follows the
    file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    header = rows[0]
    known = set(schema) | {label_column}
    if set(header) >= {label_column} and set(header) <= known:
        columns = header
        rows = rows[1:]
    else:
        # headerless: schema keys are positional names c0, c1, ...
        columns = [f"c{i}" for i in range(len(rows[0]))]
        if label_column not in columns:
            raise ValueError(
                f"label column {label_column!r} not found (headerless file uses c0..)"
            )
    col_index = {c: i for i, c in enumerate(columns)}
    feat_cols = [c for c in columns if c != label_column]
    for c in feat_cols:
        if c not in schema:
            raise ValueError(f"column {c!r} missing from schema")

    dropped = 0
    kept_rows = []
    for row in rows:
        if len(row) != len(columns) or any(v.strip() in ("", "?") for v in row):
            dropped += 1
            continue
        kept_rows.append(row)
    if not kept_rows:
        raise ValueError(f"{path}: zero usable rows after dropping incomplete ones")

    label_levels: dict[str, int] = {}
    labels = []
    for row in kept_rows:
        v = row[col_index[label_column]].strip()
        labels.append(label_levels.setdefault(v, len(label_levels)))

    blocks = []
    for c in feat_cols:
        vals = [row[col_index[c]].strip() for row in kept_rows]
        if schema[c] == "numeric":
            blocks.append(np.asarray([float(v) for v in vals])[:, None])
        else:
            levels: dict[str, int] = {}
            idx = np.asarray([levels.setdefault(v, len(levels)) for v in vals])
            onehot = np.zeros((len(vals), len(levels)))
            onehot[np.arange(len(vals)), idx] = 1.0
            blocks.append(onehot)

    return LabeledDataset(
        features=np.hstack(blocks),
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=len(label_levels),
        provenance=path,
        n_dropped=dropped,
    )


def _open_maybe_gzip(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def ingest_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label pair; pixel bytes are scaled to [0, 1]."""
    with _open_maybe_gzip(images_path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", fh.read(16))
        if magic != IDX_MAGIC_IMAGES:
            raise ValueError(f"{images_path}: bad image magic 0x{magic:08x}")
        raw = fh.read(n * rows * cols)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols) / 255.0

    with _open_maybe_gzip(labels_path) as fh:
        magic, n_lab = struct.unpack(">II", fh.read(8))
        if magic != IDX_MAGIC_LABELS:
            raise ValueError(f"{labels_path}: bad label magic 0x{magic:08x}")
        labels = np.frombuffer(fh.read(n_lab), dtype=np.uint8).astype(np.int64)
    if n != n_lab:
        raise ValueError(f"image count {n} != label count {n_lab}")

    return LabeledDataset(images, labels,
                          n_classes=int(labels.max()) + 1,
                          provenance=f"{images_path};{labels_path}")


def normalize_unit(x: np.ndarray) -> np.ndarray:
    """Scale to unit L2 norm; a zero vector maps to e1 (degenerate-row policy)."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        out = np.zeros_like(x)
        out[0] = 1.0
        return out
    return x / norm


def duplicate_half(x: np.ndarray) -> np.ndarray:
    """Map a unit vector x to [x/sqrt(2); x/sqrt(2)] (unit norm, equal halves)."""
    x = np.asarray(x, dtype=np.float64)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("duplicate_half expects a unit-norm input")
    half = x / np.sqrt(2.0)
    return np.concatenate([half, half])


def disjoint_encode(x: np.ndarray, n_arms: int) -> np.ndarray:
    """Block-sparse per-arm contexts: arm k holds x in block k, shape (K, K*d)."""
    if n_arms < 2:
        raise ValueError("disjoint encoding needs at least 2 arms")
    x = np.asarray(x, dtype=np.float64)
    d = len(x)
    out = np.zeros((n_arms, n_arms * d))
    for k in range(n_arms):
        out[k, k * d:(k + 1) * d] = x
    return out


def classification_rounds(dataset: LabeledDataset,
                          duplicate: bool = True) -> list[BanditRound]:
    """Transform every row into a bandit round with 0/1 indicator rewards."""
    rounds = []
    for x, label in zip(dataset.features, dataset.labels):
        z = normalize_unit(x)
        if duplicate:
            z = duplicate_half(z)
        contexts = disjoint_encode(z, dataset.n_classes)
        rewards = np.zeros(dataset.n_classes)
        rewards[label] = 1.0
        rounds.append(BanditRound(contexts, rewards, rewards.copy()))
    n_zero = dataset.n_zero_rows
    if n_zero:
        log.warning("%d zero-feature rows replaced by the unit basis vector", n_zero)
    return rounds


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(dataset: LabeledDataset, path: str,
                   sources: list[str] | None = None,
                   duplicate: bool = True) -> dict:
    """Record dataset stats, and the checksum of each source file, as a JSON
    manifest."""
    manifest = {
        "rows": len(dataset),
        "n_classes": dataset.n_classes,
        "raw_dim": int(dataset.features.shape[1]),
        "dropped_rows": dataset.n_dropped,
        "zero_rows": dataset.n_zero_rows,
        "provenance": dataset.provenance,
        "duplicate_half": duplicate,
    }
    if sources:
        manifest["sha256"] = {source: _sha256(source) for source in sources}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
