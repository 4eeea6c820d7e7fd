"""Views of the engine's state that only tests read: network weights as
one flat vector, the dense inverse of a design matrix, its dual-form state
and the shape of its stored rows, the dense factor of a bordered inverse,
every level of the NTK recursion, the eigenvalue-truncation bound on the
effective dimension, episode traces read back from JSONL or stripped of
their wall-clock field, the traced memory peak of a call, the count of
rounds a stream builds, and the row-wise CSV reader that ingest_csv must
match."""

import contextlib
import csv
import itertools
import json
import os
import tracemalloc
from typing import NamedTuple

import numpy as np

from banditbench import data, envs, ntk
from banditbench.harness import RegretTrace
from banditbench.nn import NetShape, ParamStack
from banditbench.posterior import BorderedInverse, DesignMatrix


def flat(theta: ParamStack) -> np.ndarray:
    """The weights of theta, a stack of one network, as one vector,
    layer-major and row-major within a layer: the order of grad_batch's
    gradient features."""
    return np.concatenate([W.ravel() for W in theta.layers])


def from_flat(shape: NetShape, vector: np.ndarray) -> ParamStack:
    """The stack of one network whose flat() is a copy of vector."""
    layers, offset = [], 0
    for rows, cols in shape.layer_shapes():
        n = rows * cols
        layers.append(vector[offset:offset + n].reshape(1, rows, cols).copy())
        offset += n
    return ParamStack(shape, layers)


def inverse(design: DesignMatrix) -> np.ndarray:
    """U^-1 as a dense array.  In dual form it is the primal inverse that
    the switch out of dual form builds."""
    if design.mode == "diagonal":
        return np.diag(1.0 / design._diag)
    if design._inv is None:
        W = (np.empty((0, design.dim)) if design._G is None
             else design._whitened())
        return design._primal_inverse(W)
    return design._inv.copy()


def dense_factor(bordered: BorderedInverse) -> np.ndarray:
    """R = L^-1 of a BorderedInverse, assembled from its panels as a dense
    copy."""
    R = np.zeros((bordered.n, bordered.n))
    for i, j, P in bordered._panels:
        R[i:j, :j] = P
    return R


class DualState(NamedTuple):
    R: np.ndarray      # R = L^-1 of A = L L^T, dense
    rows: np.ndarray   # the stored rows, one per update, flattened
    r: np.ndarray      # their rewards
    w: np.ndarray      # R r


def dual_state(design: DesignMatrix) -> DualState:
    """The dual form of a full-mode design, before it switches to primal,
    with its per-factor rows flattened."""
    rows = (np.empty((0, design.dim)) if design._G is None
            else np.hstack(list(design._column_blocks())))
    return DualState(dense_factor(design._dual), rows, design._r.array,
                     design._w.array)


def stored_shape(design: DesignMatrix) -> tuple[int, int]:
    """(rows, numbers a row) held by a dual-form design: its rows as they
    are stored, one array per factor of each layer."""
    shapes = [h.array.shape for rows in design._G for h in rows]
    assert len({n for n, _ in shapes}) == 1
    return shapes[0][0], sum(length for _, length in shapes)


def ntk_levels(contexts: np.ndarray, depth: int):
    """The covariance, H-tilde and derivative kernel at every level of the
    recursion that ntk.ntk_matrix steps, from X X^T: (sigmas, htildes,
    derivs), with depth, depth and depth - 1 entries."""
    X = np.asarray(contexts, dtype=np.float64)
    sigma = X @ X.T
    sigmas, htildes, derivs = [sigma], [sigma.copy()], []
    for _ in range(depth - 1):
        nxt, deriv = ntk._arccos_step(sigma, np.diag(sigma))
        htildes.append(htildes[-1] * deriv + nxt)
        sigma = nxt
        sigmas.append(sigma)
        derivs.append(deriv)
    return sigmas, htildes, derivs


def effdim_truncation_bound(H: np.ndarray, d_prime: int, budget: int):
    """Eigenvalue-truncation upper bound on the effective-dimension numerator.

    Returns (bound, tail_ok) where bound = sum of all eigenvalues split at
    d_prime and tail_ok flags whether every tail eigenvalue is <= 1/budget,
    the hypothesis under which the bound controls the effective dimension
    (stated for reg = 1).
    """
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    if not 0 <= d_prime <= n:
        raise ValueError(f"d_prime {d_prime} out of range for n={n}")
    evals = np.linalg.eigvalsh((H + H.T) / 2.0)[::-1]
    evals = np.clip(evals, 0.0, None)
    head = float(np.sum(evals[:d_prime]))
    tail = float(np.sum(evals[d_prime:]))
    tail_ok = bool(np.all(evals[d_prime:] <= 1.0 / budget + 1e-12))
    return head + tail, tail_ok


def read_traces(out_dir: str, algorithm: str) -> list[RegretTrace]:
    """The JSONL traces emit_outputs wrote for algorithm, in file order, as
    columns; each row's regret is not read, as the trace derives it."""
    traces = []
    for i in itertools.count():
        path = os.path.join(out_dir, f"trace_{algorithm}_{i}.jsonl")
        if not os.path.exists(path):
            return traces
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        columns = {key: np.array([row[key] for row in rows])
                   for key in ("arm", "reward", "cum_regret", "sigma", "wall_us")}
        traces.append(RegretTrace(algorithm, -1, **columns))


def without_wall_clock(rows) -> list[str]:
    """Each row, a trace's or one parsed from JSONL, as sorted-key JSON
    without its wall_us field.  Equal lists are equal rows apart from
    wall-clock, int against float included; a NaN raises, as it would never
    compare equal."""
    return [json.dumps({k: v for k, v in row.items() if k != "wall_us"},
                       sort_keys=True, allow_nan=False) for row in rows]


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc traces while fn() runs, counted from
    a fresh start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def rounds_built():
    """Counts the rounds built inside the with block, as the benchmark's
    tracer does: through the BanditRound name of each module that builds
    streams.  Yields a list that gains one entry per round."""
    built = []

    class CountedRound(data.BanditRound):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(None)

    modules = (data, envs)
    originals = [module.BanditRound for module in modules]
    for module in modules:
        module.BanditRound = CountedRound
    try:
        yield built
    finally:
        for module, original in zip(modules, originals):
            module.BanditRound = original


def reference_ingest_csv(path: str, label_column: str,
                         schema: dict[str, str]) -> data.LabeledDataset:
    """A CSV read row by row, with a column index keyed by name and one
    level dict per column: the reader ingest_csv replaced, which it must
    match on every file it accepts.  Its header rule takes the first row as
    the header when it names the label column and no name outside the
    schema, and a non-finite cell reaches the dataset's own check.  Like
    ingest_csv, it takes a headerless file's width from the highest cN that
    the schema or the label names, and rejects a schema column the file
    lacks and a schema of no feature column."""
    if not schema.keys() - {label_column}:
        raise ValueError(f"{path}: no feature column")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    known = set(schema) | {label_column}
    if set(header) >= {label_column} and set(header) <= known:
        columns = header
        rows = rows[1:]
    else:
        indices = [int(c[1:]) for c in known
                   if c.startswith("c") and c[1:].isdecimal()]
        columns = [f"c{i}" for i in range(max(indices, default=-1) + 1)]
        if label_column not in columns:
            raise ValueError(f"label column {label_column!r} not found")
    col_index = {c: i for i, c in enumerate(columns)}
    feat_cols = [c for c in columns if c != label_column]
    for c in feat_cols:
        if c not in schema:
            raise ValueError(f"column {c!r} missing from schema")
    for c in schema:
        if c not in col_index:
            raise ValueError(f"schema column {c!r} missing from the file")

    dropped = 0
    kept_rows = []
    for row in rows:
        if len(row) != len(columns) or any(v.strip() in ("", "?") for v in row):
            dropped += 1
            continue
        kept_rows.append(row)
    if not kept_rows:
        raise ValueError(f"{path}: zero usable rows")

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
            onehot = np.zeros((len(vals), len(levels)), np.uint8)
            onehot[np.arange(len(vals)), idx] = 1
            blocks.append(onehot)
    return data.LabeledDataset(np.hstack(blocks),
                               np.asarray(labels, dtype=np.int64),
                               len(label_levels), n_dropped=dropped,
                               sources=(path,))


def assert_same_dataset(got: data.LabeledDataset,
                        want: data.LabeledDataset) -> None:
    """The same feature dtype, shape and bytes, labels, class count and
    dropped-row count."""
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert (got.n_classes, got.n_dropped) == (want.n_classes, want.n_dropped)
