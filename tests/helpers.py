"""Views of the engine's state that only tests read: network weights as
one flat vector, the dense inverse of a design matrix, its dual-form state
and the shape of its stored rows, the dense factor of a bordered inverse,
every level of the NTK recursion, the eigenvalue-truncation bound on the
effective dimension, episode traces read back from JSONL or stripped of
their wall-clock field, the traced memory peak of a call, and the count of
rounds a stream builds."""

import contextlib
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
