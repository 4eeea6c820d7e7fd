"""From-scratch fully connected ReLU network.

The network is f(x) = sqrt(m) * W_L ReLU(W_{L-1} ... ReLU(W_1 x)), with the
block-structured random initialization that makes the output exactly zero on
duplicated-half inputs.  Parameters are per-layer matrices; grad_batch lays
a gradient feature out layer-major, row-major within a layer, the order of the
design matrix in the posterior module.

Training runs one loop over a stack of N networks (ParamStack, layers held as
(N, rows, cols) arrays): each iteration is one forward, backward and in-place
update for the whole stack.  A single network is the stack of one, and every
network of a stack gets the same bits as when trained alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TrainingDiverged(RuntimeError):
    """Raised when the training residuals stop being finite (step size too
    large for the history); the message names the network, the rows, the
    settings and a remedy."""


@dataclass(frozen=True)
class NetShape:
    """Architecture of the network: input dim d, hidden width m, depth L."""

    input_dim: int
    width: int
    depth: int

    def __post_init__(self):
        d, m, L = self.input_dim, self.width, self.depth
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"input_dim must be a positive even integer, got {d}")
        if m <= 0 or m % 2 != 0:
            raise ValueError(f"width must be a positive even integer, got {m}")
        if L < 2:
            raise ValueError(f"depth must be >= 2, got {L}")

    @property
    def n_params(self) -> int:
        d, m, L = self.input_dim, self.width, self.depth
        return d * m + m * m * (L - 2) + m

    def layer_shapes(self) -> list[tuple[int, int]]:
        d, m, L = self.input_dim, self.width, self.depth
        shapes = [(m, d)]
        shapes += [(m, m)] * (L - 2)
        shapes.append((1, m))
        return shapes


@dataclass
class ParamVector:
    """Network weights as per-layer matrices."""

    shape: NetShape
    layers: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        expected = self.shape.layer_shapes()
        got = [W.shape for W in self.layers]
        if got != expected:
            raise ValueError(f"layer shapes {got} do not match {expected}")


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for the regularized square loss.

    The defaults are the acceptance config's SGD x10 at lr 1e-4: the data
    term of the loss is a sum over the history, so the effective step grows
    with the round, and GD x100 at lr 1e-3 diverged before round 110.
    """

    step_size: float = 1e-4
    iterations: int = 10
    reg: float = 1.0
    mode: str = "sgd"  # "sgd" or "gd" (full batch)
    batch_size: int = 64

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, "
                             f"got {self.step_size}")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not 0.0 < self.reg < np.inf:
            raise ValueError(f"reg must be positive and finite, got {self.reg}")
        if self.mode not in ("gd", "sgd"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def check_step(self, width: int) -> None:
        """Raises ValueError unless step_size * width * reg < 1, without
        which the regularization contraction diverges."""
        if self.step_size * width * self.reg >= 1.0:
            raise ValueError(
                f"step_size*m*reg = {self.step_size * width * self.reg:.4g} >= 1; "
                "the regularization contraction diverges"
            )


def init_params(shape: NetShape, rng_seed: int) -> ParamVector:
    """Block-structured random initialization.

    Hidden layers are (W, 0; 0, W) with both diagonal blocks the SAME draw of
    i.i.d. N(0, 4/m) entries; the output layer is (w^T, -w^T) with w i.i.d.
    N(0, 2/m).  On inputs whose two halves are equal this makes the initial
    output exactly zero.
    """
    rng = np.random.default_rng(rng_seed)
    d, m, L = shape.input_dim, shape.width, shape.depth
    layers = []
    for rows, cols in shape.layer_shapes()[:-1]:
        block = rng.normal(0.0, np.sqrt(4.0 / m), size=(rows // 2, cols // 2))
        W = np.zeros((rows, cols))
        W[: rows // 2, : cols // 2] = block
        W[rows // 2:, cols // 2:] = block
        layers.append(W)
    w = rng.normal(0.0, np.sqrt(2.0 / m), size=m // 2)
    layers.append(np.concatenate([w, -w])[None, :])
    return ParamVector(shape, layers)


def _forward_cached(layers: list[np.ndarray], X: np.ndarray, m: int):
    """Outputs, the activations entering each layer, and the hidden
    pre-activations.

    Works on one network (2-D weights, X (n, d)) and on a stack (weights
    (N, rows, cols), X (N, n, d)): np.matmul runs each slice of a stack through
    the same BLAS call as the 2-D product of that network alone.
    """
    acts, pre = [X], []
    for W in layers[:-1]:
        Z = acts[-1] @ W.swapaxes(-1, -2)
        pre.append(Z)
        acts.append(np.maximum(Z, 0.0))
    out = np.sqrt(m) * (acts[-1] @ layers[-1].swapaxes(-1, -2))[..., 0]
    return out, acts, pre


def _inputs(theta: ParamVector, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != theta.shape.input_dim:
        raise ValueError(
            f"input dim {X.shape[1]} does not match network d={theta.shape.input_dim}"
        )
    return X


def forward_batch(theta: ParamVector, X: np.ndarray) -> np.ndarray:
    """Network outputs for a batch of inputs, shape (n,)."""
    out, _, _ = _forward_cached(theta.layers, _inputs(theta, X), theta.shape.width)
    return out


def _deltas(layers: list[np.ndarray], pre, seed: np.ndarray,
            m: int) -> list[np.ndarray]:
    """Sensitivity of sum_i seed_i * f(x_i) to each layer's outputs, per
    sample: deltas[l] is (..., n, fan_out of layer l), from the
    pre-activations of _forward_cached (per network for a stack, with seed
    (N, n)).  Layer l's gradient for sample i is the outer product of
    deltas[l][i] and the activations entering the layer.

    ReLU subgradient at exactly 0 is taken as 0.
    """
    deltas = [None] * len(layers)
    deltas[-1] = np.sqrt(m) * seed[..., None]
    back = deltas[-1] @ layers[-1]
    for l in range(len(layers) - 2, -1, -1):
        deltas[l] = back * (pre[l] > 0.0)
        if l > 0:
            back = deltas[l] @ layers[l]
    return deltas


def grad_batch(theta: ParamVector, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Network outputs (n,), with forward_batch's bits, and their per-sample
    flat gradients (n, p), from one forward and one backward pass.

    The 1/sqrt(m) posterior scale is NOT folded in here.
    """
    X = _inputs(theta, X)
    n = X.shape[0]
    out, acts, pre = _forward_cached(theta.layers, X, theta.shape.width)
    deltas = _deltas(theta.layers, pre, np.ones(n), theta.shape.width)
    return out, np.concatenate([np.einsum("ni,nj->nij", delta, act).reshape(n, -1)
                                for delta, act in zip(deltas, acts)], axis=1)


def grad(theta: ParamVector, x: np.ndarray) -> np.ndarray:
    """Flat gradient of the output at one input x w.r.t. all weights,
    length p."""
    return grad_batch(theta, np.asarray(x, dtype=np.float64)[None, :])[1][0]


@dataclass
class ParamStack:
    """The weights of N networks of one shape, layer l held as one
    (N, rows, cols) array, so that one step trains all N at once."""

    shape: NetShape
    layers: list[np.ndarray] = field(repr=False)

    @classmethod
    def of(cls, params: list[ParamVector]) -> "ParamStack":
        return cls(params[0].shape, [np.stack(Ws) for Ws in
                                     zip(*(p.layers for p in params))])

    def __len__(self) -> int:
        return len(self.layers[0])

    def member(self, j: int) -> ParamVector:
        """Network j's weights as views, which follow in-place training."""
        return ParamVector(self.shape, [W[j] for W in self.layers])

    def copy(self) -> "ParamStack":
        return ParamStack(self.shape, [W.copy() for W in self.layers])


@dataclass(frozen=True)
class Batches:
    """What each network of a stack trains on, drawn before any step runs.

    X (n, d) and r (n,) are the history all networks share; network j trains
    on n_rows[j] of its rows, and rows[j] (batches, b_j) holds the history
    rows of each batch (see draw_batches).
    """

    X: np.ndarray
    r: np.ndarray
    n_rows: list[int]
    rows: list[np.ndarray]

    def __len__(self) -> int:
        """History rows trained on, summed over the networks."""
        return sum(self.n_rows)


def draw_batches(rows: np.ndarray, cfg: TrainConfig,
                 rng: np.random.Generator | None) -> np.ndarray:
    """The history rows of each batch for a network that trains on `rows`:
    GD's one batch (1, n) holds every row in order (a view, no draws), and
    SGD draws (iterations, b), min(batch_size, n) positions with replacement
    per iteration, in iteration order.  One rng.integers call draws the same
    stream as one call per iteration: the bit generator keeps its spare
    32-bit half in its own state.
    """
    n = len(rows)
    if cfg.mode == "gd" or n == 0:
        return rows[None]
    return rows[rng.integers(0, n, size=(cfg.iterations, min(cfg.batch_size, n)))]


@np.errstate(over="ignore", invalid="ignore")
def train(theta0: ParamStack, theta: ParamStack, data: Batches,
          cfg: TrainConfig) -> None:
    """cfg.iterations steps of gradient descent on the regularized square
    loss for every network with rows, anchored at theta0.

    theta0 holds the original initializations (the regularization centers,
    never updated); theta is the starting point (a warm start in the bandit
    loop) and is trained in place, so ParamStack.member views follow it.
    data's batches are already drawn; each iteration steps on the next one,
    or again on the last (GD's one batch).  Every fit, one network or an
    ensemble, is one call of policies.train, the function the benchmark's
    tracer times.

    Networks whose batches have the same length step together as one stack;
    they are not padded to one length, which would change the order of the
    BLAS sums.  Each network gets the bits of training it alone.  A step
    that overflows is reported by the TrainingDiverged that follows it.
    """
    m = theta.shape.width
    cfg.check_step(m)
    lengths = [rows.shape[1] for rows in data.rows]
    for b in dict.fromkeys(lengths):
        if b == 0:
            continue
        group = [j for j, length in enumerate(lengths) if length == b]
        whole = len(group) == len(theta)
        W = theta.layers if whole else [L[group] for L in theta.layers]
        W0 = theta0.layers if whole else [L[group] for L in theta0.layers]
        rows = np.stack([data.rows[j] for j in group], axis=1)
        # rescale so each batch estimates its full-data loss gradient (GD: 1.0)
        scale = np.array([data.n_rows[j] / b for j in group])[:, None]
        for it in range(cfg.iterations):
            if it < len(rows):
                Xb, rb = data.X[rows[it]], data.r[rows[it]]
            out, acts, pre = _forward_cached(W, Xb, m)
            resid = out - rb
            finite = np.isfinite(resid)
            if not finite.all():
                bad = group[int(np.argmin(finite.all(axis=1)))]
                raise TrainingDiverged(_diverged(cfg, m, bad, data.n_rows[bad], it))
            resid *= scale
            grads = [delta.swapaxes(-1, -2) @ act
                     for delta, act in zip(_deltas(W, pre, resid, m), acts)]
            # W <- W - step * (G + m*reg*(W - W0)), in place, in that order
            for Wl, W0l, G in zip(W, W0, grads):
                drift = Wl - W0l
                drift *= m * cfg.reg
                G += drift
                G *= cfg.step_size
                Wl -= G
        if not whole:
            for L, Wl in zip(theta.layers, W):
                L[group] = Wl


def _diverged(cfg: TrainConfig, m: int, net: int, n_rows: int, it: int) -> str:
    if cfg.mode == "sgd":
        mode, remedy = f"sgd, batch_size {cfg.batch_size}", "lower --lr"
    else:
        mode, remedy = "gd", "lower --lr or use --train-mode sgd"
    return (
        f"training diverged: network {net} gave non-finite outputs at "
        f"iteration {it + 1} of {cfg.iterations} ({mode}) on {n_rows} "
        f"history rows, with step_size={float(cfg.step_size)!r}, width {m} "
        f"and reg {float(cfg.reg)!r}.  The data term of "
        "the loss is a sum over the rows, so the effective step grows with "
        f"the history; {remedy}"
    )
