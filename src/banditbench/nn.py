"""From-scratch fully connected ReLU network.

The network is f(x) = sqrt(m) * W_L ReLU(W_{L-1} ... ReLU(W_1 x)), with the
block-structured random initialization that makes the output zero, in exact
arithmetic, on duplicated-half inputs.  Weights are a ParamStack, layer l of
N networks held as one (N, rows, cols) array; one network is the stack of
one, which init_params returns and forward_batch, grad_batch and grad take.
grad_batch returns each gradient as per-layer factors (FactorRows), whose
flat form is layer-major, row-major within a layer, the order of the design
matrix in the posterior module.  Each training iteration is one forward,
backward and in-place update for a whole stack, and every network of a stack
gets the same bits as when trained alone.
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
class ParamStack:
    """The weights of N networks of one shape, layer l held as one
    (N, rows, cols) array, so that one step trains all N at once."""

    shape: NetShape
    layers: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        expected = [(len(self), *s) for s in self.shape.layer_shapes()]
        got = [W.shape for W in self.layers]
        if got != expected:
            raise ValueError(f"layer shapes {got} do not match {expected}")

    @classmethod
    def of(cls, stacks: list["ParamStack"]) -> "ParamStack":
        """The networks of stacks, in order, as one stack."""
        return cls(stacks[0].shape, [np.concatenate(Ws) for Ws in
                                     zip(*(s.layers for s in stacks))])

    def __len__(self) -> int:
        return len(self.layers[0])

    def member(self, j: int) -> "ParamStack":
        """Network j, a stack of one whose views follow in-place training."""
        return ParamStack(self.shape, [W[j:j + 1] for W in self.layers])

    def copy(self) -> "ParamStack":
        return ParamStack(self.shape, [W.copy() for W in self.layers])


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


def init_params(shape: NetShape, rng_seed: int) -> ParamStack:
    """Block-structured random initialization of one network (a stack of one).

    Hidden layers are (W, 0; 0, W) with both diagonal blocks the SAME draw of
    i.i.d. N(0, 4/m) entries; the output layer is (w^T, -w^T) with w i.i.d.
    N(0, 2/m).  On inputs whose two halves are equal this makes the initial
    output zero in exact arithmetic; BLAS's row blocking can leave a
    rounding residue of order 1e-17.
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
    return ParamStack(shape, [W[None] for W in layers])


def _forward_cached(layers: list[np.ndarray], X: np.ndarray, m: int):
    """Outputs (N, n) and the activations entering each layer of a stack
    (weights (N, rows, cols)) on X (N, n, d).  np.matmul runs each slice
    through the BLAS call of that network's 2-D product, so a network's bits
    do not depend on the stack it is in."""
    acts = [X]
    for W in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ W.swapaxes(-1, -2), 0.0))
    out = np.sqrt(m) * (acts[-1] @ layers[-1].swapaxes(-1, -2))[..., 0]
    return out, acts


def _inputs(theta: ParamStack, X: np.ndarray) -> np.ndarray:
    """X as the (1, n, d) batch of theta, a stack of one network."""
    if len(theta) != 1:
        raise ValueError(f"expected one network, got a stack of {len(theta)}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != theta.shape.input_dim:
        raise ValueError(f"input dim {X.shape[1]} does not match network "
                         f"d={theta.shape.input_dim}")
    return X[None]


def forward_batch(theta: ParamStack, X: np.ndarray) -> np.ndarray:
    """Network outputs for a batch of inputs, shape (n,)."""
    out, _ = _forward_cached(theta.layers, _inputs(theta, X), theta.shape.width)
    return out[0]


def _deltas(layers: list[np.ndarray], acts, seed: np.ndarray,
            m: int) -> list[np.ndarray]:
    """Sensitivity of sum_i seed_i * f(x_i) to each layer's outputs, per
    sample: deltas[l] is (N, n, fan_out of layer l), from the activations
    of _forward_cached and seed (N, n).  Layer l's gradient for sample i of
    network j is the outer product of deltas[l][j, i] and the activations
    entering the layer.  The ReLU mask reads the activations, relu(z) > 0,
    which is z > 0 for every z, as ReLU keeps NaN and maps -0.0 to a zero;
    so the subgradient at exactly 0 is taken as 0."""
    deltas = [None] * len(layers)
    deltas[-1] = np.sqrt(m) * seed[..., None]
    back = deltas[-1] @ layers[-1]
    for l in range(len(layers) - 2, -1, -1):
        deltas[l] = back * (acts[l + 1] > 0.0)
        if l > 0:
            back = deltas[l] @ layers[l]
    return deltas


class FactorRows:
    """Per-sample gradients held as per-layer factors.  Layer l's gradient of
    a sample is the outer product of its row of deltas (the sensitivity of
    the output to the layer's outputs) and its row of acts (the activations
    entering the layer), so a row holds sum_l (fan_out + fan_in) numbers
    where the flat gradient holds p.  factors[l] is (deltas, acts), 1-D for
    one sample and (n, fan) for a stack of n.  np.asarray flattens them,
    layer-major and row-major within a layer: the layout of the posterior
    module's flat features."""

    def __init__(self, factors: list[tuple[np.ndarray, np.ndarray]]):
        self.factors = factors

    def __len__(self) -> int:
        return len(self.factors[0][0])

    def __getitem__(self, i) -> "FactorRows":
        return FactorRows([(d[i], a[i]) for d, a in self.factors])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # one sample goes through the (1, fan) einsum, which is the faster
        flat = np.concatenate([outer_rows(np.atleast_2d(d), np.atleast_2d(a))
                               for d, a in self.factors], axis=1)
        flat = flat[0] if self.factors[0][0].ndim == 1 else flat
        return flat if dtype is None else flat.astype(dtype, copy=False)


def outer_rows(deltas: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Row i is deltas[i] outer acts[i], row-major, for (n, fan_out) and (n,
    fan_in) stacks: the one writer of a layer's flat gradient layout."""
    return np.einsum("ni,nj->nij", deltas, acts).reshape(len(deltas), -1)


def grad_batch(theta: ParamStack, X: np.ndarray) -> tuple[np.ndarray, FactorRows]:
    """Network outputs (n,), with forward_batch's bits, and the factors of
    their per-sample gradients, from one forward and one backward pass.

    The 1/sqrt(m) posterior scale is NOT folded in here.
    """
    X = _inputs(theta, X)
    out, acts = _forward_cached(theta.layers, X, theta.shape.width)
    deltas = _deltas(theta.layers, acts, np.ones((1, X.shape[1])),
                     theta.shape.width)
    return out[0], FactorRows([(d[0], a[0]) for d, a in zip(deltas, acts)])


def grad(theta: ParamStack, x: np.ndarray) -> FactorRows:
    """The gradient factors of the output at one input x, with 1-D factors;
    np.asarray gives the flat gradient, length p."""
    return grad_batch(theta, np.asarray(x, dtype=np.float64)[None, :])[1][0]


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
            out, acts = _forward_cached(W, Xb, m)
            resid = out - rb
            finite = np.isfinite(resid)
            if not finite.all():
                bad = group[int(np.argmin(finite.all(axis=1)))]
                raise TrainingDiverged(_diverged(cfg, m, bad, data.n_rows[bad], it))
            resid *= scale
            grads = [delta.swapaxes(-1, -2) @ act
                     for delta, act in zip(_deltas(W, acts, resid, m), acts)]
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
