"""Views of the engine's state that only tests read: network weights as
one flat vector, the dense inverse of a design matrix, every level of the
NTK recursion, and the eigenvalue-truncation bound on the effective
dimension."""

import numpy as np

from banditbench import ntk
from banditbench.nn import NetShape, ParamVector
from banditbench.posterior import DesignMatrix


def flat(theta: ParamVector) -> np.ndarray:
    """theta's weights as one vector, layer-major and row-major within a
    layer: the order of grad_batch's gradient features."""
    return np.concatenate([W.ravel() for W in theta.layers])


def from_flat(shape: NetShape, vector: np.ndarray) -> ParamVector:
    """The network whose flat() is a copy of vector."""
    layers, offset = [], 0
    for rows, cols in shape.layer_shapes():
        n = rows * cols
        layers.append(vector[offset:offset + n].reshape(rows, cols).copy())
        offset += n
    return ParamVector(shape, layers)


def copy_params(theta: ParamVector) -> ParamVector:
    return ParamVector(theta.shape, [W.copy() for W in theta.layers])


def inverse(design: DesignMatrix) -> np.ndarray:
    """U^-1 as a dense array.  In dual form it is the primal inverse that
    the switch out of dual form builds."""
    if design.mode == "diagonal":
        return np.diag(1.0 / design._diag)
    if design._inv is None:
        return design._primal_inverse()
    return design._inv.copy()


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
