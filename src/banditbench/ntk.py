"""Neural tangent kernel diagnostics.

Closed-form arc-cosine evaluation of the NTK recursion over a context set,
the effective dimension of the resulting kernel matrix, the eigenvalue
truncation bound, and the theory-side parameter formulas (exploration scale,
reward-norm constant, width condition).  All of these are diagnostics: they
report numbers, they never gate a bandit run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# lower bound baked into the reward-norm constant
B_FLOOR = 1.0 / (22.0 * np.e * np.sqrt(np.pi))


@dataclass
class NtkMatrix:
    """NTK matrix H over a context set, with per-level intermediates."""

    H: np.ndarray
    sigmas: list[np.ndarray] = field(default_factory=list, repr=False)
    htildes: list[np.ndarray] = field(default_factory=list, repr=False)
    derivs: list[np.ndarray] = field(default_factory=list, repr=False)


@dataclass
class EffDimReport:
    eff_dim: float
    logdet: float
    eigenvalues: np.ndarray = field(repr=False)


def _arccos_step(sigma: np.ndarray, diag: np.ndarray):
    """One level of the recursion in closed form.

    Given the current covariance matrix (diag holds its diagonal), returns the
    next-level covariance 2E[max(u,0)max(v,0)] and the derivative kernel
    2E[1(u>=0)1(v>=0)] under (u,v) ~ N(0, [[a,b],[b,c]]).
    """
    scale = np.sqrt(np.outer(diag, diag))
    cos = np.clip(sigma / np.maximum(scale, 1e-300), -1.0, 1.0)
    theta = np.arccos(cos)
    nxt = scale / np.pi * (np.sin(theta) + (np.pi - theta) * cos)
    deriv = (np.pi - theta) / np.pi
    return nxt, deriv


def ntk_matrix(contexts: np.ndarray, depth: int) -> NtkMatrix:
    """Closed-form NTK matrix for unit-norm contexts at the given depth."""
    X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("need at least one context")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    norms = np.linalg.norm(X, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("contexts must be unit-norm (tolerance 1e-9)")

    sigma = X @ X.T
    htilde = sigma.copy()
    sigmas, htildes, derivs = [sigma], [htilde], []
    for _ in range(depth - 1):
        nxt, deriv = _arccos_step(sigma, np.diag(sigma))
        htilde = htilde * deriv + nxt
        sigma = nxt
        sigmas.append(sigma)
        htildes.append(htilde)
        derivs.append(deriv)
    H = (htilde + sigma) / 2.0
    H = (H + H.T) / 2.0
    return NtkMatrix(H, sigmas, htildes, derivs)


def effective_dimension(H: np.ndarray, reg: float, budget: int) -> EffDimReport:
    """Effective dimension log det(I + H/reg) / log(1 + budget/reg)."""
    if not 0.0 < reg < np.inf:
        raise ValueError(f"reg must be positive and finite, got {reg}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    H = np.asarray(H, dtype=np.float64)
    evals = np.linalg.eigvalsh((H + H.T) / 2.0)
    scale = max(float(evals[-1]), 1.0) if evals.size else 1.0
    if evals.size and evals[0] < -1e-8 * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {evals[0]:.3g})")
    evals = np.clip(evals, 0.0, None)
    logdet = float(np.sum(np.log1p(evals / reg)))
    d_eff = logdet / np.log1p(budget / reg)
    return EffDimReport(d_eff, logdet, evals[::-1])


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


def theory_nu(B: float, R: float, d_eff: float, T: int, K: int, reg: float,
              delta: float) -> float:
    """Exploration scale B + R*sqrt(d_eff*log(1 + TK/reg) + 2 + 2*log(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return B + R * np.sqrt(d_eff * np.log1p(T * K / reg) + 2.0 + 2.0 * np.log(1.0 / delta))


def theory_B(h: np.ndarray, H: np.ndarray) -> float:
    """Reward-norm constant max(B_FLOOR, sqrt(2 h^T H^{-1} h))."""
    h = np.asarray(h, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    evals = np.linalg.eigvalsh((H + H.T) / 2.0)
    if evals[0] <= 1e-10:
        raise np.linalg.LinAlgError(
            f"kernel matrix is numerically singular (min eigenvalue {evals[0]:.3g})"
        )
    x = np.linalg.solve(H, h)
    return float(max(B_FLOOR, np.sqrt(2.0 * float(h @ x))))


def check_width_condition(m: int, T: int, K: int, L: int, reg: float,
                          lambda0: float, delta: float, C: float = 1.0) -> dict:
    """Evaluate the two width inequalities with the supplied absolute constant.

    Diagnostic only: the constant is unspecified in theory, so the flags are
    advisory and labeled as such in the report.
    """
    term_a = np.sqrt(reg) * L ** -1.5 * np.log(T * K * L ** 2 / delta) ** 1.5
    term_b = T ** 6 * K ** 6 * L ** 6 * np.log(T * K * L / delta) * max(lambda0 ** -4, 1.0)
    rhs1 = C * max(term_a, term_b)

    rhs2 = (C * T * L ** 12 / reg
            + C * T ** 7 * reg ** -8 * L ** 18 * (reg + L * T) ** 6
            + C * L ** 21 * T ** 7 * reg ** -7 * (1.0 + np.sqrt(T / reg)) ** 6)
    logm = np.log(m)
    lhs2 = np.inf if logm <= 0 else m / logm ** 3

    return {
        "note": "diagnostic -- constant C unknown",
        "C": C,
        "lower_bound_terms": {"sqrt_reg_term": float(term_a), "horizon_term": float(term_b)},
        "width": m,
        "lower_bound_rhs": float(rhs1),
        "lower_bound_ok": bool(m >= rhs1),
        "log_cubed_lhs": float(lhs2),
        "log_cubed_rhs": float(rhs2),
        "log_cubed_ok": bool(lhs2 >= rhs2),
    }
