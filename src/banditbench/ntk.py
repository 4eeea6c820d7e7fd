"""Neural tangent kernel diagnostics.

Closed-form arc-cosine evaluation of the NTK recursion over a context set,
the effective dimension of the resulting kernel matrix, and the theory-side
parameter formulas (exploration scale, reward-norm constant, width
condition).  Every quantity that divides by reg or delta is evaluated once,
from logarithms, so that no reg > 0 and no delta in (0, 1) overflows it.
All of these are diagnostics: they report numbers, they never gate a bandit
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# lower bound baked into the reward-norm constant
B_FLOOR = 1.0 / (22.0 * np.e * np.sqrt(np.pi))
# the largest x whose exp a double holds
_LOG_MAX = np.log(np.finfo(np.float64).max)


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


def ntk_matrix(contexts: np.ndarray, depth: int) -> np.ndarray:
    """Closed-form NTK matrix H for unit-norm contexts at the given depth."""
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
    for _ in range(depth - 1):
        nxt, deriv = _arccos_step(sigma, np.diag(sigma))
        htilde = htilde * deriv + nxt
        sigma = nxt
    H = (htilde + sigma) / 2.0
    return (H + H.T) / 2.0


def _log1p_ratio(x, reg: float):
    """log(1 + x/reg) for x >= 0, as log(1 + exp(log x - log reg)), which no
    reg > 0 overflows."""
    with np.errstate(divide="ignore"):  # log 0 = -inf gives log 1 = 0
        return np.logaddexp(0.0, np.log(x) - np.log(reg))


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
    logdet = float(np.sum(_log1p_ratio(evals, reg)))
    d_eff = logdet / _log1p_ratio(budget, reg)
    return EffDimReport(d_eff, logdet, evals[::-1])


def theory_nu(B: float, R: float, d_eff: float, T: int, K: int, reg: float,
              delta: float) -> float:
    """Exploration scale B + R*sqrt(d_eff*log(1 + TK/reg) + 2 + 2*log(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return B + R * np.sqrt(d_eff * _log1p_ratio(T * K, reg) + 2.0
                           - 2.0 * np.log(delta))


def theory_B(h: np.ndarray, H: np.ndarray, min_eigenvalue: float) -> float:
    """Reward-norm constant max(B_FLOOR, sqrt(2 h^T H^{-1} h)), for H whose
    smallest eigenvalue is min_eigenvalue."""
    if min_eigenvalue <= 1e-10:
        raise np.linalg.LinAlgError("kernel matrix is numerically singular "
                                    f"(min eigenvalue {min_eigenvalue:.3g})")
    x = np.linalg.solve(H, h)
    return float(max(B_FLOOR, np.sqrt(2.0 * float(h @ x))))


def _held(log_value: float) -> float | None:
    """exp(log_value) when a double holds it, else None."""
    return float(np.exp(log_value)) if log_value < _LOG_MAX else None


@np.errstate(divide="ignore")  # a log of 0 (C = 0, or m = 1) is -inf
def check_width_condition(m: int, T: int, K: int, L: int, reg: float,
                          lambda0: float, delta: float, C: float = 1.0) -> dict:
    """Evaluate the two width inequalities with the supplied absolute constant.

    Diagnostic only: the constant is unspecified in theory, so the flags are
    advisory and labeled as such in the report.  Every term is evaluated
    from its logarithm, and the inequalities are compared in log space, so
    the flags hold however large the terms are.  A term is reported as None
    where a double cannot hold it.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    lm, lT, lK, lL, lreg, lC, ldelta = np.log([m, T, K, L, reg, C, delta])
    log_a = 0.5 * lreg - 1.5 * lL + 1.5 * np.log(lT + lK + 2 * lL - ldelta)
    log_b = (6 * (lT + lK + lL) + np.log(lT + lK + lL - ldelta)
             + max(-4 * np.log(lambda0), 0.0))
    log_rhs1 = lC + max(log_a, log_b)
    log_rhs2 = lC + np.logaddexp.reduce([
        lT + 12 * lL - lreg,
        7 * lT - 8 * lreg + 18 * lL + 6 * np.logaddexp(lreg, lL + lT),
        21 * lL + 7 * lT - 7 * lreg + 6 * np.logaddexp(0.0, (lT - lreg) / 2)])
    log_lhs2 = lm - 3 * np.log(lm)

    return {
        "note": "diagnostic -- constant C unknown",
        "C": C,
        "lower_bound_terms": {"sqrt_reg_term": _held(log_a),
                              "horizon_term": _held(log_b)},
        "width": m,
        "lower_bound_rhs": _held(log_rhs1),
        "lower_bound_ok": bool(lm >= log_rhs1),
        "log_cubed_lhs": _held(log_lhs2),
        "log_cubed_rhs": _held(log_rhs2),
        "log_cubed_ok": bool(log_lhs2 >= log_rhs2),
    }
