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
    # 1/delta overflows for a subnormal delta; -log(delta) does not
    log_inv = np.log(1.0 / delta) if 1.0 / delta < np.inf else -np.log(delta)
    return B + R * np.sqrt(d_eff * np.log1p(T * K / reg) + 2.0 + 2.0 * log_inv)


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


def _held(value: float, log_value: float) -> float | None:
    """value when double arithmetic held it, else exp(log_value) when a
    double holds that, else None."""
    if np.isfinite(value):
        return float(value)
    return float(np.exp(log_value)) if log_value < _LOG_MAX else None


@np.errstate(all="ignore")
def check_width_condition(m: int, T: int, K: int, L: int, reg: float,
                          lambda0: float, delta: float, C: float = 1.0) -> dict:
    """Evaluate the two width inequalities with the supplied absolute constant.

    Diagnostic only: the constant is unspecified in theory, so the flags are
    advisory and labeled as such in the report.  The inequalities are
    compared in log space, so the flags hold however large the terms are.  A
    term is reported as double arithmetic computes it, from its logarithm
    where that overflows, and as None where a double cannot hold it.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    reg = np.float64(reg)  # so that its powers overflow to inf, not raise
    term_a = np.sqrt(reg) * L ** -1.5 * np.log(T * K * L ** 2 / delta) ** 1.5
    term_b = T ** 6 * K ** 6 * L ** 6 * np.log(T * K * L / delta) * max(lambda0 ** -4, 1.0)
    rhs1 = C * max(term_a, term_b)
    rhs2 = (C * T * L ** 12 / reg
            + C * T ** 7 * reg ** -8 * L ** 18 * (reg + L * T) ** 6
            + C * L ** 21 * T ** 7 * reg ** -7 * (1.0 + np.sqrt(T / reg)) ** 6)
    lhs2 = m / np.log(m) ** 3

    # the same quantities' logarithms
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
        "lower_bound_terms": {"sqrt_reg_term": _held(term_a, log_a),
                              "horizon_term": _held(term_b, log_b)},
        "width": m,
        "lower_bound_rhs": _held(rhs1, log_rhs1),
        "lower_bound_ok": bool(lm >= log_rhs1),
        "log_cubed_lhs": _held(lhs2, log_lhs2),
        "log_cubed_rhs": _held(rhs2, log_rhs2),
        "log_cubed_ok": bool(log_lhs2 >= log_rhs2),
    }
