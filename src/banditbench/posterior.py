"""Design matrix U = reg*I + sum g g^T / m and the posterior scale sigma.

Full mode keeps the inverse of U up to date by rank-one Sherman-Morrison
updates, applied in place one block of rows at a time, so that an update reads
the inverse once and rewrites it once without a full-size temporary.  The
update keeps the inverse exactly symmetric, since u_i u_j == u_j u_i in IEEE
arithmetic.  U itself is only needed by `.matrix` and by the rebuild fallback
(taken if the update denominator degenerates), so features are buffered and
folded into U one block at a time, and whenever U is read.  Diagonal mode
keeps only diag(U), matching the diagonal approximation used for wide
networks.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

# Rows of the inverse rewritten per pass of a full-mode update: a 32-row block
# of the rank-one correction (435 KB at dim 1700) stays in cache between its
# computation and its subtraction from the inverse.
_ROW_BLOCK = 32
# Features buffered before they are folded into U with one matrix product.
_FOLD_BLOCK = 64


class DesignMatrix:
    """Incrementally updated design matrix over gradient features."""

    def __init__(self, dim: int, reg: float, width: int, mode: str = "full"):
        if reg <= 0:
            raise ValueError("reg must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        if mode not in ("full", "diagonal"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dim = dim
        self.reg = reg
        self.width = width
        self.mode = mode
        self.logdet = dim * np.log(reg)
        self.n_rebuilds = 0
        self.n_updates = 0
        if mode == "full":
            self._U = reg * np.eye(dim)
            self._inv = np.eye(dim) / reg
            self._scratch = np.empty((_ROW_BLOCK, dim))
            self._pending = np.empty((_FOLD_BLOCK, dim))
            self._n_pending = 0
        else:
            self._diag = np.full(dim, reg)

    def _check(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"feature length {g.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite entries in gradient feature")
        return g

    def sigma(self, g: np.ndarray) -> float:
        """Posterior scale sqrt(reg * g^T U^{-1} g / m)."""
        g = self._check(g)
        if self.mode == "full":
            quad = float(g @ self._inv @ g)
        else:
            quad = float(np.sum(g * g / self._diag))
        return float(np.sqrt(max(self.reg * quad / self.width, 0.0)))

    def update(self, g: np.ndarray) -> None:
        """Rank-one update U += g g^T / m."""
        g = self._check(g)
        m = self.width
        self.n_updates += 1
        if self.mode == "diagonal":
            self._diag += g * g / m
            self.logdet = float(np.sum(np.log(self._diag)))
            return
        self._pending[self._n_pending] = g
        self._n_pending += 1
        if self._n_pending == _FOLD_BLOCK:
            self._fold()
        u = self._inv @ g
        denom = 1.0 + float(g @ u) / m
        if denom <= 0.0:
            log.warning("Sherman-Morrison denominator %.3g <= 0; rebuilding inverse",
                        denom)
            self._rebuild()
            return
        # inv -= u u^T / (m * denom), with the same operations as the one-shot
        # expression, in row blocks through a preallocated scratch
        scale = m * denom
        for start in range(0, self.dim, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, self.dim)
            block = self._scratch[:stop - start]
            np.multiply.outer(u[start:stop], u, out=block)
            block /= scale
            self._inv[start:stop] -= block
        self.logdet += float(np.log(denom))

    def _fold(self) -> None:
        """Adds the buffered features to U: U += P^T P / m."""
        if self._n_pending:
            pending = self._pending[:self._n_pending]
            outer = pending.T @ pending
            outer /= self.width
            self._U += outer
            self._n_pending = 0

    def _rebuild(self) -> None:
        self.n_rebuilds += 1
        self._fold()
        # slogdet and inv both factorise U by LU with partial pivoting, so a
        # sign > 0 rules out the zero pivot on which inv would raise
        sign, logdet = np.linalg.slogdet(self._U)
        if sign <= 0:
            raise np.linalg.LinAlgError(
                f"design matrix lost positive definiteness after {self.n_updates} "
                f"updates (dim={self.dim}, reg={self.reg:g}, width={self.width}); "
                "raise --lambda or use --posterior diag")
        self._inv = np.linalg.inv(self._U)
        self._inv = (self._inv + self._inv.T) / 2.0
        self.logdet = logdet

    @property
    def matrix(self) -> np.ndarray:
        """The accumulated U (materialized in diagonal mode)."""
        if self.mode == "full":
            self._fold()
            return self._U.copy()
        return np.diag(self._diag)

    @property
    def inverse(self) -> np.ndarray:
        if self.mode == "full":
            return self._inv.copy()
        return np.diag(1.0 / self._diag)
