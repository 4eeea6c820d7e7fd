"""Design matrix U = reg*I + sum g g^T / m and the posterior scale sigma.

Full mode keeps the gradient features G (one row per update) and starts in
dual form: by Woodbury, U^-1 = (I - G^T A^-1 G) / reg with A = reg*m*I + G G^T,
so it holds only a t x t factor of A^-1, which a BorderedInverse grows by one
row per update without rewriting the rows it already holds.  A sigma is then
one product with G and one with that factor, and memory grows with t.  Once t
is a large enough share of dim, the p x p inverse of U costs less per round;
full mode then builds it once from the dual form, drops G and the factor, and
keeps the inverse up to date by rank-one Sherman-Morrison updates, applied in
place one block of rows at a time, so that an update reads the inverse once
and rewrites it once without a full-size temporary.  The primal inverse stays
exactly symmetric, since u_i u_j == u_j u_i in IEEE arithmetic.  U itself is
never stored, so the primal form holds one p x p array however long the run.
In exact arithmetic an update's Schur complement is at least reg*m and its
Sherman-Morrison denominator at least 1; if rounding takes either to zero or
below, the update raises LinAlgError and leaves the design as it was.
Diagonal mode keeps only diag(U), matching the diagonal approximation used
for wide networks.
"""

from __future__ import annotations

import numpy as np

# Rows rewritten per pass of a rank-one update: a 32-row block of the
# correction (435 KB at dim 1700) stays in cache between its computation and
# its addition to the inverse.
_ROW_BLOCK = 32
# Full mode leaves the dual form once t reaches this fraction of dim.  A dual
# round reads G (t x p) twice and the lower triangle of the t x t factor of
# A^-1 twice, and rewrites nothing; a primal round reads and rewrites the
# p x p inverse.  With K=4 arms and one BLAS thread on a 2-vCPU host, a dual
# round cost 0.21-0.24, 0.26-0.33, 0.35-0.40 and 0.48-0.56 of a primal one at
# t = 0.5, 0.6, 0.8 and 1.0 dim (dim 1700 and dim 850), and 0.76-0.94 at 1.4
# dim.  The switch stays at 0.6 for memory: G and the factor grow by capacity
# doubling, and the switch holds them, W = R G and the p x p inverse at once.
# At dim 1700 that is 56.6 MiB, against the 22.5 MiB held after it, and
# `--posterior full --T 5000` took 44.2 s and peaked at 105.4 MiB (one BLAS
# thread).  With 1.0, and U stored beside its inverse, that run took 49.1 s
# and peaked at 143.2 MiB, against 56.2 s and 114.6 MiB with 0.6.
_DUAL_FRACTION = 0.6
# Rows of the triangular factor per block of a product with it.  A product
# then reads the lower triangle only, one 128-row panel at a time; at t=1000
# a (2, t) stack times R^T took 0.23 ms this way and 0.89 ms as one matmul
# over the square, one BLAS thread.
_PANEL = 128


class Rows:
    """An array grown one row at a time, in place, by capacity doubling."""

    def __init__(self, row_shape: tuple = (), dtype=np.float64):
        self._data = np.empty((0, *row_shape), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, row) -> int:
        """Stores row and returns its index."""
        if self._n == len(self._data):
            grown = np.empty((max(16, 2 * self._n), *self._data.shape[1:]),
                             dtype=self._data.dtype)
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = row
        self._n += 1
        return self._n - 1

    @property
    def array(self) -> np.ndarray:
        return self._data[:self._n]


def _add_outer(M: np.ndarray, u: np.ndarray, scale: float,
               scratch: np.ndarray) -> None:
    """M += u u^T / scale in place, one block of rows at a time through
    scratch, with the same operations as the one-shot expression."""
    n = len(u)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        block = scratch[:stop - start, :n]
        np.multiply.outer(u[start:stop], u, out=block)
        block /= scale
        M[start:stop] += block


class BorderedInverse:
    """The inverse of a growing symmetric positive definite n x n matrix A,
    such as a Gram matrix plus a ridge, bordered by one row and column per
    add.  It is held as R = L^-1, where A = L L^T, so A^-1 = R^T R.  R is
    lower triangular and bordering A only appends a row to it: an add
    rewrites no stored entry.  R lives in a zero-initialised buffer whose
    capacity doubles, so the entries above its diagonal stay exactly zero
    and an add allocates no n x n array."""

    def __init__(self):
        self._data = np.zeros((0, 0))
        self.n = 0

    @property
    def factor(self) -> np.ndarray:
        """R = L^-1 (a view)."""
        return self._data[:self.n, :self.n]

    def _panels(self):
        """(i, j, R[i:j, :j]) for each block of _PANEL rows of R: its lower
        triangle and diagonal, without the zeros to the right of row j."""
        for i in range(0, self.n, _PANEL):
            j = min(i + _PANEL, self.n)
            yield i, j, self._data[i:j, :j]

    def _apply(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """l = R k and u = R^T l = A^-1 k, in one pass over the panels of R:
        u gains a panel's share as soon as its rows of l are known."""
        l, u = np.empty(self.n), np.zeros(self.n)
        for i, j, P in self._panels():
            np.matmul(P, k[:j], out=l[i:j])
            u[:j] += l[i:j] @ P
        return l, u

    def solve(self, k: np.ndarray) -> np.ndarray:
        """A^-1 k."""
        return self._apply(k)[1]

    def add(self, k: np.ndarray, d: float) -> float:
        """Borders A with the column k and the diagonal entry d, and returns
        the Schur complement s = d - k^T A^-1 k.  If s <= 0 the bordered
        matrix is not positive definite and R is left as it was."""
        n = self.n
        l, u = self._apply(k)
        s = d - float(l @ l)
        if s <= 0.0:
            return s
        if n == len(self._data):
            grown = np.zeros((max(16, 2 * n),) * 2)
            grown[:n, :n] = self.factor
            self._data = grown
        # L gains the row (l^T, sqrt(s)), so R gains (-l^T R, 1) / sqrt(s)
        root = np.sqrt(s)
        np.divide(u, -root, out=self._data[n, :n])
        self._data[n, n] = 1.0 / root
        self.n = n + 1
        return s

    def whiten(self, K: np.ndarray) -> np.ndarray:
        """K R^T for a (rows, n) stack K: each row k becomes R k, whose
        squared norm is k^T A^-1 k."""
        V = np.empty((len(K), self.n))
        for i, j, P in self._panels():
            np.matmul(K[:, :j], P.T, out=V[:, i:j])
        return V

    def quad(self, K: np.ndarray) -> np.ndarray:
        """k^T A^-1 k for each row k of the (rows, n) stack K."""
        V = self.whiten(K)
        return np.einsum("kt,kt->k", V, V)


class DesignMatrix:
    """Incrementally updated design matrix over gradient features."""

    def __init__(self, dim: int, reg: float, width: int, mode: str = "full"):
        if not 0.0 < reg < np.inf:
            raise ValueError(f"reg must be positive and finite, got {reg}")
        if width <= 0:
            raise ValueError("width must be positive")
        if mode not in ("full", "diagonal"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dim = dim
        self.reg = reg
        self.width = width
        self.mode = mode
        self.n_updates = 0
        if mode == "full":
            self._logdet = dim * np.log(reg)
            self._G = Rows((dim,))
            self._dual: BorderedInverse | None = BorderedInverse()
            self._inv: np.ndarray | None = None
        else:
            self._diag = np.full(dim, reg)

    def _check(self, g, stack: bool = False) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if g.shape[-1:] != (self.dim,) or g.ndim > (2 if stack else 1):
            raise ValueError(f"feature length {g.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite entries in gradient feature")
        return g

    def sigma(self, g):
        """Posterior scale sqrt(reg * g^T U^{-1} g / m): a float for one
        feature, an array for a (K, dim) stack of them.  Raises LinAlgError
        if a sigma is not finite."""
        g = self._check(g, stack=True)
        F = np.atleast_2d(g)
        # a tiny reg can overflow sigma; that raises below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.mode == "diagonal":
                scaled = self.reg * np.sum(F * F / self._diag, axis=1)
            elif self._inv is not None:
                scaled = self.reg * np.einsum("kp,kp->k", F @ self._inv, F)
            else:
                # reg * g^T U^-1 g = g^T g - k^T A^-1 k with k = G g
                K = F @ self._G.array.T
                scaled = np.einsum("kp,kp->k", F, F) - self._dual.quad(K)
            sigmas = np.sqrt(np.maximum(scaled / self.width, 0.0))
        if not np.all(np.isfinite(sigmas)):
            raise self._failure("posterior scale is not finite")
        return float(sigmas[0]) if g.ndim == 1 else sigmas

    def solve(self, v: np.ndarray) -> np.ndarray:
        """U^{-1} v (full mode)."""
        if self._inv is not None:
            return self._inv @ v
        G = self._G.array
        return (v - G.T @ self._dual.solve(G @ v)) / self.reg

    def update(self, g: np.ndarray) -> None:
        """Rank-one update U += g g^T / m.  Raises LinAlgError, and changes
        nothing, if rounding has cost U its positive definiteness."""
        g = self._check(g)
        m = self.width
        if self.mode == "diagonal":
            self._diag += g * g / m
        elif self._inv is None:
            # A gains the row G g and the diagonal entry reg*m + g^T g, and
            # det U grows by the factor s / (reg*m)
            s = self._dual.add(self._G.array @ g, self.reg * m + float(g @ g))
            if s <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            self._G.append(g)
            self._logdet += float(np.log(s / (self.reg * m)))
            if len(self._G) >= _DUAL_FRACTION * self.dim:
                self._inv = self._primal_inverse()
                self._G = self._dual = None
                self._scratch = np.empty((_ROW_BLOCK, self.dim))
        else:
            u = self._inv @ g
            denom = 1.0 + float(g @ u) / m
            if denom <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            # inv -= u u^T / (m * denom)
            _add_outer(self._inv, u, -(m * denom), self._scratch)
            self._logdet += float(np.log(denom))
        self.n_updates += 1

    def _failure(self, what: str) -> np.linalg.LinAlgError:
        return np.linalg.LinAlgError(
            f"{what} after {self.n_updates} updates (dim={self.dim}, "
            f"reg={float(self.reg)!r}, width={self.width}); raise --lambda")

    def _primal_inverse(self) -> np.ndarray:
        """U^-1 = (I - W^T W) / reg with W = R G, from the dual form.  numpy
        forms W^T W by one symmetric rank-k product, so it is exactly
        symmetric."""
        W = self._dual.factor @ self._G.array
        inv = W.T @ W
        inv *= -1.0 / self.reg
        inv.flat[::self.dim + 1] += 1.0 / self.reg
        return inv

    @property
    def logdet(self) -> float:
        """log det U: a running sum in full mode, summed when read in
        diagonal mode."""
        if self.mode == "diagonal":
            return float(np.sum(np.log(self._diag)))
        return self._logdet
