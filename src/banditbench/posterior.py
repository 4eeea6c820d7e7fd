"""Design matrix U = reg*I + sum g g^T / m and the posterior scale sigma.

Full mode keeps the gradient features G (one row per update) and starts in
dual form: by Woodbury, U^-1 = (I - G^T A^-1 G) / reg with A = reg*m*I + G G^T,
so it holds only a t x t factor of A^-1, which a BorderedInverse grows by one
row per update in panels that it never copies.  A sigma is then one product
with G and one with that factor, and memory grows with t.  Once t is a large
enough share of dim, the p x p inverse of U costs less per round; full mode
then forms W = R G, drops G and the factor, builds the inverse from W, and
keeps it up to date by rank-one Sherman-Morrison updates, applied in place
one block of rows at a time, so that an update reads the inverse once and
rewrites it once without a full-size temporary.  The primal inverse stays
exactly symmetric, since u_i u_j == u_j u_i in IEEE arithmetic.  U itself is
never stored, so the primal form holds one p x p array however long the run.
In exact arithmetic an update's Schur complement is at least reg*m and its
Sherman-Morrison denominator at least 1; if rounding takes either to zero or
below, the update raises LinAlgError and leaves the design as it was.
With a bandwidth, an RBF Gram matrix replaces G G^T: the kernel ridge
posterior, which never leaves dual form.  Diagonal mode keeps only diag(U),
matching the diagonal approximation used for wide networks.
"""

from __future__ import annotations

import contextlib
import math

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
# dim.  The switch stays at 0.6 for memory: it holds G, the factor, a dense
# copy of the factor and W = R G, then W and the p x p inverse: 39.0 MiB at
# dim 1700, against 22.5 MiB after it, and `--posterior full --T 5000` took
# 46.5 s and peaked at 87.9 MiB (one BLAS thread).  With U stored beside its
# inverse, that run took 49.1 s and peaked at 143.2 MiB with 1.0, against
# 56.2 s and 114.6 MiB with 0.6.
_DUAL_FRACTION = 0.6
# Rows of the triangular factor per stored panel, and per block of a product
# with it.  A product reads the lower triangle only, one panel at a time; at
# t=1000 a (2, t) stack times R^T took 0.23 ms this way and 0.89 ms as one
# matmul over the square, one BLAS thread.
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
    rewrites no stored entry.  R lives in zeroed panels of _PANEL rows, each
    with the columns up to its last row's diagonal; a panel is allocated
    with its first row and never copied, so R takes about n^2/2 doubles."""

    def __init__(self):
        self._blocks: list[np.ndarray] = []
        # (i, j, R[i:j, :j]) for each panel: a view of its rows [i, j) up
        # to column j, kept rather than sliced anew by every product
        self._panels: list[tuple[int, int, np.ndarray]] = []
        self.n = 0

    @property
    def factor(self) -> np.ndarray:
        """R = L^-1, assembled as a dense copy."""
        R = np.zeros((self.n, self.n))
        for i, j, P in self._panels:
            R[i:j, :j] = P
        return R

    def row(self, i: int) -> np.ndarray:
        """Row i of R up to its diagonal entry (a view)."""
        return self._blocks[i // _PANEL][i % _PANEL, :i + 1]

    def add(self, k: np.ndarray, d: float) -> float:
        """Borders A with the column k and the diagonal entry d, and returns
        the Schur complement s = d - k^T A^-1 k.  If s <= 0 the bordered
        matrix is not positive definite and R is left as it was."""
        n = self.n
        # l = R k and u = R^T l = A^-1 k, in one pass over the panels of R:
        # u gains a panel's share as soon as its rows of l are known
        l, u = np.empty(n), np.zeros(n)
        for i, j, P in self._panels:
            np.matmul(P, k[:j], out=l[i:j])
            u[:j] += l[i:j] @ P
        s = d - float(l @ l)
        if s <= 0.0:
            return s
        i = n - n % _PANEL
        if i == n:
            self._blocks.append(np.zeros((_PANEL, n + _PANEL)))
            self._panels.append(None)
        # L gains the row (l^T, sqrt(s)), so R gains (-l^T R, 1) / sqrt(s)
        root, new = math.sqrt(s), self.row(n)
        np.divide(u, -root, out=new[:n])
        new[n] = 1.0 / root
        self.n = n + 1
        self._panels[-1] = (i, n + 1, self._blocks[-1][:n + 1 - i, :n + 1])
        return s

    def whiten(self, K: np.ndarray) -> np.ndarray:
        """K R^T for a (rows, n) stack K: each row k becomes R k, whose
        squared norm is k^T A^-1 k."""
        V = np.empty((len(K), self.n))
        for i, j, P in self._panels:
            np.matmul(K[:, :j], P.T, out=V[:, i:j])
        return V


class DesignMatrix:
    """Incrementally updated design matrix over features g: a network's
    gradients or a baseline's contexts, under g^T h or, with a bandwidth
    (full mode only), the RBF Gram k(g, h) = exp(-bandwidth |g - h|^2).  Rows added by observe
    also give the ridge mean g^T U^-1 b, b = sum reward g / m: V w in dual
    form, with w = R r grown by one entry per row, or g^T (U^-1 b)."""

    def __init__(self, dim: int, reg: float, width: int, mode: str = "full",
                 bandwidth: float | None = None):
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
        self.bandwidth = bandwidth
        self.n_updates = 0
        if mode == "full":
            self._logdet = dim * np.log(reg)
            self._G = Rows((dim,))
            self._dual: BorderedInverse | None = BorderedInverse()
            self._inv: np.ndarray | None = None
            # |g|^2 of each row, for the RBF Gram; b, once out of dual form
            self._r, self._w, self._sq_norms = Rows(), Rows(), Rows()
            self._b = np.zeros(dim) if bandwidth is None else None
        else:
            self._diag = np.full(dim, reg)

    def _check(self, g, stack: bool = False) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if g.shape[-1:] != (self.dim,) or g.ndim > (2 if stack else 1):
            raise ValueError(f"feature length {g.shape} does not match dim {self.dim}")
        if np.count_nonzero(np.isfinite(g)) != g.size:  # faster than .all()
            raise ValueError("non-finite entries in gradient feature")
        return g

    def _gram(self, F: np.ndarray) -> np.ndarray:
        """k(f, h) for each row f of F and each stored row h.  RBF squared
        distances are expanded as |f|^2 - 2 f.h + |h|^2 and clamped at 0,
        which rounding can cross for a repeated row."""
        D = F @ self._G.array.T
        if self.bandwidth is None:
            return D
        D *= -2.0
        D += np.einsum("kd,kd->k", F, F)[:, None]
        D += self._sq_norms.array
        np.maximum(D, 0.0, out=D)
        D *= -self.bandwidth
        return np.exp(D, out=D)

    def sigma(self, g):
        """Posterior scale sqrt(reg * g^T U^{-1} g / m): a float for one
        feature, an array for a (K, dim) stack of them.  Raises LinAlgError
        if a sigma is not finite."""
        g = self._check(g, stack=True)
        sigmas = self._scan(g.reshape(-1, self.dim))[1]
        return float(sigmas[0]) if g.ndim == 1 else sigmas

    def posterior(self, F) -> tuple[np.ndarray, np.ndarray]:
        """The ridge means and the sigmas of a (K, dim) stack F, from one
        whitening (full mode, every row added by observe)."""
        F = self._check(F, stack=True).reshape(-1, self.dim)
        V, sigmas = self._scan(F)
        return (F @ (self._inv @ self._b) if V is None
                else V @ self._w.array), sigmas

    def _scan(self, F: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """The sigmas of the stack F and, in dual form, its whitened Gram
        rows V.  A tiny reg can overflow a sigma, which then raises rather
        than warns.  An RBF sigma is sqrt(1 - |v|^2) with |v|^2 <= k(g, g) =
        1 in exact arithmetic, so it is neither guarded nor checked."""
        V, dot = None, self.bandwidth is None
        with (np.errstate(over="ignore", invalid="ignore") if dot
              else contextlib.nullcontext()):
            if self.mode == "diagonal":
                scaled = self.reg * np.sum(F * F / self._diag, axis=1)
            elif self._inv is not None:
                scaled = self.reg * np.einsum("kp,kp->k", F @ self._inv, F)
            else:
                # reg * g^T U^-1 g = k(g, g) - k^T A^-1 k with k the Gram row
                V = self._dual.whiten(self._gram(F))
                own = np.einsum("kp,kp->k", F, F) if dot else 1.0
                scaled = own - np.einsum("kt,kt->k", V, V)
            sigmas = np.sqrt(np.maximum(scaled / self.width, 0.0))
        if dot and not np.isfinite(sigmas).all():
            raise self._failure("posterior scale is not finite")
        return V, sigmas

    def update(self, g: np.ndarray) -> None:
        """Rank-one update U += g g^T / m.  Raises LinAlgError, and changes
        nothing, if rounding has cost U its positive definiteness."""
        g = self._check(g)
        m = self.width
        if self.mode == "diagonal":
            self._diag += g * g / m
        elif self._inv is None:
            # A gains the Gram row of g and the diagonal entry
            # reg*m + k(g, g), and det U grows by the factor s / (reg*m)
            sq = float(g @ g)
            s = self._dual.add(self._gram(g[None])[0], self.reg * m
                               + (sq if self.bandwidth is None else 1.0))
            if s <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            self._G.append(g)
            if self.bandwidth is not None:
                self._sq_norms.append(sq)
            self._logdet += math.log(s / (self.reg * m))
            if (self.bandwidth is None
                    and len(self._G) >= _DUAL_FRACTION * self.dim):
                W = self._dual.factor @ self._G.array
                self._G = self._dual = None  # freed before W^T W is formed
                self._inv = self._primal_inverse(W)
                self._scratch = np.empty((_ROW_BLOCK, self.dim))
        else:
            u = self._inv @ g
            denom = 1.0 + float(g @ u) / m
            if denom <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            # inv -= u u^T / (m * denom)
            _add_outer(self._inv, u, -(m * denom), self._scratch)
            self._logdet += math.log(denom)
        self.n_updates += 1

    def observe(self, g: np.ndarray, reward: float) -> None:
        """update(g) for a row with its reward (full mode): b gains
        reward g / m and, in dual form, w the entry of the new row of R."""
        g = np.asarray(g, dtype=np.float64)
        self.update(g)
        if self._b is not None:
            self._b += (reward / self.width) * g
        if self._dual is not None:
            self._r.append(float(reward))
            self._w.append(self._dual.row(self._dual.n - 1) @ self._r.array)

    def _failure(self, what: str) -> np.linalg.LinAlgError:
        return np.linalg.LinAlgError(
            f"{what} after {self.n_updates} updates (dim={self.dim}, "
            f"reg={float(self.reg)!r}, width={self.width}); raise --lambda")

    def _primal_inverse(self, W: np.ndarray) -> np.ndarray:
        """U^-1 = (I - W^T W) / reg from W = R G, the dual form's features
        whitened.  numpy forms W^T W by one symmetric rank-k product, so it
        is exactly symmetric."""
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
