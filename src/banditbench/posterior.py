"""Design matrix U = reg*I + sum g g^T / m and the posterior scale sigma.

Full mode keeps the features G (one row per update) and starts in dual form:
by Woodbury, U^-1 = (I - G^T A^-1 G) / reg with A = reg*m*I + G G^T, so it
holds only a t x t factor of A^-1, which a BorderedInverse grows by one row
per update in panels that it never copies.  A sigma is then one Gram row k =
G g and one product with that factor, and memory grows with t.  G is held as
per-layer factors, layer l's block of a network's gradient being the outer
product of the layer's output sensitivity and its input activations, so
that g_i . g = sum_l (delta_{l,i} . delta_l)(a_{l,i} . a_l) from sum_l
(fan_out + fan_in) numbers a row; a context is one layer of one factor.
Once t is a large enough share of dim, the p x p inverse of U costs less
per round; full mode then forms W = R G one column block of flat features
at a time, drops G and the factor, builds the inverse from W, and keeps it
up to date by rank-one Sherman-Morrison updates, applied in place one block
of rows at a time, so that an update reads the inverse once and rewrites it
once without a full-size temporary.  The primal inverse stays exactly
symmetric, since u_i u_j == u_j u_i in IEEE arithmetic.  U itself is never
stored, so the primal form holds one p x p array however long the run.  In
exact arithmetic an update's Schur complement is at least reg*m and its
Sherman-Morrison denominator at least 1; if rounding takes either to zero
or below, the update raises LinAlgError and leaves the design as it was.
With a bandwidth, which full mode alone takes, an RBF Gram matrix replaces
G G^T: the kernel ridge posterior, which never leaves dual form.  Diagonal
mode keeps only diag(U), matching the diagonal approximation used for wide
networks.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .nn import outer_rows

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
# dim.  The switch stays at 0.6 for memory: it holds G, the factor and
# W = R G, then W and the p x p inverse, 35.8 MiB traced at dim 1700 against
# 22.5 MiB after it.  These times were taken while rows were stored flat,
# before they were stored as factors; ROADMAP item 4 re-measures the 0.6.
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


def _sum_of_products(layers):
    """The sum over layers of the product of each layer's terms.  A lone
    term is returned as it is, so a flat feature's Gram row or squared norm
    keeps the bits of its one product."""
    total = None
    for terms in layers:
        product = None
        for term in terms:
            product = term if product is None else product * term
        total = product if total is None else total + product
    return total


def _squared_norms(Q: list) -> np.ndarray:
    """|f|^2 of each row f of a dual-form stack Q: the sum over layers of
    the product of the factors' squared norms."""
    return _sum_of_products((np.einsum("kf,kf->k", f, f) for f in q)
                            for q in Q)


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

    def apply(self, B: np.ndarray, out: np.ndarray) -> None:
        """out = R B for an (n, cols) block B, one panel of R at a time."""
        for i, j, P in self._panels:
            np.matmul(P, B[:j], out=out[i:j])

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
    (full mode only), the RBF Gram k(g, h) = exp(-bandwidth |g - h|^2).
    Rows added by observe also give the ridge mean g^T U^-1 b, b = sum
    reward g / m: V w in dual form, with w = R r grown by one entry per row,
    or g^T (U^-1 b).

    A feature is an array of length dim, or factor rows such as
    nn.FactorRows: an object whose `factors` lists, per layer, the two
    vectors whose outer product, row-major, is the layer's block of the
    feature, and which np.asarray flattens.  The dual form keeps one Rows
    per factor, a flat row being one layer of one factor, and takes a Gram
    entry as the sum over layers of the product of the factors' dot
    products; the diagonal and primal forms flatten factor rows."""

    def __init__(self, dim: int, reg: float, width: int, mode: str = "full",
                 bandwidth: float | None = None):
        if not 0.0 < reg < np.inf:
            raise ValueError(f"reg must be positive and finite, got {reg}")
        if width <= 0:
            raise ValueError("width must be positive")
        if mode not in ("full", "diagonal"):
            raise ValueError(f"unknown mode {mode!r}")
        if bandwidth is not None and mode != "full":
            raise ValueError(f"a bandwidth needs mode 'full', got {mode!r}")
        self.dim = dim
        self.reg = reg
        self.width = width
        self.mode = mode
        self.bandwidth = bandwidth
        self.n_updates = 0
        self._dual: BorderedInverse | None = None
        if mode == "full":
            self._logdet = dim * np.log(reg)
            # per layer, the stored rows of each factor, made by the first
            # update in the layout of its feature
            self._G: list[list[Rows]] | None = None
            self._dual = BorderedInverse()
            self._inv: np.ndarray | None = None
            # |g|^2 of each row, for the RBF Gram; b, once out of dual form
            self._r, self._w, self._sq_norms = Rows(), Rows(), Rows()
            self._b = np.zeros(dim) if bandwidth is None else None
        else:
            self._diag = np.full(dim, reg)

    def _features(self, g, stack: bool = True) -> tuple[list | np.ndarray, bool]:
        """g as the current form reads it, and whether it is one feature:
        flat (n, dim) rows in diagonal and primal form; in dual form, per
        layer, the (n, length) stacks of its factors, a flat stack being one
        layer of one factor, and factor rows flattened if the stored rows are
        flat.  Raises ValueError unless g is one feature, or a stack of them
        if stack, of length dim with finite entries."""
        layers = [[np.asarray(f, dtype=np.float64) for f in q]
                  for q in getattr(g, "factors", [(g,)])]
        factors = [f for q in layers for f in q]
        single = factors[0].ndim == 1
        if (any(f.ndim != 2 - single for f in factors) or not (single or stack)
                or sum(math.prod(f.shape[-1] for f in q)
                       for q in layers) != self.dim):
            raise ValueError(f"feature of shapes {[f.shape for f in factors]}"
                             f" does not match dim {self.dim}")
        # count_nonzero is faster than .all()
        if any(np.count_nonzero(np.isfinite(f)) != f.size for f in factors):
            raise ValueError("non-finite entries in gradient feature")
        if self._dual is None or (self._G is not None
                                  and len(self._G[0]) < len(layers[0])):
            F = np.asarray(g, dtype=np.float64).reshape(-1, self.dim)
            return (F if self._dual is None else [(F,)]), single
        return [[np.atleast_2d(f) for f in q] for q in layers], single

    def _gram(self, Q: list) -> np.ndarray:
        """k(f, h) for each row f of the dual-form stack Q and each stored
        row h.  A layer's share of f.h is the product of its factors' dot
        products; a flat stack against stored factor rows meets the flat
        stored features one column block at a time.  RBF squared distances
        are expanded as |f|^2 - 2 f.h + |h|^2 and clamped at 0, which
        rounding can cross for a repeated row."""
        if self._G is None:
            return np.empty((len(Q[0][0]), 0))
        if len(Q[0]) == len(self._G[0]):
            D = _sum_of_products((f @ h.array.T for f, h in zip(q, rows))
                                 for q, rows in zip(Q, self._G))
        else:
            F, a, D = Q[0][0], 0, 0.0
            for B in self._column_blocks():
                D = D + F[:, a:a + B.shape[1]] @ B.T
                a += B.shape[1]
        if self.bandwidth is None:
            return D
        D *= -2.0
        D += _squared_norms(Q)[:, None]
        D += self._sq_norms.array
        np.maximum(D, 0.0, out=D)
        D *= -self.bandwidth
        return np.exp(D, out=D)

    def _column_blocks(self):
        """The flat stored features, one block of columns at a time: a flat
        layer as a view, a factored layer built about _PANEL columns at a
        time from its two factors."""
        for rows in self._G:
            if len(rows) == 1:
                yield rows[0].array
                continue
            D, A = (h.array for h in rows)
            step = max(1, _PANEL // A.shape[1])
            for o in range(0, D.shape[1], step):
                yield outer_rows(D[:, o:o + step], A)

    def sigma(self, g):
        """Posterior scale sqrt(reg * g^T U^{-1} g / m): a float for one
        feature, an array for a (K, dim) stack of them.  Raises LinAlgError
        if a sigma is not finite."""
        X, single = self._features(g)
        sigmas = self._scan(X)[1]
        return float(sigmas[0]) if single else sigmas

    def posterior(self, F) -> tuple[np.ndarray, np.ndarray]:
        """The ridge means and the sigmas of a (K, dim) stack F, from one
        whitening (full mode, every row added by observe)."""
        X = self._features(F)[0]
        V, sigmas = self._scan(X)
        return (X @ (self._inv @ self._b) if V is None
                else V @ self._w.array), sigmas

    def _scan(self, X) -> tuple[np.ndarray | None, np.ndarray]:
        """The sigmas of the stack X and, in dual form, its whitened Gram
        rows V.  A tiny reg can overflow a sigma, which then raises rather
        than warns.  An RBF sigma is sqrt(1 - |v|^2) with |v|^2 <= k(g, g) =
        1 in exact arithmetic, so it is neither guarded nor checked."""
        V, dot = None, self.bandwidth is None
        with (np.errstate(over="ignore", invalid="ignore") if dot
              else contextlib.nullcontext()):
            if self.mode == "diagonal":
                scaled = self.reg * np.sum(X * X / self._diag, axis=1)
            elif self._inv is not None:
                scaled = self.reg * np.einsum("kp,kp->k", X @ self._inv, X)
            else:
                # reg * g^T U^-1 g = k(g, g) - k^T A^-1 k with k the Gram
                # row, and g^T g the sum over layers of the product of the
                # factors' squared norms
                V = self._dual.whiten(self._gram(X))
                own = _squared_norms(X) if dot else 1.0
                scaled = own - np.einsum("kt,kt->k", V, V)
            sigmas = np.sqrt(np.maximum(scaled / self.width, 0.0))
        if dot and not np.isfinite(sigmas).all():
            raise self._failure("posterior scale is not finite")
        return V, sigmas

    def update(self, g) -> None:
        """Rank-one update U += g g^T / m.  Raises LinAlgError, and changes
        nothing, if rounding has cost U its positive definiteness."""
        X = self._features(g, stack=False)[0]
        m = self.width
        if self.mode == "diagonal":
            g = X[0]
            self._diag += g * g / m
        elif self._inv is None:
            self._G = self._G or [[Rows(f.shape[1:]) for f in q] for q in X]
            if len(X[0]) != len(self._G[0]):
                raise ValueError("a flat feature cannot join factor rows")
            # A gains the Gram row of g and the diagonal entry
            # reg*m + k(g, g), and det U grows by the factor s / (reg*m)
            sq = _sum_of_products((float(f[0] @ f[0]) for f in q) for q in X)
            s = self._dual.add(self._gram(X)[0], self.reg * m
                               + (sq if self.bandwidth is None else 1.0))
            if s <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            for q, rows in zip(X, self._G):
                for f, h in zip(q, rows):
                    h.append(f[0])
            del rows, h  # a Rows held here would outlive the switch below
            if self.bandwidth is not None:
                self._sq_norms.append(sq)
            self._logdet += math.log(s / (self.reg * m))
            if (self.bandwidth is None
                    and self._dual.n >= _DUAL_FRACTION * self.dim):
                W = self._whitened()
                self._G = self._dual = None  # freed before W^T W is formed
                self._inv = self._primal_inverse(W)
                self._scratch = np.empty((_ROW_BLOCK, self.dim))
        else:
            g = X[0]
            u = self._inv @ g
            denom = 1.0 + float(g @ u) / m
            if denom <= 0.0:
                raise self._failure("design matrix lost positive definiteness")
            # inv -= u u^T / (m * denom)
            _add_outer(self._inv, u, -(m * denom), self._scratch)
            self._logdet += math.log(denom)
        self.n_updates += 1

    def observe(self, g, reward: float) -> None:
        """update(g) for a row with its reward (full mode): b gains
        reward g / m and, in dual form, w the entry of the new row of R."""
        self.update(g)
        if self._b is not None:
            self._b += (reward / self.width) * np.asarray(g, dtype=np.float64)
        if self._dual is not None:
            self._r.append(float(reward))
            self._w.append(self._dual.row(self._dual.n - 1) @ self._r.array)

    def _failure(self, what: str) -> np.linalg.LinAlgError:
        return np.linalg.LinAlgError(
            f"{what} after {self.n_updates} updates (dim={self.dim}, "
            f"reg={float(self.reg)!r}, width={self.width}); raise --lambda")

    def _whitened(self) -> np.ndarray:
        """W = R G, one column block of flat stored features at a time, so
        that neither the flat t x dim features nor a dense R is held."""
        W, a = np.empty((self._dual.n, self.dim)), 0
        for B in self._column_blocks():
            self._dual.apply(B, W[:, a:a + B.shape[1]])
            a += B.shape[1]
        return W

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
