"""Primal-dual interior-point solver for small SDP/LP problems.

Standard form:

    minimize    c . x
    subject to  A x = b
                x in K = H+(k_1) x ... x H+(k_B) x R+^m

H+(k) is the cone of positive semidefinite complex Hermitian k x k
matrices.  A block of order k is stored as its k^2 real svec coordinates,
in the order of the Frobenius-orthonormal basis F_a of w1.hermitian_basis:
X[r, r], then for each c > r sqrt(2) Re X[r, c] and sqrt(2) Im X[r, c].
So svec(X)[a] = Tr[F_a X] and svec(X) . svec(Y) = Tr[X Y]; a constraint
row a . x reads Tr[F X] with F = smat(a), and c, A and b stay real.  The
nonnegative-orthant segment sits after all PSD blocks.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and
a Mehrotra predictor-corrector step, the textbook recipe:

  * NT scaling point per block from the SVD of L_s^H L_x, where
    X = L_x L_x^H and S = L_s L_s^H;
  * Schur complement  A (W (.) W) A^T  assembled per block with a static
    1e-12 diagonal regularization (escalating jitter on Cholesky
    breakdown);
  * predictor with sigma = 0, corrector with sigma = (mu_aff/mu)^3 and the
    second-order Mehrotra term;
  * steps damped to 0.98 of the distance to the cone boundary.

x and s start at 2I on every PSD block and at 1 on the LP tail, unless a
hint is given.  Earlier versions solved each Hermitian block as its real
symmetric image of twice the order, started at the identity there; from
2I the W1 programs of qw1.w1 follow those same iterates, so seeded outputs
built on them retain their values.  Only the stopping test, whose residuals
were scaled differently there, can end a solve one iteration apart.

The programs built here have PSD blocks of only one or a few orders (2n
blocks of order D for W1, 2 for the Lipschitz constant, orders 2d^2, d, d
for the diamond norm), and most are tiny, so a numpy call per block costs
more than its arithmetic.  The NT scaling, the step length, the map G, the
corrector and the interior push therefore treat all blocks of one order
as one (B, k, k) stack: an index array per order gathers their svec
coordinates from the vector and scatters them back, wherever the blocks
sit, and eigh, svd, eigvalsh and matrix products run over the stack.
Only the Schur complement is still assembled block by block.

A is converted to CSR once per solve, and the rank test and the Schur
complement read its rows from that copy.  Every A x, A^T y and residual
is a sparse product too, unless A has at most 2^14 entries: there a dense
product is cheaper than a sparse call.

The Schur complement of a PSD block comes from the nonzeros of each
constraint row F_b (Fujisawa, Kojima and Nakata, "Exploiting sparsity in
primal-dual interior-point methods for semidefinite programming", Math.
Prog. 79, 1997): W F_b W is a sum of rank-one terms W e_p e_q^T W, one per
nonzero, and M[a, b] = Tr[F_a W F_b W] reads it only where F_a is nonzero.
M is real: the trace of a product of two Hermitian matrices is real.
Blocks where that costs more than the dense formula (stack every touching
row as a k x k matrix, multiply by W on both sides) use the dense formula;
the choice is made per block from its order, row count and nonzero count.

A must have full row rank: the programs of w1 and classical omit their
one dependent row.  A Cholesky factorization of the Gram matrix A A^T and
its condition estimate test the rank up front, and solve refuses an A that
fails with InvalidInput.  Everything is deterministic: same problem and
options give the same iterates.  Each iteration's mu, gap and residuals
are logged at DEBUG level to the "qw1.conic" logger.
"""

from __future__ import annotations

import collections
import enum
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, InvalidInput, SolverFailure

_log = logging.getLogger("qw1.conic")
FULL_RANK_RCOND = 1e-10
# entries of A up to which the iteration multiplies by a dense copy of it:
# below about this size a sparse product costs more in calls than in work
_DENSE_PRODUCT_SIZE = 1 << 14
STATIC_REGULARIZATION = 1e-12
# entries of the W F_b W matrices formed at once by the sparse Schur formula:
# small enough that one batch stays in cache while it is contracted
_SCHUR_BATCH = 1 << 16
# cost of one batched numpy call in flops of a large matrix product (about
# 30 us against 8e-11 s per flop on one core); see _sparse_schur_pays
_CALL_FLOPS = 4e5

class SolverStatus(enum.Enum):
    Optimal = "Optimal"
    MaxIterations = "MaxIterations"
    NumericalFailure = "NumericalFailure"


@dataclass
class SolverOptions:
    max_iterations: int = 200
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    step_fraction: float = 0.98


@dataclass(frozen=True)
class ConicProblem:
    """min c.x s.t. Ax = b, x in (PSD blocks, nonnegative tail)."""

    psd_blocks: tuple
    lp_dim: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psd_blocks", tuple(int(k) for k in self.psd_blocks))
        object.__setattr__(self, "A", np.ascontiguousarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.ascontiguousarray(self.c, dtype=float))
        if any(k < 1 for k in self.psd_blocks) or self.lp_dim < 0:
            raise InvalidInput("block sizes must be positive, lp_dim nonnegative")
        n = self.num_vars
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise DimensionMismatch(f"A has shape {self.A.shape}, expected (*, {n})")
        if self.b.shape != (self.A.shape[0],):
            raise DimensionMismatch("b length does not match A rows")
        if self.c.shape != (n,):
            raise DimensionMismatch("c length does not match variable count")

    @property
    def num_vars(self) -> int:
        return sum(svec_len(k) for k in self.psd_blocks) + self.lp_dim


@dataclass
class ConicSolution:
    status: SolverStatus
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    cause: str = ""  # what ended a NumericalFailure, with its numbers

    @property
    def optimal(self) -> bool:
        return self.status is SolverStatus.Optimal


# ---------------------------------------------------------------------------
# Hermitian svec / smat
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_svec_cache: dict = {}


def svec_len(k: int) -> int:
    return k * k


# The svec coordinates of order k: coordinate a reads entry (row[a], col[a])
# of the upper triangle, its imaginary part where imag[a], times scale[a];
# upper[a] indexes that part in the float view of a C-ordered complex k x k
# matrix.  smat writes coordinate a divided by div[a] at scatter[a] and,
# divided by div[k^2 + a], at scatter[k^2 + a], the same part of the mirror
# entry (negated for an imaginary part).
_Coords = collections.namedtuple("_Coords", "row col imag scale upper scatter div")


def _coords(k: int) -> _Coords:
    try:
        return _svec_cache[k]
    except KeyError:
        rows, cols = np.triu_indices(k)
        off = rows != cols
        # each off-diagonal entry gives a real and an imaginary coordinate
        row = np.repeat(rows, 1 + off)
        col = np.repeat(cols, 1 + off)
        imag = np.zeros(row.size, dtype=bool)
        imag[np.cumsum(1 + off)[off] - 1] = True
        scale = np.where(row == col, 1.0, _SQRT2)
        upper = 2 * (row * k + col) + imag
        lower = 2 * (col * k + row) + imag
        _svec_cache[k] = _Coords(row, col, imag, scale, upper,
                                 np.concatenate([upper, lower]),
                                 np.concatenate([scale, np.where(imag, -scale, scale)]))
        return _svec_cache[k]


def svec(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, in the order of
    w1.hermitian_basis: X[r, r], then for each c > r sqrt(2) Re X[r, c] and
    sqrt(2) Im X[r, c].  svec(X)[a] = Tr[F_a X]; accepts a batch."""
    k = m.shape[-1]
    co = _coords(k)
    flat = np.ascontiguousarray(m, dtype=complex).reshape(m.shape[:-2] + (k * k,))
    return flat.view(float)[..., co.upper] * co.scale


def smat(v: np.ndarray, k: int) -> np.ndarray:
    """Inverse of svec, a complex Hermitian matrix; accepts a batch."""
    co = _coords(k)
    out = np.zeros(v.shape[:-1] + (k * k,), dtype=complex)
    out.view(float)[..., co.scatter] = np.concatenate([v, v], axis=-1) / co.div
    return out.reshape(v.shape[:-1] + (k, k))


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

class _Cone:
    """Index arithmetic for the concatenated (PSD blocks, LP tail) layout.

    Blocks of one order k form a group: orders[g] is (k, idx), idx the
    (B, k^2) positions of the group's B blocks in the coordinate vector, and
    members[g] their block numbers.  v[idx] stacks their svec coordinates
    and out[idx] = ... scatters a stack back, wherever the blocks sit."""

    def __init__(self, psd_blocks: Sequence[int], lp_dim: int):
        self.blocks = list(psd_blocks)
        self.lp_dim = lp_dim
        self.slices = []
        off = 0
        for k in self.blocks:
            self.slices.append(slice(off, off + svec_len(k)))
            off += svec_len(k)
        self.lp_slice = slice(off, off + lp_dim)
        self.dim = off + lp_dim
        self.nu = sum(self.blocks) + lp_dim  # barrier parameter
        self.orders = []
        self.members = []
        for k in sorted(set(self.blocks)):
            group = [b for b, kb in enumerate(self.blocks) if kb == k]
            starts = np.array([self.slices[b].start for b in group])
            self.orders.append((k, starts[:, None] + np.arange(svec_len(k))))
            self.members.append(group)

    def mats(self, v: np.ndarray) -> list:
        """The PSD blocks of v, one (B, k, k) stack per order."""
        return [smat(v[idx], k) for k, idx in self.orders]

    def vector(self, mats: Sequence[np.ndarray], lp) -> np.ndarray:
        """Inverse of mats, with lp on the LP tail."""
        out = np.empty(self.dim)
        for (_, idx), m in zip(self.orders, mats):
            out[idx] = svec(m)
        out[self.lp_slice] = lp
        return out

    def start(self) -> np.ndarray:
        """Cold start: 2I on each PSD block, 1 on the LP tail."""
        return self.vector([np.broadcast_to(2.0 * np.eye(k), (len(idx), k, k))
                            for k, idx in self.orders], 1.0)


def _H(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _interior_matrix(m: np.ndarray, floor: float) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, floor)
    return (v * w[..., None, :]) @ _H(v)


def _push_interior(cone: _Cone, v: np.ndarray, floor: float = 1e-3) -> np.ndarray:
    return cone.vector([_interior_matrix(m, floor) for m in cone.mats(v)],
                       np.maximum(v[cone.lp_slice], floor))


class _Scaling:
    """NT scaling data for one iterate, one (B, k, k) stack per block order
    (the order groups of _Cone); W[b] is block b's scaling matrix, a view
    into its group's stack."""

    def __init__(self, cone: _Cone, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        self.R = []
        self.Rinv = []
        self.lam = []
        self.root = []  # sqrt(lam_i lam_j), the scale of the max_step frame
        for X, S in zip(cone.mats(x), cone.mats(s)):
            lx = _chol_like(X)
            ls = _chol_like(S)
            u, sig, vh = np.linalg.svd(_H(ls) @ lx)
            sig = np.maximum(sig, 1e-150)
            isqrt = 1.0 / np.sqrt(sig)
            self.R.append(lx @ _H(vh) * isqrt[..., None, :])
            self.Rinv.append((isqrt[..., :, None] * _H(u)) @ _H(ls))
            self.lam.append(sig)
            self.root.append(np.sqrt(sig[..., :, None] * sig[..., None, :]))
        self.RH = [_H(r) for r in self.R]
        self.RinvH = [_H(r) for r in self.Rinv]
        xl = x[cone.lp_slice]
        sl_ = s[cone.lp_slice]
        self.w_lp = np.sqrt(xl / sl_)
        self.lam_lp = np.sqrt(xl * sl_)
        self.Ws = [r @ rh for r, rh in zip(self.R, self.RH)]
        self.W = [None] * len(cone.blocks)
        for group, Ws in zip(cone.members, self.Ws):
            for b, W in zip(group, Ws):
                self.W[b] = W

    def apply_G(self, v: np.ndarray) -> np.ndarray:
        """v -> svec(W smat(v) W) per block, w^2 * v on the LP tail."""
        cone = self.cone
        return cone.vector([W @ m @ W for W, m in zip(self.Ws, cone.mats(v))],
                           self.w_lp ** 2 * v[cone.lp_slice])

    def max_step(self, v: np.ndarray, dv: np.ndarray, scaled_by_R: bool) -> float:
        """Largest alpha with v + alpha dv still in the cone.

        PSD blocks are checked in the scaled frame where the current point is
        diag(lam): scaled_by_R=True means dv is a primal direction (scale by
        R^{-1} . R^{-H}), False a dual one (R^H . R).
        """
        cone = self.cone
        alpha = np.inf
        left, right = (self.Rinv, self.RinvH) if scaled_by_R else (self.RH, self.R)
        for dM, L, Rt, root in zip(cone.mats(dv), left, right, self.root):
            scaled = L @ dM @ Rt / root
            wmin = np.linalg.eigvalsh((scaled + _H(scaled)) / 2.0).min()
            if wmin < 0:
                alpha = min(alpha, -1.0 / wmin)
        lp = v[cone.lp_slice]
        dlp = dv[cone.lp_slice]
        neg = dlp < 0
        if np.any(neg):
            alpha = min(alpha, float((-lp[neg] / dlp[neg]).min()))
        return alpha

    def corrector(self, dxa: np.ndarray, dsa: np.ndarray, sigma: float,
                  mu: float) -> np.ndarray:
        """Right-hand side of the corrector with the Mehrotra second-order
        term, built in the scaled frame where both x and s sit at diag(lam)."""
        cone = self.cone
        mats = []
        for (k, _), dxm, dsm, lam, R, RH, Rinv, RinvH in zip(
                cone.orders, cone.mats(dxa), cone.mats(dsa),
                self.lam, self.R, self.RH, self.Rinv, self.RinvH):
            dxh = Rinv @ dxm @ RinvH
            dsh = RH @ dsm @ R
            eye = np.eye(k)
            dmat = sigma * mu * eye - eye * (lam ** 2)[:, None, :] \
                - (dxh @ dsh + dsh @ dxh) / 2.0
            D = 2.0 * dmat / (lam[:, :, None] + lam[:, None, :])
            mats.append(R @ ((D + _H(D)) / 2.0) @ RH)
        lam_lp = self.lam_lp
        dxh = dxa[cone.lp_slice] / self.w_lp
        dsh = dsa[cone.lp_slice] * self.w_lp
        return cone.vector(mats, self.w_lp * (sigma * mu - lam_lp ** 2 - dxh * dsh) / lam_lp)


def _chol_like(m: np.ndarray) -> np.ndarray:
    # eigenvalue route instead of Cholesky: survives semidefinite iterates
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 1e-300)
    return v * np.sqrt(w)[..., None, :]


def _full_row_rank(A) -> bool:
    """Does the CSR matrix A have full row rank, with margin?

    True when LAPACK's 1-norm estimate of the reciprocal condition number
    of the Gram matrix A A^T (dpocon on its Cholesky factor) exceeds
    FULL_RANK_RCOND.  That estimate rarely exceeds the true rcond_1 by more
    than a factor 10, and the squared ratio sigma_min(A) / sigma_max(A) is
    at least rcond_1 / m, so a pass puts that ratio above
    sqrt(FULL_RANK_RCOND / (10 m)).
    """
    m, n = A.shape
    if m > n:
        return False
    gram = (A @ A.T).toarray()
    anorm = np.abs(gram).sum(axis=0).max()
    factor, info = scipy.linalg.lapack.dpotrf(gram)
    if info != 0:
        return False
    rcond, info = scipy.linalg.lapack.dpocon(factor, anorm)
    return info == 0 and rcond > FULL_RANK_RCOND


# The name and the (A, b, rows) return stay for benchmarks/tracing.py, which
# binds _presolve and counts the rows it drops as m - len(result[2]).
def _presolve(A, b: np.ndarray):
    """Refuse a CSR matrix A without full row rank; return (A, b, every row)."""
    m = A.shape[0]
    if m and not _full_row_rank(A):
        raise InvalidInput(f"the {m} constraint rows of A are not linearly independent")
    return A, b, np.arange(m)


def _entries(row, col, val, sl: slice):
    """The nonzeros (row, col, val) of A that lie in the columns sl, as
    (touch, pos, col, val): touch the sorted rows holding any, touch[pos]
    the row of each nonzero and col its column within sl."""
    inside = (col >= sl.start) & (col < sl.stop)
    touch, pos = np.unique(row[inside], return_inverse=True)
    return touch, pos, col[inside] - sl.start, val[inside]


class _DenseRows:
    """Dense Schur formula for one block: the touching rows stacked as k x k
    matrices, each multiplied by W on both sides."""

    def __init__(self, touch, pos, col, val, k: int):
        self.touch = touch
        self.rows = np.zeros((touch.size, svec_len(k)))
        self.rows[pos, col] = val
        self.mats = smat(self.rows, k)

    def add_to(self, M: np.ndarray, W: np.ndarray) -> None:
        T = W @ self.mats @ W
        M[np.ix_(self.touch, self.touch)] += self.rows @ svec(T).T


class _SparseRows:
    """Sparse Schur formula for one block (Fujisawa-Kojima-Nakata).

    Row b's matrix F_b has a few nonzeros F_b[p, q], so W F_b W is the sum
    of the rank-one terms F_b[p, q] W[:, p] W[q, :], where W[:, p] is the
    conjugate of W[p, :].  Rows with the same number of such terms are
    batched into one stacked product, and M[a, b] = Tr[F_a W F_b W] is read
    off at the svec nonzeros of F_a by one sparse product per batch.
    """

    def __init__(self, touch, pos, col, val, k: int, m: int):
        co = _coords(k)
        r, s = co.row[col], co.col[col]
        # Tr[F_a T] = svec(F_a) . svec(T), read from the float view of T
        self.contract = scipy.sparse.csr_matrix(
            (val * co.scale[col], (touch[pos], co.upper[col])), shape=(m, 2 * k * k))
        # matrix entries of every F_b, both triangles, grouped by row
        off = r != s
        value = val / co.scale[col] * np.where(co.imag[col], 1j, 1.0)
        entry_row = np.concatenate([pos, pos[off]])
        order = np.argsort(entry_row, kind="stable")
        P = np.concatenate([r, s[off]])[order]
        Q = np.concatenate([s, r[off]])[order]
        V = np.concatenate([value, value[off].conj()])[order]
        count = np.bincount(entry_row, minlength=touch.size)
        start = np.cumsum(count) - count
        per_batch = max(1, _SCHUR_BATCH // (k * k))
        self.batches = []
        for p in np.unique(count):
            group = np.flatnonzero(count == p)
            for lo in range(0, group.size, per_batch):
                g = group[lo:lo + per_batch]
                idx = start[g, None] + np.arange(p)
                self.batches.append((touch[g], P[idx], Q[idx], V[idx]))

    def add_to(self, M: np.ndarray, W: np.ndarray) -> None:
        for cols, P, Q, V in self.batches:
            # W F_b W for the batch's rows, as a (rows, k, k) stack
            T = (W[P].conj() * V[..., None]).transpose(0, 2, 1) @ W[Q]
            T = np.ascontiguousarray(T.reshape(cols.size, -1).view(float).T)
            # M is symmetric: M[b, :] = M[:, b] writes whole rows
            M[cols] += (self.contract @ T).T


def _sparse_schur_pays(k: int, t: int, nnz: int) -> bool:
    """Is the sparse formula cheaper than the dense one for a block of
    order k touched by t rows with nnz svec nonzeros?

    The dense formula costs two complex k x k matrix products per row.  The
    sparse one costs a complex k x k rank-one term per matrix entry (at most
    two per svec nonzero) plus one batched call per _SCHUR_BATCH entries of
    W F_b W.  A complex multiply-add is 8 flops.
    """
    dense = 16.0 * t * k ** 3
    sparse = 16.0 * nnz * k * k + _CALL_FLOPS * math.ceil(t * k * k / _SCHUR_BATCH)
    return sparse < dense


class _BlockData:
    """Per-block constraint data for the Schur complement: one _SparseRows
    or _DenseRows per PSD block (None if no row touches it), and the LP
    columns of A as a dense array.  A is a CSR matrix."""

    def __init__(self, A, cone: _Cone):
        m = A.shape[0]
        nonzeros = np.repeat(np.arange(m), np.diff(A.indptr)), A.indices, A.data
        self.entries = []
        for k, sl in zip(cone.blocks, cone.slices):
            touch, pos, col, val = _entries(*nonzeros, sl)
            if touch.size == 0:
                self.entries.append(None)
            elif _sparse_schur_pays(k, touch.size, val.size):
                self.entries.append(_SparseRows(touch, pos, col, val, k, m))
            else:
                self.entries.append(_DenseRows(touch, pos, col, val, k))
        self.lp_cols = np.zeros((m, cone.lp_dim))
        if cone.lp_dim:
            touch, pos, col, val = _entries(*nonzeros, cone.lp_slice)
            self.lp_cols[touch[pos], col] = val


def _schur(bd: _BlockData, scal: _Scaling, m: int) -> np.ndarray:
    M = np.zeros((m, m))
    for rows, W in zip(bd.entries, scal.W):
        if rows is not None:
            rows.add_to(M, W)
    if bd.lp_cols.shape[1]:
        M += (bd.lp_cols * scal.w_lp ** 2) @ bd.lp_cols.T
    return (M + M.T) / 2.0


def solve(problem: ConicProblem, options: SolverOptions | None = None,
          x0: np.ndarray | None = None, y0: np.ndarray | None = None) -> ConicSolution:
    """Run the interior-point method.  Raises InvalidInput if A lacks full
    row rank; never raises on numerical trouble, reports it through the
    status field, and its cause, instead."""
    opts = options or SolverOptions()
    cone = _Cone(problem.psd_blocks, problem.lp_dim)
    A, b, _ = _presolve(scipy.sparse.csr_matrix(problem.A), problem.b)
    c = problem.c
    m = A.shape[0]
    bd = _BlockData(A, cone)
    if problem.A.size <= _DENSE_PRODUCT_SIZE:
        A = problem.A
    AT = A.T
    bnorm = 1.0 + (np.abs(b).max() if b.size else 0.0)
    cnorm = 1.0 + (np.abs(c).max() if c.size else 0.0)

    def measure(x, y, s):
        """Residuals, objectives, relative gap and scaled residual norms."""
        rp = b - A @ x
        rd = c - AT @ y - s
        pobj = float(c @ x)
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = (np.abs(rp).max() if rp.size else 0.0) / bnorm
        dres = np.abs(rd).max() / cnorm
        return rp, rd, pobj, dobj, gap, pres, dres

    e = cone.start()
    x = _push_interior(cone, x0) if x0 is not None else e.copy()
    if y0 is not None:
        y = np.array(y0, dtype=float)
        s = _push_interior(cone, c - AT @ y)
    else:
        s = e.copy()
        y = np.zeros(m)

    status = SolverStatus.MaxIterations
    cause = ""
    it = 0

    for it in range(1, opts.max_iterations + 1):
        rp, rd, pobj, dobj, gap, pres, dres = measure(x, y, s)
        mu = float(x @ s) / cone.nu
        _log.debug("iter %3d  mu %9.2e  gap %9.2e  pres %9.2e  dres %9.2e",
                   it, mu, gap, pres, dres)
        if gap <= opts.gap_tol and pres <= opts.feas_tol and dres <= opts.feas_tol:
            status = SolverStatus.Optimal
            break
        if not (np.isfinite(mu) and np.isfinite(pobj) and np.isfinite(dobj)):
            status = SolverStatus.NumericalFailure
            cause = f"non-finite mu {mu:.3e} or objective (primal {pobj:.3e}, dual {dobj:.3e})"
            break

        scal = _Scaling(cone, x, s)
        M = _schur(bd, scal, m)
        chol = None
        reg = STATIC_REGULARIZATION
        while chol is None:
            try:
                chol = scipy.linalg.cho_factor(
                    M + reg * np.eye(m), lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                reg *= 100.0
                if reg > 1e-4:
                    break
        if chol is None:
            status = SolverStatus.NumericalFailure
            cause = f"Cholesky regularization past 1e-4 (last tried {reg / 100.0:.1e})"
            break

        def newton(rc):
            rhs = rp - A @ (rc - scal.apply_G(rd))
            dy = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
            ds = rd - AT @ dy
            dx = rc - scal.apply_G(ds)
            return dx, dy, ds

        # predictor: aim straight at the boundary
        dxa, dya, dsa = newton(-x)
        ap = min(1.0, scal.max_step(x, dxa, True))
        ad = min(1.0, scal.max_step(s, dsa, False))
        mu_aff = float((x + ap * dxa) @ (s + ad * dsa)) / cone.nu
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3 if mu > 0 else 0.0

        rc = scal.corrector(dxa, dsa, sigma, mu)

        dx, dy, ds = newton(rc)
        ap = min(1.0, opts.step_fraction * scal.max_step(x, dx, True))
        ad = min(1.0, opts.step_fraction * scal.max_step(s, ds, False))
        if not (np.isfinite(ap) and np.isfinite(ad)) or max(ap, ad) <= 0.0:
            status = SolverStatus.NumericalFailure
            cause = f"zero or non-finite step (ap {ap:.3e}, ad {ad:.3e})"
            break
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * ds

    _, _, pobj, dobj, gap, pres, dres = measure(x, y, s)
    return ConicSolution(
        status=status, x=x, y=y, s=s,
        primal_objective=pobj, dual_objective=dobj, gap=gap,
        primal_residual=float(pres), dual_residual=float(dres),
        iterations=it, cause=cause,
    )


def _solved(problem: ConicProblem, program: str, options: SolverOptions | None = None,
            x0: np.ndarray | None = None, y0: np.ndarray | None = None) -> ConicSolution:
    """solve, raising SolverFailure unless the status is Optimal."""
    sol = solve(problem, options, x0=x0, y0=y0)
    if not sol.optimal:
        cause = f": {sol.cause}" if sol.cause else ""
        raise SolverFailure(f"{program} ended with {sol.status.value} "
                            f"after {sol.iterations} iterations{cause}")
    return sol
