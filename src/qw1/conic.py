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
  * Schur complement  A (W (.) W) A^T  assembled with a static
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
blocks of order D for W1, 2n for the Lipschitz constant, orders 2d^2, d, d
for the diamond norm), and most are tiny, so a numpy call per block costs
more than its arithmetic.  The NT scaling, the step length, the map G, the
corrector and the interior push therefore treat all blocks of one order
as one (B, k, k) stack: an index array per order gathers their svec
coordinates from the vector and scatters them back, wherever the blocks
sit, and eigh, svd, eigvalsh and matrix products run over the stack.

A program may stack independent programs side by side, its parts: the
Lipschitz constant of an operator is n single-site programs, one pair of
blocks and its rows each.  Only _stack makes such a program, recording
each program's layout in ConicProblem.parts.  solve runs the
parts in lockstep as its components, each a contiguous range of rows,
blocks, LP columns and coordinates; a program without parts is one
component.  The stacked passes above still cover every block at once, but
each component keeps its own mu, sigma, step lengths, Schur matrix and
Cholesky factor, regularization, scaled residuals, gap and stopping test,
so in exact arithmetic it follows the iterates it would follow alone.  A
component that has stopped keeps its point, and the solve ends when the
last one stops.

Components often repeat: a batch of Lipschitz programs of one layout has
the same rows at every copy of a site.  solve groups the parts into
classes whose constraint data match exactly (block orders, LP width and
the CSR arrays of their rows), and reads a class's Schur data from its first
component, the template, once per solve.  Identical components share one
rank test too.  Per iteration the Schur matrices of a class's running
members are assembled as one (C, m, m) stack, with each block's scaling
matrices gathered as a (C, k, k) stack; the members are taken in chunks
that keep each temporary within _SCHUR_BATCH entries, or within one
member's when that is larger.  Each member's matrix is then factored by
its own scipy cho_factor on its own regularization ladder, as a program
alone is.  A member's iterates, and so its final point and iteration
count, equal those of its solo program bit for bit.

_solved_batch stacks independent programs with _stack, one solve per
run, and hands each program its slices of the solution, its own objectives
and the iteration at which it stopped.  The Lipschitz constants, the W1
primals and the transport LPs of many inputs go through it, each caller
with one call: _solved_batch itself splits a batch into runs that
_batch_chunks bounds by the memory of their A, counted dense, and Schur
matrices.

ConicProblem stores A as CSR, converting a dense input once.  The rank
test, the Schur complement and every A x, A^T y and residual read that
one matrix.

The Schur complement of a PSD block comes from the nonzeros of each
constraint row F_b (Fujisawa, Kojima and Nakata, "Exploiting sparsity in
primal-dual interior-point methods for semidefinite programming", Math.
Prog. 79, 1997): W F_b W is a sum of rank-one terms W e_p e_q^T W, one per
nonzero, and M[a, b] = Tr[F_a W F_b W] reads it only where F_a is nonzero.
M is real: the trace of a product of two Hermitian matrices is real.

A must have full row rank: the programs of w1 and classical omit their
one dependent row.  A Cholesky factorization of the Gram matrix A A^T and
its condition estimate test the rank up front, one class of components
at a time (the Gram matrix is block diagonal over the components), and solve
refuses an A that fails with InvalidInput.  Everything is deterministic:
same problem and options give the same iterates.  Each iteration's mu, gap
and residuals are logged at DEBUG level to the "qw1.conic" logger, per
component.
"""

from __future__ import annotations

import collections
import enum
import functools
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
STATIC_REGULARIZATION = 1e-12
# entries of the W F_b W matrices formed at once by the Schur formula, over
# the members of a class taken together (at least one member's rows of one
# batch): small enough that one batch stays in cache while it is contracted
_SCHUR_BATCH = 1 << 16
# entries (16 MB of float64) up to which _batch_chunks puts programs into one
# batched solve: the battery's largest batch (0.85M entries at 100 trials)
# fits, two W1 programs at (2, 4) (1.6M each) do not
_BATCH_ENTRIES = 1 << 21


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
    """min c.x s.t. Ax = b, x in (PSD blocks, nonnegative tail).  A may be
    given as a dense array or a SciPy sparse matrix; it is stored as CSR.
    parts: (rows, psd_blocks, lp_dim) of each program _stack put side by
    side, in order, or () for one; they add up to the stack."""

    psd_blocks: tuple
    lp_dim: int
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    c: np.ndarray
    parts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "psd_blocks", tuple(int(k) for k in self.psd_blocks))
        if any(k < 1 for k in self.psd_blocks) or self.lp_dim < 0:
            raise InvalidInput("block sizes must be positive, lp_dim nonnegative")
        n = self.num_vars
        if np.ndim(self.A) != 2 or np.shape(self.A)[1] != n:
            raise DimensionMismatch(f"A has shape {np.shape(self.A)}, expected (*, {n})")
        A = scipy.sparse.csr_matrix(self.A, dtype=float, copy=True)
        A.sum_duplicates()
        A.eliminate_zeros()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.ascontiguousarray(self.c, dtype=float))
        if self.b.shape != (self.A.shape[0],):
            raise DimensionMismatch("b length does not match A rows")
        if self.c.shape != (n,):
            raise DimensionMismatch("c length does not match variable count")
        parts = self.parts
        if parts and (sum(m for m, _, _ in parts) != A.shape[0]
                      or tuple(k for _, ks, _ in parts for k in ks) != self.psd_blocks
                      or sum(q for _, _, q in parts) != self.lp_dim):
            raise DimensionMismatch("the parts' rows, blocks and LP columns do not "
                                    "add up to the program's")

    @property
    def num_vars(self) -> int:
        return sum(svec_len(k) for k in self.psd_blocks) + self.lp_dim


@dataclass
class ConicSolution:
    """The final iterate.  Over the parts of a stack the objectives are
    sums and the gap and residuals the largest part's."""

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
    # the component (part) whose trouble ended a NumericalFailure, or the
    # first one still running at MaxIterations, numbered from 0
    component: int | None = None
    # per component the iteration at which it stopped (the last iteration
    # for one that never did); None on the solution of one program of a
    # _solved_batch
    stopped_at: np.ndarray | None = None

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
    and out[idx] = ... scatters a stack back, wherever the blocks sit.
    Block b is entry place[b] of the stacks of group group[b]."""

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
        self.orders = []
        self.members = []
        self.group = np.zeros(len(self.blocks), dtype=int)
        self.place = np.zeros(len(self.blocks), dtype=int)
        for g, k in enumerate(sorted(set(self.blocks))):
            group = [b for b, kb in enumerate(self.blocks) if kb == k]
            starts = np.array([self.slices[b].start for b in group])
            self.orders.append((k, starts[:, None] + np.arange(svec_len(k))))
            self.members.append(group)
            self.group[group] = g
            self.place[group] = np.arange(len(group))

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


class _Components:
    """The components of a program, its parts (which A may not couple; see
    the module docstring) or the whole of one without parts, and their classes.

    rows[j] and coords[j] are component j's rows and coordinates as slices,
    size[j] its row count, nu[j] its barrier parameter, and blocks_in[j] and
    lp_in[j] its blocks and LP columns, in order.  block, lp, of_row and
    of_coord hold the component of each block, LP column, row and
    coordinate, and by_order[g] that of each block of the cone's order
    group g.

    Two components are identical when they have the same block orders, as
    many LP columns and the same CSR arrays of their rows of A, read in
    their own coordinates.  classes[i] lists the components of class i in
    order, its first one being the class's template; the classes are
    ordered by their templates."""

    def __init__(self, problem: ConicProblem, cone: _Cone):
        parts = problem.parts or ((problem.A.shape[0], problem.psd_blocks, problem.lp_dim),)
        self.count = count = len(parts)
        # per part its rows, coordinates, blocks and LP columns, and the first of each
        sizes = np.array([(m, sum(svec_len(k) for k in ks) + q, len(ks), q)
                          for m, ks, q in parts]).T
        self.size, coords, blocks, lp = sizes
        row0, coord0, block0, lp0 = np.cumsum(sizes, axis=1) - sizes
        self.rows = [slice(r, r + m) for r, m in zip(row0, self.size)]
        self.coords = [slice(c, c + v) for c, v in zip(coord0, coords)]
        self.blocks_in = [range(b, b + k) for b, k in zip(block0, blocks)]
        self.lp_in = [np.arange(q, q + k) for q, k in zip(lp0, lp)]
        self.nu = np.array([sum(ks) + q for _, ks, q in parts], dtype=float)
        self.of_row, self.of_coord, self.block, self.lp = (np.repeat(np.arange(count), k)
                                                           for k in sizes)
        self.by_order = [self.block[group] for group in cone.members]
        A = problem.A
        if count > 1 and np.any(self.of_row.repeat(A.getnnz(1)) != self.of_coord[A.indices]):
            raise DimensionMismatch("a part's rows reach outside its variables")
        classes = {}  # one program is one class, with no key to build
        for j, ((_, ks, q), r, c) in enumerate(zip(problem.parts, self.rows, coord0)):
            sub = A[r]
            key = ks, q, sub.indptr.tobytes(), (sub.indices - c).tobytes(), sub.data.tobytes()
            classes.setdefault(key, []).append(j)
        self.classes = [np.array(m) for m in classes.values()] or [np.array([0])]


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
    (the order groups of _Cone); Ws[cone.group[b]][cone.place[b]] is block
    b's scaling matrix.  Step lengths and the corrector's sigma mu are per
    component of comps."""

    def __init__(self, cone: _Cone, comps: _Components, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        self.comps = comps
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

    def apply_G(self, v: np.ndarray) -> np.ndarray:
        """v -> svec(W smat(v) W) per block, w^2 * v on the LP tail."""
        cone = self.cone
        return cone.vector([W @ m @ W for W, m in zip(self.Ws, cone.mats(v))],
                           self.w_lp ** 2 * v[cone.lp_slice])

    def max_step(self, v: np.ndarray, dv: np.ndarray, scaled_by_R: bool) -> np.ndarray:
        """Largest alpha per component with v + alpha dv still in the cone.

        PSD blocks are checked in the scaled frame where the current point is
        diag(lam): scaled_by_R=True means dv is a primal direction (scale by
        R^{-1} . R^{-H}), False a dual one (R^H . R).
        """
        cone = self.cone
        alpha = np.full(self.comps.count, np.inf)
        left, right = (self.Rinv, self.RinvH) if scaled_by_R else (self.RH, self.R)
        for dM, L, Rt, root, owner in zip(cone.mats(dv), left, right, self.root,
                                          self.comps.by_order):
            scaled = L @ dM @ Rt / root
            wmin = np.linalg.eigvalsh((scaled + _H(scaled)) / 2.0)[:, 0]
            neg = wmin < 0
            np.minimum.at(alpha, owner[neg], -1.0 / wmin[neg])
        lp = v[cone.lp_slice]
        dlp = dv[cone.lp_slice]
        neg = dlp < 0
        np.minimum.at(alpha, self.comps.lp[neg], -lp[neg] / dlp[neg])
        return alpha

    def corrector(self, dxa: np.ndarray, dsa: np.ndarray, smu: np.ndarray) -> np.ndarray:
        """Right-hand side of the corrector with the Mehrotra second-order
        term, built in the scaled frame where both x and s sit at diag(lam);
        smu holds sigma mu per component."""
        cone = self.cone
        mats = []
        for (k, _), dxm, dsm, lam, R, RH, Rinv, RinvH, owner in zip(
                cone.orders, cone.mats(dxa), cone.mats(dsa),
                self.lam, self.R, self.RH, self.Rinv, self.RinvH, self.comps.by_order):
            dxh = Rinv @ dxm @ RinvH
            dsh = RH @ dsm @ R
            eye = np.eye(k)
            dmat = smu[owner][:, None, None] * eye - eye * (lam ** 2)[:, None, :] \
                - (dxh @ dsh + dsh @ dxh) / 2.0
            D = 2.0 * dmat / (lam[:, :, None] + lam[:, None, :])
            mats.append(R @ ((D + _H(D)) / 2.0) @ RH)
        lam_lp = self.lam_lp
        dxh = dxa[cone.lp_slice] / self.w_lp
        dsh = dsa[cone.lp_slice] * self.w_lp
        return cone.vector(mats, self.w_lp * (smu[self.comps.lp] - lam_lp ** 2 - dxh * dsh)
                           / lam_lp)


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
def _presolve(A, b: np.ndarray, comps: _Components):
    """Refuse a CSR matrix A without full row rank; return (A, b, every row).
    Rows of different components are orthogonal, so each component's rows
    are tested on their own, and identical components share one test."""
    for members in comps.classes:
        j = members[0]
        size = comps.size[j]
        if size and not _full_row_rank(A if size == A.shape[0] else A[comps.rows[j]]):
            where = f"component {j + 1} of {comps.count}" if comps.count > 1 else "A"
            if members.size > 1:
                where += f" and of its {members.size - 1} identical components"
            raise InvalidInput(
                f"the {size} constraint rows of {where} are not linearly independent")
    return A, b, np.arange(A.shape[0])


def _entries(row, col, val, sl: slice):
    """The nonzeros (row, col, val) of A that lie in the columns sl, as
    (touch, pos, col, val): touch the sorted rows holding any, touch[pos]
    the row of each nonzero and col its column within sl."""
    inside = (col >= sl.start) & (col < sl.stop)
    touch, pos = np.unique(row[inside], return_inverse=True)
    return touch, pos, col[inside] - sl.start, val[inside]


def _chunks(count: int, per_member: int) -> list:
    """Slices of the count members of a class, each holding as many members
    as fit _SCHUR_BATCH temporary entries of per_member each, at least one."""
    step = max(1, _SCHUR_BATCH // per_member)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


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
        """Add the block's terms to the (C, m, m) stack M, with W the (C, k,
        k) stack of the block's scaling matrices."""
        k = W.shape[-1]
        for cols, P, Q, V in self.batches:
            for sl in _chunks(len(W), cols.size * k * k):
                Wc = W[sl]
                C = len(Wc)
                # W F_b W for the batch's rows, as a (C, rows, k, k) stack
                T = (Wc[:, P].conj() * V[..., None]).swapaxes(-1, -2) @ Wc[:, Q]
                T = np.ascontiguousarray(T.reshape(C * cols.size, -1).view(float).T)
                # M is symmetric: M[b, :] = M[:, b] writes whole rows
                M[sl, cols] += (self.contract @ T).T.reshape(C, cols.size, -1)


class _BlockData:
    """The Schur complement data of one class of identical components (see
    _Components), read from its template, the class's first component.

    blocks holds one (rows, group, place) per PSD block of the template
    that some row touches: a _SparseRows on the template's rows numbered
    within the component, the block's order group, and, per member, the
    place in that group's stacks of the member's block at the same
    position.  lp_cols holds the template's LP columns of A as a dense
    array, lp_idx[c] the LP columns of member c and rows[c] its rows.  A is
    a CSR matrix."""

    def __init__(self, A, cone: _Cone, comps: _Components, members: np.ndarray):
        t = members[0]
        self.members = members
        self.size = size = comps.size[t]
        sub = A if size == A.shape[0] else A[comps.rows[t]]
        nonzeros = np.repeat(np.arange(size), np.diff(sub.indptr)), sub.indices, sub.data
        self.blocks = []
        for p, b in enumerate(comps.blocks_in[t]):
            k = cone.blocks[b]
            touch, pos, col, val = _entries(*nonzeros, cone.slices[b])
            if touch.size == 0:
                continue
            same = [comps.blocks_in[j][p] for j in members]
            self.blocks.append((_SparseRows(touch, pos, col, val, k, size),
                                cone.group[b], cone.place[same]))
        lp = comps.lp_in[t]
        self.lp_cols = (sub[:, cone.lp_slice.start + lp].toarray() if lp.size
                        else np.zeros((size, 0)))
        self.lp_idx = np.array([comps.lp_in[j] for j in members])
        self.rows = [comps.rows[j] for j in members]


def _schur(bd: _BlockData, scal: _Scaling, live: np.ndarray) -> np.ndarray:
    """The Schur complements of the class members live (positions in
    bd.members) on their rows, as a (C, m, m) stack."""
    M = np.zeros((live.size, bd.size, bd.size))
    for rows, group, place in bd.blocks:
        rows.add_to(M, scal.Ws[group][place[live]])
    lp = bd.lp_cols
    if lp.shape[1]:
        M += (lp * scal.w_lp[bd.lp_idx[live]][:, None, :] ** 2) @ lp.T
    return (M + M.swapaxes(1, 2)) / 2.0


def _cho_factor(M: np.ndarray):
    """scipy's cho_factor of M plus the first regularization of the ladder
    1e-12, 1e-10, ... that works; None and the last one tried past 1e-4."""
    reg = STATIC_REGULARIZATION
    while True:
        try:
            return scipy.linalg.cho_factor(M + reg * np.eye(len(M)), lower=True,
                                           check_finite=False), reg
        except np.linalg.LinAlgError:
            reg *= 100.0
            if reg > 1e-4:
                return None, reg / 100.0


def _factor(M: np.ndarray, rows):
    """Factor the (C, m, m) stack M of Schur matrices, those of the running
    members of one class, whose rows are rows[c], one member at a time.

    Returns a list of (rows, solve), solve mapping the right-hand sides on
    rows to the solutions, and None; or None and (c, cause) for the first
    member c whose regularization runs past 1e-4.
    """
    pieces = []
    for c, (Mc, r) in enumerate(zip(M, rows)):
        chol, reg = _cho_factor(Mc)
        if chol is None:
            return None, (c, f"Cholesky regularization past 1e-4 (last tried {reg:.1e})")
        pieces.append((r, functools.partial(scipy.linalg.cho_solve, chol,
                                            check_finite=False)))
    return pieces, None


def solve(problem: ConicProblem, options: SolverOptions | None = None,
          x0: np.ndarray | None = None, y0: np.ndarray | None = None) -> ConicSolution:
    """Run the interior-point method on the parts of the program, or on the
    one program, in lockstep.  Raises InvalidInput if A lacks full row rank;
    never raises on numerical trouble, reports it through the status field,
    and its cause and component, instead."""
    opts = options or SolverOptions()
    cone = _Cone(problem.psd_blocks, problem.lp_dim)
    comps = _Components(problem, cone)
    A, b, _ = _presolve(problem.A, problem.b, comps)
    c = problem.c
    m = A.shape[0]
    classes = [_BlockData(A, cone, comps, members) for members in comps.classes]
    AT = A.T
    bnorm = [1.0 + np.abs(b[rows]).max(initial=0.0) for rows in comps.rows]
    cnorm = [1.0 + np.abs(c[coords]).max(initial=0.0) for coords in comps.coords]

    def measure(x, y, s):
        """Residuals, then per component its objectives, relative gap and
        scaled residual norms."""
        rp = b - A @ x
        rd = c - AT @ y - s
        stats = []
        for rows, coords, bn, cn in zip(comps.rows, comps.coords, bnorm, cnorm):
            pobj = float(c[coords] @ x[coords])
            dobj = float(b[rows] @ y[rows])
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            pres = (np.abs(rp[rows]).max() if rp[rows].size else 0.0) / bn
            dres = np.abs(rd[coords]).max() / cn
            stats.append((pobj, dobj, gap, pres, dres))
        return rp, rd, stats

    e = cone.start()
    x = _push_interior(cone, x0) if x0 is not None else e.copy()
    if y0 is not None:
        y = np.array(y0, dtype=float)
        s = _push_interior(cone, c - AT @ y)
    else:
        s = e.copy()
        y = np.zeros(m)

    running = np.ones(comps.count, dtype=bool)
    stopped_at = np.zeros(comps.count, dtype=int)
    failure = None  # (component, cause)
    it = 0

    for it in range(1, opts.max_iterations + 1):
        rp, rd, stats = measure(x, y, s)
        mu = np.array([float(x[coords] @ s[coords]) for coords in comps.coords]) / comps.nu
        for j in np.flatnonzero(running):
            pobj, dobj, gap, pres, dres = stats[j]
            _log.debug("iter %3d%s  mu %9.2e  gap %9.2e  pres %9.2e  dres %9.2e",
                       it, f"  component {j + 1}" if comps.count > 1 else "",
                       mu[j], gap, pres, dres)
            if gap <= opts.gap_tol and pres <= opts.feas_tol and dres <= opts.feas_tol:
                running[j] = False
                stopped_at[j] = it
            elif not (np.isfinite(mu[j]) and np.isfinite(pobj) and np.isfinite(dobj)):
                failure = int(j), (f"non-finite mu {mu[j]:.3e} or objective "
                              f"(primal {pobj:.3e}, dual {dobj:.3e})")
                break
        live = np.flatnonzero(running)
        if failure or not live.size:
            break
        stopped = ~running

        scal = _Scaling(cone, comps, x, s)
        solves = []
        trouble = []  # per failing class, its first failing member and cause
        for bd in classes:
            alive = np.flatnonzero(running[bd.members])
            if not alive.size:
                continue
            pieces, failed = _factor(_schur(bd, scal, alive), [bd.rows[c] for c in alive])
            if failed:
                trouble.append((int(bd.members[alive[failed[0]]]), failed[1]))
            else:
                solves += pieces
        if trouble:
            failure = min(trouble)  # the lowest-numbered failing component
            break

        def newton(rc):
            rhs = rp - A @ (rc - scal.apply_G(rd))
            dy = np.zeros(m)  # a stopped component does not move
            for rows, solve_rows in solves:
                dy[rows] = solve_rows(rhs[rows])
            ds = rd - AT @ dy
            dx = rc - scal.apply_G(ds)
            return dx, dy, ds

        def steps(dx, ds, fraction=1.0):
            """Primal and dual step per component, 0 where it has stopped."""
            ap = np.minimum(1.0, fraction * scal.max_step(x, dx, True))
            ad = np.minimum(1.0, fraction * scal.max_step(s, ds, False))
            ap[stopped] = ad[stopped] = 0.0
            return ap, ad

        # predictor: aim straight at the boundary
        dxa, dya, dsa = newton(-x)
        ap, ad = steps(dxa, dsa)
        xa = x + ap[comps.of_coord] * dxa
        sa = s + ad[comps.of_coord] * dsa
        smu = np.zeros(comps.count)
        for j in live:
            coords = comps.coords[j]
            mu_aff = float(xa[coords] @ sa[coords]) / comps.nu[j]
            sigma = min(1.0, max(0.0, mu_aff / mu[j])) ** 3 if mu[j] > 0 else 0.0
            smu[j] = sigma * mu[j]

        rc = scal.corrector(dxa, dsa, smu)

        dx, dy, ds = newton(rc)
        ap, ad = steps(dx, ds, opts.step_fraction)
        for j in live:
            if not (np.isfinite(ap[j]) and np.isfinite(ad[j])) or max(ap[j], ad[j]) <= 0.0:
                failure = int(j), f"zero or non-finite step (ap {ap[j]:.3e}, ad {ad[j]:.3e})"
                break
        if failure:
            break
        x = x + ap[comps.of_coord] * dx
        y = y + ad[comps.of_row] * dy
        s = s + ad[comps.of_coord] * ds

    if failure:
        status = SolverStatus.NumericalFailure
        component, cause = failure
        if comps.count > 1:
            cause = f"component {component + 1} of {comps.count}: {cause}"
    elif running.any():
        status = SolverStatus.MaxIterations
        component, cause = int(np.flatnonzero(running)[0]), ""
    else:
        status = SolverStatus.Optimal
        component, cause = None, ""
    _, _, stats = measure(x, y, s)
    gap, pres, dres = (max(col) for col in list(zip(*stats))[2:])
    stopped_at[running] = it
    return ConicSolution(
        status=status, x=x, y=y, s=s,
        primal_objective=float(c @ x), dual_objective=float(b @ y), gap=gap,
        primal_residual=float(pres), dual_residual=float(dres),
        iterations=it, cause=cause, component=component, stopped_at=stopped_at,
    )


def _raise_failure(sol: ConicSolution, program: str):
    cause = f": {sol.cause}" if sol.cause else ""
    raise SolverFailure(f"{program} ended with {sol.status.value} "
                        f"after {sol.iterations} iterations{cause}")


def _solved(problem: ConicProblem, program: str, options: SolverOptions | None = None,
            x0: np.ndarray | None = None, y0: np.ndarray | None = None) -> ConicSolution:
    """solve, raising SolverFailure naming the program unless the status
    is Optimal."""
    sol = solve(problem, options, x0=x0, y0=y0)
    if not sol.optimal:
        _raise_failure(sol, program)
    return sol


def _stack(problems) -> ConicProblem:
    """The program holding the programs side by side as its parts (a lone one
    without parts as it is): their blocks in turn, then their LP columns, A
    block diagonal, b and c concatenated.  _solved_batch gives PSD-only or
    LP-only programs, so that each part's variables are one range."""
    if len(problems) == 1 and not problems[0].parts:
        return problems[0]
    return ConicProblem([k for p in problems for k in p.psd_blocks],
                        sum(p.lp_dim for p in problems),
                        scipy.sparse.block_diag([p.A for p in problems], format="csr"),
                        np.concatenate([p.b for p in problems]),
                        np.concatenate([p.c for p in problems]),
                        tuple((p.A.shape[0], p.psd_blocks, p.lp_dim) for p in problems))


def _solved_batch(problems, names, options: SolverOptions | None = None,
                  x0s=None) -> list:
    """_solved of independent programs, each one part with its own iterates
    of a _stack (see the module docstring).  _batch_chunks splits the batch
    into runs of consecutive programs of bounded memory, one stack each.

    Returns one ConicSolution per program, with its slices of x, y and s, its
    own objectives and gap, its run's largest residuals, and as iterations
    the one at which it stopped.  names[i] names program i; a failure
    raises SolverFailure naming the failing program.  x0s is None or holds
    a hint for every program.  The programs of a batch of more than one
    must be all PSD-only or all LP-only, so that a stack keeps its LP tail
    after its blocks; InvalidInput refuses a mix before any solve."""
    problems = list(problems)
    if len(problems) > 1 and not (all(p.lp_dim == 0 for p in problems)
                                  or all(not p.psd_blocks for p in problems)):
        raise InvalidInput("a batch takes PSD-only or LP-only programs, not a mix")
    out = []
    for run in _batch_chunks([p.A.shape for p in problems]):
        out += _solved_run([problems[i] for i in run], [names[i] for i in run], options,
                           None if x0s is None else [x0s[i] for i in run])
    return out


def _solved_run(problems, names, options: SolverOptions | None, x0s) -> list:
    """_solved_batch of one run, from one solve of its stack."""
    stack = _stack(problems)
    sol = solve(stack, options, x0=None if x0s is None else np.concatenate(x0s))
    if not sol.optimal:
        _raise_failure(sol, names[sol.component])
    rows = np.cumsum([0] + [p.A.shape[0] for p in problems])
    coords = np.cumsum([0] + [p.num_vars for p in problems])
    out = []
    for i, stopped_at in enumerate(sol.stopped_at):
        r, v = slice(rows[i], rows[i + 1]), slice(coords[i], coords[i + 1])
        pobj, dobj = float(stack.c[v] @ sol.x[v]), float(stack.b[r] @ sol.y[r])
        out.append(ConicSolution(
            status=sol.status, x=sol.x[v], y=sol.y[r], s=sol.s[v],
            primal_objective=pobj, dual_objective=dobj,
            gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
            primal_residual=sol.primal_residual, dual_residual=sol.dual_residual,
            iterations=int(stopped_at)))
    return out


def _batch_chunks(shapes) -> list:
    """Split programs of the (rows, variables) shapes into runs of
    consecutive indices, each for one solve of _solved_batch.  A program of
    m rows and v variables counts m (v + 2 m) entries: its A counted dense,
    and its Schur matrix and Cholesky factor.  A run holds programs up to
    _BATCH_ENTRIES together, or one program that alone exceeds it."""
    runs, used = [], 0
    for i, (m, v) in enumerate(shapes):
        size = m * (v + 2 * m)
        if not runs or used + size > _BATCH_ENTRIES:
            runs.append([])
            used = 0
        runs[-1].append(i)
        used += size
    return runs
