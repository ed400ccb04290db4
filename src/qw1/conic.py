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
  * steps damped to STEP_FRACTION of the distance to the cone boundary.

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
component, the template.  Identical components share one rank test too.
Both are kept across solves under that key, in the bounded cache of
_template, so the template's data is built once: every W1 program of one
layout, and every Lipschitz site program of one layout and site, has the
same rows; only the places of each class's members are found per solve.
Per iteration the Schur matrices of a class's running members are assembled
as one (C, m, m) stack, with each block's scaling matrices gathered as a
(C, k, k) stack; the members are taken in chunks that keep each temporary
within _SCHUR_BATCH entries, or within one member's when that is larger.
The template's kernel rows (see below) are read once per key too, with
the int32 index tables of their kernel.  Each member's matrix is then
factored by LAPACK's potrf on its own regularization ladder, as a program
alone is.  A class holds one (C, m, m) array, allocated once per solve and
refilled every iteration: the stack is made symmetric in place, and each
member's matrix is factored in place in its own slice.  potrf writes one
triangle and leaves the other holding the matrix, so a failed try is
undone from that triangle and the diagonal kept aside (_factor).  A
member's iterates, and so its final point and iteration count, equal those
of its solo program bit for bit.

solve hands back each component's own solution too, in
ConicSolution.parts: its slices of x, y and s, its own objectives, gap and
scaled residuals, and the iteration at which it stopped.  _solved_batch
stacks independent programs with _stack, one solve per run, and returns
the parts of each run's solve, or raises SolverFailure naming the program
that failed.  Every solve of the package goes through it, the W1
dual and the diamond norm as batches of one, each caller with one call:
_solved_batch itself splits a batch into runs that _batch_chunks bounds by
the memory of their A, counted dense, and Schur matrices.

ConicProblem stores A as CSR, converting a dense input once.  The rank
test, the Schur complement and every A x, A^T y and residual read that
one matrix.

The Schur complement of a PSD block comes from the nonzeros of each
constraint row F_b (Fujisawa, Kojima and Nakata, "Exploiting sparsity in
primal-dual interior-point methods for semidefinite programming", Math.
Prog. 79, 1997): W F_b W is a sum of rank-one terms W e_p e_q^T W, one per
nonzero, and M[a, b] = Tr[F_a W F_b W] reads it only where F_a is nonzero.
M is real: the trace of a product of two Hermitian matrices is real.

A row is lifted on a PSD block of order k when its matrix there is
t (I_m (x) f), one basis element f of order k / m repeated m times at
stride s (see _lifts).  A unit row, one nonzero on the block, is the case
m = 1: the D^2 - 1 full-space rows of the W1 program, one coordinate of
each of its 2n blocks, and the corner rows of the diamond norm on Z.  The
site rows I_i (x) f of the Lipschitz program of site i are lifted with
m = d and s = d^(n-i) on its blocks P_i and Q_i.  Each block takes the
lift of most of its lifted rows as its class, and its rows of that class
are its kernel rows, if they are so on every block they touch.  Blocks of
one order share a kernel when their kernel rows have one lift and are the
same rows at the same coordinates with the same values up to one sign per
block.  Between two kernel rows M reads the Kronecker sum sum_j W_j (x)
conj(W_j) over the m^2 sub-blocks of order k / m of each sharing block's
W, which one zgemm of inner dimension B m^2 forms as sum_j vec(W_j)
vec(W_j)^H, at two entries per pair of rows (_UnitRows): two gathers at
int32 index tables and a scaling, by row slabs of bounded size, in place of
forming W F_b W for each row.  The sparse formula forms W F_b W for the
other rows only, and contracts them against every row; the entries of the
kernel rows against the other rows are then copied from their transpose.
The structure is read from A alone.  The W1 site rows stay on the sparse
formula, since their blocks carry more unit rows, and so does the
Lipschitz trace row -Tr[P_i + Q_i], lifted with m = D but the only row
with that lift.

A must have full row rank: the programs of w1 and classical omit their
one dependent row.  A Cholesky factorization of the Gram matrix A A^T and
its condition estimate test the rank up front, one class of components
at a time (the Gram matrix is block diagonal over the components), and solve
refuses an A that fails with InvalidInput.  Everything is deterministic:
the same problem and start give the same iterates.  Each iteration's mu, gap
and residuals are logged at DEBUG level to the "qw1.conic" logger, per
component.
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
STATIC_REGULARIZATION = 1e-12
# the stopping test and step damping of every solve; solve reads them when
# called, so a tolerance experiment patches the module attributes
MAX_ITERATIONS = 200
GAP_TOL = 1e-8
FEAS_TOL = 1e-8
STEP_FRACTION = 0.98
# entries of the W F_b W matrices formed at once by the Schur formula, over
# the members of a class taken together (at least one member's rows of one
# batch): small enough that one batch stays in cache while it is contracted.
# The Kronecker kernel of _UnitRows bounds its slabs of M and of K, and the
# in-place symmetrization its slabs of rows, by the same count.
_SCHUR_BATCH = 1 << 16
# entries (16 MB of float64), as _batch_chunks counts them, up to which it
# puts programs into one batched solve: the battery's largest batch (0.85M
# entries at 100 trials) fits, two W1 programs at (2, 4) (1.6M each) do not
_BATCH_ENTRIES = 1 << 21


class SolverStatus(enum.Enum):
    Optimal = "Optimal"
    MaxIterations = "MaxIterations"
    NumericalFailure = "NumericalFailure"


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
    sums and the gap and residuals the largest part's; parts holds each
    part's own solution, in order (see solve)."""

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
    parts: tuple = ()

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
        self.orders = [ks for _, ks, _ in parts]
        self._keys = {}
        classes = {}  # one program is one class, with no key to build
        for j in range(count if problem.parts else 0):
            classes.setdefault(self.template(A, j)[1], []).append(j)
        self.classes = [np.array(m) for m in classes.values()] or [np.array([0])]

    def template(self, A, j: int):
        """Component j's rows of A, and their key: its block orders, LP
        width and the CSR arrays of the rows, read in its own coordinates.
        Identical components have equal keys, wherever they sit."""
        sub = A if self.size[j] == A.shape[0] else A[self.rows[j]]
        if j not in self._keys:
            self._keys[j] = (self.orders[j], self.lp_in[j].size, sub.indptr.tobytes(),
                             (sub.indices - self.coords[j].start).tobytes(),
                             sub.data.tobytes())
        return sub, self._keys[j]


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
    gram = A @ A.T
    # its 1-norm from the sparse form: one dense m x m array, not two
    anorm = abs(gram).sum(axis=0).max()
    gram = gram.toarray()
    factor, info = scipy.linalg.lapack.dpotrf(gram.T, overwrite_a=1)
    if info != 0:
        return False
    rcond, info = scipy.linalg.lapack.dpocon(factor, anorm)
    return info == 0 and rcond > FULL_RANK_RCOND


# The name and the (A, b, rows) return stay for benchmarks/tracing.py, which
# binds _presolve and counts the rows it drops as m - len(result[2]).
def _presolve(A, b: np.ndarray, comps: _Components):
    """Refuse a CSR matrix A without full row rank; return (A, b, every row).
    Rows of different components are orthogonal, so each component's rows
    are tested on their own, and identical components share one test, which
    a template that passed it in an earlier solve skips (see _template)."""
    for members in comps.classes:
        j = members[0]
        size = comps.size[j]
        if not size:
            continue
        sub, key = comps.template(A, j)
        template = _template(key)
        if template.full_rank:
            continue
        if not _full_row_rank(sub):
            where = f"component {j + 1} of {comps.count}" if comps.count > 1 else "A"
            if members.size > 1:
                where += f" and of its {members.size - 1} identical components"
            raise InvalidInput(
                f"the {size} constraint rows of {where} are not linearly independent")
        template.full_rank = True
    return A, b, np.arange(A.shape[0])


def _entries(row, col, val, sl: slice):
    """The nonzeros (row, col, val) of A that lie in the columns sl, as
    (touch, pos, col, val): touch the sorted rows holding any, touch[pos]
    the row of each nonzero and col its column within sl."""
    inside = (col >= sl.start) & (col < sl.stop)
    touch, pos = np.unique(row[inside], return_inverse=True)
    return touch, pos, col[inside] - sl.start, val[inside]


# The PSD nonzeros of a row on one block, a segment, as a lifted row there
# (see _lifts): the segment's row, the block's position in the template,
# its lift (m, s), its reduced svec coordinate in order k / m, its value
# and whether it is lifted at all.
_Segments = collections.namedtuple("_Segments", "row place m s coord value lifted")


def _lifts(row, col, val, cone: _Cone, blocks) -> _Segments:
    """The segments of the nonzeros (row, col, val) of A, sorted by row and
    then column, on the PSD blocks `blocks`, one per row and block it
    touches, in that order.

    A segment of m nonzeros is lifted when it reads t (I_m (x) f), f the
    basis element of svec coordinate coord in order k / m, at stride s:
    its nonzeros share the value t and one kind (diagonal, real or
    imaginary part) and sit at the matrix entries (U + x s, V + x s) for
    x < m, m s divides k, and the site digit (U // s) mod m of U and of V
    is 0.  Then coord reads the entry (u, v), u = (U // (m s)) s + U mod s
    and likewise v.  One nonzero, a unit row, is lifted with m = s = 1."""
    psd = col < cone.lp_slice.start
    row, col, val = row[psd], col[psd], val[psd]
    starts = np.array([cone.slices[b].start for b in blocks])
    place = np.searchsorted(starts, col, "right") - 1
    local = col - starts[place]
    order = np.array([cone.blocks[b] for b in blocks])[place]
    U, V, imag = (np.empty(col.size, dtype=int) for _ in range(3))
    for k in {cone.blocks[b] for b in blocks}:
        on = order == k
        co = _coords(k)
        U[on], V[on], imag[on] = co.row[local[on]], co.col[local[on]], co.imag[local[on]]
    pair = row * len(blocks) + place
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    m = np.diff(np.r_[first, pair.size])
    seg = np.repeat(np.arange(first.size), m)
    U0, V0, t = U[first], V[first], val[first]
    s = np.where(m > 1, U[np.minimum(first + 1, pair.size - 1)] - U0, 1)
    stride = np.maximum(s, 1)
    shift = (np.arange(pair.size) - first[seg]) * s[seg]
    apart = (U != U0[seg] + shift) | (V != V0[seg] + shift) \
        | (imag != imag[first][seg]) | (val != t[seg])
    k = order[first]
    lifted = (np.bincount(seg[apart], minlength=first.size) == 0) & (s > 0) \
        & (k % (m * stride) == 0) & ((U0 // stride) % m == 0) & ((V0 // stride) % m == 0)
    u, v = ((E // (m * stride)) * stride + E % stride for E in (U0, V0))
    # in order K = k / m the coordinates of row u start at u (2K - u): (u, u),
    # then the real and the imaginary part of each (u, v), v > u
    coord = u * (2 * (k // m) - u) + np.where(u == v, 0, 2 * (v - u) - 1 + imag[first])
    return _Segments(row[first], place[first], m, stride, coord, t, lifted)


def _chunks(count: int, per_member: int) -> list:
    """Slices of the count members of a class, each holding as many members
    as fit _SCHUR_BATCH temporary entries of per_member each, at least one."""
    step = max(1, _SCHUR_BATCH // per_member)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class _SparseRows:
    """Sparse Schur formula for one block (Fujisawa-Kojima-Nakata).

    Row b's matrix F_b has a few nonzeros F_b[p, q], so W F_b W is the sum
    of the rank-one terms F_b[p, q] W[:, p] W[q, :], where W[:, p] is the
    conjugate of W[p, :].  W F_b W is formed only for the rows touch[formed],
    those that are not kernel rows (_UnitRows has the others): rows with the
    same number of such terms are batched into one stacked product, and
    M[a, b] = Tr[F_a W F_b W] is read off for every row a touching the block
    at the svec nonzeros of F_a by one sparse product per batch.
    """

    def __init__(self, touch, pos, col, val, k: int, m: int, formed: np.ndarray):
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
        for p in np.unique(count[formed]):
            group = np.flatnonzero((count == p) & formed)
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


def _where(rows: np.ndarray, cols: np.ndarray):
    """The index of M[:, rows, cols], by slices where both are contiguous
    ranges (a view), else by index arrays."""
    def span(idx):
        lo = int(idx[0])
        return slice(lo, lo + idx.size) if np.array_equal(idx, np.arange(lo, lo + idx.size)) \
            else None
    r, c = span(rows), span(cols)
    if r is not None and c is not None:
        return slice(None), r, c
    return slice(None), rows[:, None], cols[None, :]


class _UnitRows:
    """Schur formula for the kernel rows of a set of blocks of one order.

    Each row reads one svec coordinate, with the same value t, up to one
    sign per block, which cancels in M, of each of the matrices W_j that
    add_to is given: for unit rows the blocks' scaling matrices, for rows
    lifted with (m, s) (see _lifts) the m^2 sub-blocks of order k / m of
    each of them, taken at stride s (see _schur).  Either set is closed
    under conjugate transpose.  With F_a = t_a smat(e_alpha) for row a at
    coordinate alpha, M[a, b] = t_a t_b sum_j Tr[smat(e_alpha) W_j
    smat(e_beta) W_j^H], which reads K = sum_j vec(W_j) vec(W_j)^H, the
    Kronecker sum sum_j W_j (x) conj(W_j) with its indices rearranged: one
    zgemm whose inner dimension is the number of the W_j.  The closure
    gives K the symmetries of the Hermitian case.  For alpha = (p, q) and
    beta = (r, s), entries of the upper triangle (p <= q, r <= s), the trace
    is (scale_alpha scale_beta / 2) (+-y1 +- y2), scale being the svec scale
    (1 on the diagonal, sqrt 2 off it), with y1 = K[(p, s), (q, r)] and
    y2 = K[(p, r), (q, s)] taken by their real part, or by their imaginary
    part where one of alpha and beta is imaginary; y1 is negated where both
    are imaginary and y2 where beta alone is.

    The rows are sorted by coordinate and taken in slabs of consecutive p,
    whose rows of M read only the rows (p, .) of K.  Per slab, two int32
    tables index each entry's y1 and y2 in the float view of those rows of
    K followed by their negation, so a slab of M is two gathers, scaled by
    t_a scale_alpha / 2 along its rows and t_b scale_beta along its
    columns."""

    def __init__(self, rows: np.ndarray, coords: np.ndarray, values: np.ndarray, k: int):
        order = np.argsort(coords, kind="stable")
        rows, coords, values = rows[order], coords[order], values[order]
        co = _coords(k)
        p, q, imag = co.row[coords], co.col[coords], co.imag[coords]
        scale = values * co.scale[coords]
        u = rows.size
        self.rows = rows
        self.scale = scale
        # slabs of whole p groups, each with at most _SCHUR_BATCH entries of
        # M and of the float view of its rows of K and their negation, or
        # one p group
        first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        bounds = [0]
        for lo, hi in zip(first, np.r_[first[1:], u]):
            start = bounds[-1]
            if start < lo and max((hi - start) * u,
                                  4 * (p[hi - 1] + 1 - p[start]) * k ** 3) > _SCHUR_BATCH:
                bounds.append(lo)
        bounds.append(u)
        self.slabs = []
        for i0, i1 in zip(bounds, bounds[1:]):
            p0 = p[i0]
            width = (p[i1 - 1] + 1 - p0) * k  # the rows of K the slab reads
            half = 2 * width * k * k          # floats in their float view
            ia = imag[i0:i1]
            # 2 (row k^2 + col) + imag part + half if negated, as a sum of a
            # term of alpha, a term of beta and one where both are imaginary
            alpha = 2 * ((p[i0:i1] - p0) * k ** 3 + q[i0:i1] * k) + ia

            def table(beta, both):
                out = np.add.outer(alpha.astype(np.int32), beta.astype(np.int32))
                np.add(out, both.astype(np.int32), out=out, where=ia[:, None])
                return out

            self.slabs.append((slice(p0 * k, p0 * k + width),
                               table(2 * (q * k * k + p) + imag, (half - 2) * imag),
                               table(2 * (p * k * k + q) + (half + 1) * imag,
                                     -(half + 2) * imag),
                               scale[i0:i1, None] / 2.0, _where(rows[i0:i1], rows)))

    def add_to(self, M: np.ndarray, W: np.ndarray) -> None:
        """Add the rows' terms to the (C, m, m) stack M, with W the (C, B, k,
        k) stack of the B matrices W_j of each member."""
        C, B, k, _ = W.shape
        vec = W.reshape(C, B, k * k)
        conj = vec.conj()
        for krows, y1, y2, row_scale, where in self.slabs:
            width = krows.stop - krows.start
            for sl in _chunks(C, max(4 * width * k * k, 2 * y1.size)):
                n = len(conj[sl])
                # rows krows of K, then their negation
                K = np.empty((n, 2, width, k * k), dtype=complex)
                np.matmul(vec[sl, :, krows].swapaxes(1, 2), conj[sl], out=K[:, 0])
                np.negative(K[:, 0], out=K[:, 1])
                flat = K.view(float).reshape(n, -1)
                terms = np.take(flat, y1, axis=1)
                terms += np.take(flat, y2, axis=1)
                terms *= row_scale
                terms *= self.scale
                M[sl][where] += terms


class _Template:
    """What solve reads off the rows of a class's template, kept across
    solves under their key (_Components.template): whether they passed the
    rank test of _presolve, and their Schur data (_SchurData) once a
    _BlockData has asked for it."""

    def __init__(self):
        self.full_rank = False
        self.schur = None


# the templates of the classes solved last, by key, the least recently used
# first: every W1 program of one layout, and every site program of one
# layout and site, has the same rows
_TEMPLATES: collections.OrderedDict = collections.OrderedDict()
_TEMPLATE_CACHE = 32


def _template(key) -> _Template:
    """The _Template of a key, made empty when missing; past _TEMPLATE_CACHE
    templates the least recently used one is dropped."""
    template = _TEMPLATES.pop(key, None) or _Template()
    _TEMPLATES[key] = template
    if len(_TEMPLATES) > _TEMPLATE_CACHE:
        _TEMPLATES.popitem(last=False)
    return template


class _SchurData:
    """The Schur complement data of a class's template, in its own numbering:
    rows numbered within the component, blocks by position, columns in its
    own coordinates, so that every class with the same key shares it.

    Each PSD block takes as its kernel class the lift (m, s) of most of its
    lifted rows (see _lifts; the smaller m on a tie): m = 1, unit rows, for
    the W1 blocks and the diamond norm's Z, (d, d^(n-i)) for the blocks of
    the Lipschitz program of site i.  A kernel row is lifted in the class of
    every PSD block it touches.  Each block's kernel rows go to a _UnitRows,
    shared by the blocks of one order whose kernel rows have the same lift
    and are the same rows at the same coordinates with the same values up
    to one sign per block: units holds one (rows, positions, lift) each,
    with the positions of its blocks and the lift (m, s).  blocks holds one
    (rows, position) per PSD block on which some other row has nonzeros: a
    _SparseRows that forms W F W for those rows only.  mirror indexes M at
    the kernel rows against the other rows, and its transpose, or is None.
    lp_cols holds the LP columns as a dense array."""

    def __init__(self, sub, orders, lp_dim: int, first: int):
        """sub: the template's rows of A, CSR with sorted indices, its
        columns from first on; orders and lp_dim: its blocks and LP width."""
        cone = _Cone(orders, lp_dim)
        size = sub.shape[0]
        local = scipy.sparse.csr_matrix((sub.data, sub.indices - first, sub.indptr),
                                        shape=(size, cone.dim))
        row = np.repeat(np.arange(size), np.diff(local.indptr))
        nonzeros = row, local.indices, local.data
        blocks = range(len(orders))
        seg = _lifts(*nonzeros, cone, blocks)
        # per block the lift of most of its lifted rows, as one number that
        # orders lifts by m: sorted by block, then count, the first of a tie
        lift = seg.m * (seg.s.max(initial=0) + 1) + seg.s
        width = lift.max(initial=0) + 1
        keys, count = np.unique((seg.place * width + lift)[seg.lifted], return_counts=True)
        place = keys // width
        order = np.lexsort((-count, place))
        top = order[np.diff(place[order], prepend=-1) != 0]
        chosen = np.full(len(blocks), -1)
        chosen[place[top]] = keys[top] % width
        # a kernel row is lifted in the class of every block it touches
        kernel = np.bincount(seg.row[~seg.lifted | (lift != chosen[seg.place])],
                             minlength=size) == 0
        self.blocks = []
        shared = {}  # the blocks of each _UnitRows, by (order, lift, rows, coordinates, values)
        for p in blocks:
            k = cone.blocks[p]
            touch, pos, col, val = _entries(*nonzeros, cone.slices[p])
            formed = ~kernel[touch]
            if formed.any():
                self.blocks.append((_SparseRows(touch, pos, col, val, k, size, formed), p))
            on = np.flatnonzero((seg.place == p) & kernel[seg.row])
            if on.size:
                r, c, v = seg.row[on], seg.coord[on], seg.value[on]
                v = v if v[0] > 0 else -v
                ms = int(seg.m[on[0]]), int(seg.s[on[0]])
                key = k, ms, r.tobytes(), c.tobytes(), v.tobytes()
                shared.setdefault(key, (r, c, v, k // ms[0], ms, []))[5].append(p)
        self.units = [(_UnitRows(r, c, v, k), np.array(ps), ms)
                      for r, c, v, k, ms, ps in shared.values()]
        ones = np.flatnonzero(kernel & (np.bincount(seg.row, minlength=size) > 0))
        others = np.flatnonzero(~kernel)
        self.mirror = (_where(ones, others), _where(others, ones)) \
            if ones.size and others.size else None
        self.lp_cols = local[:, cone.lp_slice].toarray()


class _BlockData:
    """The Schur complement data of one class of identical components (see
    _Components): the _SchurData of its template, the class's first
    component, cached with the template's key (see _template), placed on
    the class's members.

    blocks holds one (rows, group, place) per entry (rows, position) of the
    _SchurData's blocks: the block's order group and per member the place
    in that group's stacks of its block at that position.  units holds one
    (rows, group, places, lift) per entry of its units, places holding per
    member the places of its blocks at the unit's positions.  mirror and
    lp_cols are the _SchurData's, lp_idx[c] the LP columns of member c and
    rows[c] its rows.  A is a CSR matrix with sorted indices, as
    ConicProblem stores it."""

    def __init__(self, A, cone: _Cone, comps: _Components, members: np.ndarray):
        t = members[0]
        self.members = members
        self.size = comps.size[t]
        sub, key = comps.template(A, t)
        template = _template(key)
        if template.schur is None:
            template.schur = _SchurData(sub, comps.orders[t], comps.lp_in[t].size,
                                        comps.coords[t].start)
        data = template.schur
        first = np.array([comps.blocks_in[j].start for j in members])
        self.blocks = [(rows, cone.group[first[0] + p], cone.place[first + p])
                       for rows, p in data.blocks]
        self.units = [(rows, cone.group[first[0] + ps[0]], cone.place[first[:, None] + ps], ms)
                      for rows, ps, ms in data.units]
        self.mirror = data.mirror
        self.lp_cols = data.lp_cols
        self.lp_idx = np.array([comps.lp_in[j] for j in members])
        self.rows = [comps.rows[j] for j in members]


def _symmetrize(M: np.ndarray) -> None:
    """M = (M + M^T) / 2 for each matrix of the (C, m, m) stack, in place:
    in slabs of rows whose temporaries stay within _SCHUR_BATCH entries, each
    taking the entries of its rows and columns not yet averaged, so every
    entry is that of the out-of-place formula, bit for bit."""
    C, m, _ = M.shape
    step = max(1, _SCHUR_BATCH // max(1, C * m))
    for lo in range(0, m, step):
        hi = lo + step
        avg = M[:, lo:hi, lo:] + M[:, lo:, lo:hi].swapaxes(1, 2)
        avg /= 2.0
        M[:, lo:hi, lo:] = avg
        M[:, lo:, lo:hi] = avg.swapaxes(1, 2)


def _schur(bd: _BlockData, scal: _Scaling, live: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """The Schur complements of the class members live (positions in
    bd.members) on their rows, as a (C, m, m) stack, written into out when
    given.  The _SparseRows give the rows that are not kernel rows, against
    every row, and the _UnitRows the kernel rows against each other; the
    kernel rows against the others are then copied from their transpose,
    and the stack is made symmetric in place.  A _UnitRows of rows lifted
    with (m, s) reads the m^2 sub-blocks W^(ce), c, e < m, of order k / m of
    each block's W, W^(ce)[u, v] = W[U, V] where U has site digit c, V site
    digit e and reduced index u, v (see _lifts): a copy of the (C, B, k, k)
    stack as (C, B m^2, k / m, k / m), which for m = 1 is W itself."""
    if out is None:
        M = np.zeros((live.size, bd.size, bd.size))
    else:
        M = out
        M.fill(0.0)
    for rows, group, place in bd.blocks:
        rows.add_to(M, scal.Ws[group][place[live]])
    for rows, group, places, (m, s) in bd.units:
        W = scal.Ws[group][places[live]]
        C, B, k, _ = W.shape
        L = k // (m * s)
        rows.add_to(M, W.reshape(C, B, L, m, s, L, m, s).transpose(0, 1, 3, 6, 2, 4, 5, 7)
                    .reshape(C, B * m * m, L * s, L * s))
    if bd.mirror is not None:
        ones_others, others_ones = bd.mirror
        M[ones_others] = M[others_ones].swapaxes(1, 2)
    lp = bd.lp_cols
    if lp.shape[1]:
        M += (lp * scal.w_lp[bd.lp_idx[live]][:, None, :] ** 2) @ lp.T
    _symmetrize(M)
    return M


def _factor(M: np.ndarray, rows):
    """Factor the (C, m, m) stack M of Schur matrices, those of the running
    members of one class, whose rows are rows[c], one member at a time, each
    in place in its own slice, with the first regularization of the ladder
    1e-12, 1e-10, ... that works.

    LAPACK's potrf gets the F-ordered transpose of M[c], the same matrix
    since M is symmetric, so that it copies nothing.  It writes the lower
    factor over the upper triangle of M[c] and leaves the strict lower
    triangle holding the matrix, from which a retry restores the upper one,
    and the diagonal from its copy kept before the first try.

    Returns a list of (rows, factor), factor the F-ordered view of M[c]
    that holds its lower factor, and None; or None and (c, cause) for the
    first member c whose regularization runs past 1e-4.
    """
    pieces = []
    for c, (Mc, r) in enumerate(zip(M, rows)):
        diagonal = Mc.reshape(-1)[::len(Mc) + 1]
        kept = diagonal.copy()
        reg = STATIC_REGULARIZATION
        while True:
            np.add(kept, reg, out=diagonal)
            factor, info = scipy.linalg.lapack.dpotrf(Mc.T, lower=1, overwrite_a=1, clean=0)
            if info == 0:
                break
            reg *= 100.0
            if reg > 1e-4:
                return None, (c, f"Cholesky regularization past 1e-4 "
                                 f"(last tried {reg / 100.0:.1e})")
            for i in range(len(Mc) - 1):
                Mc[i, i + 1:] = Mc[i + 1:, i]
        pieces.append((r, factor))
    return pieces, None


def solve(problem: ConicProblem, x0: np.ndarray | None = None,
          y0: np.ndarray | None = None) -> ConicSolution:
    """Run the interior-point method on the parts of the program, or on the
    one program, in lockstep, and return the solution of the whole with
    each part's own in its parts.  Raises InvalidInput if A lacks full row
    rank; never raises on numerical trouble, reports it through the status
    field, and its cause and component, instead."""
    cone = _Cone(problem.psd_blocks, problem.lp_dim)
    comps = _Components(problem, cone)
    A, b, _ = _presolve(problem.A, problem.b, comps)
    c = problem.c
    m = A.shape[0]
    classes = [_BlockData(A, cone, comps, members) for members in comps.classes]
    # per class the stack of its Schur matrices, each factored in place,
    # refilled every iteration
    buffers = [np.empty((bd.members.size, bd.size, bd.size)) for bd in classes]
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
    ended_at = np.zeros(comps.count, dtype=int)
    failure = None  # (component, cause)
    it = 0

    for it in range(1, MAX_ITERATIONS + 1):
        rp, rd, stats = measure(x, y, s)
        mu = np.array([float(x[coords] @ s[coords]) for coords in comps.coords]) / comps.nu
        for j in np.flatnonzero(running):
            pobj, dobj, gap, pres, dres = stats[j]
            _log.debug("iter %3d%s  mu %9.2e  gap %9.2e  pres %9.2e  dres %9.2e",
                       it, f"  component {j + 1}" if comps.count > 1 else "",
                       mu[j], gap, pres, dres)
            if gap <= GAP_TOL and pres <= FEAS_TOL and dres <= FEAS_TOL:
                running[j] = False
                ended_at[j] = it
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
        for bd, schur in zip(classes, buffers):
            alive = np.flatnonzero(running[bd.members])
            if not alive.size or not bd.size:  # no rows, no Newton system
                continue
            M = _schur(bd, scal, alive, out=schur[:alive.size])
            pieces, failed = _factor(M, [bd.rows[c] for c in alive])
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
            for rows, factor in solves:
                dy[rows] = scipy.linalg.lapack.dpotrs(factor, rhs[rows], lower=1)[0]
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
        ap, ad = steps(dx, ds, STEP_FRACTION)
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
    ended_at[running] = it
    parts = tuple(
        ConicSolution(status=status if running[j] else SolverStatus.Optimal,
                      x=x[coords], y=y[rows], s=s[coords],
                      primal_objective=pobj, dual_objective=dobj, gap=part_gap,
                      primal_residual=float(part_pres), dual_residual=float(part_dres),
                      iterations=int(ended_at[j]))
        for j, (rows, coords, (pobj, dobj, part_gap, part_pres, part_dres))
        in enumerate(zip(comps.rows, comps.coords, stats)))
    return ConicSolution(
        status=status, x=x, y=y, s=s,
        primal_objective=float(c @ x), dual_objective=float(b @ y), gap=gap,
        primal_residual=float(pres), dual_residual=float(dres),
        iterations=it, cause=cause, component=component, parts=parts,
    )


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


def _solved_batch(problems, names, x0s=None, y0s=None) -> list:
    """solve of independent programs, each one part with its own iterates
    of a _stack (see the module docstring).  _batch_chunks splits the batch
    into runs of consecutive programs of bounded memory, one stack each.

    Returns the parts of each run's solve: per program its slices of x, y
    and s, its own objectives, gap and residuals, and as iterations the one
    at which it stopped, the fields of its solo solve.  names[i] names
    program i; a solve that ends other than Optimal raises SolverFailure
    naming the failing program.  x0s and y0s are None or hold a start for
    every program.  The programs of a batch of more than one must be all
    PSD-only or all LP-only, so that a stack keeps its LP tail after its
    blocks; InvalidInput refuses a mix."""
    problems = list(problems)
    if len(problems) > 1 and not (all(p.lp_dim == 0 for p in problems)
                                  or all(not p.psd_blocks for p in problems)):
        raise InvalidInput("a batch takes PSD-only or LP-only programs, not a mix")
    out = []
    for run in _batch_chunks([p.A.shape for p in problems]):
        x0, y0 = (None if hints is None else np.concatenate([hints[i] for i in run])
                  for hints in (x0s, y0s))
        sol = solve(_stack([problems[i] for i in run]), x0=x0, y0=y0)
        if not sol.optimal:
            cause = f": {sol.cause}" if sol.cause else ""
            raise SolverFailure(f"{names[run[sol.component]]} ended with {sol.status.value} "
                                f"after {sol.iterations} iterations{cause}")
        out += sol.parts
    return out


def _batch_chunks(shapes) -> list:
    """Split programs of the (rows, variables) shapes into runs of
    consecutive indices, each for one solve of _solved_batch.  A program of
    m rows and v variables counts m (v + 2 m) entries: its A counted dense,
    and twice its Schur matrix, though solve factors that matrix in place;
    the count keeps the room of the separate factor of earlier versions, so
    that the runs hold the same programs.  A run holds programs up to
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
