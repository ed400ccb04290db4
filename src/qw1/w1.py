"""Wasserstein-1 norm of order 1 on n qudits, primal and dual, plus the
quantum Lipschitz constant it is dual to.

Primal program (value = ||X||_W1):

    min  1/2 sum_i Tr[P_i + Q_i]
    s.t. Tr_i(P_i - Q_i) = 0            for every site i
         sum_i (P_i - Q_i) = X
         P_i, Q_i >= 0

Dual program (same value):

    max  Tr[H X]
    s.t. for every i there is an H_i not acting on site i with
         -1/2 I <= H - I_i (x) H_i <= 1/2 I

The dual program is the conic dual of the primal one, so both are one
conic program: w1_primal solves it from a feasible decomposition, w1_dual
from the zero witness, and each reports its own side's objective.  Every
P_i, Q_i is one Hermitian PSD block of the layout's order D, in the svec
coordinates of conic, which are the coordinates Tr[F_a X] along
hermitian_basis(D).  Every constraint row is one basis element paired
against the variables: a full-space row is the unit vector of one
coordinate, a site row is svec(I_i (x) f) for f in hermitian_basis(d^(n-1)).
So b is svec(X) and the witness is smat(y) on the full-space rows.

Both programs omit one row, the full-space constraint of the basis element
E_00, so that their constraint matrices have the full row rank that the
solver requires.  The rows are dependent through the trace:
the full-space diagonal rows E_rr sum to the trace row of sum_i (P_i - Q_i),
which the site rows of the identity components already fix, and X is
traceless, so the omitted row holds at every feasible point.  Its multiplier
is free along that dependency: fixing it at 0 moves the other diagonal
multipliers by a common constant, which shifts the reconstructed witness by
a multiple of I.  The traceless projection of the witness removes that
shift, so the witness is unchanged.

The Lipschitz constant ||H||_L = 2 max_i min_K ||H - I_i (x) K||_inf is n
independent single-site programs; the optimization-free sandwich of
lipschitz_estimate brackets it within a factor 2(d^2-1)/d^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import conic
from .conic import ConicProblem, SolverOptions, svec, smat
from .errors import LayoutMismatch, SupportMismatch
from .operators import (
    HermitianOperator,
    QuditLayout,
    embed_matrix,
    matrix_to_json,
    operator_norm,
    operator_to_json,
    partial_trace,
    replace_with_maximally_mixed,
    trace_norm,
    NEIGHBOR_TOL,
)


def hermitian_basis(dim: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the Hermitian dim x dim matrices.

    Order: for r <= c row-major, E_rr; then (E_rc + E_cr)/sqrt2 and
    i(E_rc - E_cr)/sqrt2.  Tr[F_a F_b] = delta_ab.
    """
    out = np.zeros((dim * dim, dim, dim), dtype=complex)
    k = 0
    inv = 1.0 / np.sqrt(2.0)
    for r in range(dim):
        out[k, r, r] = 1.0
        k += 1
        for c in range(r + 1, dim):
            out[k, r, c] = inv
            out[k, c, r] = inv
            k += 1
            out[k, r, c] = 1j * inv
            out[k, c, r] = -1j * inv
            k += 1
    return out


@lru_cache(maxsize=8)
def _layout_data(d: int, n: int):
    """Constraint rows of a layout: the full-space rows, one per basis
    element of the whole space (the identity on a block), and per site i
    the rows svec(I_i (x) f) for f in hermitian_basis(d^(n-1))."""
    layout = QuditLayout(d, n)
    full = np.eye(layout.dim ** 2)
    comp = hermitian_basis(d ** (n - 1))
    site = []
    for i in layout.sites():
        rest = [j for j in layout.sites() if j != i]
        site.append(np.stack([svec(embed_matrix(f, layout, rest)) for f in comp]))
    return full, site


@dataclass
class W1Certificate:
    """Optimal value with both sides' evidence attached.

    decomposition: X^(1)..X^(n) with vanishing i-th marginals summing to X;
    witness: a traceless H feasible for the dual with Tr[HX] = dual.
    """

    value: float
    decomposition: list
    witness: HermitianOperator
    primal: float
    dual: float
    gap: float
    iterations: int = 0

    def residuals(self, x: HermitianOperator) -> dict:
        """Max violations of the certificate's defining identities."""
        total = sum(xi.matrix for xi in self.decomposition)
        if x.n == 1:
            marg = max(abs(xi.trace()) for xi in self.decomposition)
        else:
            marg = max(
                trace_norm(partial_trace(xi, i + 1))
                for i, xi in enumerate(self.decomposition)
            )
        half_sum = sum(trace_norm(xi) for xi in self.decomposition) / 2.0
        return {
            "sum": float(np.abs(total - x.matrix).max()),
            "marginal": marg,
            "primal_match": abs(half_sum - self.primal),
            "witness_pairing": abs(
                float(np.trace(self.witness.matrix @ x.matrix).real) - self.dual),
            "gap": self.gap,
        }

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "primal": self.primal,
            "dual": self.dual,
            "gap": self.gap,
            "witness": operator_to_json(self.witness),
            "decomposition": [operator_to_json(xi) for xi in self.decomposition],
        }


def _telescoping_hint(x: HermitianOperator) -> list:
    """Feasible decomposition from the marginal interpolation chain."""
    d, n, m = x.d, x.n, x.matrix
    chain = [np.zeros((1, 1), dtype=complex)]  # M_0 = Tr[X] = 0 scalar
    for i in range(1, n + 1):
        kept = m if i == n else partial_trace(x, list(range(i + 1, n + 1))).matrix
        chain.append(kept)
    out = []
    for i in range(1, n + 1):
        hi = np.kron(chain[i], np.eye(d ** (n - i)) / d ** (n - i))
        lo = np.kron(chain[i - 1], np.eye(d ** (n - i + 1)) / d ** (n - i + 1))
        out.append(hi - lo)
    return out


def _positive_parts(m: np.ndarray):
    w, v = np.linalg.eigh(m)
    pos = (v * np.maximum(w, 0.0)) @ v.conj().T
    neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
    return pos, neg


def _w1_program(x: HermitianOperator):
    """The conic program of both sides, and the index of its first
    full-space row.  Blocks P_1, Q_1, P_2, Q_2, ...; rows: the site rows of
    every site, then the full-space rows without E_00."""
    d, n, D = x.d, x.n, x.layout.dim
    full, site = _layout_data(d, n)
    full = full[1:]  # E_00 omitted: see the module docstring
    L = D * D
    nc = site[0].shape[0]
    A = np.zeros((n * nc + full.shape[0], 2 * n * L))
    for i in range(n):
        P, Q = slice(2 * i * L, (2 * i + 1) * L), slice((2 * i + 1) * L, (2 * i + 2) * L)
        A[i * nc:(i + 1) * nc, P] = site[i]
        A[i * nc:(i + 1) * nc, Q] = -site[i]
        A[n * nc:, P] = full
        A[n * nc:, Q] = -full
    b = np.concatenate([np.zeros(n * nc), svec(x.matrix)[1:]])
    c = np.tile(svec(np.eye(D)) / 2.0, 2 * n)
    return ConicProblem((D,) * (2 * n), 0, A, b, c), n * nc


def _certificate(x: HermitianOperator, sol, first_full: int, value: float) -> W1Certificate:
    """Decomposition X^(i) = P_i - Q_i from the blocks, witness from the
    full-space multipliers."""
    D = x.layout.dim
    blocks = sol.x.reshape(2 * x.n, D * D)
    decomposition = [HermitianOperator(x.layout, smat(p - q, D))
                     for p, q in zip(blocks[0::2], blocks[1::2])]
    h = smat(np.concatenate([[0.0], sol.y[first_full:]]), D)
    h -= np.trace(h) / D * np.eye(D)
    return W1Certificate(
        value=max(value, 0.0), decomposition=decomposition,
        witness=HermitianOperator(x.layout, h),
        primal=sol.primal_objective, dual=sol.dual_objective,
        gap=abs(sol.primal_objective - sol.dual_objective),
        iterations=sol.iterations,
    )


def w1_primal(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Minimal-decomposition side, started from the telescoping
    decomposition; the witness comes from the multipliers."""
    x.require_traceless()
    problem, first_full = _w1_program(x)
    x0 = np.concatenate([svec(part) for xi in _telescoping_hint(x)
                         for part in _positive_parts(xi)])
    sol = conic._solved(problem, "W1 primal SDP", options, x0=x0)
    return _certificate(x, sol, first_full, sol.primal_objective)


def w1_dual(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Witness-maximization side, started from the zero witness; the
    decomposition comes from the slacks' complementary blocks."""
    x.require_traceless()
    problem, first_full = _w1_program(x)
    sol = conic._solved(problem, "W1 dual SDP", options, y0=np.zeros(problem.b.size))
    return _certificate(x, sol, first_full, sol.dual_objective)


def w1_distance(rho, sigma, method: str = "primal",
                options: SolverOptions | None = None) -> W1Certificate:
    """W1 distance between two states; method picks the SDP side (or both)."""
    if rho.layout != sigma.layout:
        raise LayoutMismatch(f"{rho.layout} vs {sigma.layout}")
    diff = rho.matrix - sigma.matrix
    # both traces are 1 only within tolerance; project the residue away so
    # the tracelessness precondition is met exactly
    D = rho.layout.dim
    diff = diff - np.trace(diff) / D * np.eye(D)
    x = HermitianOperator(rho.layout, diff)
    if method == "primal":
        return w1_primal(x, options)
    if method == "dual":
        return w1_dual(x, options)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    cp = w1_primal(x, options)
    cd = w1_dual(x, options)
    return W1Certificate(
        value=cp.value, decomposition=cp.decomposition, witness=cd.witness,
        primal=cp.value, dual=cd.value, gap=abs(cp.value - cd.value),
        iterations=cp.iterations + cd.iterations,
    )


# ---------------------------------------------------------------------------
# Lipschitz constant
# ---------------------------------------------------------------------------

@dataclass
class LipschitzResult:
    value: float
    site_values: list      # 2 * min_K ||H - I_i (x) K||_inf per site
    shifts: list           # optimal K per site, complement-space matrices

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "site_values": list(self.site_values),
            "shifts": [matrix_to_json(k) for k in self.shifts],
        }


def lipschitz_constant(h: HermitianOperator,
                       options: SolverOptions | None = None) -> LipschitzResult:
    """Exact ||H||_L: one small min-max program per site."""
    d, n = h.d, h.n
    D = h.layout.dim
    _, site = _layout_data(d, n)
    L = D * D
    nc = site[0].shape[0]
    eh = svec(h.matrix)
    id_sv = svec(np.eye(D))
    values, shifts = [], []
    for i in range(n):
        A = np.zeros((1 + nc, 2 * L))
        A[0, :L] = -id_sv
        A[0, L:] = -id_sv
        A[1:, :L] = -site[i]
        A[1:, L:] = site[i]
        b = np.zeros(1 + nc)
        b[0] = -1.0
        c = np.concatenate([-eh, eh])
        sol = conic._solved(ConicProblem((D, D), 0, A, b, c),
                            f"Lipschitz SDP at site {i + 1}", options)
        values.append(2.0 * max(-sol.dual_objective, 0.0))
        shifts.append(smat(sol.y[1:], d ** (n - 1)))
    return LipschitzResult(value=max(values), site_values=values, shifts=shifts)


def lipschitz_estimate(h: HermitianOperator) -> tuple:
    """Optimization-free sandwich around ||H||_L from the one-site pinching.

    lower = d^2/(d^2-1) * max_i ||H - E_i(H)||_inf, upper = 2 * the same max;
    the ratio is exactly 2(d^2-1)/d^2.
    """
    d = h.d
    worst = max(
        operator_norm(h.matrix - replace_with_maximally_mixed(h, i).matrix)
        for i in h.layout.sites()
    )
    return (d * d / (d * d - 1.0) * worst, 2.0 * worst)


def is_neighboring(rho, sigma, tol: float = NEIGHBOR_TOL):
    """Smallest site whose removal makes the states agree, or None."""
    if rho.layout != sigma.layout:
        raise LayoutMismatch(f"{rho.layout} vs {sigma.layout}")
    if rho.n == 1:
        # discarding the only qudit leaves the traces, which match for states
        return 1 if abs(rho.trace() - sigma.trace()) <= tol else None
    for i in rho.layout.sites():
        if trace_norm(partial_trace(rho, i).matrix - partial_trace(sigma, i).matrix) <= tol:
            return i
    return None


def local_hamiltonian_lipschitz_bound(layout: QuditLayout, terms) -> float:
    """2 max_i || sum of the terms whose support contains i ||_inf.

    terms: iterable of (support site list, HermitianOperator on those sites).
    """
    embedded = []
    supports = []
    for support, op in terms:
        support = list(support)
        if op.d != layout.d or op.n != len(support):
            raise SupportMismatch(
                f"term on {op.n} site(s) declared for support {support}")
        embedded.append(embed_matrix(op.matrix, layout, support))
        supports.append(set(support))
    best = 0.0
    for i in layout.sites():
        acc = sum((m for m, s in zip(embedded, supports) if i in s),
                  np.zeros((layout.dim, layout.dim), dtype=complex))
        best = max(best, operator_norm(acc))
    return 2.0 * best
