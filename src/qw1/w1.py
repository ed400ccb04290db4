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

Both are transcribed over the real embedding of conic.embed_hermitian; the
factor 2 that the embedding introduces in traces and inner products is
compensated here, not in the solver.  Every constraint row is one element
of a Frobenius-orthonormal Hermitian basis paired against the variables.

Both programs omit one row, the full-space constraint of the basis element
E_00, so that their constraint matrices have full row rank and the solver
has no row to drop.  The rows are dependent through the trace:
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
from .conic import ConicProblem, SolverOptions, SolverStatus, svec, smat, svec_len
from .errors import LayoutMismatch, SolverFailure, SupportMismatch
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
    """Precomputed svec images of the Hermitian bases a layout needs."""
    layout = QuditLayout(d, n)
    D = layout.dim
    basis = hermitian_basis(D)
    full = np.stack([svec(conic.embed_hermitian(f)) for f in basis])
    comp = hermitian_basis(d ** (n - 1))
    site = []
    for i in layout.sites():
        rest = [j for j in layout.sites() if j != i]
        site.append(np.stack([
            svec(conic.embed_hermitian(embed_matrix(f, layout, rest)))
            for f in comp
        ]))
    return basis, full, comp, site


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


def _solved(problem: ConicProblem, options, x0=None, y0=None):
    sol = conic.solve(problem, options, x0=x0, y0=y0)
    if sol.status is not SolverStatus.Optimal:
        raise SolverFailure(f"conic solve ended with {sol.status.value} "
                            f"after {sol.iterations} iterations")
    return sol


def _traces(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.einsum("kij,ji->k", basis, m).real


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


def w1_primal(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Minimal-decomposition side; the witness comes from the multipliers."""
    x.require_traceless()
    d, n = x.d, x.n
    D = x.layout.dim
    basis, full, comp, site = _layout_data(d, n)
    basis, full = basis[1:], full[1:]  # E_00 omitted: see the module docstring
    L = svec_len(2 * D)
    nc = comp.shape[0]
    m_rows = n * nc + full.shape[0]
    A = np.zeros((m_rows, 2 * n * L))
    b = np.zeros(m_rows)
    c = np.zeros(2 * n * L)
    half_id = svec(np.eye(2 * D)) / 4.0
    sl = [slice(j * L, (j + 1) * L) for j in range(2 * n)]  # P_1,Q_1,P_2,Q_2,...
    for i in range(n):
        rows = slice(i * nc, (i + 1) * nc)
        A[rows, sl[2 * i]] = site[i]
        A[rows, sl[2 * i + 1]] = -site[i]
        A[n * nc:, sl[2 * i]] = full
        A[n * nc:, sl[2 * i + 1]] = -full
        c[sl[2 * i]] = half_id
        c[sl[2 * i + 1]] = half_id
    b[n * nc:] = 2.0 * _traces(basis, x.matrix)

    x0 = np.empty(2 * n * L)
    for i, xi in enumerate(_telescoping_hint(x)):
        p, q = _positive_parts(xi)
        x0[sl[2 * i]] = svec(conic.embed_hermitian(p))
        x0[sl[2 * i + 1]] = svec(conic.embed_hermitian(q))

    sol = _solved(ConicProblem((2 * D,) * (2 * n), 0, A, b, c), options, x0=x0)
    decomposition = []
    for i in range(n):
        pm = conic.extract_hermitian(smat(sol.x[sl[2 * i]], 2 * D))
        qm = conic.extract_hermitian(smat(sol.x[sl[2 * i + 1]], 2 * D))
        decomposition.append(HermitianOperator(x.layout, pm - qm))
    h = 2.0 * np.einsum("k,kij->ij", sol.y[n * nc:], basis)
    h -= np.trace(h) / D * np.eye(D)
    witness = HermitianOperator(x.layout, h)
    value = max(sol.primal_objective, 0.0)
    return W1Certificate(
        value=value, decomposition=decomposition, witness=witness,
        primal=sol.primal_objective, dual=sol.dual_objective,
        gap=abs(sol.primal_objective - sol.dual_objective),
        iterations=sol.iterations,
    )


def w1_dual(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Witness-maximization side; the decomposition comes from the slacks'
    complementary blocks."""
    x.require_traceless()
    d, n = x.d, x.n
    D = x.layout.dim
    basis, full, comp, site = _layout_data(d, n)
    basis, full = basis[1:], full[1:]  # E_00 omitted: see the module docstring
    L = svec_len(2 * D)
    nc = comp.shape[0]
    nf = full.shape[0]
    m_rows = nf + n * nc
    A = np.zeros((m_rows, 2 * n * L))
    b = np.zeros(m_rows)
    c = np.zeros(2 * n * L)
    half_id = svec(np.eye(2 * D)) / 2.0
    sl = [slice(j * L, (j + 1) * L) for j in range(2 * n)]  # (1,+),(1,-),(2,+),...
    for i in range(n):
        A[:nf, sl[2 * i]] = full
        A[:nf, sl[2 * i + 1]] = -full
        rows = slice(nf + i * nc, nf + (i + 1) * nc)
        A[rows, sl[2 * i]] = -site[i]
        A[rows, sl[2 * i + 1]] = site[i]
        c[sl[2 * i]] = half_id
        c[sl[2 * i + 1]] = half_id
    b[:nf] = _traces(basis, x.matrix)

    sol = _solved(ConicProblem((2 * D,) * (2 * n), 0, A, b, c),
                  options, y0=np.zeros(m_rows))
    h = np.einsum("k,kij->ij", sol.y[:nf], basis)
    h -= np.trace(h) / D * np.eye(D)
    witness = HermitianOperator(x.layout, h)
    decomposition = []
    for i in range(n):
        pm = conic.extract_hermitian(smat(sol.x[sl[2 * i]], 2 * D))
        qm = conic.extract_hermitian(smat(sol.x[sl[2 * i + 1]], 2 * D))
        decomposition.append(HermitianOperator(x.layout, 2.0 * (pm - qm)))
    value = max(sol.dual_objective, 0.0)
    return W1Certificate(
        value=value, decomposition=decomposition, witness=witness,
        primal=sol.primal_objective, dual=sol.dual_objective,
        gap=abs(sol.primal_objective - sol.dual_objective),
        iterations=sol.iterations,
    )


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
    _, _, comp, site = _layout_data(d, n)
    L = svec_len(2 * D)
    nc = comp.shape[0]
    eh = svec(conic.embed_hermitian(h.matrix))
    id_sv = svec(np.eye(2 * D))
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
        sol = _solved(ConicProblem((2 * D, 2 * D), 0, A, b, c), options)
        values.append(2.0 * max(-sol.dual_objective, 0.0))
        shifts.append(np.einsum("k,kij->ij", sol.y[1:], comp))
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
