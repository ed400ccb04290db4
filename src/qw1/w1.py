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
from the zero witness, and each reports its own side's objective.
w1_primals solves the programs of many operators, of any layouts,
through conic._solved_batch, each from its own decomposition; w1_primal is
its one-element case, which reaches the solver with its single program as
it is.

w1_distance(method="both") makes one primal solve and brackets the value
from it: it repairs the solve's decomposition and witness into feasible
points, up to floating-point rounding and not in interval arithmetic (after
Jansson, Chaykin and Keil, "Rigorous error bounds for the optimal value in
semidefinite programming", SIAM J. Numer. Anal. 45 (2007)).  The repaired
decomposition gives the upper end, the rescaled witness the lower end, and
the gap is their difference; see _bracket.

Every P_i, Q_i is one Hermitian PSD block of the layout's order D, in the
svec coordinates of conic, which are the coordinates Tr[F_a X] along
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
independent conic programs, one per site, which conic._solved_batch stacks
in runs of bounded memory, each run's parts solved in lockstep.
lipschitz_constants batches the site programs of many operators; those of
one layout and site are identical parts, whose Schur matrices the solver
assembles as one stack.  The optimization-free sandwich of
lipschitz_estimate brackets ||H||_L within a factor 2(d^2-1)/d^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

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
    i(E_rc - E_cr)/sqrt2.  Tr[F_a F_b] = delta_ab.  F_a = smat(e_a), as
    svec(X)[a] = Tr[F_a X].
    """
    return smat(np.eye(dim * dim), dim)


@lru_cache(maxsize=8)
def _layout_data(d: int, n: int):
    """The constraint matrices of a layout's W1 and Lipschitz programs, as
    CSR on blocks P_1, Q_1, P_2, Q_2, ...  Both are made of the site rows
    of each site i, svec(I_i (x) f) for f in hermitian_basis(d^(n-1)),
    which have d nonzeros each.

    W1: the site rows of every site, on P_i and negated on Q_i, then the
    full-space rows, one per basis element of the whole space but E_00 (see
    the module docstring), 1 at its coordinate of every P_i and -1 at that
    of every Q_i.  Lipschitz: one matrix per site i, on its own P_i, Q_i:
    the trace row -Tr[P_i + Q_i] and the rows Tr_i[Q_i - P_i], the negated
    site rows on P_i and the site rows on Q_i."""
    layout = QuditLayout(d, n)
    comp = hermitian_basis(d ** (n - 1))
    site = [scipy.sparse.csr_matrix(np.stack(
        [svec(embed_matrix(f, layout, [j for j in layout.sites() if j != i])) for f in comp]))
        for i in layout.sites()]
    full = scipy.sparse.identity(layout.dim ** 2, format="csr")[1:]
    trace = scipy.sparse.csr_matrix(-svec(np.eye(layout.dim)))
    w1 = scipy.sparse.vstack(
        [scipy.sparse.block_diag([scipy.sparse.hstack([rows, -rows]) for rows in site]),
         scipy.sparse.hstack([full, -full] * n)], format="csr")
    lipschitz = [scipy.sparse.bmat([[trace, trace], [-rows, rows]], format="csr")
                 for rows in site]
    return w1, lipschitz


@dataclass
class W1Certificate:
    """Optimal value with both sides' evidence attached.

    decomposition: X^(1)..X^(n) with vanishing i-th marginals summing to X;
    witness: a traceless H feasible for the dual with Tr[HX] = dual.
    Under method "both" the two come from one solve, each repaired to
    feasibility in floating point: primal = 1/2 sum_i ||X^(i)||_1 is the
    upper end of the bracket, dual = Tr[HX] its lower end, value = primal
    and gap = primal - dual >= 0; shifts then holds per site i the K_i with
    ||H - I_i (x) K_i||_inf <= 1/2, which show H feasible.  Otherwise
    value and gap are those of the one solved side and shifts is None.
    """

    value: float
    decomposition: list
    witness: HermitianOperator
    primal: float
    dual: float
    gap: float
    iterations: int = 0
    shifts: list | None = None

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
    full-space row: blocks P_1, Q_1, P_2, Q_2, ..., rows those of
    _layout_data."""
    D, n = x.layout.dim, x.n
    A = _layout_data(x.d, n)[0]
    first_full = A.shape[0] - (D * D - 1)
    b = np.concatenate([np.zeros(first_full), svec(x.matrix)[1:]])
    c = np.tile(svec(np.eye(D)) / 2.0, 2 * n)
    return ConicProblem((D,) * (2 * n), 0, A, b, c), first_full


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


def _bracket(x: HermitianOperator, sol, first_full: int) -> W1Certificate:
    """Both ends of the W1 bracket from one solve of x's program, from its
    decomposition and witness repaired to feasibility in floating point.

    Upper end: each piece P_i - Q_i loses I_i/d (x) Tr_i of itself (its
    trace at n = 1), the residual X - sum_i X^(i) of that projection is
    split by _telescoping_hint and added to the pieces, and primal =
    1/2 sum_i ||X^(i)||_1.  Lower end: with H the traceless witness and K_i
    the multipliers of site i's rows, the slack of the P_i, Q_i blocks
    bounds H + I_i (x) K_i, whose spectrum spans 2 w_i; a scalar shift
    centres it, so ||H||_L <= t = 2 max_i w_i, and H/t is feasible with
    dual = Tr[HX]/t.  A zero H, where t = 0, gives the zero witness.  Both
    ends hold up to floating-point rounding, not in interval arithmetic."""
    layout, d, n = x.layout, x.d, x.n
    cert = _certificate(x, sol, first_full, sol.primal_objective)
    pieces = [xi.matrix - replace_with_maximally_mixed(xi, i).matrix
              for i, xi in zip(layout.sites(), cert.decomposition)]
    rest = HermitianOperator(layout, x.matrix - sum(pieces))
    decomposition = [HermitianOperator(layout, p + t)
                     for p, t in zip(pieces, _telescoping_hint(rest))]
    # no trace-norm floor: every eigenvalue counts towards the upper end
    primal = sum(float(np.abs(np.linalg.eigvalsh(xi.matrix)).sum())
                 for xi in decomposition) / 2.0
    h = cert.witness.matrix
    ks = [smat(yi, d ** (n - 1)) for yi in sol.y[:first_full].reshape(n, -1)]
    spans = [np.linalg.eigvalsh(
        h + embed_matrix(k, layout, [j for j in layout.sites() if j != i]))[[0, -1]]
        for i, k in zip(layout.sites(), ks)]
    t = max(hi - lo for lo, hi in spans)
    scale = 1.0 / t if t > 0 else 0.0
    witness = HermitianOperator(layout, h * scale)
    # the ends can cross only by rounding, which then collapses the bracket
    dual = min(float(np.trace(witness.matrix @ x.matrix).real), primal)
    return W1Certificate(
        value=primal, decomposition=decomposition, witness=witness,
        primal=primal, dual=dual, gap=primal - dual, iterations=sol.iterations,
        shifts=[((lo + hi) / 2.0 * np.eye(d ** (n - 1)) - k) * scale
                for (lo, hi), k in zip(spans, ks)],
    )


def w1_primals(xs, options: SolverOptions | None = None) -> list:
    """w1_primal of every operator of xs, from batched solves of their
    programs side by side (conic._solved_batch, which also decides how many
    programs a solve takes); each starts from its telescoping
    decomposition.  The programs of one layout have the same rows, so the
    solver assembles their Schur matrices as one stack."""
    return list(_w1_primal_runs(xs, options))


def _w1_primal_runs(xs, options: SolverOptions | None = None, bracket: bool = False):
    """w1_primals as a generator, which makes each certificate only when it
    is asked for: a caller that keeps only values holds one certificate at
    a time.  With bracket, each certificate is the repaired one of
    _bracket."""
    xs = list(xs)
    for x in xs:
        x.require_traceless()
    programs = [_w1_program(x) for x in xs]
    x0s = [np.concatenate([svec(part) for xi in _telescoping_hint(x)
                           for part in _positive_parts(xi)]) for x in xs]
    names = [f"W1 primal SDP of operator {j + 1}" if len(xs) > 1 else "W1 primal SDP"
             for j in range(len(xs))]
    sols = conic._solved_batch([problem for problem, _ in programs], names, options, x0s)
    for x, (_, first_full), sol in zip(xs, programs, sols):
        yield (_bracket(x, sol, first_full) if bracket
               else _certificate(x, sol, first_full, sol.primal_objective))


def w1_primal(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Minimal-decomposition side, started from the telescoping
    decomposition; the witness comes from the multipliers."""
    return w1_primals([x], options)[0]


def w1_dual(x: HermitianOperator, options: SolverOptions | None = None) -> W1Certificate:
    """Witness-maximization side, started from the zero witness; the
    decomposition comes from the slacks' complementary blocks."""
    x.require_traceless()
    problem, first_full = _w1_program(x)
    sol = conic._solved(problem, "W1 dual SDP", options, y0=np.zeros(problem.b.size))
    return _certificate(x, sol, first_full, sol.dual_objective)


def _state_difference(rho, sigma) -> HermitianOperator:
    """rho - sigma, the operator whose W1 norm is their W1 distance.  Both
    traces are 1 only within tolerance; the residue is projected away so the
    tracelessness precondition is met exactly."""
    if rho.layout != sigma.layout:
        raise LayoutMismatch(f"{rho.layout} vs {sigma.layout}")
    diff = rho.matrix - sigma.matrix
    D = rho.layout.dim
    return HermitianOperator(rho.layout, diff - np.trace(diff) / D * np.eye(D))


def w1_distance(rho, sigma, method: str = "primal",
                options: SolverOptions | None = None) -> W1Certificate:
    """W1 distance between two states.  method "primal" or "dual" solves
    from that side and reports its objective; "both" makes one primal solve
    and reports the bracket of _bracket, value = primal >= dual."""
    x = _state_difference(rho, sigma)
    if method == "primal":
        return w1_primal(x, options)
    if method == "dual":
        return w1_dual(x, options)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    return next(_w1_primal_runs([x], options, bracket=True))


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


def _lipschitz_programs(h: HermitianOperator) -> list:
    """The n site programs of h, n > 1: site i's on blocks P_i, Q_i, rows
    its Lipschitz matrix of _layout_data."""
    eh = svec(h.matrix)
    return [ConicProblem([h.layout.dim] * 2, 0, A, np.r_[-1.0, np.zeros(A.shape[0] - 1)],
                         np.concatenate([-eh, eh])) for A in _layout_data(h.d, h.n)[1]]


def lipschitz_constants(hs, options: SolverOptions | None = None) -> list:
    """Exact ||H||_L of every operator of hs, from batched solves.

    Site i's value 2 min_K ||H - I_i (x) K||_inf is twice the optimum of
    max Tr[H (P_i - Q_i)] s.t. Tr[P_i + Q_i] = 1, Tr_i(P_i - Q_i) = 0,
    P_i, Q_i >= 0, whose multipliers of the partial-trace rows give the
    optimal K.  The site programs of all operators with n > 1 go to one
    conic._solved_batch call, which solves them in lockstep runs; the site
    programs of one layout and site have the same rows, so the solver
    assembles their Schur matrices as one stack.  At n = 1 the complement
    space is C, K is a scalar, and the value is lambda_max - lambda_min in
    closed form."""
    hs = list(hs)
    results = [None] * len(hs)
    solved, programs, names = [], [], []
    for j, h in enumerate(hs):
        if h.n == 1:
            lam = np.linalg.eigvalsh(h.matrix)
            value = float(lam[-1] - lam[0])
            results[j] = LipschitzResult(value=value, site_values=[value], shifts=[
                np.array([[(lam[-1] + lam[0]) / 2.0]], dtype=complex)])
            continue
        of = f" of operator {j + 1}" if len(hs) > 1 else ""
        names += [f"Lipschitz SDP{of} at site {i + 1}" for i in range(h.n)]
        programs += _lipschitz_programs(h)
        solved.append(j)
    sols = iter(conic._solved_batch(programs, names, options))
    for j in solved:
        h = hs[j]
        # site i's dual objective is -y at its trace row
        y = [next(sols).y for _ in range(h.n)]
        values = [2.0 * max(float(yi[0]), 0.0) for yi in y]
        shifts = [smat(yi[1:], h.d ** (h.n - 1)) for yi in y]
        results[j] = LipschitzResult(value=max(values), site_values=values, shifts=shifts)
    return results


def lipschitz_constant(h: HermitianOperator,
                       options: SolverOptions | None = None) -> LipschitzResult:
    """Exact ||H||_L: lipschitz_constants of the one operator h, its n site
    programs going to one _solved_batch call, which may split them."""
    return lipschitz_constants([h], options)[0]


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
