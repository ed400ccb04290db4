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

w1_distance(method="both") brackets the value from a decomposition, a
witness H and per-site shifts K_i, which _repaired turns into feasible
points on the whole X, up to floating-point rounding and not in interval
arithmetic (after Jansson, Chaykin and Keil, "Rigorous error bounds for the
optimal value in semidefinite programming", SIAM J. Numer. Anal. 45
(2007)).  The repaired decomposition gives the upper end, the rescaled
witness the lower end, and the gap is their difference.  _parts takes the
three, for the pair and for each factor pair of a product alike, from the
first of these routes that applies:

* neighbouring: is_neighboring finds a site i (every n = 1 pair has one);
  X^(i) = X, H = (Pi_+ - Pi_-)/2 from X's eigenprojections, K_j = 0, and
  the value is ||X||_1 / 2;
* product: both states factor over a partition of the sites into two or
  more blocks (STRUCTURE_TOL); the factor pairs take their routes in one
  _parts call, and their parts are lifted to the whole space (W1 is
  additive);
* diagonal: both states are diagonal (STRUCTURE_TOL); one transport LP
  pair of qw1.classical gives the coupling, whose masses walk one site at
  a time, and the potential f, with H = diag(f);
* program: one primal solve of the W1 program of X, all such pairs in one
  batch, whose decomposition and witness are already repaired (_bracket).

A structured bracket of the pair wider than conic.GAP_TOL (1 + value) falls
back to the program route, so the routes' tolerances decide only which path
runs, never the bracket.

Every P_i, Q_i is one Hermitian PSD block of the layout's order D, in the
svec coordinates of conic, which are the coordinates Tr[F_a X] along
hermitian_basis(D).  Every constraint row is one basis element paired
against the variables: a full-space row is the unit vector of one
coordinate, a site row is svec(I_i (x) f) for f in hermitian_basis(d^(n-1)).
So b is svec(X) and the witness is smat(y) on the full-space rows.  Every
Tr_i and I_i (x) here is operators._trace_out or operators._lift.

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

Site i's program only sees H'_i = H - E_i(H), E_i = I_i/d (x) Tr_i, since
E_i(H) = I_i (x) Tr_i(H)/d moves into K.  When H'_i acts only on the sites
S_i, the normalized partial trace over the other sites, which is unital
and positive and so does not raise an operator norm, maps H'_i - I_i (x) K
to h_i - I_i (x) K' with h_i its image of H'_i, and K' (x) I gives back any
K' of the small program: site i's value is that of h_i's site program on
the layout (d, |S_i|).  Numerically S_i holds the sites j where H'_i is
farther than LOCALITY_TOL (1 + ||H||_F) from E_j(H'_i) in Frobenius norm,
and the value then moves by at most 2 ||H'_i - E_{S_i^c}(H'_i)||_F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse

from . import conic
from .classical import Distribution, transport_lps
from .conic import ConicProblem, svec, smat
from .errors import LayoutMismatch, SupportMismatch
from .operators import (
    HermitianOperator,
    QuditLayout,
    _lift,
    _trace_out,
    embed_matrix,
    matrix_to_json,
    operator_norm,
    operator_to_json,
    replace_with_maximally_mixed,
    trace_norm,
    NEIGHBOR_TOL,
)

# a site's part H - E_i(H) acts on site j when its Frobenius distance from
# E_j of itself exceeds LOCALITY_TOL (1 + ||H||_F); see lipschitz_constants
LOCALITY_TOL = 1e-12
# w1_distance's product and diagonal routes: two states factor over a set of
# sites when each lies within STRUCTURE_TOL of the product of its marginals,
# and a state is diagonal when its off-diagonal part is within it, both in
# Frobenius norm; see _factors and _is_diagonal
STRUCTURE_TOL = 1e-12


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
    site = [scipy.sparse.csr_matrix(svec(_lift(comp, d, n, [j for j in range(n) if j != i])))
            for i in range(n)]
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
    Under method "both" the two come from one route, each repaired to
    feasibility in floating point: primal = 1/2 sum_i ||X^(i)||_1 is the
    upper end of the bracket, dual = Tr[HX] its lower end, value = primal
    and gap = primal - dual >= 0; shifts then holds per site i the K_i with
    ||H - I_i (x) K_i||_inf <= 1/2, which show H feasible.  Otherwise
    value and gap are those of the one solved side and shifts is None.

    route names where the decomposition and witness came from: "program"
    (the W1 program of the whole X), or under method "both" one of the
    structured routes of w1_distance, "neighbouring", "product" or
    "diagonal".  iterations counts the W1 program's interior-point
    iterations: 0 when no W1 program ran, and for a product the largest
    count among its factors' programs.  to_json leaves route out.
    """

    value: float
    decomposition: list
    witness: HermitianOperator
    primal: float
    dual: float
    gap: float
    iterations: int = 0
    shifts: list | None = None
    route: str = "program"

    def residuals(self, x: HermitianOperator) -> dict:
        """Max violations of the certificate's defining identities."""
        total = sum(xi.matrix for xi in self.decomposition)
        marg = max(trace_norm(_trace_out(xi.matrix, x.d, x.n, [j for j in range(x.n) if j != i]))
                   for i, xi in enumerate(self.decomposition))
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
    """Feasible decomposition from the marginal interpolation chain: M_i,
    X's marginal on sites 1..i, is M_(i+1) traced over its last site, and
    M_0 = Tr[X] = 0."""
    d, n = x.d, x.n
    chain = [np.zeros((1, 1), dtype=complex), x.matrix]
    for i in range(n - 1, 0, -1):
        chain.insert(1, _trace_out(chain[1], d, i + 1, range(i)))
    lifted = [np.kron(m, np.eye(d ** (n - i)) / d ** (n - i)) for i, m in enumerate(chain)]
    return [hi - lo for lo, hi in zip(lifted, lifted[1:])]


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
    """Both ends of the W1 bracket from one solve of x's program: its
    decomposition and witness, with k_i the multipliers of site i's rows,
    repaired by _repaired.  The slack of the P_i, Q_i blocks bounds
    H + I_i (x) k_i, so its spread is near 1."""
    d, n = x.d, x.n
    cert = _certificate(x, sol, first_full, sol.primal_objective)
    ks = [smat(yi, d ** (n - 1)) for yi in sol.y[:first_full].reshape(n, -1)]
    return _repaired(x, cert.decomposition, cert.witness.matrix, ks, sol.iterations)


def _repaired(x: HermitianOperator, decomposition, h: np.ndarray, ks, iterations: int,
              route: str = "program") -> W1Certificate:
    """The bracket of a decomposition of x, a traceless witness h and per
    site i a k_i on the other sites, each repaired to feasibility in
    floating point.

    Upper end: each piece X^(i) loses I_i/d (x) Tr_i of itself (its trace at
    n = 1), the residual X - sum_i X^(i) of that projection is split by
    _telescoping_hint and added to the pieces, and primal =
    1/2 sum_i ||X^(i)||_1.  Lower end: the spectrum of H + I_i (x) k_i spans
    2 w_i; a scalar shift centres it, so ||H||_L <= t = 2 max_i w_i, and H/t
    is feasible with dual = Tr[HX]/t and the shifts K_i = (centre - k_i)/t.
    A zero H, where t = 0, gives the zero witness.  Both ends hold up to
    floating-point rounding, not in interval arithmetic."""
    layout, d, n = x.layout, x.d, x.n
    pieces = [xi.matrix - replace_with_maximally_mixed(xi, i).matrix
              for i, xi in zip(layout.sites(), decomposition)]
    rest = HermitianOperator(layout, x.matrix - sum(pieces))
    decomposition = [HermitianOperator(layout, p + t)
                     for p, t in zip(pieces, _telescoping_hint(rest))]
    # no trace-norm floor: every eigenvalue counts towards the upper end
    primal = sum(float(np.abs(np.linalg.eigvalsh(xi.matrix)).sum())
                 for xi in decomposition) / 2.0
    spans = [np.linalg.eigvalsh(
        h + _lift(k, d, n, [j for j in range(n) if j != i]))[[0, -1]]
        for i, k in enumerate(ks)]
    t = max(hi - lo for lo, hi in spans)
    scale = 1.0 / t if t > 0 else 0.0
    witness = HermitianOperator(layout, h * scale)
    # the ends can cross only by rounding, which then collapses the bracket
    dual = min(float(np.trace(witness.matrix @ x.matrix).real), primal)
    return W1Certificate(
        value=primal, decomposition=decomposition, witness=witness,
        primal=primal, dual=dual, gap=primal - dual, iterations=iterations,
        shifts=[((lo + hi) / 2.0 * np.eye(d ** (n - 1)) - k) * scale
                for (lo, hi), k in zip(spans, ks)],
        route=route,
    )


def w1_primals(xs) -> list:
    """w1_primal of every operator of xs, from batched solves of their
    programs side by side (conic._solved_batch, which also decides how many
    programs a solve takes); each starts from its telescoping
    decomposition.  The programs of one layout have the same rows, so the
    solver assembles their Schur matrices as one stack."""
    return list(_w1_primal_runs(xs))


def _w1_primal_runs(xs, bracket: bool = False):
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
    sols = conic._solved_batch([problem for problem, _ in programs], names, x0s)
    for x, (_, first_full), sol in zip(xs, programs, sols):
        yield (_bracket(x, sol, first_full) if bracket
               else _certificate(x, sol, first_full, sol.primal_objective))


def w1_primal(x: HermitianOperator) -> W1Certificate:
    """Minimal-decomposition side, started from the telescoping
    decomposition; the witness comes from the multipliers."""
    return w1_primals([x])[0]


def w1_dual(x: HermitianOperator) -> W1Certificate:
    """Witness-maximization side, started from the zero witness; the
    decomposition comes from the slacks' complementary blocks."""
    x.require_traceless()
    problem, first_full = _w1_program(x)
    (sol,) = conic._solved_batch([problem], ["W1 dual SDP"], y0s=[np.zeros(problem.b.size)])
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


def _factors(pair: np.ndarray, d: int, n: int, block) -> bool:
    """Whether both matrices of the stack pair lie within STRUCTURE_TOL, in
    Frobenius norm, of the product of their marginals on the sites of block
    (0-based) and on the other sites, divided by their trace."""
    rest = [j for j in range(n) if j not in block]
    product = (_lift(_trace_out(pair, d, n, block), d, n, block)
               @ _lift(_trace_out(pair, d, n, rest), d, n, rest))
    product /= np.trace(pair, axis1=1, axis2=2)[:, None, None]
    return np.linalg.norm(pair - product, axis=(1, 2)).max() <= STRUCTURE_TOL


def _factor_blocks(rho, sigma) -> list:
    """The finest partition of the sites (0-based, each block sorted) over
    which both states factor: each block is the smallest set of the sites
    left, holding the lowest of them, over which both marginals on the sites
    left factor, at most 2^(n-1) checks in all."""
    d, n = rho.d, rho.n
    pair = np.stack([rho.matrix, sigma.matrix])
    blocks, left = [], list(range(n))
    while left:
        k, m = len(left), _trace_out(pair, d, n, left)
        block = next(b for size in range(1, k + 1)
                     for b in ([0, *c] for c in itertools.combinations(range(1, k), size - 1))
                     if size == k or _factors(m, d, k, b))
        blocks.append([left[j] for j in block])
        left = [s for j, s in enumerate(left) if j not in block]
    return blocks


def _is_diagonal(*states) -> bool:
    """Whether every state's off-diagonal part is within STRUCTURE_TOL in
    Frobenius norm."""
    return max(np.linalg.norm(s.matrix - np.diag(np.diag(s.matrix)))
               for s in states) <= STRUCTURE_TOL


def _neighbouring_parts(x: HermitianOperator, i: int):
    """Pieces, witness, shifts and iterations of a pair that differs on the
    0-based site i only: X^(i) = X and 0 elsewhere, H = (Pi_+ - Pi_-)/2
    from X's eigenprojections, and K_j = 0, so ||H - I_j (x) K_j||_inf =
    1/2 and Tr[HX] = ||X||_1 / 2."""
    w, v = np.linalg.eigh(x.matrix)
    zero = np.zeros_like(x.matrix)
    return ([x.matrix if j == i else zero for j in range(x.n)],
            (v * (np.sign(w) / 2.0)) @ v.conj().T,
            [np.zeros((x.layout.dim // x.d,) * 2)] * x.n, 0)


def _diagonal_parts(pairs) -> list:
    """Pieces, witness, shifts and iterations of every pair of diagonal
    states of pairs, from one transport_lps call holding both sides of each.

    Each coupled mass pi(x, y) walks from x to y one site at a time: step s
    moves it from z_(s-1) to z_s, where z_s has y's digits on sites 1..s and
    x's on the others, so the two differ on site s at most and piece s,
    sum pi(x, y) (|z_(s-1)><z_(s-1)| - |z_s><z_s|), has no site-s marginal.
    The witness is diag(f) with f the Kantorovich potential, and K_i the
    diagonal of the midpoints of f along the fibres of site i."""
    dists = [[Distribution(s.layout, w / w.sum())
              for s in pair for w in [np.maximum(np.diag(s.matrix).real, 0.0)]]
             for pair in pairs]
    sols = iter(transport_lps([(p, q, dual) for p, q in dists for dual in (False, True)]))
    out = []
    for p, _ in dists:
        (_, coupling), (_, f) = next(sols), next(sols)
        d, n, D = p.d, p.n, p.layout.dim
        x, y = np.indices((D, D))
        walk = [y // d ** (n - s) * d ** (n - s) + x % d ** (n - s) for s in range(n + 1)]
        mass = [np.bincount(z.ravel(), coupling.ravel(), D) for z in walk]
        fibres = f.reshape((d,) * n)
        out.append(([np.diag(a - b) for a, b in zip(mass, mass[1:])], np.diag(f),
                    [np.diag((fibres.max(axis=i) + fibres.min(axis=i)).ravel() / 2.0)
                     for i in range(n)], 0))
    return out


def _parts(pairs) -> list:
    """(route, parts) of every state pair of pairs, from the first route
    that applies (module docstring).  The parts of a structured route are
    its pieces, witness, shifts and iterations: the neighbouring closed
    form, the factor pairs' own routes (_product_parts), the diagonal
    transport LPs (one call for all pairs).  A program pair's parts are
    its repaired certificate (_bracket), all programs in one batch."""
    out, diagonal, programs = [None] * len(pairs), [], []
    for j, (rho, sigma) in enumerate(pairs):
        site = is_neighboring(rho, sigma)
        if site is not None:
            out[j] = "neighbouring", _neighbouring_parts(_state_difference(rho, sigma), site - 1)
        elif len(blocks := _factor_blocks(rho, sigma)) > 1:
            out[j] = "product", _product_parts(rho, sigma, blocks)
        else:
            (diagonal if _is_diagonal(rho, sigma) else programs).append(j)
    for j, parts in zip(diagonal, _diagonal_parts([pairs[j] for j in diagonal])):
        out[j] = "diagonal", parts
    certs = _w1_primal_runs([_state_difference(*pairs[j]) for j in programs], bracket=True)
    for j, cert in zip(programs, certs):
        out[j] = "program", cert
    return out


def _product_parts(rho, sigma, blocks):
    """Pieces, witness, shifts and iterations of two states that factor over
    blocks, from those of their factor pairs (one _parts call): site i of
    block k gets sigma_<k (x) X_k^(i) (x) rho_>k, in site order, the witness
    is sum_k H_k (x) I, and K_i is the factor's own shift plus sum_(l != k)
    H_l (x) I; iterations is the largest of the factors'."""
    d, n = rho.d, rho.n
    pair = np.stack([rho.matrix, sigma.matrix])
    margs = [_trace_out(pair, d, n, b) for b in blocks]
    factors = [parts if route != "program" else
               ([xi.matrix for xi in parts.decomposition], parts.witness.matrix,
                parts.shifts, parts.iterations)
               for route, parts in _parts([
                   tuple(HermitianOperator(QuditLayout(d, len(b)), m) for m in ms)
                   for b, ms in zip(blocks, margs)])]
    # rho_k (x) I and sigma_k (x) I
    states = [_lift(ms, d, n, b) for b, ms in zip(blocks, margs)]
    hs = [h for _, h, _, _ in factors]

    def on_others(m, block, i):
        """m on the sites of block but i, lifted to the n - 1 sites but i."""
        return _lift(m, d, n - 1, [j - (j > i) for j in block if j != i])

    pieces, shifts = [None] * n, [None] * n
    for k, (block, (own, _, own_shifts, _)) in enumerate(zip(blocks, factors)):
        for i, piece, shift in zip(block, own, own_shifts):
            pieces[i] = reduce(np.matmul, [s[1] for s in states[:k]] + [_lift(piece, d, n, block)]
                               + [s[0] for s in states[k + 1:]])
            shifts[i] = on_others(shift, block, i) + sum(
                on_others(h, b, i) for l, (b, h) in enumerate(zip(blocks, hs)) if l != k)
    witness = sum(_lift(h, d, n, b) for b, h in zip(blocks, hs))
    return pieces, witness, shifts, max(parts[3] for parts in factors)


def w1_distance(rho, sigma, method: str = "primal") -> W1Certificate:
    """W1 distance between two states.  method "primal" or "dual" solves
    from that side and reports its objective.  "both" reports a repaired
    bracket (_repaired), value = primal >= dual, from the first route that
    applies (_parts and the module docstring)."""
    x = _state_difference(rho, sigma)
    if method == "primal":
        return w1_primal(x)
    if method == "dual":
        return w1_dual(x)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    ((route, parts),) = _parts([(rho, sigma)])
    if route == "program":
        return parts
    pieces, h, shifts, iterations = parts
    D = x.layout.dim
    cert = _repaired(x, [HermitianOperator(x.layout, p) for p in pieces],
                     h - np.trace(h) / D * np.eye(D), [-k for k in shifts], iterations, route)
    if cert.gap <= conic.GAP_TOL * (1.0 + cert.value):
        return cert
    return next(_w1_primal_runs([x], bracket=True))


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


def _lipschitz_program(m: np.ndarray, d: int, n: int, i: int) -> ConicProblem:
    """Site i's program (0-based) of the d^n x d^n matrix m, n > 1: on blocks
    P_i, Q_i, rows its Lipschitz matrix of _layout_data."""
    A = _layout_data(d, n)[1][i]
    em = svec(m)
    return ConicProblem([d ** n] * 2, 0, A, np.r_[-1.0, np.zeros(A.shape[0] - 1)],
                        np.concatenate([-em, em]))


def _site_parts(h: HermitianOperator):
    """Per site i (0-based) of h: Tr_i(H)/d, the part H'_i = H -
    I_i (x) Tr_i(H)/d, and S_i, the sorted sites j where ||H'_i -
    E_j(H'_i)||_F > LOCALITY_TOL (1 + ||H||_F), with i among them.  At
    n = 1, Tr_i(H)/d is the 1 x 1 matrix Tr(H)/d and S_1 = [0]."""
    d, n, m = h.d, h.n, h.matrix
    others = [[j for j in range(n) if j != i] for i in range(n)]
    traces = [_trace_out(m, d, n, rest) / d for rest in others]
    parts = np.stack([m - _lift(t, d, n, rest) for t, rest in zip(traces, others)])
    tol = LOCALITY_TOL * (1.0 + np.linalg.norm(m))
    # off[i, j] = ||H'_i - E_j(H'_i)||_F
    off = np.stack([np.linalg.norm(
        parts - _lift(_trace_out(parts, d, n, rest) / d, d, n, rest), axis=(1, 2))
        for rest in others], axis=1)
    return traces, parts, [[j for j in range(n) if j == i or off[i, j] > tol]
                           for i in range(n)]


def lipschitz_constants(hs) -> list:
    """Exact ||H||_L of every operator of hs, from batched solves.

    Site i's value 2 min_K ||H - I_i (x) K||_inf is twice the optimum of
    max Tr[H (P_i - Q_i)] s.t. Tr[P_i + Q_i] = 1, Tr_i(P_i - Q_i) = 0,
    P_i, Q_i >= 0, whose multipliers of the partial-trace rows give the
    optimal K.

    Site i's program is solved on the sites S_i its part H'_i =
    H - E_i(H) acts on (see _site_parts and the module docstring): it is
    the program of h_i, the normalized partial trace of H'_i over the other
    sites (H'_i itself when S_i is every site), on the layout (d, |S_i|) at
    i's position in S_i, or for S_i = {i} the closed form
    lambda_max(h_i) - lambda_min(h_i); its optimal K' gives K_i =
    Tr_i(H)/d + K' (x) I, identity on the sites outside S_i.
    The value is exact up to 2 ||H'_i - E_{S_i^c}(H'_i)||_F, at most 2
    LOCALITY_TOL (1 + ||H||_F) per dropped site.  Every shift is a matrix
    on the n - 1 sites other than i.

    The programs of all operators go to one conic._solved_batch call, which
    solves them in lockstep runs; the site programs of one layout and
    position have the same rows, so the solver assembles their Schur
    matrices as one stack."""
    hs = list(hs)
    out = []      # per operator its site values and shifts, None until solved
    programs, names, pending = [], [], []
    for j, h in enumerate(hs):
        d, n = h.d, h.n
        values, shifts = [None] * n, [None] * n
        out.append((values, shifts))
        of = f" of operator {j + 1}" if len(hs) > 1 else ""
        traces, parts, supports = _site_parts(h)
        for i, keep in enumerate(supports):
            small = _trace_out(parts[i], d, n, keep) / d ** (n - len(keep))
            if len(keep) == 1:
                lam = np.linalg.eigvalsh(small)
                values[i] = float(lam[-1] - lam[0])
                shifts[i] = traces[i] + (lam[-1] + lam[0]) / 2.0 * np.eye(len(traces[i]))
                continue
            programs.append(_lipschitz_program(small, d, len(keep), keep.index(i)))
            names.append(f"Lipschitz SDP{of} at site {i + 1}")
            # K' acts on keep without i, numbered among the sites but i
            pending.append((values, shifts, i, d, n, traces[i],
                            [k - (k > i) for k in keep if k != i]))
    for (values, shifts, i, d, n, base, sites), sol in zip(
            pending, conic._solved_batch(programs, names)):
        # site i's dual objective is -y at its trace row
        y = sol.y
        values[i] = 2.0 * max(float(y[0]), 0.0)
        k = smat(y[1:], d ** len(sites))
        shifts[i] = base + _lift(k, d, n - 1, sites)
    return [LipschitzResult(value=max(values), site_values=values, shifts=shifts)
            for values, shifts in out]


def lipschitz_constant(h: HermitianOperator) -> LipschitzResult:
    """Exact ||H||_L: lipschitz_constants of the one operator h, its n site
    programs going to one _solved_batch call, which may split them."""
    return lipschitz_constants([h])[0]


def lipschitz_estimate(h: HermitianOperator) -> tuple:
    """Optimization-free sandwich around ||H||_L from the one-site pinching.

    lower = d^2/(d^2-1) * max_i ||H'_i||_inf, upper = 2 * the same max, with
    H'_i = H - E_i(H) the site parts of _site_parts, for any n >= 1; the
    ratio is exactly 2(d^2-1)/d^2.
    """
    d = h.d
    worst = max(operator_norm(part) for part in _site_parts(h)[1])
    return (d * d / (d * d - 1.0) * worst, 2.0 * worst)


def is_neighboring(rho, sigma):
    """Smallest site whose removal makes the states agree, or None."""
    if rho.layout != sigma.layout:
        raise LayoutMismatch(f"{rho.layout} vs {sigma.layout}")
    pair = np.stack([rho.matrix, sigma.matrix])
    for i in range(rho.n):
        # at n = 1 the marginals are the traces, which match for states
        a, b = _trace_out(pair, rho.d, rho.n, [j for j in range(rho.n) if j != i])
        if trace_norm(a - b) <= NEIGHBOR_TOL:
            return i + 1
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
