"""Transport norm: primal/dual agreement, certificates, Lipschitz machinery."""

import functools
import operator
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from qw1 import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    embed_operator,
    haar_unitary,
    is_neighboring,
    lipschitz_constant,
    lipschitz_constants,
    lipschitz_estimate,
    local_hamiltonian_lipschitz_bound,
    maximally_entangled,
    maximally_mixed,
    random_density,
    random_traceless,
    tensor_product,
    trace_norm,
    w1_distance,
    w1_dual,
    w1_primal,
    w1_primals,
)
from qw1 import conic
from qw1.channels import amplitude_damping, diamond_norm
from qw1.classical import Distribution, classical_w1, classical_w1_dual, diagonal_state
from qw1.errors import LayoutMismatch, NotTraceless, SolverFailure, SupportMismatch
from qw1.operators import (
    embed_matrix,
    load_operator,
    operator_norm,
    partial_trace,
    permute_sites,
    replace_with_maximally_mixed,
)
from qw1 import w1
from qw1.w1 import _layout_data, _w1_program, hermitian_basis

SZ = np.diag([1.0, -1.0]).astype(complex)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _qubits(n):
    return QuditLayout(2, n)


def test_basis_pair_hamming_distance():
    lay = _qubits(2)
    r = basis_state(lay, [0, 0])
    s = basis_state(lay, [1, 1])
    cert = w1_distance(r, s, method="both")
    assert abs(cert.primal - 2.0) < 1e-7
    assert abs(cert.dual - 2.0) < 1e-7
    assert cert.gap < 1e-7


def test_entangled_pair_against_mixed():
    lay = _qubits(2)
    gamma = maximally_entangled(2)
    mixed = maximally_mixed(lay)
    assert abs(trace_norm(gamma.matrix - mixed.matrix) - 1.5) < 1e-12
    for method in ("primal", "dual"):
        cert = w1_distance(gamma, mixed, method=method)
        assert abs(cert.value - 0.75) < 1e-7


def test_single_site_collapses_to_trace_distance():
    lay = _qubits(1)
    r = basis_state(lay, [0])
    s = basis_state(lay, [1])
    cert = w1_distance(r, s, method="both")
    assert abs(cert.value - 1.0) < 1e-8
    # the optimal witness pairs to the same value
    pairing = np.trace(cert.witness.matrix @ (r.matrix - s.matrix)).real
    assert abs(pairing - 1.0) < 1e-7


def test_duality_and_certificates_on_random_instances():
    for k, (d, n) in enumerate([(2, 1), (2, 2), (3, 1), (2, 3)]):
        lay = QuditLayout(d, n)
        x = random_traceless(lay, seed=100 + k)
        cp = w1_primal(x)
        cd = w1_dual(x)
        assert abs(cp.value - cd.value) <= 1e-6 * (1.0 + cp.value)
        res = cp.residuals(x)
        assert res["sum"] < 1e-7
        assert res["marginal"] < 1e-7
        assert res["primal_match"] < 1e-7
        res_d = cd.residuals(x)
        assert res_d["witness_pairing"] < 1e-7
        # dual witnesses are feasible: Lipschitz constant at most one
        assert lipschitz_constant(cd.witness).value <= 1.0 + 1e-6


def _telescoping_reference(x):
    """The starting decomposition as written before its chain became one-site
    traces of the previous link: each marginal traced from X, and each
    Kronecker product formed twice."""
    d, n, m = x.d, x.n, x.matrix
    chain = [np.zeros((1, 1), dtype=complex)]
    for i in range(1, n + 1):
        chain.append(m if i == n else partial_trace(x, list(range(i + 1, n + 1))).matrix)
    out = []
    for i in range(1, n + 1):
        hi = np.kron(chain[i], np.eye(d ** (n - i)) / d ** (n - i))
        lo = np.kron(chain[i - 1], np.eye(d ** (n - i + 1)) / d ** (n - i + 1))
        out.append(hi - lo)
    return out


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_telescoping_hint_is_the_reference_bit_for_bit(d, n):
    x = random_traceless(QuditLayout(d, n), seed=7 * d + n)
    got = w1._telescoping_hint(x)
    assert len(got) == n
    for g, ref in zip(got, _telescoping_reference(x)):
        assert np.array_equal(g, ref)


def test_residuals_at_one_site_report_the_floored_trace():
    lay = _qubits(1)
    x = HermitianOperator(lay, np.diag([0.5, -0.5]).astype(complex))
    cert = w1_primal(x)
    assert cert.residuals(x)["marginal"] <= 1e-9
    # the marginal of the one piece is its trace, floored like every trace norm
    for trace, marginal in ((3e-13, 0.0), (2e-9, 2e-9), (-2e-9, 2e-9)):
        piece = HermitianOperator(lay, x.matrix + trace / 2 * np.eye(2))
        cert.decomposition = [piece]
        assert cert.residuals(x)["marginal"] == pytest.approx(marginal, rel=1e-6, abs=0.0)


# --- the bracket of method "both" -------------------------------------------

def _closed_form_pairs():
    """pytest params (rho, sigma, exact W1) for pairs whose distance is known
    without an SDP."""
    out = []
    for d, a, b, want in [(2, [0, 0], [1, 1], 2.0), (2, [0, 1], [0, 0], 1.0),
                          (3, [0, 1], [2, 1], 1.0), (3, [0, 0], [1, 2], 2.0)]:
        lay = QuditLayout(d, len(a))
        out.append(pytest.param(basis_state(lay, a), basis_state(lay, b), want,
                                id=f"basis {d} {a} {b}"))
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        one = QuditLayout(d, 1)
        rs = [random_density(one, seed=300 + 10 * n + i) for i in range(n)]
        ss = [random_density(one, seed=400 + 10 * n + i) for i in range(n)]
        want = sum(trace_norm(r.matrix - s.matrix) for r, s in zip(rs, ss)) / 2.0
        out.append(pytest.param(functools.reduce(tensor_product, rs),
                                functools.reduce(tensor_product, ss), want,
                                id=f"product ({d},{n})"))
    for d in (2, 4):
        gamma = maximally_entangled(d)
        out.append(pytest.param(gamma, maximally_mixed(gamma.layout), (d * d - 1.0) / (d * d),
                                id=f"entangled d={d}"))
    return out


@pytest.mark.parametrize("rho,sigma,want", _closed_form_pairs())
def test_both_brackets_the_closed_form(rho, sigma, want):
    cert = w1_distance(rho, sigma, method="both")
    slack = 1e-12 * (1.0 + want)
    assert cert.dual - slack <= want <= cert.primal + slack
    assert cert.value == cert.primal
    assert cert.gap == cert.primal - cert.dual >= 0.0
    assert cert.gap <= 1e-7 * (1.0 + cert.value)
    x = HermitianOperator(rho.layout, rho.matrix - sigma.matrix)
    assert abs(cert.value - w1_dual(x).value) <= 1e-6


def test_both_bracket_meets_the_classical_transport_bracket():
    # on diagonal states W1 is the Hamming transport cost, which the LPs of
    # classical_w1 and classical_w1_dual bracket only to their own solver
    # tolerance (classical_w1 reads 4e-10 above the exact optimum here), so
    # both brackets must hold the value: they overlap
    rng = np.random.default_rng(7)
    lay = QuditLayout(2, 3)
    p, q = (Distribution(lay, rng.dirichlet(np.ones(lay.dim))) for _ in range(2))
    cert = w1_distance(diagonal_state(p), diagonal_state(q), method="both")
    upper, _ = classical_w1(p, q)
    lower, _ = classical_w1_dual(p, q)
    slack = 1e-12 * (1.0 + upper)
    assert cert.dual <= upper + slack and lower <= cert.primal + slack
    assert cert.gap <= 1e-7 * (1.0 + cert.value)


@pytest.mark.parametrize("k,d,n", [(0, 2, 1), (1, 3, 1), (2, 2, 2), (3, 3, 2), (4, 2, 3)])
def test_both_certificate_is_feasible_as_reported(k, d, n):
    lay = QuditLayout(d, n)
    rho, sigma = random_density(lay, seed=500 + k), random_density(lay, seed=600 + k)
    cert = w1_distance(rho, sigma, method="both")
    x = rho.matrix - sigma.matrix
    x = x - np.trace(x) / lay.dim * np.eye(lay.dim)
    pieces = [xi.matrix for xi in cert.decomposition]
    for i, xi in zip(lay.sites(), cert.decomposition):
        marg = abs(xi.trace()) if n == 1 else np.abs(partial_trace(xi, i).matrix).max()
        assert marg <= 1e-13
    assert np.abs(sum(pieces) - x).max() <= 1e-13
    half = sum(np.abs(np.linalg.eigvalsh(p)).sum() for p in pieces) / 2.0
    assert abs(half - cert.primal) <= 1e-12
    h = cert.witness.matrix
    assert abs(np.trace(h @ x).real - cert.dual) <= 1e-12
    assert abs(np.trace(h)) <= 1e-12
    assert len(cert.shifts) == n
    lip = 2.0 * max(
        operator_norm(h - embed_matrix(k, lay, [j for j in lay.sites() if j != i]))
        for i, k in zip(lay.sites(), cert.shifts))
    assert lip <= 1.0 + 1e-12
    assert cert.dual <= cert.primal <= cert.dual + 1e-7 * (1.0 + cert.primal)


def test_both_of_equal_states_is_zero():
    mixed = load_operator(str(FIXTURES / "mixed_2q.json"), as_state=True)
    cert = w1_distance(mixed, mixed, method="both")
    assert (cert.primal, cert.dual, cert.gap, cert.value) == (0.0, 0.0, 0.0, 0.0)
    assert not np.any(cert.witness.matrix)
    assert all(np.isfinite(k).all() for k in cert.shifts)


def test_both_makes_one_solve(monkeypatch):
    calls = []
    solve = conic.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting)
    # a pair that no structured route takes: one solve of the whole program
    lay = _qubits(2)
    cert = w1_distance(random_density(lay, seed=1), random_density(lay, seed=2), method="both")
    assert len(calls) == 1 and cert.route == "program"
    # the Bell pair against I/4 is neighbouring (its marginals are I/2): none
    gamma = maximally_entangled(2)
    cert = w1_distance(gamma, maximally_mixed(gamma.layout), method="both")
    assert len(calls) == 1 and cert.route == "neighbouring"
    assert cert.dual <= 0.75 + 1e-12 and 0.75 <= cert.primal + 1e-12


# --- the structured routes of method "both" ---------------------------------

def _neighbouring_pair(d, n, seed):
    """A random state and its image under a Haar unitary on one random site:
    their marginals off that site agree."""
    rng = np.random.default_rng(seed)
    lay = QuditLayout(d, n)
    rho = random_density(lay, seed=rng)
    u = embed_matrix(haar_unitary(d, seed=rng), lay, [int(rng.integers(1, n + 1))])
    return rho, DensityMatrix(lay, u @ rho.matrix @ u.conj().T)


def _product_pair(d, sizes, seed):
    """Two products of random states on blocks of the given sizes, with the
    sites shuffled by one random permutation."""
    rng = np.random.default_rng(seed)
    perm = [int(j) + 1 for j in rng.permutation(sum(sizes))]
    return tuple(permute_sites(functools.reduce(tensor_product, [
        random_density(QuditLayout(d, k), seed=rng) for k in sizes]), perm) for _ in range(2))


def _diagonal_pair(d, n, seed):
    rng = np.random.default_rng(seed)
    lay = QuditLayout(d, n)
    return tuple(diagonal_state(Distribution(lay, rng.dirichlet(np.ones(lay.dim))))
                 for _ in range(2))


def _route_cases():
    """pytest params (route, rho, sigma, whether a W1 program runs)."""
    for k, (d, n) in enumerate([(2, 2), (2, 3), (2, 4), (3, 2)]):
        yield pytest.param("neighbouring", *_neighbouring_pair(d, n, 900 + k), False,
                           id=f"neighbouring ({d},{n})")
        # blocks of two sites are random pairs, which take their programs
        sizes = {2: (1, 1), 3: (1, 2), 4: (2, 2)}[n]
        yield pytest.param("product", *_product_pair(d, sizes, 910 + k), max(sizes) > 1,
                           id=f"product ({d},{n})")
        yield pytest.param("diagonal", *_diagonal_pair(d, n, 920 + k), False,
                           id=f"diagonal ({d},{n})")
    # a product whose two-site factor is diagonal and takes the transport LP
    one = QuditLayout(2, 1)
    pairs = zip(_diagonal_pair(2, 2, 930), (random_density(one, seed=931 + j) for j in range(2)))
    yield pytest.param("product", *(permute_sites(tensor_product(a, b), [2, 3, 1])
                                    for a, b in pairs), False,
                       id="product of a diagonal and a one-site pair (2,3)")


def _assert_feasible(cert, rho, sigma):
    """The certificate's identities, and every shift attaining 1/2."""
    lay = rho.layout
    res = cert.residuals(w1._state_difference(rho, sigma))
    assert res["sum"] <= 1e-9 and res["marginal"] <= 1e-9
    assert cert.dual <= cert.primal == cert.value
    h = cert.witness.matrix
    for i, k in zip(lay.sites(), cert.shifts):
        rest = [j for j in lay.sites() if j != i]
        assert operator_norm(h - embed_matrix(k, lay, rest)) <= 0.5 + 1e-12


@pytest.mark.parametrize("route,rho,sigma,programs", list(_route_cases()))
def test_each_route_meets_the_program(route, rho, sigma, programs):
    cert = w1_distance(rho, sigma, method="both")
    assert cert.route == route
    want = w1_distance(rho, sigma, method="primal").value
    assert abs(cert.value - want) <= 1e-7 * (1.0 + want)
    assert cert.gap <= conic.GAP_TOL * (1.0 + cert.value)
    _assert_feasible(cert, rho, sigma)
    assert (cert.iterations > 0) == programs


def test_a_product_counts_the_largest_iterations_of_its_factor_solves(monkeypatch):
    one = QuditLayout(2, 2)
    pairs = [(random_density(one, seed=930 + k), random_density(one, seed=940 + k))
             for k in range(2)]
    rho, sigma = (tensor_product(a, b) for a, b in zip(*pairs))
    solves = []
    solve = conic.solve
    monkeypatch.setattr(conic, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    cert = w1_distance(rho, sigma, method="both")
    # both factor programs go to one batch, which the solver takes in one solve
    assert cert.route == "product" and len(solves) == 1
    assert cert.iterations == max(w1_distance(r, s, method="both").iterations for r, s in pairs)


@pytest.mark.parametrize("d,n,lone,route", [(2, 4, None, "product"),
                                            (3, 3, "mixed", "neighbouring"),
                                            (3, 3, "random", "product")])
def test_entangled_pairs_on_random_sites(d, n, lone, route):
    # maximally entangled pairs on shuffled sites against I/d^n; at (3,3) one
    # pair and a lone site.  With the lone site maximally mixed, removing a
    # site of the pair leaves I/d^2 on both sides, so the pair is
    # neighbouring before it is a product
    rng = np.random.default_rng(950 + n)
    lay, one = QuditLayout(d, n), QuditLayout(d, 1)
    factors = [maximally_entangled(d)] * (n // 2)
    want = n // 2 * (d * d - 1.0) / (d * d)
    if lone == "mixed":
        factors.append(maximally_mixed(one))
    elif lone == "random":
        tau = random_density(one, seed=rng)
        factors.append(tau)
        want += trace_norm(tau.matrix - np.eye(d) / d) / 2.0
    perm = [int(j) + 1 for j in rng.permutation(n)]
    rho, sigma = permute_sites(functools.reduce(tensor_product, factors), perm), maximally_mixed(lay)
    cert = w1_distance(rho, sigma, method="both")
    assert cert.route == route and cert.iterations == 0
    assert cert.dual - 1e-12 <= want <= cert.primal + 1e-12
    assert cert.gap <= 1e-12
    _assert_feasible(cert, rho, sigma)


@pytest.mark.parametrize("kind", ["product", "diagonal"])
def test_a_perturbed_structured_pair_takes_the_program(kind):
    rho, sigma = _product_pair(2, (1, 2), 960) if kind == "product" else _diagonal_pair(2, 3, 960)
    assert w1_distance(rho, sigma, method="both").route == kind
    e = random_traceless(rho.layout, seed=961).matrix
    m = rho.matrix + 1e-6 * e / operator_norm(e)
    rho = DensityMatrix(rho.layout, m / np.trace(m).real)
    cert = w1_distance(rho, sigma, method="both")
    assert cert.route == "program" and cert.iterations > 0
    want = w1_distance(rho, sigma, method="primal").value
    assert abs(cert.value - want) <= 1e-7 * (1.0 + want)


def test_every_one_site_pair_is_neighbouring(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a one-site pair reached the solver")

    monkeypatch.setattr(conic, "solve", no_solve)
    for d in (2, 3, 4):
        one = QuditLayout(d, 1)
        pairs = [(random_density(one, seed=970 + d), random_density(one, seed=980 + d)),
                 (basis_state(one, [0]), basis_state(one, [d - 1])),
                 (maximally_mixed(one), random_density(one, rank=1, seed=990 + d))]
        for rho, sigma in pairs:
            cert = w1_distance(rho, sigma, method="both")
            want = trace_norm(rho.matrix - sigma.matrix) / 2.0
            assert cert.route == "neighbouring" and cert.iterations == 0
            assert cert.dual - 1e-12 <= want <= cert.primal + 1e-12
            _assert_feasible(cert, rho, sigma)


def test_routes_rerun_to_the_same_bits():
    for rho, sigma in [_neighbouring_pair(2, 3, 1), _product_pair(2, (2, 2), 2),
                       _diagonal_pair(3, 2, 3)]:
        a, b = (w1_distance(rho, sigma, method="both") for _ in range(2))
        assert a.route == b.route != "program"
        assert (a.value, a.primal, a.dual, a.gap) == (b.value, b.primal, b.dual, b.gap)
        for p, q in zip(a.decomposition + [a.witness], b.decomposition + [b.witness]):
            assert p.matrix.tobytes() == q.matrix.tobytes()
        assert all(p.tobytes() == q.tobytes() for p, q in zip(a.shifts, b.shifts))


def _bracket_reference(x, sol, first_full):
    """The bracket of one solve as _bracket computed it before its repair
    became a function that the structured routes share."""
    layout, d, n = x.layout, x.d, x.n
    cert = w1._certificate(x, sol, first_full, sol.primal_objective)
    pieces = [xi.matrix - replace_with_maximally_mixed(xi, i).matrix
              for i, xi in zip(layout.sites(), cert.decomposition)]
    rest = HermitianOperator(layout, x.matrix - sum(pieces))
    decomposition = [HermitianOperator(layout, p + t)
                     for p, t in zip(pieces, w1._telescoping_hint(rest))]
    primal = sum(float(np.abs(np.linalg.eigvalsh(xi.matrix)).sum())
                 for xi in decomposition) / 2.0
    h = cert.witness.matrix
    ks = [conic.smat(yi, d ** (n - 1)) for yi in sol.y[:first_full].reshape(n, -1)]
    spans = [np.linalg.eigvalsh(
        h + w1._lift(k, d, n, [j for j in range(n) if j != i]))[[0, -1]]
        for i, k in enumerate(ks)]
    t = max(hi - lo for lo, hi in spans)
    scale = 1.0 / t if t > 0 else 0.0
    witness = HermitianOperator(layout, h * scale)
    dual = min(float(np.trace(witness.matrix @ x.matrix).real), primal)
    return w1.W1Certificate(
        value=primal, decomposition=decomposition, witness=witness,
        primal=primal, dual=dual, gap=primal - dual, iterations=sol.iterations,
        shifts=[((lo + hi) / 2.0 * np.eye(d ** (n - 1)) - k) * scale
                for (lo, hi), k in zip(spans, ks)],
    )


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_random_pairs_keep_the_bracket_of_one_solve_bit_for_bit(d, n):
    lay = QuditLayout(d, n)
    rho, sigma = random_density(lay, seed=1000 + d), random_density(lay, seed=1010 + n)
    cert = w1_distance(rho, sigma, method="both")
    assert cert.route == "program"
    x = w1._state_difference(rho, sigma)
    problem, first_full = _w1_program(x)
    x0 = np.concatenate([conic.svec(part) for xi in w1._telescoping_hint(x)
                         for part in w1._positive_parts(xi)])
    (sol,) = conic._solved_batch([problem], ["W1 primal SDP"], [x0])
    want = _bracket_reference(x, sol, first_full)
    assert (cert.value, cert.primal, cert.dual, cert.gap, cert.iterations) == (
        want.value, want.primal, want.dual, want.gap, want.iterations)
    for p, q in zip(cert.decomposition + [cert.witness], want.decomposition + [want.witness]):
        assert p.matrix.tobytes() == q.matrix.tobytes()
    assert all(p.tobytes() == q.tobytes() for p, q in zip(cert.shifts, want.shifts))


def test_not_traceless_rejected():
    lay = _qubits(1)
    with pytest.raises(NotTraceless):
        w1_primal(HermitianOperator(lay, np.eye(2)))


def test_layout_mismatch_rejected():
    r = basis_state(_qubits(1), [0])
    s = basis_state(_qubits(2), [0, 0])
    with pytest.raises(LayoutMismatch):
        w1_distance(r, s)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
def test_one_qubit_closed_form(a, b, c):
    r = (a * a + b * b + c * c) ** 0.5
    if r < 1e-3:
        return
    m = np.array([[c, a - 1j * b], [a + 1j * b, -c]])
    cert = w1_primal(HermitianOperator(_qubits(1), m))
    assert abs(cert.value - r) < 1e-6 * (1 + r)


# --- Lipschitz constant ----------------------------------------------------

def test_lipschitz_of_identity_multiple_is_zero():
    lay = _qubits(2)
    h = HermitianOperator(lay, 3.7 * np.eye(4))
    assert lipschitz_constant(h).value < 1e-7
    lo, hi = lipschitz_estimate(h)
    assert lo < 1e-12 and hi < 1e-12


def test_lipschitz_single_site_z():
    lay = _qubits(1)
    res = lipschitz_constant(HermitianOperator(lay, SZ))
    assert abs(res.value - 2.0) < 1e-7
    assert len(res.site_values) == 1


def test_lipschitz_z_sum_two_sites():
    lay = _qubits(2)
    h = functools.reduce(
        operator.add,
        (embed_operator(HermitianOperator(_qubits(1), SZ), lay, [i]) for i in (1, 2)),
    )
    res = lipschitz_constant(h)
    assert abs(res.value - 2.0) < 1e-6
    assert max(abs(v - 2.0) for v in res.site_values) < 1e-6


def test_lipschitz_hamming_weight_observable():
    lay = _qubits(3)
    w = np.diag([bin(k).count("1") for k in range(8)]).astype(complex)
    res = lipschitz_constant(HermitianOperator(lay, w))
    assert abs(res.value - 1.0) < 1e-6


def test_lipschitz_estimate_brackets_exact():
    for k, (d, n) in enumerate([(2, 2), (2, 3), (3, 2)]):
        lay = QuditLayout(d, n)
        h = random_traceless(lay, seed=200 + k)
        lo, hi = lipschitz_estimate(h)
        exact = lipschitz_constant(h).value
        assert lo <= exact + 1e-7
        assert exact <= hi + 1e-7
        assert abs(hi / lo - 2.0 * (d * d - 1.0) / (d * d)) < 1e-9



def _dense_site_rows(d, n):
    """Per site i the rows svec(I_i (x) f) for f in hermitian_basis(d^(n-1)),
    as a dense stack."""
    lay = QuditLayout(d, n)
    return [np.stack([conic.svec(embed_matrix(f, lay, [j for j in lay.sites() if j != i]))
                      for f in hermitian_basis(d ** (n - 1))]) for i in lay.sites()]


def _site_value_reference(h, i):
    """Site i's value from the single-site program alone, built as the
    Lipschitz constant was once built one site at a time."""
    D = h.layout.dim
    site = _dense_site_rows(h.d, h.n)
    L = D * D
    nc = site[i].shape[0]
    eh = conic.svec(h.matrix)
    id_sv = conic.svec(np.eye(D))
    A = np.zeros((1 + nc, 2 * L))
    A[0] = np.concatenate([-id_sv, -id_sv])
    A[1:, :L] = -site[i]
    A[1:, L:] = site[i]
    b = np.zeros(1 + nc)
    b[0] = -1.0
    problem = conic.ConicProblem((D, D), 0, A, b, np.concatenate([-eh, eh]))
    (sol,) = conic._solved_batch([problem], [f"reference site {i + 1}"])
    return 2.0 * max(-sol.dual_objective, 0.0)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_lipschitz_joint_program_matches_site_programs(d, n):
    lay = QuditLayout(d, n)
    for seed in range(4):
        h = random_traceless(lay, seed=300 + seed)
        res = lipschitz_constant(h)
        assert len(res.site_values) == len(res.shifts) == n
        assert res.value == max(res.site_values)
        for i, (value, shift) in enumerate(zip(res.site_values, res.shifts)):
            ref = _site_value_reference(h, i)
            assert abs(value - ref) <= 1e-8 * ref
            # the optimal shift is not unique; check that it attains the value
            rest = [j for j in lay.sites() if j != i + 1]
            attained = 2.0 * operator_norm(h.matrix - embed_matrix(shift, lay, rest))
            assert abs(attained - value) <= 1e-7 * (1.0 + value)


@pytest.mark.parametrize("d", [2, 3])
def test_lipschitz_one_site_closed_form(d):
    lay = QuditLayout(d, 1)
    for seed in range(5):
        h = random_traceless(lay, seed=400 + seed)
        # the closed form of a site whose part acts on it alone, read at
        # n = 1 from the part H - Tr(H)/d I
        lam = np.linalg.eigvalsh(h.matrix - np.trace(h.matrix) / d * np.eye(d))
        res = lipschitz_constant(h)
        assert res.value == res.site_values[0] == lam[-1] - lam[0]
        assert res.shifts[0].shape == (1, 1)
        shifted = h.matrix - res.shifts[0][0, 0] * np.eye(d)
        assert abs(2.0 * operator_norm(shifted) - res.value) <= 1e-12 * (1.0 + res.value)


def test_lipschitz_constants_batch_matches_single_solves(monkeypatch):
    # three operators per layout, interleaved: the (2,2) and (2,3) site
    # programs are the parts of one stack, five classes of three identical
    # site programs each
    hs = [random_traceless(QuditLayout(2, n), seed=500 + 10 * n + k)
          for k in range(3) for n in (1, 2, 3)]
    solo = [lipschitz_constant(h) for h in hs]
    problems = []
    solve = conic.solve

    def spy(problem, *args, **kwargs):
        problems.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(conic, "solve", spy)
    batch = lipschitz_constants(hs)
    assert len(problems) == 1
    assert problems[0].psd_blocks == tuple(
        D for h in hs if h.n > 1 for D in [h.layout.dim] * (2 * h.n))
    assert len(problems[0].parts) == sum(h.n for h in hs if h.n > 1)
    for h, one, res in zip(hs, solo, batch):
        assert len(res.site_values) == len(res.shifts) == h.n
        assert res.value == max(res.site_values)
        assert res.value == one.value and res.site_values == one.site_values
        for a, b in zip(res.shifts, one.shifts):
            assert a.tobytes() == b.tobytes()
    assert lipschitz_constants([]) == []


def test_lipschitz_failure_names_operator_and_site(monkeypatch):
    # each site program is one part of the stack, named by operator and site
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    hs = [random_traceless(QuditLayout(2, n), seed=700 + n) for n in (2, 3)]
    with pytest.raises(SolverFailure, match=r"^Lipschitz SDP of operator 1 at site 1 "
                                            r"ended with MaxIterations after 1 iterations"):
        lipschitz_constants(hs)
    with pytest.raises(SolverFailure, match=r"^Lipschitz SDP at site 1 ended with "
                                            r"MaxIterations after 1 iterations"):
        lipschitz_constant(hs[1])


def test_single_program_failures_name_the_program(monkeypatch):
    # w1_primal, w1_dual and diamond_norm solve one program, named alone
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    x = random_traceless(QuditLayout(2, 2), seed=5)
    for side, name in ((w1_dual, "W1 dual SDP"), (w1_primal, "W1 primal SDP")):
        with pytest.raises(SolverFailure, match=rf"^{name} ended with MaxIterations "
                                                r"after 1 iterations$"):
            side(x)
    with pytest.raises(SolverFailure, match=r"^diamond norm SDP ended with MaxIterations "
                                            r"after 1 iterations$"):
        diamond_norm(amplitude_damping(0.1), amplitude_damping(0.3))


def test_w1_primals_of_mixed_layouts_match_single_solves(monkeypatch):
    layouts = [(2, 1), (2, 2), (3, 1), (2, 3), (2, 2), (2, 3)]
    xs = [random_traceless(QuditLayout(d, n), seed=700 + k)
          for k, (d, n) in enumerate(layouts)]
    hints = []
    solve = conic.solve

    def spy(problem, *args, **kwargs):
        hints.append(kwargs["x0"])
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(conic, "solve", spy)
    solo = [w1_primal(x) for x in xs]
    batch = w1_primals(xs)
    # one solve, started from every member's own telescoping decomposition
    assert len(hints) == len(xs) + 1
    assert hints[-1].tobytes() == np.concatenate(hints[:-1]).tobytes()
    for x, one, cert in zip(xs, solo, batch):
        assert cert.value == one.value and cert.dual == one.dual
        assert len(cert.decomposition) == x.n
        assert cert.witness.layout == x.layout
        res = cert.residuals(x)
        assert res["sum"] < 1e-7 and res["marginal"] < 1e-7
        assert res["gap"] <= 1e-8 * (1.0 + abs(cert.primal) + abs(cert.dual))
        assert cert.iterations == one.iterations
    assert w1_primals([]) == []


def test_w1_primals_split_a_large_layout_batch_into_several_solves(monkeypatch):
    xs = [random_traceless(QuditLayout(2, 4), seed=900 + k) for k in range(3)]
    xs.append(random_traceless(QuditLayout(2, 2), seed=903))
    shapes = [_w1_program(x)[0].A.shape for x in xs]
    # 511 rows and 2048 variables at (2, 4): one program fits a run, two do not
    assert shapes[0] == (511, 2048)
    assert conic._batch_chunks(shapes) == [[0], [1], [2, 3]]
    # a (2, 5) program alone exceeds the run's memory and is solved by itself
    big = _w1_program(random_traceless(QuditLayout(2, 5), seed=904))[0].A.shape
    assert conic._batch_chunks([big, big, shapes[3]]) == [[0], [1], [2]]
    solo = [w1_primal(x) for x in xs]
    rows = []
    solve = conic.solve

    def spy(problem, *args, **kwargs):
        rows.append(problem.A.shape[0])
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(conic, "solve", spy)
    batch = w1_primals(xs)
    assert rows == [511, 511, 511 + 23]
    for one, cert in zip(solo, batch):
        assert cert.value == one.value and cert.dual == one.dual


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2)])
def test_layout_data_matches_the_dense_constructions(d, n):
    """The W1 matrix and each site's Lipschitz matrix hold, entry for entry,
    what the programs once built dense from the same site rows, as CSR with
    no stored zeros."""
    site = _dense_site_rows(d, n)
    D = d ** n
    L, nc = D * D, site[0].shape[0]
    full = np.eye(L)[1:]
    w1 = np.zeros((n * nc + L - 1, 2 * n * L))
    for i in range(n):
        P, Q = slice(2 * i * L, (2 * i + 1) * L), slice((2 * i + 1) * L, (2 * i + 2) * L)
        w1[i * nc:(i + 1) * nc, P] = site[i]
        w1[i * nc:(i + 1) * nc, Q] = -site[i]
        w1[n * nc:, P] = full
        w1[n * nc:, Q] = -full
    id_sv = conic.svec(np.eye(D))
    lipschitz = [np.block([[-id_sv, -id_sv], [-rows, rows]]) for rows in site]
    got = _layout_data(d, n)
    assert len(got[1]) == n
    for A, want in zip([got[0]] + got[1], [w1] + lipschitz):
        assert A.format == "csr" and A.has_sorted_indices
        assert A.shape == want.shape and A.nnz == np.count_nonzero(want)
        assert np.array_equal(A.toarray(), want)
    # a site row has d nonzeros on each of its two blocks
    assert np.all(np.diff(got[0].indptr)[:n * nc] == 2 * d)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2),
                                 (5, 2)])
def test_layout_data_site_rows_match_one_embedding_per_basis_element(d, n):
    """The batched site rows are those of embed_matrix and svec applied to
    one basis element at a time, bit for bit, so no solve moves."""
    lay = QuditLayout(d, n)
    comp = hermitian_basis(d ** (n - 1))
    site = [scipy.sparse.csr_matrix(np.stack(
        [conic.svec(embed_matrix(f, lay, [j for j in lay.sites() if j != i])) for f in comp]))
        for i in lay.sites()]
    full = scipy.sparse.identity(lay.dim ** 2, format="csr")[1:]
    trace = scipy.sparse.csr_matrix(-conic.svec(np.eye(lay.dim)))
    want = [scipy.sparse.vstack(
        [scipy.sparse.block_diag([scipy.sparse.hstack([rows, -rows]) for rows in site]),
         scipy.sparse.hstack([full, -full] * n)], format="csr")]
    want += [scipy.sparse.bmat([[trace, trace], [-rows, rows]], format="csr") for rows in site]
    got = _layout_data(d, n)
    for A, B in zip([got[0]] + got[1], want):
        for part in ("indptr", "indices", "data"):
            assert getattr(A, part).tobytes() == getattr(B, part).tobytes()


# --- Lipschitz site programs on the sites a site's part acts on ------------

def _local_operator(d, n, width, seed, far=None):
    """A random nearest-neighbour operator of terms on sites i..i+width-1,
    plus, with far, a random term on the pair of sites far (1-based)."""
    rng = np.random.default_rng(seed)
    lay = QuditLayout(d, n)

    def term(k):
        g = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
        return (g + g.conj().T) / 2.0

    m = sum(embed_matrix(term(width), lay, list(range(i, i + width)))
            for i in range(1, n - width + 2))
    if far is not None:
        m = m + embed_matrix(term(2), lay, list(far))
    return HermitianOperator(lay, m)


def _attained(h, i, shift):
    """2 ||H - I_i (x) K||_inf for the shift K of the 0-based site i."""
    rest = [j for j in h.layout.sites() if j != i + 1]
    return 2.0 * operator_norm(h.matrix - embed_matrix(shift, h.layout, rest))


def _local_operators():
    for d, n in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        for width in range(1, min(n, 3) + 1):
            yield (d, n, width, None)
        if n > 2:
            yield (d, n, 2, (1, n))


@pytest.mark.parametrize("d,n,width,far", list(_local_operators()))
def test_reduced_site_values_match_the_unreduced_programs(d, n, width, far):
    h = _local_operator(d, n, width, seed=10 * d + n + width, far=far)
    res = lipschitz_constant(h)
    assert len(res.site_values) == len(res.shifts) == n
    assert res.value == max(res.site_values)
    for i, (value, shift) in enumerate(zip(res.site_values, res.shifts)):
        ref = _site_value_reference(h, i)
        assert abs(value - ref) <= 1e-8 * ref
        assert shift.shape == (d ** (n - 1),) * 2
        assert abs(_attained(h, i, shift) - value) <= 1e-7 * (1.0 + value)


def test_dense_operators_solve_the_programs_of_their_parts_bit_for_bit():
    # every part of a dense operator acts on every site, so each site solves
    # the program of its part H'_i on the whole layout, shifted back by
    # Tr_i(H)/d
    hs = [random_traceless(QuditLayout(d, n), seed=800 + k)
          for k, (d, n) in enumerate([(2, 2), (2, 3), (3, 2), (2, 3)])]
    split = [w1._site_parts(h) for h in hs]
    assert all(keep == list(range(h.n)) for h, (_, _, supports) in zip(hs, split)
               for keep in supports)
    programs = [w1._lipschitz_program(part, h.d, h.n, i)
                for h, (_, parts, _) in zip(hs, split) for i, part in enumerate(parts)]
    sols = iter(conic._solved_batch(programs, [str(k) for k in range(len(programs))]))
    for h, (traces, _, _), res in zip(hs, split, lipschitz_constants(hs)):
        for trace, value, shift in zip(traces, res.site_values, res.shifts):
            y = next(sols).y
            assert value == 2.0 * max(float(y[0]), 0.0)
            want = trace + conic.smat(y[1:], h.d ** (h.n - 1))
            assert shift.tobytes() == want.tobytes()
    # the sandwich reads the same parts: max_i ||H - E_i(H)||_inf, with E_i
    # the per-site replacement by the maximally mixed state
    for h in hs + [random_traceless(QuditLayout(d, 1), seed=820 + d) for d in (2, 3)]:
        worst = max(operator_norm(h.matrix - replace_with_maximally_mixed(h, i).matrix)
                    for i in h.layout.sites())
        d2 = h.d * h.d
        assert lipschitz_estimate(h) == (d2 / (d2 - 1.0) * worst, 2.0 * worst)


def test_a_small_far_term_is_kept_and_a_rounding_one_dropped():
    lay = _qubits(5)
    chain = _local_operator(2, 5, 2, seed=3).matrix
    zz = embed_matrix(np.kron(SZ, SZ), lay, [1, 5])
    for eps, first in ((1e-6, [0, 1, 4]), (1e-15, [0, 1])):
        _, _, supports = w1._site_parts(HermitianOperator(lay, chain + eps * zz))
        assert supports[0] == first
        assert supports[2] == [1, 2, 3]
        assert supports[4] == ([0, 3, 4] if eps > 1e-12 else [3, 4])


def test_one_site_sums_take_the_closed_form(monkeypatch):
    lay = _qubits(5)
    h = functools.reduce(operator.add, (embed_operator(HermitianOperator(_qubits(1), SZ),
                                                       lay, [i]) for i in lay.sites()))

    def no_solve(*args, **kwargs):
        raise AssertionError("a one-site sum reached the solver")

    monkeypatch.setattr(conic, "solve", no_solve)
    res = lipschitz_constant(h)
    assert all(abs(v - 2.0) <= 1e-12 for v in res.site_values)
    for i, shift in enumerate(res.shifts):
        assert abs(_attained(h, i, shift) - 2.0) <= 1e-12


def test_reduced_failure_names_operator_and_site(monkeypatch):
    # operator 1 is one-local and solves nothing; operator 2's first program
    # is its site 1 on the sites 1 and 2
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    hs = [_local_operator(2, 4, 1, seed=1), _local_operator(2, 4, 2, seed=2)]
    with pytest.raises(SolverFailure, match=r"^Lipschitz SDP of operator 2 at site 1 "
                                            r"ended with MaxIterations after 1 iterations"):
        lipschitz_constants(hs)


# --- neighboring states ----------------------------------------------------

def test_neighboring_detection():
    lay = _qubits(2)
    tau = random_density(QuditLayout(2, 1), seed=5)
    a = tensor_product(basis_state(QuditLayout(2, 1), [0]), tau)
    b = tensor_product(basis_state(QuditLayout(2, 1), [1]), tau)
    rho = DensityMatrix(lay, a.matrix)
    sig = DensityMatrix(lay, b.matrix)
    assert is_neighboring(rho, rho) == 1
    assert is_neighboring(rho, sig) == 1
    r00 = basis_state(lay, [0, 0])
    r11 = basis_state(lay, [1, 1])
    assert is_neighboring(r00, r11) is None
    # at one site the only marginals are the traces, equal for two states
    one = QuditLayout(2, 1)
    assert is_neighboring(basis_state(one, [0]), basis_state(one, [1])) == 1
    # neighboring states sit at most distance 1 apart
    assert w1_primal(HermitianOperator(lay, rho.matrix - sig.matrix)).value <= 1 + 1e-7


# --- local Hamiltonian bound -----------------------------------------------

def test_local_hamiltonian_bound_single_term():
    lay = _qubits(3)
    z = HermitianOperator(_qubits(1), SZ)
    assert abs(local_hamiltonian_lipschitz_bound(lay, [([2], z)]) - 2.0) < 1e-12


def test_local_hamiltonian_bound_z_chain_matches_sdp():
    lay = _qubits(4)
    z = HermitianOperator(_qubits(1), SZ)
    terms = [([i], z) for i in range(1, 5)]
    bound = local_hamiltonian_lipschitz_bound(lay, terms)
    assert abs(bound - 2.0) < 1e-12
    h = functools.reduce(operator.add, (embed_operator(z, lay, [i]) for i in range(1, 5)))
    assert abs(lipschitz_constant(h).value - bound) < 1e-6


def _transverse_ising_chain():
    """ZZ on each pair of neighbouring qubits and X on each qubit, n = 3."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    zz = HermitianOperator(_qubits(2), np.kron(SZ, SZ))
    xop = HermitianOperator(_qubits(1), sx)
    return _qubits(3), [([1, 2], zz), ([2, 3], zz), ([1], xop), ([2], xop), ([3], xop)]


def _random_chain(d, n):
    """A seeded random traceless term on each pair of neighbouring sites and
    on each site of (d, n)."""
    rng = np.random.default_rng(10 * d + n)
    pair, site = QuditLayout(d, 2), QuditLayout(d, 1)
    return QuditLayout(d, n), (
        [([i, i + 1], random_traceless(pair, seed=rng)) for i in range(1, n)]
        + [([i], random_traceless(site, seed=rng)) for i in range(1, n + 1)])


@pytest.mark.parametrize("chain", [
    pytest.param(_transverse_ising_chain, id="ising-2-3"),
    *(pytest.param(functools.partial(_random_chain, d, n), id=f"random-{d}-{n}")
      for d, n in [(2, 3), (2, 4), (2, 5), (3, 3)])])
def test_local_hamiltonian_bound_dominates_exact(chain):
    lay, terms = chain()
    bound = local_hamiltonian_lipschitz_bound(lay, terms)
    h = functools.reduce(operator.add, (embed_operator(op, lay, sup) for sup, op in terms))
    exact = lipschitz_constant(h).value
    assert exact <= bound + 1e-7


def test_local_hamiltonian_bound_support_mismatch():
    lay = _qubits(2)
    z = HermitianOperator(_qubits(1), SZ)
    with pytest.raises(SupportMismatch):
        local_hamiltonian_lipschitz_bound(lay, [([1, 2], z)])


def _w1_constraints(monkeypatch, program, layout):
    """The constraint matrix `program` hands to the solver."""
    captured = []

    def capture(problem, *args, **kwargs):
        captured.append(problem.A)
        raise RuntimeError("captured")

    x = random_traceless(layout, seed=5)
    with monkeypatch.context() as mp:
        mp.setattr(conic, "solve", capture)
        with pytest.raises(RuntimeError):
            program(x)
    return captured[0].toarray()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("program", [w1_primal, w1_dual])
def test_w1_rows_full_rank_and_omitted_row_dependent(monkeypatch, program, d, n):
    A = _w1_constraints(monkeypatch, program, QuditLayout(d, n))
    rank = np.linalg.matrix_rank(A)
    assert rank == A.shape[0]
    # the omitted full-space E_00 row: +svec(E_00) on every P_i (or +)
    # block, -svec(E_00) on every Q_i (or -) block
    e00 = np.eye(d ** (2 * n))[0]
    omitted = np.concatenate([np.concatenate([e00, -e00]) for _ in range(n)])
    assert np.linalg.matrix_rank(np.vstack([A, omitted])) == rank
