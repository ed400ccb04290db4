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
from qw1.classical import Distribution, classical_w1, classical_w1_dual, diagonal_state
from qw1.errors import LayoutMismatch, NotTraceless, SolverFailure, SupportMismatch
from qw1.operators import embed_matrix, load_operator, operator_norm, partial_trace
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


# --- the bracket of method "both", from one solve -------------------------

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
    gamma = maximally_entangled(2)
    cert = w1_distance(gamma, maximally_mixed(gamma.layout), method="both")
    assert len(calls) == 1
    assert cert.dual <= 0.75 + 1e-12 and 0.75 <= cert.primal + 1e-12


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
    sol = conic._solved(conic.ConicProblem((D, D), 0, A, b, np.concatenate([-eh, eh])),
                        f"reference site {i + 1}")
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
        lam = np.linalg.eigvalsh(h.matrix)
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


def test_lipschitz_failure_names_operator_and_site():
    # each site program is one part of the stack, named by operator and site
    opts = conic.SolverOptions(max_iterations=1)
    hs = [random_traceless(QuditLayout(2, n), seed=700 + n) for n in (2, 3)]
    with pytest.raises(SolverFailure, match=r"^Lipschitz SDP of operator 1 at site 1 "
                                            r"ended with MaxIterations after 1 iterations"):
        lipschitz_constants(hs, opts)
    with pytest.raises(SolverFailure, match=r"^Lipschitz SDP at site 1 ended with "
                                            r"MaxIterations after 1 iterations"):
        lipschitz_constant(hs[1], opts)


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


def test_local_hamiltonian_bound_dominates_exact():
    lay = _qubits(3)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    zz = HermitianOperator(_qubits(2), np.kron(SZ, SZ))
    xop = HermitianOperator(_qubits(1), sx)
    terms = [([1, 2], zz), ([2, 3], zz), ([1], xop), ([2], xop), ([3], xop)]
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
