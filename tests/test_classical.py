"""Hamming-metric transport on distributions and its bounds."""

import math

import numpy as np
import pytest
import scipy.sparse

from qw1 import conic
from qw1.classical import (
    Distribution,
    binary_entropy,
    classical_marton_bound,
    classical_w1,
    classical_w1_dual,
    diagonal_distribution,
    diagonal_state,
    distribution_from_json,
    hamming,
    kl_divergence,
    product_distribution,
    shannon_continuity_bound,
    transport_lps,
)
from qw1.errors import InvalidInput, LengthMismatch, SolverFailure, SupportViolation
from qw1.operators import HermitianOperator, QuditLayout, random_density
from qw1.w1 import w1_primal


def _dist(d, n, weights):
    return Distribution(QuditLayout(d, n), np.asarray(weights, dtype=float))


def _digits(k, d, n):
    out = []
    for _ in range(n):
        out.append(k % d)
        k //= d
    return out[::-1]


def test_hamming():
    assert hamming("0120", "0210") == 2
    assert hamming([0, 1], [0, 1]) == 0
    assert hamming("01", "10") == 2
    with pytest.raises(LengthMismatch):
        hamming("01", "011")


def test_single_site_is_total_variation():
    p = _dist(2, 1, [1.0, 0.0])
    q = _dist(2, 1, [0.0, 1.0])
    val, coupling = classical_w1(p, q)
    assert abs(val - 1.0) < 1e-9
    np.testing.assert_allclose(coupling.sum(axis=1), p.weights, atol=1e-8)
    np.testing.assert_allclose(coupling.sum(axis=0), q.weights, atol=1e-8)


def test_point_masses_pay_hamming_distance():
    for d, n, a, b in [(2, 2, 0, 3), (2, 3, 1, 6), (3, 2, 1, 5)]:
        lay = QuditLayout(d, n)
        wp = np.zeros(lay.dim); wp[a] = 1.0
        wq = np.zeros(lay.dim); wq[b] = 1.0
        val, _ = classical_w1(Distribution(lay, wp), Distribution(lay, wq))
        expect = hamming(_digits(a, d, n), _digits(b, d, n))
        assert abs(val - expect) < 1e-7


def test_dual_matches_primal_with_lipschitz_potential():
    rng = np.random.default_rng(11)
    for d, n in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        lay = QuditLayout(d, n)
        p = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
        q = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
        primal, _ = classical_w1(p, q)
        dual, f = classical_w1_dual(p, q)
        assert abs(primal - dual) < 1e-8 * (1 + primal)
        assert f[0] == 0.0
        for i in range(lay.dim):
            for j in range(lay.dim):
                h = hamming(_digits(i, d, n), _digits(j, d, n))
                assert abs(f[i] - f[j]) <= h + 1e-7
        # the potential certifies the value
        assert abs(f @ (p.weights - q.weights) - primal) < 1e-7


def _lp_constraints(monkeypatch, program, p, q):
    """The constraint matrix `program` hands to the solver, as a dense array."""
    captured = []

    def capture(problem, *args, **kwargs):
        captured.append(problem.A)
        raise RuntimeError("captured")

    with monkeypatch.context() as mp:
        mp.setattr(conic, "solve", capture)
        with pytest.raises(RuntimeError):
            program(p, q)
    A = captured[0]
    return A.toarray() if scipy.sparse.issparse(A) else A


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("program", [classical_w1, classical_w1_dual])
def test_lp_rows_full_rank_and_omitted_row_dependent(monkeypatch, program, d, n):
    lay = QuditLayout(d, n)
    D = lay.dim
    rng = np.random.default_rng(d * 10 + n)
    p = Distribution(lay, rng.dirichlet(np.ones(D)))
    q = Distribution(lay, rng.dirichlet(np.ones(D)))
    A = _lp_constraints(monkeypatch, program, p, q)
    rank = np.linalg.matrix_rank(A)
    assert rank == A.shape[0]
    if program is classical_w1:
        # the omitted last column sum of the D x D coupling
        omitted = np.zeros(D * D)
        omitted[D - 1::D] = 1.0
    else:
        # the omitted flow conservation row of point 0, over ordered pairs
        pairs = [(i, j) for i in range(D) for j in range(D) if i != j]
        omitted = np.array([(i == 0) - (j == 0) for i, j in pairs], dtype=float)
    assert np.linalg.matrix_rank(np.vstack([A, omitted])) == rank
    if program is classical_w1_dual:
        _, f = program(p, q)
        assert f[0] == 0.0


LP_LAYOUTS = [(2, 1), (2, 2), (2, 3), (3, 2)]


def _pairs(rng, d, n, count):
    lay = QuditLayout(d, n)
    return [(Distribution(lay, rng.dirichlet(np.ones(lay.dim))),
             Distribution(lay, rng.dirichlet(np.ones(lay.dim)))) for _ in range(count)]


def _check_coupling(coupling, p, q):
    np.testing.assert_allclose(coupling.sum(axis=1), p.weights, atol=1e-8)
    np.testing.assert_allclose(coupling.sum(axis=0), q.weights, atol=1e-8)


@pytest.mark.parametrize("d,n", LP_LAYOUTS)
def test_batched_transport_lps_match_single_solves(d, n):
    pairs = _pairs(np.random.default_rng(70 + 10 * d + n), d, n, 4)
    primal = transport_lps([(p, q, False) for p, q in pairs])
    dual = transport_lps([(p, q, True) for p, q in pairs])
    assert len(primal) == len(dual) == len(pairs)
    for (p, q), (v, coupling), (vd, f) in zip(pairs, primal, dual):
        sv, _ = classical_w1(p, q)
        svd, _ = classical_w1_dual(p, q)
        assert v == sv and vd == svd
        assert coupling.shape == (p.layout.dim,) * 2 and f.shape == (p.layout.dim,)
        _check_coupling(coupling, p, q)
        assert f[0] == 0.0


def test_transport_lps_of_mixed_layouts_and_sides_in_one_solve(monkeypatch):
    rng = np.random.default_rng(9)
    pairs = [pair for d, n in LP_LAYOUTS for pair in _pairs(rng, d, n, 2)]
    requests = [(p, q, dual) for p, q in pairs for dual in (False, True)]
    solves = []
    solve = conic.solve

    def spy(problem, *args, **kwargs):
        solves.append(problem.A.shape)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(conic, "solve", spy)
    got = transport_lps(requests)
    assert len(solves) == 1 and len(got) == len(requests)
    monkeypatch.undo()
    # a single LP this small, like the batches of one layout above, multiplies
    # by a dense copy of A; the mixed batch is large enough for sparse products
    for (p, q, dual), (value, extra) in zip(requests, got):
        want, _ = (classical_w1_dual if dual else classical_w1)(p, q)
        assert abs(value - want) <= 1e-10 * want
        if dual:
            assert extra[0] == 0.0
        else:
            _check_coupling(extra, p, q)
    assert transport_lps([]) == []


def test_transport_lps_split_into_runs_of_bounded_memory(monkeypatch):
    rng = np.random.default_rng(12)
    requests = [(p, q, dual) for p, q in _pairs(rng, 2, 3, 3) for dual in (False, True)]
    whole = transport_lps(requests)
    solves = []
    solve = conic.solve

    def spy(problem, *args, **kwargs):
        solves.append(problem.A.shape[0])
        return solve(problem, *args, **kwargs)

    # room for a primal LP (15 x 64) and a dual one (7 x 56) of (2, 3) together
    monkeypatch.setattr(conic, "_BATCH_ENTRIES", 15 * 94 + 7 * 70)
    monkeypatch.setattr(conic, "solve", spy)
    got = transport_lps(requests)
    assert solves == [22, 22, 22]
    for (value, extra), (want, want_extra) in zip(got, whole):
        assert abs(value - want) <= 1e-10 * want
        assert extra.shape == want_extra.shape


def test_transport_lp_failures_name_pairs_not_requests(monkeypatch):
    rng = np.random.default_rng(13)
    (p, q), (p2, q2) = _pairs(rng, 2, 2, 2)
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    # one pair on both sides, as one classical-duality instance asks
    with pytest.raises(SolverFailure, match=r"^transport LP ended with MaxIterations"):
        transport_lps([(p, q, False), (p, q, True)])
    with pytest.raises(SolverFailure, match=r"^transport dual LP ended with MaxIterations"):
        transport_lps([(p, q, True), (p, q, False)])
    with pytest.raises(SolverFailure, match=r"^transport dual LP of pair 1 ended"):
        transport_lps([(p, q, True), (p, q, False), (p2, q2, True), (p2, q2, False)])


def test_distribution_validation():
    lay = QuditLayout(2, 1)
    with pytest.raises(InvalidInput):
        Distribution(lay, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(InvalidInput):
        Distribution(lay, np.array([1.2, -0.2]))
    with pytest.raises(InvalidInput):
        Distribution(lay, np.array([0.6, 0.6]))


def test_product_distributions_add_total_variation():
    a = _dist(2, 1, [0.7, 0.3])
    b = _dist(2, 1, [0.5, 0.5])
    c = _dist(2, 1, [0.2, 0.8])
    p = product_distribution([a, b])
    q = product_distribution([c, b])
    val, _ = classical_w1(p, q)
    assert abs(val - 0.5) < 1e-8   # TV(a, c) = 0.5, second site identical
    val2, _ = classical_w1(product_distribution([a, a]), product_distribution([c, c]))
    assert abs(val2 - 1.0) < 1e-8


def test_entropy_continuity_equality_case():
    p = _dist(2, 1, [1.0, 0.0])
    q = _dist(2, 1, [0.5, 0.5])
    lhs, rhs = shannon_continuity_bound(p, q)
    assert abs(lhs - math.log(2)) < 1e-12
    # saturated: transport cost 1/2 and h2(1/2) = ln 2
    assert abs(rhs - lhs) < 1e-9


def test_entropy_continuity_random():
    rng = np.random.default_rng(3)
    for d, n in [(2, 2), (3, 1), (2, 3)]:
        lay = QuditLayout(d, n)
        p = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
        q = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
        lhs, rhs = shannon_continuity_bound(p, q)
        assert lhs <= rhs + 1e-9


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15
    assert abs(binary_entropy(0.25) - (-0.25 * math.log(0.25) - 0.75 * math.log(0.75))) < 1e-15


def test_marton_point_mass_against_uniform():
    lay = QuditLayout(2, 2)
    wp = np.zeros(4); wp[0] = 1.0
    p = Distribution(lay, wp)
    u = _dist(2, 1, [0.5, 0.5])
    w1, bound = classical_marton_bound(p, [u, u])
    assert abs(w1 - 1.0) < 1e-8          # expected Hamming weight of two fair bits
    assert abs(bound - math.sqrt(2 * math.log(2))) < 1e-12
    assert w1 <= bound


def test_marton_single_site_is_pinsker():
    p = _dist(2, 1, [0.9, 0.1])
    q = _dist(2, 1, [0.5, 0.5])
    w1, bound = classical_marton_bound(p, [q])
    kl = kl_divergence(p, q)
    assert abs(w1 - 0.4) < 1e-8
    assert abs(bound - math.sqrt(kl / 2)) < 1e-12
    assert w1 <= bound


def test_marton_refuses_a_support_violation_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input check")

    monkeypatch.setattr(conic, "solve", no_solve)
    p = _dist(2, 1, [0.5, 0.5])
    with pytest.raises(SupportViolation):
        classical_marton_bound(p, [_dist(2, 1, [1.0, 0.0])])


def test_kl_support_violation():
    p = _dist(2, 1, [0.5, 0.5])
    q = _dist(2, 1, [1.0, 0.0])
    with pytest.raises(SupportViolation):
        kl_divergence(p, q)
    assert kl_divergence(q, p) == pytest.approx(math.log(2))


def test_diagonal_states_agree_with_operator_transport():
    rng = np.random.default_rng(7)
    lay = QuditLayout(2, 2)
    p = Distribution(lay, rng.dirichlet(np.ones(4)))
    q = Distribution(lay, rng.dirichlet(np.ones(4)))
    classical, _ = classical_w1(p, q)
    diff = diagonal_state(p).matrix - diagonal_state(q).matrix
    quantum = w1_primal(HermitianOperator(lay, diff)).value
    assert abs(classical - quantum) < 1e-6 * (1 + classical)


def test_diagonal_roundtrip():
    lay = QuditLayout(2, 1)
    rho = random_density(lay, seed=2)
    p = diagonal_distribution(rho)
    assert abs(p.weights.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(
        np.diag(diagonal_state(p).matrix).real, p.weights, atol=1e-14)


def test_distribution_json():
    p = _dist(2, 2, [0.25, 0.25, 0.25, 0.25])
    payload = p.to_json()
    q = distribution_from_json(payload)
    assert q.layout == p.layout
    np.testing.assert_allclose(q.weights, p.weights)
    with pytest.raises(InvalidInput):
        distribution_from_json({"d": 2, "weights": [1.0, 0.0]})
    with pytest.raises(InvalidInput):
        distribution_from_json({"d": 2, "n": 1, "weights": "xx"})
    for field, bad in (("d", 2.7), ("n", 1.9), ("n", True), ("d", "2")):
        payload = {"d": 2, "n": 1, "weights": [1.0, 0.0], field: bad}
        with pytest.raises(InvalidInput, match=f"'{field}' must be an integer"):
            distribution_from_json(payload)
    assert distribution_from_json({"d": 2.0, "n": 1, "weights": [1.0, 0.0]}).d == 2
