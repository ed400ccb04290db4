"""Tests for the interior-point conic solver on tiny hand-checkable problems."""

import collections
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from qw1 import (
    Distribution,
    HermitianOperator,
    QuditLayout,
    conic,
    random_density,
    random_traceless,
    w1_primal,
)
from qw1 import classical, w1
from qw1.conic import (
    ConicProblem,
    SolverStatus,
    smat,
    solve,
    svec,
    svec_len,
)
from qw1.errors import DimensionMismatch, InvalidInput, SolverFailure
from qw1.w1 import hermitian_basis


def test_svec_roundtrip_and_inner_product():
    rng = np.random.default_rng(0)
    for k in range(1, 6):
        a = rng.standard_normal((k, k))
        a = a + a.T
        b = rng.standard_normal((k, k))
        b = b + b.T
        assert svec(a).shape == (svec_len(k),)
        np.testing.assert_allclose(smat(svec(a), k), a, atol=1e-14)
        # svec is an isometry for the trace inner product
        np.testing.assert_allclose(svec(a) @ svec(b), np.trace(a @ b), atol=1e-12)


def _random_hermitian(rng, k):
    h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return (h + h.conj().T) / 2


def test_hermitian_svec():
    rng = np.random.default_rng(1)
    for k in (1, 2, 3, 4):
        h = _random_hermitian(rng, k)
        g = _random_hermitian(rng, k)
        assert svec(h).shape == (svec_len(k),) == (k * k,)
        assert svec(h).dtype == float
        np.testing.assert_allclose(smat(svec(h), k), h, atol=1e-14)
        np.testing.assert_allclose(svec(smat(svec(h), k)), svec(h), atol=1e-14)
        # an isometry for the trace inner product
        np.testing.assert_allclose(svec(g) @ svec(h), np.trace(g @ h).real, atol=1e-12)
        # coordinate a is Tr[F_a X] along the orthonormal Hermitian basis
        basis = hermitian_basis(k)
        np.testing.assert_allclose(
            svec(h), [np.trace(f @ h).real for f in basis], atol=1e-12)
        np.testing.assert_allclose(smat(np.eye(k * k), k), basis, atol=1e-15)
        # batches in the leading dimensions
        np.testing.assert_allclose(svec(np.stack([g, h])), [svec(g), svec(h)], atol=0)


def _lp_problem():
    # min x1  s.t.  x1 - x2 = 3,  x >= 0        -> optimum 3 at (3, 0)
    A = np.array([[1.0, -1.0]])
    return ConicProblem(psd_blocks=(), lp_dim=2, A=A, b=np.array([3.0]), c=np.array([1.0, 0.0]))


def test_lp_minimum():
    sol = solve(_lp_problem())
    assert sol.status is SolverStatus.Optimal
    assert abs(sol.primal_objective - 3.0) < 1e-7
    assert abs(sol.dual_objective - 3.0) < 1e-7
    assert sol.gap < 1e-7


def test_sdp_trace_floor():
    # min Tr X  s.t.  X - S = I,  X, S psd      -> X = I, value 2
    L = svec_len(2)
    iL = np.eye(L)
    A = np.hstack([iL, -iL])
    b = svec(np.eye(2))
    c = np.concatenate([svec(np.eye(2)), np.zeros(L)])
    sol = solve(ConicProblem(psd_blocks=(2, 2), lp_dim=0, A=A, b=b, c=c))
    assert sol.optimal
    assert abs(sol.primal_objective - 2.0) < 1e-7
    x = smat(sol.x[:L], 2)
    np.testing.assert_allclose(x, np.eye(2), atol=1e-6)


def test_sdp_operator_norm():
    # min t  s.t.  t I + sx >= 0,  t I - sx >= 0   -> t = 1
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    si = svec(np.eye(2))
    L = svec_len(2)
    iL = np.eye(L)
    zL = np.zeros((L, L))
    A = np.block([[iL, zL, -si[:, None]], [zL, iL, -si[:, None]]])
    b = np.concatenate([svec(sx), -svec(sx)])
    c = np.zeros(2 * L + 1)
    c[2 * L] = 1.0
    sol = solve(ConicProblem(psd_blocks=(2, 2), lp_dim=1, A=A, b=b, c=c))
    assert sol.optimal
    assert abs(sol.primal_objective - 1.0) < 1e-7
    assert abs(sol.x[2 * L] - 1.0) < 1e-6


def _w1_problem(monkeypatch, n=2):
    """The conic program w1_primal builds for a seeded (2,n) difference."""
    lay = QuditLayout(2, n)
    x = random_density(lay, seed=3).matrix - random_density(lay, seed=4).matrix
    captured = []

    def capture(problem, *args, **kwargs):
        captured.append(problem)
        raise RuntimeError("captured")

    with monkeypatch.context() as mp:
        mp.setattr(conic, "solve", capture)
        with pytest.raises(RuntimeError):
            w1_primal(HermitianOperator(lay, x))
    return captured[0]


def test_deterministic_bytes(monkeypatch):
    problems = [_lp_problem(), _w1_problem(monkeypatch)]
    for prob in problems:
        a = solve(prob)
        b = solve(prob)
        assert a.optimal
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.s.tobytes() == b.s.tobytes()
        assert a.iterations == b.iterations


def test_warm_start_hints():
    prob = _lp_problem()
    cold = solve(prob)
    warm = solve(prob, x0=np.array([4.0, 1.0]), y0=np.zeros(1))
    assert warm.optimal
    assert abs(warm.primal_objective - cold.primal_objective) < 1e-7


def test_iteration_cap_reports_status(monkeypatch):
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    sol = solve(_lp_problem())
    assert sol.status is SolverStatus.MaxIterations
    assert not sol.optimal
    assert sol.iterations == 1


def test_problem_validation():
    with pytest.raises(InvalidInput):
        ConicProblem(psd_blocks=(0,), lp_dim=0, A=np.zeros((1, 0)), b=np.zeros(1), c=np.zeros(0))
    with pytest.raises(DimensionMismatch):
        ConicProblem(psd_blocks=(2,), lp_dim=0, A=np.zeros((1, 4)), b=np.zeros(1), c=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ConicProblem(psd_blocks=(), lp_dim=2, A=np.eye(2), b=np.zeros(3), c=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        ConicProblem(psd_blocks=(), lp_dim=2, A=np.eye(2), b=np.zeros(2), c=np.zeros(5))


def _no_cholesky(a, **kwargs):
    return a, 1  # LAPACK's info: the first leading minor is not positive definite


def test_failure_names_cholesky_regularization(monkeypatch):
    # a solve first, so that the cached rank verdict keeps the rank test's
    # own Cholesky away from the patch
    solve(_lp_problem())
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _no_cholesky)
    sol = solve(_lp_problem())
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.iterations == 1
    with pytest.raises(SolverFailure, match=r"Cholesky regularization past 1e-4 "
                                            r"\(last tried 1\.0e-04\)"):
        conic._solved_batch([_lp_problem()], ["test LP"])


def test_component_without_rows():
    # a program without constraints, alone and stacked with one that has
    # some, stops at the interior point nearest its minimum
    free = ConicProblem(psd_blocks=(), lp_dim=2, A=np.zeros((0, 2)), b=np.zeros(0),
                        c=np.array([1.0, 2.0]))
    alone, = conic._solved_batch([free], ["free"])
    stacked = conic._solved_batch([free, _lp_problem()], ["free", "LP"])
    assert alone.primal_objective < 1e-7
    assert stacked[0].x.tobytes() == alone.x.tobytes()
    assert abs(stacked[1].primal_objective - 3.0) < 1e-7


def test_failure_names_non_finite_objective():
    base = _lp_problem()
    prob = ConicProblem(psd_blocks=(), lp_dim=2, A=base.A, b=base.b,
                        c=np.array([np.nan, 0.0]))
    sol = solve(prob)
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.cause.startswith("non-finite mu")
    assert "primal nan" in sol.cause


def test_residuals_reported():
    sol = solve(_lp_problem())
    assert sol.primal_residual < 1e-8
    assert sol.dual_residual < 1e-8


# ---------------------------------------------------------------------------
# Schur complement assembly against the dense formula
# ---------------------------------------------------------------------------

def _dense_schur(A, cone, Ws, w_lp):
    """Reference: M[a, b] = Re Tr[F_a W F_b W] per block, with F_a the row
    as a combination of hermitian_basis(k)."""
    m = A.shape[0]
    M = np.zeros((m, m))
    for k, sl, W in zip(cone.blocks, cone.slices, Ws):
        F = np.einsum("ac,cij->aij", A[:, sl], hermitian_basis(k))
        M += np.einsum("aij,bji->ab", F, W @ F @ W).real
    lp = A[:, cone.lp_slice]
    M += (lp * w_lp ** 2) @ lp.T
    return (M + M.T) / 2.0


class _Scal:
    """Scaling matrices W[b] per block, stacked by order as _Scaling.Ws."""

    def __init__(self, cone, W, w_lp):
        self.W = W
        self.Ws = [np.stack([W[b] for b in group]) for group in cone.members]
        self.w_lp = w_lp


def _random_hpd(rng, k):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return g @ g.conj().T / k + 0.1 * np.eye(k)


def _structured_rows(rng, blocks, lp_dim, untouched):
    """Rows with one nonzero, rows on both parts of one off-diagonal entry,
    a dense identity row per block, rows spanning two PSD blocks, sparse
    random rows and LP entries; block `untouched` gets no nonzero at all."""
    cone = conic._Cone(blocks, lp_dim)
    rows = []
    used = [i for i in range(len(blocks)) if i != untouched]
    for i in used:
        sl = cone.slices[i]
        width = sl.stop - sl.start
        for _ in range(3):  # one nonzero: a diagonal or off-diagonal entry
            r = np.zeros(cone.dim)
            r[sl.start + rng.integers(width)] = rng.standard_normal()
            rows.append(r)
        imag = np.flatnonzero(conic._coords(blocks[i]).imag)
        for a in imag[:2]:  # the imaginary part alone, then with the real part
            r = np.zeros(cone.dim)
            r[sl.start + a] = rng.standard_normal()
            rows.append(r)
            r = r.copy()
            r[sl.start + a - 1] = rng.standard_normal()
            rows.append(r)
        r = np.zeros(cone.dim)  # dense identity row, as in the Lipschitz program
        r[sl] = -svec(np.eye(blocks[i]))
        rows.append(r)
        for _ in range(4):  # a few random nonzeros, plus the LP tail
            r = np.zeros(cone.dim)
            r[sl.start + rng.choice(width, size=min(width, 4), replace=False)] = \
                rng.standard_normal(min(width, 4))
            if lp_dim:
                r[cone.lp_slice.start + rng.integers(lp_dim)] = rng.standard_normal()
            rows.append(r)
    for a, b_ in zip(used, used[1:]):  # rows spanning two PSD blocks
        r = np.zeros(cone.dim)
        for i in (a, b_):
            sl = cone.slices[i]
            width = min(2, sl.stop - sl.start)
            r[sl.start + rng.choice(sl.stop - sl.start, size=width, replace=False)] = \
                rng.standard_normal(width)
        rows.append(r)
    return cone, np.array(rows)


def _stored(cone, A, dense):
    """A program of the cone's blocks with constraint matrix A, handed to
    ConicProblem dense or as CSR."""
    m, v = A.shape
    return ConicProblem(cone.blocks, cone.lp_dim, A if dense else scipy.sparse.csr_matrix(A),
                        np.zeros(m), np.zeros(v))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dense", [True, False])
def test_schur_matches_dense_formula(seed, dense):
    rng = np.random.default_rng(seed)
    blocks = (3, 6, 1, 5)[: 2 + seed % 3]
    lp_dim = (0, 3)[seed % 2]
    cone, A = _structured_rows(rng, blocks, lp_dim, untouched=seed % len(blocks))
    prob = _stored(cone, A, dense)
    comps = conic._Components(prob, cone)
    assert comps.count == 1  # a program without parts, the untouched block included
    bd = conic._BlockData(prob.A, cone, comps, comps.classes[0])
    assert len(bd.blocks) == len(blocks) - 1
    assert all(isinstance(rows, conic._SparseRows) for rows, _, _ in bd.blocks)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in blocks], rng.uniform(0.5, 2.0, lp_dim))

    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(A, cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(M, M.T)


@pytest.mark.parametrize("dense", [True, False])
def test_schur_on_w1_program(dense, monkeypatch):
    prob = _w1_problem(monkeypatch)
    cone = conic._Cone(prob.psd_blocks, prob.lp_dim)
    csr = _stored(cone, prob.A.toarray(), True).A if dense else prob.A
    comps = conic._Components(prob, cone)
    assert comps.count == 1
    bd = conic._BlockData(csr, cone, comps, comps.classes[0])
    assert all(isinstance(rows, conic._SparseRows) for rows, _, _ in bd.blocks)
    rng = np.random.default_rng(7)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in prob.psd_blocks], np.ones(0))

    imag = np.flatnonzero(conic._coords(prob.psd_blocks[0]).imag)
    assert np.any(prob.A.toarray()[:, imag] != 0.0)

    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(prob.A.toarray(), cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def _block_data(prob):
    cone = conic._Cone(prob.psd_blocks, prob.lp_dim)
    comps = conic._Components(prob, cone)
    return cone, conic._BlockData(prob.A, cone, comps, comps.classes[0])


def _lipschitz_programs(h):
    """The n site programs of h itself, n > 1, unreduced."""
    return [w1._lipschitz_program(h.matrix, h.d, h.n, i) for i in range(h.n)]


def _formed_rows(bd):
    """The rows for which the _SparseRows form W F W."""
    return np.unique(np.concatenate([cols for rows, _, _ in bd.blocks
                                     for cols, *_ in rows.batches]))


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_unit_rows_kernel_on_w1_programs(d, n):
    # the full-space rows, one coordinate on each of the 2n blocks, share one
    # kernel; the site rows, though lifted with m = d, stay on the sparse
    # formula, since their blocks carry more unit rows and take m = 1
    x = random_traceless(QuditLayout(d, n), seed=d + n)
    prob, first_full = w1._w1_program(x)
    D, m = d ** n, prob.A.shape[0]
    cone, bd = _block_data(prob)
    row = np.repeat(np.arange(m), np.diff(prob.A.indptr))
    seg = conic._lifts(row, prob.A.indices, prob.A.data, cone, range(2 * n))
    site = seg.row < first_full
    assert seg.lifted.all() and set(seg.m[site]) == {d} and set(seg.m[~site]) == {1}
    (unit, group, places, lift), = bd.units
    assert lift == (1, 1)
    assert unit.rows.tolist() == list(range(first_full, m)) == list(range(m - (D * D - 1), m))
    assert places.tolist() == [list(range(2 * n))]
    assert _formed_rows(bd).tolist() == list(range(first_full))
    rng = np.random.default_rng(d * n)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in prob.psd_blocks], np.ones(0))
    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(prob.A.toarray(), cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(M, M.T)


def test_diamond_norm_corner_rows_take_the_kernel(monkeypatch):
    # the corner rows are unit rows of Z alone; the S rows are unit on S_a
    # but not on Z, so they are no unit rows and stay on the sparse formula
    from qw1.channels import amplitude_damping, diamond_norm
    captured = []

    def capture(problems, names, *args, **kwargs):
        captured.extend(problems)
        raise RuntimeError("captured")

    monkeypatch.setattr(conic, "_solved_batch", capture)
    with pytest.raises(RuntimeError):
        diamond_norm(amplitude_damping(0.3), amplitude_damping(0.7))
    prob, = captured
    big, din = prob.psd_blocks[0], prob.psd_blocks[1]
    corner = 2 * (big // 2) ** 2
    cone, bd = _block_data(prob)
    (unit, group, places, lift), = bd.units
    assert lift == (1, 1)
    assert unit.rows.tolist() == list(range(corner))
    assert places.tolist() == [[0]]
    assert _formed_rows(bd).tolist() == list(range(corner, corner + 2 * din * din))
    assert [cone.orders[group][0] for _, group, _ in bd.blocks] == [big, din, din]
    rng = np.random.default_rng(3)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in prob.psd_blocks],
                 rng.uniform(0.5, 2.0, prob.lp_dim))
    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(prob.A.toarray(), cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_unit_rows_of_blocks_that_disagree_in_value():
    # unit rows 0, 2, 5 and 6 at unsorted coordinates: blocks 0 and 1 carry
    # the same values up to sign and share a kernel, block 2 carries other
    # values and gets its own; rows 1, 3 and 4 are not unit rows
    rng = np.random.default_rng(11)
    blocks, lp_dim = (3, 3, 3), 2
    cone = conic._Cone(blocks, lp_dim)
    A = np.zeros((7, cone.dim))
    coords, values = np.array([7, 1, 4, 0]), rng.standard_normal(4)
    for b, scale in ((0, 1.0), (1, -1.0), (2, 1.0)):
        A[[0, 2, 5, 6], cone.slices[b].start + coords] = \
            scale * values if b < 2 else values + 1.0
    for r in (1, 3, 4):
        for b in range(3):
            A[r, cone.slices[b].start + rng.choice(9, 3, replace=False)] = rng.standard_normal(3)
    A[[0, 3], cone.lp_slice.start + np.arange(2)] = rng.standard_normal(2)
    _, bd = _block_data(_stored(cone, A, False))
    assert [places.tolist() for _, _, places, _ in bd.units] == [[[0, 1]], [[2]]]
    assert [lift for *_, lift in bd.units] == [(1, 1)] * 2
    for unit, *_ in bd.units:
        assert unit.rows.tolist() == [6, 2, 5, 0]  # sorted by coordinate
    assert _formed_rows(bd).tolist() == [1, 3, 4]
    scal = _Scal(cone, [_random_hpd(rng, k) for k in blocks], rng.uniform(0.5, 2.0, lp_dim))
    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(A, cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(M, M.T)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_lipschitz_site_rows_take_the_kernel_lifted(d, n):
    # site i's rows I_i (x) f are lifted with m = d at stride d^(n-i) on P_i
    # and Q_i, which share one kernel; the trace row alone stays sparse
    h = random_traceless(QuditLayout(d, n), seed=d * n)
    for i, prob in enumerate(_lipschitz_programs(h), start=1):
        m = prob.A.shape[0]
        assert m == 1 + d ** (2 * (n - 1))
        cone, bd = _block_data(prob)
        (unit, group, places, lift), = bd.units
        assert lift == (d, d ** (n - i))
        assert sorted(unit.rows.tolist()) == list(range(1, m))
        assert places.tolist() == [[0, 1]]
        assert len(bd.blocks) == 2 and _formed_rows(bd).tolist() == [0]
        rng = np.random.default_rng(10 * i + n)
        scal = _Scal(cone, [_random_hpd(rng, k) for k in prob.psd_blocks], np.ones(0))
        M, = conic._schur(bd, scal, np.array([0]))
        ref = _dense_schur(prob.A.toarray(), cone, scal.W, scal.w_lp)
        np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        np.testing.assert_array_equal(M, M.T)


def _coordinate(k, r, c, imag=False):
    """The svec coordinate of order k of entry (r, c), r <= c, or of its
    imaginary part."""
    co = conic._coords(k)
    return int(np.flatnonzero((co.row == r) & (co.col == c) & (co.imag == imag))[0])


def test_rows_that_are_not_lifted_stay_sparse():
    # on a block of order 8, rows I_2 (x) f at stride 2 take the kernel; the
    # near misses do not: two imaginary parts with unequal values, a stride 3 that
    # leaves 2 * 3 not dividing 8, and copies at (2, 2), (4, 4), whose site
    # digit (2 // 2) mod 2 is 1
    k, lift = 8, (2, 2)
    cone = conic._Cone((k,), 0)
    rng = np.random.default_rng(5)
    rows = []
    for u, v, z in ((0, 0, 1.0), (0, 1, 1.0), (1, 3, 1j), (2, 2, 1.0)):  # lifted, at (u, v)
        f = np.zeros((4, 4), dtype=complex)
        f[u, v] = z
        f[v, u] = np.conj(z)
        big = np.zeros((k, k), dtype=complex)
        for x in range(2):
            idx = [(w // 2) * 4 + 2 * x + w % 2 for w in range(4)]
            big[np.ix_(idx, idx)] = f
        rows.append(svec(big) * rng.uniform(0.5, 2.0))
    misses = [((0, 1), (2, 3), True, (1.0, 2.0)), ((0, 1), (3, 4), False, (1.5, 1.5)),
              ((2, 2), (4, 4), False, (0.7, 0.7))]
    for (r0, c0), (r1, c1), imag, values in misses:
        row = np.zeros(cone.dim)
        row[[_coordinate(k, r0, c0, imag), _coordinate(k, r1, c1, imag)]] = values
        rows.append(row)
    A = np.array(rows)
    prob = _stored(cone, A, False)
    row = np.repeat(np.arange(len(rows)), np.diff(prob.A.indptr))
    seg = conic._lifts(row, prob.A.indices, prob.A.data, cone, range(1))
    assert seg.lifted.tolist() == [True] * 4 + [False] * 3
    _, bd = _block_data(prob)
    (unit, _, places, got), = bd.units
    assert got == lift and sorted(unit.rows.tolist()) == [0, 1, 2, 3]
    assert _formed_rows(bd).tolist() == [4, 5, 6]
    scal = _Scal(cone, [_random_hpd(rng, k)], np.ones(0))
    M, = conic._schur(bd, scal, np.array([0]))
    ref = _dense_schur(A, cone, scal.W, scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(M, M.T)


def test_batch_of_w1_programs_with_the_kernel_equals_solo_solves():
    xs = [random_traceless(QuditLayout(2, 3), seed=s) for s in (5, 6, 7)]
    programs = [w1._w1_program(x)[0] for x in xs]
    joint = conic._stack(programs)
    cone = conic._Cone(joint.psd_blocks, joint.lp_dim)
    comps = conic._Components(joint, cone)
    assert [members.tolist() for members in comps.classes] == [[0, 1, 2]]
    assert len(conic._BlockData(joint.A, cone, comps, comps.classes[0]).units) == 1
    batch = conic._solved_batch(programs, ["a", "b", "c"])
    for prob, got in zip(programs, batch):
        want = solve(prob)
        assert want.optimal and got.iterations == want.iterations
        for name in ("x", "y", "s"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _float_arrays(obj, seen=None):
    """Every float numpy array reachable from obj's attributes, containers
    and sparse matrices."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind in "fc" else []
    if scipy.sparse.issparse(obj):
        return [obj.data]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _float_arrays(item, seen)]
    if hasattr(obj, "__dict__"):
        return [a for item in vars(obj).values() for a in _float_arrays(item, seen)]
    return []


def test_schur_of_a_large_w1_program_stays_within_twice_its_matrix():
    import tracemalloc

    x = random_traceless(QuditLayout(3, 3), seed=2)
    prob, _ = w1._w1_program(x)
    D = x.layout.dim
    cone, bd = _block_data(prob)
    assert len(bd.units) == 1
    assert max(a.size for a in _float_arrays(bd)) < D ** 4
    rng = np.random.default_rng(1)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in prob.psd_blocks], np.ones(0))
    tracemalloc.start()
    try:
        M = conic._schur(bd, scal, np.array([0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * M.nbytes


@pytest.mark.parametrize("d, n", [(3, 3), (2, 4)])
def test_cold_w1_solve_holds_one_schur_matrix(d, n, monkeypatch):
    # the Schur matrix is factored in its own memory, so a solve holds one
    # m x m array and the lesser temporaries of its assembly and rank test
    import tracemalloc

    prob, _ = w1._w1_program(random_traceless(QuditLayout(d, n), seed=1))
    m = prob.A.shape[0]
    monkeypatch.setattr(conic, "_TEMPLATES", collections.OrderedDict())
    tracemalloc.start()
    try:
        assert solve(prob).optimal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m * m * 8


def test_schur_into_a_buffer_and_factor_in_place(monkeypatch):
    # the stack written into a given buffer, its in-place symmetrization and
    # the in-place factor, on the first rung of the ladder and after a
    # failed one, give the bits of the out-of-place formulas
    cone, bd = _block_data(_w1_problem(monkeypatch))
    rng = np.random.default_rng(4)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in cone.blocks], np.ones(0))
    M, = conic._schur(bd, scal, np.array([0]))
    m = len(M)
    buffer = np.full((2, m, m), np.nan)
    conic._schur(bd, scal, np.array([0]), out=buffer[:1])
    assert buffer[0].tobytes() == M.tobytes()
    raw = rng.standard_normal((3, 40, 40))
    sym = raw.copy()
    conic._symmetrize(sym)
    assert sym.tobytes() == ((raw + raw.swapaxes(1, 2)) / 2.0).tobytes()
    # M, then M with its least eigenvalue moved to -1e-11, which needs 1e-10
    w, v = np.linalg.eigh(M)
    shifted = v @ np.diag(np.r_[-1e-11, w[1:]]) @ v.T
    shifted = (shifted + shifted.T) / 2.0
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(shifted + 1e-12 * np.eye(m))
    for matrix, rung in ((M, 1e-12), (shifted, 1e-10)):
        stack = matrix[None].copy()
        pieces, failed = conic._factor(stack, [slice(0, m)])
        assert failed is None
        (_, factor), = pieces
        want, _ = scipy.linalg.cho_factor(matrix + rung * np.eye(m), lower=True)
        assert np.shares_memory(factor, stack)
        assert np.tril(factor).tobytes() == np.tril(want).tobytes()
        # the other triangle still holds the matrix, after a failed try too
        assert np.triu(factor, 1).tobytes() == np.triu(matrix, 1).tobytes()


# ---------------------------------------------------------------------------
# full row rank
# ---------------------------------------------------------------------------

def test_full_rank_accepted_and_repeated_row_refused(monkeypatch):
    prob = _w1_problem(monkeypatch, n=3)
    assert solve(prob).optimal
    A = prob.A.toarray()
    repeated = ConicProblem(prob.psd_blocks, prob.lp_dim,
                            np.vstack([A, A[5]]), np.append(prob.b, prob.b[5]),
                            prob.c)
    with pytest.raises(InvalidInput, match="not linearly independent"):
        solve(repeated)


def test_rank_test_holds_one_dense_gram_matrix():
    # the 1-norm comes from the sparse A A^T, so the one m x m array is the
    # dense Gram matrix, factored in place
    import tracemalloc

    A = w1._layout_data(2, 4)[0]
    m = A.shape[0]
    tracemalloc.start()
    try:
        assert conic._full_row_rank(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * m * m * 8


# ---------------------------------------------------------------------------
# NT scaling, step length and corrector, stacked per block order
# ---------------------------------------------------------------------------

def _ref_factor(m):
    w, v = np.linalg.eigh(m)
    return v * np.sqrt(np.maximum(w, 1e-300))


def _ref_block(k, xb, sb):
    """NT scaling of one block, one matrix at a time."""
    lx = _ref_factor(smat(xb, k))
    ls = _ref_factor(smat(sb, k))
    u, sig, vh = np.linalg.svd(ls.conj().T @ lx)
    isqrt = 1.0 / np.sqrt(sig)
    R = lx @ vh.conj().T * isqrt
    Rinv = (isqrt[:, None] * u.conj().T) @ ls.conj().T
    return R, Rinv, sig


def _ref_step(k, R, Rinv, lam, dvb, primal):
    dM = smat(dvb, k)
    dhat = Rinv @ dM @ Rinv.conj().T if primal else R.conj().T @ dM @ R
    scaled = dhat / np.sqrt(np.outer(lam, lam))
    wmin = np.linalg.eigvalsh((scaled + scaled.conj().T) / 2.0).min()
    return -1.0 / wmin if wmin < 0 else np.inf


def _ref_corrector(k, R, Rinv, lam, dxb, dsb, sigma, mu):
    dxh = Rinv @ smat(dxb, k) @ Rinv.conj().T
    dsh = R.conj().T @ smat(dsb, k) @ R
    dmat = sigma * mu * np.eye(k) - np.diag(lam ** 2) - (dxh @ dsh + dsh @ dxh) / 2.0
    D = 2.0 * dmat / np.add.outer(lam, lam)
    return svec(R @ ((D + D.conj().T) / 2.0) @ R.conj().T)


def _interior_point(rng, cone):
    v = np.empty(cone.dim)
    for k, sl in zip(cone.blocks, cone.slices):
        v[sl] = svec(_random_hpd(rng, k))
    v[cone.lp_slice] = rng.uniform(0.5, 2.0, cone.lp_dim)
    return v


def _three_parts(rng):
    """The stack of three random programs, on a block of order 2, on blocks
    of orders 3 and 2 and two LP columns, and on one LP column: the cone
    (2, 3, 2) with an LP tail of 3, and its components."""
    stack = conic._stack([_random_program(rng, (2,), 0, 2), _random_program(rng, (3, 2), 2, 3),
                          _random_program(rng, (), 1, 1)])
    cone = conic._Cone(stack.psd_blocks, stack.lp_dim)
    comps = conic._Components(stack, cone)
    assert comps.count == 3
    assert comps.block.tolist() == [0, 1, 1] and comps.lp.tolist() == [1, 1, 2]
    return cone, comps


@pytest.mark.parametrize("seed", range(3))
def test_stacked_scaling_matches_per_block(seed):
    rng = np.random.default_rng(seed)
    cone, comps = _three_parts(rng)
    assert (cone.blocks, cone.lp_dim) == ([2, 3, 2], 3)
    assert [k for k, _ in cone.orders] == [2, 3]
    assert cone.members == [[0, 2], [1]]  # blocks of components 0 and 1
    x = _interior_point(rng, cone)
    s = _interior_point(rng, cone)
    scal = conic._Scaling(cone, comps, x, s)
    lp = cone.lp_slice
    refs = [_ref_block(k, x[sl], s[sl]) for k, sl in zip(cone.blocks, cone.slices)]
    for b, (R, Rinv, lam) in enumerate(refs):
        np.testing.assert_allclose(scal.Ws[cone.group[b]][cone.place[b]], R @ R.conj().T,
                                   rtol=0, atol=1e-12)

    v = rng.standard_normal(cone.dim)
    ref_G = np.empty(cone.dim)
    for (R, _, _), k, sl in zip(refs, cone.blocks, cone.slices):
        W = R @ R.conj().T
        ref_G[sl] = svec(W @ smat(v[sl], k) @ W)
    ref_G[lp] = x[lp] / s[lp] * v[lp]
    np.testing.assert_allclose(scal.apply_G(v), ref_G, rtol=0, atol=1e-12)

    # a direction on one block at a time checks each block's own step length,
    # reported for its component only
    for primal, point in ((True, x), (False, s)):
        for b, (k, sl) in enumerate(zip(cone.blocks, cone.slices)):
            # indefinite, so the block's step is finite
            h = _random_hermitian(rng, k)
            dv = np.zeros(cone.dim)
            dv[sl] = svec(h - (np.linalg.eigvalsh(h)[0] + 0.5) * np.eye(k))
            R, Rinv, lam = refs[b]
            ref = _ref_step(k, R, Rinv, lam, dv[sl], primal)
            assert np.isfinite(ref)
            got = scal.max_step(point, dv, primal)
            j = comps.block[b]
            assert abs(got[j] - ref) <= 1e-12 * ref
            assert np.all(np.isinf(np.delete(got, j)))
        dv = rng.standard_normal(cone.dim)
        # component 1's first LP column moves away from the boundary, which
        # must not bound its step; the LP-only component's column moves
        # towards it, so that its step is finite
        dv[lp.start], dv[lp.stop - 1] = abs(dv[lp.start]), -abs(dv[lp.stop - 1])
        got = scal.max_step(point, dv, primal)
        for j in range(comps.count):
            lp_j = np.flatnonzero(comps.lp == j)
            ratios = -point[lp][lp_j] / dv[lp][lp_j]
            ref = min([_ref_step(k, *refs[b], dv[sl], primal)
                       for b, (k, sl) in enumerate(zip(cone.blocks, cone.slices))
                       if comps.block[b] == j]
                      + [ratios[dv[lp][lp_j] < 0].min(initial=np.inf)])
            assert abs(got[j] - ref) <= 1e-12 * ref

    dxa = rng.standard_normal(cone.dim)
    dsa = rng.standard_normal(cone.dim)
    sigma, mu = np.array([0.3, 0.6, 0.45]), np.array([1.7, 0.9, 1.2])
    ref_rc = np.empty(cone.dim)
    for (R, Rinv, lam), k, sl, j in zip(refs, cone.blocks, cone.slices, comps.block):
        ref_rc[sl] = _ref_corrector(k, R, Rinv, lam, dxa[sl], dsa[sl], sigma[j], mu[j])
    w, lam_lp = np.sqrt(x[lp] / s[lp]), np.sqrt(x[lp] * s[lp])
    smu_lp = (sigma * mu)[comps.lp]
    ref_rc[lp] = w * (smu_lp - lam_lp ** 2 - dxa[lp] / w * dsa[lp] * w) / lam_lp
    np.testing.assert_allclose(scal.corrector(dxa, dsa, sigma * mu), ref_rc,
                               rtol=0, atol=1e-12)


def test_stacked_start_and_push_interior():
    rng = np.random.default_rng(5)
    cone = conic._Cone((2, 3, 2), 2)
    e = cone.start()
    v = rng.standard_normal(cone.dim)
    pushed = conic._push_interior(cone, v, floor=1e-3)
    for k, sl in zip(cone.blocks, cone.slices):
        np.testing.assert_array_equal(e[sl], svec(2.0 * np.eye(k)))
        w, vecs = np.linalg.eigh(smat(v[sl], k))
        ref = (vecs * np.maximum(w, 1e-3)) @ vecs.conj().T
        np.testing.assert_allclose(pushed[sl], svec(ref), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(e[cone.lp_slice], 1.0)
    np.testing.assert_array_equal(pushed[cone.lp_slice], np.maximum(v[cone.lp_slice], 1e-3))


def test_sdp_interleaved_orders_known_optimum():
    # min sum_i Tr[C_i X_i]  s.t.  Tr X_i = 1: the optimum is the sum of the
    # smallest eigenvalues of the C_i, at the projectors on their eigenvectors
    rng = np.random.default_rng(2)
    blocks = (3, 2, 3)
    cone = conic._Cone(blocks, 0)
    Cs = [_random_hermitian(rng, k) for k in blocks]
    A = np.zeros((len(blocks), cone.dim))
    c = np.zeros(cone.dim)
    for i, (k, sl, C) in enumerate(zip(blocks, cone.slices, Cs)):
        A[i, sl] = svec(np.eye(k))
        c[sl] = svec(C)
    sol = solve(ConicProblem(psd_blocks=blocks, lp_dim=0, A=A, b=np.ones(3), c=c))
    assert sol.optimal
    expected = sum(np.linalg.eigvalsh(C)[0] for C in Cs)
    assert abs(sol.primal_objective - expected) < 1e-7
    assert abs(sol.dual_objective - expected) < 1e-7
    for k, sl, C in zip(blocks, cone.slices, Cs):
        w, v = np.linalg.eigh(C)
        np.testing.assert_allclose(smat(sol.x[sl], k), np.outer(v[:, 0], v[:, 0].conj()),
                                   atol=1e-4)


# ---------------------------------------------------------------------------
# the parts of a stack, solved in lockstep as its components
# ---------------------------------------------------------------------------

def _random_program(rng, blocks, lp_dim, m):
    """A random program whose primal and dual are strictly feasible, so it
    has an optimum: b = A x0 and c = A^T y0 + s0 with x0, s0 interior."""
    cone = conic._Cone(blocks, lp_dim)
    A = rng.standard_normal((m, cone.dim))
    b = A @ _interior_point(rng, cone)
    c = A.T @ rng.standard_normal(m) + _interior_point(rng, cone)
    return ConicProblem(blocks, lp_dim, A, b, c)


def _three_programs(seed):
    """Three independent random programs, on blocks of orders 3 and 2, on
    two blocks of order 4 and on an LP tail, and their stack."""
    rng = np.random.default_rng(seed)
    solo = [_random_program(rng, (3, 2), 0, 6), _random_program(rng, (4, 4), 0, 9),
            _random_program(rng, (), 5, 3)]
    return solo, conic._stack(solo)


@pytest.mark.parametrize("seed", range(3))
def test_components_solved_in_lockstep_match_solo(seed):
    solo, joint = _three_programs(seed)
    cone = conic._Cone(joint.psd_blocks, joint.lp_dim)
    comps = conic._Components(joint, cone)
    assert comps.count == 3
    assert comps.block.tolist() == [0, 0, 1, 1] and comps.lp.tolist() == [2] * 5
    assert comps.coords == [slice(0, 13), slice(13, 45), slice(45, 50)]
    assert comps.rows == [slice(0, 6), slice(6, 15), slice(15, 18)]
    solo_sols = [solve(p) for p in solo]
    assert all(s.optimal for s in solo_sols)
    assert len({s.iterations for s in solo_sols}) > 1
    sol = solve(joint)
    assert sol.optimal
    assert sol.iterations == max(s.iterations for s in solo_sols)
    assert [p.iterations for p in sol.parts] == [s.iterations for s in solo_sols]
    for coords, rows, s, part in zip(comps.coords, comps.rows, solo_sols, sol.parts):
        assert sol.x[coords].tobytes() == s.x.tobytes()
        assert sol.y[rows].tobytes() == s.y.tobytes()
        assert sol.s[coords].tobytes() == s.s.tobytes()
        assert float(joint.c[coords] @ sol.x[coords]) == s.primal_objective
        assert (part.primal_objective, part.dual_objective, part.gap) == \
            (s.primal_objective, s.dual_objective, s.gap)


def test_csr_constraints_give_identical_bytes(monkeypatch):
    # a dense A is stored as CSR and solves to the bytes of the CSR input
    _, joint = _three_programs(0)
    for prob in (joint, _w1_problem(monkeypatch, n=3)):
        A = prob.A.toarray()
        dense = dataclasses.replace(prob, A=A)
        sparse = dataclasses.replace(prob, A=scipy.sparse.csr_matrix(A))
        for stored in (dense.A, sparse.A):
            assert scipy.sparse.issparse(stored) and stored.format == "csr"
            np.testing.assert_array_equal(stored.toarray(), A)
        a, b = solve(dense), solve(sparse)
        assert a.optimal and a.iterations == b.iterations
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.s.tobytes() == b.s.tobytes()


def test_failure_names_its_component():
    # two copies of the LP stacked, the second with a NaN cost
    base = _lp_problem()
    lps = [base, ConicProblem((), 2, base.A, base.b, np.array([np.nan, 0.0]))]
    sol = solve(conic._stack(lps))
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.component == 1
    assert sol.cause.startswith("component 2 of 2: non-finite mu")
    with pytest.raises(SolverFailure, match=r"^LP 2 ended with NumericalFailure "
                                            r"after 1 iterations: component 2 of 2"):
        conic._solved_batch(lps, ["LP 1", "LP 2"])


def test_stack_parts_must_add_up():
    rng = np.random.default_rng(6)
    psd = conic._stack([_random_program(rng, (3, 2), 0, 6), _random_program(rng, (4,), 0, 5)])
    lp = conic._stack([_random_program(rng, (), 5, 3), _random_program(rng, (), 4, 3)])
    assert len(psd.parts) == len(lp.parts) == 2
    for stack, parts in ((psd, psd.parts[:1]),  # rows and variables short
                         (psd, psd.parts[::-1]),  # blocks in another order
                         (lp, lp.parts[:1] * 2)):  # LP columns: 10, not 9
        with pytest.raises(DimensionMismatch, match="do not add up"):
            dataclasses.replace(stack, parts=parts)
    # a row that couples two parts
    coupled = psd.A.toarray()
    coupled[0, -1] = 1.0
    with pytest.raises(DimensionMismatch, match="reach outside its variables"):
        solve(dataclasses.replace(psd, A=coupled))


# ---------------------------------------------------------------------------
# classes of identical components: one stacked Schur pass and Cholesky
# ---------------------------------------------------------------------------

def _copies(seed, count, dense=True, lp=False):
    """count programs with one random constraint matrix, on blocks of orders
    3 and 2, or on an LP tail of 6 with lp, but their own b and c, each
    strictly feasible, their A handed to ConicProblem dense or as CSR.
    Returns the solo programs, their stack and each one's coordinates in
    it."""
    rng = np.random.default_rng(seed)
    blocks, lp_dim, m = ((), 6, 3) if lp else ((3, 2), 0, 7)
    A = _random_program(rng, blocks, lp_dim, m).A.toarray()
    cone = conic._Cone(blocks, lp_dim)
    solo = [ConicProblem(blocks, lp_dim, A if dense else scipy.sparse.csr_matrix(A),
                         A @ _interior_point(rng, cone),
                         A.T @ rng.standard_normal(m) + _interior_point(rng, cone))
            for _ in range(count)]
    joint = conic._stack(solo)
    cone = conic._Cone(joint.psd_blocks, joint.lp_dim)
    return solo, joint, conic._Components(joint, cone).coords


@pytest.mark.parametrize("dense", [True, False])
def test_identical_components_share_one_stacked_schur(dense):
    for lp in (False, True):
        solo, joint, _ = _copies(0, 4, dense, lp)
        cone = conic._Cone(joint.psd_blocks, joint.lp_dim)
        comps = conic._Components(joint, cone)
        assert comps.count == 4
        assert [members.tolist() for members in comps.classes] == [[0, 1, 2, 3]]
        bd = conic._BlockData(joint.A, cone, comps, comps.classes[0])
        assert [type(rows) for rows, _, _ in bd.blocks] == [conic._SparseRows] * (0 if lp else 2)
        rng = np.random.default_rng(1)
        scal = _Scal(cone, [_random_hpd(rng, k) for k in cone.blocks],
                     rng.uniform(0.5, 2.0, cone.lp_dim))
        M = conic._schur(bd, scal, np.arange(4))
        m = solo[0].A.shape[0]
        assert M.shape == (4, m, m)
        solo_cone = conic._Cone(solo[0].psd_blocks, solo[0].lp_dim)
        nb, nl = len(solo_cone.blocks), solo_cone.lp_dim
        for i, p in enumerate(solo):
            ref = _dense_schur(p.A.toarray(), solo_cone, scal.W[nb * i:nb * (i + 1)],
                               scal.w_lp[nl * i:nl * (i + 1)])
            np.testing.assert_allclose(M[i], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        # a subset of the members gives their matrices alone
        np.testing.assert_array_equal(conic._schur(bd, scal, np.array([1, 3])), M[[1, 3]])


@pytest.mark.parametrize("dense", [True, False])
def test_identical_components_match_solo_solves(dense):
    solo, joint, cols = _copies(1, 5, dense)
    sol = solve(joint)
    assert sol.optimal
    for p, col in zip(solo, cols):
        one = solve(p)
        assert one.optimal
        assert sol.x[col].tobytes() == one.x.tobytes()
        assert sol.s[col].tobytes() == one.s.tobytes()
        assert float(joint.c[col] @ sol.x[col]) == one.primal_objective


def test_member_whose_cholesky_fails_escalates_alone(monkeypatch):
    solo, joint, cols = _copies(2, 3)
    dpotrf = scipy.linalg.lapack.dpotrf
    clean, tried = [], []

    def spy(a, **kwargs):
        clean.append(a.copy())
        return dpotrf(a, **kwargs)

    def flaky_dpotrf(a, **kwargs):
        tried.append(a.copy())
        factor, info = dpotrf(a, **kwargs)
        # the second member's first try in the second iteration: in the
        # first the cold start gives every member the same Schur matrix.
        # It fails with the factor written, which the retry must undo
        return factor, 1 if len(tried) == 5 else info

    solve(joint)  # caches the rank verdict, so only Schur matrices reach dpotrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", spy)
    solve(joint)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", flaky_dpotrf)
    sol = solve(joint)
    assert sol.optimal
    # up to the failure the iterates are those of the clean solve; then the
    # second member alone retries one rung up, and the third member goes on
    # at the static regularization
    for i in range(5):
        np.testing.assert_array_equal(tried[i], clean[i])
    step = tried[5] - clean[4]
    np.testing.assert_array_equal(step - np.diag(np.diag(step)), 0.0)
    np.testing.assert_allclose(np.diag(step), 1e-10 - 1e-12, rtol=1e-2)
    np.testing.assert_array_equal(tried[6], clean[5])
    for i, j in ((3, 4), (4, 5), (3, 5)):  # three different members
        assert np.abs(clean[i] - clean[j]).max() > 1e-6
    for p, col in zip(solo, cols):
        one = solve(p)
        obj = float(joint.c[col] @ sol.x[col])
        assert abs(obj - one.primal_objective) <= 1e-9 * (1.0 + abs(one.primal_objective))


def test_member_past_the_ladder_names_its_component(monkeypatch):
    _, joint, _ = _copies(2, 3)
    dpotrf = scipy.linalg.lapack.dpotrf
    tried = []

    def dpotrf_first_only(a, **kwargs):
        tried.append(a)
        return dpotrf(a, **kwargs) if len(tried) == 1 else (a, 1)

    solve(joint)  # caches the rank verdict, so only Schur matrices reach dpotrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf_first_only)
    sol = solve(joint)
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.iterations == 1 and sol.component == 1
    assert sol.cause == ("component 2 of 3: Cholesky regularization past 1e-4 "
                         "(last tried 1.0e-04)")
    assert len(tried) == 6  # the first member once, the second on all five rungs


def test_failure_names_the_lowest_component_over_classes(monkeypatch):
    # components 1 and 3 form a class whose template comes first, and
    # component 2 is alone; when components 2 and 3 both fail, the report
    # names component 2, as a program without repeats would
    base = _lp_problem()
    other = ConicProblem((), 3, np.array([[1.0, 1.0, 1.0]]), np.array([2.0]),
                         np.array([1.0, 2.0, 3.0]))
    prob = conic._stack([base, other, base])
    dpotrf = scipy.linalg.lapack.dpotrf
    tried = []

    def dpotrf_first_only(a, **kwargs):
        tried.append(a)
        return dpotrf(a, **kwargs) if len(tried) == 1 else (a, 1)

    solve(prob)  # caches the rank verdicts, so only Schur matrices reach dpotrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf_first_only)
    sol = solve(prob)
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.component == 1
    assert sol.cause.startswith("component 2 of 3: Cholesky regularization past 1e-4")
    assert len(tried) == 11  # component 1 once, 3 and 2 on all five rungs


@pytest.mark.parametrize("dense", [True, False])
def test_stacked_schur_in_member_chunks(dense, monkeypatch):
    # temporaries limited to about two members' worth give the same stack
    _, joint, _ = _copies(4, 5, dense)
    cone = conic._Cone(joint.psd_blocks, joint.lp_dim)
    comps = conic._Components(joint, cone)
    bd = conic._BlockData(joint.A, cone, comps, comps.classes[0])
    rng = np.random.default_rng(5)
    scal = _Scal(cone, [_random_hpd(rng, k) for k in cone.blocks],
                 rng.uniform(0.5, 2.0, cone.lp_dim))
    whole = conic._schur(bd, scal, np.arange(5))
    batch = 2 * 7 * 9  # two members' terms of the order-3 block
    calls = []
    chunked = conic._chunks

    def spy(count, per_member):
        calls.append((count, per_member, chunked(count, per_member)))
        return calls[-1][2]

    monkeypatch.setattr(conic, "_SCHUR_BATCH", batch)
    monkeypatch.setattr(conic, "_chunks", spy)
    np.testing.assert_array_equal(conic._schur(bd, scal, np.arange(5)), whole)
    assert any(len(slices) > 1 for _, _, slices in calls)
    for count, per_member, slices in calls:
        sizes = [len(range(count)[sl]) for sl in slices]
        assert sum(sizes) == count
        assert max(sizes) * per_member <= batch or max(sizes) == 1


def test_template_data_is_built_once_per_key(monkeypatch):
    monkeypatch.setattr(conic, "_TEMPLATES", collections.OrderedDict())
    built = []
    schur_data = conic._SchurData

    def spy(*args):
        built.append(args[0].shape[0])
        return schur_data(*args)

    monkeypatch.setattr(conic, "_SchurData", spy)
    programs = [w1._w1_program(random_traceless(QuditLayout(2, 3), seed=s))[0]
                for s in (5, 6)]
    first = solve(programs[0])
    again = solve(programs[0])
    # the same rows as the parts of a stack share the solo program's data
    batch = conic._solved_batch(programs, ["a", "b"])
    assert built == [111]
    # data built afresh gives the same iterates, bit for bit
    monkeypatch.setattr(conic, "_TEMPLATES", collections.OrderedDict())
    fresh = solve(programs[0])
    assert built == [111, 111]
    for sol in (again, fresh, batch[0]):
        for part in ("x", "y", "s"):
            assert getattr(sol, part).tobytes() == getattr(first, part).tobytes()
    # past _TEMPLATE_CACHE keys the least recently used template goes
    monkeypatch.setattr(conic, "_TEMPLATE_CACHE", 2)
    for n in (2, 3, 2, 1):
        solve(w1._w1_program(random_traceless(QuditLayout(2, n), seed=1))[0])
    assert [key[0] for key in conic._TEMPLATES] == [(4,) * 4, (2,) * 2]


def test_rank_test_runs_once_per_class(monkeypatch):
    full_row_rank = conic._full_row_rank
    tested = []

    def spy(A):
        tested.append(A.shape[0])
        return full_row_rank(A)

    monkeypatch.setattr(conic, "_full_row_rank", spy)
    # templates that passed in earlier solves skip the test
    monkeypatch.setattr(conic, "_TEMPLATES", collections.OrderedDict())
    _, joint, _ = _copies(3, 4)
    assert solve(joint).optimal
    assert tested == [7]
    # the same rows alone, or again in the stack: the verdict is kept
    assert solve(_copies(3, 1)[0][0]).optimal and solve(joint).optimal
    assert tested == [7]

    # identical rank-deficient copies: one test, naming the first copy
    base = _lp_problem()
    deficient = ConicProblem((), 2, scipy.sparse.vstack([base.A, base.A]),
                             np.tile(base.b, 2), base.c)
    tested.clear()
    with pytest.raises(InvalidInput, match=r"^the 2 constraint rows of component 1 of 3 "
                                           r"and of its 2 identical components are not"):
        solve(conic._stack([deficient] * 3))
    assert tested == [2]

    # one deficient component among good ones: its own class, named alone
    mixed = conic._stack([base, base, deficient])
    tested.clear()
    with pytest.raises(InvalidInput, match=r"^the 2 constraint rows of component 3 of 3 "
                                           r"are not linearly independent"):
        solve(mixed)
    assert tested == [1, 2]


# ---------------------------------------------------------------------------
# batches of independent programs: _solved_batch
# ---------------------------------------------------------------------------

def test_batch_of_one_is_the_direct_solve(monkeypatch):
    w1 = _w1_problem(monkeypatch)
    hint = _interior_point(np.random.default_rng(2), conic._Cone(w1.psd_blocks, 0))
    for prob, x0 in ((_lp_problem(), None), (w1, hint)):
        (got,) = conic._solved_batch([prob], ["program"], x0s=None if x0 is None else [x0])
        want = solve(prob, x0=x0)
        assert want.optimal
        for name in ("x", "y", "s"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.primal_objective, got.dual_objective, got.gap, got.iterations) == \
            (want.primal_objective, want.dual_objective, want.gap, want.iterations)
    assert conic._solved_batch([], []) == []


@pytest.mark.parametrize("psd", [True, False])
def test_batch_members_match_solo_solves(psd):
    rng = np.random.default_rng(8)
    shapes = [((3, 2), 0, 6), ((4,), 0, 5), ((3, 2), 0, 6)] if psd else \
        [((), 5, 3), ((), 4, 2), ((), 5, 3)]
    programs = [_random_program(rng, *shape) for shape in shapes]
    hints = [_interior_point(rng, conic._Cone(p.psd_blocks, p.lp_dim)) for p in programs]
    solo = [solve(p, x0=h) for p, h in zip(programs, hints)]
    assert all(s.optimal for s in solo)
    assert len({s.iterations for s in solo}) > 1
    batch = conic._solved_batch(programs, ["a", "b", "c"], x0s=hints)
    for p, want, got in zip(programs, solo, batch):
        assert got.optimal and got.iterations == want.iterations
        for name in ("x", "y", "s"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.primal_objective == want.primal_objective
        assert got.dual_objective == want.dual_objective
        scale = 1.0 + abs(want.primal_objective)
        assert abs(got.primal_objective - p.c @ got.x) <= 1e-12 * scale
        assert abs(got.dual_objective - p.b @ got.y) <= 1e-12 * scale
        np.testing.assert_allclose(p.A @ got.x, p.b, atol=1e-7 * (1 + abs(p.b).max()))
        assert got.gap <= 1e-8 and got.primal_residual <= 1e-8 and got.dual_residual <= 1e-8


def test_batched_program_equals_its_solo_solve_in_every_field():
    # each program's residuals are its own, not the largest of its run
    programs = [w1._w1_program(random_traceless(QuditLayout(2, 2), seed=s))[0]
                for s in (1, 2, 3)]
    batch = conic._solved_batch(programs, ["1", "2", "3"])
    assert len(batch) == 3
    for prob, got in zip(programs, batch):
        (want,) = conic._solved_batch([prob], ["solo"])
        for name in ("x", "y", "s"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("primal_objective", "dual_objective", "gap", "primal_residual",
                     "dual_residual", "iterations"):
            assert getattr(got, name) == getattr(want, name), name


ISOLATION_LAYOUTS = [(2, 1), (2, 2), (2, 3), (3, 2)]


def _library_programs(kind, seed):
    """Three programs of one kind per layout of ISOLATION_LAYOUTS, layouts
    interleaved, as the library builds them: (problem, x0 hint) pairs.  W1
    primals carry their telescoping hint; Lipschitz site programs, n per
    operator, exist from n = 2 on; transport LPs come as primals and duals
    of random pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        for d, n in ISOLATION_LAYOUTS:
            lay = QuditLayout(d, n)
            if kind == "w1":
                x = random_traceless(lay, seed=rng)
                hint = np.concatenate([svec(part) for xi in w1._telescoping_hint(x)
                                       for part in w1._positive_parts(xi)])
                out.append((w1._w1_program(x)[0], hint))
            elif kind == "lipschitz" and n > 1:
                out += [(p, None) for p in _lipschitz_programs(random_traceless(lay, seed=rng))]
            elif kind in ("transport", "transport-dual"):
                p, q = (Distribution(lay, rng.dirichlet(np.ones(lay.dim))) for _ in range(2))
                if kind == "transport":
                    A, c = classical._coupling_rows(d, n)
                    b = np.concatenate([p.weights, q.weights])[:-1]
                else:
                    A, c = classical._flow_rows(d, n)
                    b = (p.weights - q.weights)[1:]
                out.append((ConicProblem((), A.shape[1], A, b, c), None))
    return out


@pytest.mark.parametrize("kind", ["w1", "lipschitz", "transport", "transport-dual"])
def test_batched_library_programs_equal_their_single_solves(kind):
    # every program of a batch ends at the bytes and the iteration count of
    # its own solve, whatever its layout and size
    programs = _library_programs(kind, seed=len(kind))
    hints = [hint for _, hint in programs]
    batch = conic._solved_batch([p for p, _ in programs], [kind] * len(programs),
                                x0s=None if hints[0] is None else hints)
    assert len(conic._batch_chunks([p.A.shape for p, _ in programs])) == 1
    for (prob, hint), got in zip(programs, batch):
        want = solve(prob, x0=hint)
        assert want.optimal and got.optimal
        assert got.iterations == want.iterations
        for name in ("x", "y", "s"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.primal_objective, got.dual_objective) == \
            (want.primal_objective, want.dual_objective)


def test_batch_failure_names_its_program(monkeypatch):
    base = _lp_problem()
    bad = ConicProblem((), 2, base.A, base.b, np.array([np.nan, 0.0]))
    with pytest.raises(SolverFailure, match=r"^LP 3 ended with NumericalFailure "
                                            r"after 1 iterations: component 3 of 3"):
        conic._solved_batch([base, base, bad], ["LP 1", "LP 2", "LP 3"])
    # one program per run: the failing run is a stack of one part
    monkeypatch.setattr(conic, "_BATCH_ENTRIES", 1)
    with pytest.raises(SolverFailure, match=r"^LP 2 ended with NumericalFailure "
                                            r"after 1 iterations: non-finite mu"):
        conic._solved_batch([base, bad, base], ["LP 1", "LP 2", "LP 3"])


def test_batch_refuses_psd_and_lp_programs_together(monkeypatch):
    rng = np.random.default_rng(4)
    lp, w1 = _lp_problem(), _w1_problem(monkeypatch)
    both = _random_program(rng, (2,), 1, 2)
    for mix in ([w1, lp], [lp, w1], [both, both]):
        with pytest.raises(InvalidInput, match="PSD-only or LP-only"):
            conic._solved_batch(mix, ["first", "second"])
    assert conic._solved_batch([both], ["alone"])[0].optimal
    # refused before any solve, also where the two kinds would land in
    # different runs
    monkeypatch.setattr(conic, "_BATCH_ENTRIES", 1)
    mix = [lp, lp, w1]
    assert conic._batch_chunks([p.A.shape for p in mix]) == [[0], [1], [2]]
    monkeypatch.setattr(conic, "solve", lambda *args, **kwargs: pytest.fail("solved"))
    with pytest.raises(InvalidInput, match="PSD-only or LP-only"):
        conic._solved_batch(mix, ["first", "second", "third"])


def test_batch_chunks_bound_the_memory_of_a_run(monkeypatch):
    monkeypatch.setattr(conic, "_BATCH_ENTRIES", 100)
    # m (v + 2 m) entries each: (1, 8) 10, (2, 21) 50, (5, 10) 100, (3, 40) 138
    assert conic._batch_chunks([(1, 8)] * 12) == [list(range(10)), [10, 11]]
    assert conic._batch_chunks([(2, 21), (2, 21), (1, 8), (5, 10), (3, 40), (1, 8)]) == \
        [[0, 1], [2], [3], [4], [5]]
    assert conic._batch_chunks([]) == []
