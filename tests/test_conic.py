"""Tests for the interior-point conic solver on tiny hand-checkable problems."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from qw1 import HermitianOperator, QuditLayout, conic, random_density, w1_primal
from qw1.conic import (
    ConicProblem,
    SolverOptions,
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


def test_iteration_cap_reports_status():
    sol = solve(_lp_problem(), SolverOptions(max_iterations=1))
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


def _no_cholesky(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_failure_names_cholesky_regularization(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "cho_factor", _no_cholesky)
    sol = solve(_lp_problem())
    assert sol.status is SolverStatus.NumericalFailure
    assert sol.iterations == 1
    with pytest.raises(SolverFailure, match=r"Cholesky regularization past 1e-4 "
                                            r"\(last tried 1\.0e-04\)"):
        conic._solved(_lp_problem(), "test LP")


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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("use_sparse", [True, False])
def test_schur_matches_dense_formula(seed, use_sparse, monkeypatch):
    rng = np.random.default_rng(seed)
    blocks = (3, 6, 1, 5)[: 2 + seed % 3]
    lp_dim = (0, 3)[seed % 2]
    cone, A = _structured_rows(rng, blocks, lp_dim, untouched=seed % len(blocks))
    monkeypatch.setattr(conic, "_sparse_schur_pays", lambda *args: use_sparse)
    bd = conic._BlockData(scipy.sparse.csr_matrix(A), cone)
    formula = conic._SparseRows if use_sparse else conic._DenseRows
    assert bd.entries[seed % len(blocks)] is None
    assert all(isinstance(e, formula) for e in bd.entries if e is not None)

    class Scal:
        W = [_random_hpd(rng, k) for k in blocks]
        w_lp = rng.uniform(0.5, 2.0, lp_dim)

    M = conic._schur(bd, Scal, A.shape[0])
    ref = _dense_schur(A, cone, Scal.W, Scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(M, M.T)


@pytest.mark.parametrize("use_sparse", [True, False])
def test_schur_on_w1_program(use_sparse, monkeypatch):
    prob = _w1_problem(monkeypatch)
    monkeypatch.setattr(conic, "_sparse_schur_pays", lambda *args: use_sparse)
    cone = conic._Cone(prob.psd_blocks, prob.lp_dim)
    bd = conic._BlockData(scipy.sparse.csr_matrix(prob.A), cone)
    rng = np.random.default_rng(7)

    class Scal:
        W = [_random_hpd(rng, k) for k in prob.psd_blocks]
        w_lp = np.ones(0)

    imag = np.flatnonzero(conic._coords(prob.psd_blocks[0]).imag)
    assert np.any(prob.A[:, imag] != 0.0)

    M = conic._schur(bd, Scal, prob.A.shape[0])
    ref = _dense_schur(prob.A, cone, Scal.W, Scal.w_lp)
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# full row rank
# ---------------------------------------------------------------------------

def test_full_rank_accepted_and_repeated_row_refused(monkeypatch):
    prob = _w1_problem(monkeypatch, n=3)
    assert solve(prob).optimal
    repeated = ConicProblem(prob.psd_blocks, prob.lp_dim,
                            np.vstack([prob.A, prob.A[5]]), np.append(prob.b, prob.b[5]),
                            prob.c)
    with pytest.raises(InvalidInput, match="not linearly independent"):
        solve(repeated)


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


@pytest.mark.parametrize("seed", range(3))
def test_stacked_scaling_matches_per_block(seed):
    rng = np.random.default_rng(seed)
    cone = conic._Cone((2, 3, 2), 3)
    assert [k for k, _ in cone.orders] == [2, 3]
    assert cone.members == [[0, 2], [1]]
    x = _interior_point(rng, cone)
    s = _interior_point(rng, cone)
    scal = conic._Scaling(cone, x, s)
    lp = cone.lp_slice
    refs = [_ref_block(k, x[sl], s[sl]) for k, sl in zip(cone.blocks, cone.slices)]
    for b, (R, Rinv, lam) in enumerate(refs):
        np.testing.assert_allclose(scal.W[b], R @ R.conj().T, rtol=0, atol=1e-12)

    v = rng.standard_normal(cone.dim)
    ref_G = np.empty(cone.dim)
    for (R, _, _), k, sl in zip(refs, cone.blocks, cone.slices):
        W = R @ R.conj().T
        ref_G[sl] = svec(W @ smat(v[sl], k) @ W)
    ref_G[lp] = x[lp] / s[lp] * v[lp]
    np.testing.assert_allclose(scal.apply_G(v), ref_G, rtol=0, atol=1e-12)

    # a direction on one block at a time checks each block's own step length
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
            assert abs(got - ref) <= 1e-12 * ref
        dv = rng.standard_normal(cone.dim)
        ref = min([_ref_step(k, *refs[b], dv[sl], primal)
                   for b, (k, sl) in enumerate(zip(cone.blocks, cone.slices))]
                  + [(-point[lp] / dv[lp])[dv[lp] < 0].min(initial=np.inf)])
        assert abs(scal.max_step(point, dv, primal) - ref) <= 1e-12 * ref

    dxa = rng.standard_normal(cone.dim)
    dsa = rng.standard_normal(cone.dim)
    sigma, mu = 0.3, float(x @ s) / cone.nu
    ref_rc = np.empty(cone.dim)
    for (R, Rinv, lam), k, sl in zip(refs, cone.blocks, cone.slices):
        ref_rc[sl] = _ref_corrector(k, R, Rinv, lam, dxa[sl], dsa[sl], sigma, mu)
    w, lam_lp = np.sqrt(x[lp] / s[lp]), np.sqrt(x[lp] * s[lp])
    ref_rc[lp] = w * (sigma * mu - lam_lp ** 2 - dxa[lp] / w * dsa[lp] * w) / lam_lp
    np.testing.assert_allclose(scal.corrector(dxa, dsa, sigma, mu), ref_rc,
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
