import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from qw1.errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    NotAState,
    NotHermitian,
    NotTraceless,
)
from qw1.operators import (
    _lift,
    _trace_out,
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    dephase,
    dim_cap,
    embed_operator,
    haar_unitary,
    load_operator,
    matrix_from_json,
    matrix_to_json,
    maximally_entangled,
    maximally_mixed,
    operator_from_json,
    operator_norm,
    operator_to_json,
    partial_trace,
    permute_sites,
    random_density,
    random_traceless,
    relative_entropy,
    replace_with_maximally_mixed,
    save_operator,
    tensor_product,
    trace_norm,
    von_neumann_entropy,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_layout_basics():
    lay = QuditLayout(2, 3)
    assert lay.dim == 8
    assert list(lay.sites()) == [1, 2, 3]
    assert lay.check_site(2) == 2
    with pytest.raises(IndexOutOfRange):
        lay.check_site(0)
    with pytest.raises(IndexOutOfRange):
        lay.check_site(4)


def test_layout_validation():
    with pytest.raises(DimensionMismatch):
        QuditLayout(1, 2)
    with pytest.raises(DimensionMismatch):
        QuditLayout(2, 0)
    with pytest.raises(CapExceeded):
        QuditLayout(2, 6)  # 64 > 32


def test_cap_env(monkeypatch):
    monkeypatch.setenv("QW1_DIM_CAP", "64")
    assert dim_cap() == 64
    QuditLayout(2, 6)
    monkeypatch.setenv("QW1_DIM_CAP", "8")
    with pytest.raises(CapExceeded):
        QuditLayout(2, 4)
    monkeypatch.setenv("QW1_DIM_CAP", "junk")
    with pytest.raises(InvalidInput):
        dim_cap()


def test_hermitian_symmetrization_and_rejection():
    lay = QuditLayout(2, 1)
    # tiny skew part is absorbed
    m = np.array([[1.0, 1e-12j], [0.0, -1.0]])
    h = HermitianOperator(lay, m)
    assert np.abs(h.matrix - h.matrix.conj().T).max() == 0.0
    with pytest.raises(NotHermitian):
        HermitianOperator(lay, np.array([[0, 1], [0, 0]], dtype=complex))


def test_density_validation():
    lay = QuditLayout(2, 1)
    with pytest.raises(NotAState):
        DensityMatrix(lay, np.diag([1.5, -0.5]))
    with pytest.raises(NotAState):
        DensityMatrix(lay, np.diag([0.6, 0.6]))
    rho = DensityMatrix(lay, np.diag([0.25, 0.75]))
    assert rho.eigenvalues().min() >= 0.0


def test_arithmetic_and_traceless():
    lay = QuditLayout(2, 1)
    x = HermitianOperator(lay, SZ)
    y = x + x
    assert np.allclose(y.matrix, 2 * SZ)
    assert np.allclose((2.5 * x).matrix, 2.5 * SZ)
    assert np.allclose((x - x).matrix, 0)
    x.require_traceless()
    with pytest.raises(NotTraceless):
        HermitianOperator(lay, np.eye(2)).require_traceless()


def test_partial_trace_product():
    a = DensityMatrix(QuditLayout(2, 1), np.diag([0.3, 0.7]))
    b = DensityMatrix(QuditLayout(2, 1), np.diag([0.9, 0.1]))
    ab = tensor_product(a, b)
    assert isinstance(ab, DensityMatrix)
    assert np.allclose(partial_trace(ab, 2).matrix, a.matrix)
    assert np.allclose(partial_trace(ab, 1).matrix, b.matrix)


def test_partial_trace_entangled_and_multisite():
    gam = maximally_entangled(2)
    assert np.allclose(partial_trace(gam, 1).matrix, np.eye(2) / 2)
    assert np.allclose(partial_trace(gam, 2).matrix, np.eye(2) / 2)
    lay = QuditLayout(2, 3)
    rho = random_density(lay, seed=3)
    m12 = partial_trace(rho, [1, 2])
    assert m12.layout == QuditLayout(2, 1)
    assert abs(m12.trace() - 1.0) < 1e-12
    # iterated single-site traces agree
    assert np.allclose(partial_trace(partial_trace(rho, 1), 1).matrix, m12.matrix)
    with pytest.raises(IndexOutOfRange):
        partial_trace(m12, 1)  # cannot trace out every site


def test_partial_trace_linear():
    lay = QuditLayout(2, 2)
    x = random_traceless(lay, seed=0)
    y = random_traceless(lay, seed=1)
    lhs = partial_trace(x + 2.0 * y, 2).matrix
    rhs = partial_trace(x, 2).matrix + 2.0 * partial_trace(y, 2).matrix
    assert np.abs(lhs - rhs).max() < 1e-12


def test_embed_ordering():
    # site 1 is the most significant factor
    lay = QuditLayout(2, 2)
    z1 = embed_operator(HermitianOperator(QuditLayout(2, 1), SZ), lay, [1])
    assert np.allclose(z1.matrix, np.kron(SZ, np.eye(2)))
    z2 = embed_operator(HermitianOperator(QuditLayout(2, 1), SZ), lay, [2])
    assert np.allclose(z2.matrix, np.kron(np.eye(2), SZ))


def test_embed_noncontiguous():
    lay = QuditLayout(2, 3)
    two = HermitianOperator(QuditLayout(2, 2), np.kron(SX, SZ))
    got = embed_operator(two, lay, [1, 3])
    want = np.kron(SX, np.kron(np.eye(2), SZ))
    assert np.abs(got.matrix - want).max() < 1e-12
    # reversed support order permutes the factors
    got_rev = embed_operator(two, lay, [3, 1])
    want_rev = np.kron(SZ, np.kron(np.eye(2), SX))
    assert np.abs(got_rev.matrix - want_rev).max() < 1e-12


def test_permute_sites():
    a = random_density(QuditLayout(2, 1), seed=10)
    b = random_density(QuditLayout(2, 1), seed=11)
    ab = tensor_product(a, b)
    ba = permute_sites(ab, [2, 1])
    assert np.allclose(ba.matrix, tensor_product(b, a).matrix)
    assert np.allclose(permute_sites(ba, [2, 1]).matrix, ab.matrix)


def test_basis_state_digits():
    lay = QuditLayout(2, 2)
    s = basis_state(lay, [1, 0])
    m = np.zeros((4, 4))
    m[2, 2] = 1.0  # |10> is index 2 with site 1 most significant
    assert np.allclose(s.matrix, m)
    with pytest.raises(IndexOutOfRange):
        basis_state(lay, [2, 0])
    with pytest.raises(DimensionMismatch):
        basis_state(lay, [0])


def test_trace_norm_values():
    gam = maximally_entangled(2)
    mix = maximally_mixed(QuditLayout(2, 2))
    assert abs(trace_norm(gam.matrix - mix.matrix) - 1.5) < 1e-12
    assert abs(operator_norm(gam.matrix - mix.matrix) - 0.75) < 1e-12
    x = random_traceless(QuditLayout(2, 2), seed=4)
    assert operator_norm(x.matrix) <= trace_norm(x.matrix) + 1e-12
    assert trace_norm(x.matrix) <= 4 * operator_norm(x.matrix) + 1e-12


def test_entropies():
    rho = DensityMatrix(QuditLayout(2, 1), np.diag([0.25, 0.75]))
    assert abs(von_neumann_entropy(rho) - 0.5623351446188083) < 1e-12
    pure = basis_state(QuditLayout(2, 1), [0])
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    gam = maximally_entangled(2)
    mix = maximally_mixed(QuditLayout(2, 2))
    assert abs(relative_entropy(gam, mix) - 2 * math.log(2)) < 1e-10
    # support violation -> +inf
    assert math.isinf(relative_entropy(mix, gam))


def test_dephase_and_replace():
    lay = QuditLayout(2, 1)
    x = HermitianOperator(lay, SX)
    assert np.abs(dephase(x).matrix).max() < 1e-12
    rho = random_density(QuditLayout(2, 2), seed=5)
    e1 = replace_with_maximally_mixed(rho, 1)
    assert abs(e1.trace() - 1.0) < 1e-12
    assert np.allclose(partial_trace(e1, 2).matrix, np.eye(2) / 2)
    one = random_density(lay, seed=6)
    assert np.allclose(replace_with_maximally_mixed(one, 1).matrix, np.eye(2) / 2)


def test_random_generators_deterministic():
    lay = QuditLayout(2, 2)
    assert np.array_equal(random_density(lay, seed=9).matrix,
                          random_density(lay, seed=9).matrix)
    assert np.array_equal(random_traceless(lay, seed=9).matrix,
                          random_traceless(lay, seed=9).matrix)
    assert np.array_equal(haar_unitary(4, seed=9), haar_unitary(4, seed=9))
    u = haar_unitary(4, seed=9)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    pure = random_density(lay, rank=1, seed=12)
    assert von_neumann_entropy(pure) < 1e-9
    assert abs(random_traceless(lay, seed=13).trace()) < 1e-12


def test_random_density_mean():
    lay = QuditLayout(2, 1)
    rng = np.random.default_rng(1)
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(10_000):
        acc += random_density(lay, seed=rng).matrix
    assert np.abs(acc / 10_000 - np.eye(2) / 2).max() < 5e-2


def test_json_roundtrip(tmp_path):
    rho = random_density(QuditLayout(2, 2), seed=20)
    payload = operator_to_json(rho)
    back = operator_from_json(payload, as_state=True)
    assert isinstance(back, DensityMatrix)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-15
    path = tmp_path / "rho.json"
    save_operator(path, rho)
    again = load_operator(path, as_state=True)
    assert np.abs(again.matrix - rho.matrix).max() < 1e-15


def test_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        operator_from_json({"d": 2, "n": 1})
    with pytest.raises(InvalidInput):
        matrix_from_json([[[0.0], [0.0]]])
    bad = {"d": 2, "n": 1, "matrix": [[[0.0, 0.0]], [[0.0, 0.0]]]}
    with pytest.raises(InvalidInput):
        operator_from_json(bad)
    ok = matrix_to_json(np.eye(2))
    assert json.loads(json.dumps(ok)) == ok


def _bits(rows):
    return [[[(type(x), struct.pack("<d", x)) for x in z] for z in row] for row in rows]


@pytest.mark.parametrize("order", [1, 27])
def test_matrix_to_json_keeps_types_bits_and_signed_zeros(order):
    rng = np.random.default_rng(order)
    for _ in range(8):
        parts = rng.standard_normal((2, order, order))
        zeros = rng.integers(0, 3, parts.shape)    # 1 -> +0.0, 2 -> -0.0
        parts[zeros == 1] = 0.0
        parts[zeros == 2] = -0.0
        m = np.empty((order, order), dtype=complex)
        m.real, m.imag = parts
        # the comprehension matrix_to_json replaced
        old = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert _bits(matrix_to_json(m)) == _bits(old)


def test_json_layout_fields_must_be_integers():
    rows = matrix_to_json(np.eye(2) / 2)
    for field, bad in (("d", 2.7), ("n", 1.9), ("n", True), ("d", "2"), ("d", None)):
        payload = {"d": 2, "n": 1, "matrix": rows, field: bad}
        with pytest.raises(InvalidInput, match=f"'{field}' must be an integer"):
            operator_from_json(payload)
    # an integral float is a JSON integer
    assert operator_from_json({"d": 2.0, "n": 1.0, "matrix": rows}).layout == QuditLayout(2, 1)


def test_every_fixture_loads():
    from qw1.classical import distribution_from_json

    paths = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
    assert len(paths) == 21
    for path in paths:
        payload = json.loads(path.read_text())
        loaded = (distribution_from_json if "weights" in payload else operator_from_json)(payload)
        assert loaded.layout == QuditLayout(payload["d"], payload["n"])


# References for the two stacked site maps: the partial trace and the
# embedding of one matrix, and the identity lift of qw1.w1 on stacks, as they
# were written before _trace_out and _lift replaced them.

def _partial_trace_reference(m, d, n, gone):
    """m traced over the 1-based sites gone, highest first."""
    t = m.reshape((d,) * (2 * n))
    n_left = n
    for i in sorted(gone, reverse=True):
        t = np.trace(t, axis1=i - 1, axis2=n_left + i - 1)
        n_left -= 1
    return t.reshape(d ** n_left, d ** n_left)


def _embed_reference(small, d, n, sites):
    """small on the 1-based sites, in that order, tensored with the identity."""
    rest = [i for i in range(1, n + 1) if i not in sites]
    big = np.kron(small, np.eye(d ** len(rest), dtype=complex))
    order = list(sites) + rest
    inv = [order.index(i) + 1 for i in range(1, n + 1)]
    axes = [p - 1 for p in inv] + [n + p - 1 for p in inv]
    return big.reshape((d,) * (2 * n)).transpose(axes).reshape(d ** n, d ** n)


def _identity_on_site_reference(ks, d, i):
    """I_i (x) K for each K of the stack ks, on the sites but the 0-based i."""
    B, k, _ = ks.shape
    a = d ** i
    b = k // a
    out = np.zeros((B, a, d, b, a, d, b), dtype=complex)
    src = ks.reshape(B, a, b, a, b)
    for r in range(d):
        out[:, :, r, :, :, r, :] = src
    return out.reshape(B, k * d, k * d)


SITE_MAP_LAYOUTS = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2)]


def _stack(rng, count, dim):
    return rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))


def _subsets(n):
    return [list(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]


@pytest.mark.parametrize("d,n", SITE_MAP_LAYOUTS)
def test_trace_out_is_the_reference_partial_trace_bit_for_bit(d, n):
    rng = np.random.default_rng(10 * d + n)
    ms = _stack(rng, 3, d ** n)
    for keep in _subsets(n):
        got = _trace_out(ms, d, n, keep)
        gone = [j + 1 for j in range(n) if j not in keep]
        for m, g in zip(ms, got):
            assert np.array_equal(g, _partial_trace_reference(m, d, n, gone)), keep


@pytest.mark.parametrize("d,n", SITE_MAP_LAYOUTS)
def test_lift_is_both_reference_lifts_bit_for_bit(d, n):
    rng = np.random.default_rng(20 * d + n)
    for keep in _subsets(n):
        k = len(keep)
        for sites in itertools.permutations(keep):
            ks = _stack(rng, 3, d ** k)
            got = _lift(ks, d, n, list(sites))
            for small, g in zip(ks, got):
                assert np.array_equal(g, _embed_reference(small, d, n, [s + 1 for s in sites]))
        if k == n - 1:
            (i,) = set(range(n)) - set(keep)
            ks = _stack(rng, 3, d ** k)
            assert np.array_equal(_lift(ks, d, n, keep), _identity_on_site_reference(ks, d, i))


@pytest.mark.parametrize("d,n", SITE_MAP_LAYOUTS)
def test_lift_is_the_adjoint_of_trace_out(d, n):
    """Tr[A lift(B)] = Tr[trace_out(A) B] for every kept subset."""
    rng = np.random.default_rng(30 * d + n)
    for keep in _subsets(n):
        a = _stack(rng, 3, d ** n)
        b = _stack(rng, 3, d ** len(keep))
        a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
        b /= np.linalg.norm(b, axis=(1, 2), keepdims=True)
        lhs = np.einsum("bij,bji->b", a, _lift(b, d, n, keep))
        rhs = np.einsum("bij,bji->b", _trace_out(a, d, n, keep), b)
        assert np.abs(lhs - rhs).max() <= 1e-12, keep


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_out_of_the_only_site_is_the_trace(d):
    ms = _stack(np.random.default_rng(d), 4, d)
    got = _trace_out(ms, d, 1, [])
    assert got.shape == (4, 1, 1)
    assert np.array_equal(got[:, 0, 0], [np.trace(m) for m in ms])
    assert np.array_equal(_trace_out(ms[0], d, 1, []), np.trace(ms[0]).reshape(1, 1))
    # its lift is the trace times the identity
    assert np.array_equal(_lift(got, d, 1, []), got * np.eye(d))
