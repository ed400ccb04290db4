"""Channels: Kraus maps, norms between channels, contraction of transport."""

import numpy as np
import pytest

from qw1.channels import (
    Circuit,
    KrausChannel,
    _random_channel,
    amplitude_damping,
    channel_from_json,
    depolarizing,
    diamond_norm,
    embed_channel,
    empirical_contraction,
    fixed_point,
    light_cone_bound,
    one_to_one_norm,
    replacer,
    tensor_power_contraction_bounds,
)
from qw1.errors import (
    DimensionMismatch,
    InvalidInput,
    NotTracePreserving,
    NotUnitary,
    ParameterRange,
)
from qw1.operators import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    haar_unitary,
    maximally_mixed,
    partial_trace,
    random_density,
    trace_norm,
)
from qw1.w1 import w1_primal

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
Q1 = QuditLayout(2, 1)


def test_trace_preservation_enforced():
    with pytest.raises(NotTracePreserving):
        KrausChannel(Q1, [np.eye(2), 0.1 * SX])
    with pytest.raises(DimensionMismatch):
        KrausChannel(Q1, [np.eye(3)])


def test_amplitude_damping_pauli_action():
    p = 0.3
    ch = amplitude_damping(p)
    rp = np.sqrt(p)
    np.testing.assert_allclose(ch.apply_matrix(SX), rp * SX, atol=1e-14)
    np.testing.assert_allclose(ch.apply_matrix(SY), rp * SY, atol=1e-14)
    np.testing.assert_allclose(ch.apply_matrix(SZ), p * SZ, atol=1e-14)
    np.testing.assert_allclose(ch.apply_matrix(np.eye(2)), np.eye(2) + (1 - p) * SZ,
                               atol=1e-14)


def test_amplitude_damping_fixed_point():
    ch = amplitude_damping(0.25)
    omega = fixed_point(ch)
    np.testing.assert_allclose(omega.matrix, np.diag([1.0, 0.0]), atol=1e-9)


def test_identity_channel_and_fixed_point_invariance():
    lay = QuditLayout(2, 2)
    ident = KrausChannel(lay, [np.eye(lay.dim)])
    rho = random_density(lay, seed=4)
    np.testing.assert_allclose(ident.apply(rho).matrix, rho.matrix, atol=1e-14)
    ch = _random_channel(QuditLayout(2, 1), np.random.default_rng(9))
    omega = fixed_point(ch)
    assert trace_norm(ch.apply(omega).matrix - omega.matrix) < 1e-8


def test_random_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(21)
    for d in (2, 3):
        ch = _random_channel(QuditLayout(d, 1), rng)
        acc = sum(k.conj().T @ k for k in ch.kraus)
        np.testing.assert_allclose(acc, np.eye(d), atol=1e-12)
        rho = random_density(QuditLayout(d, 1), seed=22)
        out = ch.apply(rho)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-12


def test_choi_marginal_is_identity():
    qubit = QuditLayout(2, 1)
    for ch in (amplitude_damping(0.4), _random_channel(qubit, np.random.default_rng(1))):
        j = ch.choi()
        assert j.layout == QuditLayout(2, 2)
        np.testing.assert_allclose(partial_trace(j, 1).matrix, np.eye(2), atol=1e-12)
    # identity channel: unnormalized maximally entangled state
    j = KrausChannel(Q1, [np.eye(Q1.dim)]).choi()
    v = np.eye(2).ravel()
    np.testing.assert_allclose(j.matrix, np.outer(v, v), atol=1e-14)


def test_tensor_power_acts_factorwise():
    ch = amplitude_damping(0.1)
    ch2 = ch.tensor_power(2)
    assert len(ch2.kraus) == len(ch.kraus) ** 2
    a = random_density(Q1, seed=1)
    b = random_density(Q1, seed=2)
    prod = np.kron(a.matrix, b.matrix)
    np.testing.assert_allclose(
        ch2.apply_matrix(prod),
        np.kron(ch.apply_matrix(a.matrix), ch.apply_matrix(b.matrix)),
        atol=1e-13,
    )


def test_embed_channel_hits_declared_site():
    lay = QuditLayout(2, 2)
    emb = embed_channel(replacer(DensityMatrix(Q1, np.diag([1.0, 0.0]))), lay, [2])
    rho = basis_state(lay, [1, 1])
    out = emb.apply(rho)
    np.testing.assert_allclose(out.matrix, basis_state(lay, [1, 0]).matrix, atol=1e-12)


# --- norms between channels -------------------------------------------------

def test_one_to_one_norm_vanishes_on_equal_channels():
    ch = amplitude_damping(0.2)
    assert one_to_one_norm(ch, ch) < 1e-9


def test_one_to_one_norm_amplitude_damping_vs_replacer():
    ch = amplitude_damping(0.1)
    val = one_to_one_norm(ch, replacer(fixed_point(ch)))
    # maximized by a pure state tilted toward the equator, value sqrt(1/9)
    assert abs(val - 1.0 / 3.0) < 1e-6
    # against the identity the worst input is |1>, paying 2(1-p)
    assert abs(one_to_one_norm(ch, KrausChannel(Q1, [np.eye(Q1.dim)])) - 1.8) < 1e-6


def test_one_to_one_norm_replacer_pair():
    p = 0.3
    omega = DensityMatrix(Q1, np.diag([1.0, 0.0]))
    ep = depolarizing(p, omega)
    e0 = replacer(omega)
    assert abs(one_to_one_norm(ep, e0) - 2 * p) < 1e-6


def test_diamond_norm_zero_and_value():
    ch = amplitude_damping(0.3)
    assert diamond_norm(ch, ch) < 1e-7
    u = haar_unitary(2, seed=8)
    uch = KrausChannel(Q1, [u])
    assert diamond_norm(uch, uch) < 1e-7
    ad = amplitude_damping(0.1)
    val = diamond_norm(ad, replacer(fixed_point(ad)))
    assert abs(val - 0.37561822155573127) < 1e-6


def test_diamond_norm_orthogonal_unitaries():
    zch = KrausChannel(Q1, [SZ])
    assert abs(diamond_norm(KrausChannel(Q1, [np.eye(Q1.dim)]), zch) - 2.0) < 1e-6


def test_diamond_dominates_one_to_one():
    rng = np.random.default_rng(31)
    for _ in range(4):
        a = _random_channel(QuditLayout(2, 1), rng)
        b = _random_channel(QuditLayout(2, 1), rng)
        dia = diamond_norm(a, b)
        oto = one_to_one_norm(a, b)
        assert oto <= dia + 1e-6


# --- contraction of transport under tensor powers ----------------------------

def test_contraction_bounds_amplitude_damping():
    rep = tensor_power_contraction_bounds(amplitude_damping(0.1), 3)
    assert abs(rep.lower - 1.0 / 6.0) < 1e-6
    assert abs(rep.upper - 2.0 / 3.0) < 1e-6
    assert rep.lower - 1e-9 <= rep.witness_ratio <= rep.upper + 1e-9
    assert rep.n == 3
    # the reported witness really contracts by the reported factor
    x = HermitianOperator(rep.witness.layout, rep.witness.matrix)
    before = w1_primal(x).value
    after = w1_primal(
        HermitianOperator(x.layout, amplitude_damping(0.1).tensor_power(3).apply_matrix(x.matrix))
    ).value
    assert abs(after / before - rep.witness_ratio) < 1e-6


def test_contraction_depolarizing_exact():
    p = 0.37
    omega = random_density(Q1, seed=12)
    rep = tensor_power_contraction_bounds(depolarizing(p, omega), 2)
    assert abs(rep.lower - p) < 1e-9
    assert abs(rep.upper - p) < 1e-9
    assert all(tag == "depolarizing-exact" for tag in rep.method)
    # cross-check the coefficient through an actual transport ratio
    x = HermitianOperator(rep.witness.layout, rep.witness.matrix)
    ch = depolarizing(p, omega).tensor_power(2)
    ratio = w1_primal(HermitianOperator(x.layout, ch.apply_matrix(x.matrix))).value \
        / w1_primal(x).value
    assert abs(ratio - p) < 1e-6


def test_contraction_identity_channel():
    rep = tensor_power_contraction_bounds(KrausChannel(Q1, [np.eye(Q1.dim)]), 2)
    assert abs(rep.lower - 1.0) < 1e-9
    assert abs(rep.upper - 1.0) < 1e-9


def test_parameter_range_errors():
    with pytest.raises(ParameterRange):
        amplitude_damping(1.5)
    with pytest.raises(ParameterRange):
        amplitude_damping(-0.1)
    with pytest.raises(ParameterRange):
        depolarizing(2.0, maximally_mixed(Q1))


def test_empirical_contraction_reproducible_and_bounded():
    ch = amplitude_damping(0.1)
    a = empirical_contraction(ch, samples=6, seed=3)
    b = empirical_contraction(ch, samples=6, seed=3)
    assert a == b
    rep = tensor_power_contraction_bounds(ch, 2)
    emp = empirical_contraction(ch, samples=8, seed=5)
    assert rep.lower - 1e-7 <= emp <= rep.upper + 1e-7


def test_neighboring_difference_transport_norm_is_half_trace_norm():
    # the pairs empirical_contraction samples: two one-qudit channels on one
    # site of a shared state, whose difference x has Tr_i x = 0
    rng = np.random.default_rng(11)
    for d, n in ((2, 2), (2, 3), (3, 2)):
        lay = QuditLayout(d, n)
        one = QuditLayout(d, 1)
        for _ in range(3):
            i = int(rng.integers(1, n + 1))
            shared = random_density(lay, seed=rng)
            lam1 = embed_channel(_random_channel(one, rng), lay, [i])
            lam2 = embed_channel(_random_channel(one, rng), lay, [i])
            x = lam1.apply_matrix(shared.matrix) - lam2.apply_matrix(shared.matrix)
            half = 0.5 * trace_norm(x)
            assert abs(w1_primal(HermitianOperator(lay, x)).value - half) <= 1e-7 * half


# --- circuits and light cones ------------------------------------------------

def test_circuit_validation():
    lay = QuditLayout(2, 2)
    with pytest.raises(NotUnitary):
        Circuit(lay, [(np.eye(4) * 2.0, [1, 2])])
    with pytest.raises(InvalidInput):
        Circuit(lay, [(np.eye(4), [1, 1])])
    with pytest.raises(DimensionMismatch):
        Circuit(lay, [(np.eye(2), [1, 2])])


def test_circuit_as_channel_is_unitary():
    lay = QuditLayout(2, 2)
    u = haar_unitary(4, seed=17)
    circ = Circuit(lay, [(u, [1, 2])])
    ch = circ.as_channel()
    assert len(ch.kraus) == 1
    rho = random_density(lay, seed=18)
    np.testing.assert_allclose(
        ch.apply(rho).matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)


def test_light_cone_examples():
    # no gates: each cone is the site itself
    cones, bound = light_cone_bound(Circuit(QuditLayout(2, 3), []))
    assert cones == [[1], [2], [3]]
    assert abs(bound - 1.5) < 1e-12
    # one disjoint layer on four qubits
    lay4 = QuditLayout(2, 4)
    u = haar_unitary(4, seed=2)
    circ = Circuit(lay4, [(u, [1, 2]), (u, [3, 4])])
    cones, bound = light_cone_bound(circ)
    assert cones == [[1, 2], [1, 2], [3, 4], [3, 4]]
    assert abs(bound - 3.0) < 1e-12
    # staircase spreads the first two cones across everything
    lay3 = QuditLayout(2, 3)
    circ = Circuit(lay3, [(u, [1, 2]), (u, [2, 3])])
    cones, bound = light_cone_bound(circ)
    assert cones == [[1, 2, 3], [1, 2, 3], [2, 3]]
    assert abs(bound - 4.5) < 1e-12


def test_light_cone_dominates_transport():
    lay = QuditLayout(2, 3)
    u = haar_unitary(4, seed=5)
    circ = Circuit(lay, [(u, [1, 2]), (u, [2, 3])])
    _, bound = light_cone_bound(circ)
    ch = circ.as_channel()
    rho = random_density(lay, seed=6)
    sig = random_density(lay, seed=7)
    num = w1_primal(
        HermitianOperator(lay, ch.apply(rho).matrix - ch.apply(sig).matrix)).value
    den = w1_primal(HermitianOperator(lay, rho.matrix - sig.matrix)).value
    assert num <= bound * den + 1e-7


# --- serialization ------------------------------------------------------------

def test_channel_json_roundtrip():
    for ch in (amplitude_damping(0.15),
               depolarizing(0.4, random_density(Q1, seed=3)),
               _random_channel(QuditLayout(2, 1), np.random.default_rng(5))):
        back = channel_from_json(ch.to_json())
        rho = random_density(Q1, seed=6)
        np.testing.assert_allclose(
            back.apply(rho).matrix, ch.apply(rho).matrix, atol=1e-12)
    with pytest.raises(InvalidInput):
        channel_from_json({"kind": "sideways"})
    with pytest.raises(InvalidInput):
        channel_from_json({"kind": "amplitude_damping"})
    kraus = _random_channel(QuditLayout(2, 1), np.random.default_rng(5)).to_json()
    depol = {"kind": "depolarizing", "d": 2, "p": 0.4,
             "omega": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    for payload, field, bad in ((kraus, "d", 2.7), (kraus, "n", 1.9), (kraus, "n", True),
                                (kraus, "d", "2"), (depol, "d", 2.7), (depol, "d", True)):
        with pytest.raises(InvalidInput, match=f"'{field}' must be an integer"):
            channel_from_json({**payload, field: bad})
    assert channel_from_json({**kraus, "d": 2.0, "n": 1.0}).layout == Q1
    assert channel_from_json({**depol, "d": 2.0}).layout == Q1
