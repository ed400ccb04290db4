"""Acceptance gate: thirteen numbered criteria, one printed line per criterion.

Each test registers `criterion NN PASS/FAIL <label> <detail>` with the
conftest terminal-summary hook (so the line survives pytest's capture) and
then asserts. Random instances are seeded per criterion and reproducible run
to run.
"""

import functools
import itertools
import math
import operator
import time

import numpy as np

import conftest

from qw1.channels import (
    Circuit,
    KrausChannel,
    _random_channel,
    amplitude_damping,
    depolarizing,
    embed_channel,
    empirical_contraction,
    light_cone_bound,
    tensor_power_contraction_bounds,
)
from qw1.classical import (
    Distribution,
    classical_w1,
    diagonal_state,
    shannon_continuity_bound,
)
from qw1.lab import (
    check_entropy_continuity,
    check_marton,
    check_pinsker,
    concentration_mgf,
    run_battery,
    spectral_tail,
)
from qw1.operators import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    embed_operator,
    haar_unitary,
    maximally_entangled,
    maximally_mixed,
    random_density,
    random_traceless,
    tensor_product,
)
from qw1.w1 import (
    lipschitz_constant,
    lipschitz_estimate,
    w1_distance,
    w1_dual,
    w1_primal,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
Q1 = QuditLayout(2, 1)


def _gate(num, label, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}"
    conftest.gate_lines.append(line)
    print(line)
    return ok


def _rng(criterion, index):
    return np.random.default_rng([2024, criterion, index])


def _z_sum(n):
    lay = QuditLayout(2, n)
    one = HermitianOperator(Q1, SZ)
    return functools.reduce(
        operator.add, (embed_operator(one, lay, [i]) for i in range(1, n + 1)))


def test_criterion_01_hamming_recovery():
    start = time.monotonic()
    lay = QuditLayout(2, 3)
    worst = 0.0
    for x in itertools.product((0, 1), repeat=3):
        for y in itertools.product((0, 1), repeat=3):
            val = w1_distance(basis_state(lay, x), basis_state(lay, y)).value
            h = sum(a != b for a, b in zip(x, y))
            worst = max(worst, abs(val - h))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 120.0
    assert _gate(1, "Hamming recovery on all 64 three-bit pairs",
                 ok, f"worst |W1 - h| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_entangled_pair_value():
    gamma = maximally_entangled(2)
    direct = w1_distance(gamma, maximally_mixed(QuditLayout(2, 2))).value
    err2 = abs(direct - 0.75)
    # additivity route to n = 4: two independent factors, values summed
    factor_sum = 2.0 * direct
    err4_add = abs(factor_sum - 1.5)
    # optional direct solve at (2, 4), still under the dimension cap
    lay4 = QuditLayout(2, 4)
    gg = tensor_product(gamma, gamma)
    direct4 = w1_primal(HermitianOperator(
        lay4, gg.matrix - maximally_mixed(lay4).matrix)).value
    err4 = abs(direct4 - 1.5)
    ok = err2 < 1e-6 and err4_add < 1e-6 and err4 < 1e-6
    assert _gate(2, "maximally entangled pair values",
                 ok, f"(2,2) err {err2:.2e}, additivity err {err4_add:.2e}, "
                     f"(2,4) direct err {err4:.2e}")


def test_criterion_03_strong_duality():
    worst = 0.0
    count = 0
    for n, reps in ((1, 100), (2, 60), (3, 40)):
        lay = QuditLayout(2, n)
        for k in range(reps):
            x = random_traceless(lay, seed=_rng(3, 1000 * n + k))
            p = w1_primal(x).value
            d = w1_dual(x).value
            worst = max(worst, abs(p - d) / (1.0 + p))
            count += 1
    ok = worst < 1e-6 and count >= 200
    assert _gate(3, f"strong duality on {count} random traceless operators",
                 ok, f"worst relative gap {worst:.2e}")


def test_criterion_04_battery_sandwich_and_collapse():
    report = run_battery(seed=42, trials=100)
    names = {r.name for r in report.results}
    needed = {"sandwich-lower", "sandwich-upper", "neighboring-collapse"}
    ok = report.passed and needed <= names
    assert _gate(4, "battery holds (sandwich + neighboring collapse included)",
                 ok, f"{len(report.results)} checks, "
                     f"{len(report.failures)} failures, "
                     f"missing {list(report.missing)}")


def test_criterion_05_diagonal_consistency():
    allocation = [(2, 1, 30), (2, 2, 20), (2, 3, 20), (3, 1, 15), (3, 2, 10), (3, 3, 5)]
    worst = 0.0
    count = 0
    for d, n, reps in allocation:
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(5, count)
            p = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
            q = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
            classical, _ = classical_w1(p, q)
            diff = diagonal_state(p).matrix - diagonal_state(q).matrix
            quantum = w1_primal(HermitianOperator(lay, diff)).value
            worst = max(worst, abs(classical - quantum) / (1.0 + classical))
            count += 1
    ok = worst < 1e-6 and count == 100
    assert _gate(5, f"diagonal restriction matches the transport LP on {count} pairs",
                 ok, f"worst relative gap {worst:.2e}")


def test_criterion_06_product_additivity():
    worst = 0.0
    count = 0
    for d, n, reps in ((2, 2, 30), (2, 3, 15), (3, 2, 5)):
        lay1 = QuditLayout(d, 1)
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(6, count)
            rhos = [random_density(lay1, seed=rng) for _ in range(n)]
            sigs = [random_density(lay1, seed=rng) for _ in range(n)]
            parts = sum(w1_distance(r, s).value for r, s in zip(rhos, sigs))
            rho = functools.reduce(tensor_product, rhos)
            sig = functools.reduce(tensor_product, sigs)
            whole = w1_primal(HermitianOperator(lay, rho.matrix - sig.matrix)).value
            worst = max(worst, abs(whole - parts) / (1.0 + parts))
            count += 1
    ok = worst < 1e-6 and count == 50
    assert _gate(6, f"additivity on {count} random product pairs",
                 ok, f"worst relative gap {worst:.2e}")


def test_criterion_07_entropy_continuity():
    worst = -math.inf
    count = 0
    for d, n, reps in ((2, 1, 40), (2, 2, 30), (2, 3, 20), (3, 1, 10)):
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(7, count)
            res = check_entropy_continuity(
                random_density(lay, seed=rng), random_density(lay, seed=rng))
            worst = max(worst, res.lhs - res.rhs)
            count += 1
    inst = check_entropy_continuity(basis_state(Q1, [0]), maximally_mixed(Q1))
    inst_ok = (abs(inst.lhs - 0.6931) < 1e-4 and abs(inst.rhs - 1.648) < 1e-3
               and inst.passed)
    ok = worst <= 1e-7 and count == 100 and inst_ok
    assert _gate(7, f"entropy continuity on {count} random pairs + worked instance",
                 ok, f"worst lhs-rhs {worst:.2e}, instance "
                     f"{inst.lhs:.4f} <= {inst.rhs:.4f}")


def test_criterion_08_marton_and_pinsker():
    worst_m = -math.inf
    worst_p = -math.inf
    count = 0
    for d, n, reps in ((2, 2, 60), (2, 3, 30), (3, 2, 10)):
        lay1 = QuditLayout(d, 1)
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(8, count)
            rho = random_density(lay, seed=rng)
            # keep the product comparison state full rank
            factors = []
            for _ in range(n):
                raw = random_density(lay1, seed=rng)
                factors.append(DensityMatrix(
                    lay1, 0.85 * raw.matrix + 0.15 * maximally_mixed(lay1).matrix))
            sigma = functools.reduce(tensor_product, factors)
            m = check_marton(rho, factors)
            p = check_pinsker(rho, sigma)
            worst_m = max(worst_m, m.lhs - m.rhs)
            worst_p = max(worst_p, p.lhs - p.rhs)
            count += 1
    inst = check_marton(maximally_entangled(2), [maximally_mixed(Q1)] * 2)
    inst_ok = abs(inst.lhs - 0.75) < 1e-4 and abs(inst.rhs - 1.1774) < 1e-4
    ok = worst_m <= 1e-7 and worst_p <= 1e-7 and count == 100 and inst_ok
    assert _gate(8, f"Marton + Pinsker on {count} full-rank product instances",
                 ok, f"worst margins {worst_m:.2e} / {worst_p:.2e}, instance "
                     f"{inst.lhs:.4f} <= {inst.rhs:.4f}")


def test_criterion_09_concentration():
    h3 = _z_sum(3)
    closed = True
    for t in (0.5, 1.0):
        res = concentration_mgf(h3, t)
        closed &= abs(res.lhs - math.cosh(t) ** 3) < 1e-9
        closed &= abs(res.rhs - math.exp(3 * t * t / 2.0)) < 1e-6
        closed &= res.passed
    tail = spectral_tail(_z_sum(4), 1.0)
    closed &= tail.lhs == 1.0 and abs(tail.rhs - 16 * math.exp(-2.0)) < 1e-9
    closed &= tail.passed
    fails = 0
    count = 0
    for d, n, reps in ((2, 1, 20), (2, 2, 20), (2, 3, 10)):
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(9, count)
            h = random_traceless(lay, seed=rng)
            t = 0.5 if count % 2 == 0 else 1.0
            delta = 0.5 if count % 3 == 0 else 1.0
            if not concentration_mgf(h, t).passed:
                fails += 1
            if not spectral_tail(h, delta).passed:
                fails += 1
            count += 1
    ok = closed and fails == 0 and count == 50
    assert _gate(9, f"concentration closed forms + {count} random observables",
                 ok, f"closed-form ok {closed}, random failures {fails}")


def test_criterion_10_channel_bounds():
    # depolarizing: coefficient is the parameter, witness attains it
    p = 0.37
    omega = random_density(Q1, seed=_rng(10, 0))
    rep = tensor_power_contraction_bounds(depolarizing(p, omega), 2)
    ch2 = depolarizing(p, omega).tensor_power(2)
    x = HermitianOperator(rep.witness.layout, rep.witness.matrix)
    ratio = w1_primal(HermitianOperator(x.layout, ch2.apply_matrix(x.matrix))).value \
        / w1_primal(x).value
    dep_ok = (abs(rep.lower - p) < 1e-6 and abs(rep.upper - p) < 1e-6
              and abs(ratio - p) < 1e-6)
    # amplitude damping bracket and an empirical point inside it
    ad = amplitude_damping(0.1)
    rep3 = tensor_power_contraction_bounds(ad, 3)
    emp = empirical_contraction(ad.tensor_power(3), samples=20, seed=7)
    ad_ok = (abs(rep3.lower - 1.0 / 6.0) < 1e-6 and abs(rep3.upper - 2.0 / 3.0) < 1e-6
             and rep3.lower - 1e-7 <= emp <= rep3.upper + 1e-7)
    # light cones dominate circuit contraction on seeded brickwork circuits
    lay = QuditLayout(2, 3)
    lc_ok = True
    for c in range(3):
        rng = _rng(10, 100 + c)
        gates = []
        for layer in range(2):
            start = 1 + (layer % 2)
            for a in range(start, lay.n, 2):
                gates.append((haar_unitary(4, seed=rng), [a, a + 1]))
        circuit = Circuit(lay, gates)
        _, bound = light_cone_bound(circuit)
        phi = circuit.as_channel()
        for s in range(5):
            rho = random_density(lay, seed=rng)
            sig = random_density(lay, seed=rng)
            num = w1_primal(HermitianOperator(
                lay, phi.apply(rho).matrix - phi.apply(sig).matrix)).value
            den = w1_primal(HermitianOperator(lay, rho.matrix - sig.matrix)).value
            lc_ok &= num <= bound * den + 1e-7
    ok = dep_ok and ad_ok and lc_ok
    assert _gate(10, "channel contraction bounds",
                 ok, f"depolarizing ratio {ratio:.6f} vs {p}, damping bracket "
                     f"({rep3.lower:.6f}, {rep3.upper:.6f}) empirical {emp:.4f}, "
                     f"light cones dominate: {lc_ok}")


def test_criterion_11_lipschitz_sandwich():
    fails = 0
    count = 0
    for d, n, reps in ((2, 1, 40), (2, 2, 40), (2, 3, 20)):
        lay = QuditLayout(d, n)
        for k in range(reps):
            h = random_traceless(lay, seed=_rng(11, count))
            lo, hi = lipschitz_estimate(h)
            exact = lipschitz_constant(h).value
            if not (lo <= exact + 1e-7 and exact <= hi + 1e-7):
                fails += 1
            count += 1
    worst_fix = max(
        abs(lipschitz_constant(_z_sum(n)).value - 2.0) for n in (1, 2, 3))
    ok = fails == 0 and count == 100 and worst_fix < 1e-6
    assert _gate(11, f"Lipschitz sandwich on {count} random observables",
                 ok, f"failures {fails}, z-sum fixture error {worst_fix:.2e}")


def test_criterion_12_one_site_channel_containment():
    worst = 0.0
    count = 0
    for d, n, reps in ((2, 2, 50), (2, 3, 30), (3, 2, 20)):
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(12, count)
            rho = random_density(lay, seed=rng)
            site = int(rng.integers(1, n + 1))
            phi = embed_channel(_random_channel(QuditLayout(d, 1), rng), lay, [site])
            moved = phi.apply(rho)
            worst = max(worst, w1_primal(
                HermitianOperator(lay, rho.matrix - moved.matrix)).value)
            count += 1
    ok = worst <= 1.0 + 1e-6 and count == 100
    assert _gate(12, f"one-site channel perturbations on {count} states",
                 ok, f"largest displacement {worst:.8f}")


def test_criterion_13_classical_shannon():
    worst = -math.inf
    count = 0
    for d, n, reps in ((2, 1, 30), (2, 2, 25), (2, 3, 20), (3, 1, 15), (3, 2, 10)):
        lay = QuditLayout(d, n)
        for k in range(reps):
            rng = _rng(13, count)
            p = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
            q = Distribution(lay, rng.dirichlet(np.ones(lay.dim)))
            lhs, rhs = shannon_continuity_bound(p, q)
            worst = max(worst, lhs - rhs)
            count += 1
    p = Distribution(Q1, np.array([1.0, 0.0]))
    q = Distribution(Q1, np.array([0.5, 0.5]))
    lhs, rhs = shannon_continuity_bound(p, q)
    eq_err = abs(rhs - lhs)
    ok = worst <= 1e-7 and count == 100 and eq_err < 1e-9
    assert _gate(13, f"classical entropy bound on {count} pairs + equality case",
                 ok, f"worst lhs-rhs {worst:.2e}, equality gap {eq_err:.2e}")
