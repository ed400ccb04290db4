"""Inequality verification harness.

Every bound gets evaluated as a (lhs, rhs) pair on concrete instances; a
check passes when margin = rhs - lhs >= -1e-7 (1 + |rhs|).  The one-sided
relative tolerance keeps solver noise from failing tight cases while still
catching genuine violations.

run_battery drives the whole catalogue on seeded random instances and emits
a deterministic JSON-lines report.  Each instance is regenerated from
(seed, family index, instance index) alone, so any line of the report can be
reproduced in isolation, exactly.

Every family is one _Family: it draws all its instances first and takes
the values of their solves from one batched call.  The W1 values of the 17
W1 families (a state pair's through its traceless difference, as
w1_distance solves it; duality-gap's primal side) come from one w1_primals
call, the Lipschitz constants of concentration-mgf, spectral-tail and
lipschitz-sandwich from one lipschitz_constants call, and the transport LPs
of the five classical families (classical-duality's primal and dual LPs
together) from one transport_lps call.  Other solves (w1_dual,
classical_w1, diamond_norm, one_to_one_norm, empirical_contraction) are
single calls inside the draw; families that make only those have no
batched call.  (conic._solved_batch sets how many solves a call takes.)
Each program in a batch follows the iterates of its single solve bit for
bit, so a line of a family equals the line of its instance made alone.
If a batch raises, its instances are made one at a time, so each failure
gets its own line.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import channels as ch
from . import classical as cl
from .errors import InvalidInput, QW1Error
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    embed_matrix,
    haar_unitary,
    maximally_entangled,
    maximally_mixed,
    operator_norm,
    partial_trace,
    permute_sites,
    random_density,
    random_traceless,
    relative_entropy,
    replace_with_maximally_mixed,
    tensor_product,
    trace_norm,
    von_neumann_entropy,
)
from .w1 import (
    _state_difference,
    is_neighboring,
    lipschitz_constant,
    lipschitz_constants,
    lipschitz_estimate,
    w1_distance,
    w1_dual,
    w1_primals,
)

CHECK_TOL = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    instance: dict
    flags: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if math.isinf(self.rhs) and self.rhs > 0:
            return True
        return self.margin >= -CHECK_TOL * (1.0 + abs(self.rhs))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": _finite(self.lhs),
            "rhs": _finite(self.rhs),
            "margin": _finite(self.margin),
            "passed": self.passed,
            "instance": self.instance,
            "flags": list(self.flags),
        }


def _finite(x: float):
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _round12(obj):
    """obj with every float rounded to 12 significant digits, as the CLI
    prints numbers."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def entropy_modulus(t: float) -> float:
    """(t+1) ln(t+1) - t ln t, the modulus of entropy continuity."""
    if t <= 0.0:
        return 0.0
    return (t + 1.0) * math.log(t + 1.0) - t * math.log(t)


# ---------------------------------------------------------------------------
# standalone checks
# ---------------------------------------------------------------------------

def check_entropy_continuity(rho: DensityMatrix, sigma: DensityMatrix,
                             instance: dict | None = None) -> CheckResult:
    """|S(rho) - S(sigma)| against g(W1) + W1 ln(d^2 n)."""
    return _entropy_check(rho, sigma, w1_distance(rho, sigma).value, instance)


def _entropy_check(rho, sigma, w1: float, instance) -> CheckResult:
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    rhs = entropy_modulus(w1) + w1 * math.log(rho.d ** 2 * rho.n)
    return CheckResult("entropy-continuity", lhs, rhs, instance or {})


def check_pinsker(rho: DensityMatrix, sigma: DensityMatrix,
                  instance: dict | None = None) -> CheckResult:
    """Trace distance against sqrt(2 S(rho||sigma))."""
    rel = relative_entropy(rho, sigma)
    lhs = trace_norm(rho.matrix - sigma.matrix)
    flags = ()
    if math.isinf(rel):
        flags = ("infinite-relative-entropy",)
    rhs = math.sqrt(2.0 * rel) if math.isfinite(rel) else math.inf
    return CheckResult("pinsker", lhs, rhs, instance or {}, flags)


def check_marton(rho: DensityMatrix, sigma_factors,
                 instance: dict | None = None) -> CheckResult:
    """W1 against sqrt(n/2 S(rho||sigma)) for product sigma.

    Flags the instances where this beats the Pinsker route, i.e. where
    W1 >= (sqrt(n)/2) ||rho - sigma||_1.
    """
    sigma = functools.reduce(tensor_product, sigma_factors)
    if sigma.layout != rho.layout:
        raise InvalidInput(
            f"product of factors lives on {sigma.layout}, state on {rho.layout}")
    return _marton_check(rho, sigma, w1_distance(rho, sigma).value, instance)


def _marton_check(rho, sigma, w1: float, instance) -> CheckResult:
    n = rho.n
    rel = relative_entropy(rho, sigma)
    flags = []
    if math.isinf(rel):
        flags.append("infinite-relative-entropy")
        rhs = math.inf
    else:
        rhs = math.sqrt(0.5 * n * rel)
    if w1 >= 0.5 * math.sqrt(n) * trace_norm(rho.matrix - sigma.matrix) - 1e-9:
        flags.append("beats-pinsker")
    return CheckResult("marton", w1, rhs, instance or {}, tuple(flags))


def concentration_mgf(h: HermitianOperator, t: float,
                      instance: dict | None = None) -> CheckResult:
    """Normalized Tr exp(t (H - mean)) against exp(n t^2 L^2 / 8)."""
    _require_finite("t", t)
    return _mgf_check(h, t, lipschitz_constant(h).value, instance)


def _mgf_check(h: HermitianOperator, t: float, lip: float, instance) -> CheckResult:
    # lhs <= rhs, so a t that passes cannot overflow the lhs either
    exponent = h.n * t * t * lip * lip / 8.0
    if exponent > math.log(sys.float_info.max):
        raise InvalidInput(f"t = {t} makes exp(n t^2 L^2 / 8) = exp({exponent:.6g}) "
                           f"overflow a float")
    lam = np.linalg.eigvalsh(h.matrix)
    dim = h.layout.dim
    mean = lam.sum() / dim
    lhs = float(np.exp(t * (lam - mean)).sum() / dim)
    rhs = math.exp(exponent)
    inst = dict(instance or {})
    inst["t"] = t
    return CheckResult("concentration-mgf", lhs, rhs, inst)


def spectral_tail(h: HermitianOperator, delta: float,
                  instance: dict | None = None) -> CheckResult:
    """Number of eigenvalues above mean + delta sqrt(n) L, against
    d^n exp(-2 delta^2)."""
    _require_delta(delta)
    return _tail_check(h, delta, lipschitz_constant(h).value, instance)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidInput(f"{name} = {value} must be finite")


def _require_delta(delta: float) -> None:
    if not 0 <= delta < math.inf:
        raise InvalidInput(f"delta = {delta} must be nonnegative and finite")


def _tail_check(h: HermitianOperator, delta: float, lip: float, instance) -> CheckResult:
    lam = np.linalg.eigvalsh(h.matrix)
    dim = h.layout.dim
    mean = lam.sum() / dim
    threshold = mean + delta * math.sqrt(h.n) * lip
    # count eigenvalues sitting exactly on the threshold as inside the tail
    lhs = float(np.count_nonzero(lam >= threshold - 1e-8 * (1.0 + abs(threshold))))
    rhs = dim * math.exp(-2.0 * delta * delta)
    inst = dict(instance or {})
    inst["delta"] = delta
    return CheckResult("spectral-tail", lhs, rhs, inst)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def _rng_for(seed: int, family: int, index: int):
    return np.random.default_rng([seed, family, index])


def _setup(seed, fam, k, layouts, min_sites=1):
    """Instance k's layout, the k-th (cyclically) of the layouts of at least
    min_sites sites, with its generator and its instance record."""
    ok = [l for l in layouts if l.n >= min_sites]
    if not ok:
        raise InvalidInput(f"this family needs a layout of at least {min_sites} sites, "
                           f"got {[[l.d, l.n] for l in layouts]}")
    layout = ok[k % len(ok)]
    return layout, _rng_for(seed, fam, k), {"seed": seed, "index": k,
                                             "layout": [layout.d, layout.n]}


def _random_distribution(layout: QuditLayout, rng) -> cl.Distribution:
    return cl.Distribution(layout, rng.dirichlet(np.ones(layout.dim)))


def _eq(name, got, want, instance, scale=None):
    band = 1e-6 * (1.0 + (scale if scale is not None else abs(want)))
    return CheckResult(name, abs(got - want), band, instance)


@dataclass(frozen=True)
class _Family:
    """A check family.  draw(seed, fam, k, layouts) makes instance k: it
    returns (inputs, checks), the inputs of the instance's solves of one
    kind and a function mapping their values, in order, to its
    CheckResults.  values(inputs) maps a list of inputs to their values by
    one batched call; a family without a batched solve has values None, and
    its draws have no inputs.  batch makes the instances ks from one values
    call over all their inputs."""

    draw: Callable
    values: Callable | None = None

    def batch(self, seed, fam, ks, layouts) -> list:
        drawn = [self.draw(seed, fam, k, layouts) for k in ks]
        inputs = [x for xs, _ in drawn for x in xs]
        values = iter(self.values(inputs) if self.values else ())
        return [checks(*(next(values) for _ in xs)) for xs, checks in drawn]


# the batch calls of the families; each looks its solver up when called, so a
# patched module attribute reaches it
def _lipschitz_values(hs):
    return [lip.value for lip in lipschitz_constants(hs)]


def _w1_values(xs):
    return [cert.value for cert in w1_primals(xs)]


def _transport_values(requests):
    return [value for value, _ in cl.transport_lps(requests)]


# each family's weight: "light" runs `trials` instances, "heavy" runs
# max(2, trials // 25), "fixed2" runs 2.  A state pair's W1 input is its
# traceless difference, as w1_distance solves it.

def _draw_duality(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    d = w1_dual(x).value
    return [x], lambda p: [CheckResult("duality-gap", abs(p - d), 1e-6 * (1.0 + p), inst)]


def _draw_homogeneity(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    c = inst["c"] = float(rng.uniform(-3.0, 3.0))
    return [x, c * x], lambda v, vc: [_eq("homogeneity", vc, abs(c) * v, inst)]


def _draw_triangle(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    y = random_traceless(layout, seed=rng)
    return [x + y, x, y], lambda vxy, vx, vy: [CheckResult("triangle", vxy, vx + vy, inst)]


def _draw_sandwich(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    tn = trace_norm(x.matrix)
    return [x], lambda v: [CheckResult("sandwich-lower", 0.5 * tn, v, inst),
                           CheckResult("sandwich-upper", v, 0.5 * layout.n * tn, inst)]


def _draw_neighboring(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    # two states agreeing after discarding one site
    i = inst["site"] = int(rng.integers(1, layout.n + 1))
    rho, sigma = (DensityMatrix(layout, m) for m in ch._neighboring_images(layout, [i], rng))
    flags = () if is_neighboring(rho, sigma) is not None else ("not-detected",)
    half = 0.5 * trace_norm(rho.matrix - sigma.matrix)
    return [_state_difference(rho, sigma)], lambda v: [
        CheckResult("neighboring-collapse", abs(v - half), 1e-6 * (1.0 + v), inst, flags)]


def _draw_permutation(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    x = random_traceless(layout, seed=rng)
    perm = inst["perm"] = [int(p) + 1 for p in rng.permutation(layout.n)]
    return [x, permute_sites(x, perm)], \
        lambda v, vp: [_eq("permutation-invariance", vp, v, inst)]


def _draw_local_unitary(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    i = inst["site"] = int(rng.integers(1, layout.n + 1))
    u = embed_matrix(haar_unitary(layout.d, seed=rng), layout, [i])
    return [x, HermitianOperator(layout, u @ x.matrix @ u.conj().T)], \
        lambda v, vu: [_eq("local-unitary-invariance", vu, v, inst)]


def _draw_channel_contraction(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    i = inst["site"] = int(rng.integers(1, layout.n + 1))
    phi = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    x = rho.matrix - sigma.matrix
    return ([HermitianOperator(layout, x), HermitianOperator(layout, phi.apply_matrix(x))],
            lambda before, after: [CheckResult("channel-contraction", after, before, inst)])


def _draw_product_additivity(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    one = QuditLayout(layout.d, 1)
    rhos = [random_density(one, seed=rng) for _ in range(layout.n)]
    sigmas = [random_density(one, seed=rng) for _ in range(layout.n)]
    rho, sigma = rhos[0], sigmas[0]
    for r, s in zip(rhos[1:], sigmas[1:]):
        rho, sigma = tensor_product(rho, r), tensor_product(sigma, s)
    want = sum(0.5 * trace_norm(r.matrix - s.matrix) for r, s in zip(rhos, sigmas))
    return [_state_difference(rho, sigma)], lambda v: [_eq("product-additivity", v, want, inst)]


def _draw_superadditivity(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    x = random_traceless(layout, seed=rng)
    cut = inst["cut"] = int(rng.integers(1, layout.n))
    a = list(range(1, cut + 1))
    b = list(range(cut + 1, layout.n + 1))
    return [partial_trace(x, b), partial_trace(x, a), x], \
        lambda va, vb, v: [CheckResult("superadditivity", va + vb, v, inst)]


def _draw_locality(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    size = int(rng.integers(1, layout.n))
    region = inst["region"] = sorted(
        int(s) + 1 for s in rng.choice(layout.n, size=size, replace=False))
    a, b = ch._neighboring_images(layout, region, rng)
    x = a - b
    d2 = layout.d ** 2
    factor = size * (d2 - 1.0) / d2
    tn = trace_norm(x)
    return [HermitianOperator(layout, x)], lambda v: [
        CheckResult("locality-region", v, factor * tn, inst),
        CheckResult("locality-absolute", v, 2.0 * factor, inst)]


def _draw_diagonal(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    cv, _ = cl.classical_w1(p, q)
    return [_state_difference(cl.diagonal_state(p), cl.diagonal_state(q))], lambda qv: [
        CheckResult("diagonal-restriction", abs(qv - cv), 1e-6 * (1.0 + cv), inst)]


def _draw_replace_site(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    moved = x.matrix - replace_with_maximally_mixed(x, 1).matrix
    d2 = layout.d ** 2
    return [], lambda: [CheckResult("replace-site-trace-norm", trace_norm(moved),
                                    2.0 * (d2 - 1.0) / d2 * trace_norm(x.matrix), inst)]


def _draw_matched_marginal_entropy(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    rho = random_density(layout, seed=rng)
    tau = random_density(QuditLayout(layout.d, 1), seed=rng)
    sigma = tensor_product(tau, partial_trace(rho, 1))
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    return [], lambda: [CheckResult("matched-marginal-entropy", lhs,
                                    2.0 * math.log(layout.d), inst)]


def _draw_classical_neighboring(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    d, n = layout.d, layout.n
    prefix = rng.dirichlet(np.ones(d ** (n - 1)))
    c1 = rng.dirichlet(np.ones(d), size=d ** (n - 1))
    c2 = rng.dirichlet(np.ones(d), size=d ** (n - 1))
    p = cl.Distribution(layout, (prefix[:, None] * c1).ravel())
    q = cl.Distribution(layout, (prefix[:, None] * c2).ravel())
    return [(p, q, False)], lambda v: [CheckResult("classical-neighboring", v, 1.0, inst)]


def _draw_factor_bound(seed, fam, k, layouts):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    nx, ny = (1, 1) if k % 2 == 0 else (1, 2)
    x = random_traceless(QuditLayout(d, nx), seed=rng)
    g = rng.standard_normal((d ** ny, d ** ny)) + 1j * rng.standard_normal((d ** ny, d ** ny))
    y = HermitianOperator(QuditLayout(d, ny), (g + g.conj().T) / 2.0)
    xy = HermitianOperator(QuditLayout(d, nx + ny), np.kron(x.matrix, y.matrix))
    inst = {"seed": seed, "index": k, "nx": nx, "ny": ny, "d": d}
    return [xy, x], lambda vxy, vx: [
        CheckResult("product-factor-bound", vxy, vx * trace_norm(y.matrix), inst)]


def _draw_entangled_pair(seed, fam, k, layouts):
    d = layouts[0].d
    gamma = maximally_entangled(d)
    if k % 2 == 1:
        rng = _rng_for(seed, fam, k)
        u = np.kron(haar_unitary(d, seed=rng), haar_unitary(d, seed=rng))
        gamma = DensityMatrix(gamma.layout, u @ gamma.matrix @ u.conj().T)
    want = (d * d - 1.0) / (d * d)
    inst = {"seed": seed, "index": k, "d": d, "rotated": bool(k % 2)}
    return [_state_difference(gamma, maximally_mixed(gamma.layout))], \
        lambda v: [_eq("entangled-pair-value", v, want, inst)]


def _draw_containment(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    rho = random_density(layout, seed=rng)
    i = inst["site"] = int(rng.integers(1, layout.n + 1))
    phi = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    x = HermitianOperator(layout, rho.matrix - phi.apply_matrix(rho.matrix))
    return [x], lambda v: [CheckResult("channel-perturbation-containment", v, 1.0, inst)]


def _draw_entropy(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    return [_state_difference(rho, sigma)], lambda w1: [_entropy_check(rho, sigma, w1, inst)]


def _draw_pinsker(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    return [], lambda: [check_pinsker(rho, sigma, inst)]


def _draw_marton(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    rho = random_density(layout, seed=rng)
    one = QuditLayout(layout.d, 1)
    sigma = functools.reduce(tensor_product,
                             [random_density(one, seed=rng) for _ in range(layout.n)])
    return [_state_difference(rho, sigma)], lambda w1: [_marton_check(rho, sigma, w1, inst)]


def _draw_mgf(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    h = random_traceless(layout, seed=rng)
    t = (0.5, 1.0, -0.5, -1.0)[k % 4]
    return [h], lambda lip: [_mgf_check(h, t, lip, inst)]


def _draw_tail(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    h = random_traceless(layout, seed=rng)
    delta = (0.5, 1.0, 2.0)[k % 3]
    return [h], lambda lip: [_tail_check(h, delta, lip, inst)]


def _draw_diamond_dominates(seed, fam, k, layouts):
    rng = _rng_for(seed, fam, k)
    one = QuditLayout(layouts[0].d, 1)
    phi = ch._random_channel(one, rng)
    psi = ch._random_channel(one, rng)
    lo = ch.one_to_one_norm(phi, psi, seed=rng)
    hi = ch.diamond_norm(phi, psi)
    inst = {"seed": seed, "index": k, "d": one.d}
    return [], lambda: [CheckResult("diamond-dominates-one-to-one", lo, hi, inst)]


def _draw_contraction_bracket(seed, fam, k, layouts):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    if k % 2 == 0 and d == 2:
        phi, label = ch.amplitude_damping(0.1), "amplitude-damping-0.1"
    else:
        phi, label = ch._random_channel(QuditLayout(d, 1), rng), "random"
    n = 2
    rep = ch.tensor_power_contraction_bounds(phi, n)
    emp = ch.empirical_contraction(phi.tensor_power(n), samples=8, seed=rng)
    inst = {"seed": seed, "index": k, "channel": label, "n": n}
    # rep.lower and emp both estimate the contraction coefficient from below,
    # so neither bounds the other.  The witness ratio is the ratio of one
    # input, and it is at least rep.lower because ||rho* - omega||_1 <= 2.
    return [], lambda: [
        CheckResult("contraction-bracket-lower", rep.lower,
                    max(emp, rep.witness_ratio), inst),
        CheckResult("contraction-bracket-upper", emp, rep.upper, inst),
        CheckResult("contraction-witness-ratio", rep.lower, rep.witness_ratio, inst)]


def _draw_depolarizing(seed, fam, k, layouts):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    p = float(rng.uniform(0.1, 0.9))
    omega = random_density(QuditLayout(d, 1), seed=rng)
    phi = ch.depolarizing(p, omega)
    rep = ch.tensor_power_contraction_bounds(phi, 2)
    emp = ch.empirical_contraction(phi.tensor_power(2), samples=6, seed=rng)
    inst = {"seed": seed, "index": k, "d": d, "p": p}
    return [], lambda: [CheckResult("depolarizing-exact", abs(rep.lower - p), 1e-6, inst),
                        CheckResult("depolarizing-empirical", emp, p, inst)]


def _draw_light_cone(seed, fam, k, layouts):
    # three sites where a layout has them, else two
    layout, rng, inst = _setup(seed, fam, k, [l for l in layouts if l.n >= 3] or layouts,
                               min_sites=2)
    gates = []
    for layer in range(2):
        start = 1 + (layer % 2)
        for a in range(start, layout.n, 2):
            gates.append((haar_unitary(layout.d ** 2, seed=rng), [a, a + 1]))
    circuit = ch.Circuit(layout, gates)
    cones, bound = ch.light_cone_bound(circuit)
    emp = ch.empirical_contraction(circuit.as_channel(), samples=5, seed=rng)
    inst["cones"] = cones
    return [], lambda: [CheckResult("light-cone-dominates", emp, bound, inst)]


def _draw_classical_duality(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    return [(p, q, False), (p, q, True)], lambda v, vd: [
        CheckResult("classical-duality", abs(v - vd), 1e-8 * (1.0 + v), inst)]


def _draw_classical_shannon(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    return [(p, q, False)], lambda w1: [
        CheckResult("classical-shannon", *cl._shannon_check(p, q, w1), inst)]


def _draw_classical_product_tv(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts, min_sites=2)
    one = QuditLayout(layout.d, 1)
    ps = [_random_distribution(one, rng) for _ in range(layout.n)]
    qs = [_random_distribution(one, rng) for _ in range(layout.n)]
    p = cl.product_distribution(ps)
    q = cl.product_distribution(qs)
    want = sum(0.5 * np.abs(a.weights - b.weights).sum() for a, b in zip(ps, qs))
    return [(p, q, False)], lambda v: [
        CheckResult("classical-product-tv", abs(v - want), 1e-8 * (1.0 + want), inst)]


def _draw_classical_marton(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    p = _random_distribution(layout, rng)
    one = QuditLayout(layout.d, 1)
    q = cl.product_distribution([_random_distribution(one, rng) for _ in range(layout.n)])
    kl = cl.kl_divergence(p, q)
    return [(p, q, False)], lambda w1: [
        CheckResult("classical-marton", *cl._marton_check(layout.n, w1, kl), inst)]


def _draw_lipschitz_sandwich(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    h = random_traceless(layout, seed=rng)
    lo, hi = lipschitz_estimate(h)
    return [h], lambda exact: [CheckResult("lipschitz-sandwich-lower", lo, exact, inst),
                               CheckResult("lipschitz-sandwich-upper", exact, hi, inst)]


def _draw_norm_order(seed, fam, k, layouts):
    layout, rng, inst = _setup(seed, fam, k, layouts)
    x = random_traceless(layout, seed=rng)
    op = operator_norm(x.matrix)
    tn = trace_norm(x.matrix)
    return [], lambda: [CheckResult("norm-order-lower", op, tn, inst),
                        CheckResult("norm-order-upper", tn, layout.dim * op, inst)]


_FAMILIES = (
    ("duality-gap", "heavy", _Family(_draw_duality, _w1_values)),
    ("homogeneity", "heavy", _Family(_draw_homogeneity, _w1_values)),
    ("triangle", "heavy", _Family(_draw_triangle, _w1_values)),
    ("sandwich", "heavy", _Family(_draw_sandwich, _w1_values)),
    ("neighboring-collapse", "heavy", _Family(_draw_neighboring, _w1_values)),
    ("permutation-invariance", "heavy", _Family(_draw_permutation, _w1_values)),
    ("local-unitary-invariance", "heavy", _Family(_draw_local_unitary, _w1_values)),
    ("channel-contraction", "heavy", _Family(_draw_channel_contraction, _w1_values)),
    ("product-additivity", "heavy", _Family(_draw_product_additivity, _w1_values)),
    ("superadditivity", "heavy", _Family(_draw_superadditivity, _w1_values)),
    ("locality", "heavy", _Family(_draw_locality, _w1_values)),
    ("diagonal-restriction", "heavy", _Family(_draw_diagonal, _w1_values)),
    ("replace-site-trace-norm", "light", _Family(_draw_replace_site)),
    ("matched-marginal-entropy", "light", _Family(_draw_matched_marginal_entropy)),
    ("classical-neighboring", "light",
     _Family(_draw_classical_neighboring, _transport_values)),
    ("product-factor-bound", "heavy", _Family(_draw_factor_bound, _w1_values)),
    ("entangled-pair-value", "fixed2", _Family(_draw_entangled_pair, _w1_values)),
    ("channel-perturbation-containment", "heavy", _Family(_draw_containment, _w1_values)),
    ("entropy-continuity", "heavy", _Family(_draw_entropy, _w1_values)),
    ("pinsker", "light", _Family(_draw_pinsker)),
    ("marton", "heavy", _Family(_draw_marton, _w1_values)),
    ("concentration-mgf", "light", _Family(_draw_mgf, _lipschitz_values)),
    ("spectral-tail", "light", _Family(_draw_tail, _lipschitz_values)),
    ("diamond-dominates-one-to-one", "heavy", _Family(_draw_diamond_dominates)),
    ("contraction-bracket", "fixed2", _Family(_draw_contraction_bracket)),
    ("depolarizing", "fixed2", _Family(_draw_depolarizing)),
    ("light-cone-dominates", "fixed2", _Family(_draw_light_cone)),
    ("classical-duality", "light", _Family(_draw_classical_duality, _transport_values)),
    ("classical-shannon", "light", _Family(_draw_classical_shannon, _transport_values)),
    ("classical-product-tv", "light",
     _Family(_draw_classical_product_tv, _transport_values)),
    ("classical-marton", "light", _Family(_draw_classical_marton, _transport_values)),
    ("lipschitz-sandwich", "light",
     _Family(_draw_lipschitz_sandwich, _lipschitz_values)),
    ("norm-order", "light", _Family(_draw_norm_order)),
)

# names that must appear in every nonempty report; a report missing one of
# these is itself a failure
REQUIRED_CHECKS = (
    "duality-gap", "homogeneity", "triangle",
    "sandwich-lower", "sandwich-upper", "neighboring-collapse",
    "permutation-invariance", "local-unitary-invariance",
    "channel-contraction", "product-additivity", "superadditivity",
    "locality-region", "locality-absolute", "diagonal-restriction",
    "replace-site-trace-norm", "matched-marginal-entropy",
    "classical-neighboring", "product-factor-bound", "entangled-pair-value",
    "channel-perturbation-containment", "entropy-continuity", "pinsker",
    "marton", "concentration-mgf", "spectral-tail",
    "diamond-dominates-one-to-one", "contraction-bracket-lower",
    "contraction-bracket-upper", "contraction-witness-ratio",
    "depolarizing-exact", "depolarizing-empirical", "light-cone-dominates",
    "classical-duality", "classical-shannon", "classical-product-tv",
    "classical-marton", "lipschitz-sandwich-lower", "lipschitz-sandwich-upper",
    "norm-order-lower", "norm-order-upper",
)


@dataclass
class BatteryReport:
    seed: int
    trials: int
    layouts: tuple
    results: list = field(default_factory=list)
    missing: tuple = ()

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.missing

    def summary(self) -> dict:
        worst = {}
        counts = {}
        for r in self.results:
            counts[r.name] = counts.get(r.name, 0) + 1
            m = worst.get(r.name)
            if m is None or r.margin < m:
                worst[r.name] = r.margin
        return {
            "type": "summary",
            "seed": self.seed,
            "trials": self.trials,
            "layouts": [[l.d, l.n] for l in self.layouts],
            "total": len(self.results),
            "failures": len(self.failures),
            "missing": list(self.missing),
            "counts": {k: counts[k] for k in sorted(counts)},
            "worst_margin": {k: _finite(worst[k]) for k in sorted(worst)},
            "passed": self.passed,
        }

    def to_json_lines(self) -> str:
        """One line per check, then the summary, numbers rounded to 12
        significant digits: what `qw1 verify` prints."""
        rows = [r.to_json() for r in self.results] + [self.summary()]
        return "".join(json.dumps(_round12(row), sort_keys=True, separators=(",", ":")) + "\n"
                       for row in rows)


def run_battery(seed: int = 42, trials: int = 100, layouts=None,
                only=None) -> BatteryReport:
    """Run the whole check catalogue on seeded random instances.

    `trials` sets the instance count for cheap checks; checks that solve
    full transport SDPs per instance run max(2, trials // 25) instances so
    the default battery stays fast. trials = 0 runs nothing and reports an
    empty pass. `only` restricts to the named families, a str naming one
    (and then skips the coverage assertion); InvalidInput refuses a name
    that is no family's.
    """
    if only is not None:
        only = (only,) if isinstance(only, str) else tuple(only)
        known = {name for name, _, _ in _FAMILIES}
        bad = [s for s in only if s not in known]
        if bad:
            raise InvalidInput(f"unknown suite families {bad}; known: {sorted(known)}")
    if seed < 0:
        raise InvalidInput("seed must be nonnegative")
    if trials < 0:
        raise InvalidInput("trials must be nonnegative")
    if layouts is None:
        layouts = (QuditLayout(2, 1), QuditLayout(2, 2), QuditLayout(2, 3))
    layouts = tuple(layouts)
    if not layouts:
        raise InvalidInput("need at least one layout")
    heavy = max(2, trials // 25)
    counts = {"light": trials, "heavy": min(heavy, trials), "fixed2": min(2, trials)}
    results = []
    for fam_idx, (fam_name, weight, family) in enumerate(_FAMILIES):
        if only is not None and fam_name not in only:
            continue
        ks = range(counts[weight])
        try:
            for checks in family.batch(seed, fam_idx, ks, layouts):
                results.extend(checks)
            continue
        except QW1Error:
            pass  # one instance at a time below, each failure on its own line
        for k in ks:
            try:
                results.extend(family.batch(seed, fam_idx, [k], layouts)[0])
            except QW1Error as exc:
                results.append(CheckResult(
                    fam_name, 1.0, 0.0,
                    {"seed": seed, "index": k, "error": str(exc)},
                    ("exception",)))
    results.sort(key=lambda r: (r.name, r.instance.get("index", 0),
                                json.dumps(r.instance, sort_keys=True, default=str)))
    missing = ()
    if trials > 0 and only is None:
        present = {r.name for r in results}
        missing = tuple(sorted(set(REQUIRED_CHECKS) - present))
    return BatteryReport(seed, trials, layouts, results, missing)
