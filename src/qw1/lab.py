"""Inequality verification harness.

Every bound gets evaluated as a (lhs, rhs) pair on concrete instances; a
check passes when margin = rhs - lhs >= -1e-7 (1 + |rhs|).  The one-sided
relative tolerance keeps solver noise from failing tight cases while still
catching genuine violations.

run_battery drives the whole catalogue on seeded random instances and emits
a deterministic JSON-lines report.  Each instance is regenerated from
(seed, family index, instance index) alone, so any line of the report can be
reproduced in isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import classical as cl
from .conic import SolverOptions
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
    is_neighboring,
    lipschitz_constant,
    lipschitz_estimate,
    w1_distance,
    w1_dual,
    w1_primal,
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


def entropy_modulus(t: float) -> float:
    """(t+1) ln(t+1) - t ln t, the modulus of entropy continuity."""
    if t <= 0.0:
        return 0.0
    return (t + 1.0) * math.log(t + 1.0) - t * math.log(t)


# ---------------------------------------------------------------------------
# standalone checks
# ---------------------------------------------------------------------------

def check_entropy_continuity(rho: DensityMatrix, sigma: DensityMatrix,
                             options: SolverOptions | None = None,
                             instance: dict | None = None) -> CheckResult:
    """|S(rho) - S(sigma)| against g(W1) + W1 ln(d^2 n)."""
    w1 = w1_distance(rho, sigma, options=options).value
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
                 options: SolverOptions | None = None,
                 instance: dict | None = None) -> CheckResult:
    """W1 against sqrt(n/2 S(rho||sigma)) for product sigma.

    Flags the instances where this beats the Pinsker route, i.e. where
    W1 >= (sqrt(n)/2) ||rho - sigma||_1.
    """
    factors = list(sigma_factors)
    sigma = factors[0]
    for f in factors[1:]:
        sigma = tensor_product(sigma, f)
    if sigma.layout != rho.layout:
        raise InvalidInput(
            f"product of factors lives on {sigma.layout}, state on {rho.layout}")
    n = rho.n
    rel = relative_entropy(rho, sigma)
    lhs = w1_distance(rho, sigma, options=options).value
    flags = []
    if math.isinf(rel):
        flags.append("infinite-relative-entropy")
        rhs = math.inf
    else:
        rhs = math.sqrt(0.5 * n * rel)
    if lhs >= 0.5 * math.sqrt(n) * trace_norm(rho.matrix - sigma.matrix) - 1e-9:
        flags.append("beats-pinsker")
    return CheckResult("marton", lhs, rhs, instance or {}, tuple(flags))


def concentration_mgf(h: HermitianOperator, t: float,
                      options: SolverOptions | None = None,
                      instance: dict | None = None) -> CheckResult:
    """Normalized Tr exp(t (H - mean)) against exp(n t^2 L^2 / 8)."""
    lam = np.linalg.eigvalsh(h.matrix)
    dim = h.layout.dim
    mean = lam.sum() / dim
    lhs = float(np.exp(t * (lam - mean)).sum() / dim)
    lip = lipschitz_constant(h, options=options).value
    rhs = math.exp(h.n * t * t * lip * lip / 8.0)
    inst = dict(instance or {})
    inst["t"] = t
    return CheckResult("concentration-mgf", lhs, rhs, inst)


def spectral_tail(h: HermitianOperator, delta: float,
                  options: SolverOptions | None = None,
                  instance: dict | None = None) -> CheckResult:
    """Number of eigenvalues above mean + delta sqrt(n) L, against
    d^n exp(-2 delta^2)."""
    if delta < 0:
        raise InvalidInput(f"delta = {delta} must be nonnegative")
    lam = np.linalg.eigvalsh(h.matrix)
    dim = h.layout.dim
    mean = lam.sum() / dim
    lip = lipschitz_constant(h, options=options).value
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


def _pick_layout(layouts, index, min_sites=1):
    ok = [l for l in layouts if l.n >= min_sites]
    if not ok:
        return None
    return ok[index % len(ok)]


def _neighboring_pair(layout: QuditLayout, rng):
    """Two states agreeing after discarding one site: a shared state pushed
    through two different channels acting on that site."""
    i = int(rng.integers(1, layout.n + 1))
    shared = random_density(layout, seed=rng)
    lam1 = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    lam2 = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    return lam1.apply(shared), lam2.apply(shared), i


def _random_distribution(layout: QuditLayout, rng) -> cl.Distribution:
    return cl.Distribution(layout, rng.dirichlet(np.ones(layout.dim)))


def _eq(name, got, want, instance, scale=None):
    band = 1e-6 * (1.0 + (scale if scale is not None else abs(want)))
    return CheckResult(name, abs(got - want), band, instance)


# each family: (name(s), weight, generator(seed, fam_idx, k, layouts, options) -> [CheckResult])
# weight "light" runs `trials` instances, "heavy" runs max(2, trials // 25).

def _fam_duality(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    p = w1_primal(x, options).value
    d = w1_dual(x, options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("duality-gap", abs(p - d), 1e-6 * (1.0 + p), inst)]


def _fam_homogeneity(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    c = float(rng.uniform(-3.0, 3.0))
    v = w1_primal(x, options).value
    vc = w1_primal(c * x, options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "c": c}
    return [_eq("homogeneity", vc, abs(c) * v, inst)]


def _fam_triangle(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    y = random_traceless(layout, seed=rng)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    lhs = w1_primal(x + y, options).value
    rhs = w1_primal(x, options).value + w1_primal(y, options).value
    return [CheckResult("triangle", lhs, rhs, inst)]


def _fam_sandwich(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    v = w1_primal(x, options).value
    tn = trace_norm(x.matrix)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("sandwich-lower", 0.5 * tn, v, inst),
            CheckResult("sandwich-upper", v, 0.5 * layout.n * tn, inst)]


def _fam_neighboring(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho, sigma, i = _neighboring_pair(layout, rng)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "site": i}
    flags = () if is_neighboring(rho, sigma) is not None else ("not-detected",)
    v = w1_distance(rho, sigma, options=options).value
    half = 0.5 * trace_norm(rho.matrix - sigma.matrix)
    return [CheckResult("neighboring-collapse", abs(v - half),
                        1e-6 * (1.0 + v), inst, flags)]


def _fam_permutation(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    perm = [int(p) + 1 for p in rng.permutation(layout.n)]
    v = w1_primal(x, options).value
    vp = w1_primal(permute_sites(x, perm), options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "perm": perm}
    return [_eq("permutation-invariance", vp, v, inst)]


def _fam_local_unitary(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    i = int(rng.integers(1, layout.n + 1))
    u = embed_matrix(haar_unitary(layout.d, seed=rng), layout, [i])
    v = w1_primal(x, options).value
    vu = w1_primal(HermitianOperator(layout, u @ x.matrix @ u.conj().T), options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "site": i}
    return [_eq("local-unitary-invariance", vu, v, inst)]


def _fam_channel_contraction(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    i = int(rng.integers(1, layout.n + 1))
    phi = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    x = rho.matrix - sigma.matrix
    before = w1_primal(HermitianOperator(layout, x), options).value
    after = w1_primal(HermitianOperator(layout, phi.apply_matrix(x)), options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "site": i}
    return [CheckResult("channel-contraction", after, before, inst)]


def _fam_product_additivity(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    one = QuditLayout(layout.d, 1)
    rhos = [random_density(one, seed=rng) for _ in range(layout.n)]
    sigmas = [random_density(one, seed=rng) for _ in range(layout.n)]
    rho, sigma = rhos[0], sigmas[0]
    for r, s in zip(rhos[1:], sigmas[1:]):
        rho, sigma = tensor_product(rho, r), tensor_product(sigma, s)
    v = w1_distance(rho, sigma, options=options).value
    want = sum(0.5 * trace_norm(r.matrix - s.matrix) for r, s in zip(rhos, sigmas))
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [_eq("product-additivity", v, want, inst)]


def _fam_superadditivity(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    cut = int(rng.integers(1, layout.n))
    a = list(range(1, cut + 1))
    b = list(range(cut + 1, layout.n + 1))
    lhs = w1_primal(partial_trace(x, b), options).value \
        + w1_primal(partial_trace(x, a), options).value
    rhs = w1_primal(x, options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "cut": cut}
    return [CheckResult("superadditivity", lhs, rhs, inst)]


def _fam_locality(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    size = int(rng.integers(1, layout.n))
    region = sorted(int(s) + 1 for s in rng.choice(layout.n, size=size, replace=False))
    shared = random_density(layout, seed=rng)
    small = QuditLayout(layout.d, size)
    lam1 = ch.embed_channel(ch._random_channel(small, rng), layout, region)
    lam2 = ch.embed_channel(ch._random_channel(small, rng), layout, region)
    x = lam1.apply_matrix(shared.matrix) - lam2.apply_matrix(shared.matrix)
    v = w1_primal(HermitianOperator(layout, x), options).value
    d2 = layout.d ** 2
    factor = size * (d2 - 1.0) / d2
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n],
            "region": region}
    return [CheckResult("locality-region", v, factor * trace_norm(x), inst),
            CheckResult("locality-absolute", v, 2.0 * factor, inst)]


def _fam_diagonal(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    qv = w1_distance(cl.diagonal_state(p), cl.diagonal_state(q), options=options).value
    cv, _ = cl.classical_w1(p, q, options)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("diagonal-restriction", abs(qv - cv), 1e-6 * (1.0 + cv), inst)]


def _fam_replace_site(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    moved = x.matrix - replace_with_maximally_mixed(x, 1).matrix
    d2 = layout.d ** 2
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("replace-site-trace-norm", trace_norm(moved),
                        2.0 * (d2 - 1.0) / d2 * trace_norm(x.matrix), inst)]


def _fam_matched_marginal_entropy(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    tau = random_density(QuditLayout(layout.d, 1), seed=rng)
    sigma = tensor_product(tau, partial_trace(rho, 1))
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("matched-marginal-entropy", lhs, 2.0 * math.log(layout.d), inst)]


def _fam_classical_neighboring(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    d, n = layout.d, layout.n
    prefix = rng.dirichlet(np.ones(d ** (n - 1)))
    c1 = rng.dirichlet(np.ones(d), size=d ** (n - 1))
    c2 = rng.dirichlet(np.ones(d), size=d ** (n - 1))
    p = cl.Distribution(layout, (prefix[:, None] * c1).ravel())
    q = cl.Distribution(layout, (prefix[:, None] * c2).ravel())
    v, _ = cl.classical_w1(p, q, options)
    inst = {"seed": seed, "index": k, "layout": [d, n]}
    return [CheckResult("classical-neighboring", v, 1.0, inst)]


def _fam_factor_bound(seed, fam, k, layouts, options):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    nx, ny = (1, 1) if k % 2 == 0 else (1, 2)
    x = random_traceless(QuditLayout(d, nx), seed=rng)
    g = rng.standard_normal((d ** ny, d ** ny)) + 1j * rng.standard_normal((d ** ny, d ** ny))
    y = HermitianOperator(QuditLayout(d, ny), (g + g.conj().T) / 2.0)
    xy = HermitianOperator(QuditLayout(d, nx + ny), np.kron(x.matrix, y.matrix))
    lhs = w1_primal(xy, options).value
    rhs = w1_primal(x, options).value * trace_norm(y.matrix)
    inst = {"seed": seed, "index": k, "nx": nx, "ny": ny, "d": d}
    return [CheckResult("product-factor-bound", lhs, rhs, inst)]


def _fam_entangled_pair(seed, fam, k, layouts, options):
    d = layouts[0].d
    gamma = maximally_entangled(d)
    if k % 2 == 1:
        rng = _rng_for(seed, fam, k)
        u = np.kron(haar_unitary(d, seed=rng), haar_unitary(d, seed=rng))
        gamma = DensityMatrix(gamma.layout, u @ gamma.matrix @ u.conj().T)
    v = w1_distance(gamma, maximally_mixed(gamma.layout), options=options).value
    want = (d * d - 1.0) / (d * d)
    inst = {"seed": seed, "index": k, "d": d, "rotated": bool(k % 2)}
    return [_eq("entangled-pair-value", v, want, inst)]


def _fam_containment(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    i = int(rng.integers(1, layout.n + 1))
    phi = ch.embed_channel(ch._random_channel(QuditLayout(layout.d, 1), rng), layout, [i])
    x = HermitianOperator(layout, rho.matrix - phi.apply_matrix(rho.matrix))
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n], "site": i}
    return [CheckResult("channel-perturbation-containment",
                        w1_primal(x, options).value, 1.0, inst)]


def _fam_entropy(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [check_entropy_continuity(rho, sigma, options, inst)]


def _fam_pinsker(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    sigma = random_density(layout, seed=rng)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [check_pinsker(rho, sigma, inst)]


def _fam_marton(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    rho = random_density(layout, seed=rng)
    one = QuditLayout(layout.d, 1)
    factors = [random_density(one, seed=rng) for _ in range(layout.n)]
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [check_marton(rho, factors, options, inst)]


def _fam_mgf(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    h = random_traceless(layout, seed=rng)
    t = (0.5, 1.0, -0.5, -1.0)[k % 4]
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [concentration_mgf(h, t, options, inst)]


def _fam_tail(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    h = random_traceless(layout, seed=rng)
    delta = (0.5, 1.0, 2.0)[k % 3]
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [spectral_tail(h, delta, options, inst)]


def _fam_diamond_dominates(seed, fam, k, layouts, options):
    rng = _rng_for(seed, fam, k)
    one = QuditLayout(layouts[0].d, 1)
    phi = ch._random_channel(one, rng)
    psi = ch._random_channel(one, rng)
    lo = ch.one_to_one_norm(phi, psi, seed=rng)
    hi = ch.diamond_norm(phi, psi, options)
    inst = {"seed": seed, "index": k, "d": one.d}
    return [CheckResult("diamond-dominates-one-to-one", lo, hi, inst)]


def _fam_contraction_bracket(seed, fam, k, layouts, options):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    if k % 2 == 0 and d == 2:
        phi, label = ch.amplitude_damping(0.1), "amplitude-damping-0.1"
    else:
        phi, label = ch._random_channel(QuditLayout(d, 1), rng), "random"
    n = 2
    rep = ch.tensor_power_contraction_bounds(phi, n)
    emp = ch.empirical_contraction(phi.tensor_power(n), samples=8,
                                   seed=rng, options=options)
    inst = {"seed": seed, "index": k, "channel": label, "n": n}
    # rep.lower and emp both estimate the contraction coefficient from below,
    # so neither bounds the other.  The witness ratio is the ratio of one
    # input, and it is at least rep.lower because ||rho* - omega||_1 <= 2.
    return [CheckResult("contraction-bracket-lower", rep.lower,
                        max(emp, rep.witness_ratio), inst),
            CheckResult("contraction-bracket-upper", emp, rep.upper, inst),
            CheckResult("contraction-witness-ratio", rep.lower, rep.witness_ratio, inst)]


def _fam_depolarizing(seed, fam, k, layouts, options):
    rng = _rng_for(seed, fam, k)
    d = layouts[0].d
    p = float(rng.uniform(0.1, 0.9))
    omega = random_density(QuditLayout(d, 1), seed=rng)
    phi = ch.depolarizing(p, omega)
    rep = ch.tensor_power_contraction_bounds(phi, 2)
    emp = ch.empirical_contraction(phi.tensor_power(2), samples=6,
                                   seed=rng, options=options)
    inst = {"seed": seed, "index": k, "d": d, "p": p}
    return [CheckResult("depolarizing-exact", abs(rep.lower - p), 1e-6, inst),
            CheckResult("depolarizing-empirical", emp, p, inst)]


def _fam_light_cone(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=3) or _pick_layout(layouts, k, min_sites=2)
    if layout is None:
        return []
    rng = _rng_for(seed, fam, k)
    gates = []
    for layer in range(2):
        start = 1 + (layer % 2)
        for a in range(start, layout.n, 2):
            gates.append((haar_unitary(layout.d ** 2, seed=rng), [a, a + 1]))
    circuit = ch.Circuit(layout, gates)
    cones, bound = ch.light_cone_bound(circuit)
    emp = ch.empirical_contraction(circuit.as_channel(), samples=5,
                                   seed=rng, options=options)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n],
            "cones": cones}
    return [CheckResult("light-cone-dominates", emp, bound, inst)]


def _fam_classical_duality(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    v, _ = cl.classical_w1(p, q, options)
    vd, _ = cl.classical_w1_dual(p, q, options)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("classical-duality", abs(v - vd), 1e-8 * (1.0 + v), inst)]


def _fam_classical_shannon(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    p = _random_distribution(layout, rng)
    q = _random_distribution(layout, rng)
    lhs, rhs = cl.shannon_continuity_bound(p, q, options)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("classical-shannon", lhs, rhs, inst)]


def _fam_classical_product_tv(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k, min_sites=2)
    rng = _rng_for(seed, fam, k)
    one = QuditLayout(layout.d, 1)
    ps = [_random_distribution(one, rng) for _ in range(layout.n)]
    qs = [_random_distribution(one, rng) for _ in range(layout.n)]
    p = cl.product_distribution(ps)
    q = cl.product_distribution(qs)
    v, _ = cl.classical_w1(p, q, options)
    want = sum(0.5 * np.abs(a.weights - b.weights).sum() for a, b in zip(ps, qs))
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("classical-product-tv", abs(v - want), 1e-8 * (1.0 + want), inst)]


def _fam_classical_marton(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    p = _random_distribution(layout, rng)
    one = QuditLayout(layout.d, 1)
    qs = [_random_distribution(one, rng) for _ in range(layout.n)]
    lhs, rhs = cl.classical_marton_bound(p, qs, options)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("classical-marton", lhs, rhs, inst)]


def _fam_lipschitz_sandwich(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    h = random_traceless(layout, seed=rng)
    lo, hi = lipschitz_estimate(h)
    exact = lipschitz_constant(h, options=options).value
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("lipschitz-sandwich-lower", lo, exact, inst),
            CheckResult("lipschitz-sandwich-upper", exact, hi, inst)]


def _fam_norm_order(seed, fam, k, layouts, options):
    layout = _pick_layout(layouts, k)
    rng = _rng_for(seed, fam, k)
    x = random_traceless(layout, seed=rng)
    op = operator_norm(x.matrix)
    tn = trace_norm(x.matrix)
    inst = {"seed": seed, "index": k, "layout": [layout.d, layout.n]}
    return [CheckResult("norm-order-lower", op, tn, inst),
            CheckResult("norm-order-upper", tn, layout.dim * op, inst)]


_FAMILIES = (
    ("duality-gap", "heavy", _fam_duality),
    ("homogeneity", "heavy", _fam_homogeneity),
    ("triangle", "heavy", _fam_triangle),
    ("sandwich", "heavy", _fam_sandwich),
    ("neighboring-collapse", "heavy", _fam_neighboring),
    ("permutation-invariance", "heavy", _fam_permutation),
    ("local-unitary-invariance", "heavy", _fam_local_unitary),
    ("channel-contraction", "heavy", _fam_channel_contraction),
    ("product-additivity", "heavy", _fam_product_additivity),
    ("superadditivity", "heavy", _fam_superadditivity),
    ("locality", "heavy", _fam_locality),
    ("diagonal-restriction", "heavy", _fam_diagonal),
    ("replace-site-trace-norm", "light", _fam_replace_site),
    ("matched-marginal-entropy", "light", _fam_matched_marginal_entropy),
    ("classical-neighboring", "light", _fam_classical_neighboring),
    ("product-factor-bound", "heavy", _fam_factor_bound),
    ("entangled-pair-value", "fixed2", _fam_entangled_pair),
    ("channel-perturbation-containment", "heavy", _fam_containment),
    ("entropy-continuity", "heavy", _fam_entropy),
    ("pinsker", "light", _fam_pinsker),
    ("marton", "heavy", _fam_marton),
    ("concentration-mgf", "light", _fam_mgf),
    ("spectral-tail", "light", _fam_tail),
    ("diamond-dominates-one-to-one", "heavy", _fam_diamond_dominates),
    ("contraction-bracket", "fixed2", _fam_contraction_bracket),
    ("depolarizing", "fixed2", _fam_depolarizing),
    ("light-cone-dominates", "fixed2", _fam_light_cone),
    ("classical-duality", "light", _fam_classical_duality),
    ("classical-shannon", "light", _fam_classical_shannon),
    ("classical-product-tv", "light", _fam_classical_product_tv),
    ("classical-marton", "light", _fam_classical_marton),
    ("lipschitz-sandwich", "light", _fam_lipschitz_sandwich),
    ("norm-order", "light", _fam_norm_order),
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
        lines = [json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
                 for r in self.results]
        lines.append(json.dumps(self.summary(), sort_keys=True,
                                separators=(",", ":")))
        return "\n".join(lines) + "\n"


def run_battery(seed: int = 42, trials: int = 100, layouts=None,
                options: SolverOptions | None = None,
                only=None) -> BatteryReport:
    """Run the whole check catalogue on seeded random instances.

    `trials` sets the instance count for cheap checks; checks that solve
    full transport SDPs per instance run max(2, trials // 25) instances so
    the default battery stays fast. trials = 0 runs nothing and reports an
    empty pass. `only` restricts to the named families (and then skips the
    coverage assertion).
    """
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
    for fam_idx, (fam_name, weight, fn) in enumerate(_FAMILIES):
        if only is not None and fam_name not in only:
            continue
        for k in range(counts[weight]):
            try:
                results.extend(fn(seed, fam_idx, k, layouts, options))
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
