"""Quantum channels and the transport-contraction machinery built on them.

A channel is a Kraus family; differences of channels are handled as pairs.
The contraction story for a one-qudit channel Phi with fixed point omega,
letting F = Phi - E where E replaces the input with omega:

  * lower bound  0.5 ||F||_{1->1}, witnessed by (rho* - omega) (x) omega^(n-1)
    with rho* the 1->1 maximizer;
  * upper bound  min(1, d ||F||_{1->1}), a closed-form bound on the
    completely bounded trace norm (1 because a one-qudit channel never
    expands the transport norm);
  * channels acting as X -> p X + (1-p) omega Tr X are detected and reported
    exactly: the coefficient is p, attained by any one-site eigenoperator
    witness.

The diamond norm itself is also available as an SDP for comparison; note
that d ||F||_{1->1} can strictly exceed it, the reported upper bound is
deliberately the closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import conic
from .conic import ConicProblem, svec
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NoFixedPoint,
    NotTracePreserving,
    NotUnitary,
    ParameterRange,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    embed_matrix,
    json_int,
    matrix_from_json,
    matrix_to_json,
    operator_to_json,
    random_density,
    trace_norm,
    _lift,
    _rng,
)
from .w1 import hermitian_basis, _w1_primal_runs

TP_TOL = 1e-9
UNITARY_TOL = 1e-9
FIXED_POINT_TOL = 1e-8
DEPOLARIZING_TOL = 1e-9
BLOCH_GRID = 10_000  # pure inputs the 1->1 norm sweeps at d = 2
STARTS = 64  # its random starting inputs at d > 2


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    def __init__(self, layout: QuditLayout, kraus):
        self.layout = layout
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        dim = layout.dim
        for k in ops:
            if k.shape != (dim, dim):
                raise DimensionMismatch(
                    f"Kraus operator of shape {k.shape}, expected {(dim, dim)}")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(dim)).max() > TP_TOL:
            raise NotTracePreserving(
                f"sum K^dag K deviates from identity by {np.abs(total - np.eye(dim)).max():.2e}")
        self.kraus = ops

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def n(self) -> int:
        return self.layout.n

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return sum(k @ m @ k.conj().T for k in self.kraus)

    def apply(self, x: HermitianOperator) -> HermitianOperator:
        if x.layout != self.layout:
            raise DimensionMismatch(f"operator on {x.layout}, channel on {self.layout}")
        return type(x)(self.layout, self.apply_matrix(x.matrix))

    def choi(self) -> HermitianOperator:
        """sum_kl Phi(E_kl) (x) E_kl, i.e. the action on a maximally
        entangled input scaled by the input dimension."""
        dim = self.layout.dim
        j = sum(np.outer(k.ravel(), k.ravel().conj()) for k in self.kraus)
        return HermitianOperator(QuditLayout(self.layout.d, 2 * self.layout.n), j)

    def tensor_power(self, m: int) -> "KrausChannel":
        layout = QuditLayout(self.d, self.n * m)
        ops = [reduce(np.kron, combo) for combo in itertools.product(self.kraus, repeat=m)]
        return KrausChannel(layout, ops)

    def to_json(self) -> dict:
        return {"kind": "kraus", "d": self.d, "n": self.n,
                "kraus": [matrix_to_json(k) for k in self.kraus]}


def embed_channel(phi: KrausChannel, layout: QuditLayout, sites) -> KrausChannel:
    """Act with phi on the given sites of a larger register, identity elsewhere."""
    ops = [embed_matrix(k, layout, list(sites)) for k in phi.kraus]
    return KrausChannel(layout, ops)


def fixed_point(phi: KrausChannel) -> DensityMatrix:
    """A state with Phi(omega) = omega, from the transfer-matrix eigenspace
    at eigenvalue 1 (least-squares fallback for degenerate clusters)."""
    dim = phi.layout.dim
    t = sum(np.kron(k, k.conj()) for k in phi.kraus)
    evals, evecs = np.linalg.eig(t)
    order = np.argsort(np.abs(evals - 1.0), kind="stable")
    candidates = []
    for idx in order:
        if abs(evals[idx] - 1.0) > FIXED_POINT_TOL:
            break
        candidates.append(evecs[:, idx].reshape(dim, dim))
    # degenerate or defective clusters: project the constraint directly
    lsq = np.vstack([t - np.eye(dim * dim), np.eye(dim).ravel()[None, :]])
    rhs = np.zeros(dim * dim + 1)
    rhs[-1] = 1.0
    candidates.append(np.linalg.lstsq(lsq, rhs, rcond=None)[0].reshape(dim, dim))
    for raw in candidates:
        m = (raw + raw.conj().T) / 2.0
        tr = np.trace(m).real
        if abs(tr) < 1e-12:
            continue
        m = m / tr
        w = np.linalg.eigvalsh(m)
        if w.min() < -1e-9:
            continue
        m = m - min(w.min(), 0.0) * np.eye(dim)
        m = m / np.trace(m).real
        if trace_norm(phi.apply_matrix(m) - m) <= FIXED_POINT_TOL:
            return DensityMatrix(phi.layout, m)
    raise NoFixedPoint("no PSD fixed point near transfer eigenvalue 1")


# ---------------------------------------------------------------------------
# norms of channel differences
# ---------------------------------------------------------------------------

def _difference_action(phi: KrausChannel, psi: KrausChannel):
    if phi.layout != psi.layout:
        raise DimensionMismatch("channel layouts differ")
    basis = hermitian_basis(phi.layout.dim)
    images = np.stack([
        phi.apply_matrix(f) - psi.apply_matrix(f) for f in basis
    ])
    return basis, images


def _one_to_one_with_maximizer(phi: KrausChannel, psi: KrausChannel, seed=1234):
    """max_rho ||(phi - psi)(rho)||_1 over pure inputs, plus an argmax."""
    # the package's one use of scipy.optimize, slow to import: only here
    import scipy.optimize

    d = phi.layout.dim
    basis, images = _difference_action(phi, psi)

    def value_of(psi_vec: np.ndarray) -> float:
        rho = np.outer(psi_vec, psi_vec.conj())
        coords = np.einsum("kij,ji->k", basis, rho).real
        return trace_norm(np.tensordot(coords, images, axes=1))

    if d == 2:
        # dense Fibonacci sweep of the Bloch sphere, vectorized: images of
        # Hermitian inputs are Hermitian, so the trace norm is a sum of |eig|
        k = np.arange(BLOCH_GRID)
        golden = (1 + 5 ** 0.5) / 2
        z = 1 - 2 * (k + 0.5) / BLOCH_GRID
        th = 2 * np.pi * k / golden
        vecs = np.stack([np.sqrt((1 + z) / 2) + 0j,
                         np.sqrt((1 - z) / 2) * np.exp(1j * th)], axis=1)
        rhos = np.einsum("ka,kb->kab", vecs, vecs.conj())
        coords = np.einsum("fij,kji->kf", basis, rhos).real
        mats = np.tensordot(coords, images, axes=(1, 0))
        vals = np.abs(np.linalg.eigvalsh(mats)).sum(axis=1)
        best = np.argsort(vals)[-4:]
        candidates = [vecs[i] for i in best]
    else:
        rng = _rng(seed)
        pool = []
        for _ in range(STARTS):
            g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            pool.append(g / np.linalg.norm(g))
        vals = [value_of(v) for v in pool]
        best = np.argsort(vals)[-4:]
        candidates = [pool[i] for i in best]

    best_val, best_vec = -1.0, None
    for v0 in candidates:
        z0 = np.concatenate([v0.real, v0.imag])

        def neg(z):
            w = z[:d] + 1j * z[d:]
            nrm = np.linalg.norm(w)
            if nrm < 1e-12:
                return 0.0
            return -value_of(w / nrm)

        res = scipy.optimize.minimize(neg, z0, method="Nelder-Mead",
                                      options={"maxiter": 400, "xatol": 1e-9,
                                               "fatol": 1e-12})
        w = res.x[:d] + 1j * res.x[d:]
        w = w / np.linalg.norm(w)
        val = value_of(w)
        if val > best_val:
            best_val, best_vec = val, w
    rho = np.outer(best_vec, best_vec.conj())
    return best_val, DensityMatrix(phi.layout, rho)


def one_to_one_norm(phi: KrausChannel, psi: KrausChannel, seed=1234) -> float:
    """||phi - psi||_{1->1}: multistart over pure inputs (dense Bloch sweep
    at d = 2), reported as a converged lower-bound-style estimate."""
    val, _ = _one_to_one_with_maximizer(phi, psi, seed)
    return val


def diamond_norm(phi: KrausChannel, psi: KrausChannel) -> float:
    """Completely bounded trace norm of phi - psi via the Choi SDP."""
    if phi.layout != psi.layout:
        raise DimensionMismatch("channel layouts differ")
    j = phi.choi().matrix - psi.choi().matrix
    din = phi.layout.dim          # input = output dimension here
    dj = din * din                # Choi dimension
    big = 2 * dj                  # [[Y0, -J], [-J, Y1]]
    corner = np.zeros((big, big), dtype=complex)
    corner[:dj, dj:] = -j
    corner[dj:, :dj] = -j.conj().T

    # constraint rows: the corner of Z, then S_a + Tr_out(Y_a) - t_a I = 0
    blocks = (big, din, din)      # Z, S0, S1
    Lz, Ls = big * big, din * din
    ncols = Lz + 2 * Ls + 2
    col_t = [Lz + 2 * Ls, Lz + 2 * Ls + 1]
    mask = np.zeros((big, big), dtype=complex)
    mask[:dj, dj:] = 1.0 + 1.0j
    fixed = np.flatnonzero(svec(mask))   # real and imaginary corner coordinates
    nfix = fixed.size
    A = np.zeros((nfix + 2 * Ls, ncols))
    b = np.zeros(nfix + 2 * Ls)
    A[np.arange(nfix), fixed] = 1.0
    b[:nfix] = svec(corner)[fixed]
    # the adjoint of Tr_out on the (out (x) in) Choi ordering: each basis
    # element on the n input sites, the identity on the n output sites
    lift = np.zeros((2, Ls, big, big), dtype=complex)
    n = phi.layout.n
    lift[0, :, :dj, :dj] = lift[1, :, dj:, dj:] = _lift(hermitian_basis(din), phi.layout.d,
                                                        2 * n, range(n, 2 * n))
    A[nfix:, :Lz] = svec(lift).reshape(2 * Ls, Lz)
    for a in range(2):
        rows = slice(nfix + a * Ls, nfix + (a + 1) * Ls)
        A[rows, Lz + a * Ls:Lz + (a + 1) * Ls] = np.eye(Ls)
        A[rows, col_t[a]] = -svec(np.eye(din))

    c = np.zeros(ncols)
    c[col_t[0]] = 0.5
    c[col_t[1]] = 0.5
    (sol,) = conic._solved_batch([ConicProblem(blocks, 2, A, b, c)], ["diamond norm SDP"])
    return max(sol.primal_objective, 0.0)


# ---------------------------------------------------------------------------
# named channels
# ---------------------------------------------------------------------------

def amplitude_damping(p: float) -> KrausChannel:
    """Qubit damping toward |0>: I -> I + (1-p) sz, sx,sy -> sqrt(p) sx,sy,
    sz -> p sz."""
    if not 0.0 <= p <= 1.0:
        raise ParameterRange(f"p = {p} outside [0, 1]")
    k1 = np.diag([1.0, math.sqrt(p)]).astype(complex)
    k2 = np.zeros((2, 2), dtype=complex)
    k2[0, 1] = math.sqrt(1.0 - p)
    return KrausChannel(QuditLayout(2, 1), [k1, k2])


def depolarizing(p: float, omega: DensityMatrix) -> KrausChannel:
    """X -> p X + (1 - p) omega Tr X on one qudit."""
    if not 0.0 <= p <= 1.0:
        raise ParameterRange(f"p = {p} outside [0, 1]")
    if omega.n != 1:
        raise DimensionMismatch("omega must be a one-qudit state")
    d = omega.d
    ops = [math.sqrt(p) * np.eye(d, dtype=complex)]
    w, v = np.linalg.eigh(omega.matrix)
    for k in range(d):
        if w[k] <= 0.0:
            continue
        for l in range(d):
            op = math.sqrt((1.0 - p) * w[k]) * np.outer(v[:, k], np.eye(d)[l])
            ops.append(op)
    return KrausChannel(omega.layout, ops)


def replacer(omega: DensityMatrix) -> KrausChannel:
    """E: X -> omega Tr X."""
    return depolarizing(0.0, omega)


# ---------------------------------------------------------------------------
# contraction bounds
# ---------------------------------------------------------------------------

@dataclass
class ContractionReport:
    lower: float
    upper: float
    method: tuple
    witness: HermitianOperator
    witness_ratio: float
    n: int

    def to_json(self) -> dict:
        return {
            "lower": self.lower, "upper": self.upper,
            "method": list(self.method), "witness_ratio": self.witness_ratio,
            "n": self.n, "witness": operator_to_json(self.witness),
        }


def _detect_depolarizing(phi: KrausChannel):
    """p and omega with Phi(X) = p X + (1-p) omega Tr X, or None."""
    d = phi.layout.dim
    basis = hermitian_basis(d)
    traceless = [f - np.trace(f) / d * np.eye(d) for f in basis]
    traceless = [f for f in traceless if np.abs(f).max() > 1e-12]
    coeffs = []
    for f in traceless:
        img = phi.apply_matrix(f)
        num = np.trace(f.conj().T @ img).real
        den = np.trace(f.conj().T @ f).real
        coeffs.append(num / den)
    p = float(np.mean(coeffs))
    if not -1e-12 <= p <= 1.0 + 1e-12:
        return None
    for f in traceless:
        if np.abs(phi.apply_matrix(f) - p * f).max() > DEPOLARIZING_TOL:
            return None
    mixed = phi.apply_matrix(np.eye(d, dtype=complex) / d)
    if p > 1.0 - 1e-12:
        omega_m = np.eye(d, dtype=complex) / d  # any state works at p = 1
        p = 1.0
    else:
        omega_m = (mixed - p * np.eye(d) / d) / (1.0 - p)
    try:
        omega = DensityMatrix(QuditLayout(d, 1), omega_m)
    except Exception:
        return None
    if np.abs(phi.apply_matrix(omega.matrix) - omega.matrix).max() > DEPOLARIZING_TOL:
        return None
    return max(0.0, min(p, 1.0)), omega


def tensor_power_contraction_bounds(phi: KrausChannel, n: int) -> ContractionReport:
    """Transport-norm contraction bounds for Phi^(x)n, Phi on one qudit."""
    if phi.layout.n != 1:
        raise DimensionMismatch("need a one-qudit channel")
    d = phi.layout.d
    layout = QuditLayout(d, n)
    detected = _detect_depolarizing(phi)
    if detected is not None:
        p, omega = detected
        x1 = basis_state(QuditLayout(d, 1), [0]).matrix \
            - basis_state(QuditLayout(d, 1), [1]).matrix
        witness = HermitianOperator(layout, reduce(np.kron, [x1] + [omega.matrix] * (n - 1)))
        return ContractionReport(
            lower=p, upper=p, method=("depolarizing-exact",) * 2,
            witness=witness, witness_ratio=p, n=n)

    omega = fixed_point(phi)
    e = replacer(omega)
    val, rho_star = _one_to_one_with_maximizer(phi, e)
    lower = 0.5 * val
    upper = min(1.0, d * val)
    x1 = rho_star.matrix - omega.matrix
    witness = HermitianOperator(layout, reduce(np.kron, [x1] + [omega.matrix] * (n - 1)))
    # the witness and its image are x (x) omega^(n-1) with Tr x = 0, whose
    # transport norm is 0.5 ||x||_1 in closed form
    den = trace_norm(x1)
    ratio = trace_norm(phi.apply_matrix(rho_star.matrix) - omega.matrix) / den \
        if den > 2e-12 else 0.0
    return ContractionReport(
        lower=lower, upper=upper,
        method=("half-one-to-one", "min(1, d-times-one-to-one)"),
        witness=witness, witness_ratio=ratio, n=n)


def _random_channel(layout: QuditLayout, rng) -> KrausChannel:
    """Haar-isometry CPTP map on the layout, environment dimension dim^2."""
    dim = layout.dim
    env = dim * dim
    g = rng.standard_normal((dim * env, dim)) + 1j * rng.standard_normal((dim * env, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return KrausChannel(layout, [q[e * dim:(e + 1) * dim, :] for e in range(env)])


def _neighboring_images(layout: QuditLayout, sites, rng):
    """One random state pushed through two random channels on the same
    sites, identity elsewhere: the two images, which agree once those sites
    are traced out.  Draws the state, then the two channels, from rng."""
    small = QuditLayout(layout.d, len(sites))
    shared = random_density(layout, seed=rng).matrix
    lam1 = embed_channel(_random_channel(small, rng), layout, sites)
    lam2 = embed_channel(_random_channel(small, rng), layout, sites)
    return lam1.apply_matrix(shared), lam2.apply_matrix(shared)


def empirical_contraction(phi: KrausChannel, samples: int = 20, seed=0) -> float:
    """Sampled lower bound on the transport contraction of an n-qudit channel:
    max ratio over random neighboring pairs (two random one-qudit channels
    applied to a shared random state).  Both channels act on one site i, so
    the pair's difference x has Tr_i x = 0 and its transport norm is
    0.5 ||x||_1 in closed form; only the image of x needs a W1 solve.  All
    samples are drawn first, in the same rng order, and the images of those
    with a nonzero x take one batched W1 call (w1._w1_primal_runs, whose
    runs conic._solved_batch sets), which keeps no certificate."""
    layout = phi.layout
    rng = _rng(seed)
    images, dens = [], []
    for _ in range(samples):
        i = int(rng.integers(1, layout.n + 1))
        a, b = _neighboring_images(layout, [i], rng)
        x = a - b
        den = 0.5 * trace_norm(x)
        if den < 1e-9:
            continue
        images.append(HermitianOperator(layout, phi.apply_matrix(x)))
        dens.append(den)
    best = 0.0
    for num, den in zip(_w1_primal_runs(images), dens):
        best = max(best, num.value / den)
    return best


# ---------------------------------------------------------------------------
# circuits and light cones
# ---------------------------------------------------------------------------

class Circuit:
    """Ordered unitary gates on declared supports."""

    def __init__(self, layout: QuditLayout, gates):
        self.layout = layout
        self.gates = []
        for unitary, support in gates:
            u = np.asarray(unitary, dtype=complex)
            support = [layout.check_site(i) for i in support]
            if len(set(support)) != len(support):
                raise InvalidInput(f"repeated site in gate support {support}")
            k = len(support)
            if u.shape != (layout.d ** k, layout.d ** k):
                raise DimensionMismatch(
                    f"gate of shape {u.shape} on {k} site(s), d = {layout.d}")
            if np.abs(u.conj().T @ u - np.eye(layout.d ** k)).max() > UNITARY_TOL:
                raise NotUnitary("gate is not unitary within tolerance")
            self.gates.append((u, support))

    def as_channel(self) -> KrausChannel:
        total = np.eye(self.layout.dim, dtype=complex)
        for u, support in self.gates:
            total = embed_matrix(u, self.layout, support) @ total
        return KrausChannel(self.layout, [total])


def light_cone_bound(circuit: Circuit):
    """Forward-propagated light cones and 2 (d^2-1)/d^2 max_i |I_i|."""
    layout = circuit.layout
    cones = []
    for i in layout.sites():
        cone = {i}
        for _, support in circuit.gates:
            if cone.intersection(support):
                cone.update(support)
        cones.append(sorted(cone))
    d = layout.d
    bound = 2.0 * (d * d - 1.0) / (d * d) * max(len(c) for c in cones)
    return cones, bound


def channel_from_json(payload: dict) -> KrausChannel:
    try:
        kind = payload["kind"]
        if kind == "amplitude_damping":
            return amplitude_damping(float(payload["p"]))
        if kind == "depolarizing":
            d = json_int(payload, "d")
            omega = DensityMatrix(QuditLayout(d, 1),
                                  matrix_from_json(payload["omega"], d))
            return depolarizing(float(payload["p"]), omega)
        if kind == "kraus":
            d = json_int(payload, "d")
            n = json_int(payload, "n", 1)
            layout = QuditLayout(d, n)
            return KrausChannel(layout, [matrix_from_json(k, layout.dim)
                                         for k in payload["kraus"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed channel payload: {exc}") from exc
    raise InvalidInput(f"unknown channel kind {payload.get('kind')!r}")
