"""Classical transportation distance on [d]^n with Hamming cost, its
Kantorovich dual, and the classical entropy bounds used for comparison.

The primal is the dense transportation LP over couplings; the dual is a
min-cost-flow LP over ordered pairs whose equality multipliers are exactly
the Kantorovich potential (valid because Hamming is a metric).  Both run
on the conic solver's LP path.  Entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import conic
from .conic import ConicProblem, SolverOptions
from .errors import (
    InvalidInput,
    LayoutMismatch,
    LengthMismatch,
    SupportViolation,
)
from .operators import DensityMatrix, QuditLayout

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability weights over [d]^n in lexicographic order (site 1 most
    significant), matching the diagonal of the operator basis order."""

    layout: QuditLayout
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.layout.dim,):
            raise InvalidInput(
                f"need {self.layout.dim} weights, got shape {w.shape}")
        if w.min() < -WEIGHT_SUM_TOL:
            raise InvalidInput(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", np.maximum(w, 0.0))

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def n(self) -> int:
        return self.layout.n

    def entropy(self) -> float:
        w = self.weights[self.weights > 0.0]
        return float(-(w * np.log(w)).sum())

    def to_json(self) -> dict:
        return {"d": self.d, "n": self.n, "weights": [float(w) for w in self.weights]}


def distribution_from_json(payload: dict) -> Distribution:
    try:
        layout = QuditLayout(int(payload["d"]), int(payload["n"]))
        return Distribution(layout, np.asarray(payload["weights"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed distribution payload: {exc}") from exc


def diagonal_distribution(rho: DensityMatrix) -> Distribution:
    return Distribution(rho.layout, np.diag(rho.matrix).real)


def diagonal_state(p: Distribution) -> DensityMatrix:
    return DensityMatrix(p.layout, np.diag(p.weights.astype(complex)))


def product_distribution(factors) -> Distribution:
    w = np.array([1.0])
    d = factors[0].d
    for f in factors:
        if f.n != 1 or f.d != d:
            raise LayoutMismatch("factors must be single-site on a common d")
        w = np.kron(w, f.weights)
    return Distribution(QuditLayout(d, len(factors)), w / w.sum())


def hamming(x, y) -> int:
    """Number of positions where the strings differ."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    return sum(1 for a, b in zip(x, y) if a != b)


@lru_cache(maxsize=8)
def _hamming_cost(d: int, n: int) -> np.ndarray:
    """Full d^n x d^n Hamming matrix between index digit strings."""
    idx = np.arange(d ** n)
    cost = np.zeros((d ** n, d ** n))
    rest = idx.copy()
    for _ in range(n):
        digit = rest % d
        cost += digit[:, None] != digit[None, :]
        rest //= d
    return cost


def _same_layout(p: Distribution, q: Distribution):
    if p.layout != q.layout:
        raise LayoutMismatch(f"{p.layout} vs {q.layout}")


def classical_w1(p: Distribution, q: Distribution,
                 options: SolverOptions | None = None):
    """Minimal expected Hamming cost over couplings; returns (value, coupling).

    The constraints are the row sums p and the column sums q of the
    coupling, less the last column sum: the row sums and the column sums
    share the total mass, so it is implied by the others.
    """
    _same_layout(p, q)
    D = p.layout.dim
    cost = _hamming_cost(p.d, p.n)
    A = np.zeros((2 * D, D * D))
    for i in range(D):
        A[i, i * D:(i + 1) * D] = 1.0       # row sums -> p
        A[D + i, i::D] = 1.0                # column sums -> q
    b = np.concatenate([p.weights, q.weights])
    sol = conic._solved(ConicProblem((), D * D, A[:-1], b[:-1], cost.ravel()),
                        "transport LP", options)
    coupling = np.maximum(sol.x.reshape(D, D), 0.0)
    return max(sol.primal_objective, 0.0), coupling


def classical_w1_dual(p: Distribution, q: Distribution,
                      options: SolverOptions | None = None):
    """Kantorovich side; returns (value, potential f with f[0] = 0).

    Solved as a min-cost flow over ordered pairs: the flow conservation
    multipliers are the potential, and dual feasibility of the solve is
    exactly the 1-Lipschitz condition |f(x) - f(y)| <= h(x,y).  The
    conservation rows sum to zero, so the row of point 0 is omitted, which
    fixes its multiplier f[0] at 0.
    """
    _same_layout(p, q)
    D = p.layout.dim
    cost = _hamming_cost(p.d, p.n)
    pairs = [(i, j) for i in range(D) for j in range(D) if i != j]
    A = np.zeros((D, len(pairs)))
    c = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        A[i, k] = 1.0
        A[j, k] = -1.0
        c[k] = cost[i, j]
    b = p.weights - q.weights
    sol = conic._solved(ConicProblem((), len(pairs), A[1:], b[1:], c),
                        "transport dual LP", options)
    return max(sol.dual_objective, 0.0), np.concatenate([[0.0], sol.y])


def binary_entropy(t: float) -> float:
    t = min(max(t, 0.0), 1.0)
    out = 0.0
    if t > 0.0:
        out -= t * math.log(t)
    if t < 1.0:
        out -= (1.0 - t) * math.log(1.0 - t)
    return out


def shannon_continuity_bound(p: Distribution, q: Distribution,
                             options: SolverOptions | None = None):
    """(|S(p) - S(q)|, n h2(W1/n) + W1 ln(d-1)); the log term dies at d = 2."""
    _same_layout(p, q)
    w1, _ = classical_w1(p, q, options)
    lhs = abs(p.entropy() - q.entropy())
    rhs = p.n * binary_entropy(w1 / p.n) + w1 * math.log(p.d - 1)
    return lhs, rhs


def kl_divergence(p: Distribution, q: Distribution) -> float:
    _same_layout(p, q)
    mask = p.weights > 0.0
    if np.any(q.weights[mask] <= 0.0):
        raise SupportViolation("p puts mass outside the support of q")
    pw = p.weights[mask]
    return float((pw * np.log(pw / q.weights[mask])).sum())


def classical_marton_bound(p: Distribution, q_factors,
                           options: SolverOptions | None = None):
    """(W1(p, q), sqrt(n/2 KL(p||q))) for a product q given by its factors."""
    q = product_distribution(q_factors)
    _same_layout(p, q)
    kl = kl_divergence(p, q)
    w1, _ = classical_w1(p, q, options)
    return w1, math.sqrt(p.n / 2.0 * kl)
