"""Classical transportation distance on [d]^n with Hamming cost, its
Kantorovich dual, and the classical entropy bounds used for comparison.

The primal is the transportation LP over couplings; the dual is a
min-cost-flow LP over ordered pairs whose equality multipliers are exactly
the Kantorovich potential (valid because Hamming is a metric).  Both run
on the conic solver's LP path, with constraint rows built once per layout
as CSR matrices.  transport_lps solves many LPs, of any layouts and either
side, as block-diagonal programs of bounded memory; classical_w1 and
classical_w1_dual are its one-element cases, which reach the solver with
their single program as it is.  Entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from . import conic
from .conic import ConicProblem
from .errors import (
    InvalidInput,
    LayoutMismatch,
    LengthMismatch,
    SupportViolation,
)
from .operators import DensityMatrix, QuditLayout, json_int

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
        if not np.isfinite(w).all():
            raise InvalidInput("non-finite weight")
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
        layout = QuditLayout(json_int(payload, "d"), json_int(payload, "n"))
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


@lru_cache(maxsize=8)
def _coupling_rows(d: int, n: int):
    """Constraints and cost of the transport LP of a layout: A (CSR) takes
    the D x D coupling, row-major, to its row sums and its column sums but
    the last; c is the Hamming cost."""
    D = d ** n
    eye, ones = scipy.sparse.identity(D), np.ones((1, D))
    A = scipy.sparse.vstack([scipy.sparse.kron(eye, ones), scipy.sparse.kron(ones, eye)])
    return A.tocsr()[:-1], _hamming_cost(d, n).ravel()


@lru_cache(maxsize=8)
def _flow_rows(d: int, n: int):
    """Constraints and cost of the min-cost-flow LP of a layout: one column
    per ordered pair (i, j), i != j, in row-major order; A (CSR) is the flow
    conservation at every point but 0, c the pair's Hamming cost."""
    D = d ** n
    i, j = np.nonzero(~np.eye(D, dtype=bool))
    k = np.arange(i.size)
    A = scipy.sparse.csr_matrix(
        (np.concatenate([np.ones(i.size), -np.ones(i.size)]),
         (np.concatenate([i, j]), np.concatenate([k, k]))), shape=(D, i.size))
    return A[1:], _hamming_cost(d, n)[i, j]


def transport_lps(requests) -> list:
    """The transport LPs of requests, (p, q, dual) triples, from batched
    solves of them side by side (conic._solved_batch): per triple
    classical_w1(p, q) if dual is false, else classical_w1_dual(p, q).
    The LPs of one layout and side have the same rows, so the solver
    assembles their Schur matrices as one stack.  A failure names the LP by
    the number of its (p, q) pair among the distinct pairs of requests,
    when there is more than one."""
    requests = list(requests)
    pairs = {}
    for p, q, _ in requests:
        _same_layout(p, q)
        pairs.setdefault((id(p), id(q)), len(pairs) + 1)
    problems, names = [], []
    for p, q, dual in requests:
        A, c = (_flow_rows if dual else _coupling_rows)(p.d, p.n)
        if dual:
            b = (p.weights - q.weights)[1:]
            name = "transport dual LP"
        else:
            b = np.concatenate([p.weights, q.weights])[:-1]
            name = "transport LP"
        problems.append(ConicProblem((), A.shape[1], A, b, c))
        names.append(f"{name} of pair {pairs[id(p), id(q)]}" if len(pairs) > 1 else name)
    out = []
    for (p, _, dual), sol in zip(requests, conic._solved_batch(problems, names)):
        if dual:
            out.append((max(sol.dual_objective, 0.0), np.concatenate([[0.0], sol.y])))
        else:
            D = p.layout.dim
            out.append((max(sol.primal_objective, 0.0), np.maximum(sol.x.reshape(D, D), 0.0)))
    return out


def classical_w1(p: Distribution, q: Distribution):
    """Minimal expected Hamming cost over couplings; returns (value, coupling).

    The constraints are the row sums p and the column sums q of the
    coupling, less the last column sum: the row sums and the column sums
    share the total mass, so it is implied by the others.
    """
    return transport_lps([(p, q, False)])[0]


def classical_w1_dual(p: Distribution, q: Distribution):
    """Kantorovich side; returns (value, potential f with f[0] = 0).

    Solved as a min-cost flow over ordered pairs: the flow conservation
    multipliers are the potential, and dual feasibility of the solve is
    exactly the 1-Lipschitz condition |f(x) - f(y)| <= h(x,y).  The
    conservation rows sum to zero, so the row of point 0 is omitted, which
    fixes its multiplier f[0] at 0.
    """
    return transport_lps([(p, q, True)])[0]


def binary_entropy(t: float) -> float:
    t = min(max(t, 0.0), 1.0)
    out = 0.0
    if t > 0.0:
        out -= t * math.log(t)
    if t < 1.0:
        out -= (1.0 - t) * math.log(1.0 - t)
    return out


def shannon_continuity_bound(p: Distribution, q: Distribution):
    """(|S(p) - S(q)|, n h2(W1/n) + W1 ln(d-1)); the log term dies at d = 2."""
    _same_layout(p, q)
    return _shannon_check(p, q, classical_w1(p, q)[0])


def _shannon_check(p: Distribution, q: Distribution, w1: float):
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


def classical_marton_bound(p: Distribution, q_factors):
    """(W1(p, q), sqrt(n/2 KL(p||q))) for a product q given by its factors."""
    q = product_distribution(q_factors)
    kl = kl_divergence(p, q)
    return _marton_check(p.n, classical_w1(p, q)[0], kl)


def _marton_check(n: int, w1: float, kl: float):
    return w1, math.sqrt(n / 2.0 * kl)
