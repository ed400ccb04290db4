"""Dense operator algebra for registers of n qudits of local dimension d.

Conventions used throughout the package:

* qudit sites are numbered 1..n, with site 1 the most significant tensor
  factor (so for d=2, n=2 the basis order is |00>, |01>, |10>, |11>);
* every Hermitian matrix is symmetrized to (M + M^dagger)/2 on ingestion,
  after checking the deviation is below tolerance;
* basis states of a single qudit are labelled 0..d-1;
* entropies are in nats;
* the two site maps, on stacks, are _trace_out (partial trace) and its
  adjoint _lift (I (x) K); every other site map of the package calls them.

The total dimension d**n is guarded by a cap (default 32, overridable via
the QW1_DIM_CAP environment variable) because everything here is dense.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    LayoutMismatch,
    NotAState,
    NotHermitian,
    NotTraceless,
)

DEFAULT_DIM_CAP = 32
HERMITIAN_TOL = 1e-10     # max-entry deviation from M^dagger allowed on ingestion
TRACE_TOL = 1e-10         # |tr - target| allowed for traceless / unit-trace checks
STATE_EIG_TOL = 1e-9      # most negative eigenvalue a density matrix may carry
TRACE_NORM_FLOOR = 1e-12  # eigenvalues below this (in magnitude) count as zero
SUPPORT_TOL = 1e-10       # eigenvalue threshold deciding support membership
NEIGHBOR_TOL = 1e-9


def dim_cap() -> int:
    """Active Hilbert-space dimension cap (env QW1_DIM_CAP wins over default)."""
    raw = os.environ.get("QW1_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInput(f"QW1_DIM_CAP must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise InvalidInput("QW1_DIM_CAP must be at least 2")
    return cap


@dataclass(frozen=True)
class QuditLayout:
    """A register of n qudits, each of local dimension d."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise DimensionMismatch(f"local dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise DimensionMismatch(f"qudit count must be >= 1, got {self.n}")
        if self.d ** self.n > dim_cap():
            raise CapExceeded(
                f"d**n = {self.d ** self.n} exceeds the cap {dim_cap()}"
            )

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def sites(self) -> range:
        """All site labels, 1-based."""
        return range(1, self.n + 1)

    def check_site(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"site {i} outside 1..{self.n}")
        return i

    def drop(self, sites_gone: Iterable[int]) -> "QuditLayout":
        gone = {self.check_site(i) for i in sites_gone}
        if len(gone) >= self.n:
            raise IndexOutOfRange("cannot trace out every site")
        return QuditLayout(self.d, self.n - len(gone))


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, HermitianOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


class HermitianOperator:
    """A Hermitian matrix tied to a qudit layout.

    Ingestion symmetrizes the matrix; anything further than HERMITIAN_TOL
    (max-entry norm) from its own adjoint is rejected instead of silently
    repaired.
    """

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: QuditLayout, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (layout.dim, layout.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match dim {layout.dim}"
            )
        if float(np.abs(m - m.conj().T).max()) > HERMITIAN_TOL:
            raise NotHermitian("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", (m + m.conj().T) / 2.0)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def n(self) -> int:
        return self.layout.n

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def require_traceless(self) -> "HermitianOperator":
        if abs(self.trace()) > TRACE_TOL:
            raise NotTraceless(f"trace {self.trace():.3e} exceeds {TRACE_TOL}")
        return self

    def __add__(self, other):
        _same_layout(self, other)
        return HermitianOperator(self.layout, self.matrix + other.matrix)

    def __sub__(self, other):
        _same_layout(self, other)
        return HermitianOperator(self.layout, self.matrix - other.matrix)

    def __mul__(self, scalar: float):
        return HermitianOperator(self.layout, self.matrix * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return HermitianOperator(self.layout, -self.matrix)

    def __repr__(self):
        return f"HermitianOperator(d={self.d}, n={self.n})"


class DensityMatrix(HermitianOperator):
    """A state: PSD up to -STATE_EIG_TOL, trace within TRACE_TOL of 1."""

    def __init__(self, layout: QuditLayout, matrix):
        super().__init__(layout, matrix)
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -STATE_EIG_TOL:
            raise NotAState(f"eigenvalue {evals.min():.3e} below -{STATE_EIG_TOL}")
        if abs(self.trace() - 1.0) > TRACE_TOL:
            raise NotAState(f"trace {self.trace()!r} is not 1 within {TRACE_TOL}")

    def eigenvalues(self) -> np.ndarray:
        """Spectrum with tiny negatives clamped to zero."""
        return np.clip(np.linalg.eigvalsh(self.matrix), 0.0, None)


def _same_layout(a, b):
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")


def _same_d(a: QuditLayout, b: QuditLayout):
    if a.d != b.d:
        raise LayoutMismatch(f"local dimensions differ: {a.d} vs {b.d}")


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; site labels of `b` are shifted after those of `a`."""
    _same_d(a.layout, b.layout)
    layout = QuditLayout(a.d, a.n + b.n)
    cls = DensityMatrix if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix) else HermitianOperator
    return cls(layout, np.kron(a.matrix, b.matrix))


def _trace_out(m: np.ndarray, d: int, n: int, keep) -> np.ndarray:
    """Each d^n x d^n matrix of the stack m traced over the sites outside
    keep (0-based), one site at a time from the last: the
    (..., d^k, d^k) stack on the k sites of keep in their order, or the
    (..., 1, 1) trace when keep is empty.  The adjoint of _lift."""
    lead, left = len(m.shape) - 2, n
    t = m.reshape(m.shape[:-2] + (d,) * (2 * n))
    # site j's axes are j and left + j while every site below j is left
    for j in reversed(range(n)):
        if j not in keep:
            t = np.trace(t, axis1=lead + j, axis2=lead + left + j)
            left -= 1
    return t.reshape(m.shape[:-2] + (d ** left, d ** left))


def _lift(m: np.ndarray, d: int, n: int, sites) -> np.ndarray:
    """Each matrix of the stack m, acting on the 0-based sites in the order
    of its tensor factors, tensored with the identity on the other sites of
    n: the (..., d^n, d^n) stack.  The adjoint of _trace_out."""
    lead, rest = m.shape[:-2], [j for j in range(n) if j not in sites]
    out = np.zeros(lead + (d ** n, d ** n), dtype=complex)
    # a writeable view of the entries of out whose row and column digits agree
    # on every site of rest; axes: rows, then columns, of sites, then rest
    cols = [j if j in rest else n + j for j in range(n)]
    view = np.einsum(out.reshape(lead + (d,) * (2 * n)), [..., *range(n), *cols],
                     [..., *sites, *[n + j for j in sites], *rest])
    view[...] = m.reshape(lead + (d,) * (2 * len(sites)) + (1,) * len(rest))
    return out


def partial_trace(x: HermitianOperator, sites: int | Iterable[int]) -> HermitianOperator:
    """Trace out the given 1-based site(s), keeping the order of the rest.

    Tracing out everything is refused; use .trace() for the scalar.
    """
    if isinstance(sites, int):
        sites = [sites]
    gone = {x.layout.check_site(i) for i in sites}
    keep = [j for j in range(x.n) if j + 1 not in gone]
    return type(x)(x.layout.drop(gone), _trace_out(x.matrix, x.d, x.n, keep))


def permute_sites(x: HermitianOperator, perm: Sequence[int]) -> HermitianOperator:
    """Relabel sites so that new site k carries what old site perm[k-1] carried."""
    if sorted(perm) != list(x.layout.sites()):
        raise IndexOutOfRange(f"{perm} is not a permutation of 1..{x.n}")
    axes = [p - 1 for p in perm] + [x.n + p - 1 for p in perm]
    t = x.matrix.reshape((x.d,) * (2 * x.n)).transpose(axes)
    return type(x)(x.layout, t.reshape(x.layout.dim, x.layout.dim))


def embed_operator(small: HermitianOperator, layout: QuditLayout,
                   sites: Sequence[int]) -> HermitianOperator:
    """Tensor `small` (acting on the listed sites, in that order) with the
    identity on every other site of `layout`."""
    return HermitianOperator(layout, embed_matrix(small.matrix, layout, sites))


def embed_matrix(small: np.ndarray, layout: QuditLayout,
                 sites: Sequence[int]) -> np.ndarray:
    """Matrix-level embedding used for gates and Kraus operators too."""
    sites = [layout.check_site(i) for i in sites]
    if len(set(sites)) != len(sites):
        raise IndexOutOfRange(f"repeated site in {sites}")
    k = len(sites)
    if small.shape != (layout.d ** k, layout.d ** k):
        raise DimensionMismatch(
            f"operator of shape {small.shape} cannot act on {k} site(s) of dimension {layout.d}"
        )
    return _lift(small, layout.d, layout.n, [i - 1 for i in sites])


def trace_norm(x) -> float:
    """Sum of absolute eigenvalues, with a hard zero below TRACE_NORM_FLOOR."""
    evals = _eigvalsh(_as_matrix(x))
    evals[np.abs(evals) < TRACE_NORM_FLOOR] = 0.0
    return float(np.abs(evals).sum())


def operator_norm(x) -> float:
    evals = _eigvalsh(_as_matrix(x))
    return float(np.abs(evals).max()) if evals.size else 0.0


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    from .errors import EigenFailure

    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise EigenFailure(str(exc)) from exc


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr rho ln rho in nats; zero eigenvalues contribute nothing."""
    p = rho.eigenvalues()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr rho (ln rho - ln sigma) in nats; +inf when rho leaks outside the
    support of sigma (eigenvalues of sigma below SUPPORT_TOL count as zero)."""
    q, v = np.linalg.eigh(sigma.matrix)
    weights = np.einsum("ij,jk,ki->i", v.conj().T, rho.matrix, v).real
    outside = q <= SUPPORT_TOL
    if np.any(weights[outside] > SUPPORT_TOL):
        return math.inf
    p = rho.eigenvalues()
    p = p[p > 0.0]
    inside = ~outside
    w = np.clip(weights[inside], 0.0, None)
    return float((p * np.log(p)).sum() - (w * np.log(q[inside])).sum())


def dephase(x: HermitianOperator) -> HermitianOperator:
    """Kill every off-diagonal entry (product-basis dephasing on all sites)."""
    return type(x)(x.layout, np.diag(np.diag(x.matrix).real.astype(complex)))


def replace_with_maximally_mixed(x: HermitianOperator, i: int) -> HermitianOperator:
    """Swap site i for I/d while keeping the marginal on the other sites.

    For n = 1 this is (tr x) I/d.
    """
    x.layout.check_site(i)
    rest = [j for j in range(x.n) if j != i - 1]
    # the lift puts the identity on site i, and 1/d makes it maximally mixed
    m = _lift(_trace_out(x.matrix, x.d, x.n, rest), x.d, x.n, rest)
    return type(x)(x.layout, m / x.d)


def maximally_mixed(layout: QuditLayout) -> DensityMatrix:
    return DensityMatrix(layout, np.eye(layout.dim) / layout.dim)


def basis_state(layout: QuditLayout, digits: Sequence[int]) -> DensityMatrix:
    """Projector |x><x| for the product basis string x (digits 0..d-1)."""
    if len(digits) != layout.n:
        raise DimensionMismatch(f"need {layout.n} digits, got {len(digits)}")
    idx = 0
    for t in digits:
        if not 0 <= t < layout.d:
            raise IndexOutOfRange(f"digit {t} outside 0..{layout.d - 1}")
        idx = idx * layout.d + t
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(layout, m)


def maximally_entangled(d: int) -> DensityMatrix:
    """Projector onto sum_k |kk> / sqrt(d) on two qudits."""
    layout = QuditLayout(d, 2)
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1.0 / math.sqrt(d)
    return DensityMatrix(layout, np.outer(v, v.conj()))


# ---------------------------------------------------------------------------
# random ensembles (all seedable, all via numpy Generator)
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_density(layout: QuditLayout, rank: int | None = None,
                   seed=None) -> DensityMatrix:
    """G G^dagger normalized to unit trace, G complex Gaussian of the given rank."""
    rng = _rng(seed)
    dim = layout.dim
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise DimensionMismatch(f"rank {r} outside 1..{dim}")
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return DensityMatrix(layout, m / np.trace(m).real)


def random_traceless(layout: QuditLayout, seed=None) -> HermitianOperator:
    """GUE-style Hermitian matrix with the trace projected out."""
    rng = _rng(seed)
    dim = layout.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h) / dim * np.eye(dim)
    return HermitianOperator(layout, h)


def haar_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


# ---------------------------------------------------------------------------
# serialization: {"d": int, "n": int, "matrix": [[[re, im], ...], ...]}
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(rows, expect_dim: int | None = None) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed matrix payload: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"matrix payload is not square: shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix payload has a non-finite entry")
    if expect_dim is not None and m.shape[0] != expect_dim:
        raise InvalidInput(f"matrix of dimension {m.shape[0]}, expected {expect_dim}")
    return m


def json_int(payload: dict, field: str, default=None) -> int:
    """payload[field], a JSON integer (2 or 2.0, not True or "2"), else InvalidInput."""
    value = payload[field] if default is None else payload.get(field, default)
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise InvalidInput(f"{field!r} must be an integer, got {value!r}")
    return int(value)


def operator_to_json(x: HermitianOperator) -> dict:
    return {"d": x.d, "n": x.n, "matrix": matrix_to_json(x.matrix)}


def operator_from_json(payload: dict, as_state: bool = False) -> HermitianOperator:
    try:
        d, n = json_int(payload, "d"), json_int(payload, "n")
        rows = payload["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"operator payload missing fields: {exc}") from exc
    layout = QuditLayout(d, n)
    m = matrix_from_json(rows, layout.dim)
    try:
        return DensityMatrix(layout, m) if as_state else HermitianOperator(layout, m)
    except (NotHermitian, NotAState) as exc:
        raise InvalidInput(str(exc)) from exc


def load_operator(path: str, as_state: bool = False) -> HermitianOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_json(json.load(fh), as_state=as_state)


def save_operator(path: str, x: HermitianOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_json(x), fh)
        fh.write("\n")
