"""The benchmark's workloads: seeded inputs, CLI invocations and their checks.

A workload turns `--seed` into input files and a fixed list of `Op`s, one
`qw1` CLI invocation each.  Only numpy makes the inputs; the package sees
nothing but the files.  Every op carries the reference check for its output
(see `references.py`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

# local dimension d and site count n of every layout a workload uses
DIST_LAYOUTS = ((2, 4), (4, 2), (3, 3))
DIST_KINDS = ("random", "product", "diagonal", "basis", "neighbouring", "entangled")
# the largest op: one entangled pair at (3,3).  Its random local unitaries
# and site placement do not change the programs' central path, so the
# iteration count is the same for every seed (8 primal + 8 dual measured)
# and largest_op_s measures the solver, not the draw
DIST_LARGEST = ((3, 3), "entangled")
LIP_LAYOUTS = ((2, 4), (4, 2), (3, 3), (2, 5))
# the largest ops: the (2,5) Hamiltonians are one fixed draw rotated by seeded
# local unitaries, so their cost, like that of the (3,3) distance, does not
# move with the seed
LIP_LARGEST = (2, 5)
BATTERY_LAYOUTS = ((2, 1), (2, 2), (2, 3))
BATTERY_TRIALS = 100
# the battery runs at a fixed seed, the CLI default: its cost moves with
# its seed (15-20 s across seeds), and some seeds fail its
# contraction-bracket-lower check (seed 677071331 does), which a benchmark
# that compares failure shares between runs cannot keep
BATTERY_SEED = 42


@dataclass
class Op:
    label: str
    argv: list
    output: Path
    check: Callable[[int, str], list]   # (exit status, output text) -> problems


@dataclass
class Plan:
    ops: list
    battery_seeds: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# seeded inputs (numpy only)
# ---------------------------------------------------------------------------

def _write_operator(path: Path, d: int, n: int, m: np.ndarray) -> None:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    path.write_text(json.dumps({"d": d, "n": n, "matrix": rows}))


def _hermitian(rng, k: int) -> np.ndarray:
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return (g + g.conj().T) / 2.0


def _state(rng, k: int) -> np.ndarray:
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def _on_sites(m: np.ndarray, d: int, n: int, first: int, width: int) -> np.ndarray:
    """m acting on sites first..first+width-1 (1-based), identity elsewhere."""
    return _kron_all([np.eye(d ** (first - 1)), m, np.eye(d ** (n - first - width + 1))])


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    """Haar isometry: QR of a complex Gaussian with the phases fixed."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary(rng, d: int) -> np.ndarray:
    return _isometry(rng, d, d)


def _random_channel(rng, d: int) -> list:
    """Kraus operators of a Haar-isometry channel with environment d^2."""
    env = d * d
    q = _isometry(rng, d * env, d)
    return [q[e * d:(e + 1) * d, :] for e in range(env)]


def _permute_sites(m: np.ndarray, d: int, n: int, labels: list) -> np.ndarray:
    """Place tensor factor p of m on site labels[p] (1-based)."""
    order = [labels.index(j) for j in range(1, n + 1)]
    t = m.reshape((d,) * (2 * n)).transpose(order + [n + a for a in order])
    return t.reshape(d ** n, d ** n)


def dist_pair(rng, kind: str, d: int, n: int):
    """(rho, sigma, reference value or None) for one pair kind."""
    dim = d ** n
    if kind == "random":
        return _state(rng, dim), _state(rng, dim), None
    if kind == "product":
        rs = [_state(rng, d) for _ in range(n)]
        ss = [_state(rng, d) for _ in range(n)]
        want = sum(0.5 * ref.trace_norm(r - s) for r, s in zip(rs, ss))
        return _kron_all(rs), _kron_all(ss), want
    if kind == "diagonal":
        p, q = rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))
        return np.diag(p).astype(complex), np.diag(q).astype(complex), \
            ref.hamming_transport(p, q, d, n)
    if kind == "basis":
        x = rng.integers(0, d, n)
        moved = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        y = x.copy()
        y[moved] = (x[moved] + rng.integers(1, d, moved.size)) % d
        rho, sigma = np.zeros((dim, dim), complex), np.zeros((dim, dim), complex)
        i, j = (int(np.ravel_multi_index(v, (d,) * n)) for v in (x, y))
        rho[i, i] = sigma[j, j] = 1.0
        return rho, sigma, float(moved.size)
    if kind == "neighbouring":
        site = int(rng.integers(1, n + 1))
        shared = _state(rng, dim)
        out = []
        for _ in range(2):
            kraus = [_on_sites(k, d, n, site, 1) for k in _random_channel(rng, d)]
            out.append(sum(k @ shared @ k.conj().T for k in kraus))
        return out[0], out[1], 0.5 * ref.trace_norm(out[0] - out[1])
    if kind == "entangled":
        pairs = n // 2
        factors = []
        for _ in range(pairs):
            v = np.eye(d).ravel() / np.sqrt(d)
            u = np.kron(_unitary(rng, d), _unitary(rng, d))
            v = u @ v
            factors.append(np.outer(v, v.conj()))
        if n % 2:
            factors.append(np.eye(d) / d)
        labels = [int(s) + 1 for s in rng.permutation(n)]
        rho = _permute_sites(_kron_all(factors), d, n, labels)
        return rho, np.eye(dim, dtype=complex) / dim, pairs * (d * d - 1.0) / (d * d)
    raise ValueError(kind)


def local_hamiltonian(rng, d: int, n: int, width: int, fixed: bool = False):
    """Nearest-neighbour H = sum of random terms on sites i..i+width-1.

    With `fixed` the terms come from one draw that ignores `rng`, and `rng`
    only rotates every site by a Haar unitary: H's Lipschitz constant and
    the per-site programs' iteration counts are then the same for every seed.
    Returns (H, one-site terms) for width 1 and (H, None) otherwise.
    """
    draw = np.random.default_rng([d, n, width]) if fixed else rng
    terms = [draw.uniform(0.5, 2.0) * _hermitian(draw, d ** width)
             for _ in range(n - width + 1)]
    if fixed:
        u = [_unitary(rng, d) for _ in range(n)]
        terms = [_kron_all(u[i:i + width]) @ t @ _kron_all(u[i:i + width]).conj().T
                 for i, t in enumerate(terms)]
    h = sum(_on_sites(t, d, n, i + 1, width) for i, t in enumerate(terms))
    return h, (terms if width == 1 else None)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _json_check(fn):
    def check(status: int, text: str) -> list:
        if status != 0:
            return [f"exit status {status}"]
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        return fn(payload)
    return check


def _dist_plan(seed: int, workdir: Path) -> Plan:
    cases = [(lay, kind) for lay in DIST_LAYOUTS[:2] for kind in DIST_KINDS]
    cases.append(DIST_LARGEST)
    ops = []
    for idx, ((d, n), kind) in enumerate(cases):
        rng = np.random.default_rng([seed, 1, idx])
        rho, sigma, want = dist_pair(rng, kind, d, n)
        a, b, out = (workdir / f"dist{idx}_{s}.json" for s in ("a", "b", "out"))
        _write_operator(a, d, n, rho)
        _write_operator(b, d, n, sigma)
        check = _json_check(lambda p, r=rho, s=sigma, d=d, n=n, w=want:
                            ref.check_dist(r, s, d, n, p, w))
        ops.append(Op(f"dist ({d},{n}) {kind}", ["dist", str(a), str(b), "-o", str(out)],
                      out, check))
    return Plan(ops)


def _lip_plan(seed: int, workdir: Path) -> Plan:
    ops = []
    idx = 0
    for d, n in LIP_LAYOUTS:
        for width in (1, 2):
            rng = np.random.default_rng([seed, 2, idx])
            h, terms = local_hamiltonian(rng, d, n, width, fixed=(d, n) == LIP_LARGEST)
            src, out = workdir / f"lip{idx}.json", workdir / f"lip{idx}_out.json"
            _write_operator(src, d, n, h)
            check = _json_check(lambda p, h=h, d=d, n=n, t=terms: ref.check_lip(h, d, n, p, t))
            ops.append(Op(f"lip ({d},{n}) {width}-local", ["lip", str(src), "-o", str(out)],
                          out, check))
            idx += 1
    return Plan(ops)


def _verify_plan(seed: int, workdir: Path) -> Plan:
    out = workdir / "verify.jsonl"
    op = Op(f"verify --seed {BATTERY_SEED}",
            ["verify", "--trials", str(BATTERY_TRIALS), "--seed", str(BATTERY_SEED),
             "-o", str(out)],
            out, lambda status, text: ref.check_verify(status, text, BATTERY_TRIALS))
    return Plan([op], [BATTERY_SEED])


# the layouts whose caches set-up builds
LAYOUTS = {
    "dist-large": DIST_LAYOUTS,
    "lip-local": LIP_LAYOUTS,
    "verify-battery": BATTERY_LAYOUTS,
}

WORKLOADS = {
    "dist-large": _dist_plan,
    "lip-local": _lip_plan,
    "verify-battery": _verify_plan,
}
