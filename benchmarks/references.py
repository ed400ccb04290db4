"""Reference checks for `qw1` outputs that never call the package's solver.

Every check takes the inputs the benchmark generated and the JSON the CLI
wrote, and returns a list of problems (empty when the output is accepted).
Values are compared with a relative tolerance, `abs(got - want) <=
tol * (1 + scale)`, never against a stored copy of an earlier output: the
CLI rounds to 12 significant digits, and the last digits it prints move
with the BLAS thread count.

References used:

* closed forms from the paper (Hamming distance on basis states,
  additivity on product states, one half the trace distance on
  neighbouring states, (d^2-1)/d^2 per maximally entangled pair, and
  max_i (lmax(h_i) - lmin(h_i)) for a one-local observable);
* the classical Hamming transport LP, solved with scipy's HiGHS;
* identities recomputed with numpy from the returned certificates
  (decomposition, witness, per-site shifts) and the closed-form sandwich
  of the one-site pinching.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.optimize

TOL = 1e-6          # relative tolerance of every comparison
CHECK_TOL = 1e-7    # the battery's own pass rule: rhs - lhs >= -CHECK_TOL (1 + |rhs|)

# the 40 check names every full battery report must contain, with the
# instance count rule of the family that emits them: "light" runs `trials`
# instances, "heavy" max(2, trials // 25), "fixed2" two; every instance
# emits each of its family's names once
BATTERY_NAMES = {
    "duality-gap": "heavy", "homogeneity": "heavy", "triangle": "heavy",
    "sandwich-lower": "heavy", "sandwich-upper": "heavy",
    "neighboring-collapse": "heavy", "permutation-invariance": "heavy",
    "local-unitary-invariance": "heavy", "channel-contraction": "heavy",
    "product-additivity": "heavy", "superadditivity": "heavy",
    "locality-region": "heavy", "locality-absolute": "heavy",
    "diagonal-restriction": "heavy", "product-factor-bound": "heavy",
    "channel-perturbation-containment": "heavy", "entropy-continuity": "heavy",
    "marton": "heavy", "diamond-dominates-one-to-one": "heavy",
    "replace-site-trace-norm": "light", "matched-marginal-entropy": "light",
    "classical-neighboring": "light", "pinsker": "light",
    "concentration-mgf": "light", "spectral-tail": "light",
    "classical-duality": "light", "classical-shannon": "light",
    "classical-product-tv": "light", "classical-marton": "light",
    "lipschitz-sandwich-lower": "light", "lipschitz-sandwich-upper": "light",
    "norm-order-lower": "light", "norm-order-upper": "light",
    "entangled-pair-value": "fixed2", "contraction-bracket-lower": "fixed2",
    "contraction-bracket-upper": "fixed2", "contraction-witness-ratio": "fixed2",
    "depolarizing-exact": "fixed2", "depolarizing-empirical": "fixed2",
    "light-cone-dominates": "fixed2",
}


def close(got: float, want: float, scale: float | None = None, tol: float = TOL) -> bool:
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= tol * (1.0 + scale)


# ---------------------------------------------------------------------------
# dense helpers (site 1 is the most significant tensor factor)
# ---------------------------------------------------------------------------

def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def trace_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def operator_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def partial_trace(m: np.ndarray, d: int, n: int, site: int) -> np.ndarray:
    """Trace out one 1-based site of an n-qudit matrix."""
    t = m.reshape((d,) * (2 * n))
    t = np.trace(t, axis1=site - 1, axis2=n + site - 1)
    return t.reshape(d ** (n - 1), d ** (n - 1))


def identity_on_site(k: np.ndarray, d: int, n: int, site: int) -> np.ndarray:
    """I_site (x) K, with K acting on the other n - 1 sites in their order."""
    t = np.kron(np.eye(d), k).reshape((d,) * (2 * n))
    # axes of t are (site, rest...) for rows and columns; move site back
    order = list(range(1, site)) + [0] + list(range(site, n))
    t = t.transpose(order + [n + a for a in order])
    return t.reshape(d ** n, d ** n)


def pinching_gaps(h: np.ndarray, d: int, n: int) -> list:
    """||H - E_i(H)||_inf for each site, E_i replacing site i by I/d."""
    out = []
    for i in range(1, n + 1):
        e_i = identity_on_site(partial_trace(h, d, n, i), d, n, i) / d
        out.append(operator_norm(h - e_i))
    return out


def hamming_transport(p: np.ndarray, q: np.ndarray, d: int, n: int) -> float:
    """Classical W1 between distributions on [d]^n under the Hamming cost."""
    dim = d ** n
    digits = np.array([np.unravel_index(x, (d,) * n) for x in range(dim)])
    cost = (digits[:, None, :] != digits[None, :, :]).sum(axis=2).astype(float)
    rows = np.kron(np.eye(dim), np.ones(dim))
    cols = np.kron(np.ones(dim), np.eye(dim))
    res = scipy.optimize.linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                                 b_eq=np.concatenate([p, q]), bounds=(0, None),
                                 method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# qw1 dist
# ---------------------------------------------------------------------------

def check_dist(rho: np.ndarray, sigma: np.ndarray, d: int, n: int, out: dict,
               expected: float | None = None) -> list:
    """Properties of a `qw1 dist --method both` payload for rho, sigma.

    expected: a closed-form or LP value the distance must match, if known.
    """
    problems = []
    dim = d ** n
    x = rho - sigma
    x = x - np.trace(x) / dim * np.eye(dim)
    try:
        value, primal, dual = (float(out[k]) for k in ("value", "primal", "dual"))
        dec = [matrix_from_json(xi["matrix"]) for xi in out["decomposition"]]
        wit = matrix_from_json(out["witness"]["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed dist payload: {exc!r}"]
    if len(dec) != n or any(xi.shape != (dim, dim) for xi in dec) or wit.shape != (dim, dim):
        return [f"decomposition/witness shapes do not match layout ({d},{n})"]
    scale = float(np.abs(x).max())
    resid = float(np.abs(sum(dec) - x).max())
    if resid > TOL * (1.0 + scale):
        problems.append(f"decomposition misses rho - sigma by {resid:.3e}")
    for i, xi in enumerate(dec, start=1):
        marg = abs(np.trace(xi)) if n == 1 else float(np.abs(partial_trace(xi, d, n, i)).max())
        if marg > TOL * (1.0 + scale):
            problems.append(f"site {i} marginal of X_{i} is {marg:.3e}, not 0")
    half = 0.5 * sum(trace_norm(xi) for xi in dec)
    if not close(half, primal):
        problems.append(f"1/2 sum ||X_i||_1 = {half!r} but primal = {primal!r}")
    pairing = float(np.trace(wit @ x).real)
    if not close(pairing, dual):
        problems.append(f"Tr[H X] = {pairing!r} but dual = {dual!r}")
    lower = d * d / (d * d - 1.0) * max(pinching_gaps(wit, d, n))
    if lower > 1.0 + TOL:
        problems.append(f"witness pinching lower estimate {lower!r} exceeds 1")
    tn = trace_norm(x)
    if not (0.5 * tn <= value + TOL * (1.0 + value) and value <= 0.5 * n * tn + TOL * (1.0 + value)):
        problems.append(f"value {value!r} outside [{0.5 * tn!r}, {0.5 * n * tn!r}]")
    if not close(value, primal):
        problems.append(f"value {value!r} is not the primal {primal!r}")
    if not close(primal, dual, scale=abs(value)):
        problems.append(f"primal {primal!r} and dual {dual!r} disagree")
    if expected is not None and not close(value, expected):
        problems.append(f"value {value!r}, reference {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# qw1 lip
# ---------------------------------------------------------------------------

def check_lip(h: np.ndarray, d: int, n: int, out: dict,
              site_terms: list | None = None) -> list:
    """Properties of a `qw1 lip` payload for the observable h.

    site_terms: for a one-local observable, the one-site term h_i of each
    site; the exact value of site i is then lmax(h_i) - lmin(h_i).
    """
    problems = []
    try:
        value = float(out["value"])
        sites = [float(v) for v in out["site_values"]]
        shifts = [matrix_from_json(k) for k in out["shifts"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed lip payload: {exc!r}"]
    if len(sites) != n or len(shifts) != n:
        return [f"expected {n} site values and shifts"]
    if not close(value, max(sites)):
        problems.append(f"value {value!r} is not the largest site value")
    gaps = pinching_gaps(h, d, n)
    for i in range(1, n + 1):
        v = sites[i - 1]
        k = shifts[i - 1]
        if k.shape != (d ** (n - 1),) * 2:
            problems.append(f"shift {i} has shape {k.shape}")
            continue
        achieved = 2.0 * operator_norm(h - identity_on_site(k, d, n, i))
        if not close(achieved, v):
            problems.append(f"site {i}: shift gives {achieved!r}, reported {v!r}")
        lo = d * d / (d * d - 1.0) * gaps[i - 1]
        hi = 2.0 * gaps[i - 1]
        if not (lo <= v + TOL * (1.0 + v) and v <= hi + TOL * (1.0 + v)):
            problems.append(f"site {i}: {v!r} outside the pinching sandwich [{lo!r}, {hi!r}]")
        if site_terms is not None:
            w = np.linalg.eigvalsh(site_terms[i - 1])
            if not close(v, float(w[-1] - w[0])):
                problems.append(f"site {i}: {v!r}, one-local closed form {w[-1] - w[0]!r}")
    return problems


# ---------------------------------------------------------------------------
# qw1 verify
# ---------------------------------------------------------------------------

def expected_battery_counts(trials: int) -> dict:
    per = {"light": trials, "heavy": min(max(2, trials // 25), trials),
           "fixed2": min(2, trials)}
    return {name: per[weight] for name, weight in BATTERY_NAMES.items()}


def check_verify(exit_code: int, text: str, trials: int) -> list:
    """Properties of a full `qw1 verify` report (all families)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    try:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        return problems + [f"malformed report line: {exc}"]
    if not records or records[-1].get("type") != "summary":
        return problems + ["report has no summary line"]
    summary, lines = records[-1], records[:-1]
    counts = {}
    for rec in lines:
        try:
            # float() also reads the "inf", "-inf", "nan" strings the battery writes
            name, lhs, rhs = rec["name"], float(rec["lhs"]), float(rec["rhs"])
            passed = rec["passed"]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed check line: {exc!r}")
            continue
        counts[name] = counts.get(name, 0) + 1
        want = (math.isinf(rhs) and rhs > 0) or rhs - lhs >= -CHECK_TOL * (1.0 + abs(rhs))
        if passed is not want:
            problems.append(f"{name} index {rec.get('instance', {}).get('index')}: "
                            f"passed={passed} but lhs={lhs!r}, rhs={rhs!r}")
    missing = sorted(set(BATTERY_NAMES) - set(counts))
    if missing:
        problems.append(f"required checks missing: {missing}")
    want_counts = expected_battery_counts(trials)
    wrong = {k: (counts.get(k, 0), want_counts.get(k, 0))
             for k in set(counts) | set(want_counts)
             if counts.get(k, 0) != want_counts.get(k, 0)}
    if wrong:
        problems.append(f"check counts (got, want) differ: {dict(sorted(wrong.items()))}")
    if summary.get("total") != len(lines) or summary.get("counts") != counts:
        problems.append("summary totals disagree with the check lines")
    if summary.get("passed") is not True or summary.get("failures") != 0:
        problems.append("summary does not report a clean pass")
    return problems
