"""Command-line interface.

Exit codes: 0 success, 1 invalid input (bad flags, malformed or rejected
files), 2 numerical/solver failure, 3 verification failure from `verify`.
Every command but `verify` prints the bytes of
`json.dumps(lab._round12(payload), sort_keys=True, indent=1)` and a newline:
each float rounded to 12 significant digits and printed as the shortest
decimal that reads back to it, keys sorted, one-space indent.  `verify`
prints `BatteryReport.to_json_lines()`.  Identical invocations at the same
BLAS thread count produce byte-identical output.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import click

from . import classical as cl
from . import channels as ch
from .errors import EigenFailure, InvalidInput, NoFixedPoint, QW1Error, SolverFailure
from .lab import (run_battery, _FAMILIES, _mgf_check, _require_delta, _require_finite,
                  _tail_check)
from .operators import QuditLayout, load_operator, maximally_mixed
from .w1 import lipschitz_constant, lipschitz_estimate, w1_distance


def _write(text, output):
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)


# `_json_text` writes json.dumps(lab._round12(payload), sort_keys=True,
# indent=1) in one pass: the walk turns the payload into a %-template with one
# %s slot per float, collecting the floats in order, and one "%.12g" format
# prints them all.  Where that text has a point and no exponent it is already
# repr(float(f"{x:.12g}")), the number json.dumps prints; any other text
# (integral values, exponents, subnormals) is read back and printed by repr,
# and inf and nan become JSON's Infinity and NaN.  "0", the commonest, is
# looked up rather than read back.
_TEXTS = {"0": "0.0", "inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


@functools.lru_cache(maxsize=64)
def _nest_template(shape, depth):
    """The template of a rectangular nest of floats of this shape."""
    if not shape:
        return "%s"
    pad = "\n" + " " * (depth + 1)
    item = _nest_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def _float_nest(items):
    """(shape, floats in order) of a nest of lists whose leaves are all
    floats at one depth and whose lists at each depth have one nonzero
    length, else None."""
    shape = []
    while True:
        types = set(map(type, items))
        if all(issubclass(t, float) for t in types):
            return tuple(shape), items
        if not all(issubclass(t, (list, tuple)) for t in types):
            return None
        lengths = set(map(len, items))
        if len(lengths) > 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(itertools.chain.from_iterable(items))


def _template(obj, depth, floats):
    """obj's JSON text as json.dumps(indent=1, sort_keys=True) writes it, %
    escaped and with a %s slot for each float, which goes onto `floats`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj).replace("%", "%%")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        floats.append(obj)
        return "%s"
    pad = "\n" + " " * (depth + 1)
    close = "\n" + " " * depth
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        nest = _float_nest([obj])
        if nest is not None:
            floats.extend(nest[1])
            return _nest_template(nest[0], depth)
        items = [_template(v, depth + 1, floats) for v in obj]
        return "[" + pad + ("," + pad).join(items) + close + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = json.dumps(key)
            items.append(_template(key, 0, floats) + ": " + _template(value, depth + 1, floats))
        return "{" + pad + ("," + pad).join(items) + close + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """json.dumps(lab._round12(payload), sort_keys=True, indent=1)."""
    floats = []
    template = _template(payload, 0, floats)
    texts = (("%.12g\n" * len(floats)) % tuple(floats)).split("\n")[:-1]
    texts = [t if "." in t and "e" not in t else _TEXTS.get(t) or repr(float(t)) for t in texts]
    return template % tuple(texts)


def _emit(payload, output):
    _write(_json_text(payload) + "\n", output)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


_output_option = click.option("-o", "--output", type=click.Path(dir_okay=False),
                              default=None, help="write JSON here instead of stdout")


@click.group(name="qw1")
def cli():
    """Transport-norm toolkit for n-qudit states."""


@cli.command("dist")
@click.argument("state_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("state_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["primal", "dual", "both"]),
              default="both", show_default=True,
              help="primal: the minimal-decomposition SDP, value its objective; "
                   "dual: the witness SDP, value its objective; both: a "
                   "decomposition and witness repaired to feasible points in "
                   "floating point (not interval arithmetic), value the upper end "
                   "primal, dual the lower end, gap = primal - dual.  They come "
                   "from the first route that applies: neighbouring states (half "
                   "the trace distance), states that factor over the sites (one "
                   "route per factor, W1 adds up), diagonal states (the Hamming "
                   "transport LP); else, or when that bracket is wider than the "
                   "solver's gap tolerance, from one primal solve")
@_output_option
def cmd_dist(state_a, state_b, method, output):
    """Transport distance between two density-matrix JSON files."""
    rho = load_operator(state_a, as_state=True)
    sigma = load_operator(state_b, as_state=True)
    cert = w1_distance(rho, sigma, method=method)
    _emit(cert.to_json(), output)


@cli.command("lip")
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--exact", "mode", flag_value="exact", default=True,
              help="exact value: per site a closed form, or a program on the "
                   "sites its part acts on (default)")
@click.option("--estimate", "mode", flag_value="estimate",
              help="closed-form sandwich, no optimization")
@_output_option
def cmd_lip(hamiltonian, mode, output):
    """Lipschitz constant of a Hermitian JSON file."""
    h = load_operator(hamiltonian, as_state=False)
    if mode == "exact":
        _emit(lipschitz_constant(h).to_json(), output)
    else:
        lower, upper = lipschitz_estimate(h)
        _emit({"lower": lower, "upper": upper}, output)


@cli.command("classical")
@click.argument("dist_p", type=click.Path(exists=True, dir_okay=False))
@click.argument("dist_q", type=click.Path(exists=True, dir_okay=False))
@_output_option
def cmd_classical(dist_p, dist_q, output):
    """Hamming-cost transport distance between two distribution JSON files."""
    p = cl.distribution_from_json(_read_json(dist_p))
    q = cl.distribution_from_json(_read_json(dist_q))
    # one stacked solve of the primal and dual LPs
    (value, coupling), (dual_value, potential) = cl.transport_lps(
        [(p, q, False), (p, q, True)])
    _emit({
        "value": value,
        "dual_value": dual_value,
        "coupling": coupling.tolist(),
        "potential": potential.tolist(),
    }, output)


@cli.command("channel")
@click.option("--channel", "name", required=True,
              help="amplitude-damping, depolarizing, or a channel JSON file")
@click.option("--p", type=float, default=None, help="parameter for builtins")
@click.option("--d", type=int, default=2, show_default=True,
              help="qudit dimension for depolarizing")
@click.option("--n", type=int, default=1, show_default=True,
              help="number of tensor factors")
@click.option("--samples", type=click.IntRange(min=0), default=0, show_default=True,
              help="if > 0, also sample an empirical contraction estimate")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_output_option
def cmd_channel(name, p, d, n, samples, seed, output):
    """Tensor-power contraction bounds for a one-qudit channel."""
    kind = name.replace("-", "_")
    if kind == "amplitude_damping":
        if p is None:
            raise InvalidInput("amplitude-damping needs --p")
        phi = ch.amplitude_damping(p)
    elif kind == "depolarizing":
        if p is None:
            raise InvalidInput("depolarizing needs --p")
        phi = ch.depolarizing(p, maximally_mixed(QuditLayout(d, 1)))
    elif os.path.exists(name):
        phi = ch.channel_from_json(_read_json(name))
    else:
        raise InvalidInput(f"unknown channel {name!r} (not a builtin or a file)")
    report = ch.tensor_power_contraction_bounds(phi, n)
    payload = report.to_json()
    if samples > 0:
        payload["empirical"] = ch.empirical_contraction(phi.tensor_power(n),
                                                        samples=samples, seed=seed)
        payload["samples"] = samples
        payload["seed"] = seed
    _emit(payload, output)


@cli.command("concentration")
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "ts", type=float, multiple=True,
              help="moment-generating-function points (repeatable)")
@click.option("--delta", "deltas", type=float, multiple=True,
              help="tail thresholds in units of sqrt(n) L (repeatable)")
@_output_option
def cmd_concentration(hamiltonian, ts, deltas, output):
    """Concentration checks for a Hamiltonian JSON file."""
    h = load_operator(hamiltonian, as_state=False)
    if not ts and not deltas:
        ts, deltas = (1.0,), (1.0,)
    for t in ts:
        _require_finite("t", t)
    for delta in deltas:
        _require_delta(delta)
    lip = lipschitz_constant(h).value
    checks = [_mgf_check(h, t, lip, None).to_json() for t in ts]
    checks += [_tail_check(h, delta, lip, None).to_json() for delta in deltas]
    _emit({"checks": checks}, output)


@cli.command("verify")
@click.option("--suite", default="all", show_default=True,
              help='"all" or comma-separated check family names')
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@_output_option
def cmd_verify(suite, seed, trials, output):
    """Run the inequality battery; exits 3 on any failed check."""
    only = None
    if suite != "all":
        only = tuple(s.strip() for s in suite.split(",") if s.strip())
        if not only:
            raise InvalidInput(f"--suite {suite!r} names no family")
        known = {name for name, _, _ in _FAMILIES}
        bad = [s for s in only if s not in known]
        if bad:
            raise InvalidInput(f"unknown suite families {bad}; known: {sorted(known)}")
    report = run_battery(seed=seed, trials=trials, only=only)
    _write(report.to_json_lines(), output)
    if not report.passed:
        sys.exit(3)


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="qw1", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except (SolverFailure, EigenFailure, NoFixedPoint) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except QW1Error as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
