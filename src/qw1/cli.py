"""Command-line interface.

Exit codes: 0 success, 1 invalid input (bad flags, malformed or rejected
files), 2 numerical/solver failure, 3 verification failure from `verify`.
All numeric output is rounded to 12 significant digits; identical
invocations at the same BLAS thread count produce byte-identical output.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import classical as cl
from . import channels as ch
from .errors import EigenFailure, InvalidInput, NoFixedPoint, QW1Error, SolverFailure
from .lab import run_battery, _FAMILIES, _mgf_check, _require_delta, _require_finite, _tail_check
from .operators import QuditLayout, load_operator, maximally_mixed
from .w1 import lipschitz_constant, lipschitz_estimate, w1_distance


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(payload, output):
    text = json.dumps(_round12(payload), sort_keys=True, indent=1)
    if output is None:
        click.echo(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


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
                   "dual: the witness SDP, value its objective; both: one primal "
                   "solve whose decomposition and witness are repaired to feasible "
                   "points in floating point (not interval arithmetic), value the "
                   "upper end primal, dual the lower end, gap = primal - dual")
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
              help="solve the SDP, one independent component per site (default)")
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
    value, coupling = cl.classical_w1(p, q)
    dual_value, potential = cl.classical_w1_dual(p, q)
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
        big = phi.tensor_power(n) if n > 1 else phi
        payload["empirical"] = ch.empirical_contraction(big, samples=samples,
                                                        seed=seed)
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
@click.option("--trials", type=int, default=100, show_default=True)
@_output_option
def cmd_verify(suite, seed, trials, output):
    """Run the inequality battery; exits 3 on any failed check."""
    only = None
    if suite != "all":
        only = tuple(s.strip() for s in suite.split(",") if s.strip())
        known = {name for name, _, _ in _FAMILIES}
        bad = [s for s in only if s not in known]
        if bad:
            raise InvalidInput(f"unknown suite families {bad}; known: {sorted(known)}")
    report = run_battery(seed=seed, trials=trials, only=only)
    lines = [json.dumps(_round12(r.to_json()), sort_keys=True,
                        separators=(",", ":")) for r in report.results]
    lines.append(json.dumps(_round12(report.summary()), sort_keys=True,
                            separators=(",", ":")))
    text = "\n".join(lines)
    if output is None:
        click.echo(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")
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
