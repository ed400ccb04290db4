"""End-to-end CLI runs against the shipped fixture files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qw1.cli
from qw1 import conic
from qw1.errors import SolverFailure
from qw1.lab import BatteryReport, CheckResult
from qw1.operators import QuditLayout

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, env_extra=None, expect=0):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qw1.cli", *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def fx(name):
    return str(FIXTURES / f"{name}.json")


def test_dist_basis_pair():
    proc = run_cli("dist", fx("basis_00"), fx("basis_11"))
    payload = json.loads(proc.stdout)
    assert abs(payload["value"] - 2.0) < 1e-7
    assert payload["gap"] < 1e-7


def test_dist_same_state_is_zero():
    proc = run_cli("dist", fx("mixed_2q"), fx("mixed_2q"), "--method", "primal")
    assert json.loads(proc.stdout)["value"] < 1e-7


def test_dist_entangled_pair():
    proc = run_cli("dist", fx("entangled_pair"), fx("mixed_2q"), "--method", "dual")
    payload = json.loads(proc.stdout)
    assert abs(payload["value"] - 0.75) < 1e-6


def test_dist_default_method_brackets_the_entangled_pair():
    # the default --method both: one solve, both ends of the bracket
    payload = json.loads(run_cli("dist", fx("entangled_pair"), fx("mixed_2q")).stdout)
    primal, dual = payload["primal"], payload["dual"]
    assert primal >= dual
    assert payload["gap"] == pytest.approx(primal - dual, abs=1e-11)
    assert dual - 1e-12 <= 0.75 <= primal + 1e-12
    assert payload["value"] == primal


def test_lip_identity_fixture_is_flat():
    proc = run_cli("lip", fx("identity_1q"))
    assert json.loads(proc.stdout)["value"] < 1e-7


def test_lip_exact_and_estimate():
    proc = run_cli("lip", fx("sigma_z_sum_n2"))
    payload = json.loads(proc.stdout)
    assert abs(payload["value"] - 2.0) < 1e-6
    proc = run_cli("lip", fx("sigma_z_sum_n2"), "--estimate")
    payload = json.loads(proc.stdout)
    assert payload["lower"] <= 2.0 + 1e-9 <= payload["upper"] + 2e-9
    assert abs(payload["upper"] / payload["lower"] - 1.5) < 1e-9


def test_classical_point_masses():
    proc = run_cli("classical", fx("dist_point_00"), fx("dist_point_11"))
    payload = json.loads(proc.stdout)
    assert abs(payload["value"] - 2.0) < 1e-7
    assert abs(payload["dual_value"] - 2.0) < 1e-7
    assert payload["potential"][0] == 0.0


def test_channel_depolarizing_exact():
    proc = run_cli("channel", "--channel", "depolarizing", "--p", "0.3", "--n", "3")
    payload = json.loads(proc.stdout)
    assert abs(payload["lower"] - 0.3) < 1e-9
    assert abs(payload["upper"] - 0.3) < 1e-9
    assert payload["n"] == 3
    assert payload["method"] == ["depolarizing-exact", "depolarizing-exact"]


def test_channel_amplitude_damping_bounds_and_empirical():
    proc = run_cli("channel", "--channel", "amplitude-damping", "--p", "0.1",
                   "--n", "3", "--samples", "20", "--seed", "7")
    payload = json.loads(proc.stdout)
    assert abs(payload["lower"] - 1.0 / 6.0) < 1e-6
    assert abs(payload["upper"] - 2.0 / 3.0) < 1e-6
    assert abs(payload["empirical"] - 0.2981510487119533) < 1e-9
    assert payload["lower"] - 1e-7 <= payload["empirical"] <= payload["upper"] + 1e-7


def test_concentration_command():
    proc = run_cli("concentration", fx("sigma_z_sum_n3"),
                   "--t", "1.0", "--t", "0.5", "--delta", "0.0")
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 3
    mgf1, mgf5, tail = checks
    assert abs(mgf1["lhs"] - math.cosh(1.0) ** 3) < 1e-9
    assert abs(mgf5["lhs"] - math.cosh(0.5) ** 3) < 1e-9
    assert tail["lhs"] == 4.0    # spectrum {-3,-1,1,3}: four eigenvalues above zero
    assert all(c["passed"] for c in checks)


def test_concentration_defaults():
    proc = run_cli("concentration", fx("sigma_z_sum_n1"))
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 2
    assert {c["name"] for c in checks} == {"concentration-mgf", "spectral-tail"}


def test_verify_full_battery_exits_clean():
    proc = run_cli("verify", "--suite", "all", "--seed", "42", "--trials", "100")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["passed"] is True
    assert summary["failures"] == 0
    assert summary["missing"] == []


def test_verify_subset():
    proc = run_cli("verify", "--suite", "pinsker,classical-duality", "--trials", "3")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["passed"] is True
    assert summary["failures"] == 0
    names = {json.loads(line)["name"] for line in lines[:-1]}
    assert names == {"pinsker", "classical-duality"}


def test_byte_identical_reruns():
    a = run_cli("dist", fx("qubit_0"), fx("qubit_1"))
    b = run_cli("dist", fx("qubit_0"), fx("qubit_1"))
    assert a.stdout == b.stdout
    a = run_cli("verify", "--suite", "classical-duality", "--trials", "3")
    b = run_cli("verify", "--suite", "classical-duality", "--trials", "3")
    assert a.stdout == b.stdout


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "res.json"
    via_stdout = run_cli("dist", fx("qubit_0"), fx("qubit_1"))
    run_cli("dist", fx("qubit_0"), fx("qubit_1"), "-o", str(out))
    assert out.read_text() == via_stdout.stdout


def test_invalid_inputs_exit_one(tmp_path):
    run_cli("dist", fx("qubit_0"), "/nonexistent.json", expect=1)
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    run_cli("dist", fx("qubit_0"), str(junk), expect=1)
    # a distribution file is not an operator payload
    run_cli("lip", fx("dist_point_0"), expect=1)
    # a traceless observable is not a state
    run_cli("dist", fx("sigma_z_sum_n1"), fx("qubit_0"), expect=1)
    run_cli("channel", "--channel", "sideways", expect=1)
    run_cli("channel", "--channel", "depolarizing", expect=1)  # missing --p
    run_cli("verify", "--suite", "unknown-family", expect=1)
    run_cli("dist", fx("qubit_0"), expect=1)  # missing argument
    # NaN and Infinity parse as JSON numbers but are refused as entries
    nan = float("nan")
    payloads = {
        "op_nan": {"d": 2, "n": 1, "matrix": [[[nan, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "op_inf": {"d": 2, "n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, math.inf]]]},
        "dist_nan": {"d": 2, "n": 1, "weights": [nan, 1.0]},
        "kraus_nan": {"kind": "kraus", "d": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [nan, 0]]]]},
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    for args in [("lip", "op_nan"), ("concentration", "op_nan"), ("dist", "op_nan", fx("qubit_0")),
                 ("dist", fx("qubit_0"), "op_inf"), ("classical", "dist_nan", fx("dist_point_0")),
                 ("channel", "--channel", "kraus_nan")]:
        args = [str(tmp_path / f"{a}.json") if a in payloads else a for a in args]
        proc = run_cli(*args, expect=1)
        assert proc.stderr.startswith("error:") and "non-finite" in proc.stderr, args
    # a non-finite t or delta is refused, not reported as a failing check
    for flag, value in (("--delta", "nan"), ("--t", "nan"), ("--t", "inf")):
        proc = run_cli("concentration", fx("sigma_z_sum_n2"), flag, value, expect=1)
        assert proc.stderr.startswith(f"error: {flag[2:]} = {value} must be") and not proc.stdout
        assert proc.stderr.count("\n") == 1 and "finite" in proc.stderr


@pytest.mark.parametrize("flags", [("--samples", "-3"), ("--samples", "2", "--seed", "-1")])
def test_channel_refuses_negative_samples_and_seed(flags):
    # refused as verify refuses a negative seed: one error line, exit 1
    proc = run_cli("channel", "--channel", "amplitude-damping", "--p", "0.1", *flags, expect=1)
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_dimension_cap_respected():
    proc = run_cli("dist", fx("mixed_4q"), fx("mixed_4q"),
                   env_extra={"QW1_DIM_CAP": "4"}, expect=1)
    assert "cap" in proc.stderr


def test_solver_failure_exits_two(monkeypatch):
    def explode(*a, **k):
        raise SolverFailure("synthetic solver breakdown")

    monkeypatch.setattr(qw1.cli, "w1_distance", explode)
    with pytest.raises(SystemExit) as exc:
        qw1.cli.main(["dist", fx("qubit_0"), fx("qubit_1")])
    assert exc.value.code == 2


def test_failing_battery_exits_three(monkeypatch, capsys):
    bad = CheckResult("duality-gap", 2.0, 1.0, {"index": 0})
    report = BatteryReport(seed=42, trials=1, layouts=(QuditLayout(2, 1),),
                           results=[bad], missing=())

    monkeypatch.setattr(qw1.cli, "run_battery", lambda **k: report)
    with pytest.raises(SystemExit) as exc:
        qw1.cli.main(["verify", "--trials", "1"])
    assert exc.value.code == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["failures"] == 1


def test_concentration_solves_the_lipschitz_program_once(monkeypatch, capsys):
    calls = []
    solve = conic.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting)
    qw1.cli.main(["concentration", fx("sigma_z_sum_n3"), "--t", "0.5", "--t", "1.0",
                  "--delta", "1.0"])
    assert len(calls) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["concentration-mgf"] * 2 + ["spectral-tail"]
    assert [c["instance"] for c in checks] == [{"t": 0.5}, {"t": 1.0}, {"delta": 1.0}]
    assert all(c["passed"] for c in checks)


def test_concentration_refuses_negative_delta_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input check")

    monkeypatch.setattr(conic, "solve", no_solve)
    with pytest.raises(SystemExit) as exc:
        qw1.cli.main(["concentration", fx("sigma_z_sum_n3"), "--t", "0.5", "--delta", "-1.0"])
    assert exc.value.code == 1
    assert "delta = -1.0 must be nonnegative" in capsys.readouterr().err
