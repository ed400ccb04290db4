"""Fast tests of the benchmark itself: the reference checks accept real CLI
output on tiny layouts and count tampered output as failed.

    python3 -m pytest benchmarks -q
"""

import json
import sys

import numpy as np
import pytest

import run
import references as ref
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import qw1.cli  # noqa: E402
import qw1.w1  # noqa: E402

TINY = (2, 2)


def _dist_op(tmp_path, kind, seed=0):
    d, n = TINY
    rho, sigma, want = workloads.dist_pair(np.random.default_rng(seed), kind, d, n)
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
    workloads._write_operator(a, d, n, rho)
    workloads._write_operator(b, d, n, sigma)
    check = workloads._json_check(lambda p: ref.check_dist(rho, sigma, d, n, p, want))
    return workloads.Op(kind, ["dist", str(a), str(b), "-o", str(out)], out, check)


def _lip_op(tmp_path, width, seed=0):
    d, n = TINY
    h, terms = workloads.local_hamiltonian(np.random.default_rng(seed), d, n, width)
    src, out = tmp_path / "h.json", tmp_path / "out.json"
    workloads._write_operator(src, d, n, h)
    check = workloads._json_check(lambda p: ref.check_lip(h, d, n, p, terms))
    return workloads.Op(f"{width}-local", ["lip", str(src), "-o", str(out)], out, check)


def _run(op):
    status = run.call_cli(qw1.cli.main, op.argv)
    return status, op.output.read_text()


def _tampered(op, edit):
    """A stand-in for qw1.cli.main that runs the real CLI, then edits its output."""
    def cli_main(argv):
        qw1.cli.main(argv)
        payload = json.loads(op.output.read_text())
        edit(payload)
        op.output.write_text(json.dumps(payload))
    return cli_main


@pytest.mark.parametrize("kind", workloads.DIST_KINDS)
def test_dist_outputs_pass(tmp_path, kind):
    op = _dist_op(tmp_path, kind)
    status, text = _run(op)
    assert op.check(status, text) == []


@pytest.mark.parametrize("width", (1, 2))
def test_lip_outputs_pass(tmp_path, width):
    op = _lip_op(tmp_path, width)
    status, text = _run(op)
    assert op.check(status, text) == []


def _shift_value(p):
    p["value"] += 1e-4
    p["primal"] += 1e-4


def _shift_entry(p):
    p["decomposition"][0]["matrix"][0][1][0] += 1e-4


@pytest.mark.parametrize("edit", (_shift_value, _shift_entry))
def test_tampered_dist_counts_as_failed(tmp_path, edit):
    op = _dist_op(tmp_path, "product")
    tally = run.Tally()
    tally.run(_tampered(op, edit), [op], seconds=0.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.result({})["correct"] is False


def test_tampered_lip_counts_as_failed(tmp_path):
    op = _lip_op(tmp_path, 2)

    def edit(p):
        p["site_values"][1] += 1e-4
        p["value"] = max(p["site_values"])

    tally = run.Tally()
    tally.run(_tampered(op, edit), [op], seconds=0.0)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.jsonl"
    status = run.call_cli(qw1.cli.main, ["verify", "--trials", "1", "--seed", "3",
                                         "-o", str(out)])
    return status, out.read_text()


def test_verify_report_and_removed_name(battery):
    status, text = battery
    assert ref.check_verify(status, text, trials=1) == []
    kept = [line for line in text.splitlines() if '"name":"pinsker"' not in line]
    assert len(kept) < len(text.splitlines())
    problems = ref.check_verify(status, "\n".join(kept), trials=1)
    assert any("pinsker" in p for p in problems)


def test_verify_flags_a_wrong_passed_field(battery):
    status, text = battery
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["rhs"] = rec["lhs"] - 1.0
    lines[0] = json.dumps(rec)
    assert ref.check_verify(status, "\n".join(lines), trials=1) != []


def test_expected_counts_match_the_battery_size():
    assert sum(ref.expected_battery_counts(100).values()) == 1490
    assert len(ref.BATTERY_NAMES) == 40


def test_identity_on_site_is_adjoint_to_partial_trace():
    rng = np.random.default_rng(5)
    d, n = 2, 3
    x = workloads._hermitian(rng, d ** n)
    for site in range(1, n + 1):
        k = workloads._hermitian(rng, d ** (n - 1))
        lhs = np.trace(ref.identity_on_site(k, d, n, site) @ x)
        rhs = np.trace(k @ ref.partial_trace(x, d, n, site))
        assert abs(lhs - rhs) < 1e-10
    k = workloads._hermitian(rng, d ** (n - 1))
    assert np.allclose(ref.identity_on_site(k, d, n, 1), np.kron(np.eye(d), k))
    assert np.allclose(ref.identity_on_site(k, d, n, n), np.kron(k, np.eye(d)))


def test_tracer_counts_and_restores(tmp_path):
    op = _dist_op(tmp_path, "random")
    original = qw1.w1.w1_primal
    tracer = tracing.Tracer().install()
    try:
        assert qw1.w1.w1_primal is not original
        tally = run.Tally()
        tally.run(qw1.cli.main, [op], seconds=0.0)
        phase = tracer.take()
    finally:
        tracer.uninstall()
    assert qw1.w1.w1_primal is original
    assert tally.failed == 0
    values = tracing.layer_metrics(tracing.Phase(), phase, 1)
    assert set(values) | {f"lab.family.{f}_s" for f in tracing.LAB_FAMILIES} \
        == set(tracing.metric_names())
    # --method both: a primal and a dual W1 program, one dependent row each
    assert values["conic.solves"] == 2
    assert values["conic.presolve_rows_dropped"] == 2
    assert 0.0 < values["w1.build_s"] < values["w1.primal_s"] + values["w1.dual_s"]


def test_hard_coded_tables_match_the_battery():
    import qw1.lab
    assert list(tracing.LAB_FAMILIES) == [name for name, _, _ in qw1.lab._FAMILIES]
    assert set(ref.BATTERY_NAMES) == set(qw1.lab.REQUIRED_CHECKS)


def test_benchmark_json_lists_what_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "largest_op_s", "peak_rss_mb"}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run._unit(m["name"]), m
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
