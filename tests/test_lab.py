"""The inequality battery and its standalone checks."""

import functools
import json
import math
import operator

import numpy as np
import pytest

import qw1.lab as lab
from qw1 import conic
from qw1.errors import InvalidInput, QW1Error, SolverFailure
from qw1.lab import (
    BatteryReport,
    CheckResult,
    check_entropy_continuity,
    check_marton,
    check_pinsker,
    concentration_mgf,
    entropy_modulus,
    run_battery,
    spectral_tail,
)
from qw1.operators import (
    HermitianOperator,
    QuditLayout,
    basis_state,
    embed_operator,
    maximally_entangled,
    maximally_mixed,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def _z_sum(n):
    lay = QuditLayout(2, n)
    one = HermitianOperator(QuditLayout(2, 1), SZ)
    return functools.reduce(
        operator.add, (embed_operator(one, lay, [i]) for i in range(1, n + 1)))


def test_check_result_pass_boundary():
    assert CheckResult("x", 1.0, 1.0, {}).passed
    assert CheckResult("x", 1.0 + 1.9e-7, 1.0, {}).passed
    assert not CheckResult("x", 1.0 + 2.1e-7, 1.0, {}).passed
    assert CheckResult("x", 5.0, math.inf, {}).passed
    r = CheckResult("x", 0.25, 1.0, {"k": 1}, ("tag",))
    assert r.margin == 0.75
    payload = r.to_json()
    assert payload["passed"] is True
    assert payload["flags"] == ["tag"]
    json.dumps(payload)  # nothing numpy-flavored left inside


def test_to_json_handles_infinities():
    r = CheckResult("x", 1.0, math.inf, {})
    assert r.to_json()["rhs"] == "inf"
    assert r.to_json()["margin"] == "inf"


def test_entropy_modulus_values():
    assert entropy_modulus(0.0) == 0.0
    assert entropy_modulus(-1.0) == 0.0
    assert abs(entropy_modulus(0.5) - 0.9547712524422192) < 1e-15
    assert abs(entropy_modulus(1.0) - 2 * math.log(2)) < 1e-15


def test_entropy_continuity_worked_instance():
    lay = QuditLayout(2, 1)
    res = check_entropy_continuity(basis_state(lay, [0]), maximally_mixed(lay))
    assert abs(res.lhs - math.log(2)) < 1e-9
    assert abs(res.rhs - 1.6479184330021646) < 1e-7
    assert res.passed


def test_pinsker_and_infinite_relative_entropy():
    lay = QuditLayout(2, 1)
    res = check_pinsker(basis_state(lay, [0]), maximally_mixed(lay))
    assert res.passed
    assert abs(res.lhs - 1.0) < 1e-12
    assert abs(res.rhs - math.sqrt(2 * math.log(2))) < 1e-12
    # orthogonal supports: vacuous bound, flagged as such
    res = check_pinsker(basis_state(lay, [0]), basis_state(lay, [1]))
    assert res.passed
    assert math.isinf(res.rhs)
    assert "infinite-relative-entropy" in res.flags


def test_marton_entangled_pair_instance():
    lay1 = QuditLayout(2, 1)
    gamma = maximally_entangled(2)
    res = check_marton(gamma, [maximally_mixed(lay1), maximally_mixed(lay1)])
    assert abs(res.lhs - 0.75) < 1e-6
    assert abs(res.rhs - math.sqrt(2 * math.log(2))) < 1e-9
    assert res.passed


def test_marton_rejects_mismatched_factors():
    lay1 = QuditLayout(2, 1)
    with pytest.raises(InvalidInput):
        check_marton(maximally_mixed(QuditLayout(2, 3)),
                     [maximally_mixed(lay1), maximally_mixed(lay1)])


def test_concentration_mgf_z_sum():
    h = _z_sum(3)
    res = concentration_mgf(h, 1.0)
    assert abs(res.lhs - math.cosh(1.0) ** 3) < 1e-9
    assert abs(res.rhs - math.exp(1.5)) < 1e-6
    assert res.passed
    res = concentration_mgf(h, 0.5)
    assert abs(res.lhs - math.cosh(0.5) ** 3) < 1e-9
    assert abs(res.rhs - math.exp(0.375)) < 1e-6
    assert res.passed
    assert res.instance["t"] == 0.5
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="must be finite"):
            concentration_mgf(h, t)
    # L = 2 at n = 3: exp(1.5 t^2) fits a float at |t| = 21, not at 22
    assert concentration_mgf(h, -21.0).passed
    for t in (22.0, -22.0):
        with pytest.raises(InvalidInput, match=r"^t = -?22\.0 makes .* overflow a float"):
            concentration_mgf(h, t)


def test_spectral_tail_z_sum():
    h = _z_sum(4)
    res = spectral_tail(h, 1.0)
    assert res.lhs == 1.0          # only the all-up state reaches mean + 2 sqrt(4)
    assert abs(res.rhs - 16 * math.exp(-2.0)) < 1e-12
    assert res.passed
    res = spectral_tail(h, 0.0)
    assert res.lhs == 11.0         # eigenvalues >= 0: multiplicities 6 + 4 + 1
    assert res.rhs == 16.0
    with pytest.raises(InvalidInput):
        spectral_tail(h, -0.5)
    for delta in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="must be nonnegative and finite"):
            spectral_tail(h, delta)


def test_spectral_tail_refuses_negative_delta_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input check")

    monkeypatch.setattr(lab, "lipschitz_constant", no_solve)
    with pytest.raises(InvalidInput, match="delta = -0.5 must be nonnegative"):
        spectral_tail(_z_sum(3), -0.5)


def test_battery_trials_zero_is_empty_pass():
    rep = run_battery(seed=1, trials=0)
    assert rep.results == []
    assert rep.missing == ()
    assert rep.passed


def test_battery_small_run_covers_and_repeats():
    rep = run_battery(seed=7, trials=2)
    assert rep.missing == ()
    assert rep.failures == []
    assert rep.passed
    again = run_battery(seed=7, trials=2)
    assert rep.to_json_lines() == again.to_json_lines()
    summary = rep.summary()
    assert summary["passed"] is True
    assert summary["total"] == len(rep.results)
    # every emitted line parses back
    for line in rep.to_json_lines().splitlines():
        json.loads(line)


def test_battery_only_filter():
    rep = run_battery(seed=3, trials=1, only={"pinsker", "classical-duality"})
    names = {r.name for r in rep.results}
    assert names == {"pinsker", "classical-duality"}
    assert rep.missing == ()
    assert rep.passed


def test_contraction_bracket_lower_on_seed_where_empirical_is_smaller():
    # at this seed the 8-sample empirical contraction of instance 1 (0.3710)
    # is below half the one-to-one norm (0.4049); the witness ratio is not
    rep = run_battery(seed=677071331, trials=100, only=("contraction-bracket",))
    assert rep.failures == []
    lower = [r for r in rep.results if r.name == "contraction-bracket-lower"]
    assert len(lower) == 2
    assert lower[1].lhs > 0.4 and lower[1].rhs > 0.52


def test_battery_validation():
    with pytest.raises(InvalidInput):
        run_battery(seed=-1, trials=1)
    with pytest.raises(InvalidInput):
        run_battery(trials=-2)
    with pytest.raises(InvalidInput):
        run_battery(trials=1, layouts=())


def test_report_with_missing_names_fails():
    rep = BatteryReport(seed=0, trials=1, layouts=(QuditLayout(2, 1),),
                        results=[], missing=("duality-gap",))
    assert not rep.passed
    assert rep.summary()["missing"] == ["duality-gap"]


def test_family_exception_becomes_failing_result(monkeypatch):
    def boom(seed, fam, k, layouts):
        raise InvalidInput("synthetic breakage")

    monkeypatch.setattr(lab, "_FAMILIES", (("duality-gap", "light", lab._Family(boom)),))
    rep = run_battery(seed=0, trials=1, only={"duality-gap"})
    assert len(rep.results) == 1
    r = rep.results[0]
    assert "exception" in r.flags
    assert not r.passed
    assert not rep.passed
    assert "synthetic breakage" in r.instance["error"]


def test_non_library_errors_propagate(monkeypatch):
    def broken(seed, fam, k, layouts):
        raise ValueError("not a library error")

    monkeypatch.setattr(lab, "_FAMILIES", (("duality-gap", "light", lab._Family(broken)),))
    with pytest.raises(ValueError):
        run_battery(seed=0, trials=1, only={"duality-gap"})


def test_lipschitz_family_batch_falls_back_to_single_instances(monkeypatch):
    lipschitz_constants = lab.lipschitz_constants
    sizes = []

    def flaky(hs):
        sizes.append(len(hs))
        if len(hs) > 1 or len(sizes) == 3:  # the batch, then instance 1 alone
            raise SolverFailure("synthetic trouble")
        return lipschitz_constants(hs)

    clean = run_battery(seed=5, trials=4, only={"concentration-mgf"})
    assert clean.passed and len(clean.results) == 4
    monkeypatch.setattr(lab, "lipschitz_constants", flaky)
    rep = run_battery(seed=5, trials=4, only={"concentration-mgf"})
    assert sizes == [4, 1, 1, 1, 1]
    assert [r.instance["index"] for r in rep.results] == [0, 1, 2, 3]
    failed = rep.results[1]
    assert failed.flags == ("exception",) and "synthetic trouble" in failed.instance["error"]
    for k in (0, 2, 3):
        got, want = rep.results[k], clean.results[k]
        assert got.to_json() == want.to_json()


def test_w1_family_batch_falls_back_to_single_instances(monkeypatch):
    w1_primals = lab.w1_primals
    sizes = []

    def flaky(xs):
        xs = list(xs)
        sizes.append(len(xs))
        if len(xs) > 1 or len(sizes) == 3:  # the batch, then instance 1 alone
            raise SolverFailure("synthetic trouble")
        return w1_primals(xs)

    # trials 100 makes four heavy instances
    clean = run_battery(seed=5, trials=100, only={"sandwich"})
    assert clean.passed and len(clean.results) == 8
    monkeypatch.setattr(lab, "w1_primals", flaky)
    rep = run_battery(seed=5, trials=100, only={"sandwich"})
    assert sizes == [4, 1, 1, 1, 1]
    failed, *made = rep.results
    assert failed.name == "sandwich" and failed.instance["index"] == 1
    assert failed.flags == ("exception",) and "synthetic trouble" in failed.instance["error"]
    assert [r.to_json() for r in made] == \
        [r.to_json() for r in clean.results if r.instance["index"] != 1]


def test_battery_refuses_a_family_its_layouts_lack_sites_for():
    # one-site layouts only: a family that needs two sites makes an
    # exception line per instance, naming the requirement
    rep = run_battery(seed=1, trials=2, layouts=(QuditLayout(2, 1),),
                      only={"superadditivity", "light-cone-dominates", "pinsker"})
    errors = [r for r in rep.results if "exception" in r.flags]
    assert sorted((r.name, r.instance["index"]) for r in errors) == [
        ("light-cone-dominates", 0), ("light-cone-dominates", 1),
        ("superadditivity", 0), ("superadditivity", 1)]
    assert all("at least 2 sites" in r.instance["error"] for r in errors)
    assert [r.name for r in rep.results if not r.flags] == ["pinsker", "pinsker"]


def test_classical_family_batch_falls_back_to_single_instances(monkeypatch):
    transport_lps = lab.cl.transport_lps
    sizes = []

    def flaky(requests):
        requests = list(requests)
        sizes.append(len(requests))
        if len(requests) > 2 or len(sizes) == 3:  # the batch, then instance 1 alone
            raise SolverFailure("synthetic trouble")
        return transport_lps(requests)

    clean = run_battery(seed=5, trials=4, only={"classical-duality"})
    assert clean.passed and len(clean.results) == 4
    monkeypatch.setattr(lab.cl, "transport_lps", flaky)
    rep = run_battery(seed=5, trials=4, only={"classical-duality"})
    # each instance is one primal and one dual LP
    assert sizes == [8, 2, 2, 2, 2]
    assert [r.instance["index"] for r in rep.results] == [0, 1, 2, 3]
    failed = rep.results[1]
    assert failed.flags == ("exception",) and "synthetic trouble" in failed.instance["error"]
    for k in (0, 2, 3):
        got, want = rep.results[k], clean.results[k]
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("fam", [i for i, (_, _, family) in enumerate(lab._FAMILIES)
                                 if family.values is not None])
def test_batched_family_lines_equal_instances_made_alone(fam):
    # any line of a batched family reproduces exactly from its instance alone
    name, weight, family = lab._FAMILIES[fam]
    layouts = (QuditLayout(2, 1), QuditLayout(2, 2), QuditLayout(2, 3))
    ks = range(20 if weight == "light" else 4)
    batch = family.batch(42, fam, ks, layouts)
    assert len(batch) == len(ks)
    for k, checks in zip(ks, batch):
        (alone,) = family.batch(42, fam, [k], layouts)
        assert [json.dumps(r.to_json(), sort_keys=True) for r in checks] == \
            [json.dumps(r.to_json(), sort_keys=True) for r in alone], (name, k)


def test_one_classical_duality_instance_names_its_lp_without_a_pair(monkeypatch):
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 1)
    rep = run_battery(seed=5, trials=1, only={"classical-duality"})
    (failed,) = rep.results
    assert failed.flags == ("exception",)
    assert failed.instance["error"].startswith("transport LP ended with MaxIterations")
