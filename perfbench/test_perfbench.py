"""Tests of the benchmark's own checkers, generators and metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def g():
    return run.load_glpair()


# -- planted wrong results count as failed -----------------------------------

def test_report_with_one_failure_fails():
    rep = {"checks": [{"identity": "cones.langlands-partition", "cases": 8,
                       "failures": 1}], "total_failures": 1}
    assert checks.verify_report(rep)
    assert checks.counted_report(rep["checks"][0])


def test_report_that_checked_nothing_fails():
    assert checks.counted_report({"identity": "x", "cases": 0, "failures": 0})
    assert checks.counted_report({"identity": "x", "samples": 0})
    assert checks.verify_report({"checks": [], "total_failures": 0})
    sampled = {"violations": [], "samples": 0, "orbit_count": 0,
               "class_table": {}}
    assert checks.census_report(sampled, 2, 5, 200)
    assert checks.counted_report({"identity": "x", "cases": 3,
                                  "failures": 0}) is None


def test_census_violation_and_bad_tiling_fail():
    # n=1, p=2: GL(1, 2) is trivial, so 16 orbits of size 1
    table = {"fp%d" % i: [[1, 1]] for i in range(16)}
    good = {"violations": [], "orbit_count": 16, "class_table": table,
            "samples": 0}
    assert checks.census_report(good, 1, 2, None) is None
    assert checks.census_report(dict(good, violations=[{"kind": "x"}]),
                                1, 2, None)
    del table["fp0"]
    assert checks.census_report(dict(good, orbit_count=15), 1, 2, None)
    table["fp0"] = [[2, 1]]
    assert checks.census_report(good, 1, 2, None)


def test_quadrature_off_by_1e3_fails():
    value = 0.7310585786300049
    rep = {"value": value, "quadrature_check": {"value": value}}
    assert checks.rank1_report(rep) is None
    rep["quadrature_check"]["value"] = value * (1 + 1e-3)
    assert checks.rank1_report(rep)


def test_constant_term_off_by_1e3_fails():
    rep = {"estimate": 0.25, "selected": "with_jacobian", "sign": 1,
           "candidates": {"with_jacobian": 0.25, "without_jacobian": 0.5}}
    assert checks.constant_term(rep) is None
    assert checks.integral_digits(rep) == 9.0
    assert checks.constant_term(dict(rep, estimate=0.25 * (1 + 1e-3)))
    assert checks.constant_term(dict(rep, sign=-1))
    assert checks.integral_digits(dict(rep, estimate=0.25 * (1 + 1e-3))) \
        == pytest.approx(3.0)


def test_wrong_orbit_count_and_representatives_fail():
    assert checks.orbit_count(3, [1, 1, 4], 1, [1, 1, 4]) is None
    assert checks.orbit_count(2, [1, 4], 1, [1, 1, 4])
    assert checks.orbit_count(3, [1, 1, 2], 1, [1, 1, 4])
    assert checks.class_representatives([1], [1], 3, 0) is None
    assert checks.class_representatives([1], [1], 3, 1)
    assert checks.class_representatives([1], [2], 3, 0)


def test_planted_library_result_fails_through_the_runner(g, monkeypatch,
                                                         tmp_path):
    runner = workloads.Runner(g, {}, tmp_path)
    op = {"kind": "cones", "fn": "verify_langlands", "n": 2, "samples": 2,
          "seed": 1}
    assert runner.run(op).failure is None
    monkeypatch.setattr(g.cones, "verify_langlands",
                        lambda n, k, seed: {"identity": "cones.x", "cases": 5,
                                            "failures": 1})
    assert runner.run(op).failure


def test_known_constant_term_defect_is_failed_but_known(g, tmp_path):
    runner = workloads.Runner(g, {}, tmp_path)
    out = runner.run({"kind": "constant_term", "n": 2, "parabolic": 5,
                      "s": "-1/3"})
    assert out.failure and out.known
    out = runner.run({"kind": "constant_term", "n": 2, "parabolic": 5,
                      "s": "1/2"})
    assert out.failure is None and out.digits > 4


def test_op_past_its_limit_times_out():
    class Spin:
        def run(self, op):
            while True:
                pass

        def discard(self):
            pass

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        latency, out = run.run_op(Spin(), {"kind": "spin", "limit": 0.05})
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert out.failure and not out.known and latency < 1.0


def test_draw_past_its_budget_fails_as_known_and_restores_the_kernel(
        g, tmp_path):
    runner = workloads.Runner(g, {}, tmp_path)
    kernel = g.polyexp._line_integral
    heavy = {"kind": "pexp", "n": 2, "parabolic": 5, "s": "-1/3",
             "X": "5,-5,0", "budget": 200}
    for _ in range(2):
        latency, out = run.run_op(runner, heavy)
        assert out.failure == "more than 200 line integrals" and out.known
    assert g.polyexp._line_integral is kernel
    cheap = dict(heavy, X="-1,2,-1", budget=workloads.DRAW_BUDGET)
    assert run.run_op(runner, cheap)[1].failure is None


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_gives_at_least_100_ops_from_the_seed(g, workload):
    ops = workloads.generate(workload, 7, g)
    assert len(ops) >= 100
    assert workloads.digest(ops) == \
        workloads.digest(workloads.generate(workload, 7, g))
    assert workloads.digest(ops) != \
        workloads.digest(workloads.generate(workload, 8, g))
    assert all(hasattr(workloads.Runner, "_" + op["kind"]) for op in ops)


# -- metric names -----------------------------------------------------------

def test_benchmark_json_is_well_formed():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def _tiny_pass(g, runner, tracer=None):
    ops = [{"kind": "census", "n": 1, "p": 3},
           {"kind": "cones", "fn": "verify_gamma_support", "n": 2,
            "samples": 2, "seed": 1},
           {"kind": "pexp", "n": 2, "parabolic": 2, "s": "1/2",
            "X": "1,-2,3"},
           {"kind": "verify", "suite": "rrss", "I0": 1, "samples": 2,
            "seed": 1}]
    return ops, run.run_pass(runner, ops, tracer)


def test_printed_metric_names_equal_benchmark_json(g, tmp_path):
    runner = workloads.Runner(g, {}, tmp_path)
    ops, untraced = _tiny_pass(g, runner)
    tally = run.Tally(ops)
    tally.add(untraced[1])
    assert tally.failed == 0
    values = run.end_to_end([0.1, 0.2, 0.3], [untraced], tally)
    metrics = run.select(SPEC["end_to_end"], values)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in metrics.values())

    tracer = tracing.Tracer()
    before = run._cache_counts(g)
    orig_dot = g.parabolics.dot
    tracer.install(g)
    try:
        traced = run.run_pass(runner, ops, tracer)[0:2]
    finally:
        tracer.uninstall()
    assert g.parabolics.dot is orig_dot and g.cones.dot is orig_dot
    after = run._cache_counts(g)
    values = run.per_layer(tracer, traced, untraced[0],
                           (after[0] - before[0], after[1] - before[1]))
    metrics = run.select(SPEC["per_layer"], values)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["parabolics.dot.calls"]["value"] > 0
    assert metrics["cones.support_box.calls"]["value"] > 0
    assert metrics["census.fingerprint.per_element"]["value"] == 2.0
    assert metrics["cli.main.calls"]["value"] == 3
    with pytest.raises(RuntimeError):
        run.select(SPEC["per_layer"], dict(values, extra=1))
