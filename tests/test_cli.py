import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glpair import polyexp
from glpair.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_command(tmp_path, capsys):
    path = tmp_path / "X.json"
    path.write_text(json.dumps([["2", "1"], ["3", "5"]]))
    code, out, _ = run(capsys, "invariants", "--matrix", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["A"] == ["5", "3"] and data["B"] == ["2"]
    assert data["regular_semisimple"] is True


def test_classify_command(tmp_path, capsys):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({
        "n": 2, "B": [["1", "0"], ["0", "2"]],
        "factors": [["-1", "1"], ["-2", "1"]],
        "alpha": ["0", "4"], "d": "1"}))
    code, out, _ = run(capsys, "classify", "--descriptor", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["I0"] == [1] and data["orbit_count"] == 3
    assert len(data["representatives"]) == 3


def test_parabolics_command(capsys):
    code, out, _ = run(capsys, "parabolics", "--n", "2", "--list")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    ids = [p["id"] for p in data["parabolics"]]
    assert ids == sorted(ids)


def test_census_command_json_and_exit_code(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 45 and data["violations"] == []


def test_census_command_csv(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code, _, err = run(capsys, "census", "--n", "1", "--p", "3",
                       "--format", "csv", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "fingerprint,orbit_size,stabilizer_order"
    assert len(lines) > 10
    summary = json.loads(err)
    assert summary["orbit_count"] == 45


def test_census_size_guard_falls_back_to_sampling(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--p", "11",
                       "--sample", "60", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "sampled" and data["samples"] >= 60


def test_separation_fallback_declares_sample_count():
    from glpair.census import verify_separation
    rep = verify_separation(2, 11, seed=1)
    assert rep.mode == "sampled-fallback"
    assert rep.samples > 0


def test_pexp_command(capsys):
    code, out, _ = run(capsys, "pexp", "--n", "1", "--parabolic", "1",
                       "--s", "1/2", "--X", "2,-1")
    assert code == 0
    data = json.loads(out)
    assert data["corank"] == 1
    assert data["quadrature_check"]["rel_error"] < 1e-6


def test_pexp_answers_where_the_constant_term_has_a_pole(capsys):
    "theta-hat(rho_{Q,s})(s) = 0 at s = -1 here; the integral is finite."
    code, out, _ = run(capsys, "pexp", "--n", "2", "--parabolic", "7",
                       "--s=-1", "--X=1,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["corank"] == 2 and math.isfinite(data["value"])
    assert data["quadrature_check"]["rel_error"] <= 1e-9


def test_pexp_fails_when_its_quadrature_check_fails(capsys, monkeypatch):
    exact = polyexp.p_quadrature
    monkeypatch.setattr(polyexp, "p_quadrature",
                        lambda Q, s, X: exact(Q, s, X) * (1 + 1e-3))
    code, out, _ = run(capsys, "pexp", "--n", "1", "--parabolic", "1",
                       "--s", "1/2", "--X", "2,-1")
    assert code == 1
    assert json.loads(out)["quadrature_check"]["rel_error"] > 1e-6


def _one_line_error(*argv):
    "Run the CLI in a subprocess; it must exit 2 with one stderr line."
    proc = subprocess.run(
        [sys.executable, "-m", "glpair.cli", *argv], capture_output=True,
        text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    return proc.stderr


def test_pexp_refuses_past_corank_six_in_one_line():
    "The exact route's work bound: corank 7 exits 2 instead of running."
    err = _one_line_error("pexp", "--n", "7", "--parabolic", "568",
                          "--s=1/2", "--X=1,2,3,4,5,6,7,8")
    assert "corank" in err


def test_pexp_overflow_is_input_error_in_one_line():
    "This printed an OverflowError traceback and exited 1."
    err = _one_line_error("pexp", "--n", "1", "--parabolic", "1",
                          "--s=1/2", "--X=1000,-1000")
    assert "overflow" in err


@pytest.mark.parametrize("n, p", [(1, 4), (0, 3), (1, 1), (2, 9)])
def test_census_rejects_bad_n_and_p_in_one_line(n, p):
    "These hung (composite p) or raised a traceback (n = 0)."
    _one_line_error("census", "--n", str(n), "--p", str(p))


@pytest.mark.parametrize("sample", ["0", "-5"])
def test_census_rejects_an_empty_sample_in_one_line(sample):
    "A census that checks zero cases is not a pass; it exited 0."
    err = _one_line_error("census", "--n", "2", "--p", "3",
                          "--sample", sample)
    assert "sample" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_cones_rejects_an_empty_sample_in_one_line(samples):
    "Two of its sweeps ran no case and the suite exited 0."
    err = _one_line_error("verify", "cones", "--n", "2",
                          "--samples", samples)
    assert "sample" in err


@pytest.mark.parametrize("argv, word", [
    (["parabolics", "--n", "0"], "n must be positive"),
    (["rrss", "--I0", "-1"], "I0"),
    (["rrss", "--I0", "2", "--eta", "5"], "eta")])
def test_verify_rejects_inputs_that_check_nothing_in_one_line(argv, word):
    """`--n 0` checked zero cases and exited 0; `--I0 -1` ran with an empty
    I0 and `--eta 5` beside `--I0 2` was ignored."""
    assert word in _one_line_error("verify", *argv)


def test_verify_cones_fails_on_a_gamma_value_out_of_range(monkeypatch,
                                                          capsys):
    "A gamma_prime value of 2 was reported but exited 0."
    from glpair import cones
    kernel = cones._gamma_prime
    monkeypatch.setattr(cones, "_gamma_prime",
                        lambda Q, h, hx: 2 if kernel(Q, h, hx) else 0)
    code, out, _ = run(capsys, "verify", "cones", "--n", "2",
                       "--samples", "10")
    assert code == 1
    support = [c for c in json.loads(out)["checks"]
               if c["identity"] == "cones.gamma-support"]
    assert support[0]["failures"] > 0


def test_zero_denominators_exit_2_in_one_line(tmp_path):
    "They raised a ZeroDivisionError traceback."
    path = tmp_path / "X.json"
    path.write_text(json.dumps([["1/0", "1"], ["3", "5"]]))
    assert "1/0" in _one_line_error("invariants", "--matrix", str(path))
    assert "1/0" in _one_line_error("pexp", "--n", "2", "--parabolic", "1",
                                    "--s=1/2", "--X=1/0,1,1")


def test_descriptor_without_a_key_exits_2_naming_it(tmp_path):
    "A missing key raised a KeyError traceback and exit 1."
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({
        "n": 2, "B": [["1", "0"], ["0", "2"]],
        "factors": [["-1", "1"], ["-2", "1"]], "d": "1"}))
    assert "alpha" in _one_line_error("classify", "--descriptor", str(path))
    path.write_text("[1]")
    assert "object" in _one_line_error("classify", "--descriptor", str(path))


def test_pexp_bad_input(capsys):
    code, _, err = run(capsys, "pexp", "--n", "1", "--parabolic", "9",
                       "--s", "1/2", "--X", "2,-1")
    assert code == 2


def test_verify_all_and_determinism(capsys):
    args = ["verify", "all", "--n", "2", "--I0", "1", "--samples", "20",
            "--seed", "5"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["total_failures"] == 0
    assert data["config"]["seed"] == 5
    names = [c["identity"] for c in data["checks"]]
    assert names == sorted(names)


def test_verify_all_n3(capsys):
    "One record shape: an identity, integer failures, at least one case."
    code, out, _ = run(capsys, "verify", "all", "--n", "3", "--I0", "2",
                       "--samples", "25", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["total_failures"] == 0
    assert len(data["checks"]) == 12
    for rep in data["checks"]:
        assert isinstance(rep["identity"], str)
        assert isinstance(rep["failures"], int)
        if rep["identity"] != "parabolics.lattice-count":
            assert rep["cases"] >= 1, rep["identity"]
    signed = [r for r in data["checks"] if r["identity"] == "rrss.signed-sum"]
    assert signed[0]["cases"] == 4 and "seed" not in signed[0]


def test_classify_polynomial_alpha_component(tmp_path, capsys):
    "Alpha components may be coefficient lists, not just rationals."
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({
        "n": 2, "B": [["0", "-1"], ["1", "0"]],
        "factors": [["1", "0", "1"]],
        "alpha": [["1", "1"]], "d": "0"}))
    code, out, _ = run(capsys, "classify", "--descriptor", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["I0"] == [] and data["orbit_count"] == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "--matrix", "/nonexistent.json")
    assert code == 2
