import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gf2lie.cli import main
from gf2lie.fields import GF2k
from gf2lie.liealg import Algebra


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue()) if buf.getvalue().strip() else None


def test_build_jurman():
    code, doc = run_cli(["build", "jurman", "--g", "2", "--h", "1"])
    assert code == 0
    assert doc["dim"] == 14
    assert doc["validated"] is True


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "gf2lie", "build", "jurman", "--g", "2", "--h", "1"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["dim"] == 14


def test_build_emits_stable_json():
    _, d1 = run_cli(["build", "kap", "--family", "2", "--n", "4"])
    _, d2 = run_cli(["build", "kap", "--family", "2", "--n", "4"])
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_usage_error():
    code, _ = run_cli(["frobnicate"])
    assert code == 1


@pytest.mark.parametrize("pairs", ["2", ""])
def test_malformed_pairs_is_a_usage_error(pairs, capsys):
    code, doc = run_cli(["build", "multipair", "--pairs", pairs])
    assert code == 1 and doc is None
    assert "--pairs takes g,h;g,h;..." in capsys.readouterr().err


def test_pipeline_h2(tmp_path):
    out = str(tmp_path / "hp.json")
    code, _ = run_cli(["build", "h", "--N", "2,2", "--derived", "--out", out])
    assert code == 0 and os.path.exists(out)
    code, doc = run_cli(["h2", "--algebra", out, "--weight", "4,-2", "--mode", "z"])
    assert code == 0
    assert doc["H2"] == 1
    # the block contains the Jurman cocycle representative
    assert doc["representatives"]


def test_h2_in_an_ungraded_mode_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "hp.json")
    run_cli(["build", "h", "--N", "2,2", "--derived", "--out", out])
    code, doc = run_cli(["h2", "--algebra", out, "--weight", "0,0", "--mode", "mod2"])
    assert code == 1 and doc is None
    assert "weight mode 'mod2' does not grade" in capsys.readouterr().err


def test_simple_subcommand(tmp_path):
    out = str(tmp_path / "j.json")
    run_cli(["build", "jurman", "--g", "2", "--h", "1", "--out", out])
    code, doc = run_cli(["simple", "--algebra", out])
    assert code == 0 and doc["verdict"] == "simple"
    assert doc["seed"] == 0  # seeds are printed in every report


def _jurman_21_file(tmp_path):
    out = str(tmp_path / "j.json")
    run_cli(["build", "jurman", "--g", "2", "--h", "1", "--out", out])
    return out


def test_grade_subcommand(tmp_path):
    out = _jurman_21_file(tmp_path)
    with open(out) as fh:
        labels = json.load(fh)["labels"]
    # L0 of j(2,1): every basis vector outside Y_{-1}, as ints and int strings
    l0 = [1 << i for i, lbl in enumerate(labels) if not lbl.startswith("Y-1")]
    sub = tmp_path / "l0.json"
    sub.write_text(json.dumps([hex(r) for r in l0[:3]] + [str(r) for r in l0[3:6]] + l0[6:]))
    code, doc = run_cli(["grade", "--algebra", out, "--subalgebra", str(sub)])
    assert code == 0
    assert doc["l0_maximal"] and doc["depth"] == 1
    assert doc["layer_dims"] == [14, 12, 9, 5, 2] and doc["codims"] == [2, 3, 4, 3, 2]


# [3] is a row, read as e_0 + e_1, that spans no subalgebra with a filtration
@pytest.mark.parametrize("rows, why", [([3], "filtration does not exhaust"), (["0x100000"], "not a vector of the 14-dim"),
                                       (["-0x3"], "not a vector of the 14-dim"),
                                       ([1.5], "not a vector of the 14-dim"),
                                       (["0xg"], "not a vector of the 14-dim"),
                                       ([True], "not a vector of the 14-dim"),
                                       ({"rows": [3]}, "takes a JSON list")])
def test_grade_refuses_bad_rows_as_a_usage_error(tmp_path, capsys, rows, why):
    out = _jurman_21_file(tmp_path)
    sub = tmp_path / "rows.json"
    sub.write_text(json.dumps(rows))
    code, doc = run_cli(["grade", "--algebra", out, "--subalgebra", str(sub)])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert why in err and "Traceback" not in err


def test_iso_subcommand(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run_cli(["build", "kap", "--family", "4A", "--n", "4", "--arf", "1", "--out", a])
    run_cli(["build", "classical", "--family", "oPi", "--n", "5",
             "--variant", "derived", "--out", b])
    code, doc = run_cli(["iso", "--algebra", a, "--other", b])
    assert code == 0 and doc["verdict"] == "iso"


def test_deform_jurman_subcommand():
    code, doc = run_cli(["deform", "jurman", "--g", "2", "--h", "1"])
    assert code == 0
    assert doc["isomorphic_to_jurman"] is True
    assert doc["cocycle_weight"] == [4, -2]


def test_closure_subcommand():
    code, doc = run_cli(["closure", "--base", "2", "--n", "4"])
    assert code == 0
    assert doc["dim"] == 19 and doc["restricted_ok"] is True


def test_closure_that_is_not_restricted_exits_2():
    code, doc = run_cli(["closure", "--base", "1", "--n", "4"])
    assert code == 2 and doc["restricted_ok"] is False


def test_super_that_fails_the_squaring_axiom_exits_2():
    code, doc = run_cli(["super", "--base", "1", "--n", "4"])
    assert code == 2 and doc["axioms_msg"] == "squaring axiom fails at (0, 0)"


@pytest.mark.parametrize("v", ["16", "-1"])
def test_super_refuses_a_v_outside_the_space(v, capsys):
    code, doc = run_cli(["super", "--base", "2", "--n", "4", "--mode", "linear", "--v", v])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert "v must be a nonzero vector of F_2^4" in err and "Traceback" not in err


def test_super_subcommand():
    code, doc = run_cli(["super", "--base", "2", "--n", "4", "--mode", "nonlinear",
                         "--arf2", "0"])
    assert code == 0 and doc["axioms_ok"] is True
    assert sum(doc["parity"]) == 9  # odd part of KapS_{2,0}(4)


def test_experiment_file(tmp_path):
    spec = {
        "name": "dims",
        "steps": [{"cmd": ["build", "jurman", "--g", "2", "--h", "1"]}],
        "expectations": [{"path": "0.dim", "equals": 14}],
    }
    path = str(tmp_path / "exp.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    code, doc = run_cli(["experiment", path])
    assert code == 0 and doc["pass"] is True
    # deliberately wrong expectation fails with a diff
    spec["expectations"][0]["equals"] = 15
    with open(path, "w") as fh:
        json.dump(spec, fh)
    code, doc = run_cli(["experiment", path])
    assert code == 2 and doc["failures"][0]["actual"] == 14
    # empty suite passes vacuously with a warning
    with open(path, "w") as fh:
        json.dump({"name": "empty"}, fh)
    code, doc = run_cli(["experiment", path])
    assert code == 0 and "warning" in doc


def test_paper_suite_survives_a_crashed_criterion(monkeypatch, capsys):
    from gf2lie import experiments

    def criterion_01_fine():
        return {"criterion": "1 fine", "pass": True}

    def criterion_02_broken():
        return undefined_helper()  # noqa: F821 - the crash under test

    monkeypatch.setattr(experiments, "ALL_CRITERIA", [criterion_01_fine, criterion_02_broken])
    monkeypatch.setattr(experiments, "harmonic_subalgebra_h2_report",
                        lambda: {"criterion": "note: stub", "pass": True})
    code = main(["experiment", "paper-suite"])
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert code == 3
    assert [r["criterion"] for r in doc["reports"]] == [
        "1 fine", "2 criterion_02_broken", "note: stub"]
    assert "error" not in doc["reports"][0]
    broken = doc["reports"][1]
    assert broken["pass"] is False
    assert broken["error"] == "NameError: name 'undefined_helper' is not defined"
    assert doc["pass"] is False
    assert "ERR  2 criterion_02_broken" in err and "Traceback" in err


def test_paper_suite_times_go_to_stderr_only(monkeypatch, capsys):
    from gf2lie import experiments

    monkeypatch.setattr(experiments, "ALL_CRITERIA", [
        lambda: {"criterion": "1 fine", "pass": True, "dims": [3, 1]},
        lambda: {"criterion": "2 off", "pass": False}])
    monkeypatch.setattr(experiments, "harmonic_subalgebra_h2_report",
                        lambda: {"criterion": "note: stub", "pass": False})
    code = main(["experiment", "paper-suite"])
    out, err = capsys.readouterr()
    assert code == 2
    # the stdout document, byte for byte as it was before times were shown
    assert out == ('{\n "experiment": "paper-suite",\n "pass": false,\n "reports": [\n  {\n'
                   '   "criterion": "1 fine",\n   "dims": [\n    3,\n    1\n   ],\n   "pass": true\n'
                   '  },\n  {\n   "criterion": "2 off",\n   "pass": false\n  },\n  {\n'
                   '   "criterion": "note: stub",\n   "pass": false\n  }\n ],\n "seed": 0\n}\n')
    lines = err.splitlines()[1:]
    assert [re.sub(r" \(\d+\.\d\d s\)$", "", line) for line in lines] == [
        "PASS 1 fine", "FAIL 2 off", "INFO note: stub"]
    assert all(line.endswith(" s)") for line in lines)


def test_internal_fault_exit_code(monkeypatch, capsys):
    from gf2lie import cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate", "--algebra", "x.json"]) == 3
    assert "KeyError" in capsys.readouterr().err


def test_experiment_step_fault_ends_the_experiment(tmp_path, monkeypatch, capsys):
    from gf2lie import cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    path = str(tmp_path / "exp.json")
    with open(path, "w") as fh:
        json.dump({"name": "faulty", "steps": [{"cmd": ["validate", "--algebra", "x.json"]}]}, fh)
    assert main(["experiment", path]) == 3
    captured = capsys.readouterr()
    assert "Expecting value" not in captured.err
    assert "step 0" in captured.err and "KeyError" in captured.err
    assert captured.out == ""


def test_unreadable_input_is_a_usage_error(tmp_path):
    code, _ = run_cli(["validate", "--algebra", str(tmp_path / "missing.json")])
    assert code == 1


def _gf4_algebra_file(tmp_path):
    """sl(2) over GF(4), with a coefficient outside GF(2): [h,x] = w.x."""
    g = Algebra(GF2k(2), ["h", "x", "y"], {(0, 1): {1: 2}, (0, 2): {2: 2}, (1, 2): {0: 1}},
                name="sl2 over GF(4)")
    path = tmp_path / "gf4.json"
    path.write_text(g.dumps())
    return str(path)


@pytest.mark.parametrize("cmd", ["simple", "derived", "center", "h1"])
def test_gf2_only_subcommand_on_gf4_is_a_usage_error(tmp_path, capsys, cmd):
    code, doc = run_cli([cmd, "--algebra", _gf4_algebra_file(tmp_path)])
    assert code == 1 and doc is None
    assert "GF(2) only" in capsys.readouterr().err


def test_gf2_only_subcommand_refuses_gf4_under_python_dash_O(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-m", "gf2lie", "simple", "--algebra",
                          _gf4_algebra_file(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 1 and out.stdout == ""
    assert "GF(2) only" in out.stderr
