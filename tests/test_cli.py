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
from gf2lie.constructions import build_kap4B, build_poisson
from gf2lie.fields import GF2, GF2k
from gf2lie.liealg import Algebra
from test_liealg import _dense_jacobi_failures


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


def test_build_out_writes_the_algebra_dumps(tmp_path):
    out = tmp_path / "kap4B.json"
    run_cli(["build", "kap", "--family", "4B", "--n", "4", "--out", str(out)])
    assert out.read_text() == build_kap4B(4).dumps()


def test_usage_error():
    code, _ = run_cli(["frobnicate"])
    assert code == 1


@pytest.mark.parametrize("pairs", ["2", ""])
def test_malformed_pairs_is_a_usage_error(pairs, capsys):
    code, doc = run_cli(["build", "multipair", "--pairs", pairs])
    assert code == 1 and doc is None
    assert "--pairs takes g,h;g,h;..." in capsys.readouterr().err


@pytest.mark.parametrize("N", ["", "2,x"])
def test_malformed_N_is_a_usage_error(N, capsys):
    code, doc = run_cli(["build", "h", "--N", N])
    assert code == 1 and doc is None
    assert "--N takes comma-separated integers (e.g. 2,2), not %r" % N in capsys.readouterr().err


def test_malformed_weight_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "hp.json")
    run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])
    code, doc = run_cli(["h2", "--algebra", out, "--mode", "z", "--weight", "1,x"])
    assert code == 1 and doc is None
    assert "--weight takes comma-separated integers (e.g. 2,2), not '1,x'" in capsys.readouterr().err


def test_pipeline_h2(tmp_path):
    out = str(tmp_path / "hp.json")
    code, _ = run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])
    assert code == 0 and os.path.exists(out)
    code, doc = run_cli(["h2", "--algebra", out, "--weight", "4,-2", "--mode", "z"])
    assert code == 0
    assert doc["H2"] == 1
    # the block contains the Jurman cocycle representative
    assert doc["representatives"]


@pytest.mark.parametrize("argv", [
    ["build", "tensor-example", "--field", "gf4", "--hbar", "4"],
    ["build", "tensor-example", "--field", "gf2", "--hbar", "0x2"],
    ["deform", "poisson-family", "--field", "gf4", "--alpha", "7"],
    ["deform", "poisson-family", "--field", "gf2", "--alpha", "2"],
], ids=["tensor-gf4", "tensor-gf2", "alpha-gf4", "alpha-gf2"])
def test_a_value_outside_the_field_is_a_usage_error(argv, capsys):
    code, doc = run_cli(argv)
    assert code == 1 and doc is None
    assert "is not an element of GF" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["gf2k:x", "gf2k:", "gf2k:2:zz", "gf2k:2:3:4", "gf2k:2:7:4"])
def test_a_malformed_field_spec_is_a_usage_error(spec, capsys):
    # a non-integer degree or modulus, or a fourth field, is refused with exit 1
    code, doc = run_cli(["build", "tensor-example", "--field", spec, "--hbar", "1"])
    assert code == 1 and doc is None
    assert "field spec %r" % spec in capsys.readouterr().err


def test_deform_cocycle_refuses_an_hbar_outside_the_field(tmp_path, capsys):
    out = str(tmp_path / "hp.json")
    assert run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])[0] == 0
    code, doc = run_cli(["deform", "cocycle", "--algebra", out, "--cocycle", "",
                         "--field", "gf4", "--hbar", "0x4"])
    assert code == 1 and doc is None
    assert "0x4 is not an element of GF(2^2)" in capsys.readouterr().err


@pytest.mark.parametrize("k, value", [(1, "0x2"), (2, "4")])
def test_validate_refuses_a_json_value_outside_the_field(tmp_path, capsys, k, value):
    doc = Algebra(GF2k(k), ["a", "b", "c", "d"], {(0, 1): {2: 1}}).to_json()
    doc["sc"].append([2, 3, [[0, value]]])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and out is None
    assert "structure constant at (2,3) lies outside GF" in capsys.readouterr().err


def test_validate_reports_a_jacobi_failure_with_exit_2(tmp_path):
    # po(1;1,1) with [p, p*q] = q
    po = build_poisson(1, (1, 1))
    sc = {k: dict(v) for k, v in po.sc.items()}
    sc[tuple(sorted((po.labels.index("p"), po.labels.index("p*q"))))] = {po.labels.index("q"): 1}
    g = Algebra(GF2, po.labels, sc)
    path = tmp_path / "broken.json"
    path.write_text(g.dumps())
    code, doc = run_cli(["validate", "--algebra", str(path)])
    assert code == 2 and doc["report"]["ok"] is False
    assert doc["report"]["first_jacobi_failure"] == list(_dense_jacobi_failures(g, 1)[0])


@pytest.mark.parametrize("weight", ["1,2,3", "1"])
def test_h2_refuses_a_weight_of_the_wrong_length(tmp_path, capsys, weight):
    out = str(tmp_path / "hp.json")
    run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])
    code, doc = run_cli(["h2", "--algebra", out, "--weight", weight, "--mode", "z"])
    assert code == 1 and doc is None
    assert "a weight in mode 'z' has %d entries, not 2" % len(weight.split(",")) in capsys.readouterr().err


@pytest.mark.parametrize("argv, dim", [(["h", "--N", "2,2"], 15),
                                       (["h", "--N", "2,2", "--variant", "derived"], 14),
                                       (["h", "--form", "i", "--N", "1,1,1", "--variant", "derived"], 6),
                                       (["lh", "--N", "1,1,1,1"], 15),
                                       (["lh", "--N", "1,1,1,1", "--variant", "derived"], 14)])
def test_build_h_and_lh_read_the_variant(argv, dim):
    code, doc = run_cli(["build"] + argv)
    assert code == 0 and doc["dim"] == dim


@pytest.mark.parametrize("argv", [["h", "--N", "2,2"], ["h", "--form", "i", "--N", "2,2"],
                                  ["lh", "--N", "1,1,1,1"]])
def test_build_refuses_a_variant_the_builder_lacks(argv, capsys):
    code, doc = run_cli(["build"] + argv + ["--variant", "derived_mod_center"])
    assert code == 1 and doc is None
    assert "unknown variant 'derived_mod_center'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["po", "--N", "2,2"], ["jurman"], ["kap", "--family", "2"],
                                  ["tensor-example"]])
@pytest.mark.parametrize("variant", ["derived", "derived_mod_center"])
def test_build_without_variants_refuses_one(argv, variant, capsys):
    code, doc = run_cli(["build"] + argv + ["--variant", variant])
    assert code == 1 and doc is None
    assert "has no variant %r" % variant in capsys.readouterr().err


def test_build_has_no_derived_flag():
    code, doc = run_cli(["build", "multipair", "--pairs", "2,1", "--derived"])
    assert code == 1 and doc is None


def test_h2_in_an_ungraded_mode_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "hp.json")
    run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])
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


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_iso_refuses_a_budget_below_1(tmp_path, budget, capsys):
    a = str(tmp_path / "j21.json")
    run_cli(["build", "jurman", "--g", "2", "--h", "1", "--out", a])
    capsys.readouterr()
    code, doc = run_cli(["iso", "--algebra", a, "--other", a, "--budget", budget])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert "search budget must be at least 1, got %s" % budget in err and "Traceback" not in err


HP22_NAME = "h'_Pi(2;[2, 2])"
C_4_M2 = "p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + p^(3) q^(2) (x) d(q^(2))^d(q^(3))"
# (the --weight of the H^2 representative deformed, None for the printed
# c_{4,-2}; extra flags; the JSON printed), pinned byte for byte
DEFORM_PINS = [
    (None, [], {"jacobiator_by_power": {}, "name": HP22_NAME, "verdict": "linear-global"}),
    ("0,-2", [], {"jacobiator_by_power": {"(2,)": 26}, "name": HP22_NAME, "verdict": "needs-correction"}),
    ("0,-2", ["--field", "gf4", "--hbar", "2"],
     {"jacobiator_by_power": {"(2,)": 26}, "name": HP22_NAME, "semitrivial_certificate": None,
      "verdict": "needs-correction"}),
]
JURMAN_21_PIN = {
    "cocycle": "p^(3) (x) d(q)^d(q^(2)) + p^(3)*q (x) d(q)^d(q^(3)) + p^(3)*q^(2) (x) d(q^(2))^d(q^(3))",
    "cocycle_weight": [4, -2], "engine": "zgraded", "g": 2, "h": 1, "isomorphic_to_jurman": True}


def _printed(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _pin_text(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("weight, extra, want", DEFORM_PINS, ids=["c42", "h2-02", "h2-02-gf4"])
def test_deform_cocycle_prints_the_pinned_verdict(tmp_path, weight, extra, want):
    out = str(tmp_path / "hp.json")
    assert run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])[0] == 0
    cocycle = C_4_M2
    if weight:
        code, doc = run_cli(["h2", "--algebra", out, "--mode", "z", "--weight", weight])
        assert code == 0 and doc["H2"] == 1
        cocycle = doc["representatives"][0]
    assert _printed(["deform", "cocycle", "--algebra", out, "--cocycle", cocycle] + extra) == (0, _pin_text(want))


def test_deform_jurman_prints_the_pinned_report():
    assert _printed(["deform", "jurman", "--g", "2", "--h", "1"]) == (0, _pin_text(JURMAN_21_PIN))


def test_deform_jurman_subcommand():
    code, doc = run_cli(["deform", "jurman", "--g", "2", "--h", "1"])
    assert code == 0
    assert doc["isomorphic_to_jurman"] is True
    assert doc["cocycle_weight"] == [4, -2]


@pytest.mark.parametrize("N", ["2", "2,2,2", "1,1,1"])
def test_poisson_family_refuses_an_unpaired_variable(N, capsys):
    code, doc = run_cli(["deform", "poisson-family", "--N", N])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert "need one shearing entry per variable" in err and "Traceback" not in err


def test_poisson_family_subcommand():
    code, doc = run_cli(["deform", "poisson-family", "--N", "1,1", "--alpha", "1"])
    assert code == 0 and doc["dim"] == 4 and doc["validated"] is True


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


@pytest.mark.parametrize("arf2", ["5", "-1", "2"])
def test_super_refuses_an_arf_outside_0_1(arf2, capsys):
    code, doc = run_cli(["super", "--base", "2", "--n", "4", "--mode", "nonlinear", "--arf2", arf2])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert "the Arf invariant is 0 or 1, not %s" % arf2 in err and "Traceback" not in err


@pytest.mark.parametrize("family", ["gl", "sl", "psl", "oI", "oPi"])
@pytest.mark.parametrize("n", ["-2", "-1", "0"])
def test_build_classical_refuses_n_below_1(family, n, capsys):
    code, doc = run_cli(["build", "classical", "--family", family, "--n", n])
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert "a matrix algebra needs n >= 1, not %s" % n in err and "Traceback" not in err


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


@pytest.mark.parametrize("where", ["0.nosuch.key", "1.dim", "0.dim.x"],
                         ids=["a-missing-key", "an-index-past-the-end", "a-part-of-a-number"])
def test_experiment_path_that_does_not_resolve_fails_its_expectation(tmp_path, where):
    spec = {"name": "paths", "steps": [{"cmd": ["build", "jurman", "--g", "2", "--h", "1"]}],
            "expectations": [{"path": where, "equals": None}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    code, doc = run_cli(["experiment", str(path)])
    assert code == 2 and doc["failures"] == [{"path": where, "expected": None, "actual": None}]


@pytest.mark.parametrize("spec, why", [
    ([{"cmd": ["build", "jurman"]}], 'an experiment file holds a JSON object with "steps"'),
    ({"steps": [{"cmd": "build"}]}, 'step 0 is not {"cmd": [argument strings]}'),
    ({"steps": {"cmd": ["build", "jurman"]}}, 'an experiment file holds a JSON object with "steps"'),
    ({"expectations": [{"equals": 14}]}, 'expectation 0 is not {"path"'),
], ids=["a-list", "a-string-cmd", "a-steps-object", "no-path"])
def test_malformed_experiment_file_is_a_usage_error(tmp_path, capsys, spec, why):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    code, doc = run_cli(["experiment", str(path)])
    assert code == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: " + why)


@pytest.mark.parametrize("later_steps, expectations, why", [
    ([], [{"path": "0.dim"}], 'expectation 0 is not {"path"'),
    ([{"cmd": "validate"}], [], 'step 1 is not {"cmd": [argument strings]}'),
], ids=["a-malformed-expectation", "a-malformed-second-step"])
def test_malformed_experiment_file_runs_no_step(tmp_path, capsys, later_steps, expectations, why):
    out = tmp_path / "F.json"
    first = {"cmd": ["build", "kap", "--family", "2", "--n", "2", "--out", str(out)]}
    spec = {"steps": [first] + later_steps, "expectations": expectations}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    code, doc = run_cli(["experiment", str(path)])
    assert code == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: " + why)
    assert not out.exists()


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


def test_a_bare_value_error_in_a_kernel_is_an_internal_fault(tmp_path, monkeypatch, capsys):
    from gf2lie import cli

    def broken(*args, **kwargs):
        raise ValueError("not enough values to unpack")

    out = str(tmp_path / "hp.json")
    assert run_cli(["build", "h", "--N", "2,2", "--variant", "derived", "--out", out])[0] == 0
    monkeypatch.setattr(cli, "compute_h2", broken)
    capsys.readouterr()
    code, doc = run_cli(["h2", "--algebra", out, "--weight", "4,-2", "--mode", "z"])
    err = capsys.readouterr().err
    assert code == 3 and doc is None
    assert "Traceback" in err and "ValueError: not enough values to unpack" in err


@pytest.mark.parametrize("argv, why", [
    (["build", "h", "--N", "0,2"], "shearing vector entries must be >= 1: (0, 2)"),
    (["build", "po", "--N", "2,-1"], "shearing vector entries must be >= 1: (2, -1)"),
    (["build", "tensor-example", "--hbar", "0xg"], "'0xg' is not an int literal"),
], ids=["N-zero", "N-negative", "hbar-not-an-int"])
def test_bad_build_arguments_are_usage_errors(argv, why, capsys):
    code, doc = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and doc is None
    assert err.startswith("error: ") and why in err and "Traceback" not in err


def test_validate_refuses_a_modulus_that_is_not_an_int(tmp_path, capsys):
    doc = Algebra(GF2k(2), ["a", "b"], {}).to_json()
    doc["field"]["modulus"] = "0xg"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and out is None
    assert "field modulus is an int literal" in capsys.readouterr().err


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


@pytest.mark.parametrize("text, why", [("{}", "needs the key(s) field, labels, sc"),
                                       ("[1, 2]", "holds a JSON object, not list")],
                         ids=["no-keys", "a-list"])
def test_validate_refuses_a_malformed_algebra_file(tmp_path, capsys, text, why):
    path = tmp_path / "alg.json"
    path.write_text(text)
    code, doc = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and doc is None
    assert "error: an algebra file %s" % why in capsys.readouterr().err


GF2_FIELD = {"kind": "gf2k", "k": 1, "modulus": "0x3"}
POLY_FIELD = {"kind": "poly", "var": "h"}


@pytest.mark.parametrize("field, labels, sc, why", [
    ({}, ["a", "b"], [], "field is"),
    ({"kind": "gf2k"}, ["a", "b"], [], "field is"),
    ("gf2", ["a", "b"], [], "field is"),
    (GF2_FIELD, ["a", "b"], [[0, 1, [[1, 1]]]], "sc entries are"),
    (GF2_FIELD, ["a", "b"], [[0, 1, 5]], "sc entries are"),
    (GF2_FIELD, ["a", "b"], [["0", 1, [[1, "1"]]]], "sc entries are"),
    (GF2_FIELD, ["a", "b"], 7, "are JSON lists"),
    (GF2_FIELD, 5, [], "are JSON lists"),
    (GF2_FIELD, ["a", "b", "c", "d"], [[0, 1, [[2, "1"]]], [0, 1, [[3, "1"]]]], "repeats the pair [0, 1]"),
    (GF2_FIELD, ["a", "b", "c", "d"], [[0, 1, [[2, "1"]]], [1, 0, [[3, "1"]]]], "repeats the pair [0, 1]"),
    (GF2_FIELD, ["a", "b", "c"], [[0, 1, [[2, "1"], [2, "1"]]]], "lists a target twice"),
    (POLY_FIELD, ["a", "b", "c"], [[0, 1, [[2, "[1,x,0]"]]]], '[[2, "[1,x,0]"]]] holds a target that is not'),
    (POLY_FIELD, ["a", "b", "c"], [[0, 1, [[2, "[10]"]]]], '[[2, "[10]"]]] holds a target that is not'),
    (POLY_FIELD, ["a", "b", "c"], [[0, 1, [[2, "[2]"]]]], '[[2, "[2]"]]] holds a target that is not'),
    (GF2_FIELD, ["a", "b", "c"], [[0, 1, [["c", "1"]]]], '[["c", "1"]]] holds a target that is not'),
], ids=["empty-field", "no-k", "a-string", "an-int-coefficient", "an-int-row", "a-string-index",
        "an-int-sc", "int-labels", "a-repeated-pair", "a-swapped-repeated-pair", "a-repeated-target",
        "a-letter-in-a-polynomial", "a-two-digit-coefficient", "a-coefficient-of-2", "a-label-as-target"])
def test_validate_refuses_a_malformed_field_or_structure(tmp_path, capsys, field, labels, sc, why):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"field": field, "labels": labels, "sc": sc}))
    code, doc = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


@pytest.mark.parametrize("key, value, why", [
    ("grading", 5, "grading is a list of integer lists"),
    ("grading", [[0], ["1"]], "grading is a list of integer lists"),
    ("grading_mod", 2, "grading_mod is an integer list"),
    ("grading_mod", [[2]], "grading_mod is an integer list"),
    ("meta", 5, "meta is an object"),
    ("meta", {"mono_degrees": 5}, "meta.mono_degrees is a list of integer lists"),
    ("meta", {"vars": [1, 2]}, "meta.vars is a list of strings"),
    ("meta", {"N": ["2"]}, "meta.N is an integer list"),
    ("name", ["x"], "name is a string"),
    ("labels", [0, 1], "labels is a list of strings"),
    ("dim", 99, "dim is 2, the number of labels"),
], ids=["int-grading", "string-weight", "int-grading_mod", "nested-grading_mod", "int-meta",
        "int-mono_degrees", "int-vars", "string-N", "list-name", "int-labels", "wrong-dim"])
def test_validate_refuses_a_malformed_optional_key(tmp_path, capsys, key, value, why):
    doc = Algebra(GF2k(1), ["a", "b"], {}).to_json()
    doc[key] = value
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and out is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


def test_weights_and_grading_mod_of_different_lengths_are_refused(tmp_path, capsys):
    doc = Algebra(GF2k(1), ["a", "b"], {}, grading=[(0, 1), (1, 1)], grading_mod=(2, 2)).to_json()
    doc["grading_mod"] = [2]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)])
    assert code == 1 and out is None
    assert "one entry per grading_mod entry" in capsys.readouterr().err


def test_h2_refuses_mono_degrees_of_the_wrong_length(tmp_path, capsys):
    doc = Algebra(GF2k(1), ["a", "b"], {}).to_json()
    doc["meta"] = {"mono_degrees": [[0]]}  # a 1-variable key, so the weight "0" fits
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["h2", "--algebra", str(path), "--weight", "0", "--mode", "z"])
    assert code == 1 and out is None
    assert "error: meta.mono_degrees has 1 entries for 2 basis vectors" in capsys.readouterr().err


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
