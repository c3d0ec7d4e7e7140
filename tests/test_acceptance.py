"""The acceptance gate: one test per criterion, exact tolerances, one
pass/fail line each.

Criterion 9 is asserted exactly as stated and is expected to FAIL: the
literal linear deform of h'_Pi(2;2,2) by the weight-(-2,-2) class is not
isomorphic to psl(4) over any GF(2^k).  The certificate: every
representative of the (unique, 1-dimensional) class has zero quadratic
defect, all four deformed algebras at parameter 1 have a 20-dimensional
derivation algebra, psl(4) has a 21-dimensional one, and derivation
dimensions are ranks of linear systems, hence stable under any base
field extension.  The quantization itself does realize psl(4) on the
same underlying space (verified by quantization_realizes_psl inside the
report), but its correction cochain mixes weights (0,0), (-1,-1) and
(-2,-2) and is not cohomologous to any single homogeneous cocycle.
"""

import hashlib
import json

from gf2lie import experiments

# sha256 of json.dumps(report, sort_keys=True): every check, verdict and
# witness of these reports, pinned so that refactors of the solvers and
# kernels behind them cannot move any of it
REPORT_SHA256 = {
    1: "b0b6081d647bf08417d6ec73e05ee8acdeaa6bfff7906d968ac20aefd8432820",
    5: "3beff5d53f0c65fa5eea04da06815ae95d1f11110eb587043cfdfa5962940b30",
    6: "7b52eb2bb22b07d3b27455606035310bc5b398851c97b73ab542f6f66b46cf81",
    7: "6922da01732d0539e2ec1b5f3759cb81ea04fbddd18226bd73c669a061e81118",
    8: "b8dd877d8ce3f0b5140d614a7a255ffff027f5ed787eeccbb1f61f2ac1cbb2d0",
    9: "2f1139e4454372314df154c8c1863223f8cd9cf8d6eea14ecebf2d19948f6306",
    11: "8620746142549ecc457e5e9c9ad909bf619d945c68064d69ac2a79bb8ae9463e",
    13: "1ec222091127b92ff6abe1209b768dbb4fbf9cfe34d26c38816d5bb918d282e3",
}


def _run(fn):
    rep = fn()
    line = "%-4s %s" % ("PASS" if rep["pass"] else "FAIL", rep["criterion"])
    print(line)
    return rep


def _sha256(rep):
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


def test_criterion_01_validation_sweep():
    rep = _run(experiments.criterion_01_validation_sweep)
    assert rep["pass"], rep
    assert _sha256(rep) == REPORT_SHA256[1]


def test_criterion_02_dimension_table():
    rep = _run(experiments.criterion_02_dimensions)
    assert rep["pass"], rep["rows"]


def test_criterion_03_kaplansky_identifications():
    rep = _run(experiments.criterion_03_kaplansky_identifications)
    assert rep["pass"], rep["checks"]


def test_criterion_04_weisfeiler_gr():
    rep = _run(experiments.criterion_04_weisfeiler_gr)
    assert rep["codims_21"] == [2, 3, 4, 3, 2]
    assert rep["pass"], rep["checks"]


def test_criterion_05_cocycle_ingestion():
    rep = _run(experiments.criterion_05_cocycle_ingestion)
    assert rep["hi_degrees"] == {-4: 3, -2: 4, 0: 1, 2: 4, 6: 1}
    assert rep["pass"], [c for c in rep["checks"] if not c[1]]
    assert _sha256(rep) == REPORT_SHA256[5]


def test_criterion_06_jurman_deforms():
    rep = _run(experiments.criterion_06_jurman_deforms)
    assert rep["pass"], rep["checks"]
    assert _sha256(rep) == REPORT_SHA256[6]


def test_criterion_07_semitrivial_certificates():
    rep = _run(experiments.criterion_07_semitrivial_certificates)
    assert rep["pass"], rep["checks"]
    assert _sha256(rep) == REPORT_SHA256[7]


def test_criterion_08_hI_integrability():
    rep = _run(experiments.criterion_08_hI_integrability)
    assert sum(v.count("linear-global") for v in rep["verdicts"].values()) == 12
    assert len(rep["non_integrable"]) == 1 and rep["non_integrable"][0][0] == -2
    assert rep["print_consistent"]
    assert rep["pass"], rep
    assert _sha256(rep) == REPORT_SHA256[8]


def test_criterion_09_quantization_literal():
    # asserted exactly as stated; expected RED, with the certificate in the
    # failure message (see the module docstring) - the report carries the
    # verified quantization realization alongside the honest literal verdict
    rep = _run(experiments.criterion_09_quantization)
    assert rep["quantization_realizes_psl"], rep
    assert rep["pass"], ("literal deform-by-c_{-2,-2} at hbar=1 vs psl(4): %s (%s); "
                         "derivation dims %s vs %s" % (
                             rep["literal_verdict"], rep["literal_reason"],
                             rep["deform_fingerprint"]["derivation_dim"],
                             rep["psl_fingerprint"]["derivation_dim"]))


def test_criterion_09_report_is_pinned():
    # the literal comparison stays red (test above); its whole report, the
    # certificate included, must not move
    rep = experiments.criterion_09_quantization()
    assert _sha256(rep) == REPORT_SHA256[9]


def test_criterion_10_alpha_family():
    rep = _run(experiments.criterion_10_alpha_family)
    assert rep["pass"], rep


def test_criterion_11_kap4b():
    rep = _run(experiments.criterion_11_kap4b_deform)
    assert rep["pass"], rep
    assert _sha256(rep) == REPORT_SHA256[11]


def test_criterion_12_superizations():
    rep = _run(experiments.criterion_12_superizations)
    assert rep["pass"], [c for c in rep["checks"] if not c[1]]


def test_criterion_13_property_suites():
    rep = _run(experiments.criterion_13_property_suites)
    assert rep["pass"], rep["checks"]
    assert _sha256(rep) == REPORT_SHA256[13]


def test_note_harmonic_subalgebra_h2_dim34():
    # reported value, not part of the gate; the chosen reading gives 34
    rep = _run(experiments.harmonic_subalgebra_h2_report)
    print("     dim H2 =", rep["dims"][2])
    assert rep["dims"][2] == 34
