"""The named desk-scale checks: one callable per acceptance criterion,
each returning a report dict with a "pass" flag and the measured data.

Builders are cached per process so the CLI and the test suite can both
sweep the whole list in minutes.
"""

from __future__ import annotations

import time
import traceback
from functools import lru_cache
from itertools import combinations
from typing import Dict, List

from . import gf2
from .cohomology import (Cochain2, block_consistent_representative, combine, compute_h2,
                          consistent_class_masks, d2, derivation_dim, is_coboundary, parse_cocycle)
from .constructions import (QuadraticFormSpec, build_a2gh, build_classical, build_gl,
                            build_div_free_hI, build_hI, build_hamiltonian, build_jurman,
                            build_kap1, build_kap2, build_kap3, build_kap4A, build_kap4B,
                            build_multipair, build_po_tensor_O,
                            build_poisson, build_tensor_example, dim_kap4A, monomial_rows,
                            tensor_example_iso)
from .deform import (bracket_map_cochain, deform_bracket, defect, integrability_verdict,
                     jurman_cocycle, jurman_deform_check,
                     kap4b_as_deform, partial_matrix, poisson_family, f_alpha_matrix,
                     reindex_map, semitrivial_certificate, zero_defect_representative,
                     lambda_grading)
from .divpow import mono_mul, mono_partial
from .fields import GF2, GF2k
from .grading import associated_graded, weisfeiler_filtration
from .isom import fingerprint, search_isomorphism
from .liealg import (Algebra, LinearMap, Subspace, brackets, derived_subalgebra, direct_sum, quotient,
                     simplicity_check, verify_morphism)
from .superize import (equivalence_of_superizations, nonlinear_reduction_check,
                       parity_nonlinearity_witness, restricted_closure, seven_families,
                       superize_linear)

GF4 = GF2k(2)


# ---------------------------------------------------------------------------
# cached builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def HP(g: int, hplus1: int) -> Algebra:
    return build_hamiltonian(1, (g, hplus1), "derived")


@lru_cache(maxsize=None)
def HI22() -> Algebra:
    return build_hI(2, (2, 2))


@lru_cache(maxsize=None)
def J(g: int, h: int) -> Algebra:
    return build_jurman(g, h)


@lru_cache(maxsize=None)
def QPO() -> Algebra:
    """The operator quantization of po(1; (2, 2)): its 16 operator matrices
    are a basis of gl(4), so Q is gl(4) carried to that basis, bracket and
    column-minus-row grading alike."""
    import math
    po = build_poisson(1, (2, 2))
    monos = po.meta["mono_degrees"]

    def op_matrix(i, j):  # the gl(4) mask: bit 4k + t holds entry (k, t)
        m = 0
        for k in range(j, 4):
            tgt = k - j + i
            if tgt < 4 and math.comb(tgt, i) & 1:
                m |= 1 << (4 * k + tgt)
        return m

    gl4 = build_gl(4)
    cols = [op_matrix(i, j) for (i, j) in monos]
    inv = gf2.invert(cols, 16)
    coords = (gf2.apply_rows(inv, w) for w in brackets(gl4, cols))
    sc = {p: c for p, c in zip(combinations(range(16), 2), coords) if c}
    return Algebra.from_gf2_rows(po.labels, sc, grading=[(i - j,) for (i, j) in monos], grading_mod=(0,),
                                 meta=po.meta, name="quantized po")


# the reference cocycle tables for these algebras, in the ingestion grammar;
# entries keyed by the advertised weight (full term lists where available)
PRINTED_GH21 = {
    (4, -2): ("p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + "
              "p^(3) q^(2) (x) d(q^(2))^d(q^(3))"),
    (0, -4): ("p (x) d(p q^(2))^d(p q^(3)) + p (x) d(q^(3))^d(p^(2) q^(2)) + "
              "q (x) d(q^(3))^d(p q^(3)) + p^(2) (x) d(p q^(2))^d(p^(2) q^(3)) + "
              "p^(2) (x) d(q^(3))^d(p^(3) q^(2)) + p q (x) d(q^(3))^d(p^(2) q^(3)) + "
              "p^(3) (x) d(p^(2) q^(2))^d(p^(2) q^(3)) + p^(3) (x) d(p q^(3))^d(p^(3) q^(2)) + "
              "p^(2) q (x) d(p q^(3))^d(p^(2) q^(3))"),
    (2, 0): ("p^(2) (x) d(p)^d(q) + p q^(2) (x) d(q)^d(q^(2)) + "
             "p^(3) q (x) d(q)^d(p^(2) q) + p^(3) q^(2) (x) d(p)^d(p q^(3)) + "
             "p^(3) q^(2) (x) d(q^(2))^d(p^(2) q) + p^(2) q^(3) (x) d(q)^d(p q^(3))"),
}
PRINTED_GH21_PARTIAL = {
    (0, -2): ("p (x) d(p)^d(p q^(3)) + p (x) d(p q)^d(p q^(2)) + "
              "p (x) d(q^(2))^d(p^(2) q) + q (x) d(q)^d(p q^(3))"),
    (-2, -2): ("p (x) d(p q^(2))^d(p^(3) q) + q (x) d(p q^(2))^d(p^(2) q^(2)) + "
               "q (x) d(q^(3))^d(p^(3) q)"),
}
GH31_WEIGHTS = [(0, -8), (1, -7), (4, -4), (4, -2), (1, -5), (0, -4), (-1, -5), (-2, -6),
                (-2, -4), (-1, -3), (0, -2), (2, 0), (-2, -2), (-2, 0), (-4, -2), (-4, 0),
                (0, 4), (0, 6), (-2, 8)]
# elided entries of the (3,1) table: the printed leading terms only
PRINTED_GH31_PARTIAL = {
    (0, -8): "p (x) d(p q^(4))^d(p q^(5)) + p (x) d(q^(5))^d(p^(2) q^(4)) + q (x) d(p q^(4))^d(q^(6))",
    (1, -7): "p (x) d(q^(4))^d(p q^(4)) + q (x) d(q^(4))^d(q^(5)) + p^(2) (x) d(q^(4))^d(p^(2) q^(4))",
    (4, -4): "p^(3) (x) d(q)^d(q^(4)) + p^(3) q (x) d(q)^d(q^(5)) + p^(3) q (x) d(q^(2))^d(q^(4))",
    (4, -2): "p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + p^(3) q^(2) (x) d(q)^d(q^(4))",
    (1, -5): "p (x) d(q^(2))^d(p q^(4)) + p (x) d(p q^(2))^d(q^(4))",
    (0, -4): "p (x) d(p q^(2))^d(p q^(3)) + p (x) d(q^(3))^d(p^(2) q^(2))",
    (-1, -5): "p (x) d(p^(2))^d(p q^(6)) + p (x) d(p^(3))^d(q^(6))",
    (-2, -6): "p (x) d(p q^(4))^d(p^(3) q^(3)) + q (x) d(p q^(4))^d(p^(2) q^(4))",
    (-2, -4): "p (x) d(p q^(2))^d(p^(3) q^(3)) + p (x) d(p^(3) q)^d(p q^(4))",
    (-1, -3): "p (x) d(q^(2))^d(p^(3) q^(2)) + p (x) d(p^(2) q)^d(p q^(3))",
    (0, -2): "p (x) d(p q)^d(p q^(2)) + p (x) d(q^(2))^d(p^(2) q)",
    (2, 0): "p^(2) (x) d(p)^d(q) + p q^(2) (x) d(q)^d(q^(2))",
    (-2, -2): "p (x) d(p q^(2))^d(p^(3) q) + q (x) d(q)^d(p^(3) q^(3))",
    (-2, 0): "p (x) d(p^(2))^d(p^(2) q) + p (x) d(p q)^d(p^(3))",
    (-4, -2): "p (x) d(p^(3))^d(p^(3) q^(3)) + q (x) d(p^(3))^d(p^(2) q^(4))",
    (-4, 0): "p (x) d(p^(3))^d(p^(3) q) + q (x) d(p^(3))^d(p^(2) q^(2))",
    (0, 4): "q^(4) (x) d(p)^d(q) + p^(2) q^(3) (x) d(p)^d(p^(2))",
}
PRINTED_GH31 = {
    (0, 6): ("q^(6) (x) d(p)^d(q) + p^(2) q^(5) (x) d(p)^d(p^(2)) + "
             "p q^(7) (x) d(p)^d(p q^(2)) + p^(3) q^(6) (x) d(p)^d(p^(3) q) + "
             "p^(2) q^(7) (x) d(q)^d(p^(3) q) + p^(2) q^(7) (x) d(p^(2))^d(p q^(2))"),
    (-2, 8): ("q^(7) (x) d(p)^d(p^(2)) + p q^(7) (x) d(p)^d(p^(3)) + "
              "p^(2) q^(7) (x) d(p^(2))^d(p^(3))"),
}
PRINTED_HI = {
    ("c2_2", 2): ("p^(3) (x) d(p)^d(q^(2)) + p^(3) q (x) d(p)^d(q^(3)) + "
                  "p^(3) q (x) d(q^(2))^d(p q) + p^(3) q^(2) (x) d(q^(2))^d(p q^(2)) + "
                  "p^(3) q^(3) (x) d(q^(2))^d(p q^(3)) + p^(3) q^(3) (x) d(q^(3))^d(p q^(2))"),
    ("c2_3", 2): ("q^(3) (x) d(q)^d(q^(2)) + p q^(3) (x) d(q)^d(p q^(2)) + "
                  "p q^(3) (x) d(q^(2))^d(p q) + p^(2) q^(3) (x) d(q)^d(p^(2) q^(2)) + "
                  "p^(2) q^(3) (x) d(q^(2))^d(p^(2) q) + p^(3) q^(3) (x) d(q)^d(p^(3) q^(2)) + "
                  "p^(3) q^(3) (x) d(q^(2))^d(p^(3) q) + p^(3) q^(3) (x) d(p q)^d(p^(2) q^(2)) + "
                  "p^(3) q^(3) (x) d(p q^(2))^d(p^(2) q)"),
    ("c2_4", 2): ("p^(3) (x) d(p)^d(p^(2)) + p^(3) q (x) d(p)^d(p^(2) q) + "
                  "p^(3) q (x) d(p^(2))^d(p q) + p^(3) q^(2) (x) d(p)^d(p^(2) q^(2)) + "
                  "p^(3) q^(2) (x) d(p^(2))^d(p q^(2)) + p^(3) q^(3) (x) d(p)^d(p^(2) q^(3)) + "
                  "p^(3) q^(3) (x) d(p^(2))^d(p q^(3)) + p^(3) q^(3) (x) d(p q)^d(p^(2) q^(2)) + "
                  "p^(3) q^(3) (x) d(p q^(2))^d(p^(2) q)"),
    ("c6", 6): "p^(3) q^(3) (x) d(p)^d(q)",
}
PRINTED_HI_C23 = ("p (x) d(p^(2))^d(p^(3)) + q (x) d(p)^d(p^(3) q) + "
                  "q (x) d(p^(2))^d(p^(2) q)")
# elided entries of the non-alternate table, leading terms only, by outer degree
PRINTED_HI_PARTIAL = [
    (-4, "p (x) d(p q)^d(p^(2) q^(3)) + p (x) d(p q^(2))^d(p^(2) q^(2)) + p (x) d(p q^(3))^d(p^(2) q)"),
    (-4, "p (x) d(p^(2) q)^d(p^(3) q) + q (x) d(p^(3))^d(p^(3) q) + q (x) d(p^(2) q)^d(p^(2) q^(2))"),
    (-2, "p (x) d(p^(2))^d(p^(3)) + q (x) d(p^(2))^d(p^(2) q) + q^(2) (x) d(p^(2))^d(p^(2) q^(2))"),
    (-2, "p (x) d(q^(2))^d(p q^(2)) + q (x) d(q^(2))^d(q^(3)) + p^(2) (x) d(q^(2))^d(p^(2) q^(2))"),
    (-2, PRINTED_HI_C23),
    (-2, "p (x) d(p^(2))^d(p q^(2)) + p (x) d(p^(3))^d(q^(2)) + q (x) d(p^(2))^d(q^(3))"),
    (0, "p (x) d(q)^d(p q) + p^(2) (x) d(q)^d(p^(2) q) + p^(3) (x) d(q)^d(p^(3) q)"),
    (2, "q^(3) (x) d(q)^d(p^(2)) + p q^(3) (x) d(q)^d(p^(3)) + p q^(3) (x) d(p^(2))^d(p q)"),
]
HI_OUTER_DEGREES = {-4: 3, -2: 4, 0: 1, 2: 4, 6: 1}


def _report(name: str, ok: bool, **data) -> dict:
    out = {"criterion": name, "pass": bool(ok)}
    out.update(data)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_01_validation_sweep() -> dict:
    """Alternation + Jacobi for every builder output in the sweep list."""
    algebras: List[Algebra] = []
    algebras.append(build_poisson(1, (2, 2)))
    algebras.append(build_hamiltonian(1, (2, 2)))
    algebras.append(HP(2, 2))
    algebras.append(HI22())
    for n in (4, 5, 6):
        algebras.append(build_div_free_hI(n, tuple(1 for _ in range(n)), "derived"))
    for g in range(2, 5):
        for h in range(1, 6 - g):
            algebras.append(J(g, h))
    algebras.append(build_a2gh(2, 1))
    algebras.append(build_multipair("Pi", [(2, 1), (2, 1)]))
    algebras.append(build_multipair("I", [(2, 1), (2, 1)]))
    for n in (4, 5, 6):
        algebras.append(build_kap1(n))
    for n in (2, 4, 6):
        algebras.append(build_kap2(n))
    algebras.append(build_kap3(5))
    for n in (2, 4, 6):
        for arf in (0, 1):
            algebras.append(build_kap4A(n, arf))
        algebras.append(build_kap4B(n))
    algebras.append(build_tensor_example())
    algebras.append(build_tensor_example(GF4.gen()))
    failures = []
    for g in algebras:
        rep = g.validate()
        if not rep.ok:
            failures.append((g.name, rep.summary()))
    return _report("1 validation sweep", not failures,
                   checked=len(algebras), failures=failures)


def criterion_02_dimensions() -> dict:
    rows = []
    ok = True
    for g in range(2, 5):
        for h in range(1, 6 - g):
            want = (1 << (g + h + 1)) - 2
            got = J(g, h).dim
            rows.append(("j(%d,%d)" % (g, h), got, want))
            ok &= got == want
    got = build_kap1(4).dim
    rows.append(("Kap1(4)", got, 14))
    ok &= got == 14
    for m in (1, 2, 3):
        for arf in (0, 1):
            got = build_kap4A(2 * m, arf).dim
            want = dim_kap4A(m, arf)
            rows.append(("Kap4,%d(%d)" % (arf, 2 * m), got, want))
            ok &= got == want
        got = build_kap2(2 * m).dim
        want = (1 << (2 * m)) - 1
        rows.append(("Kap2(%d)" % (2 * m), got, want))
        ok &= got == want
    return _report("2 dimension table", ok, rows=rows)


def criterion_03_kaplansky_identifications() -> dict:
    checks = []
    k402 = build_kap4A(2, 0)
    checks.append(("Kap4,0(2) is 1-dim abelian", k402.dim == 1 and not k402.rows))
    o3 = build_classical("oPi", 3, "derived")
    r1 = search_isomorphism(build_kap4A(2, 1), o3)
    checks.append(("Kap4,1(2) ~ o'_Pi(3)", r1.kind == "iso"))
    r2 = search_isomorphism(build_kap4A(4, 0), direct_sum(o3, o3))
    checks.append(("Kap4,0(4) ~ o'_Pi(3)+o'_Pi(3)", r2.kind == "iso"))
    o5 = build_classical("oPi", 5, "derived")
    r3 = search_isomorphism(build_kap4A(4, 1), o5)
    checks.append(("Kap4,1(4) ~ o'_Pi(5)", r3.kind == "iso"))
    r4 = search_isomorphism(o5, build_kap3(5))
    checks.append(("o'_Pi(5) ~ Kap3(5)", r4.kind == "iso"))
    # Kap1(4) ~ lh_I(4;1_s)': the monomial relabeling is the map; verified, then
    # also found independently by the torus-graded search
    kap1 = build_kap1(4)
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    r5 = search_isomorphism(kap1, lhp)
    checks.append(("Kap1(4) ~ lh_I(4;1_s)'", r5.kind == "iso"))
    ok = all(x[1] for x in checks)
    return _report("3 Kaplansky identifications", ok, checks=checks)


def _gr_jurman_rows(gr: Algebra, hp: Algebra, g: int) -> List[int]:
    """gr j(g,h) -> h'_Pi(2;g,h+1): Y_i(s) -> p^(beta) q^(2a+1-s), (a, beta) = divmod(i+1+s, 2^g)."""
    def image(lbl):
        i, s = map(int, lbl[1:-1].split("("))
        a, beta = divmod(i + 1 + s, 1 << g)
        return [(beta, 2 * a + 1 - s)]
    return monomial_rows(gr.labels, hp.meta["mono_degrees"], image)


def criterion_04_weisfeiler_gr() -> dict:
    checks = []
    codims21 = None
    for (g, h) in [(2, 1), (3, 1), (2, 2)]:
        j = J(g, h)
        idx0 = [i for i, lbl in enumerate(j.labels) if not lbl.startswith("Y-1")]
        filt = weisfeiler_filtration(j, Subspace(j, [1 << i for i in idx0]))
        gr = associated_graded(filt)
        hp = HP(g, h + 1)
        ok = (filt.l0_maximal and filt.check_compatible()
              and verify_morphism(LinearMap(gr, hp, _gr_jurman_rows(gr, hp, g)), "isomorphism"))
        checks.append(("gr j(%d,%d) ~ h'_Pi(2;%d,%d)" % (g, h, g, h + 1), ok))
        if (g, h) == (2, 1):
            codims21 = filt.codims()
    ok = all(x[1] for x in checks) and codims21 == [2, 3, 4, 3, 2]
    return _report("4 Weisfeiler gr", ok, checks=checks, codims_21=codims21)


def criterion_05_cocycle_ingestion() -> dict:
    checks = []
    hp22 = HP(2, 2)
    for w, text in PRINTED_GH21.items():
        c = parse_cocycle(text, hp22)
        ok = (not d2(c)) and (not is_coboundary(c)) and c.weight("z") == w
        checks.append(("(2,1) printed c_%s" % (w,), ok))
    for w, text in PRINTED_GH21_PARTIAL.items():
        rep = block_consistent_representative(hp22, parse_cocycle(text, hp22), [("z", w)])
        checks.append(("(2,1) partial c_%s consistent with a class rep" % (w,),
                       rep is not None and not is_coboundary(rep)))
    hp23 = HP(2, 3)
    for w in GH31_WEIGHTS:
        blk = compute_h2(hp23, weight_filter=w, mode="z")
        checks.append(("(3,1) weight %s nontrivial" % (w,), blk.dim >= 1))
    for w, text in PRINTED_GH31.items():
        c = parse_cocycle(text, hp23)
        ok = (not d2(c)) and (not is_coboundary(c)) and c.weight("z") == w
        checks.append(("(3,1) printed c_%s" % (w,), ok))
    for w, text in PRINTED_GH31_PARTIAL.items():
        rep = block_consistent_representative(hp23, parse_cocycle(text, hp23), [("z", w)])
        checks.append(("(3,1) partial c_%s consistent" % (w,), rep is not None))
    hi = HI22()
    degrees = {}
    for d in HI_OUTER_DEGREES:
        blk = compute_h2(hi, constraints=[("mod2", (0, 0)), ("outer", (d,))])
        degrees[d] = blk.dim
    checks.append(("h_I outer-degree multiplicities", degrees == HI_OUTER_DEGREES))
    for (label, d), text in PRINTED_HI.items():
        c = parse_cocycle(text, hi)
        ok = (not d2(c)) and (not is_coboundary(c)) and c.weight("mod2") == (0, 0) \
            and c.weight("outer") == (d,)
        checks.append(("h_I printed %s" % label, ok))
    for t, (d, text) in enumerate(PRINTED_HI_PARTIAL):
        rep = block_consistent_representative(
            hi, parse_cocycle(text, hi), [("mod2", (0, 0)), ("outer", (d,))])
        checks.append(("h_I partial #%d (deg %d) consistent" % (t + 1, d), rep is not None))
    ok = all(x[1] for x in checks)
    return _report("5 cocycle ingestion", ok, checks=checks, hi_degrees=degrees)


def criterion_06_jurman_deforms() -> dict:
    checks = []
    for (g, h, mirrored) in [(2, 1, False), (2, 2, True), (2, 2, False)]:
        rep = jurman_deform_check(g, h, mirrored=mirrored)
        target = rep.target.name
        checks.append(("deform h'_Pi(2;%d,%d) by weight %s -> %s" %
                       (g, h + 1, rep.weight, target), rep.ok))
    # (2,1) cocycle must literally equal the printed c_{4,-2}
    c = jurman_cocycle(2, 1)
    printed = parse_cocycle(PRINTED_GH21[(4, -2)], HP(2, 2))
    checks.append(("(2,1) map form equals printed c_{4,-2}", c.terms == printed.terms))
    ok = all(x[1] for x in checks)
    return _report("6 Jurman deform theorem", ok, checks=checks)


def criterion_07_semitrivial_certificates() -> dict:
    t = GF4.gen()
    hp = HP(2, 2)
    checks = []
    # c_{0,-4}: the printed cocycle is the map (x,y) -> [d_q^2 x, d_q^2 y]
    c04 = parse_cocycle(PRINTED_GH21[(0, -4)], hp)
    cmap04 = bracket_map_cochain(hp, partial_matrix(hp, 1, 2))
    checks.append(("c_{0,-4} printed = map form", c04 == cmap04))
    cert04 = semitrivial_certificate(deform_bracket(hp, c04), t)
    checks.append(("c_{0,-4} certified (%s)" % (cert04.description if cert04 else "none"),
                   cert04 is not None))
    checks.append(("c_{0,-4} non-coboundary", not is_coboundary(c04)))
    # c_{0,-2}: map form [d_q x, d_q y] is in the class; certify a linear representative
    cmap02 = bracket_map_cochain(hp, partial_matrix(hp, 1, 1))
    blk = compute_h2(hp, weight_filter=(0, -2), mode="z")
    checks.append(("c_{0,-2} map form in the printed class",
                   is_coboundary(cmap02 + blk.representatives[0])))
    rep02 = zero_defect_representative(hp, blk.representatives[0], [("z", (0, -2))])
    cert02 = semitrivial_certificate(deform_bracket(hp, rep02), t)
    checks.append(("c_{0,-2} certified (%s)" % (cert02.description if cert02 else "none"),
                   cert02 is not None))
    checks.append(("c_{0,-2} non-coboundary", not is_coboundary(rep02)))
    # the 4-dim tensor example via M_hbar
    mh = tensor_example_iso(t)
    checks.append(("M_hbar isomorphism", verify_morphism(mh, "isomorphism")))
    ex = build_tensor_example()
    cex = Cochain2(ex, {(1, 3): 1 << 2})  # e10 (x) d(e01)^d(e11)
    checks.append(("tensor-example cocycle non-coboundary",
                   (not d2(cex)) and not is_coboundary(cex)))
    ok = all(x[1] for x in checks)
    return _report("7 semi-trivial certificates", ok, checks=checks)


def criterion_08_hI_integrability() -> dict:
    hi = HI22()
    verdicts: Dict[int, List[str]] = {}
    nonlinear = []
    for d, want in HI_OUTER_DEGREES.items():
        cons = [("mod2", (0, 0)), ("outer", (d,))]
        blk = compute_h2(hi, constraints=cons)
        vs = []
        for rep in blk.representatives:
            v, _ = integrability_verdict(hi, rep, cons)
            vs.append(v)
            if v != "linear-global":
                nonlinear.append((d, v))
        verdicts[d] = vs
    # the single non-integrable basis class sits in degree -2 and must be
    # consistent with the reference leading terms of the third degree-(-2) cocycle
    ok_counts = sum(v.count("linear-global") for v in verdicts.values()) == 12 \
        and len(nonlinear) == 1 and nonlinear[0][0] == -2
    cons2 = [("mod2", (0, 0)), ("outer", (-2,))]
    blk2, masks = consistent_class_masks(hi, parse_cocycle(PRINTED_HI_C23, hi), cons2)
    # basis-robustness: enough independent linearly-integrable classes exist
    # that a basis with exactly one non-integrable element is forced
    lin_masks = []
    for cls in range(1, 1 << len(blk2.representatives)):
        cc = combine(blk2.representatives, cls, Cochain2(hi, {}))
        if zero_defect_representative(hi, cc, cons2) is not None:
            lin_masks.append(cls)
    # some class matching the printed leading terms must be non-integrable
    consistent = any(cls and cls not in lin_masks for cls in masks)
    n_block = len(blk2.representatives)
    basis_exists = gf2.rank(lin_masks) >= n_block - 1 and len(lin_masks) < (1 << n_block) - 1
    ok = ok_counts and consistent and basis_exists
    return _report("8 h_I integrability", ok, verdicts=verdicts,
                   non_integrable=nonlinear, print_consistent=consistent,
                   adapted_basis_exists=basis_exists,
                   linear_classes_deg_minus2=lin_masks)


def criterion_09_quantization() -> dict:
    """The literal check: deform h'_Pi(2;2,2) by the c_{-2,-2} class at 1,
    compare with psl(4).  The comparison comes out "distinguished" (the
    derivation dimensions differ, 20 vs 21, stable under base extension);
    the quantization realization that does hold is reported alongside.

    representative_derivation_dims covers every homogeneous representative
    of the class (the class generator plus each coboundary of the same
    weight): the derivation dimension of its linear deform at parameter 1,
    or None when its quadratic defect is nonzero (no Lie algebra then)."""
    hp = HP(2, 2)
    blk = compute_h2(hp, weight_filter=(-2, -2), mode="z")
    psl4 = build_classical("psl", 4)
    grading = lambda_grading(hp, (-2, -2))

    def at_one(c):
        return deform_bracket(hp, c).specialize(GF2.one, grading=grading, grading_mod=(0,))

    gens = blk.representatives + blk.coboundaries
    # the masks holding the class generator (bit 0)
    reps = [combine(gens, mask, Cochain2(hp, {})) for mask in range(1, 1 << len(gens), 2)]
    # the representative consistent with the reference leading terms
    printed = parse_cocycle(PRINTED_GH21_PARTIAL[(-2, -2)], hp)
    coords = [(pr, k) for pr, v in printed.terms.items() for k in gf2.bits(v)]
    rep = next((cc for cc in reps
                if all((cc.terms.get(pr, 0) >> k) & 1 for (pr, k) in coords)), None)
    assert rep is not None and not is_coboundary(rep)
    dfct = defect(rep)
    alg = at_one(rep)
    fp_deform, fp_psl = fingerprint(alg), fingerprint(psl4)
    iso = search_isomorphism(alg, psl4)
    quant = quantization_realizes_psl()
    rep_dims = [None if defect(cc) else derivation_dim(at_one(cc)) for cc in reps]
    ok = iso.kind == "iso"
    return _report("9 quantization (literal)", ok,
                   class_dim=blk.dim, defect_zero=not dfct,
                   fingerprints_agree=fp_deform == fp_psl,
                   deform_fingerprint=fp_deform, psl_fingerprint=fp_psl,
                   literal_verdict=iso.kind, literal_reason=iso.reason,
                   representative_derivation_dims=rep_dims,
                   quantization_realizes_psl=quant["pass"])


@lru_cache(maxsize=None)
def quantization_realizes_psl() -> dict:
    """The quantization realization that does hold: an explicit operator quantization
    of the h'-space is isomorphic to psl(4); its correction cochain has
    weight components (0,0), (-1,-1), (-2,-2) only."""
    Q = QPO()
    Qh = quotient(Q, Subspace(Q, [1]))
    Qd = quotient(Qh, Subspace(Qh), "quantized h'", within=derived_subalgebra(Qh))
    hp = HP(2, 2)
    from .grading import cochain_term_weight
    weights = set()
    for ij in Qd.rows.keys() | hp.rows.keys():
        for k in gf2.bits(Qd.rows.get(ij, 0) ^ hp.rows.get(ij, 0)):
            weights.add(cochain_term_weight(hp, k, ij, "z"))
    psl4 = build_classical("psl", 4)
    iso = search_isomorphism(Qd, psl4)
    return {"pass": iso.kind == "iso" and Qd.validate().ok,
            "correction_weights": sorted(weights)}


def criterion_10_alpha_family() -> dict:
    t = GF4.gen()
    fam_t = poisson_family(1, (2, 2), t)
    fam_1 = poisson_family(1, (2, 2), GF4.one)
    m1 = LinearMap(fam_t, fam_1, f_alpha_matrix(fam_t, t))
    ok1 = fam_t.validate().ok and verify_morphism(m1, "isomorphism")
    fam_0 = poisson_family(1, (2, 2), GF2.zero)
    tensor = build_po_tensor_O(1, (1, 1))
    m0 = reindex_map(fam_0, tensor)
    ok0 = fam_0.validate().ok and verify_morphism(m0, "isomorphism")
    return _report("10 alpha family", ok1 and ok0,
                   alpha_t_iso=ok1, alpha_0_iso=ok0)


def criterion_11_kap4b_deform() -> dict:
    rep = kap4b_as_deform(2)
    rep1 = kap4b_as_deform(1)
    o3 = build_classical("oPi", 3, "derived")
    triv = Algebra.from_gf2_rows(["c"], {}, name="c")
    r = search_isomorphism(build_kap4B(2), direct_sum(o3, triv))
    ok = rep.ok and rep1.ok and r.kind == "iso"
    return _report("11 Kap4B deformation structure", ok,
                   m2=str(rep), m1=str(rep1), kap4b2_is_o3_plus_center=r.kind)


def criterion_12_superizations() -> dict:
    checks = []
    for m in (1, 2, 3):
        fams = seven_families(m)
        for name, s in fams.items():
            okk, msg = s.check_super_axioms()
            checks.append(("m=%d %s axioms" % (m, name), okk))
    # equivalence / inequivalence per Q(v) for m <= 2; the search is exhaustive at
    # every m, but an m = 3 negative walks all 40,320 or 51,840 maps of O±(6,2)
    for m in (1, 2):
        kap2 = build_kap2(2 * m)
        clo = restricted_closure(kap2)
        base_s = superize_linear(clo, 1)
        all_eq = all(
            equivalence_of_superizations(base_s, superize_linear(clo, v)).kind == "equivalent"
            for v in range(2, 1 << (2 * m)))
        checks.append(("Kap2(%d) linear superizations single class" % (2 * m), all_eq))
    for arf in (0, 1):
        base = build_kap4A(4, arf)
        clo = restricted_closure(base)
        Q = base.meta["quadratic_form"]
        by_q = {0: [], 1: []}
        for v in range(1, 16):
            by_q[Q.value(v)].append(v)
        same_ok = all(
            equivalence_of_superizations(superize_linear(clo, vs[0]), superize_linear(clo, v2),
                                         quadratic=Q).kind == "equivalent"
            for vs in by_q.values() if len(vs) > 1 for v2 in vs[1:])
        cross = equivalence_of_superizations(superize_linear(clo, by_q[0][0]),
                                             superize_linear(clo, by_q[1][0]), quadratic=Q)
        checks.append(("Kap4,%d(4) same-Q equivalent" % arf, same_ok))
        checks.append(("Kap4,%d(4) cross-Q no induced map" % arf,
                       cross.kind == "exhausted-no-map"))
    # Q + Q' linearization, m <= 2 exhaustive over forms sharing the polar form
    for m in (1, 2):
        Q0 = QuadraticFormSpec.standard(m, 0)
        okall = True
        for lmask in range(1 << (2 * m)):
            vals = [(Q0.basis_values[t] + ((lmask >> t) & 1)) % 2 for t in range(2 * m)]
            Qp = QuadraticFormSpec(Q0.polar, vals)
            r = nonlinear_reduction_check(m, Q0, Qp)
            okall &= r["additive"] and (r["matches_linear"] or r["trivial"])
        checks.append(("Q+Q' linearization m=%d" % m, okall))
    # closure codimension = 2m
    for m in (1, 2, 3):
        clo = restricted_closure(build_kap2(2 * m))
        checks.append(("closure codim 2m (m=%d)" % m, clo.dim - clo.base.dim == 2 * m))
    # non-linear parity witness
    s = seven_families(2)["KapS_{2,0}"]
    checks.append(("nonlinear parity witness", parity_nonlinearity_witness(s) is not None))
    ok = all(x[1] for x in checks)
    return _report("12 superization suite", ok, checks=checks)


def criterion_13_property_suites() -> dict:
    import math
    checks = []
    # Lucas rule vs big-integer binomials, exhaustive below 2^6
    okl = all(
        (mono_mul((k,), (l,), (6,))[0] == (math.comb(k + l, k) & 1 if k + l < 64 else 0))
        for k in range(64) for l in range(64))
    checks.append(("Lucas rule vs binomial oracle", okl))
    # d2 o d1 = 0 on all of C^2 of h'_Pi(2;2,2): B2 ⊆ Z2 iff dim Z2 = dim B2 + dim H2
    # (compute_h2 raises otherwise)
    z2, b2, h2 = compute_h2(HP(2, 2)).dims
    checks.append(("d2 o d1 = 0 on C^2: dim Z2 %d = dim B2 %d + dim H2 %d" % (z2, b2, h2), z2 == b2 + h2))
    # returned isomorphisms re-verified (search always post-verifies; assert again)
    r = search_isomorphism(build_kap4A(4, 1), build_classical("oPi", 5, "derived"))
    checks.append(("iso re-verification", r.kind == "iso" and
                   verify_morphism(r.map, "isomorphism")))
    # simplicity by exhaustive spinning
    for name, g in [("j(2,1)", J(2, 1)), ("Kap1(4)", build_kap1(4)),
                    ("Kap4,1(4)", build_kap4A(4, 1))]:
        v = simplicity_check(g)
        checks.append(("%s simple (exhaustive)" % name, v.kind == "simple"))
    ok = all(x[1] for x in checks)
    return _report("13 property suites", ok, checks=checks)


def harmonic_subalgebra_h2_report() -> dict:
    """dim H^2 for the harmonic subalgebra of po_Pi(4;1_s): functions f
    with sum_i d^2 f / dp_i dq_i = 0.  Reported, not gated."""
    po = build_poisson(2, (1, 1, 1, 1))
    basis = po.meta["mono_degrees"]
    rows = monomial_rows(basis, basis, lambda m: [mono_partial(m, 2 * t, 2 * t + 1) for t in range(2)])
    sub = Subspace(po, gf2.kernel(gf2.transpose(rows, po.dim), po.dim))
    S = quotient(po, Subspace(po), "harmonic subalgebra m=2", within=sub)
    blk = compute_h2(S, budget=40_000_000)
    return {"criterion": "note: harmonic subalgebra H2", "pass": blk.dims[2] == 34,
            "dims": blk.dims, "subalgebra_dim": S.dim}


ALL_CRITERIA = [
    criterion_01_validation_sweep,
    criterion_02_dimensions,
    criterion_03_kaplansky_identifications,
    criterion_04_weisfeiler_gr,
    criterion_05_cocycle_ingestion,
    criterion_06_jurman_deforms,
    criterion_07_semitrivial_certificates,
    criterion_08_hI_integrability,
    criterion_09_quantization,
    criterion_10_alpha_family,
    criterion_11_kap4b_deform,
    criterion_12_superizations,
    criterion_13_property_suites,
]


def _guarded(fn, label: str, progress=None) -> dict:
    """Run one criterion; an exception becomes a failed report carrying an
    "error" field (the traceback goes to progress) instead of ending the run."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - one crash must not hide the others
        if progress:
            progress(traceback.format_exc().rstrip())
        return {"criterion": label, "pass": False,
                "error": "%s: %s" % (type(e).__name__, e)}


def _status(rep: dict, seconds: float, failed: str = "FAIL") -> str:
    word = "ERR" if "error" in rep else "PASS" if rep["pass"] else failed
    return "%-4s %s (%.2f s)" % (word, rep["criterion"], seconds)


def run_all(progress=None) -> List[dict]:
    """Every criterion's report, then the harmonic note; progress gets one
    status line per report with its wall time, which the reports leave out."""
    out = []
    jobs = [(fn, "%d %s" % (number, fn.__name__), "FAIL")
            for number, fn in enumerate(ALL_CRITERIA, 1)]
    jobs.append((harmonic_subalgebra_h2_report, "note: harmonic subalgebra H2", "INFO"))
    for fn, label, failed in jobs:
        t0 = time.perf_counter()
        out.append(_guarded(fn, label, progress))
        if progress:
            progress(_status(out[-1], time.perf_counter() - t0, failed))
    return out
