"""The three benchmark workloads, as seeded lists of verdicts.

A verdict is one exact question put to the `gf2lie` layers.  Running it
gives a record (plain JSON data: block dimensions, representative texts,
search verdicts with their engine and maps tried), and the record is
checked twice: against the answer the paper states (`check`), and against
the golden record kept for that verdict in `golden/<workload>.json`.

Every workload has
- `setup(L)`: builds the input algebras (L holds the imported layers);
- `universe(L, inputs)`: every verdict the workload can draw on, used to
  record the golden file;
- `plan(L, inputs, seed)`: the verdicts of one pass.  The seed only
  picks among verdicts whose answer is known, and picks one from each group
  of verdicts of about equal cost, so every seed does about the same work.

Layer functions are looked up on their module at call time
(`L.cohomology.compute_h2`), so wrappers installed after the import are
the ones called.
"""

from __future__ import annotations

import importlib
import random
from types import SimpleNamespace
from typing import Callable, Dict, List

import paper_data as P

LAYERS = ("gf2", "liealg", "grading", "cohomology", "deform", "superize", "isom", "constructions")


class Verdict:
    def __init__(self, vid: str, run: Callable[[], dict], check: Callable[[dict], bool]):
        self.id = vid
        self.run = run
        self.check = check


def import_layers() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module("gf2lie." + m) for m in LAYERS})


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _w(w) -> str:
    return "(%s)" % ",".join(str(x) for x in w)


# ---------------------------------------------------------------------------
# cocycle-tables: the printed cocycle data, mostly through cohomology
# ---------------------------------------------------------------------------

def _cocycle_setup(L):
    C = L.constructions
    return {"hp22": C.build_hamiltonian(1, (2, 2), "derived"),
            "hp23": C.build_hamiltonian(1, (2, 3), "derived"),
            "hi": C.build_hI(2, (2, 2))}


def _h2_block(L, g, w):
    def run():
        blk = L.cohomology.compute_h2(g, weight_filter=w, mode="z")
        return {"dims": list(blk.dims), "reps": [c.text() for c in blk.representatives]}
    return Verdict("h2-block (3,1) %s" % _w(w), run, lambda r: r["dims"][2] >= 1)


def _printed(L, g, tag, key, text, constraints):
    """A fully printed cocycle: a cocycle, not a coboundary, of the printed weight."""
    H = L.cohomology

    def run():
        c = H.parse_cocycle(text, g)
        return {"d2_zero": not H.d2(c), "coboundary": H.is_coboundary(c),
                "weights": [list(c.weight(mode)) for mode, _ in constraints]}

    want = [list(w) for _, w in constraints]
    return Verdict("printed %s %s" % (tag, key), run,
                   lambda r: r["d2_zero"] and not r["coboundary"] and r["weights"] == want)


def _partial(L, g, tag, key, text, constraints, check_class):
    """Leading terms of a printed cocycle extend to a class representative of the block."""
    H = L.cohomology

    def run():
        rep = H.block_consistent_representative(g, H.parse_cocycle(text, g), constraints)
        out = {"rep": rep.text() if rep is not None else None}
        if check_class and rep is not None:
            out["coboundary"] = H.is_coboundary(rep)
        return out

    return Verdict("partial %s %s" % (tag, key), run,
                   lambda r: r["rep"] is not None and not r.get("coboundary", False))


def _hi_outer(L, g, d):
    cons = [("mod2", (0, 0)), ("outer", (d,))]

    def run():
        blk = L.cohomology.compute_h2(g, constraints=cons)
        verdicts = [L.deform.integrability_verdict(g, rep, cons)[0] for rep in blk.representatives]
        return {"dims": list(blk.dims), "reps": [c.text() for c in blk.representatives],
                "verdicts": verdicts}

    def check(r):
        nonlinear = sum(v != "linear-global" for v in r["verdicts"])
        return (r["dims"][2] == P.HI_OUTER_DEGREES[d]
                and nonlinear == (1 if d == P.HI_NONLINEAR_DEGREE else 0))
    return Verdict("h_I outer-degree block %d" % d, run, check)


def _cocycle_fixed(L, inp):
    """The cheap verdicts every pass runs."""
    hp22, hi = inp["hp22"], inp["hi"]
    out = [_printed(L, hp22, "(2,1)", _w(w), t, [("z", w)]) for w, t in P.PRINTED_GH21.items()]
    out += [_partial(L, hp22, "(2,1)", _w(w), t, [("z", w)], True)
            for w, t in P.PRINTED_GH21_PARTIAL.items()]
    out += [_printed(L, hi, "h_I", lbl, t, [("mod2", (0, 0)), ("outer", (d,))])
            for (lbl, d), t in P.PRINTED_HI.items()]
    out += [_partial(L, hi, "h_I", "#%d" % (i + 1), t, [("mod2", (0, 0)), ("outer", (d,))], False)
            for i, (d, t) in enumerate(P.PRINTED_HI_PARTIAL)]
    out += [_hi_outer(L, hi, d) for d in P.HI_OUTER_DEGREES]
    return out


def _gh31_printed(L, inp, w):
    return _printed(L, inp["hp23"], "(3,1)", _w(w), P.PRINTED_GH31[w], [("z", w)])


def _gh31_partial(L, inp, w):
    return _partial(L, inp["hp23"], "(3,1)", _w(w), P.PRINTED_GH31_PARTIAL[w], [("z", w)], False)


def _cocycle_universe(L, inp):
    return (_cocycle_fixed(L, inp)
            + [_gh31_printed(L, inp, w) for w in P.PRINTED_GH31]
            + [_h2_block(L, inp["hp23"], w) for w in P.GH31_WEIGHTS]
            + [_gh31_partial(L, inp, w) for w in P.PRINTED_GH31_PARTIAL])


def _cocycle_plan(L, inp, seed):
    rng = _rng("cocycle-tables", seed)
    out = _cocycle_fixed(L, inp)
    out += [_gh31_printed(L, inp, w) for w in P.PRINTED_GH31]
    out += [_h2_block(L, inp["hp23"], w) for w in P.GH31_WEIGHTS]
    out += [_gh31_partial(L, inp, rng.choice(group)) for group in P.GH31_PARTIAL_STRATA]
    return out


# ---------------------------------------------------------------------------
# structure-sweep: Jacobi sweeps, ideal spinning and simplicity on large spans
# ---------------------------------------------------------------------------

SPIN_STRATA = 8  # spun basis monomials per algebra and pass


def _structure_setup(L):
    C = L.constructions
    pairs = [(2, 1), (2, 1)]
    return {"multipair Pi": C.build_multipair("Pi", pairs),
            "multipair Pi dmc": C.build_multipair("Pi", pairs, "derived_mod_center"),
            "multipair I dmc": C.build_multipair("I", pairs, "derived_mod_center"),
            "j(2,1)": C.build_jurman(2, 1),
            "Kap1(4)": C.build_kap1(4)}


def _validate(L, name, g):
    return Verdict("validate %s (dim %d)" % (name, g.dim),
                   lambda: g.validate().summary(), lambda r: r["ok"])


def _spin(L, name, g, i):
    return Verdict("spin %s e_%d" % (name, i),
                   lambda: {"dim": L.liealg.ideal_generated(g, 1 << i).dim},
                   lambda r: r["dim"] == g.dim)


def _simple(L, name, g):
    def run():
        v = L.liealg.simplicity_check(g)
        return {"kind": v.kind, "seeds": v.seeds_tried}
    return Verdict("simplicity %s" % name, run,
                   lambda r: r["kind"] == "simple" and r["seeds"] == P.SIMPLE_SEEDS)


SPUN = ("multipair Pi dmc", "multipair I dmc")


def _structure_fixed(L, inp):
    return ([_validate(L, k, inp[k]) for k in ("multipair Pi", "multipair Pi dmc")]
            + [_simple(L, k, inp[k]) for k in ("j(2,1)", "Kap1(4)")])


def _structure_universe(L, inp):
    return _structure_fixed(L, inp) + [_spin(L, k, inp[k], i) for k in SPUN for i in range(inp[k].dim)]


def _structure_plan(L, inp, seed):
    rng = _rng("structure-sweep", seed)
    out = _structure_fixed(L, inp)
    for k in SPUN:
        n = inp[k].dim
        # one basis monomial from each run of consecutive indices
        out += [_spin(L, k, inp[k], rng.randrange(s * n // SPIN_STRATA, (s + 1) * n // SPIN_STRATA))
                for s in range(SPIN_STRATA)]
    return out


# ---------------------------------------------------------------------------
# iso-search: superization equivalence, isomorphism search, Jurman deforms
# ---------------------------------------------------------------------------

def _iso_setup(L):
    C, li = L.constructions, L.liealg
    o3 = C.build_classical("oPi", 3, "derived")
    o5 = C.build_classical("oPi", 5, "derived")
    return {
        "Kap2(2)": C.build_kap2(2), "Kap2(4)": C.build_kap2(4),
        "Kap4,0(4)": C.build_kap4A(4, 0), "Kap4,1(4)": C.build_kap4A(4, 1),
        "iso": [
            ("Kap4,1(2) ~ o'_Pi(3)", C.build_kap4A(2, 1), o3),
            ("Kap4,0(4) ~ o'_Pi(3)+o'_Pi(3)", C.build_kap4A(4, 0), li.direct_sum(o3, o3)),
            ("Kap4,1(4) ~ o'_Pi(5)", C.build_kap4A(4, 1), o5),
            ("o'_Pi(5) ~ Kap3(5)", o5, C.build_kap3(5)),
            ("Kap1(4) ~ lh_I(4;1_s)'", C.build_kap1(4), C.build_div_free_hI(4, (1, 1, 1, 1), "derived")),
            ("Kap4B(2) ~ o'_Pi(3)+c", C.build_kap4B(2),
             li.direct_sum(o3, li.Algebra(o3.field, ["c"], {}, name="c"))),
        ],
    }


def _q_classes(base) -> Dict[int, List[int]]:
    Q = base.meta["quadratic_form"]
    out: Dict[int, List[int]] = {0: [], 1: []}
    for v in range(1, 1 << Q.polar.n):
        out[Q.value(v)].append(v)
    return out


def _equiv(L, name, base, v1, v2, kap4, want_kind, want_tried=None):
    S = L.superize

    def run():
        clo = S.restricted_closure(base)
        Q = base.meta["quadratic_form"] if kap4 else None
        r = S.equivalence_of_superizations(S.superize_linear(clo, v1), S.superize_linear(clo, v2),
                                           quadratic=Q)
        return {"kind": r.kind, "tried": r.tried}

    return Verdict("superizations %s v=%d,%d" % (name, v1, v2), run,
                   lambda r: r["kind"] == want_kind and (want_tried is None or r["tried"] == want_tried))


def _iso(L, name, a, b):
    def run():
        r = L.isom.search_isomorphism(a, b)
        return {"kind": r.kind, "engine": r.engine}
    return Verdict("isomorphism %s" % name, run, lambda r: r["kind"] == "iso")


def _jurman(L, g, h, mirrored):
    def run():
        r = L.deform.jurman_deform_check(g, h, mirrored=mirrored)
        return {"ok": r.ok, "weight": list(r.weight), "engine": r.iso.engine, "target": r.target.name}
    return Verdict("jurman deform (%d,%d)%s" % (g, h, " mirrored" if mirrored else ""), run,
                   lambda r: r["ok"])


def _same_pairs(classes):
    return [(a, b) for vs in classes for a in vs for b in vs if a != b]


def _iso_fixed(L, inp):
    out = [_equiv(L, "Kap2(2)", inp["Kap2(2)"], a, b, False, "equivalent")
           for a, b in _same_pairs([[1, 2, 3]])]
    out += [_iso(L, name, a, b) for name, a, b in inp["iso"]]
    out += [_jurman(L, g, h, m) for g, h, m in [(2, 1, False), (2, 2, True), (2, 2, False)]]
    return out


def _iso_pairs(inp):
    """(name, base, Kap4?, same-class pairs, cross-class pairs, maps an
    exhaustive cross-class search tries) per superized algebra."""
    out = [("Kap2(4)", inp["Kap2(4)"], False, _same_pairs([list(range(1, 16))]), [], None)]
    for arf in (0, 1):
        name = "Kap4,%d(4)" % arf
        cls = _q_classes(inp[name])
        out.append((name, inp[name], True, _same_pairs(cls.values()),
                    [(a, b) for a in cls[0] for b in cls[1]], P.ORTHOGONAL_GROUP_ORDER[arf]))
    return out


def _iso_universe(L, inp):
    out = _iso_fixed(L, inp)
    for name, base, kap4, same, cross, order in _iso_pairs(inp):
        out += [_equiv(L, name, base, a, b, kap4, "equivalent") for a, b in same]
        out += [_equiv(L, name, base, a, b, kap4, "exhausted-no-map", order) for a, b in cross]
    return out


def _iso_plan(L, inp, seed):
    """Same-class pairs are drawn one from each group of P.SAME_PAIR_STRATA."""
    rng = _rng("iso-search", seed)
    out = _iso_fixed(L, inp)
    for name, base, kap4, _same, cross, order in _iso_pairs(inp):
        for group in P.SAME_PAIR_STRATA[name]:
            a, b = rng.choice(group)
            out.append(_equiv(L, name, base, a, b, kap4, "equivalent"))
        if cross:
            a, b = rng.choice(cross)
            out.append(_equiv(L, name, base, a, b, kap4, "exhausted-no-map", order))
    return out


WORKLOADS = {
    "cocycle-tables": SimpleNamespace(setup=_cocycle_setup, universe=_cocycle_universe, plan=_cocycle_plan),
    "structure-sweep": SimpleNamespace(setup=_structure_setup, universe=_structure_universe,
                                       plan=_structure_plan),
    "iso-search": SimpleNamespace(setup=_iso_setup, universe=_iso_universe, plan=_iso_plan),
}
