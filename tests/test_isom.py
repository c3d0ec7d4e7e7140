from gf2lie.constructions import (build_classical, build_div_free_hI, build_jurman,
                                  build_kap1, build_kap2, build_kap3, build_kap4A,
                                  build_kap4B, build_poisson)
import pytest

from gf2lie import gf2, isom
from gf2lie.isom import GenWords, fingerprint, search_isomorphism
from gf2lie.liealg import Algebra, AlgebraError, direct_sum, verify_morphism
from gf2lie.fields import GF2


def test_self_isomorphism():
    j = build_jurman(2, 1)
    r = search_isomorphism(j, j)
    assert r.kind == "iso"
    assert verify_morphism(r.map, "isomorphism")


def test_distinguished_by_solvability():
    # Kap_{4,B}(2) has a 3-dim simple quotient; po_Pi(2;1_s) is solvable
    k = build_kap4B(2)
    po = build_poisson(1, (1, 1))
    r = search_isomorphism(k, po)
    assert r.kind == "distinguished"
    fk, fp = fingerprint(k), fingerprint(po)
    assert fk["derived_dims"] != fp["derived_dims"]


def test_kaplansky_identifications():
    o3 = build_classical("oPi", 3, "derived")
    assert search_isomorphism(build_kap4A(2, 1), o3).kind == "iso"
    assert search_isomorphism(build_kap4A(4, 0), direct_sum(o3, o3)).kind == "iso"
    o5 = build_classical("oPi", 5, "derived")
    assert search_isomorphism(build_kap4A(4, 1), o5).kind == "iso"
    assert search_isomorphism(o5, build_kap3(5)).kind == "iso"


def test_torus_engine_kap1():
    kap1 = build_kap1(4)
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    r = search_isomorphism(kap1, lhp)
    assert r.kind == "iso" and r.engine == "torus"


def test_found_maps_reverify():
    pairs = [(build_kap4A(4, 1), build_kap3(5)),
             (build_kap1(4), build_div_free_hI(4, (1, 1, 1, 1), "derived"))]
    for a, b in pairs:
        r = search_isomorphism(a, b)
        assert r.kind == "iso"
        assert verify_morphism(r.map, "isomorphism")
        fa, fb = fingerprint(a), fingerprint(b)
        assert fa == fb  # fingerprint equality is necessary


def test_dim_mismatch_distinguished():
    r = search_isomorphism(build_kap2(4), build_kap2(6))
    assert r.kind == "distinguished"


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_1_is_refused(budget):
    j = build_jurman(2, 1)
    with pytest.raises(AlgebraError, match="search budget must be at least 1"):
        search_isomorphism(j, j, budget=budget)


def test_budget_of_1_still_searches():
    j = build_jurman(2, 1)
    assert search_isomorphism(j, j, budget=1).kind == "iso"


def test_basis_coords_is_computed_once_per_genwords():
    g = build_jurman(2, 1)
    gw = GenWords(g, isom.find_generators(g))
    coords = gw.basis_coords
    assert coords is gw.basis_coords
    assert [gf2.apply_rows(gw.vecs, c) for c in coords] == [1 << i for i in range(g.dim)]


# ---------------------------------------------------------------------------
# classification by ad_rows and rank per vector, kept as an oracle for the
# classification on the incremental ad walk
# ---------------------------------------------------------------------------

def _ad_rows_classes(g):
    by_inv = {}
    for v in range(1, 1 << g.dim):
        rows = g.ad_rows(v)
        by_inv.setdefault((gf2.rank(rows), gf2.rank(gf2.compose(rows, rows))), []).append(v)
    return by_inv


@pytest.mark.parametrize("build", [lambda: build_classical("oPi", 5, "derived"),
                                   lambda: build_kap3(5), lambda: build_classical("psl", 4)],
                         ids=["oPi5", "kap3_5", "psl4"])
def test_ad_classes_match_the_per_vector_classification(build):
    g = build()
    got, want = isom._ad_classes(g), _ad_rows_classes(g)
    assert got == want and list(got) == list(want)


def _nested_loop_generators(g, cand, max_size=3):
    """find_generators with hand-written index loops, kept as an oracle."""
    m = len(cand)
    for size in range(1, max_size + 1):
        if size == 1:
            combos = [(i,) for i in range(m)]
        elif size == 2:
            combos = [(i, j) for i in range(m) for j in range(i + 1, m)]
        else:
            combos = [(i, j, k) for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m)]
        for combo in combos:
            gens = [cand[t] for t in combo]
            if GenWords(g, gens).generates:
                return gens
    return None


def test_find_generators_matches_nested_index_loops():
    for g in [build_jurman(2, 1), build_kap3(5), build_kap4A(4, 1), build_classical("psl", 4),
              build_kap4B(2), build_poisson(1, (1, 1))]:
        n = g.dim
        pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
        for cand in ([1 << i for i in range(n)], [1 << i for i in reversed(range(n))] + pairs):
            assert isom.find_generators(g, cand) == _nested_loop_generators(g, cand), g.name
