import gc
import random
import weakref
from itertools import islice, product

import pytest

from gf2lie import gf2, superize
from gf2lie.constructions import (BilinearFormSpec, QuadraticFormSpec, build_kap1, build_kap2,
                                  build_kap3, build_kap4A)
from gf2lie.fields import GF2
from gf2lie.liealg import Algebra, AlgebraError, LinearMap, Subspace, verify_morphism
from gf2lie.superize import (equivalence_of_superizations, induced_super_iso,
                             nonlinear_reduction_check, parity_nonlinearity_witness,
                             restricted_closure, seven_families, superize_linear,
                             superize_nonlinear)


def test_closure_dims_and_axioms():
    for m in (1, 2, 3):
        clo = restricted_closure(build_kap2(2 * m))
        assert clo.dim == (1 << (2 * m)) - 1 + 2 * m
        assert clo.algebra.validate().ok
        assert clo.check_restricted()


def even_subspace(s):
    """The even part of a superization, a subalgebra by the super axioms."""
    return Subspace(s.algebra, [1 << i for i, p in enumerate(s.parity) if p == 0])


def _init_route_closure(base):
    """The closure algebra through Algebra.__init__, kept as an oracle for
    the checked GF(2) intake `Algebra.from_gf2_rows`."""
    n, gamma = base.meta["jsystem_B"].n, base.meta["jsystem_gamma"]
    sc = {ij: dict(row) for ij, row in base.sc.items()}
    for t in range(n):
        for i, u in enumerate(gamma):
            if (u >> t) & 1:
                sc[(i, base.dim + t)] = {i: 1}
    graded = base.grading is not None
    return Algebra(GF2, list(base.labels) + ["a%d" % (t + 1) for t in range(n)], sc,
                   grading=list(base.grading) + [(0,) * n] * n if graded else None,
                   grading_mod=base.grading_mod if graded else None, name=base.name + " 2-closure")


@pytest.mark.parametrize("base", [build_kap2(4), build_kap4A(4, 0), build_kap4A(4, 1)],
                         ids=["Kap2(4)", "Kap4,0(4)", "Kap4,1(4)"])
def test_closure_algebra_matches_the_init_route(base):
    got, want = restricted_closure(base).algebra, _init_route_closure(base)
    assert got.dumps() == want.dumps()
    assert list(got.sc.items()) == list(want.sc.items())
    assert (got.grading, got.grading_mod) == (want.grading, want.grading_mod)


def test_closure_is_memoized_per_base():
    base = build_kap2(4)
    clo = restricted_closure(base)
    assert restricted_closure(base) is clo is base.cache["closure"]
    assert superize_linear(restricted_closure(base), 1).closure is clo
    assert restricted_closure(build_kap2(4)) is not clo  # a fresh build, a fresh closure


def test_the_closure_memo_is_freed_with_its_base():
    base = build_kap4A(4, 1)
    clo = restricted_closure(base)
    refs = [weakref.ref(base), weakref.ref(clo)]
    del base, clo
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _iso_search_superization_pairs():
    """(base, Q or None, v1, v2) for each superization verdict the iso-search
    benchmark can draw: every ordered pair of distinct vectors, of one Q
    class or from Q = 0 to Q = 1 for Kap_4."""
    out = []
    for base, kap4 in [(build_kap2(2), False), (build_kap2(4), False), (build_kap4A(4, 0), True),
                       (build_kap4A(4, 1), True)]:
        Q = base.meta["quadratic_form"] if kap4 else None
        vs = range(1, 1 << base.meta["jsystem_B"].n)
        out += [(base, Q, a, b) for a in vs for b in vs
                if a != b and (Q is None or Q.value(a) <= Q.value(b))]
    return out


def test_memoized_closure_gives_the_fresh_closure_verdicts():
    def verdict(clo, Q, a, b):
        r = equivalence_of_superizations(superize_linear(clo, a), superize_linear(clo, b), quadratic=Q)
        return r.kind, r.tried, r.map and r.map.images
    kinds = set()
    for base, Q, a, b in _iso_search_superization_pairs():
        got = verdict(restricted_closure(base), Q, a, b)
        assert got == verdict(superize.ClosureAlgebra(base), Q, a, b), (base.name, a, b)
        kinds.add(got[0])
    assert kinds == {"equivalent", "exhausted-no-map"}


def test_closure_squaring_values():
    # e_u^[2] evaluated on v gives B(u, v)
    clo = restricted_closure(build_kap2(4))
    B = clo.B
    base = clo.base.dim
    for i, u in enumerate(clo.gamma):
        sq = clo.squaring[i]
        for t in range(clo.n):
            assert ((sq >> (base + t)) & 1) == B.pair(u, 1 << t)
    # [e_u^[2], e_v] = B(u,v) e_v = [e_u, [e_u, e_v]]
    g = clo.algebra
    for i in range(len(clo.gamma)):
        for j in range(len(clo.gamma)):
            lhs = g.bracket(clo.squaring[i], 1 << j)
            rhs = g.bracket(1 << i, g.bracket(1 << i, 1 << j))
            assert lhs == rhs


def test_closure_needs_jsystem():
    from gf2lie.constructions import build_classical
    with pytest.raises(AlgebraError):
        restricted_closure(build_classical("gl", 2))


def test_kap40_2_closure_excluded():
    with pytest.raises(AlgebraError):
        restricted_closure(build_kap4A(2, 0))


def test_linear_superization_axioms():
    clo = restricted_closure(build_kap2(4))
    for v in (1, 2, 5):
        s = superize_linear(clo, v)
        ok, msg = s.check_super_axioms()
        assert ok, msg
        assert even_subspace(s).is_subalgebra()
    for v in (0, -1, 16):
        with pytest.raises(AlgebraError):
            superize_linear(clo, v)


def test_nonlinear_superization_structure():
    clo = restricted_closure(build_kap2(4))
    Q = QuadraticFormSpec.standard(2, 0)
    s = superize_nonlinear(clo, Q)
    assert (s.even_dim, s.odd_dim) == (6 + 4, 9)
    ok, msg = s.check_super_axioms()
    assert ok, msg
    assert parity_nonlinearity_witness(s) is not None
    # even part = Kap_{4,0}(4) + V* is bracket-closed
    assert even_subspace(s).is_subalgebra()


def test_nonlinear_needs_kap2_closure():
    clo = restricted_closure(build_kap4A(4, 1))
    with pytest.raises(AlgebraError):
        superize_nonlinear(clo, QuadraticFormSpec.standard(2, 1))


def test_seven_families_m2_axioms():
    fams = seven_families(2)
    assert len(fams) == 7
    for name, s in fams.items():
        ok, msg = s.check_super_axioms()
        assert ok, (name, msg)


def test_exceptional_m1_superization():
    fams = seven_families(1)
    assert "oo'_II(1|2)" in {s.name for s in fams.values()}


def test_linear_superizations_of_kap2_all_equivalent():
    clo = restricted_closure(build_kap2(4))
    s1 = superize_linear(clo, 1)
    for v in range(2, 16):
        r = equivalence_of_superizations(s1, superize_linear(clo, v))
        assert r.kind == "equivalent", v
    # self-equivalence via the identity
    r = equivalence_of_superizations(s1, s1)
    assert r.kind == "equivalent"


def test_kap4_superizations_split_by_q_value():
    base = build_kap4A(4, 1)
    clo = restricted_closure(base)
    Q = base.meta["quadratic_form"]
    vs = {0: [], 1: []}
    for v in range(1, 16):
        vs[Q.value(v)].append(v)
    same = equivalence_of_superizations(superize_linear(clo, vs[1][0]),
                                        superize_linear(clo, vs[1][1]), quadratic=Q)
    assert same.kind == "equivalent"
    cross = equivalence_of_superizations(superize_linear(clo, vs[0][0]),
                                         superize_linear(clo, vs[1][0]), quadratic=Q)
    assert cross.kind == "exhausted-no-map"


def test_nonlinear_reduction():
    Q0 = QuadraticFormSpec.standard(2, 0)
    Q1 = QuadraticFormSpec.standard(2, 1)
    rep = nonlinear_reduction_check(2, Q0, Q1)
    assert rep["additive"] and rep["matches_linear"]
    trivial = nonlinear_reduction_check(2, Q0, Q0)
    assert trivial["trivial"]


# ---------------------------------------------------------------------------
# the product filter and the bracket-first check, kept as oracles for the
# prefix-pruned isometry enumeration and the cheap-first induced map
# ---------------------------------------------------------------------------

def _group_elements(n, keep):
    for rows in product(range(1, 1 << n), repeat=n):
        if gf2.rank(rows) == n and keep(rows):
            yield list(rows)


def _preserves_form(B, rows):
    n = B.n
    for i in range(n):
        mi = gf2.apply_rows(rows, 1 << i)
        for j in range(i, n):
            if B.pair(mi, gf2.apply_rows(rows, 1 << j)) != B.pair(1 << i, 1 << j):
                return False
    return True


def _preserves_quadratic(Q, rows):
    return all(Q.value(gf2.apply_rows(rows, u)) == Q.value(u) for u in range(1, 1 << Q.polar.n))


def _bracket_first_super_iso(s1, s2, rows):
    clo1, clo2 = s1.closure, s2.closure
    n = clo1.n
    pos2 = {u: i for i, u in enumerate(clo2.gamma)}
    images = []
    for u in clo1.gamma:
        mu = gf2.apply_rows(rows, u)
        if mu not in pos2:
            return None
        images.append(1 << pos2[mu])
    minv = gf2.invert(list(rows), n)
    if minv is None:
        return None
    for t in range(n):
        img = 0
        for s in range(n):
            if (minv[s] >> t) & 1:
                img |= 1 << (clo2.base.dim + s)
        images.append(img)
    m = LinearMap(clo1.algebra, clo2.algebra, images)
    if not verify_morphism(m, "isomorphism"):
        return None
    for i in range(clo1.dim):
        for k in gf2.bits(images[i]):
            if s2.parity[k] != s1.parity[i]:
                return None
    for i in s1.odd_indices():
        if gf2.apply_rows(images, clo1.squaring[i]) != clo2.square_vector(images[i]):
            return None
    return m


def _zero_form(n):
    B = BilinearFormSpec("I", n)
    B.rows = [0] * n
    return B


@pytest.mark.parametrize("kind,n,order", [
    ("Pi", 2, 6), ("Pi", 4, 720), ("I", 1, 1), ("I", 2, 2), ("I", 3, 6), ("I", 4, 48),
    ("zero", 3, 168)])
def test_isometries_match_product_filter(kind, n, order):
    B = _zero_form(n) if kind == "zero" else BilinearFormSpec(kind, n)
    got = list(superize._isometries(B))
    assert got == list(_group_elements(n, lambda rows: _preserves_form(B, rows)))
    assert len(got) == order


@pytest.mark.parametrize("m,arf,order", [(1, 0, 2), (1, 1, 6), (2, 0, 72), (2, 1, 120)])
def test_quadratic_isometries_match_product_filter(m, arf, order):
    Q = QuadraticFormSpec.standard(m, arf)
    got = list(superize._isometries(Q.polar, Q))
    assert got == list(_group_elements(2 * m, lambda rows: _preserves_quadratic(Q, rows)))
    assert len(got) == order


@pytest.mark.parametrize("build,v1,v2,kind,tried", [
    (lambda: build_kap1(5), 1, 2, "equivalent", 49),
    (lambda: build_kap3(5), 1, 2, "equivalent", 49),
    (lambda: build_kap2(6), 1, 1, "equivalent", 1),
    (lambda: build_kap4A(6, 0), 9, 63, "equivalent", 79),
    # Q(1) = 0 != Q(9) = 1: every map of O+(6,2) is tried and refused
    (lambda: build_kap4A(6, 0), 1, 9, "exhausted-no-map", 40_320),
], ids=["Kap1(5)", "Kap3(5)", "Kap2(6)", "Kap4,0(6)", "Kap4,0(6) cross-Q"])
def test_equivalence_is_decided_beyond_n_4(build, v1, v2, kind, tried):
    base = build()
    clo = restricted_closure(base)
    s1, s2 = superize_linear(clo, v1), superize_linear(clo, v2)
    r = equivalence_of_superizations(s1, s2, quadratic=base.meta.get("quadratic_form"))
    assert (r.kind, r.tried) == (kind, tried)
    if r.map is not None:
        assert verify_morphism(r.map, "isomorphism")
        assert all(s2.parity[k] == s1.parity[i] for i, img in enumerate(r.map.images)
                   for k in gf2.bits(img))


def _kap_pairs():
    """(closure, Q or None, v1, v2, equivalent?) for linear superizations."""
    kap2 = restricted_closure(build_kap2(4))
    out = [(kap2, None, a, b, True) for a, b in [(1, 1), (1, 2), (3, 12), (5, 9)]]
    for arf in (0, 1):
        base = build_kap4A(4, arf)
        Q = base.meta["quadratic_form"]
        vs = {0: [], 1: []}
        for v in range(1, 16):
            vs[Q.value(v)].append(v)
        clo = restricted_closure(base)
        out += [(clo, Q, vs[0][0], vs[0][-1], True), (clo, Q, vs[0][0], vs[1][0], False)]
    return out


@pytest.mark.parametrize("case", range(8))
def test_cheap_first_super_iso_matches_bracket_first(case):
    clo, Q, a, b, equivalent = _kap_pairs()[case]
    s1, s2 = superize_linear(clo, a), superize_linear(clo, b)
    found = 0
    for rows in superize._isometries(clo.B, Q):
        got = induced_super_iso(s1, s2, rows)
        want = _bracket_first_super_iso(s1, s2, rows)
        assert (got and got.images) == (want and want.images)
        found += got is not None
    assert bool(found) == equivalent


@pytest.mark.parametrize("case,order", [(0, 720), (1, 720), (4, 72), (5, 72), (6, 120), (7, 120)])
def test_bracket_check_gates_every_verdict(monkeypatch, case, order):
    """With every bracket check failing no pair is equivalent, and the
    whole isometry group is tried."""
    calls = []

    def reject(m, kind):
        calls.append(kind)
        return False

    monkeypatch.setattr(superize, "verify_morphism", reject)
    clo, Q, a, b, equivalent = _kap_pairs()[case]
    r = equivalence_of_superizations(superize_linear(clo, a), superize_linear(clo, b), quadratic=Q)
    assert (r.kind, r.tried, r.map) == ("exhausted-no-map", order, None)
    # candidates that pass the cheap checks reach the bracket check
    assert bool(calls) == equivalent


# ---------------------------------------------------------------------------
# the form's fits on a plain gf2.invertibles walk, kept as an oracle for the
# per-form memo that _isometries replays
# ---------------------------------------------------------------------------

def _fresh_form(case):
    """(B, Q) of Sp(4,2), O+(4,2) or O-(4,2), as new objects on every call."""
    if case == 0:
        return BilinearFormSpec("Pi", 4), None
    Q = QuadraticFormSpec.standard(2, case - 1)
    return Q.polar, Q


def _unmemoized(B, Q):
    return list(gf2.invertibles(B.n, superize._fits(B, Q)))


@pytest.mark.parametrize("case,order", [(0, 720), (1, 72), (2, 120)],
                         ids=["Sp(4,2)", "O+(4,2)", "O-(4,2)"])
def test_isometry_replay_matches_the_unmemoized_walk(case, order):
    B, Q = _fresh_form(case)
    want = _unmemoized(B, Q)
    assert len(want) == order
    # a full walk after a partial one, then a replay of the finished walk
    assert list(islice(superize._isometries(B, Q), 5)) == want[:5]
    assert list(superize._isometries(B, Q)) == want
    assert list(superize._isometries(B, Q)) == want
    # two iterators interleaved on the shared walk, each way round
    B, Q = _fresh_form(case)
    a, b = superize._isometries(B, Q), superize._isometries(B, Q)
    head = [next(a) for _ in range(3)]
    assert list(b) == want and head + list(a) == want
    B, Q = _fresh_form(case)
    assert list(zip(superize._isometries(B, Q), superize._isometries(B, Q))) == list(zip(want, want))
    # a fresh form per call
    for _ in range(2):
        assert list(superize._isometries(*_fresh_form(case))) == want


def _same_class_pairs(base, Q):
    vs = range(1, 1 << base.meta["jsystem_B"].n)
    return [(a, b) for a in vs for b in vs if Q is None or Q.value(a) == Q.value(b)]


@pytest.mark.parametrize("build,kap4", [(lambda: build_kap2(4), False), (lambda: build_kap4A(4, 0), True),
                                        (lambda: build_kap4A(4, 1), True)],
                         ids=["Kap2(4)", "Kap4,0(4)", "Kap4,1(4)"])
def test_memoized_verdicts_match_the_unmemoized_walk(build, kap4):
    base = build()
    clo = restricted_closure(base)
    Q = base.meta["quadratic_form"] if kap4 else None
    group = _unmemoized(clo.B, Q)
    pairs = _same_class_pairs(base, Q)
    want = {}
    for a, b in pairs:
        s1, s2 = superize_linear(clo, a), superize_linear(clo, b)
        tried = next(t for t, rows in enumerate(group, 1) if induced_super_iso(s1, s2, rows))
        want[a, b] = ("equivalent", tried)
    for order in (pairs, pairs[::-1]):
        for a, b in order:
            r = equivalence_of_superizations(superize_linear(clo, a), superize_linear(clo, b), quadratic=Q)
            assert (r.kind, r.tried) == want[a, b], (a, b)


def test_changing_a_yielded_matrix_leaves_the_memo_alone():
    B, _ = _fresh_form(0)
    want = _unmemoized(B, None)
    for rows in superize._isometries(B):
        rows[0] ^= 1
        rows.append(7)
    assert list(superize._isometries(B)) == want


def test_the_memo_is_freed_with_the_algebra_that_owns_the_form():
    base = build_kap4A(4, 1)
    clo = restricted_closure(base)
    Q = base.meta["quadratic_form"]
    r = equivalence_of_superizations(superize_linear(clo, 1), superize_linear(clo, 2), quadratic=Q)
    assert Q in superize._WALKS and r.tried
    refs = [weakref.ref(Q), weakref.ref(clo.B)]
    next(superize._isometries(clo.B))
    assert clo.B in superize._WALKS
    del base, clo, Q, r
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_walk_that_raises_leaves_no_entry_behind(monkeypatch):
    B, _ = _fresh_form(0)
    want = _unmemoized(B, None)
    real, calls = superize._fits, []

    def failing_fits(B, Q):
        fits = real(B, Q)

        def fits_until_the_50th_call(k, img):
            calls.append(k)
            if len(calls) == 50:
                raise RuntimeError("fits failed")
            return fits(k, img)
        return fits_until_the_50th_call

    monkeypatch.setattr(superize, "_fits", failing_fits)
    other = superize._isometries(B)
    first = next(other)
    with pytest.raises(RuntimeError, match="fits failed"):
        list(superize._isometries(B))
    assert B not in superize._WALKS
    monkeypatch.undo()
    # an iterator begun on the broken walk starts a new one where it stood
    assert [first] + list(other) == want
    assert list(superize._isometries(B)) == want


# ---------------------------------------------------------------------------
# the per-basis bracket loops and the seeded samples of sums, kept as oracles
# for the exact ad-matrix checks
# ---------------------------------------------------------------------------

def _sampled_check_restricted(clo):
    g = clo.algebra
    n = g.dim
    for i in range(n):
        sq = clo.squaring[i]
        for j in range(n):
            if g.bracket(sq, 1 << j) != g.bracket(1 << i, g.bracket(1 << i, 1 << j)):
                return False
    rng = random.Random(0)
    for _ in range(64):
        x = rng.getrandbits(n)
        if not x:
            continue
        sq = clo.square_vector(x)
        for j in range(n):
            if g.bracket(sq, 1 << j) != g.bracket(x, g.bracket(x, 1 << j)):
                return False
    return True


def _sampled_check_super_axioms(s):
    g = s.algebra
    for (i, j), row in g.sc.items():
        want = (s.parity[i] + s.parity[j]) % 2
        for k in row:
            if s.parity[k] != want:
                return False, "parity breaks at [%d,%d] -> %d" % (i, j, k)
    for i in s.odd_indices():
        sq = s.closure.squaring[i]
        for k in gf2.bits(sq):
            if s.parity[k]:
                return False, "square of odd %d is not even" % i
        for j in range(g.dim):
            if g.bracket(sq, 1 << j) != g.bracket(1 << i, g.bracket(1 << i, 1 << j)):
                return False, "squaring axiom fails at (%d, %d)" % (i, j)
    rng = random.Random(1)
    odd = s.odd_indices()
    for _ in range(32):
        sel = [i for i in odd if rng.getrandbits(1)]
        if not sel:
            continue
        x = gf2.from_bits(sel)
        sq = s.closure.square_vector(x)
        for j in range(g.dim):
            if g.bracket(sq, 1 << j) != g.bracket(x, g.bracket(x, 1 << j)):
                return False, "squaring axiom fails on an odd sum"
    return True, ""


FAMILIES = [(m, key) for m in (1, 2, 3) for key in seven_families(m)]


def test_eighteen_families():
    assert len(FAMILIES) == 18


@pytest.mark.parametrize("m,key", FAMILIES)
def test_super_axioms_match_sampled_check_on_the_families(m, key):
    s = seven_families(m)[key]
    assert s.check_super_axioms() == _sampled_check_super_axioms(s) == (True, "")
    if key.startswith("KapS_{4"):  # the linear rule along the standard v
        arf, eps = int(key[8]), int(key[-2])
        v = superize._standard_v(m, arf, eps)
        clo = s.closure
        assert s.parity == [clo.B.pair(v, u) for u in clo.gamma] + [0] * clo.n
        assert s.name == ("oo'_II(1|2)" if m == 1 else "KapS_{4,%d}(%d;%d)" % (arf, 2 * m, eps))


CLOSURES = {"Kap2(2)": lambda: build_kap2(2), "Kap2(4)": lambda: build_kap2(4),
            "Kap2(6)": lambda: build_kap2(6), "Kap4,0(4)": lambda: build_kap4A(4, 0),
            "Kap4,1(4)": lambda: build_kap4A(4, 1), "Kap3(5)": lambda: build_kap3(5),
            "Kap3(7)": lambda: build_kap3(7), "Kap1(4)": lambda: build_kap1(4),
            "Kap1(6)": lambda: build_kap1(6)}


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_check_restricted_matches_sampled_check(name):
    clo = restricted_closure(CLOSURES[name]())
    assert clo.check_restricted() == _sampled_check_restricted(clo) == (not name.startswith("Kap1"))


def test_kap1_closures_fail_the_basis_identity():
    for n, first in ((4, [0, 1, 3, 6, 7]), (6, [0, 1, 3, 6, 7])):
        clo = restricted_closure(build_kap1(n))
        assert clo.algebra.validate().ok
        bad = [i for i in range(clo.dim) if superize._squaring_failure(clo, [i])]
        assert bad[:5] == first


def test_super_axioms_match_sampled_check_on_kap1_superizations():
    clo = restricted_closure(build_kap1(4))
    for v in range(1, 16):
        s = superize_linear(clo, v)
        got = s.check_super_axioms()
        assert got == _sampled_check_super_axioms(s)
        assert not got[0]


@pytest.mark.parametrize("m,key", [(1, "KapLS_2"), (2, "KapS_{2,0}"), (2, "KapS_{4,1}(;0)"),
                                   (3, "KapS_{4,0}(;1)")])
def test_flipped_squaring_bit_is_refused_by_both_checks(m, key):
    s = seven_families(m)[key]
    clo = s.closure
    i = s.odd_indices()[-1]
    clo.squaring[i] ^= 1 << clo.base.dim  # a V* coordinate: the square stays even
    got = s.check_super_axioms()
    assert got == _sampled_check_super_axioms(s)
    assert got[1].startswith("squaring axiom fails at (%d, " % i)
    assert clo.check_restricted() is _sampled_check_restricted(clo) is False


def test_jacobi_only_break_is_refused_only_by_the_exact_check():
    """KapS_{2,1}(2) has no odd part, so the sampled check only reads the
    parity rules; [a1, a2] = a1 keeps them and the grading but breaks
    Jacobi on (e10, a1, a2)."""
    s = seven_families(1)["KapS_{2,1}"]
    g = s.algebra
    assert s.odd_dim == 0 and g.labels[3:] == ["a1", "a2"]
    sc = dict(g.sc)
    sc[(3, 4)] = {3: 1}
    bad = Algebra(g.field, g.labels, sc, grading=g.grading, grading_mod=g.grading_mod)
    s.algebra = s.closure.algebra = bad
    assert _sampled_check_super_axioms(s) == (True, "")
    assert s.check_super_axioms() == (False, "Jacobi fails at (0, 3, 4)")
    assert not s.closure.check_restricted()
