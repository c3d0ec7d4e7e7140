import random
from itertools import product

import pytest

from gf2lie import gf2, superize
from gf2lie.constructions import (BilinearFormSpec, QuadraticFormSpec, build_kap1, build_kap2,
                                  build_kap3, build_kap4A)
from gf2lie.liealg import Algebra, AlgebraError, LinearMap, verify_morphism
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
        assert s.even_subspace().is_subalgebra()
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
    assert s.even_subspace().is_subalgebra()


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

def _group_elements(n, keep, budget=None, rng_seed=0):
    if n <= 4:
        for rows in product(range(1, 1 << n), repeat=n):
            if gf2.rank(rows) != n:
                continue
            if keep(rows):
                yield list(rows)
    else:
        rng = random.Random(rng_seed)
        count = 0
        while count < (budget or 100000):
            rows = [rng.getrandbits(n) or 1 for _ in range(n)]
            if gf2.rank(rows) != n:
                continue
            count += 1
            if keep(rows):
                yield rows


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
    return BilinearFormSpec("explicit", n, [0] * n)


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


def test_random_isometry_branch_keeps_its_draws(monkeypatch):
    """n = 6: the same rng draws, the same budget, the same survivors."""
    drawn = []
    real_rank = gf2.rank
    monkeypatch.setattr(gf2, "rank", lambda rows: drawn.append(list(rows)) or real_rank(rows))
    Q = QuadraticFormSpec.standard(3, 1)
    cases = [(_zero_form(6), None, lambda rows: True),
             (BilinearFormSpec("Pi", 6), None, lambda rows: _preserves_form(BilinearFormSpec("Pi", 6), rows)),
             (Q.polar, Q, lambda rows: _preserves_quadratic(Q, rows))]
    for B, quad, keep in cases:
        for seed in (0, 5):
            drawn.clear()
            got = list(superize._isometries(B, quad, budget=40, rng_seed=seed))
            got_draws = list(drawn)
            drawn.clear()
            assert got == list(_group_elements(6, keep, budget=40, rng_seed=seed))
            assert got_draws == drawn
    # every invertible preserves the zero form: the budget bounds the sample
    assert len(list(superize._isometries(_zero_form(6), budget=40))) == 40


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
