import hashlib
import json

import pytest

from gf2lie import constructions, gf2
from gf2lie.constructions import (BilinearFormSpec, JSystemSpec, QuadraticFormSpec,
                                  arf_invariant, build_a2gh, build_classical,
                                  build_div_free_hI, build_hI, build_hamiltonian,
                                  build_jurman, build_kap1, build_kap2, build_kap3,
                                  build_kap4A, build_kap4B, build_kap4_subalgebra,
                                  build_multipair, build_poisson, dim_kap4A,
                                  jsystem_algebra, kap4_subalgebra_condition)
from gf2lie.divpow import mono_mul
from gf2lie.liealg import (AlgebraError, Subspace, center, derived_subalgebra, quotient,
                           simplicity_check, subalgebra_on)


def test_poisson_smallest():
    po = build_poisson(1, (1, 1))
    # {p, q} = 1
    labels = po.labels
    p, q, one = labels.index("p"), labels.index("q"), labels.index("1")
    assert po.brk(p, q) == {one: 1}
    assert po.dim == 4


def test_poisson_bracket_rule():
    po = build_poisson(1, (2, 2))
    monos = po.meta["mono_degrees"]
    idx = {m: i for i, m in enumerate(monos)}
    # {p^(2), q} = p
    assert po.brk(idx[(2, 0)], idx[(0, 1)]) == {idx[(1, 0)]: 1}
    # constants are central
    one = idx[(0, 0)]
    assert all(not po.brk(one, j) for j in range(po.dim))


def test_hamiltonian_dims_and_grading():
    h = build_hamiltonian(1, (2, 2))
    assert h.dim == 15
    hp = build_hamiltonian(1, (2, 2), "derived")
    assert hp.dim == 14
    from collections import Counter
    byweight = Counter(sum(w) for w in hp.grading)
    assert [byweight[k] for k in sorted(byweight)] == [2, 3, 4, 3, 2]


def test_hI_validates():
    hi = build_hI(2, (2, 2))
    assert hi.dim == 15 and hi.validate().ok


def test_div_free_hI():
    lh = build_div_free_hI(4, (1, 1, 1, 1))
    assert lh.dim == 15  # divergence vanishes identically for 1_s
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    assert lhp.dim == 14
    # divergence functional vanishes on every basis element by construction
    for mono in lhp.meta["mono_degrees"]:
        assert all(e < 2 for e in mono)


def test_jurman_dims_and_jacobi():
    for (g, h) in [(2, 1), (3, 1), (2, 2)]:
        j = build_jurman(g, h)
        assert j.dim == (1 << (g + h + 1)) - 2
        assert j.validate().ok
    with pytest.raises(AlgebraError):
        build_jurman(1, 1)


def test_jurman_alternation():
    j = build_jurman(2, 1)
    i = j.labels.index("Y-1(1)")
    assert not j.brk(i, i)


def test_a2gh():
    a = build_a2gh(2, 1)
    assert a.validate().ok
    der = build_a2gh(2, 1, "derived")
    # derived drops exactly the top element x^(2^(g+h)-1) y
    assert der.dim == a.dim - 1
    assert "x^(7)*y" not in der.labels
    quo = build_a2gh(2, 1, "derived_mod_center")
    assert quo.dim == (1 << 4) - 2


def test_a2gh_isomorphic_to_jurman():
    # the explicit map Y_i(0) = x^(i+1) y, Y_i(1) = x^(i+2)
    from gf2lie.liealg import LinearMap, verify_morphism
    quo = build_a2gh(2, 1, "derived_mod_center")
    j = build_jurman(2, 1)
    monos = quo.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    images = []
    for (jj, t) in [(int(l[1:].split("(")[0]), int(l.split("(")[1][:-1])) for l in j.labels]:
        mono = (jj + 1, 1) if t == 0 else (jj + 2, 0)
        images.append(1 << idx[mono])
    m = LinearMap(j, quo, images)
    assert verify_morphism(m, "isomorphism")


def test_multipair():
    for kind in ("Pi", "I"):
        g = build_multipair(kind, [(2, 1), (2, 1)])
        assert g.validate().ok
    assert build_multipair("Pi", [(2, 1)]).sc == build_a2gh(2, 1).sc


def _apply_del(mono, i, k, N):
    """d_i^k on a monomial (coefficient is always 1 on divided powers)."""
    if mono[i] < k:
        return None
    return mono[:i] + (mono[i] - k,) + mono[i + 1:]


def _tuple_a_brmono(pairs, N, kind):
    """The multipair bracket on exponent tuples through mono_mul, recomputing
    d_x and E on every call: the oracle for the packed, cached bracket."""
    def ell(mono, xi, yi, gg):
        out = {}
        m1 = _apply_del(mono, yi, 1, N)
        if m1 is not None:
            out[m1] = 1
        m2 = _apply_del(mono, xi, 1 << gg, N)
        if m2 is not None and m2[yi] == 0:
            # multiply by y: exponent bound N(y)=1 makes this the only case
            m2y = m2[:yi] + (1,) + m2[yi + 1:]
            out[m2y] = out.get(m2y, 0) ^ 1
            if not out[m2y]:
                del out[m2y]
        return out

    def br(a, b):
        out = {}
        for (xi, yi, gg) in pairs:
            da = _apply_del(a, xi, 1, N)
            db = _apply_del(b, xi, 1, N)
            ea = ell(a, xi, yi, gg)
            eb = ell(b, xi, yi, gg)
            terms = []
            if kind == "Pi":
                if da is not None:
                    terms += [(da, mb) for mb in eb]
                if db is not None:
                    terms += [(ma, db) for ma in ea]
            else:
                if da is not None and db is not None:
                    terms.append((da, db))
                terms += [(ma, mb) for ma in ea for mb in eb]
            for (ma, mb) in terms:
                c, mono = mono_mul(ma, mb, N)
                if c:
                    if mono in out:
                        del out[mono]
                    else:
                        out[mono] = 1
        return out
    return br


def _output(g):
    # rows as item lists: dict equality alone would ignore their order
    return (g.name, g.labels, [(key, list(row.items())) for key, row in g.sc.items()],
            g.grading, g.grading_mod, g.meta)


@pytest.mark.parametrize("pairs", [[(2, 1)], [(3, 1)], [(2, 2)], [(3, 2)],
                                   [(2, 1), (2, 1)], [(2, 1), (3, 1)]])
@pytest.mark.parametrize("kind", ["Pi", "I"])
def test_packed_multipair_bracket_matches_tuple_oracle(kind, pairs, monkeypatch):
    new = build_multipair(kind, pairs)
    with monkeypatch.context() as m:
        m.setattr(constructions, "_a_brmono", _tuple_a_brmono)
        old = build_multipair(kind, pairs)
    assert _output(new) == _output(old)
    for variant in ("derived", "derived_mod_center"):
        a = constructions._apply_variant(new, variant)
        b = constructions._apply_variant(old, variant)
        assert _output(a) == _output(b), variant


def test_structure_sweep_multipairs_pinned():
    # sha256 of the labels and sorted structure constants, computed with the
    # tuple bracket above
    pins = {("Pi", "full"): "41df12dcb0b6c3176964e08e807048771ddb6d7cb891ba83101a669dbd1eeafc",
            ("Pi", "derived_mod_center"):
                "4db4b2d54c2f60b673594730fa8e5562660a65ae653acfb9108b6d0041364846",
            ("I", "derived_mod_center"):
                "c749aa61defad280663484e01284ccfbedb1a6ff5db332ba9b9082e299c27b74"}
    for (kind, variant), pin in pins.items():
        g = build_multipair(kind, [(2, 1), (2, 1)], variant)
        doc = [g.labels, sorted([i, j, sorted(row.items())] for (i, j), row in g.sc.items())]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == pin, (kind, variant)


def test_multipair_derived_mod_center_no_center():
    g = build_multipair("Pi", [(2, 1), (2, 1)], "derived_mod_center")
    assert center(g).dim == 0
    gi = build_multipair("I", [(2, 1), (2, 1)], "derived_mod_center")
    assert center(gi).dim == 0


def test_multipair_no_homogeneous_ideals():
    # homogeneous subspaces for the full multigrading are monomial-spanned,
    # so spinning every basis monomial settles the claim; with no random
    # seeds simplicity_check spins exactly the basis, in order, and passes
    # only if each basis monomial spins all of g
    for kind in ("Pi", "I"):
        g = build_multipair(kind, [(2, 1), (2, 1)], "derived_mod_center")
        v = simplicity_check(g, random_seeds=0)
        assert (v.kind, v.seeds_tried) == ("probable-simple", g.dim), kind


def test_kaplansky_dims():
    assert build_kap1(4).dim == 14
    for m in (1, 2, 3):
        assert build_kap2(2 * m).dim == (1 << (2 * m)) - 1
        for arf in (0, 1):
            assert build_kap4A(2 * m, arf).dim == dim_kap4A(m, arf)
        assert build_kap4B(2 * m).dim == 1 << (2 * m)
    assert build_kap3(5).dim == 10


def test_kap3_gaps_rejected():
    for n in (3, 4, 6, 8):
        with pytest.raises(AlgebraError):
            build_kap3(n)
    build_kap3(7)
    build_kap3(9)


def test_jsystem_closure_checked():
    B = BilinearFormSpec("Pi", 2)
    with pytest.raises(AlgebraError):
        JSystemSpec(B, [0b01, 0b10])  # B(e1,e2)=1 but e1+e2 missing


def test_kap4_subalgebra_conditions():
    # m=1, A=0: kernel is spanned by x1 y1 alone
    amb, sub = build_kap4_subalgebra(1, 0)
    assert sub.dim == 1
    monos = amb.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    assert sub.rows() == [1 << idx[(1, 1)]]
    # m=2, A=1: dim 10, bracket-closed
    amb, sub = build_kap4_subalgebra(2, 1)
    assert sub.dim == 10 == dim_kap4A(2, 1)
    assert sub.is_subalgebra()
    # m=3 closure too
    amb, sub = build_kap4_subalgebra(3, 0)
    assert sub.dim == dim_kap4A(3, 0)
    assert sub.is_subalgebra()


def test_kap4_subalgebra_matches_gamma_build():
    # the kernel monomials are exactly the f_u with Q_A(u) = 1
    from gf2lie.isom import search_isomorphism
    amb, sub = build_kap4_subalgebra(2, 1)
    inner = subalgebra_on(amb, sub)
    r = search_isomorphism(inner, build_kap4A(4, 1))
    assert r.kind == "iso"


def test_arf_invariant():
    for m in (1, 2, 3):
        assert arf_invariant(QuadraticFormSpec.standard(m, 0)) == 0
        assert arf_invariant(QuadraticFormSpec.standard(m, 1)) == 1


def test_arf_invariant_under_symplectic_change():
    import random
    from gf2lie import gf2 as G
    rng = random.Random(0)
    m = 2
    Q = QuadraticFormSpec.standard(m, 0)
    B = Q.polar
    found = 0
    while found < 10:
        rows = [rng.getrandbits(2 * m) for _ in range(2 * m)]
        if G.rank(rows) < 2 * m:
            continue
        ok = all(B.pair(G.apply_rows(rows, 1 << i), G.apply_rows(rows, 1 << j)) == B.pair(1 << i, 1 << j)
                 for i in range(2 * m) for j in range(2 * m))
        if not ok:
            continue
        found += 1
        vals = [Q.value(G.apply_rows(rows, 1 << t)) for t in range(2 * m)]
        Q2 = QuadraticFormSpec(B, vals)
        assert arf_invariant(Q2) == 0


def test_quadratic_polarization():
    for m in (1, 2):
        for arf in (0, 1):
            assert QuadraticFormSpec.standard(m, arf).check_polarization()


def test_classical_dims():
    assert build_classical("gl", 3).dim == 9
    assert build_classical("sl", 4).dim == 15
    assert build_classical("psl", 4).dim == 14
    assert build_classical("oPi", 3, "derived").dim == 3
    assert build_classical("oPi", 5, "derived").dim == 10
    assert build_classical("oI", 5, "derived").dim == 10
    # sl(n) for even n contains the scalars, so psl is strictly smaller
    assert build_classical("psl", 4).dim < build_classical("sl", 4).dim


def test_kap1_equals_lhI_derived_monomially():
    # x^u -> e_u is an isomorphism on the nose
    from gf2lie.liealg import LinearMap, verify_morphism
    kap1 = build_kap1(4)
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    gamma = kap1.meta["jsystem_gamma"]
    monos = lhp.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    images = [1 << idx[gf2.to_tuple(u, 4)] for u in gamma]
    m = LinearMap(kap1, lhp, images)
    assert verify_morphism(m, "isomorphism")


def test_kap2_center_zero():
    assert center(build_kap2(4)).dim == 0


def test_builders_validate():
    for g in [build_kap1(5), build_kap2(6), build_kap3(5), build_kap4A(6, 1),
              build_kap4B(6), build_classical("oI", 4), build_classical("oPi", 4)]:
        assert g.validate().ok, g.name
