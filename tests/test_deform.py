import pytest

from gf2lie import gf2
from gf2lie.cohomology import Cochain2, compute_h2, d1, d2, is_coboundary, parse_cocycle
from gf2lie.constructions import build_hI, build_hamiltonian, build_jurman, build_kap2, build_kap4B
from gf2lie.deform import (DeformFamily, bracket_map_cochain,
                           defect, deform_bracket, integrability_verdict, jurman_cocycle,
                           jurman_deform_check, jurman_united_family, kap4b_as_deform,
                           kap4b_quotient_map, obstruction_poly, partial_matrix,
                           poisson_family, semitrivial_certificate,
                           zero_defect_representative)
from gf2lie.fields import GF2, GF2k
from gf2lie.liealg import AlgebraError, verify_morphism

F4 = GF2k(2)
HP = build_hamiltonian(1, (2, 2), "derived")


def test_deform_bracket_requires_cocycle():
    bad = Cochain2(HP, {(0, 5): 1 << 3})
    if not d2(bad):
        pytest.skip("random cochain happened to be a cocycle")
    with pytest.raises(AlgebraError):
        deform_bracket(HP, bad)


def test_family_specializes_to_base_at_zero():
    c = jurman_cocycle(2, 1)
    fam = deform_bracket(c.algebra, c)
    alg0 = fam.specialize([GF2.zero])
    assert alg0.sc == c.algebra.sc


def test_obstruction_poly_verdicts():
    # a coboundary deform is linear-global
    images = [0] * HP.dim
    images[0] = 1 << 3
    cb = d1(HP, images)
    rep = obstruction_poly(deform_bracket(HP, cb))
    assert rep.verdict == "linear-global"
    # the Jurman cocycle is linear-global
    c = jurman_cocycle(2, 1)
    rep2 = obstruction_poly(deform_bracket(c.algebra, c, check=False))
    assert rep2.verdict == "linear-global"
    # constant term of the Jacobiator always vanishes; linear term vanishes
    # exactly when the cochain is a cocycle
    fam = DeformFamily(HP, ["h"], {(1,): bracket_map_cochain(HP, partial_matrix(HP, 1, 1))})
    jac = fam.jacobiator()
    assert (0,) not in jac
    assert (1,) not in jac  # it is a cocycle
    assert (2,) in jac      # quadratic defect is nonzero for this one


def test_jurman_deform_21():
    rep = jurman_deform_check(2, 1)
    assert rep.ok and rep.weight == (4, -2)
    printed = parse_cocycle(
        "p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + "
        "p^(3) q^(2) (x) d(q^(2))^d(q^(3))", rep.cocycle.algebra)
    assert rep.cocycle == printed


def test_jurman_deform_31_and_22():
    rep = jurman_deform_check(2, 2, mirrored=True)  # c_{-2,8} on h'(2;(2,3)) -> j(3,1)
    assert rep.ok and rep.weight == (-2, 8) and rep.target.name == "j(3,1)"
    printed = parse_cocycle(
        "q^(7) (x) d(p)^d(p^(2)) + p q^(7) (x) d(p)^d(p^(3)) + "
        "p^(2) q^(7) (x) d(p^(2))^d(p^(3))", rep.cocycle.algebra)
    assert rep.cocycle == printed
    rep2 = jurman_deform_check(2, 2)  # c_{4,-2} -> j(2,2)
    assert rep2.ok and rep2.weight == (4, -2) and rep2.target.name == "j(2,2)"


def test_jurman_united_family():
    for K in (3, 4):
        fam = jurman_united_family(K)
        assert not fam.jacobiator()
        parts = [(g, K - g) for g in range(2, K)]
        for t, (g, h) in enumerate(parts):
            vals = [GF2.one if i == t else GF2.zero for i in range(len(parts))]
            assert fam.specialize(vals).sc == build_jurman(g, h).sc


def test_zero_defect_representatives_exist_gh21():
    for w in [(4, -2), (0, -4), (2, 0), (0, -2), (-2, -2)]:
        blk = compute_h2(HP, weight_filter=w, mode="z")
        rep = zero_defect_representative(HP, blk.representatives[0], [("z", w)])
        assert rep is not None, w
        assert not defect(rep)
        assert not is_coboundary(rep)


def test_semitrivial_certificate_c0m4():
    t = F4.gen()
    c = bracket_map_cochain(HP, partial_matrix(HP, 1, 2))  # (x,y) -> [d_q^2 x, d_q^2 y]
    cert = semitrivial_certificate(deform_bracket(HP, c), t)
    assert cert is not None
    assert "d_q" in cert.description
    assert verify_morphism(cert.map, "isomorphism")


def test_semitrivial_certificate_c0m2():
    t = F4.gen()
    blk = compute_h2(HP, weight_filter=(0, -2), mode="z")
    rep = zero_defect_representative(HP, blk.representatives[0], [("z", (0, -2))])
    cert = semitrivial_certificate(deform_bracket(HP, rep), t)
    assert cert is not None
    assert verify_morphism(cert.map, "isomorphism")


def test_integrability_hI():
    hi = build_hI(2, (2, 2))
    cons = [("mod2", (0, 0)), ("outer", (-2,))]
    blk = compute_h2(hi, constraints=cons)
    verdicts = [integrability_verdict(hi, rep, cons)[0] for rep in blk.representatives]
    assert verdicts.count("linear-global") == 3
    assert len([v for v in verdicts if v != "linear-global"]) == 1


def test_poisson_family_alpha_one_is_po():
    from gf2lie.constructions import build_poisson
    fam = poisson_family(1, (2, 2), GF2.one)
    po = build_poisson(1, (2, 2))
    assert fam.sc == po.sc


def test_kap4b_deform_reports():
    for m in (1, 2):
        rep = kap4b_as_deform(m)
        assert rep.ok, rep


def test_kap4b_quotient_map_m3():
    m = kap4b_quotient_map(3)
    assert verify_morphism(m, "isomorphism")


def test_kap4b_family_at_one():
    from gf2lie.deform import kap4b_family
    fam = kap4b_family(2)
    assert fam.specialize([GF2.one]).sc == build_kap4B(4).sc
    assert fam.specialize([GF2.zero]).sc == fam.base.sc


def test_coboundary_deform_is_trivial():
    # d1(multiplication by q) is a coboundary with zero defect; its linear
    # deform at t is certified isomorphic to the base
    from gf2lie.cohomology import d1
    from gf2lie.divpow import mono_mul
    monos = HP.meta["mono_degrees"]
    idx = {m: k for k, m in enumerate(monos)}
    bmat = []
    for m in monos:
        c, mm = mono_mul((0, 1), m, HP.meta["N"])
        bmat.append(1 << idx[mm] if c and mm in idx else 0)
    cb = d1(HP, bmat)
    assert cb and is_coboundary(cb) and not defect(cb)
    cert = semitrivial_certificate(deform_bracket(HP, cb), F4.gen())
    assert cert is not None
    assert verify_morphism(cert.map, "isomorphism")


def test_obstruction_of_bracket_coboundary():
    # d1(identity) is the bracket itself; its linear deform (1+h)[x,y]
    # satisfies Jacobi identically, hence linear-global
    from gf2lie.cohomology import d1
    c = d1(HP, [1 << i for i in range(HP.dim)])
    T = HP.pair_table()
    assert all(c.pair_value(i, j) == T[i * HP.dim + j] for i in range(HP.dim)
               for j in range(HP.dim) if i != j)
    rep = obstruction_poly(deform_bracket(HP, c))
    assert rep.verdict == "linear-global"


def test_quantization_deform_check_is_field_stably_distinguished():
    # the literal comparison the spec's op performs: the linear deform by the
    # (-2,-2) class is separated from psl(4) by the derivation dimension
    # (20 vs 21), an invariant stable under any base field extension
    from gf2lie.deform import quantization_deform_check
    c, iso, fps = quantization_deform_check(2)
    assert not is_coboundary(c) and not defect(c)
    assert iso.kind == "distinguished"
    assert fps[0]["derivation_dim"] == 20 and fps[1]["derivation_dim"] == 21
