import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gf2lie import gf2
from gf2lie.cohomology import Cochain2, compute_h2, cyclic_compose, d1, d2, is_coboundary, parse_cocycle
from gf2lie.constructions import build_hI, build_hamiltonian, build_jurman, build_kap2, build_kap4B
from gf2lie.deform import (DeformFamily, bracket_map_cochain,
                           defect, deform_bracket, integrability_verdict, jurman_cocycle,
                           jurman_deform_check, jurman_united_family, kap4b_as_deform, kap4b_family,
                           kap4b_quotient_map, obstruction_poly, partial_matrix,
                           poisson_family, semitrivial_certificate,
                           zero_defect_representative)
from gf2lie.fields import GF2, GF2k
from gf2lie.liealg import Algebra, AlgebraError, verify_morphism
from test_cohomology import _dense_d2

F4 = GF2k(2)
HP = build_hamiltonian(1, (2, 2), "derived")


# ---------------------------------------------------------------------------
# the scan that composed bracket maps before cyclic_compose, kept as an oracle
# ---------------------------------------------------------------------------

class BracketTerm:
    """A bilinear alternating map on the algebra, sparse on i<j pairs."""

    def __init__(self, g, terms):
        self.g = g
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def from_cochain(cls, c):
        return cls(c.algebra, dict(c.terms))

    @classmethod
    def base(cls, g):
        n = g.dim
        T = g.pair_table()
        return cls(g, {(i, j): T[i * n + j] for (i, j) in g.sc})

    @classmethod
    def of(cls, x):
        """The map of a 2-cochain, or the bracket of an algebra."""
        return cls.base(x) if isinstance(x, Algebra) else cls.from_cochain(x)

    def pair_value(self, i, j):
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        return self.terms.get(key, 0)

    def eval_vec(self, w, k):
        acc = 0
        for u in gf2.bits(w):
            acc ^= self.pair_value(u, k)
        return acc


def compose_defect(a, b):
    """The 3-cochain (x,y,z) -> sum_cyc a(b(x,y), z) on basis triples."""
    n = a.g.dim
    out = {}
    for (x, y), w in b.terms.items():
        for z in range(n):
            if z == x or z == y:
                continue
            v = a.eval_vec(w, z)
            if v:
                tri = tuple(sorted((x, y, z)))
                out[tri] = out.get(tri, 0) ^ v
                if not out[tri]:
                    del out[tri]
    return out


def add3(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) ^ v
        if not out[k]:
            del out[k]
    return out


def scan_jacobiator(fam):
    terms = {tuple(0 for _ in fam.params): BracketTerm.of(fam.base)}
    terms.update((m, BracketTerm.of(c)) for m, c in fam.terms.items())
    out = {}
    for m1 in terms:
        for m2 in terms:
            tri = compose_defect(terms[m1], terms[m2])
            if tri:
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = add3(out.get(key, {}), tri)
    return {k: v for k, v in out.items() if v}


COMPOSE_ALGEBRAS = {
    "hp22": HP,
    "hp23": build_hamiltonian(1, (2, 3), "derived"),
    "hI": build_hI(2, (2, 2)),
}


def _random_cochain(g, rng):
    terms = {}
    for _ in range(rng.randint(1, 10)):
        i, j = sorted(rng.sample(range(g.dim), 2))
        terms[(i, j)] = rng.getrandbits(g.dim) if rng.random() < 0.5 else 1 << rng.randrange(g.dim)
    return Cochain2(g, terms)


@pytest.mark.parametrize("name", sorted(COMPOSE_ALGEBRAS))
def test_cyclic_compose_matches_the_scan(name):
    g = COMPOSE_ALGEBRAS[name]
    mu = BracketTerm.of(g)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(25):
        a, b = _random_cochain(g, rng), _random_cochain(g, rng)
        ta, tb = BracketTerm.of(a), BracketTerm.of(b)
        for x, y, tx, ty in ((a, b, ta, tb), (b, a, tb, ta), (g, a, mu, ta), (a, g, ta, mu)):
            assert cyclic_compose(x, y) == compose_defect(tx, ty)
        assert defect(a) == compose_defect(ta, ta)
        assert d2(a) == add3(compose_defect(mu, ta), compose_defect(ta, mu)) == _dense_d2(a)
        # the accumulator takes the second composition on top of the first
        both = add3(compose_defect(ta, tb), compose_defect(tb, ta))
        assert cyclic_compose(b, a, cyclic_compose(a, b)) == both
    assert cyclic_compose(g, Cochain2(g, {})) == {} == defect(Cochain2(g, {}))


def _random_family():
    """Two random cochains of h'_Pi(2;2,2) as two parameter directions: a
    Jacobiator with several nonzero monomials, to pin their order."""
    rng = random.Random(7)
    return DeformFamily(HP, ["s", "t"], {(1, 0): _random_cochain(HP, rng),
                                         (0, 1): _random_cochain(HP, rng)})


FAMILIES = {
    "jurman3": lambda: jurman_united_family(3),
    "jurman4": lambda: jurman_united_family(4),
    "kap4b1": lambda: kap4b_family(1),
    "kap4b2": lambda: kap4b_family(2),
    "random": _random_family,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_jacobiator_matches_the_scan(family):
    fam = FAMILIES[family]()
    terms = {tuple(0 for _ in fam.params): fam.base, **fam.terms}
    for x in terms.values():
        for y in terms.values():
            assert cyclic_compose(x, y) == compose_defect(BracketTerm.of(x), BracketTerm.of(y))
    jac, want = fam.jacobiator(), scan_jacobiator(fam)
    assert jac == want and list(jac) == list(want)
    assert bool(jac) == (family == "random")


def _non_lie_hp22():
    """h'_Pi(2;2,2) without its grading and with one extra term in [q, p*q]."""
    sc = {pr: dict(row) for pr, row in HP.sc.items()}
    sc[(0, 3)][5] = 1
    return Algebra(GF2, HP.labels, sc, name="broken hp22", meta=HP.meta)


def test_obstruction_poly_refuses_a_non_lie_base():
    bad = _non_lie_hp22()
    assert not bad.validate().ok
    with pytest.raises(AlgebraError, match="fails Jacobi at"):
        obstruction_poly(deform_bracket(bad, Cochain2(bad, {})))


def test_deform_cocycle_on_a_non_lie_base_is_a_usage_error_under_python_dash_O(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(_non_lie_hp22().dumps())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-m", "gf2lie", "deform", "cocycle", "--algebra", str(path),
                          "--cocycle", ""], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 1 and out.stdout == ""
    assert "fails Jacobi at" in out.stderr


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
