import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gf2lie import deform, gf2
from gf2lie.cohomology import (C3Index, Cochain2, combine, compute_h2, cyclic_compose_table, d2, is_coboundary,
                               parse_cocycle, weight_block)
from gf2lie.constructions import (build_classical, build_hI, build_hamiltonian, build_jurman, build_kap4B,
                                  build_poisson, jurman_bracket, pq_names)
from gf2lie.deform import (DeformFamily, bracket_map_cochain,
                           defect, deform_bracket, integrability_verdict, jurman_cocycle,
                           jurman_deform_check, kap4b_as_deform, kap4b_family,
                           kap4b_quotient_map, obstruction_poly, partial_matrix,
                           poisson_family, semitrivial_certificate,
                           zero_defect_representative)
from gf2lie.divpow import mono_mul, mono_text, monomials
from gf2lie.experiments import HI_OUTER_DEGREES
from gf2lie.fields import GF2, GF2k, Scalar
from gf2lie.isom import search_isomorphism
from gf2lie.liealg import (Algebra, AlgebraError, LinearMap, Subspace, cyclic_compose, derived_subalgebra, quotient,
                           verify_morphism)
from test_cohomology import _dense_d2, _loop_algebra_incidence, _loop_cochain_incidence, d1, ordered_incidence
from test_liealg import _loop_subalgebra_on

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


def _xor_rows(g, c):
    """The GF(2) rows of the bracket mu + c, zero masks dropped."""
    rows = {ab: g.rows.get(ab, 0) ^ c.terms.get(ab, 0) for ab in {**g.rows, **c.terms}}
    return {ab: m for ab, m in rows.items() if m}


def scan_jacobiator(base, terms):
    """{power k: the h^k part of the Jacobiator of base + sum_a h^a terms[a]},
    nonzero parts only, each pair of terms composed by the scan."""
    maps = {0: BracketTerm.of(base), **{a: BracketTerm.of(c) for a, c in terms.items()}}
    out = {}
    for a in maps:
        for b in maps:
            out[a + b] = add3(out.get(a + b, {}), compose_defect(maps[a], maps[b]))
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


def jurman_united_family(K):
    """All Jurman algebras j(g,h) with g + h = K as one bracket linear in
    several parameters: (base, {(g, h): cochain}).

    The even part Y(0) and its action on the odd part Y(1) do not depend
    on the partition; only the odd-odd brackets do.  The base takes
    [odd, odd] = 0, and each partition contributes its odd-odd part as
    one parameter direction.
    """
    partitions = [(g, K - g) for g in range(2, K)]
    sc, odd = None, []
    for g, h in partitions:
        j = build_jurman(g, h)  # basis index a holds a Y(a & 1)
        even = {ab: w for ab, w in j.rows.items() if not ab[0] & ab[1] & 1}
        assert sc is None or sc == even, "even/mixed brackets must not depend on the partition"
        sc = even
        odd.append({ab: w for ab, w in j.rows.items() if ab[0] & ab[1] & 1})
    base = Algebra.from_gf2_rows(j.labels, sc, name="jurman united base")
    return base, {p: Cochain2(base, ct) for p, ct in zip(partitions, odd)}


def _random_family():
    """Two random cochains of h'_Pi(2;2,2) at h and h^2: a Jacobiator with
    several nonzero powers, to pin their order."""
    rng = random.Random(7)
    return DeformFamily(HP, {1: _random_cochain(HP, rng), 2: _random_cochain(HP, rng)})


FAMILIES = {
    "kap4b1": lambda: kap4b_family(1),
    "kap4b2": lambda: kap4b_family(2),
    "random": _random_family,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_jacobiator_matches_the_scan(family):
    fam = FAMILIES[family]()
    terms = {0: fam.base, **fam.terms}
    for x in terms.values():
        for y in terms.values():
            assert cyclic_compose(x, y) == compose_defect(BracketTerm.of(x), BracketTerm.of(y))
    jac, want = fam.jacobiator(), scan_jacobiator(fam.base, fam.terms)
    assert jac == want and list(jac) == sorted(want)
    # kap4b's h and h^2 terms make a Lie bracket at every h; the random ones,
    # no cocycles, fail at h, h^2 and h^3 (their h^4 part r_2∘r_2 is zero)
    assert list(jac) == ([1, 2, 3] if family == "random" else [])


def _base_and_cochains(family):
    if family.startswith("jurman"):
        base, terms = jurman_united_family(int(family[-1]))
    else:
        fam = FAMILIES[family]()
        base, terms = fam.base, fam.terms
    return base, list(terms.values())


@pytest.mark.parametrize("family", ["jurman3", "jurman4"] + sorted(FAMILIES))
def test_family_incidence_matches_both_builders(family):
    base, cochains = _base_and_cochains(family)
    assert ordered_incidence(base.incidence()) == ordered_incidence(_loop_algebra_incidence(base))
    for c in cochains:
        assert ordered_incidence(c.incidence()) == ordered_incidence(_loop_cochain_incidence(c))


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
    alg0 = fam.specialize(GF2.zero)
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
    rep2 = obstruction_poly(deform_bracket(c.algebra, c))
    assert rep2.verdict == "linear-global"
    # constant term of the Jacobiator always vanishes; linear term vanishes
    # exactly when the cochain is a cocycle
    fam = DeformFamily(HP, {1: bracket_map_cochain(HP, partial_matrix(HP, 1, 1))})
    jac = fam.jacobiator()
    assert 0 not in jac
    assert 1 not in jac  # it is a cocycle
    assert 2 in jac      # quadratic defect is nonzero for this one


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
        base, terms = jurman_united_family(K)
        # linear in its parameters t_p, so Lie at every value iff each base + h c_p
        # is Lie at every h and each cross term c_p∘c_q + c_q∘c_p (p != q) vanishes
        assert not any(scan_jacobiator(base, {1: c}) for c in terms.values())
        maps = [BracketTerm.of(c) for c in terms.values()]
        for i, x in enumerate(maps):
            for y in maps[i + 1:]:
                assert not add3(compose_defect(x, y), compose_defect(y, x))
        for (g, h), c in terms.items():
            assert _xor_rows(base, c) == build_jurman(g, h).rows


def _dense_united_family(K):
    """jurman_united_family with its dense jurman_bracket pair loops, kept as
    an oracle for the family read off the build_jurman rows: (base, terms)."""
    partitions = [(g, K - g) for g in range(2, K)]
    kmax = 1 << K
    js = list(range(-1, kmax - 2))
    basis = [(j, t) for j in js for t in (0, 1)]
    index = {bt: i for i, bt in enumerate(basis)}
    sc = {}
    for a in range(len(basis)):
        ja, ta = basis[a]
        for b in range(a + 1, len(basis)):
            jb, tb = basis[b]
            if ta and tb:
                continue  # odd-odd lives in the parameter directions
            c, m, par = jurman_bracket(ja, ta, jb, tb, *partitions[0])
            c2 = jurman_bracket(ja, ta, jb, tb, *partitions[-1])[0]
            assert c == c2, "even/mixed brackets must not depend on the partition"
            if c:
                sc[(a, b)] = {index[(m, par)]: 1}
    base = Algebra(GF2, ["Y%d(%d)" % bt for bt in basis], sc, name="jurman united base")
    terms = {}
    for t_idx, (g, h) in enumerate(partitions):
        ct = {}
        for a in range(len(basis)):
            ja, ta = basis[a]
            if not ta:
                continue
            for b in range(a + 1, len(basis)):
                jb, tb = basis[b]
                if not tb:
                    continue
                c, m, par = jurman_bracket(ja, ta, jb, tb, g, h)
                if c:
                    ct[(a, b)] = ct.get((a, b), 0) ^ (1 << index[(m, par)])
        terms[(g, h)] = Cochain2(base, ct)
    return base, terms


@pytest.mark.parametrize("K", [3, 4, 5])
def test_jurman_united_family_matches_the_dense_loops(K):
    new_base, new_terms = jurman_united_family(K)
    base, terms = _dense_united_family(K)
    assert new_base.dumps() == base.dumps()
    assert list(new_base.sc.items()) == list(base.sc.items())
    assert list(new_terms) == list(terms)
    for p, c in terms.items():
        assert list(new_terms[p].terms.items()) == list(c.terms.items()), p


def test_zero_defect_representatives_exist_gh21():
    for w in [(4, -2), (0, -4), (2, 0), (0, -2), (-2, -2)]:
        blk = compute_h2(HP, weight_filter=w, mode="z")
        rep = zero_defect_representative(HP, blk.representatives[0], [("z", w)])
        assert rep is not None, w
        assert not defect(rep)
        assert not is_coboundary(rep)


# ---------------------------------------------------------------------------
# the zero-defect search before cyclic_compose_table, kept as an oracle: one
# cyclic_compose dict per pair of cochains, each encoded, and a Gray walk
# that XORs O(B) table entries per step
# ---------------------------------------------------------------------------

def _gray_steps(nbits):
    """Consecutive Gray-code pairs covering all 2^nbits values from 0."""
    prev = 0
    for t in range(1, 1 << nbits):
        cur = t ^ (t >> 1)
        yield prev, cur
        prev = cur


def _pairwise_table(cbs, c, c3):
    """(defect of c, cross terms of each b_i with c, {(i, j): the x_i x_j part}),
    each a cyclic_compose dict encoded through c3."""
    d_b = {}
    for i in range(len(cbs)):
        d_b[(i, i)] = defect(cbs[i])
        for j in range(i + 1, len(cbs)):
            d_b[(i, j)] = cyclic_compose(cbs[j], cbs[i], cyclic_compose(cbs[i], cbs[j]))
    cross = [cyclic_compose(b, c, cyclic_compose(c, b)) for b in cbs]
    return (c3.encode(defect(c)), [c3.encode(x) for x in cross],
            {k: c3.encode(d_b[k]) for k in sorted(d_b)})


def _pairwise_walk(enc_dc, enc_cross, enc_q, B):
    """The first zero of the encoded defect in Gray order from 0, or None."""
    if not enc_dc:
        return 0
    acc, cur = enc_dc, 0
    for g_prev, g_next in _gray_steps(B):
        t = g_prev ^ g_next
        i = t.bit_length() - 1
        delta = enc_cross[i] ^ enc_q[(i, i)]
        for j in gf2.bits(cur & ~t):
            a, b = (i, j) if i < j else (j, i)
            delta ^= enc_q[(a, b)]
        acc ^= delta
        cur = g_next
        if not acc:
            return cur
    return None


def _pairwise_zero_defect_representative(g, c, constraints):
    if not defect(c):
        return c
    cbs = weight_block(g, constraints).coboundaries
    x = _pairwise_walk(*_pairwise_table(cbs, c, C3Index(g.dim)), len(cbs))
    return None if x is None else combine(cbs, x, c)


HI = build_hI(2, (2, 2))


def _search_cases():
    """(name, algebra, cochain, constraints): every representative of the five
    h_I outer-degree blocks, the 15 class sums of the degree -2 block, and
    every representative of the h'_Pi(2;2,2) z-blocks that carry a printed class."""
    cases = []
    for d in sorted(HI_OUTER_DEGREES):
        cons = [("mod2", (0, 0)), ("outer", (d,))]
        reps = compute_h2(HI, constraints=cons).representatives
        cases += [("hI outer %d rep %d" % (d, t), HI, rep, cons) for t, rep in enumerate(reps)]
        if d == -2:
            cases += [("hI outer -2 class %d" % cls, HI, combine(reps, cls, Cochain2(HI, {})), cons)
                      for cls in range(1, 1 << len(reps))]
    for w in [(4, -2), (0, -4), (2, 0), (0, -2), (-2, -2)]:
        reps = compute_h2(HP, weight_filter=w, mode="z").representatives
        cases += [("hp22 z %r rep %d" % (w, t), HP, rep, [("z", w)]) for t, rep in enumerate(reps)]
    return cases


SEARCH_CASES = _search_cases()


def test_search_cases_cover_the_criterion_8_class_sums():
    assert sum("class" in name for name, _, _, _ in SEARCH_CASES) == 15
    assert sum(name.startswith("hI outer") and "rep" in name for name, _, _, _ in SEARCH_CASES) == \
        sum(HI_OUTER_DEGREES.values())


@pytest.mark.parametrize("name, g, c, cons", SEARCH_CASES, ids=[case[0] for case in SEARCH_CASES])
def test_zero_defect_representative_matches_the_pairwise_search(name, g, c, cons):
    assert zero_defect_representative(g, c, cons) == _pairwise_zero_defect_representative(g, c, cons)


@pytest.mark.parametrize("name, g, c, cons", [case for case in SEARCH_CASES if defect(case[2])],
                         ids=[case[0] for case in SEARCH_CASES if defect(case[2])])
def test_compose_table_matches_the_pairwise_compositions(name, g, c, cons):
    cbs = weight_block(g, cons).coboundaries
    c3 = C3Index(g.dim)
    q = cyclic_compose_table(cbs + [c], c3)
    width = len(c3.positions)
    enc_dc, enc_cross, enc_q = _pairwise_table(cbs, c, c3)
    assert len(c3.positions) == width  # the table met every coordinate the compositions hold
    B = len(cbs)
    assert q[B][B] == enc_dc
    assert [q[i][B] for i in range(B)] == enc_cross
    assert {(i, j): q[i][j] for i in range(B) for j in range(i, B)} == enc_q
    assert not any(q[j][i] for i in range(B + 1) for j in range(i + 1, B + 1))


def _random_system(rng, B, width):
    """A random (B+1)×(B+1) upper-triangular table of width-bit masks."""
    return [[rng.getrandbits(width) if i <= j else 0 for j in range(B + 1)] for i in range(B + 1)]


def _value(q, x):
    """The quadratic map of the table q at x, summed term by term."""
    B = len(q) - 1
    acc = q[B][B]
    for i in gf2.bits(x):
        acc ^= q[i][i] ^ q[i][B]
        for j in gf2.bits(x >> i + 1):
            acc ^= q[i][i + 1 + j]
    return acc


@pytest.mark.parametrize("B", range(13))
def test_first_zero_matches_the_pairwise_walk_on_random_systems(B):
    rng = random.Random(4099 + B)
    found = missed = 0
    for trial in range(12):
        q = _random_system(rng, B, rng.randint(1, B + 3))
        if trial % 4 == 3:  # a bit only the constant carries: no zero anywhere
            q[B][B] |= 1 << 40
        walk = _pairwise_walk(q[B][B], [q[i][B] for i in range(B)],
                              {(i, j): q[i][j] for i in range(B) for j in range(i, B)}, B)
        first = next((t ^ t >> 1 for t in range(1 << B) if not _value(q, t ^ t >> 1)), None)
        assert deform._first_zero(q) == walk == first, (B, trial)
        found += first is not None
        missed += first is None
    assert missed >= 3 and (found or B < 2)


def test_a_representative_with_a_defect_is_refused(monkeypatch):
    """The zero-defect search certifies its hit by recomputing the defect, so a
    wrong hit raises AlgebraError, under python -O too, instead of being
    reported as linear-global."""
    blk = compute_h2(HP, weight_filter=(0, -2), mode="z")
    rep = blk.representatives[0]
    assert defect(rep) and zero_defect_representative(HP, rep, [("z", (0, -2))]) is not None
    monkeypatch.setattr(deform, "combine", lambda gens, mask, start: start)
    with pytest.raises(AlgebraError, match="nonzero defect"):
        zero_defect_representative(HP, rep, [("z", (0, -2))])
    with pytest.raises(AlgebraError, match="nonzero defect"):
        integrability_verdict(HP, rep, [("z", (0, -2))])


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


def test_a_fault_in_the_rescale_weight_propagates(monkeypatch):
    # the c_{0,-2} deform is certified by the torus rescale, whose weight
    # lookup may refuse a cochain with an AlgebraError only; any other
    # fault must reach the caller, not read as "no certificate"
    blk = compute_h2(HP, weight_filter=(0, -2), mode="z")
    rep = zero_defect_representative(HP, blk.representatives[0], [("z", (0, -2))])

    def broken(c, mode):
        raise RuntimeError("weight lookup broke")

    monkeypatch.setattr(deform, "cochain_weight", broken)
    with pytest.raises(RuntimeError, match="weight lookup broke"):
        semitrivial_certificate(deform_bracket(HP, rep), F4.gen())


def test_integrability_hI():
    hi = build_hI(2, (2, 2))
    cons = [("mod2", (0, 0)), ("outer", (-2,))]
    blk = compute_h2(hi, constraints=cons)
    verdicts = [integrability_verdict(hi, rep, cons)[0] for rep in blk.representatives]
    assert verdicts.count("linear-global") == 3
    assert len([v for v in verdicts if v != "linear-global"]) == 1


def test_integrable_nonlinear_carries_its_maurer_cartan_element(monkeypatch):
    """Criterion 8's one non-linear class: the closed tower's sum x = c + m_2 + ...
    solves d2(x) = defect(x), so mu + x is a Lie bracket; no single flipped
    bit of x does, and a tower whose sum fails the equation is refused."""
    hi = build_hI(2, (2, 2))
    cons = [("mod2", (0, 0)), ("outer", (-2,))]
    reps = compute_h2(hi, constraints=cons).representatives
    found = [(rep, *integrability_verdict(hi, rep, cons)) for rep in reps]
    (c, verdict, x), = [f for f in found if f[1] != "linear-global"]
    assert verdict == "integrable-nonlinear" and x and d2(x) == defect(x)
    assert Algebra.from_gf2_rows(hi.labels, _xor_rows(hi, x)).validate().ok
    for (i, j), w in x.terms.items():
        for k in gf2.bits(w):
            flipped = x + Cochain2(hi, {(i, j): 1 << k})
            assert d2(flipped) != defect(flipped), (i, j, k)
    tower = deform.massey_tower(hi, c, cons)
    assert list(tower) == list(range(1, len(tower) + 1)) and sum(tower.values(), Cochain2(hi, {})) == x
    top = max(tower)
    (i, j), w = next(iter(tower[top].terms.items()))
    bad = {**tower, top: tower[top] + Cochain2(hi, {(i, j): w & -w})}
    monkeypatch.setattr(deform, "massey_tower", lambda g, c, constraints: bad)
    with pytest.raises(AlgebraError, match="Maurer-Cartan"):
        integrability_verdict(hi, c, cons)


def test_massey_tower_asks_order_k_at_k_times_the_weight(monkeypatch):
    """Weights add under composition, so c∘c lies at twice the weight of c,
    reduced: for mod-2 weight (1, 0) that is (0, 0), not (1, 0)."""
    hi = build_hI(2, (2, 2))
    cons = [("mod2", (1, 0)), ("outer", (-3,))]
    blk = weight_block(hi, cons)
    c = next(c for c in map(blk.decode, blk.d2_span()[0].kernel) if defect(c))
    assert not d2(c) and [(mode, c.weight(mode)) for mode, _ in cons] == cons
    # every term e_l ⊗ d(e_i)^d(e_j)^d(e_k) of c∘c, by the monomial degrees mod 2
    monos = hi.meta["mono_degrees"]
    cc = cyclic_compose(c, c)
    assert cc and {tuple((a - b - e - f) % 2 for a, b, e, f in zip(monos[l], monos[i], monos[j], monos[k]))
                   for (i, j, k), v in cc.items() for l in gf2.bits(v)} == {(0, 0)}
    asked, solve = [], deform._d2_solutions
    monkeypatch.setattr(deform, "_d2_solutions", lambda g, t, cs, *a: asked.append(cs) or solve(g, t, cs, *a))
    deform.massey_tower(hi, c, cons)
    assert asked[0] == [("mod2", (0, 0)), ("outer", (-6,))]


def test_massey_tower_refuses_a_cochain_that_is_not_a_cocycle():
    hi = build_hI(2, (2, 2))
    c = parse_cocycle("q (x) d(q^(2))^d(p^(3)*q^(3)) + q^(2) (x) d(p*q^(3))^d(p^(2)*q^(3))", hi)
    assert d2(c)
    with pytest.raises(AlgebraError, match="the cochain is not a cocycle"):
        deform.massey_tower(hi, c)


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
    assert fam.specialize(GF2.one).sc == build_kap4B(4).sc
    assert fam.specialize(GF2.zero).sc == fam.base.sc


def test_coboundary_deform_is_trivial():
    # d1(multiplication by q) is a coboundary with zero defect; its linear
    # deform at t is certified isomorphic to the base
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
    c = d1(HP, [1 << i for i in range(HP.dim)])
    T = HP.pair_table()
    assert all(c.pair_value(i, j) == T[i * HP.dim + j] for i in range(HP.dim)
               for j in range(HP.dim) if i != j)
    rep = obstruction_poly(deform_bracket(HP, c))
    assert rep.verdict == "linear-global"


def test_quantization_deform_check_is_field_stably_distinguished():
    # the literal comparison the spec's op performs, read off criterion 9's
    # report: the linear deform by the (-2,-2) class is separated from psl(4)
    # by the derivation dimension (20 vs 21, for every representative of the
    # class), a rank and hence stable under any base field extension
    from gf2lie.experiments import criterion_09_quantization
    rep = criterion_09_quantization()
    assert rep["class_dim"] == 1 and rep["defect_zero"]
    assert rep["literal_verdict"] == "distinguished"
    assert rep["deform_fingerprint"]["derivation_dim"] == 20
    assert rep["psl_fingerprint"]["derivation_dim"] == 21
    assert rep["representative_derivation_dims"] == [20] * 4


def _row_commutator_quantization():
    """The operator quantization as first built: each x^(i) d^(j) a list of
    four row masks, flattened to a gl(4) mask, and Q's bracket the row
    commutator read back in operator coordinates.  Returns (Q's sc, cols)."""
    import math
    monos = build_poisson(1, (2, 2)).meta["mono_degrees"]

    def op_matrix(i, j):
        rows = [0] * 4
        for k in range(j, 4):
            tgt = k - j + i
            if tgt < 4 and math.comb(tgt, i) & 1:
                rows[k] |= 1 << tgt
        return rows

    def flatten(rows):
        return sum(r << (4 * k) for k, r in enumerate(rows))

    cols = [flatten(op_matrix(i, j)) for (i, j) in monos]
    inv = gf2.invert(cols, 16)
    sc = {}
    for a in range(16):
        for b in range(a + 1, 16):
            r1, r2 = op_matrix(*monos[a]), op_matrix(*monos[b])
            ab = [gf2.apply_rows(r1, br) for br in r2]
            ba = [gf2.apply_rows(r2, ar) for ar in r1]
            coords = gf2.apply_rows(inv, flatten([x ^ y for x, y in zip(ab, ba)]))
            if coords:
                sc[(a, b)] = {k: 1 for k in gf2.bits(coords)}
    return sc, cols


def test_quantized_po_is_gl4_on_the_operator_basis():
    from gf2lie.experiments import QPO
    Q = QPO()
    sc, cols = _row_commutator_quantization()
    assert Q.sc == sc and Q.labels == build_poisson(1, (2, 2)).labels
    # the grading is gl(4)'s column-minus-row degree, carried through cols
    gl4 = build_classical("gl", 4)
    assert all({gl4.grading[k] for k in gf2.bits(c)} == {Q.grading[a]} for a, c in enumerate(cols))
    assert Q.grading_mod == (0,)
    assert verify_morphism(LinearMap(Q, gl4, cols), "isomorphism")


def test_quantized_h_prime_meets_psl4_through_the_graded_engine():
    from gf2lie.experiments import QPO, quantization_realizes_psl
    Q = QPO()
    Qh = quotient(Q, Subspace(Q, [1]))
    Qd = _loop_subalgebra_on(Qh, derived_subalgebra(Qh))
    res = search_isomorphism(Qd, build_classical("psl", 4))
    assert res.kind == "iso" and res.engine == "zgraded"
    assert verify_morphism(res.map, "isomorphism")
    assert quantization_realizes_psl()["correction_weights"] == [(-2, -2), (-1, -1), (0, 0)]


# ---------------------------------------------------------------------------
# the dense basis-pair loops over tuple mono_mul that built the Jurman
# cocycle, the Kap4B cochains and the alpha-family, kept as oracles
# ---------------------------------------------------------------------------

def _dense_jurman_cocycle(g, h, mirrored=False):
    hp = build_hamiltonian(1, (g, h + 1), "derived")
    basis = hp.meta["mono_degrees"]
    index = {m: t for t, m in enumerate(basis)}
    N = hp.meta["N"]
    if not mirrored:
        mult, var = ((1 << g) - 1, 0), 1   # p^(eta), differentiate in q
    else:
        mult, var = (0, (1 << (h + 1)) - 1), 0  # q^(theta), differentiate in p
    terms = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            acc = 0
            for (da, db) in ((1, 2), (2, 1)):
                ma, mb = basis[a], basis[b]
                if ma[var] < da or mb[var] < db:
                    continue
                f1 = list(ma)
                f1[var] -= da
                f2 = list(mb)
                f2[var] -= db
                c1, m1 = mono_mul(tuple(f1), tuple(f2), N)
                if not c1:
                    continue
                c2, m2 = mono_mul(mult, m1, N)
                if c2 and m2 in index:
                    acc ^= 1 << index[m2]
            if acc:
                terms[(a, b)] = acc
    return Cochain2(hp, terms)


def _dense_kap4b_cochain(po, m, shifts):
    """The cochain sum d_u f d_v g times each shift: a tuple of 0 (p_i) and 1 (q_i)."""
    basis = po.meta["mono_degrees"]
    N = po.meta["N"]
    index = {mm: t for t, mm in enumerate(basis)}
    terms = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            acc = 0
            for t in range(m):
                pi, qi = 2 * t, 2 * t + 1
                for (u, v) in ((pi, qi), (qi, pi)):
                    ma, mb = basis[a], basis[b]
                    if ma[u] == 0 or mb[v] == 0:
                        continue
                    da = list(ma)
                    da[u] -= 1
                    db = list(mb)
                    db[v] -= 1
                    c1, mm = mono_mul(tuple(da), tuple(db), N)
                    if not c1:
                        continue
                    for shift in shifts:
                        m2 = list(mm)
                        for w in shift:
                            m2[pi if w == 0 else qi] += 1
                        if max(m2) <= 1:
                            acc ^= 1 << index[tuple(m2)]
            if acc:
                terms[(a, b)] = acc
    return Cochain2(po, terms)


def _dense_kap4b_family(m):
    po = build_poisson(m, (1,) * (2 * m))
    # (1 + h p)(1 + h q) = 1 + h (p + q) + h^2 p q
    return DeformFamily(po, {1: _dense_kap4b_cochain(po, m, [(0,), (1,)]),
                             2: _dense_kap4b_cochain(po, m, [(0, 1)])})


def _dense_poisson_family(m_pairs, N, alpha):
    field = alpha.field
    monos = monomials(N)
    index = {m: t for t, m in enumerate(monos)}
    names = pq_names(m_pairs)
    sc = {}

    def dalpha(m, v):
        """(coefficient, monomial) of D_alpha,v on a monomial."""
        coeff = 0 if m[v] == 0 else field.one.value if (m[v] & 1) else alpha.value
        if not coeff:
            return 0, None
        return coeff, m[:v] + (m[v] - 1,) + m[v + 1:]

    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            row = {}
            for t in range(m_pairs):
                for (u, v) in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t)):
                    ca, ma = dalpha(monos[a], u)
                    cb, mb = dalpha(monos[b], v)
                    if not ca or not cb:
                        continue
                    c2, mm = mono_mul(ma, mb, N)
                    if not c2:
                        continue
                    k = index[mm]
                    s = field.add(row.get(k, 0), field.mul(ca, cb))
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
            if row:
                sc[(a, b)] = row
    return Algebra(field, [mono_text(m, names) for m in monos], sc,
                   name="po_Pi(%d;%s)@alpha=%r" % (2 * m_pairs, list(N), alpha),
                   meta={"vars": tuple(names), "N": N, "mono_degrees": monos})


@pytest.mark.parametrize("g, h, mirrored", [(2, 1, False), (2, 2, False), (2, 2, True), (3, 1, False),
                                            (3, 1, True), (2, 3, False), (3, 2, True), (4, 1, False)])
def test_jurman_cocycle_matches_the_dense_loop(g, h, mirrored):
    new, old = jurman_cocycle(g, h, mirrored), _dense_jurman_cocycle(g, h, mirrored)
    assert new.algebra.dumps() == old.algebra.dumps()
    assert list(new.terms.items()) == list(old.terms.items())  # insertion order included


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kap4b_family_matches_the_dense_loop(m):
    new, old = kap4b_family(m), _dense_kap4b_family(m)
    assert list(new.terms) == list(old.terms)
    for mono in old.terms:
        assert list(new.terms[mono].terms.items()) == list(old.terms[mono].terms.items()), mono


@pytest.mark.parametrize("m", [1, 2])
def test_dense_kap4b_family_at_one_is_kap4b(m):
    # built apart from kap4B_images, so this does not compare build_kap4B with itself
    assert _dense_kap4b_family(m).specialize(GF2.one).sc == build_kap4B(2 * m).sc


F8 = GF2k(3)
POISSON_ALPHAS = [(GF2, 0), (GF2, 1), (F4, 2), (F4, 1), (F4, 3), (F4, 0), (F8, 2)]
# (pairs, N): the alpha-family shapes, also checked by the F_alpha and reindex tests of test_divpow
POISSON_SHAPES = [(1, (1, 1)), (1, (2, 2)), (1, (2, 3)), (1, (3, 1)), (2, (1, 1, 1, 1)), (2, (2, 1, 1, 2))]


@pytest.mark.parametrize("field, a", POISSON_ALPHAS, ids=lambda x: repr(x))
@pytest.mark.parametrize("m, N", POISSON_SHAPES)
def test_poisson_family_matches_the_dense_loop(m, N, field, a):
    new, old = poisson_family(m, N, Scalar(field, a)), _dense_poisson_family(m, N, Scalar(field, a))
    # the rows agree as dicts; the item order inside a row may differ where
    # terms of different alpha powers meet
    assert new.dumps() == old.dumps()
    assert list(new.sc) == list(old.sc) and new.sc == old.sc
