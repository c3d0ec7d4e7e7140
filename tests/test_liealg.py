import random

import pytest

from gf2lie import gf2
from gf2lie.constructions import (build_classical, build_hamiltonian, build_hI, build_jurman,
                                  build_kap1, build_kap2, build_kap4A, build_kap4B, build_poisson,
                                  build_tensor_example)
from gf2lie.fields import GF2, GF2k
from gf2lie.liealg import (Algebra, AlgebraError, LinearMap, Subspace, ValidationReport,
                           center, check_invariant_form, compute_h1_dim, derivation_dim,
                           derivation_equations, derivations, derived_subalgebra, direct_sum,
                           ideal_generated, quotient, simplicity_check, subalgebra_on,
                           verify_morphism)


def test_alternation_enforced():
    with pytest.raises(AlgebraError):
        Algebra(GF2, ["a", "b"], {(0, 0): {1: 1}})


def test_grading_check_names_the_first_violation():
    # Z/3 x Z weights; [b, c] = a + d breaks the grading at a, [a, c] = d at d
    labels = ["a", "b", "c", "d"]
    grading = [(1, 0), (2, 1), (0, 1), (5, 2)]
    sc = {(1, 2): {3: 1, 0: 1}, (0, 2): {3: 1}, (0, 1): {2: 1}}
    with pytest.raises(AlgebraError) as err:
        Algebra(GF2, labels, sc, grading=grading, grading_mod=(3, 0))
    assert str(err.value) == "grading not respected by bracket, e.g. (1, 2, 0, (2, 2), (1, 0))"
    del sc[(1, 2)]
    with pytest.raises(AlgebraError) as err:
        Algebra(GF2, labels, sc, grading=grading, grading_mod=(3, 0))
    assert str(err.value) == "grading not respected by bracket, e.g. (0, 2, 3, (1, 1), (2, 2))"
    del sc[(0, 2)]
    assert Algebra(GF2, labels, sc, grading=grading, grading_mod=(3, 0)).grading == grading


def test_validate_passes_and_detects_flips():
    po = build_poisson(1, (1, 1))
    assert po.dim == 4
    assert po.validate().ok
    # flip one structure constant ([p, pq]: p -> q): Jacobi fails on a triple
    sc = {k: dict(v) for k, v in po.sc.items()}
    labels = po.labels
    i, j = sorted((labels.index("p"), labels.index("p*q")))
    sc[(i, j)] = {labels.index("q"): 1}
    broken = Algebra(GF2, po.labels, sc, name="broken")
    rep = broken.validate()
    assert not rep.ok and rep.jacobi_failures


def test_subalgebra_on_rejects_a_subspace_not_bracket_closed():
    po = build_poisson(1, (1, 1))
    e = {name: 1 << i for i, name in enumerate(po.labels)}
    sub = Subspace(po, [e["p"], e["q"] ^ e["p*q"]])
    # [p, q + pq] = 1 + p carries the pivot bit of the row p, and 1 lies outside
    w = po.bracket(e["p"], e["q"] ^ e["p*q"])
    assert w == e["1"] ^ e["p"] and w & sub.span.mask and w not in sub
    with pytest.raises(AlgebraError, match="subspace is not bracket-closed"):
        subalgebra_on(po, sub)
    closed = subalgebra_on(po, Subspace(po, [e["p"], e["q"] ^ e["p*q"], e["1"]]))
    assert closed.dim == 3 and closed.validate().ok


# ---------------------------------------------------------------------------
# the full triple sweep, kept as an oracle for the reach-indexed one
# ---------------------------------------------------------------------------

def _dense_jacobi_failures(g, max_report):
    n = g.dim
    T = g.pair_table()
    fails = []
    for i in range(n):
        Ti = T[i * n:]
        for j in range(i + 1, n):
            Tj = T[j * n:]
            for k in range(j + 1, n):
                acc = 0
                for l in gf2.bits(Ti[j]):
                    acc ^= T[l * n + k]
                for l in gf2.bits(Tj[k]):
                    acc ^= Ti[l]
                for l in gf2.bits(Ti[k]):
                    acc ^= Tj[l]
                if acc:
                    fails.append((i, j, k))
                    if len(fails) >= max_report:
                        return fails
    return fails


def _perturbed(g, rng):
    """g with one to four structure constants flipped, ungraded."""
    n = g.dim
    sc = {pr: dict(row) for pr, row in g.sc.items()}
    for _ in range(rng.randint(1, 4)):
        pr = rng.choice(sorted(sc)) if rng.random() < 0.7 else tuple(sorted(rng.sample(range(n), 2)))
        row = sc.setdefault(pr, {})
        k = rng.randrange(n)
        if row.pop(k, None) is None:
            row[k] = 1
    return Algebra(GF2, g.labels, sc, name="perturbed")


JACOBI_ORACLE_ALGEBRAS = {
    "hp22": build_hamiltonian(1, (2, 2), "derived"),
    "hI": build_hI(2, (2, 2)),
    "j21": build_jurman(2, 1),
    "kap2_4": build_kap2(4),
}


@pytest.mark.parametrize("name", sorted(JACOBI_ORACLE_ALGEBRAS))
def test_validate_matches_dense_sweep(name):
    g = JACOBI_ORACLE_ALGEBRAS[name]
    rng = random.Random(sum(map(ord, name)))
    cases = [g] + [_perturbed(g, rng) for _ in range(40)]
    assert any(not h.validate().ok for h in cases)
    for h in cases:
        for max_report in (1, 5, 10 ** 9):
            rep = h.validate(max_report=max_report)
            want = ValidationReport()
            want.jacobi_failures = _dense_jacobi_failures(h, max_report)
            assert rep.jacobi_failures == want.jacobi_failures
            assert rep.summary() == want.summary()


def test_tensor_example_validates():
    ex = build_tensor_example()
    assert ex.dim == 4 and ex.validate().ok
    t = GF2k(2).gen()
    exd = build_tensor_example(t)
    assert exd.validate().ok


def test_derived_subalgebra():
    ab = Algebra(GF2, ["a", "b"], {})
    assert derived_subalgebra(ab).dim == 0
    h = build_hamiltonian(1, (2, 2))
    assert h.dim == 15
    assert derived_subalgebra(h).dim == 14


def test_center_examples():
    po = build_poisson(1, (1, 1))
    c = center(po)
    assert c.dim == 1 and 1 in c.span  # the constants
    assert center(build_kap2(4)).dim == 0
    k4b = build_kap4B(2)
    assert 1 in center(k4b).span  # constants are central


def test_quotient():
    po = build_poisson(1, (2, 2))
    h = quotient(po, Subspace(po, [1]))
    assert h.dim == 15 and h.validate().ok
    # quotient by the zero subspace is the algebra itself
    g0 = quotient(po, Subspace(po))
    assert g0.dim == po.dim and g0.sc == po.sc
    # non-ideal subspaces are rejected
    with pytest.raises(AlgebraError):
        quotient(po, Subspace(po, [1 << 1]))


def test_quotient_of_derived_is_abelian():
    for g in [build_poisson(1, (2, 2)), build_jurman(2, 1)]:
        q = quotient(g, derived_subalgebra(g)) if derived_subalgebra(g).is_ideal() else None
        if q is not None:
            assert not q.sc


def test_ideal_generated():
    j = build_jurman(2, 1)
    assert ideal_generated(j, 1).dim == j.dim  # simple: any seed spins up
    po = build_poisson(1, (1, 1))
    assert ideal_generated(po, 1).dim == 1  # central seed
    # a next-to-top monomial of po(2;(2,2)) spins a proper ideal holding
    # the constants (the top itself spins the entire space)
    po2 = build_poisson(1, (2, 2))
    idx = {m: t for t, m in enumerate(po2.meta["mono_degrees"])}
    sp = ideal_generated(po2, 1 << idx[(3, 2)])
    assert sp.dim == 15 < po2.dim and 1 in sp.span
    assert ideal_generated(po2, 1 << idx[(3, 3)]).dim == po2.dim
    # the output is always an ideal: bracketing stays inside
    assert sp.is_ideal()


def test_simplicity_check():
    assert simplicity_check(build_jurman(2, 1)).kind == "simple"
    v = simplicity_check(build_poisson(1, (1, 1)))
    assert v.kind == "ideal-witness"
    # large algebra goes through the randomized path
    v2 = simplicity_check(build_kap2(6), random_seeds=50)
    assert v2.kind == "probable-simple"
    # a direct sum is caught with one summand as the witness
    v3 = simplicity_check(build_kap4A(4, 0))
    assert v3.kind == "ideal-witness" and v3.witness.dim == 3


# ---------------------------------------------------------------------------
# spinning every seed in full, kept as an oracle for the settled-seed stop
# ---------------------------------------------------------------------------

def _full_spin_simplicity(g, random_seeds=1000, exhaustive_dim=20, rng_seed=0):
    """(kind, seeds_tried, witness rows) from ideal_generated on every seed."""
    n = g.dim
    if n <= exhaustive_dim:
        seeds, kind = list(range(1, 1 << n)), "simple"
    else:
        rng = random.Random(rng_seed)
        seeds = [1 << i for i in range(n)] + [rng.getrandbits(n) or 1 for _ in range(random_seeds)]
        kind = "probable-simple"
    for count, seed in enumerate(seeds, 1):
        sp = ideal_generated(g, seed)
        if sp.dim < n:
            return "ideal-witness", count, sp.rows()
    return kind, len(seeds), None


def _random_alternating(n, density, rng):
    """An alternating GF(2) table, Jacobi not imposed: spinning needs none."""
    sc = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {k: 1 for k in range(n) if rng.random() < density}
            if row:
                sc[(i, j)] = row
    return Algebra(GF2, ["e%d" % i for i in range(n)], sc, name="random")


SPIN_ORACLE_ALGEBRAS = {
    "j21": lambda: build_jurman(2, 1),
    "kap1_4": lambda: build_kap1(4),
    "kap4A_4_0": lambda: build_kap4A(4, 0),
    "kap4A_4_1": lambda: build_kap4A(4, 1),
    "po_11": lambda: build_poisson(1, (1, 1)),
    "po_22": lambda: build_poisson(1, (2, 2)),
    "kap2_4": lambda: build_kap2(4),
}


def _verdict_rows(v):
    return v.kind, v.seeds_tried, v.witness.rows() if v.witness is not None else None


@pytest.mark.parametrize("name", sorted(SPIN_ORACLE_ALGEBRAS))
def test_simplicity_check_matches_full_spins_on_paper_algebras(name):
    g = SPIN_ORACLE_ALGEBRAS[name]()
    assert _verdict_rows(simplicity_check(g)) == _full_spin_simplicity(g)
    assert (_verdict_rows(simplicity_check(g, random_seeds=200, exhaustive_dim=1, rng_seed=5))
            == _full_spin_simplicity(g, random_seeds=200, exhaustive_dim=1, rng_seed=5))


def test_simplicity_check_matches_full_spins_on_random_tables():
    rng = random.Random(2024)
    kinds = set()
    for n in range(2, 10):
        for density in (0.05, 0.15, 0.3, 0.6):
            for _ in range(6):
                g = _random_alternating(n, density, rng)
                for kw in ({}, {"exhaustive_dim": 1, "random_seeds": 40, "rng_seed": n}):
                    want = _full_spin_simplicity(g, **kw)
                    assert _verdict_rows(simplicity_check(g, **kw)) == want, (n, density, kw, g.sc)
                    kinds.add(want[0])
    assert kinds == {"simple", "probable-simple", "ideal-witness"}


def test_verify_morphism_identity_and_zero():
    j = build_jurman(2, 1)
    ident = LinearMap(j, j, [1 << i for i in range(j.dim)])
    assert verify_morphism(ident, "isomorphism")
    crushed = LinearMap(j, j, [0] + [1 << i for i in range(1, j.dim)])
    assert not verify_morphism(crushed, "isomorphism")


def test_derivation_dim_basics():
    ab = Algebra(GF2, ["a"], {})
    assert derivation_dim(ab) == 1
    two = Algebra(GF2, ["a", "b"], {})
    assert derivation_dim(two) == 4
    j = build_jurman(2, 1)
    assert derivation_dim(j) == 20  # golden, fixed by the kernel computation
    g = build_kap4A(2, 1)
    assert derivation_dim(direct_sum(g, g)) >= 2 * derivation_dim(g)


# ---------------------------------------------------------------------------
# the O(n) scan per equation row, kept as an oracle for the neighbour-list one
# ---------------------------------------------------------------------------

def _dense_derivation_equations(g):
    n = g.dim
    T = g.pair_table()
    eqs = []
    for i in range(n):
        for j in range(i + 1, n):
            w = T[i * n + j]
            for l in range(n):
                row = 0
                for k in gf2.bits(w):
                    row ^= 1 << (l * n + k)
                for k in range(n):
                    if (T[k * n + j] >> l) & 1:
                        row ^= 1 << (k * n + i)
                    if (T[i * n + k] >> l) & 1:
                        row ^= 1 << (k * n + j)
                if row:
                    eqs.append(row)
    return eqs


def _dense_derivations(g):
    n = g.dim
    out = []
    for x in gf2.kernel(_dense_derivation_equations(g), n * n):
        images = [0] * n
        for q in gf2.bits(x):
            k, i = divmod(q, n)
            images[i] |= 1 << k
        out.append(images)
    return out


_o3 = build_classical("oPi", 3, "derived")
DERIVATION_ORACLE_ALGEBRAS = {
    "j21": build_jurman(2, 1),
    "j31": build_jurman(3, 1),
    "kap1_4": build_kap1(4),
    "oPi5": build_classical("oPi", 5, "derived"),
    "hp22": build_hamiltonian(1, (2, 2), "derived"),
    # the centre c has an empty neighbour list
    "oPi3+c": direct_sum(_o3, Algebra(GF2, ["c"], {}, name="c")),
}


@pytest.mark.parametrize("name", sorted(DERIVATION_ORACLE_ALGEBRAS))
def test_derivations_match_dense_equations(name):
    g = DERIVATION_ORACLE_ALGEBRAS[name]
    rng = random.Random(sum(map(ord, name)))
    for h in [g] + [_perturbed(g, rng) for _ in range(3)]:
        assert derivation_equations(h) == _dense_derivation_equations(h)
        assert derivations(h) == _dense_derivations(h)


def test_compute_h1_dim():
    j = build_jurman(2, 1)
    z1, b1, h1 = compute_h1_dim(j)
    assert (z1, b1, h1) == (20, 14, 6)  # golden triple
    ab = Algebra(GF2, ["a", "b"], {})
    assert compute_h1_dim(ab) == (4, 0, 4)


def test_invariant_form_kap2():
    g = build_kap2(4)
    K = [1 << i for i in range(g.dim)]  # delta form
    ok, deficit = check_invariant_form(g, K)
    assert ok and deficit == 0
    zero = [0] * g.dim
    ok0, deficit0 = check_invariant_form(g, zero)
    assert ok0 and deficit0 == g.dim


def test_berezin_form_invariant():
    # K(f,g) = coefficient of the highest term of fg, on h'_Pi(2;(2,2))
    hp = build_hamiltonian(1, (2, 2), "derived")
    monos = hp.meta["mono_degrees"]
    N = hp.meta["N"]
    top = tuple((1 << n) - 1 for n in N)
    from gf2lie.divpow import mono_mul
    K = []
    for a in monos:
        row = 0
        for t, b in enumerate(monos):
            c, m = mono_mul(a, b, N)
            if c and m == top:
                row |= 1 << t
        K.append(row)
    ok, deficit = check_invariant_form(hp, K)
    assert ok and deficit == 0


def test_json_roundtrip():
    for g in [build_jurman(2, 1), build_kap4B(4), build_tensor_example(GF2k(2).gen())]:
        d = g.to_json()
        g2 = Algebra.from_json(d)
        assert g2.dim == g.dim and g2.sc == g.sc
        assert g.dumps() == g2.dumps()  # byte stable


def test_specialize_polyring():
    from gf2lie.fields import PolyRing, Scalar
    from gf2lie.liealg import specialize
    R = PolyRing()
    h = R.gen()
    g = Algebra(R, ["a", "b", "c"], {(0, 1): {2: h.value}})
    f4 = GF2k(2)
    t = f4.gen()
    sp = specialize(g, t)
    assert sp.field is f4 or sp.field == f4
    assert sp.sc[(0, 1)][2] == t.value
    zero = specialize(g, f4.zero)
    assert not zero.sc
