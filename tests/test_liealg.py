import itertools
import random
import re

import pytest

from gf2lie import gf2, liealg
from gf2lie.cohomology import compute_h1_dim, derivation_dim
from gf2lie.constructions import (build_classical, build_div_free_hI, build_hamiltonian, build_hI,
                                  build_jurman, build_kap1, build_kap2, build_kap3, build_kap4A,
                                  build_kap4B, build_multipair, build_poisson, build_tensor_example)
from gf2lie.fields import GF2, GF2k, PolyRing
from gf2lie.liealg import (Algebra, AlgebraError, LinearMap, Subspace, ValidationReport,
                           center, derivations, derived_subalgebra, direct_sum,
                           grading_failures, ideal_generated, quotient, simplicity_check, subalgebra_generated,
                           verify_morphism)
from test_cohomology import d1


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


def test_quotient_within_rejects_a_subspace_not_bracket_closed():
    po = build_poisson(1, (1, 1))
    e = {name: 1 << i for i, name in enumerate(po.labels)}
    sub = Subspace(po, [e["p"], e["q"] ^ e["p*q"]])
    # [p, q + pq] = 1 + p carries the pivot bit of the row p, and 1 lies outside
    w = po.bracket(e["p"], e["q"] ^ e["p*q"])
    assert w == e["1"] ^ e["p"] and w & sub.span.mask and w not in sub
    with pytest.raises(AlgebraError, match="subspace is not bracket-closed"):
        quotient(po, Subspace(po), within=sub)
    closed = quotient(po, Subspace(po), within=Subspace(po, [e["p"], e["q"] ^ e["p*q"], e["1"]]))
    assert closed.dim == 3 and closed.validate().ok


# ---------------------------------------------------------------------------
# the full triple sweep, kept as an oracle for the support of μ∘μ
# ---------------------------------------------------------------------------

def _dense_jacobi_failures(g, max_report):
    n = g.dim
    T = g.pair_table()
    fails = []
    for i in range(n):
        Ti = T[i * n:i * n + n]
        for j in range(i + 1, n):
            Tj = T[j * n:j * n + n]
            for k in range(j + 1, n):
                if not (Ti[j] | Tj[k] | Ti[k]):
                    continue  # all three inner brackets vanish
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


# ---------------------------------------------------------------------------
# the proof of Jacobi from an ad-generating set, against the dense sweep
# ---------------------------------------------------------------------------

MUTATION_CORPUS = {
    "j(2,1)": lambda: build_jurman(2, 1),
    "Kap1(4)": lambda: build_kap1(4),
    "h'_Pi(2;2,2)": lambda: build_hamiltonian(1, (2, 2), "derived"),
    "h'_Pi(2;2,3)": lambda: build_hamiltonian(1, (2, 3), "derived"),
    "o'_Pi(5)": lambda: build_classical("oPi", 5, "derived"),
    "Kap3(5)": lambda: build_kap3(5),
    "h_I(2;2,2)": lambda: build_hI(2, (2, 2)),
    "Kap2(4)": lambda: build_kap2(4),
    "Kap4,0(4)": lambda: build_kap4A(4, 0),
    "lh_I(4;1_s)'": lambda: build_div_free_hI(4, (1, 1, 1, 1), "derived"),
    "po(1;1,1)": lambda: build_poisson(1, (1, 1)),
    "po(1;2,2)": lambda: build_poisson(1, (2, 2)),
}


def _flipped(g, rng):
    """g with one or two structure-constant bits flipped, ungraded."""
    n = g.dim
    sc = {pr: dict(row) for pr, row in g.sc.items()}
    for _ in range(rng.randint(1, 2)):
        pr = rng.choice(sorted(g.sc)) if rng.random() < 0.8 else tuple(sorted(rng.sample(range(n), 2)))
        row = sc.setdefault(pr, {})
        k = rng.randrange(n)
        if row.pop(k, None) is None:
            row[k] = 1
    return Algebra(GF2, g.labels, sc, name="flipped")


def _assert_matches_dense(h):
    dense = _dense_jacobi_failures(h, 10 ** 9)  # every failure; a sweep at max_report stops at its prefix
    for max_report in (1, 5, 10 ** 9):
        rep = h.validate(max_report=max_report)
        want = ValidationReport()
        want.jacobi_failures = dense[:max_report]
        assert rep.jacobi_failures == want.jacobi_failures
        assert rep.summary() == want.summary()


@pytest.mark.parametrize("name", sorted(MUTATION_CORPUS))
def test_validate_matches_dense_sweep_on_flipped_bits(name):
    g = MUTATION_CORPUS[name]()
    rng = random.Random(sum(map(ord, name)))
    cases = [_flipped(g, rng) for _ in range(100)]
    assert sum(not h.validate().ok for h in cases) > 50
    for h in [g] + cases:
        _assert_matches_dense(h)


def test_validate_matches_dense_sweep_on_random_tables(monkeypatch):
    # small tables, where a failure can hide in the [[e_b,e_c],e_s] term alone
    verdicts, _ = _proof_verdicts(monkeypatch)
    rng = random.Random(31)
    for n in range(3, 9):
        for density in (0.05, 0.1, 0.2):
            for _ in range(30):
                _assert_matches_dense(_random_alternating(n, density, rng))
    assert verdicts.count(True) >= 8 and verdicts.count(False) > 500


def _proof_verdicts(monkeypatch):
    """Record every _jacobi_proof call: its verdict, and the basis vectors s
    whose ad_s it checked, in order.  Returns the two lists."""
    verdicts, checked = [], []
    proof, jacobiator = liealg._jacobi_proof, liealg._jacobiator

    def spy(T, n, s, b, c):
        if s not in checked[-1]:
            checked[-1].append(s)
        return jacobiator(T, n, s, b, c)

    def run(*args):
        checked.append([])
        monkeypatch.setattr(liealg, "_jacobiator", spy)
        try:
            verdicts.append(proof(*args))
        finally:
            monkeypatch.setattr(liealg, "_jacobiator", jacobiator)
        return verdicts[-1]

    monkeypatch.setattr(liealg, "_jacobi_proof", run)
    return verdicts, checked


def _heisenberg(m):
    labels = ["x%d" % i for i in range(m)] + ["y%d" % i for i in range(m)] + ["z"]
    return Algebra(GF2, labels, {(i, m + i): {2 * m: 1} for i in range(m)}, name="heis")


def _abelian(n):
    return Algebra(GF2, ["a%d" % i for i in range(n)], {}, name="abelian")


@pytest.mark.parametrize("g", [_abelian(200), _heisenberg(100)], ids=["abelian(200)", "heisenberg(201)"])
def test_validate_without_double_brackets_skips_the_proof(g, monkeypatch):
    verdicts, _ = _proof_verdicts(monkeypatch)
    _assert_matches_dense(g)
    assert g.validate().ok and verdicts == [False] * 4  # three from _assert_matches_dense


def test_validate_proves_a_sum_with_an_abelian_summand(monkeypatch):
    # each of the 20 abelian basis vectors must join S
    g = direct_sum(build_multipair("Pi", PAIRS, "derived_mod_center"), _abelian(20))
    verdicts, _ = _proof_verdicts(monkeypatch)
    _assert_matches_dense(g)
    assert g.validate().ok and verdicts == [True] * 4  # three from _assert_matches_dense


def test_validate_hands_a_later_failing_generator_to_the_sweep(monkeypatch):
    # j(2,1) plus the po(1;1,1) bracket with [p, pq] = q: ad_s passes for the
    # first generator, in j(2,1), and fails for one in the broken summand
    po = build_poisson(1, (1, 1))
    sc = {k: dict(v) for k, v in po.sc.items()}
    sc[tuple(sorted((po.labels.index("p"), po.labels.index("p*q"))))] = {po.labels.index("q"): 1}
    g = direct_sum(build_jurman(2, 1), Algebra(GF2, po.labels, sc))
    verdicts, checked = _proof_verdicts(monkeypatch)
    assert not g.validate().ok
    assert verdicts == [False] and checked[0][0] < 14 <= checked[0][-1]
    _assert_matches_dense(g)


def _generic_jacobi_failures(g):
    """Every triple i<j<k whose Jacobiator, summed with Algebra.bracket over
    g's field, is nonzero."""
    f, e = g.field, [g.unit(i) for i in range(g.dim)]
    fails = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in g.bracket(g.bracket(e[a], e[b]), e[c]).items():
                acc[m] = f.add(acc.get(m, 0), v)
        if any(acc.values()):
            fails.append((i, j, k))
    return fails


def test_validate_over_gf4_never_runs_the_proof(monkeypatch):
    verdicts, _ = _proof_verdicts(monkeypatch)
    po = build_poisson(1, (2, 2))
    # all structure constants times 3 in GF(4): still Lie; then one entry set to 2
    lifted = Algebra(GF2k(2), po.labels, {key: dict.fromkeys(row, 3) for key, row in po.sc.items()})
    sc = {key: dict(row) for key, row in lifted.sc.items()}
    key = sorted(sc)[len(sc) // 2]
    sc[key][max(sc[key])] = 2
    broken = Algebra(GF2k(2), po.labels, sc)
    assert lifted.validate().ok and not broken.validate().ok
    for g in (lifted, broken):
        want = _generic_jacobi_failures(g)
        for max_report in (1, 5):
            assert g.validate(max_report).jacobi_failures == want[:max_report]
    assert verdicts == []


@pytest.mark.parametrize("name", ["a_Pi(4;(2,1),(2,1))", "a_Pi(4;(2,1),(2,1))'/c",
                                  "a_I(4;(2,1),(2,1))'/c", "j(2,1)", "Kap1(4)"])
def test_the_proof_accepts_the_structure_sweep_algebras(name, monkeypatch):
    g = CENTER_CASES[name]()
    verdicts, _ = _proof_verdicts(monkeypatch)
    assert g.validate().ok and verdicts == [True]


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


@pytest.mark.parametrize("kind", ["Pi", "I"])
def test_derived_subalgebra_matches_adding_every_bracket(kind):
    # each distinct bracket mask is added once; every nonzero pair's mask,
    # repeats included, gives the same reduced echelon rows and pivots
    g = build_multipair(kind, [(2, 1), (2, 1)])
    T = g.pair_table()
    every = Subspace(g)
    for (i, j) in g.sc:
        every.add(T[i * g.dim + j])
    der = derived_subalgebra(g)
    assert der.rows() == every.rows() and der.pivots() == every.pivots()


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
    with pytest.raises(AlgebraError, match="subspace is not an ideal"):
        quotient(po, Subspace(po, [1 << 1]))


def test_quotient_of_derived_is_abelian():
    for g in [build_poisson(1, (2, 2)), build_jurman(2, 1)]:
        q = quotient(g, derived_subalgebra(g)) if derived_subalgebra(g).is_ideal() else None
        if q is not None:
            assert not q.sc


def test_quotient_by_a_non_homogeneous_ideal_drops_the_grading():
    # [a, b] = c with z central: <c + z> is a central ideal that is not
    # homogeneous.  Modulo it, [a, b] = z (weight 0, not 2) when c is the
    # pivot, and the grading is dropped; with z the pivot, [a, b] = c and it
    # descends.  Both outcomes are pinned from the earlier quotient.
    g = Algebra(GF2, ["a", "b", "z", "c"], {(0, 1): {3: 1}}, grading=[(1,), (1,), (0,), (2,)],
                grading_mod=(0,))
    q = quotient(g, Subspace(g, [0b1100]))
    assert (q.labels, q.sc, q.grading, q.grading_mod) == (["a", "b", "z"], {(0, 1): {2: 1}}, None, None)
    assert q.dumps() == ('{"dim":3,"field":{"k":1,"kind":"gf2k","modulus":"0x3"},'
                         '"labels":["a","b","z"],"name":"/ideal","sc":[[0,1,[[2,"0x1"]]]]}')
    g = Algebra(GF2, ["a", "b", "c", "z"], {(0, 1): {2: 1}}, grading=[(1,), (1,), (2,), (0,)],
                grading_mod=(0,))
    q = quotient(g, Subspace(g, [0b1100]))
    assert (q.labels, q.sc, q.grading, q.grading_mod) == (["a", "b", "c"], {(0, 1): {2: 1}},
                                                          [(1,), (1,), (2,)], (0,))


def _loop_subalgebra_on(g, sub, name=""):
    """The algebra on a bracket-closed subspace's RREF basis, reducing and
    compressing every row pair's bracket: the oracle for `quotient` by the
    zero ideal within a subspace, and the first step of the two-step
    oracle for a subquotient."""
    rows = sub.rows()
    span = sub.span
    m = len(rows)
    coords = gf2.compressor(sub.pivots())
    T = g.pair_table()
    n = g.dim
    row_bits = [list(gf2.bits(r)) for r in rows]
    sc = {}
    for a in range(m):
        bases = [i * n for i in row_bits[a]]
        for b in range(a + 1, m):
            w = 0
            for base in bases:
                for j in row_bits[b]:
                    w ^= T[base + j]
            if w:
                if span.reduce(w):
                    raise AlgebraError("subspace is not bracket-closed")
                sc[(a, b)] = coords(w)
    labels = [g.labels[bs[0]] if len(bs) == 1 else "(" + "+".join(g.labels[b] for b in bs) + ")"
              for bs in row_bits]
    grading = mod = None
    if g.grading is not None:
        ws = [{g.grading[b] for b in bs} for bs in row_bits]
        if all(len(w) == 1 for w in ws):
            grading, mod = [w.pop() for w in ws], g.grading_mod
    units = all(len(bs) == 1 for bs in row_bits)
    meta = {}
    if units and "mono_degrees" in g.meta:
        meta["mono_degrees"] = [g.meta["mono_degrees"][bs[0]] for bs in row_bits]
        meta.update((key, g.meta[key]) for key in ("vars", "N") if key in g.meta)
    return Algebra.from_gf2_rows(labels, sc, grading=grading, grading_mod=mod,
                                 name=name or (g.name + "|sub"), meta=meta)


def _loop_quotient(g, ideal, name=""):
    """quotient reducing and compressing every pair's bracket: the oracle for
    the one reduction per distinct bracket mask."""
    if not ideal.is_ideal():
        raise AlgebraError("subspace is not an ideal")
    span = ideal.span
    n = g.dim
    keep = [i for i in range(n) if not (span.mask >> i) & 1]
    coords = gf2.compressor(keep)
    pos = [coords(1 << i).bit_length() - 1 for i in range(n)]
    T = g.pair_table()
    sc = {}
    for a, b in sorted(g.sc):
        if pos[a] >= 0 and pos[b] >= 0:
            w = span.reduce(T[a * n + b])
            if w:
                sc[(pos[a], pos[b])] = coords(w)
    meta = {}
    if "mono_degrees" in g.meta:
        meta["mono_degrees"] = [g.meta["mono_degrees"][i] for i in keep]
    meta.update((key, g.meta[key]) for key in ("vars", "N") if key in g.meta)
    q = Algebra.from_gf2_rows([g.labels[i] for i in keep], sc, name=name or (g.name + "/ideal"), meta=meta)
    if g.grading is not None:
        q.grading, q.grading_mod = [g.grading[i] for i in keep], g.grading_mod
        if grading_failures(q, q.grading, q.grading_mod, 1):
            q.grading = q.grading_mod = None
    return q


def _output(g):
    # rows as an item list: dict equality alone would ignore their order
    return (g.name, g.labels, list(g.rows.items()), g.grading, g.grading_mod, g.meta)


def _in_basis(h, back, s):
    """The subspace s of g as a subspace of h = _change_basis(g, cols)."""
    return Subspace(h, [gf2.apply_rows(back, r) for r in s.rows()])


def _subspace_corpus():
    """(algebra, subspace, ideal) triples, seeded, most rows not unit vectors.
    The subspaces are the non-negative part of a Z-grading, the derived
    algebra and subalgebras generated by random vectors of that part; the
    ideals are the center, the derived algebra and the ideals generated by
    random vectors.  Each algebra comes in its built basis and after a
    random change of basis."""
    rng = random.Random(16)
    cases = []
    for g in (build_poisson(1, (2, 2)), build_hamiltonian(1, (2, 3), "derived"),
              build_multipair("Pi", [(2, 1)]), build_jurman(2, 1), build_classical("gl", 3),
              direct_sum(build_jurman(2, 1), build_classical("gl", 2))):
        n = g.dim
        P = gf2.from_bits(i for i, w in enumerate(g.grading or [(0,)] * n) if sum(w) >= 0)
        subs = [Subspace(g, [1 << i for i in gf2.bits(P)]), derived_subalgebra(g)]
        subs += [subalgebra_generated(g, [rng.getrandbits(n) & P for _ in range(k)])
                 for k in (1, 2, 2, 3)]
        cols = _random_basis(n, rng)
        back = gf2.invert(cols, n)
        h = _change_basis(g, cols)
        for alg, ss in ((g, subs), (h, [_in_basis(h, back, s) for s in subs])):
            ideals = [center(alg), derived_subalgebra(alg)]
            ideals += [ideal_generated(alg, rng.getrandbits(n) & rng.getrandbits(n) or 1) for _ in range(3)]
            cases += [(alg, s, None) for s in ss] + [(alg, None, i) for i in ideals]
    return cases


def test_quotient_matches_the_pair_loops():
    corpus = _subspace_corpus()
    for g, sub, ideal in corpus:
        if sub is not None:
            got = quotient(g, Subspace(g), "sub", within=sub)
            assert _output(got) == _output(_loop_subalgebra_on(g, sub, "sub"))
        else:
            assert _output(quotient(g, ideal)) == _output(_loop_quotient(g, ideal))
    # most cases have a row that is not a unit vector
    assert sum(any(r & (r - 1) for r in (s or i).rows()) for _, s, i in corpus) > len(corpus) // 2


def _two_step_quotient(g, ideal, sub, name):
    """The algebra on sub's RREF basis, then its quotient by the ideal in
    those coordinates: the oracle for one `quotient` within sub.  The
    grading descends when every kept row of sub is homogeneous, even where
    the algebra on sub has none."""
    inner = _loop_subalgebra_on(g, sub, name)
    coords = gf2.compressor(sub.pivots())
    inner_ideal = Subspace(inner, [coords(r) for r in ideal.rows()])
    q = _loop_quotient(inner, inner_ideal, name)
    if q.grading is None and g.grading is not None:
        kept = [r for k, r in enumerate(sub.rows()) if not inner_ideal.span.mask >> k & 1]
        ws = [{g.grading[b] for b in gf2.bits(r)} for r in kept]
        if all(len(w) == 1 for w in ws):
            q.grading, q.grading_mod = [w.pop() for w in ws], g.grading_mod
            if grading_failures(q, q.grading, q.grading_mod, 1):
                q.grading = q.grading_mod = None
    return q


def test_quotient_within_a_subspace_matches_the_two_step_oracle():
    cases = 0
    for g, sub, _ in _subspace_corpus():
        if sub is None or not any(r & (r - 1) for r in sub.rows()):
            continue
        for ideal in (center(g, sub), Subspace(g, liealg.brackets(g, sub.rows()))):
            new, old = quotient(g, ideal, "S/I", within=sub), _two_step_quotient(g, ideal, sub, "S/I")
            assert (new.dumps(),) + _output(new) == (old.dumps(),) + _output(old)
            cases += ideal.dim > 0
    assert cases > 20


def test_quotient_grading_is_decided_on_the_kept_rows():
    # e1 + e2 is inhomogeneous, but it spans the ideal, so the one kept row e0 is homogeneous
    g = Algebra(GF2, ["e0", "e1", "e2"], {}, grading=[(0,), (1,), (2,)], grading_mod=(0,))
    q = quotient(g, Subspace(g, [0b110]), "S/I", within=Subspace(g, [0b001, 0b110]))
    assert (q.labels, q.grading, q.grading_mod) == (["e0"], [(0,)], (0,))
    # kept, the inhomogeneous row leaves the quotient ungraded
    q = quotient(g, Subspace(g, [0b001]), "S/I", within=Subspace(g, [0b001, 0b110]))
    assert (q.labels, q.grading, q.grading_mod) == (["(e1+e2)"], None, None)


def test_quotient_refuses_like_the_pair_loops():
    rng = random.Random(17)
    refused = 0
    for g in (build_poisson(1, (2, 2)), _change_basis(build_jurman(2, 1), _random_basis(14, rng))):
        for _ in range(20):
            s = Subspace(g, [rng.getrandbits(g.dim) for _ in range(rng.randint(2, 5))])
            got = []
            for f in (lambda g, s: quotient(g, Subspace(g), within=s), _loop_subalgebra_on,
                      quotient, _loop_quotient):
                try:
                    f(g, s)
                    got.append(None)
                except AlgebraError as err:
                    got.append(str(err))
            assert got[0] == got[1] and got[2] == got[3]
            refused += got[0] is not None
    assert refused > 20


def test_a_subspace_of_another_algebra_is_refused():
    g, h = build_poisson(1, (2, 2)), build_poisson(1, (2, 2))
    other = derived_subalgebra(h)
    with pytest.raises(AlgebraError, match="different algebra"):
        quotient(g, Subspace(g), within=other)
    with pytest.raises(AlgebraError, match="different algebra"):
        center(g, other)
    with pytest.raises(AlgebraError, match="different algebra"):
        Subspace(g, [1]).is_ideal(other)
    # the same subspace of g itself is accepted
    D = derived_subalgebra(g)
    assert quotient(g, Subspace(g), within=D).dim == D.dim == other.dim
    assert center(g, D).dim >= 1 and Subspace(g, [1]).is_ideal(D)


def test_quotient_within_refuses_a_failing_bracket_with_the_coordinates_of_a_closed_one():
    po = build_poisson(1, (2, 1))
    e = {name: 1 << i for i, name in enumerate(po.labels)}
    sub = Subspace(po, [e["q"] ^ e["p"], e["p*q"], e["p^(2)"]])
    r = sub.rows()
    assert r == [e["q"] ^ e["p"], e["p*q"], e["p^(2)"]]
    # [q+p, pq] = q+p lies in sub.  [q+p, p^(2)] = p does not, but it has the
    # same pivot bits as q+p, so the same coordinates: a memo keyed by those
    # would take it for the closed bracket
    assert po.bracket(r[0], r[1]) == r[0]
    w = po.bracket(r[0], r[2])
    assert w == e["p"] and w not in sub and not (w ^ r[0]) & sub.span.mask
    with pytest.raises(AlgebraError, match="subspace is not bracket-closed"):
        quotient(po, Subspace(po), within=sub)


def test_brackets_match_the_bracket_double_loops():
    rng = random.Random(25)
    for g, sub, ideal in _subspace_corpus():
        rows = (sub if sub is not None else ideal).rows()
        others = [rng.getrandbits(g.dim) for _ in range(3)] + [0, 1 << rng.randrange(g.dim)]
        assert list(liealg.brackets(g, rows)) == [g.bracket(a, b) for i, a in enumerate(rows)
                                                  for b in rows[i + 1:]]
        assert list(liealg.brackets(g, rows, others)) == [g.bracket(a, b) for a in rows for b in others]
        assert list(liealg.brackets(g, others, rows)) == [g.bracket(a, b) for a in others for b in rows]
        assert list(liealg.brackets(g, rows[:1])) == [] and list(liealg.brackets(g, [], others)) == []


def _loop_subalgebra_generated(g, vectors):
    """The round-based closure: each round brackets the vectors it found
    with every row of the span so far.  The oracle for subalgebra_generated."""
    s = Subspace(g)
    fresh = [v for v in vectors if s.add(v)]
    while fresh and s.dim < g.dim:
        newly = []
        rows = s.rows()
        for v in fresh:
            for r in rows:
                w = g.bracket(v, r)
                if w and s.add(w):
                    newly.append(w)
                    if s.dim == g.dim:
                        return s
        fresh = newly
    return s


def test_subalgebra_generated_matches_the_round_based_closure():
    rng = random.Random(26)
    proper = set()
    for g in {id(g): g for g, _, _ in _subspace_corpus()}.values():
        n = g.dim
        for k in (1, 2, 3):
            for _ in range(4):
                vs = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(k)]
                vs += [0, vs[0]]  # a zero vector and a repeat add nothing
                got = subalgebra_generated(g, vs)
                assert got == _loop_subalgebra_generated(g, vs)
                proper.add(got.dim < n)
    assert proper == {True, False}


def test_is_ideal_and_is_subalgebra_match_the_bracket_loops():
    rng = random.Random(27)
    cases = [(g, s) for g, sub, ideal in _subspace_corpus() for s in (sub, ideal) if s is not None]
    cases += [(g, Subspace(g, [rng.getrandbits(g.dim) for _ in range(3)])) for g, _ in cases[::4]]
    verdicts = set()
    for g, s in cases:
        rows = s.rows()
        closed = all(g.bracket(a, b) in s for i, a in enumerate(rows) for b in rows[i:])
        ideal = all(g.bracket(r, 1 << j) in s for r in rows for j in range(g.dim))
        assert (s.is_subalgebra(), s.is_ideal()) == (closed, ideal)
        verdicts.add((closed, ideal))
    # ideals, subalgebras that are not ideals, and subspaces that are not closed
    assert verdicts == {(True, True), (True, False), (False, False)}


def _transpose_kernel_center(g):
    """The center as the kernel of the stacked ad(e_j), one transpose per j:
    the oracle for center()."""
    n = g.dim
    T = g.pair_table()
    eqs = []
    for j in range(n):
        cols = gf2.transpose([T[i * n + j] for i in range(n)], n)
        eqs.extend(c for c in cols if c)
    return Subspace(g, gf2.kernel(eqs, n))


PAIRS = [(2, 1), (2, 1)]
CENTER_CASES = {
    "a_Pi(4;(2,1),(2,1))'": lambda: build_multipair("Pi", PAIRS, "derived"),
    "abelian": lambda: Algebra(GF2, ["a", "b", "c"], {}),
    "o'_Pi(3)+c": lambda: direct_sum(build_classical("oPi", 3, "derived"), Algebra(GF2, ["c"], {})),
    # the structure-sweep set-up
    "a_Pi(4;(2,1),(2,1))": lambda: build_multipair("Pi", PAIRS),
    "a_Pi(4;(2,1),(2,1))'/c": lambda: build_multipair("Pi", PAIRS, "derived_mod_center"),
    "a_I(4;(2,1),(2,1))'/c": lambda: build_multipair("I", PAIRS, "derived_mod_center"),
    "j(2,1)": lambda: build_jurman(2, 1),
    "Kap1(4)": lambda: build_kap1(4),
}
CENTER_DIMS = {"a_Pi(4;(2,1),(2,1))'": 1, "abelian": 3, "o'_Pi(3)+c": 1}


@pytest.mark.parametrize("name", sorted(CENTER_CASES))
def test_center_matches_the_transpose_kernel(name):
    g = CENTER_CASES[name]()
    c = center(g)
    assert c.rows() == _transpose_kernel_center(g).rows()
    assert all(g.bracket(v, 1 << j) == 0 for v in c.rows() for j in range(g.dim))
    if name in CENTER_DIMS:
        assert c.dim == CENTER_DIMS[name]


def _dict_walk_grading_failures(g):
    """validate()'s former grading check, walking every row entry against
    the reduced weights: the oracle for the mask check."""
    mod = g.grading_mod
    red = [tuple(w % m if m else w for w, m in zip(gr, mod)) for gr in g.grading]
    bad = []
    for (i, j), row in g.sc.items():
        want = tuple((a + b) % m if m else (a + b) for a, b, m in zip(red[i], red[j], mod))
        for k in row:
            if red[k] != want:
                bad.append((i, j, k, want, red[k]))
    return bad


def _misgraded():
    # built with a true grading, then handed a false one
    j21 = build_jurman(2, 1)
    true = list(j21.grading)
    yield j21, [(w[0] + (i % 3),) for i, w in enumerate(true)]
    hp = build_hamiltonian(1, (2, 2), "derived")
    yield hp, [(a + i % 2, b) for i, (a, b) in enumerate(hp.grading)]
    hi = build_hI(2, (2, 2))
    yield hi, [(a, (b + i) % 2) for i, (a, b) in enumerate(hi.grading)]
    gf4 = GF2k(2)
    j_gf4 = Algebra(gf4, j21.labels, {key: {k: 2 for k in row} for key, row in j21.sc.items()},
                    grading=true, grading_mod=(0,))
    yield j_gf4, [(-w[0],) if i % 2 else w for i, w in enumerate(true)]


def test_grading_failures_match_the_dict_walk():
    for g, wrong in _misgraded():
        assert g.validate().grading_failures == []
        g.grading = wrong
        want = _dict_walk_grading_failures(g)
        assert len(want) > 5, g.name
        for max_report in (0, 1, 5, len(want), len(want) + 3):
            assert g.validate(max_report).grading_failures == want[:max_report], (g.name, max_report)
        with pytest.raises(AlgebraError, match=r"e\.g\. %s" % re.escape(repr(want[0]))):
            Algebra(g.field, g.labels, g.sc, grading=wrong, grading_mod=g.grading_mod)


@pytest.mark.parametrize("rows, grading", [
    ({(1, 0): 0b100}, None),                     # i > j
    ({(1, 1): 0b100}, None),                     # i = j
    ({(0, 1): 0}, None),                         # an empty row: a zero mask
    ({(0, 1): 0b1000}, None),                    # a target out of range: a mask at or above 2^n
    ({(0, 1): -1}, None),                        # a negative mask
    ({(0, 3): 0b100}, None),                     # an index out of range
    ({(0, 1): True}, None),                      # a value that is not an int mask: a bool
    ({(0, 1): "4"}, None),                       # a str
    ({(0, 1): {2: 1}}, None),                    # a dict row
    ({(0, 1): 0b10}, [(1,), (1,), (2,)]),        # [a, b] = b breaks the grading
], ids=["i>j", "i=j", "empty", "target", "negative", "index", "value", "str", "dict", "grading"])
def test_from_gf2_rows_refuses_unclean_rows(rows, grading):
    with pytest.raises(AlgebraError):
        Algebra.from_gf2_rows(["a", "b", "c"], rows, grading=grading)


def test_from_gf2_rows_keeps_rows_and_matches_init():
    for g in (build_jurman(2, 1), build_kap1(4), build_hamiltonian(1, (2, 2), "derived")):
        rows = dict(g.rows)
        h = Algebra.from_gf2_rows(g.labels, rows, g.grading, g.grading_mod, g.name, g.meta)
        assert h.rows is rows and h.dumps() == g.dumps() and h.sc == g.sc
        assert h.pair_table() == Algebra(GF2, g.labels, g.sc).pair_table()
    # item order is kept as given; the view decodes each mask ascending
    h = Algebra.from_gf2_rows(["a", "b", "c", "d"], {(1, 2): 0b1, (0, 1): 0b1100})
    assert list(h.rows) == [(1, 2), (0, 1)] and list(h.sc) == [(1, 2), (0, 1)]
    assert list(h.sc[(0, 1)]) == [2, 3] and h.pair_table()[1] == 0b1100


def test_gf2_hot_paths_never_decode_the_sc_view(monkeypatch):
    # the view is for the readers that need field coefficients; the set-up,
    # Jacobi, ideal spinning and simplicity read the masks or the pair table
    def refuse(rows):
        raise AssertionError("the sc view was decoded")
    monkeypatch.setattr(liealg, "_decode_rows", refuse)
    monkeypatch.setattr(liealg, "SIMPLICITY_RANDOM_SEEDS", 3)
    for kind in ("Pi", "I"):
        g = build_multipair(kind, [(2, 1), (2, 1)], "derived_mod_center")
        assert g.validate().ok
        assert ideal_generated(g, 1 << 7).dim == g.dim
        assert simplicity_check(g).kind == "probable-simple"
    for g in (build_jurman(2, 1), build_kap1(4)):
        assert g.validate().ok and simplicity_check(g).kind == "simple"
    with pytest.raises(AssertionError, match="sc view"):
        g.sc


def test_sc_view_is_read_only_and_decoded_once():
    g = build_jurman(2, 1)
    view = g.sc
    assert view is g.sc and view == {ij: dict.fromkeys(gf2.bits(w), 1) for ij, w in g.rows.items()}
    pair = next(iter(view))
    with pytest.raises(TypeError):
        view[pair] = {0: 1}
    with pytest.raises(TypeError):
        view[pair][0] = 1
    # other fields keep the dict they were built from, and no rows
    g4 = Algebra(GF2k(2), ["a", "b", "c"], {(0, 1): {2: 3}})
    assert g4.rows is None and g4.sc == {(0, 1): {2: 3}}


@pytest.mark.parametrize("field, value", [(GF2, 2), (GF2, -1), (GF2k(2), 4), (GF2k(2), -1),
                                          (PolyRing(), -1)],
                         ids=["gf2-2", "gf2-neg", "gf4-4", "gf4-neg", "poly-neg"])
def test_init_refuses_a_value_outside_the_field(field, value):
    with pytest.raises(AlgebraError, match=r"at \(2,3\) lies outside"):
        Algebra(field, ["a", "b", "c", "d"], {(0, 1): {2: 1}, (2, 3): {0: value}})


def test_init_keeps_every_value_of_the_field():
    for field, value in [(GF2, 1), (GF2k(2), 3), (GF2k(3), 7), (PolyRing(), 1 << 70)]:
        g = Algebra(field, ["a", "b", "c"], {(0, 1): {2: value, 1: 0}})
        assert g.sc == {(0, 1): {2: value}}


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


def _simplicity_with(monkeypatch, g, random_seeds=liealg.SIMPLICITY_RANDOM_SEEDS,
                     exhaustive_dim=liealg.SIMPLICITY_EXHAUSTIVE_DIM, rng_seed=0):
    """simplicity_check(g) with the module's seed count and exhaustive bound set."""
    monkeypatch.setattr(liealg, "SIMPLICITY_RANDOM_SEEDS", random_seeds)
    monkeypatch.setattr(liealg, "SIMPLICITY_EXHAUSTIVE_DIM", exhaustive_dim)
    return simplicity_check(g, rng_seed=rng_seed)


def test_simplicity_check(monkeypatch):
    assert simplicity_check(build_jurman(2, 1)).kind == "simple"
    v = simplicity_check(build_poisson(1, (1, 1)))
    assert v.kind == "ideal-witness"
    # large algebra goes through the randomized path
    v2 = _simplicity_with(monkeypatch, build_kap2(6), random_seeds=50)
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
def test_simplicity_check_matches_full_spins_on_paper_algebras(name, monkeypatch):
    g = SPIN_ORACLE_ALGEBRAS[name]()
    assert _verdict_rows(simplicity_check(g)) == _full_spin_simplicity(g)
    assert (_verdict_rows(_simplicity_with(monkeypatch, g, random_seeds=200, exhaustive_dim=1, rng_seed=5))
            == _full_spin_simplicity(g, random_seeds=200, exhaustive_dim=1, rng_seed=5))


def test_simplicity_check_matches_full_spins_on_random_tables(monkeypatch):
    rng = random.Random(2024)
    kinds = set()
    for n in range(2, 10):
        for density in (0.05, 0.15, 0.3, 0.6):
            for _ in range(6):
                g = _random_alternating(n, density, rng)
                for kw in ({}, {"exhaustive_dim": 1, "random_seeds": 40, "rng_seed": n}):
                    want = _full_spin_simplicity(g, **kw)
                    got = _simplicity_with(monkeypatch, g, **kw)
                    assert _verdict_rows(got) == want, (n, density, kw, g.sc)
                    kinds.add(want[0])
    assert kinds == {"simple", "probable-simple", "ideal-witness"}


# ---------------------------------------------------------------------------
# the per-j bit loop spin and the spin-every-seed exhaustive walk, kept as
# oracles for the ad_rows spin and the seeds settled on the ad walk
# ---------------------------------------------------------------------------

def _bit_loop_spin(g, seed, settled):
    if seed in settled:
        return None
    s = Subspace(g)
    s.add(seed)
    queue = [seed]
    n = g.dim
    T = g.pair_table()
    while queue:
        v = queue.pop()
        vb = list(gf2.bits(v))
        for j in range(n):
            acc = 0
            for i in vb:
                acc ^= T[i * n + j]
            if acc:
                if acc in settled:
                    return None
                if s.add(acc):
                    queue.append(acc)
                    if s.dim == n:
                        return s
    return s


def _bit_loop_exhaustive(g):
    n = g.dim
    for seed in range(1, 1 << n):
        sp = _bit_loop_spin(g, seed, range(1, seed))
        if sp is not None and sp.dim < n:
            return "ideal-witness", seed, sp.rows()
    return "simple", (1 << n) - 1, None


def _change_basis(g, cols):
    """g in the basis e'_i = cols[i] (masks in the old coordinates)."""
    back = gf2.invert(cols, g.dim)
    sc = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            w = gf2.apply_rows(back, g.bracket(cols[i], cols[j]))
            if w:
                sc[(i, j)] = {k: 1 for k in gf2.bits(w)}
    return Algebra(GF2, g.labels, sc, name=g.name + "'")


def _random_basis(n, rng):
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        if gf2.rank(cols) == n:
            return cols


def _central_on_top(n, rng):
    """A dense table with a central z whose spin is the only proper ideal,
    put in a basis where z = e_{n-1} + e_0: its first witness seed is
    2^(n-1) + 1."""
    body = _random_alternating(n - 1, 0.5, rng)
    sc = {pr: dict(row) for pr, row in body.sc.items()}
    for pr in sc:
        if rng.random() < 0.5:
            sc[pr][n - 1] = 1  # the z-component of [e_i, e_j]
    g = Algebra(GF2, ["e%d" % i for i in range(n)], sc)
    # e'_{n-1} = z + e_0 and the rest unchanged, so z = e'_{n-1} + e'_0
    z = 1 << (n - 1)
    return _change_basis(g, [1 << i for i in range(n - 1)] + [z | 1])


def _spin_corpus():
    rng = random.Random(15)
    cases = []
    for n in range(10, 15):
        for density in (0.02, 0.05, 0.1):
            cases.append(_random_alternating(n, density, rng))
        a = _random_alternating(n // 2, 0.4, rng)
        b = _random_alternating(n - n // 2, 0.4, rng)
        cases.append(_change_basis(direct_sum(a, b), _random_basis(n, rng)))
        cases.append(_central_on_top(n, rng))
    return cases


def test_ad_walk_matches_ad_rows():
    for g in [build_jurman(2, 1), build_kap4A(4, 0)] + _spin_corpus()[:3]:
        n = g.dim
        walk = list(liealg.ad_walk(g))
        assert [v for v, _ in walk] == list(range(1, 1 << n))
        for v, ad in walk:
            assert ad == sum(r << (j * n) for j, r in enumerate(g.ad_rows(v))), (g.name, v)
    g = build_jurman(2, 1)
    assert g.ad_rows(0) == [0] * g.dim
    g.ad_rows(1)[0] = 1  # a fresh list: writing to it leaves the pair table alone
    assert g.pair_table()[0] == 0


def test_exhaustive_simplicity_matches_the_bit_loop_walk():
    tops = []
    kinds = set()
    for g in _spin_corpus():
        want = _bit_loop_exhaustive(g)
        assert _verdict_rows(simplicity_check(g)) == want, (g.dim, g.sc)
        kinds.add(want[0])
        if want[0] == "ideal-witness" and want[1] > 1 << (g.dim - 1):
            tops.append(want[1])
    assert kinds == {"simple", "ideal-witness"}
    assert len(tops) >= 5


def test_exhaustive_walk_spins_only_the_unsettled_seeds(monkeypatch):
    spun = []
    spin = liealg._spin

    def recording(g, seed, settled):
        spun.append(seed)
        return spin(g, seed, settled)

    monkeypatch.setattr(liealg, "_spin", recording)
    for g in [build_jurman(2, 1), build_kap1(4)] + _spin_corpus()[-4:]:
        spun.clear()
        v = simplicity_check(g)
        want = [seed for seed in range(1, v.seeds_tried + 1)
                if not any(0 < w < seed for w in g.ad_rows(seed))]
        assert spun == want and spun[0] == 1


def test_ad_rows_spin_matches_the_bit_loop_spin():
    rng = random.Random(7)
    for g in _spin_corpus():
        n = g.dim
        for _ in range(20):
            seed = rng.getrandbits(n) or 1
            settled = set(rng.getrandbits(n) for _ in range(rng.choice((0, 3, 30))))
            got, want = liealg._spin(g, seed, settled), _bit_loop_spin(g, seed, settled)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.span.rows == want.span.rows


def test_verify_morphism_identity_and_zero():
    j = build_jurman(2, 1)
    ident = LinearMap(j, j, [1 << i for i in range(j.dim)])
    assert verify_morphism(ident, "isomorphism")
    crushed = LinearMap(j, j, [0] + [1 << i for i in range(1, j.dim)])
    assert not verify_morphism(crushed, "isomorphism")


@pytest.mark.parametrize("field, image", [
    (GF2k(2), {0: 5}),  # 5 is no element of GF(4)
    (GF2, 1 << 5),  # a coordinate beyond dim 2
    (GF2, -1),  # gf2.bits never ends on a negative mask
    (GF2, {2: 1}),
    (GF2, {-1: 1}),
    (GF2, {0: 2}),
    (PolyRing("h"), {0: -1}),
    (GF2, "e0"),
], ids=["gf4-value", "mask-too-wide", "negative-mask", "index-too-large", "negative-index",
        "gf2-value-2", "negative-polynomial", "a-string"])
def test_linear_map_refuses_an_image_outside_the_target(field, image):
    a = Algebra(field, ["a", "b"], {})
    with pytest.raises(AlgebraError, match="not a vector of"):
        LinearMap(a, a, [image, {1: 1}])


def test_linear_map_takes_images_inside_the_target():
    a4 = Algebra(GF2k(2), ["a", "b"], {})
    assert LinearMap(a4, a4, [{0: 3}, 2]).apply({0: 1}) == {0: 3}
    ah = Algebra(PolyRing("h"), ["a", "b"], {})
    assert LinearMap(ah, ah, [{0: 1 << 70}, {}]).images[0] == {0: 1 << 70}  # GF(2)[h] has no top


@pytest.mark.parametrize("row", [1 << 40, 1 << 14, -3, {14: 1}, {0: 3}],
                         ids=["far-beyond", "just-beyond", "negative", "index-too-large", "value-3"])
def test_subspace_refuses_a_row_outside_the_algebra(row):
    j = build_jurman(2, 1)
    with pytest.raises(AlgebraError, match="not a vector of"):
        Subspace(j, [1, row])


@pytest.mark.parametrize("vec", [1 << 5, 1 << 3, -1], ids=["far-beyond", "just-beyond", "negative"])
def test_closures_refuse_a_vector_outside_the_algebra(vec):
    o3 = build_classical("oPi", 3, "derived")
    with pytest.raises(AlgebraError, match="not a vector of"):
        subalgebra_generated(o3, [1, vec])
    with pytest.raises(AlgebraError, match="not a vector of"):
        ideal_generated(o3, vec)


def test_subspace_takes_dict_rows_as_masks():
    j = build_jurman(2, 1)
    assert Subspace(j, [{0: 1, 3: 1}, (1 << 14) - 1]) == Subspace(j, [0b1001, (1 << 14) - 1])
    assert Subspace(j, (1 << i for i in range(j.dim))).dim == j.dim  # a generator is read once


def _pair_loop_verify(m, kind):
    """verify_morphism as one LinearMap.apply and two brackets per basis
    pair, kept as an oracle for the check on the source pair table."""
    src, tgt = m.source, m.target
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            lhs = m.apply(src.bracket(src.unit(i), src.unit(j)))
            if tgt.as_dict(lhs) != tgt.as_dict(tgt.bracket(m.images[i], m.images[j])):
                return False
    return m.is_invertible() if kind == "isomorphism" else True


def _one_coefficient_off(m):
    """m with one coefficient of one image changed, for every image and a
    spread of coefficients."""
    field, n = m.target.field, m.target.dim
    for i, im in enumerate(m.images):
        for k in range(i % 3, n, 3):
            images = list(m.images)
            if isinstance(im, int):
                images[i] = im ^ (1 << k)
            else:
                images[i] = dict(im)
                images[i][k] = field.add(im.get(k, 0), 1)
                if not images[i][k]:
                    del images[i][k]
            yield LinearMap(m.source, m.target, images)


def test_verify_morphism_matches_the_pair_loop():
    from gf2lie.deform import f_alpha_matrix, poisson_family
    from gf2lie.fields import Scalar
    from gf2lie.isom import search_isomorphism
    o3, o5 = build_classical("oPi", 3, "derived"), build_classical("oPi", 5, "derived")
    maps = [search_isomorphism(a, b).map for a, b in [
        (build_jurman(2, 1), build_jurman(2, 1)), (build_kap4A(2, 1), o3), (build_kap4A(4, 1), o5),
        (o5, build_kap3(5)), (build_kap4A(4, 0), direct_sum(o3, o3)),
        (build_kap1(4), build_div_free_hI(4, (1, 1, 1, 1), "derived"))]]
    two = direct_sum(o3, o3)
    maps.append(LinearMap(two, o3, [1 << i for i in range(o3.dim)] + [0] * o3.dim))  # a projection
    F4 = GF2k(2)
    for a in range(1, F4.order):
        fam, po = poisson_family(1, (2, 2), Scalar(F4, a)), poisson_family(1, (2, 2), F4.one)
        maps.append(LinearMap(fam, po, f_alpha_matrix(fam, Scalar(F4, a))))
    outcomes = set()
    for m in maps:
        for kind in ("homomorphism", "isomorphism"):
            want = kind == "homomorphism" or m.source.dim == m.target.dim
            assert verify_morphism(m, kind) == _pair_loop_verify(m, kind) == want, (m, kind)
        for bad in _one_coefficient_off(m):
            for kind in ("homomorphism", "isomorphism"):
                got = verify_morphism(bad, kind)
                assert got == _pair_loop_verify(bad, kind), (m, kind)
                outcomes.add(got)
    assert outcomes == {True, False}


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
# the derivation equations D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] as rows, one
# O(n) scan per row: the oracle for Der(g) read off the block's d1 span
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


def _flat(images, n):
    """A linear map as one n^2-bit mask: bit k*n + i is the e_k coefficient of D(e_i)."""
    return gf2.from_bits(k * n + i for i, im in enumerate(images) for k in gf2.bits(im))


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
        n = h.dim
        assert derivation_dim(h) == compute_h1_dim(h)[0] == n * n - gf2.rank(_dense_derivation_equations(h))
        want = gf2.Span(_flat(D, n) for D in _dense_derivations(h))
        got = [_flat(D, n) for D in derivations(h)]
        assert gf2.rank(got) == len(got) == want.dim and not any(map(want.reduce, got)), h.name


def test_derivation_dim_is_the_kernel_dimension():
    cases = list(DERIVATION_ORACLE_ALGEBRAS.values()) + [
        build_kap4A(2, 1), build_kap4A(4, 0), build_kap4A(4, 1), build_kap3(5), build_kap2(4),
        build_kap4B(2), build_poisson(1, (1, 1)), build_div_free_hI(4, (1, 1, 1, 1), "derived"),
        Algebra(GF2, ["a", "b"], {})]
    rng = random.Random(884)
    for g in cases:
        for h in [g, _perturbed(g, rng)]:
            ders = derivations(h)
            assert derivation_dim(h) == len(ders) == gf2.rank(_flat(D, h.dim) for D in ders), h.name
            assert not any(d1(h, D) for D in ders), h.name


def test_compute_h1_dim():
    j = build_jurman(2, 1)
    z1, b1, h1 = compute_h1_dim(j)
    assert (z1, b1, h1) == (20, 14, 6)  # golden triple
    ab = Algebra(GF2, ["a", "b"], {})
    assert compute_h1_dim(ab) == (4, 0, 4)


def check_invariant_form(g, K):
    """Whether the symmetric form K (row masks) satisfies K([x,z],y) =
    K(x,[z,y]) on basis triples, and its rank deficit."""
    n = g.dim
    assert all((K[i] >> j) & 1 == (K[j] >> i) & 1 for i in range(n) for j in range(n)), "form is not symmetric"
    T = g.pair_table()
    invariant = all((K[v] & T[u * n + z]).bit_count() & 1 == (K[u] & T[z * n + v]).bit_count() & 1
                    for u in range(n) for z in range(n) for v in range(n))
    return invariant, n - gf2.rank(K)


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
