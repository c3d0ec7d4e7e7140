import random

import pytest

from gf2lie import gf2
from gf2lie.cohomology import (Cochain2, CochainError, c1_block_coords, c2_block_coords, c2_weights,
                               coboundary_of, compute_h2, d1, d2, h2_weight_table, is_coboundary,
                               parse_cocycle)
from gf2lie.constructions import build_hI, build_hamiltonian, build_jurman, build_tensor_example
from gf2lie.grading import cochain_term_weight
from gf2lie.liealg import AlgebraError


HP = build_hamiltonian(1, (2, 2), "derived")


def test_d1_of_identity_is_bracket():
    # three terms collapse to one copy of the bracket in characteristic 2
    images = [1 << i for i in range(HP.dim)]
    c = d1(HP, images)
    T = HP.pair_table()
    for (i, j), v in c.terms.items():
        assert v == T[i * HP.dim + j]
    assert any(c.terms.values())


def test_d1_of_ad_is_zero():
    # inner derivations are 1-cocycles: d1(ad_z) = 0 is the Jacobi identity
    for z in range(0, HP.dim, 5):
        images = HP.ad_rows(1 << z)
        assert not d1(HP, images)
    assert not d1(HP, [0] * HP.dim)


def test_d2_after_d1_vanishes():
    rng = random.Random(0)
    for _ in range(100):
        images = [rng.getrandbits(HP.dim) for _ in range(HP.dim)]
        assert not d2(d1(HP, images))


def test_random_cochain_usually_not_cocycle():
    rng = random.Random(1)
    hits = 0
    for _ in range(20):
        terms = {}
        for _ in range(6):
            i, j = sorted(rng.sample(range(HP.dim), 2))
            terms[(i, j)] = rng.getrandbits(HP.dim)
        if d2(Cochain2(HP, terms)):
            hits += 1
    assert hits >= 18


def test_compute_h2_blocks_gh21():
    table = {(4, -2): 1, (0, -4): 1, (2, 0): 1, (0, -2): 1, (-2, -2): 1}
    for w, want in table.items():
        blk = compute_h2(HP, weight_filter=w, mode="z")
        assert blk.dim == want, w
        for c in blk.representatives:
            assert not d2(c)
            assert not is_coboundary(c)
            assert c.weight("z") == w


def test_full_h2_gh21_golden():
    full = compute_h2(HP)
    assert full.dims == (185, 176, 9)  # golden: 5 printed weights + 4 mirrors
    tab = h2_weight_table(HP, "z")
    assert {w: b.dim for w, b in tab.items()} == {
        (4, -2): 1, (-2, 4): 1, (0, -4): 1, (-4, 0): 1, (2, 0): 1, (0, 2): 1,
        (0, -2): 1, (-2, 0): 1, (-2, -2): 1}


@pytest.mark.parametrize("g", [HP, build_hamiltonian(1, (2, 3), "derived"), build_hI(2, (2, 2))],
                         ids=["hp22", "hp23", "hI"])
def test_c2_weights_are_the_term_weights(g):
    n = g.dim
    want = {cochain_term_weight(g, k, (i, j), "z")
            for i in range(n) for j in range(i + 1, n) for k in range(n)}
    assert c2_weights(g, "z") == sorted(want)


def test_weight_filtered_agrees_with_full():
    # weight additivity: the filtered block equals the block of the full table
    tab = h2_weight_table(HP, "z")
    total = sum(b.dim for b in tab.values())
    assert total == compute_h2(HP).dims[2]


def test_budget_guard():
    big = build_hamiltonian(1, (3, 2), "derived")
    with pytest.raises(AlgebraError):
        compute_h2(big, budget=1000)


def test_ungraded_weight_mode_is_refused_up_front():
    # the bracket of h'_Pi(2;2,2) has mod-2 weight (1, 1), not 0
    msg = r"weight mode 'mod2' does not grade h'_Pi\(2;\[2, 2\]\): \[q, p\*q\] has the term q"
    with pytest.raises(AlgebraError, match=msg):
        h2_weight_table(HP, "mod2")
    with pytest.raises(AlgebraError, match=msg):
        compute_h2(HP, constraints=[("z", (0, -2)), ("mod2", (0, 0))])
    hi = build_hI(2, (2, 2))
    with pytest.raises(AlgebraError, match="weight mode 'z' does not grade"):
        compute_h2(hi, weight_filter=(0, 0), mode="z")


def test_tensor_example_cocycle():
    ex = build_tensor_example()
    c = Cochain2(ex, {(1, 3): 1 << 2})  # e10 (x) d(e01)^d(e11)
    assert not d2(c)
    assert not is_coboundary(c)
    blk = compute_h2(ex)
    assert blk.dim >= 1


def test_coboundary_of_roundtrip():
    rng = random.Random(2)
    images = [rng.getrandbits(HP.dim) for _ in range(HP.dim)]
    cb = d1(HP, images)
    sol = coboundary_of(cb)
    assert sol is not None
    assert d1(HP, sol).terms == cb.terms


def test_parser_roundtrip_and_errors():
    text = "p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3))"
    c = parse_cocycle(text, HP)
    assert parse_cocycle(c.text(), HP) == c
    assert parse_cocycle("", HP).terms == {}
    with pytest.raises(CochainError):
        parse_cocycle("p^(9) (x) d(q)^d(q)", HP)  # exponent range + repeated differential
    with pytest.raises(CochainError):
        parse_cocycle("p (x) d(q)^d(z)", HP)  # unknown generating function
    with pytest.raises(CochainError):
        parse_cocycle("p (x) d(q)", HP)  # odd arity
    with pytest.raises(CochainError):
        # the constant is not a basis function of h'
        parse_cocycle("1 (x) d(p)^d(q)", HP)


def test_hI_block_13_classes():
    hi = build_hI(2, (2, 2))
    blk = compute_h2(hi, weight_filter=(0, 0), mode="mod2")
    assert blk.dims == (63, 50, 13)
    degrees = {}
    for d in (-4, -2, 0, 2, 6):
        sub = compute_h2(hi, constraints=[("mod2", (0, 0)), ("outer", (d,))])
        degrees[d] = sub.dim
    assert degrees == {-4: 3, -2: 4, 0: 1, 2: 4, 6: 1}


# ---------------------------------------------------------------------------
# the dense differentials, kept as an oracle for the incidence-indexed ones
# ---------------------------------------------------------------------------

def _dense_d1(g, images):
    n = g.dim
    T = g.pair_table()
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = g.bracket(images[i], 1 << j)
            acc ^= g.bracket(1 << i, images[j])
            acc ^= gf2.apply_rows(images, T[i * n + j])
            if acc:
                terms[(i, j)] = acc
    return Cochain2(g, terms)


def _dense_d2(c):
    g = c.algebra
    n = g.dim
    T = g.pair_table()
    out = {}

    def hit(tri, w):
        if w:
            out[tri] = out.get(tri, 0) ^ w
            if not out[tri]:
                del out[tri]

    for (a, b), v in c.terms.items():
        for z in range(n):
            if z == a or z == b:
                continue
            hit(tuple(sorted((a, b, z))), g.bracket(1 << z, v))
    for (x, y) in g.sc:
        wmask = T[x * n + y]
        for z in range(n):
            if z == x or z == y:
                continue
            acc = 0
            for u in gf2.bits(wmask):
                acc ^= c.pair_value(u, z)
            hit(tuple(sorted((x, y, z))), acc)
    return out


ORACLE_ALGEBRAS = {
    "hp22": HP,
    "hp23": build_hamiltonian(1, (2, 3), "derived"),
    "hI": build_hI(2, (2, 2)),
    "j21": build_jurman(2, 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_sparse_differentials_match_dense(name):
    g = ORACLE_ALGEBRAS[name]
    n = g.dim
    rng = random.Random(sum(map(ord, name)))
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            i, j = sorted(rng.sample(range(n), 2))
            terms[(i, j)] = rng.getrandbits(n)
        c = Cochain2(g, terms)
        assert d2(c) == _dense_d2(c)
        density = rng.choice((0.1, 0.5, 1.0))
        images = [rng.getrandbits(n) if rng.random() < density else 0 for _ in range(n)]
        b = d1(g, images)
        assert b.terms == _dense_d1(g, images).terms
        assert not d2(b)
    assert not d1(g, [0] * n) and not d2(Cochain2(g, {}))


def c2_weight(g, value, pair, mode):
    """Weight of the 2-cochain coordinate e_value ⊗ d(e_i)^d(e_j): the
    per-coordinate oracle for c2_block_coords and cochain_term_weight."""
    monos = g.meta["mono_degrees"]
    x, yi, yj = monos[value], monos[pair[0]], monos[pair[1]]
    if mode == "z":
        return tuple((a - 1) - (b - 1) - (c - 1) for a, b, c in zip(x, yi, yj))
    if mode == "mod2":
        return tuple((a - b - c) % 2 for a, b, c in zip(x, yi, yj))
    if mode == "outer":
        return ((sum(x) - 2) + (2 - sum(yi)) + (2 - sum(yj)),)
    raise AlgebraError("unknown weight mode %r" % mode)


def c1_weight(g, target, source, mode):
    """Weight of the 1-cochain coordinate e_target ⊗ d(e_source): the
    per-coordinate oracle for c1_block_coords."""
    monos = g.meta["mono_degrees"]
    x, y = monos[target], monos[source]
    if mode == "z":
        return tuple((a - 1) - (b - 1) for a, b in zip(x, y))
    if mode == "mod2":
        return tuple((a - b) % 2 for a, b in zip(x, y))
    if mode == "outer":
        return (sum(x) - sum(y),)
    raise AlgebraError("unknown weight mode %r" % mode)


def _all_weights(g, mode):
    n = g.dim
    return {((i, j), k): c2_weight(g, k, (i, j), mode)
            for i in range(n) for j in range(i + 1, n) for k in range(n)}


@pytest.mark.parametrize("name", ["hp22", "hI"])
def test_block_coords_match_weight_filter(name):
    g = ORACLE_ALGEBRAS[name]
    n = g.dim
    c2_all = sorted(_all_weights(g, "z"), key=lambda c: (c[0], c[1]))
    assert c2_block_coords(g) == c2_all
    assert c1_block_coords(g) == [(k, i) for k in range(n) for i in range(n)]
    table = {mode: _all_weights(g, mode) for mode in ("z", "mod2", "outer")}
    for mode, weights in table.items():
        assert all(cochain_term_weight(g, k, pr, mode) == w for (pr, k), w in weights.items()), mode
    blocks = [[(mode, w)] for mode in table for w in sorted(set(table[mode].values()))]
    blocks += [[("mod2", (0, 0)), ("outer", w)] for w in sorted(set(table["outer"].values()))]
    blocks.append([("mod2", (2, 0))])  # a weight no coordinate has
    for cons in blocks:
        want = [c for c in c2_all if all(table[mode][c] == tuple(w) for mode, w in cons)]
        assert c2_block_coords(g, cons) == want, cons
        want1 = [(k, i) for k in range(n) for i in range(n)
                 if all(c1_weight(g, k, i, mode) == tuple(w) for mode, w in cons)]
        assert c1_block_coords(g, cons) == want1, cons
    with pytest.raises(AlgebraError):
        c2_block_coords(g, [("q", (0,))])
