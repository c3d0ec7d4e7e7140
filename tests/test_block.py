"""The weight-block `Block` against the solvers it replaced.

The functions prefixed `old_` are the implementations that each built
their own cochain <-> bit-mask encoding before `cohomology.Block` owned
it; they are kept verbatim as differential oracles.  Results must agree
exactly, including the insertion order of `Cochain2.terms`.  So are the
unit columns built through `d1`/`d2` and the tuple-keyed `OldC3Index`,
against the columns `Block` writes from the incidence index.
"""

import copy
import random

import pytest

from gf2lie import deform, gf2
from gf2lie.cohomology import (Block, C3Index, Cochain2, block_consistent_representative,
                               c1_block_coords, c2_block_coords, coboundary_block, coboundary_of,
                               combine, compute_h2, consistent_class_masks, d1, d2, parse_cocycle)
from gf2lie.constructions import build_hamiltonian, build_hI, build_tensor_example
from gf2lie.deform import _d2_solutions, defect, in_d2_image, zero_defect_representative
from gf2lie.experiments import (GH31_WEIGHTS, HI_OUTER_DEGREES, PRINTED_GH21, PRINTED_GH21_PARTIAL,
                                PRINTED_GH31, PRINTED_GH31_PARTIAL, PRINTED_HI, PRINTED_HI_PARTIAL)
from gf2lie.liealg import AlgebraError

# ---------------------------------------------------------------------------
# the pre-Block implementations
# ---------------------------------------------------------------------------


def _old_cochain_to_coords(c, coord_index, strict):
    m = 0
    for pr, v in c.terms.items():
        for k in gf2.bits(v):
            pos = coord_index.get((pr, k))
            if pos is None:
                if strict:
                    raise AlgebraError("cochain leaves the weight block at %r" % ((pr, k),))
                continue
            m |= 1 << pos
    return m


def _old_coords_to_cochain(g, mask, coords):
    terms = {}
    for pos in gf2.bits(mask):
        pr, k = coords[pos]
        terms[pr] = terms.get(pr, 0) ^ (1 << k)
    return Cochain2(g, terms)


def _old_unit_coboundary(g, k, i):
    images = [0] * g.dim
    images[i] = 1 << k
    return d1(g, images)


class OldC3Index:
    """The tuple-keyed C^3 index: position of (i<j<k triple, value index)."""

    def __init__(self):
        self.positions = {}

    def encode(self, tri_val):
        pos = self.positions
        m = 0
        for tri, w in tri_val.items():
            for l in gf2.bits(w):
                m |= 1 << pos.setdefault(tri + (l,), len(pos))
        return m

    @property
    def width(self):
        return max(1, len(self.positions))


def _old_d1_columns(blk):
    return [blk.encode(_old_unit_coboundary(blk.g, k, i)) for k, i in blk.c1]


def _old_d2_columns(g, coords, c3):
    return [c3.encode(d2(Cochain2(g, {pr: 1 << k}))) for pr, k in coords]


def old_coboundary_of(c, constraints=()):
    g = c.algebra
    n = g.dim
    coord_index = {c: t for t, c in enumerate(c2_block_coords(g))}
    span = gf2.TaggedSpan(len(coord_index))
    gens = c1_block_coords(g, constraints)
    for k, i in gens:
        span.add(_old_cochain_to_coords(_old_unit_coboundary(g, k, i), coord_index, strict=False))
    target = _old_cochain_to_coords(c, coord_index, strict=False)
    sol = span.solve(target)
    if sol is None:
        return None
    images = [0] * n
    for pos in gf2.bits(sol):
        k, i = gens[pos]
        images[i] ^= 1 << k
    return images


def old_coboundary_block(g, constraints):
    span = gf2.Span()
    coord_index = {c: t for t, c in enumerate(c2_block_coords(g))}
    out = []
    for k, i in c1_block_coords(g, constraints):
        cb = _old_unit_coboundary(g, k, i)
        if cb and span.add(_old_cochain_to_coords(cb, coord_index, strict=False)):
            out.append(cb)
    return out


def _old_generator_rows(gens, coords):
    return [gf2.from_bits(t for t, gen in enumerate(gens) if (gen.terms.get(pr, 0) >> k) & 1)
            for pr, k in coords]


def old_block_consistent_representative(g, printed, constraints):
    blk = compute_h2(g, constraints=constraints)
    if blk.dim == 0:
        return None
    gens = blk.representatives + old_coboundary_block(g, list(constraints))
    coords = [(pr, k) for pr, v in printed.terms.items() for k in gf2.bits(v)]
    if not coords:
        return None
    rows = _old_generator_rows(gens, coords)
    x0 = gf2.solve(rows, [1] * len(rows), len(gens))
    if x0 is None:
        return None
    class_mask = (1 << blk.dim) - 1
    if not (x0 & class_mask):
        for kv in gf2.kernel(rows, len(gens)):
            if kv & class_mask:
                x0 ^= kv
                break
        else:
            return None
    out = Cochain2(g, {})
    for t in gf2.bits(x0):
        out = out + gens[t]
    return out


def old_consistent_class_masks(g, printed, constraints):
    blk = compute_h2(g, constraints=constraints)
    gens = blk.representatives + old_coboundary_block(g, list(constraints))
    coords = [(pr, k) for pr, v in printed.terms.items() for k in gf2.bits(v)]
    rows = _old_generator_rows(gens, coords)
    x0 = gf2.solve(rows, [1] * len(rows), len(gens))
    if x0 is None:
        return blk, []
    class_mask = (1 << blk.dim) - 1
    proj = gf2.Span(kv & class_mask for kv in gf2.kernel(rows, len(gens)))
    base = x0 & class_mask
    out = {base}
    rows_p = proj.sorted_rows()
    for sub in range(1 << len(rows_p)):
        v = base
        for t in gf2.bits(sub):
            v ^= rows_p[t]
        out.add(v)
    return blk, sorted(out)


def old_in_d2_image(g, target):
    coords = c2_block_coords(g)
    c3 = OldC3Index()
    images = _old_d2_columns(g, coords, c3)
    tmask = c3.encode(target)
    span = gf2.TaggedSpan(c3.width)
    for im in images:
        span.add(im)
    sol = span.solve(tmask)
    if sol is None:
        return None
    return _old_coords_to_cochain(g, sol, coords)


def old_d2_solutions(g, target, constraints, kernel_cap=6):
    coords = c2_block_coords(g, constraints)
    if not coords:
        return []
    c3 = OldC3Index()
    images = _old_d2_columns(g, coords, c3)
    tmask = c3.encode(target)
    width = c3.width
    span = gf2.TaggedSpan(width)
    for im in images:
        span.add(im)
    sol = span.solve(tmask)
    if sol is None:
        return []
    kernel = gf2.combination_kernel(images, width)
    out = [_old_coords_to_cochain(g, sol, coords)]
    for kv in kernel[:kernel_cap]:
        out.append(_old_coords_to_cochain(g, sol ^ kv, coords))
    return out


# ---------------------------------------------------------------------------
# the printed blocks
# ---------------------------------------------------------------------------

HP22 = build_hamiltonian(1, (2, 2), "derived")
HP23 = build_hamiltonian(1, (2, 3), "derived")
HI = build_hI(2, (2, 2))


def _hi(d):
    return [("mod2", (0, 0)), ("outer", (d,))]


# (algebra, constraints, printed texts of that block)
CASES = {}
for _w in sorted(set(PRINTED_GH21) | set(PRINTED_GH21_PARTIAL)):
    CASES["hp22 z%s" % (_w,)] = (HP22, [("z", _w)], [t for tab in (PRINTED_GH21, PRINTED_GH21_PARTIAL)
                                                      for w, t in tab.items() if w == _w])
for _w in sorted(set(PRINTED_GH31) | set(PRINTED_GH31_PARTIAL) | set(GH31_WEIGHTS)):
    CASES["hp23 z%s" % (_w,)] = (HP23, [("z", _w)], [t for tab in (PRINTED_GH31, PRINTED_GH31_PARTIAL)
                                                      for w, t in tab.items() if w == _w])
for _d in sorted(HI_OUTER_DEGREES):
    CASES["hI outer %d" % _d] = (HI, _hi(_d), [t for (_, d), t in PRINTED_HI.items() if d == _d]
                                 + [t for d, t in PRINTED_HI_PARTIAL if d == _d])


def _items(cochains):
    return [None if c is None else list(c.terms.items()) for c in cochains]


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_matches_pre_block_solvers(name):
    g, cons, texts = CASES[name]
    cobs = coboundary_block(g, cons)
    assert _items(cobs) == _items(old_coboundary_block(g, cons))
    h2 = compute_h2(g, constraints=cons)
    assert _items(h2.coboundaries) == _items(cobs) and h2.dims[1] == len(cobs)
    blk = Block(g, cons)
    assert blk.coords == c2_block_coords(g, cons) and blk.c1 == c1_block_coords(g, cons)
    for c in h2.representatives + cobs:
        assert list(blk.decode(blk.encode(c)).terms.items()) == list(c.terms.items())
    # the printed texts, plus coboundaries and single coboundary terms,
    # whose solutions put no weight on the classes until the kernel does,
    # and a term outside the block
    extra = cobs[:2] + [Cochain2(g, {pr: v & -v}) for c in cobs[:4]
                        for pr, v in list(c.terms.items())[:1]]
    inside = set(blk.coords)
    pr, k = next(c for c in c2_block_coords(g) if c not in inside)
    extra.append(Cochain2(g, {pr: 1 << k}))
    for printed in [parse_cocycle(text, g) for text in texts] + extra:
        assert (_items([block_consistent_representative(g, printed, cons)])
                == _items([old_block_consistent_representative(g, printed, cons)]))
        assert consistent_class_masks(g, printed, cons)[1] == old_consistent_class_masks(g, printed, cons)[1]
    # d2 solves: one solvable target, and the defect of each class
    # representative in the doubled block (as the Massey tower asks)
    rng = random.Random(name)
    if blk.coords:
        c = blk.decode(rng.getrandbits(len(blk.coords)))
        assert _items(_d2_solutions(g, d2(c), cons)) == _items(old_d2_solutions(g, d2(c), cons))
    doubled = [(mode, w if mode == "mod2" else tuple(2 * x for x in w)) for mode, w in cons]
    for rep in h2.representatives:
        assert (_items(_d2_solutions(g, defect(rep), doubled))
                == _items(old_d2_solutions(g, defect(rep), doubled)))


# every printed block, and the unconstrained blocks
BLOCKS = dict({name: (g, cons) for name, (g, cons, _) in CASES.items()},
              **{"%s all" % tag: (g, []) for tag, g in (("hp22", HP22), ("hp23", HP23), ("hI", HI))})


def _sub_block(blk, coords):
    """blk restricted to the unit 2-cochains at `coords`, for d2_columns."""
    sub = copy.copy(blk)
    sub.coords = coords
    return sub


def _coordinate_sets(cols, c3, coordinate):
    """Each column as its set of C^3 coordinates (i, j, k, l);
    `coordinate` reads one back from a key of c3."""
    key_at = {t: key for key, t in c3.positions.items()}
    return [{coordinate(key_at[t]) for t in gf2.bits(col)} for col in cols]


def _unkey(n):
    def coordinate(key):
        key, l = divmod(key, n)
        key, k = divmod(key, n)
        return divmod(key, n) + (k, l)
    return coordinate


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_unit_columns_match_d1_and_d2(name):
    g, cons = BLOCKS[name]
    blk = Block(g, cons)
    d1_cols = list(blk.d1_columns())
    assert d1_cols == _old_d1_columns(blk)
    # the unconstrained hp23 block has 13,050 columns: compare them in
    # slices, each through fresh indexes, to keep the masks short
    for lo in range(0, len(blk.coords), 2000):
        coords = blk.coords[lo:lo + 2000]
        c3, old_c3 = C3Index(g.dim), OldC3Index()
        assert (_coordinate_sets(_sub_block(blk, coords).d2_columns(c3), c3, _unkey(g.dim))
                == _coordinate_sets(_old_d2_columns(g, coords, old_c3), old_c3, tuple))
    # d2∘d1 = 0 on the emitted columns
    assert any(d1_cols) or not blk.c1
    for col in d1_cols:
        acc = 0
        for d2_col in _sub_block(blk, [blk.coords[t] for t in gf2.bits(col)]).d2_columns(C3Index(g.dim)):
            acc ^= d2_col
        assert not acc, (name, col)


def test_newton_branch_of_zero_defect_representative(monkeypatch):
    # enum_limit=0 sends every representative with a nonzero defect to the
    # Newton iteration, which encodes its quadratic system through C3Index
    found = 0
    for d in sorted(HI_OUTER_DEGREES):
        cons = _hi(d)
        blk = Block(HI, cons)
        cob_span = blk.coboundaries()[0]
        for rep in compute_h2(HI, constraints=cons).representatives:
            if not defect(rep):
                continue
            got = zero_defect_representative(HI, rep, cons, enum_limit=0)
            with monkeypatch.context() as m:
                m.setattr(deform, "C3Index", lambda n: OldC3Index())
                want = zero_defect_representative(HI, rep, cons, enum_limit=0)
            assert _items([got]) == _items([want])
            if got is not None:
                found += 1
                assert not defect(got) and not cob_span.reduce(blk.encode(got + rep))
    assert found  # the degree -4 block has one


def test_coboundary_of_matches_pre_block():
    rng = random.Random(5)
    ex = build_tensor_example()
    cex = Cochain2(ex, {(1, 3): 1 << 2})  # e10 (x) d(e01)^d(e11)
    cases = [cex, cex + d1(ex, [rng.getrandbits(ex.dim) for _ in range(ex.dim)])]
    cases += [d1(ex, [rng.getrandbits(ex.dim) for _ in range(ex.dim)]) for _ in range(5)]
    for w in ((0, -2), (-2, -2)):
        h2 = compute_h2(HP22, weight_filter=w)
        cases += h2.representatives + h2.coboundaries[:3]
        cases.append(combine(h2.coboundaries, rng.getrandbits(len(h2.coboundaries)), Cochain2(HP22, {})))
    for c in cases:
        assert coboundary_of(c) == old_coboundary_of(c)
    assert coboundary_of(cex) is None and coboundary_of(cases[2]) is not None


def test_in_d2_image_matches_pre_block():
    ex = build_tensor_example()
    rng = random.Random(6)
    for _ in range(4):
        c = Cochain2(ex, {(i, j): rng.getrandbits(ex.dim) for i in range(ex.dim) for j in range(i + 1, ex.dim)
                          if rng.random() < 0.5})
        for target in (d2(c), defect(c)):
            assert _items([in_d2_image(ex, target)]) == _items([old_in_d2_image(ex, target)])
    rep = compute_h2(HP22, weight_filter=(-2, -2)).representatives[0]
    for target in (d2(rep + Cochain2(HP22, {(0, 1): 3})), defect(rep)):
        assert _items([in_d2_image(HP22, target)]) == _items([old_in_d2_image(HP22, target)])


def test_combine_adds_left_to_right():
    cobs = compute_h2(HP22, weight_filter=(0, -2)).coboundaries
    start = cobs[0]
    for mask in range(1 << min(len(cobs), 6)):
        want = start
        for t in gf2.bits(mask):
            want = want + cobs[t]
        assert list(combine(cobs, mask, start).terms.items()) == list(want.terms.items())


def test_empty_printed_cochain_meets_every_class():
    cons = [("z", (0, -2))]
    empty = Cochain2(HP22, {})
    h2, masks = consistent_class_masks(HP22, empty, cons)
    assert masks == [0, 1]
    assert block_consistent_representative(HP22, empty, cons) == h2.representatives[0]


def test_ungraded_mode_is_refused_by_every_block_solver():
    # the bracket of h'_Pi(2;2,2) has mod-2 weight (1, 1), not 0
    msg = r"weight mode 'mod2' does not grade h'_Pi\(2;\[2, 2\]\)"
    cons = [("mod2", (1, 1))]
    for call in (lambda: Block(HP22, cons), lambda: coboundary_block(HP22, cons),
                 lambda: compute_h2(HP22, constraints=cons),
                 lambda: _d2_solutions(HP22, {}, cons),
                 lambda: block_consistent_representative(HP22, Cochain2(HP22, {}), cons)):
        with pytest.raises(AlgebraError, match=msg):
            call()
    # before Block, coboundary_block handed back cochains outside the block
    inside = set(c2_block_coords(HP22, cons))
    assert any((pr, k) not in inside for c in old_coboundary_block(HP22, cons)
               for pr, v in c.terms.items() for k in gf2.bits(v))


def test_encode_refuses_a_cochain_outside_the_block():
    blk = Block(HP22, [("z", (0, -2))])
    c = compute_h2(HP22, weight_filter=(-2, -2)).representatives[0]
    with pytest.raises(AlgebraError, match="leaves the weight block"):
        blk.encode(c)
    assert blk.decode(0) == Cochain2(HP22, {})
