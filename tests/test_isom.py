import random
from functools import cached_property
from itertools import product
from typing import List, Optional, Sequence, Tuple

from gf2lie.constructions import (build_classical, build_div_free_hI, build_jurman,
                                  build_kap1, build_kap2, build_kap3, build_kap4A,
                                  build_kap4B, build_poisson)
import pytest

from gf2lie import experiments, gf2, isom
from gf2lie.isom import fingerprint, search_isomorphism
from gf2lie.liealg import (Algebra, AlgebraError, LinearMap, direct_sum, ideal_generated, subalgebra_generated,
                           verify_morphism)
from gf2lie.fields import GF2


def test_self_isomorphism():
    j = build_jurman(2, 1)
    r = search_isomorphism(j, j)
    assert r.kind == "iso"
    assert verify_morphism(r.map, "isomorphism")


def test_distinguished_by_solvability():
    # Kap_{4,B}(2) has a 3-dim simple quotient; po_Pi(2;1_s) is solvable
    k = build_kap4B(2)
    po = build_poisson(1, (1, 1))
    r = search_isomorphism(k, po)
    assert r.kind == "distinguished"
    fk, fp = fingerprint(k), fingerprint(po)
    assert fk["derived_dims"] != fp["derived_dims"]


def test_kaplansky_identifications():
    o3 = build_classical("oPi", 3, "derived")
    assert search_isomorphism(build_kap4A(2, 1), o3).kind == "iso"
    assert search_isomorphism(build_kap4A(4, 0), direct_sum(o3, o3)).kind == "iso"
    o5 = build_classical("oPi", 5, "derived")
    assert search_isomorphism(build_kap4A(4, 1), o5).kind == "iso"
    assert search_isomorphism(o5, build_kap3(5)).kind == "iso"


def test_torus_engine_kap1():
    kap1 = build_kap1(4)
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    r = search_isomorphism(kap1, lhp)
    assert r.kind == "iso" and r.engine == "torus"


def test_found_maps_reverify():
    pairs = [(build_kap4A(4, 1), build_kap3(5)),
             (build_kap1(4), build_div_free_hI(4, (1, 1, 1, 1), "derived"))]
    for a, b in pairs:
        r = search_isomorphism(a, b)
        assert r.kind == "iso"
        assert verify_morphism(r.map, "isomorphism")
        fa, fb = fingerprint(a), fingerprint(b)
        assert fa == fb  # fingerprint equality is necessary


def test_dim_mismatch_distinguished():
    r = search_isomorphism(build_kap2(4), build_kap2(6))
    assert r.kind == "distinguished"


@pytest.mark.parametrize("dim", [0, 3, 4, 5])
def test_abelian_algebras_of_equal_dim_are_isomorphic(dim):
    # three generators cannot generate an abelian algebra of dim >= 4, so
    # the generic engine used to answer "exhausted (no small generating set)"
    a = Algebra(GF2, ["a%d" % i for i in range(dim)], {})
    b = Algebra(GF2, ["b%d" % i for i in range(dim)], {})
    r = search_isomorphism(a, b)
    assert r.kind == "iso" and r.engine == "trivial"
    assert r.map.images == [1 << i for i in range(dim)] and verify_morphism(r.map, "isomorphism")


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_abelian_and_non_abelian_of_equal_dim_are_distinguished(dim):
    ab = Algebra(GF2, ["a%d" % i for i in range(dim)], {})
    heis = Algebra(GF2, ["h%d" % i for i in range(dim)], {(0, 1): {2: 1}})
    for a, b in ((ab, heis), (heis, ab)):
        assert search_isomorphism(a, b).kind == "distinguished"


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_1_is_refused(budget):
    j = build_jurman(2, 1)
    with pytest.raises(AlgebraError, match="search budget must be at least 1"):
        search_isomorphism(j, j, budget=budget)


def test_budget_of_1_still_searches():
    j = build_jurman(2, 1)
    assert search_isomorphism(j, j, budget=1).kind == "iso"


# ---------------------------------------------------------------------------
# the word closure that `isom._search` folded in, kept as an oracle for it:
# the product loops below evaluate its words in its round order
# ---------------------------------------------------------------------------

class GenWords:
    """Bracket words expressing a spanning set from a few generators."""

    def __init__(self, g: Algebra, gens: Sequence[int]):
        self.g = g
        self.vecs: List[int] = []
        self.words: List[Tuple] = []  # ("g", t) or ("br", i, j)
        self.span = gf2.Span()
        for t, v in enumerate(gens):
            if self.span.add(v):
                self.vecs.append(v)
                self.words.append(("g", t))
        frontier = list(range(len(self.vecs)))
        while frontier and self.span.dim < g.dim:
            new_frontier = []
            for i in frontier:
                ad = g.ad_rows(self.vecs[i])
                for j in range(len(self.vecs)):
                    w = gf2.apply_rows(ad, self.vecs[j])
                    if w and self.span.add(w):
                        self.vecs.append(w)
                        self.words.append(("br", i, j))
                        new_frontier.append(len(self.vecs) - 1)
                        if self.span.dim == g.dim:
                            break
                if self.span.dim == g.dim:
                    break
            frontier = new_frontier

    @cached_property
    def basis_coords(self) -> Optional[List[int]]:
        """For each unit e_i of the source, its combination over self.vecs."""
        span = gf2.TaggedSpan(self.g.dim)
        for v in self.vecs:
            span.add(v)
        out = [span.solve(1 << i) for i in range(self.g.dim)]
        return None if None in out else out

    def evaluate_in(self, h: Algebra, gen_images: Sequence[int]) -> Optional[List[int]]:
        """Images of all word vectors under a would-be morphism; None when the
        linear-dependence pattern already fails."""
        out: List[int] = []
        span = gf2.Span()
        for word, vec in zip(self.words, self.vecs):
            if word[0] == "g":
                w = gen_images[word[1]]
            else:
                w = h.bracket(out[word[1]], out[word[2]])
            if not span.add(w):
                return None  # independent upstairs, dependent downstairs
            out.append(w)
        return out


def test_search_verifies_no_tuple_with_dependent_images(monkeypatch):
    verified = []
    monkeypatch.setattr(isom, "verify_morphism",
                        lambda m, kind: verified.append(m.images) or verify_morphism(m, kind))
    a = build_jurman(2, 1)
    gens = isom.find_generators(a)
    e0, e9 = gens
    assert (e0, e9) == (1, 1 << 9)
    commuting = next((x, y) for x in range(1, 1 << 4) for y in range(x + 1, 1 << 4) if not a.bracket(x, y))
    for images in [(e0, e0), (e9, e9), (0, e9), (e0, 0), commuting]:
        assert isom._search(a, a, gens, [images], 1) == (None, 1)
    assert verified == []  # dependent generator or word images: dropped before verify_morphism
    rng = random.Random(28)
    tuples = [(rng.getrandbits(a.dim), rng.getrandbits(a.dim)) for _ in range(200)]
    assert isom._search(a, a, gens, tuples, 200) == (None, 200)
    assert 0 < len(verified) < 200
    assert all(gf2.rank(images) == a.dim for images in verified)  # only bijections are verified
    m, tried = isom._search(a, a, gens, tuples + [(e0, e9)], 201)
    assert tried == 201 and m.images == [1 << i for i in range(a.dim)]


# ---------------------------------------------------------------------------
# classification by ad_rows and rank per vector, kept as an oracle for the
# lazy classification on the incremental ad walk
# ---------------------------------------------------------------------------

def _ad_rows_classes(g):
    by_inv = {}
    for v in range(1, 1 << g.dim):
        rows = g.ad_rows(v)
        by_inv.setdefault((gf2.rank(rows), gf2.rank(gf2.compose(rows, rows))), []).append(v)
    return by_inv


@pytest.mark.parametrize("build", [lambda: build_classical("oPi", 5, "derived"),
                                   lambda: build_kap3(5), lambda: build_classical("psl", 4)],
                         ids=["oPi5", "kap3_5", "psl4"])
def test_ad_classes_match_the_per_vector_classification(build):
    g = build()
    want = _ad_rows_classes(g)
    lazy = isom._AdClasses(g, list(want))
    assert lazy.member(next(iter(want)), 1 << g.dim) is None  # walks to the end
    got = lazy.classes
    assert got == want and list(got) == list(want)


def test_lazy_classes_walk_only_as_far_as_the_product_reads():
    g = build_kap3(5)
    want = _ad_rows_classes(g)
    invs = [(4, 0), (6, 4), (4, 0)]
    lazy = isom._AdClasses(g, invs)
    first = next(lazy.product(invs))
    assert first == tuple(want[inv][0] for inv in invs)
    assert next(lazy.walk)[0] == max(first) + 1 < 1 << g.dim  # the walk stopped there
    lazy = isom._AdClasses(g, invs)
    assert list(lazy.product(invs)) == list(product(*(want[inv] for inv in invs)))
    assert lazy.classes == {inv: want[inv] for inv in invs}
    assert list(lazy.classes) == [(4, 0), (6, 4)]
    lazy = isom._AdClasses(g, [(5, 5)])
    assert lazy.member((5, 5), 0) is None and lazy.classes == {(5, 5): []}


def _nested_loop_generators(g, cand, max_size=3):
    """find_generators with hand-written index loops, kept as an oracle."""
    m = len(cand)
    for size in range(1, max_size + 1):
        if size == 1:
            combos = [(i,) for i in range(m)]
        elif size == 2:
            combos = [(i, j) for i in range(m) for j in range(i + 1, m)]
        else:
            combos = [(i, j, k) for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m)]
        for combo in combos:
            gens = [cand[t] for t in combo]
            if GenWords(g, gens).span.dim == g.dim:
                return gens
    return None


def _basis_and_pairs(n):
    """The generic engine's second candidate list: the basis, then e_i + e_j."""
    return [1 << i for i in range(n)] + [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]


def test_find_generators_matches_nested_index_loops():
    for g in [build_jurman(2, 1), build_kap3(5), build_kap4A(4, 1), build_classical("psl", 4),
              build_kap4B(2), build_poisson(1, (1, 1)), build_kap2(4), build_kap1(4), build_kap4A(4, 0),
              build_classical("oPi", 5, "derived")]:
        n = g.dim
        pairs = _basis_and_pairs(n)[n:]
        for cand in ([1 << i for i in range(n)], [1 << i for i in reversed(range(n))] + pairs,
                     _basis_and_pairs(n)):
            assert isom.find_generators(g, cand) == _nested_loop_generators(g, cand), g.name


@pytest.mark.parametrize("build", [lambda: build_classical("oPi", 5, "derived"), lambda: build_kap4A(4, 1)],
                         ids=["oPi5", "kap4_1_4"])
@pytest.mark.parametrize("pairs,most", [(False, 60), (True, 110)], ids=["basis", "basis+pairs"])
def test_find_generators_skips_sets_inside_a_failed_closure(monkeypatch, build, pairs, most):
    """A set inside a failed closure is never closed: the basis walk takes
    175 closures without the skip, basis and pairs 570-577."""
    g = build()
    calls = []
    monkeypatch.setattr(isom, "subalgebra_generated",
                        lambda g, vs: calls.append(vs) or subalgebra_generated(g, vs))
    cand = _basis_and_pairs(g.dim) if pairs else None
    assert (isom.find_generators(g, cand) is None) is not pairs  # the basis generates in no three
    assert len(calls) <= most


@pytest.mark.parametrize("cand", [[1, 1 << 5], [1, 2, 1 << 3], [1, 2, -1]],
                         ids=["far-beyond", "after-a-generating-pair", "negative"])
def test_find_generators_refuses_a_candidate_outside_the_algebra(monkeypatch, cand):
    o3 = build_classical("oPi", 3, "derived")
    assert isom.find_generators(o3, [1, 2]) == [1, 2]  # a walk over cand would stop before its end
    monkeypatch.setattr(isom, "subalgebra_generated", lambda g, vs: pytest.fail("closed %r" % (vs,)))
    with pytest.raises(AlgebraError, match="not a vector of"):
        isom.find_generators(o3, cand)


@pytest.mark.parametrize("close", [lambda g, v: subalgebra_generated(g, [v]), ideal_generated,
                                   lambda g, v: isom.find_generators(g, [v, 2])],
                         ids=["subalgebra_generated", "ideal_generated", "find_generators"])
def test_closures_read_a_dict_vector_as_its_mask(close):
    o3 = build_classical("oPi", 3, "derived")
    assert close(o3, {0: 1}) == close(o3, 1)


# ---------------------------------------------------------------------------
# the product-and-rank loop that the torus engine's walk of
# `gf2.invertibles` replaced, kept as an oracle for it
# ---------------------------------------------------------------------------

def _torus_product_loop(a, b):
    da, db = isom._torus_data(a), isom._torus_data(b)
    if da is None or db is None or da[0] != db[0]:
        return None
    r, wa = da
    _, wb = db
    pos_b = {w: i for i, w in enumerate(wb)}
    for rows in product(range(1, 1 << r), repeat=r):
        if gf2.rank(rows) != r:
            continue
        mapped = [pos_b.get(gf2.apply_rows(rows, w)) for w in wa]
        if None in mapped or len(set(mapped)) != len(mapped):
            continue
        m = LinearMap(a, b, [1 << i for i in mapped])
        if verify_morphism(m, "isomorphism"):
            return isom.IsoResult("iso", m, engine="torus")
    return None


def _toral(rows, weights):
    """A GF(2) algebra on e0, e1, ... with the given (Z/2)^2 weights."""
    return Algebra(GF2, ["e%d" % i for i in range(len(weights))],
                   {ij: dict.fromkeys(ks, 1) for ij, ks in rows.items()},
                   grading=weights, grading_mod=(2, 2))


def test_torus_engine_matches_the_product_loop():
    kap1, lhp = build_kap1(4), build_div_free_hI(4, (1, 1, 1, 1), "derived")
    # weight 0 on one side only: e0 acts diagonally on e1, e2; Heisenberg has no weight 0
    diag = _toral({(0, 1): (1,), (0, 2): (2,)}, [(0, 0), (1, 0), (0, 1)])
    heis = _toral({(0, 1): (2,)}, [(1, 0), (0, 1), (1, 1)])
    found = []
    for a, b in [(kap1, lhp), (lhp, kap1), (kap1, kap1), (diag, diag), (diag, heis), (heis, diag),
                 (heis, heis)]:
        got, want = isom._try_torus_engine(a, b), _torus_product_loop(a, b)
        assert (got and _outcome(got)) == (want and _outcome(want)), (a.name, b.name)
        found.append(got is not None)
    assert found == [True, True, True, True, False, False, True]


# ---------------------------------------------------------------------------
# the two generator-product loops that `isom._search` replaced, kept as an
# oracle for it
# ---------------------------------------------------------------------------

def _finish_map(a, b, gw, word_images):
    coords = gw.basis_coords
    if coords is None:
        return None
    m = LinearMap(a, b, [gf2.apply_rows(word_images, c) for c in coords])
    return m if verify_morphism(m, "isomorphism") else None


def _zgraded_loop(a, b, budget):
    da, db = isom._z_degrees(a), isom._z_degrees(b)
    if da is None or db is None:
        return None
    blocks_a, blocks_b = isom._block_map(da), isom._block_map(db)
    for (num, den, flip) in isom._match_scales(da, db):
        def bdeg(d):
            v = d * num // den
            return -v if flip else v
        if sorted((bdeg(d), len(ix)) for d, ix in blocks_a.items()) != \
           sorted((d, len(ix)) for d, ix in blocks_b.items()):
            continue
        order = sorted(range(a.dim), key=lambda i: (len(blocks_a[da[i]]), da[i], i))
        gens = isom.find_generators(a, [1 << i for i in order])
        if gens is None:
            continue
        gen_deg = []
        for v in gens:
            ds = {da[i] for i in gf2.bits(v)}
            gen_deg.append(ds.pop())
        cand_lists = []
        for d in gen_deg:
            tgt = blocks_b.get(bdeg(d), [])
            vecs = []
            for mask in range(1, 1 << len(tgt)):
                vecs.append(gf2.from_bits(tgt[t] for t in gf2.bits(mask)))
            cand_lists.append(sorted(vecs))
        gw = GenWords(a, gens)
        tried = 0
        for images in product(*cand_lists):
            tried += 1
            if tried > budget:
                return isom.IsoResult("exhausted", reason="graded search budget", engine="zgraded")
            word_imgs = gw.evaluate_in(b, list(images))
            if word_imgs is None:
                continue
            m = _finish_map(a, b, gw, word_imgs)
            if m is not None:
                return isom.IsoResult("iso", m, engine="zgraded")
    return None


def _generic_loop(a, b, budget):
    n = a.dim
    if n > 16:
        return isom.IsoResult("exhausted", reason="generic engine capped at dim 16 (dim %d)" % n,
                              engine="generic")
    gens = isom.find_generators(a)
    if gens is None:
        gens = isom.find_generators(a, [1 << i for i in range(n)] +
                                    [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)])
        if gens is None:
            return isom.IsoResult("exhausted", reason="no small generating set", engine="generic")
    by_inv = _ad_rows_classes(b)
    cand_lists = [by_inv.get(isom._ad_invariant(a.ad_rows(v)), []) for v in gens]
    if any(not c for c in cand_lists):
        return isom.IsoResult("exhausted", reason="no candidates share generator invariants",
                              engine="generic")
    gw = GenWords(a, gens)
    tried = 0
    for images in product(*cand_lists):
        tried += 1
        if tried > budget:
            return isom.IsoResult("exhausted", reason="generic search budget (%d tried)" % tried,
                                  engine="generic")
        word_imgs = gw.evaluate_in(b, list(images))
        if word_imgs is None:
            continue
        m = _finish_map(a, b, gw, word_imgs)
        if m is not None:
            return isom.IsoResult("iso", m, engine="generic")
    return isom.IsoResult("exhausted", reason="search space exhausted (%d tried)" % tried,
                          engine="generic")


def _fingerprint_first_search(a, b, budget=200_000):
    """search_isomorphism comparing whole fingerprints, derivation space
    included, before any engine runs; kept as an oracle for the search that
    computes the derivation space only when no graded engine found a map."""
    if a.dim != b.dim:
        return isom.IsoResult("distinguished", reason="dim %d != %d" % (a.dim, b.dim))
    fa, fb = fingerprint(a), fingerprint(b)
    for key in fa:
        if key in fb and fa[key] != fb[key]:
            return isom.IsoResult("distinguished", reason="%s: %r != %r" % (key, fa[key], fb[key]))
    if not a.sc and not b.sc:
        return isom.IsoResult("iso", LinearMap(a, b, [1 << i for i in range(b.dim)]), engine="trivial")
    return (isom._try_torus_engine(a, b) or isom._try_zgraded_engine(a, b, budget)
            or isom._generic_engine(a, b, budget))


def _outcome(r):
    return r.kind, r.engine, r.reason, r.map.images if r.map is not None else None


def _block_reversed(g):
    """g with its basis reversed inside each grading block: the first
    candidate tuple of the Z-graded search then fails."""
    blocks = {}
    for i, w in enumerate(g.grading):
        blocks.setdefault(w, []).append(i)
    pi = [0] * g.dim
    for ix in blocks.values():
        for s, t in zip(ix, reversed(ix)):
            pi[s] = t
    inv = sorted(range(g.dim), key=lambda i: pi[i])
    return Algebra(GF2, [g.labels[i] for i in inv],
                   {(pi[i], pi[j]): {pi[k]: 1 for k in row} for (i, j), row in g.sc.items()},
                   grading=[g.grading[i] for i in inv], grading_mod=g.grading_mod, name=g.name + " reversed")


def _algebra(n, rows, graded):
    return Algebra(GF2, ["e%d" % i for i in range(n)], {ij: dict.fromkeys(ks, 1) for ij, ks in rows.items()},
                   grading=[(0,)] * n if graded else None)


# two 4-dim algebras with equal fingerprints and no isomorphism: the generic
# search tries all 56 candidate tuples
NON_ISO_4 = ({(0, 1): (0, 2, 3), (1, 2): (3,), (1, 3): (0, 3)}, {(0, 3): (0,), (1, 3): (2,), (2, 3): (0, 1)})
# two more, where no vector of the second shares the ad ranks of a generator of the first
NO_CANDIDATES_4 = ({(0, 3): (0, 2, 3), (1, 2): (2,), (1, 3): (0, 3)},
                   {(0, 1): (0, 2, 3), (0, 2): (1, 2, 3), (1, 3): (0, 1), (2, 3): (0, 2, 3)})


def _search_corpus():
    o3 = build_classical("oPi", 3, "derived")
    o5 = build_classical("oPi", 5, "derived")
    j21 = build_jurman(2, 1)
    return {
        "j(2,1)": (j21, j21),
        "j(2,1) reversed": (j21, _block_reversed(j21)),
        "j(2,2) reversed": (build_jurman(2, 2), _block_reversed(build_jurman(2, 2))),
        "Kap4,1(2) ~ o'_Pi(3)": (build_kap4A(2, 1), o3),
        "Kap4,0(4) ~ o'_Pi(3)+o'_Pi(3)": (build_kap4A(4, 0), direct_sum(o3, o3)),
        "Kap4,1(4) ~ o'_Pi(5)": (build_kap4A(4, 1), o5),
        "o'_Pi(5) ~ Kap3(5)": (o5, build_kap3(5)),
        "Kap1(4) ~ lh_I(4;1_s)'": (build_kap1(4), build_div_free_hI(4, (1, 1, 1, 1), "derived")),
        "Kap4B(2) ~ o'_Pi(3)+c": (build_kap4B(2), direct_sum(o3, Algebra(GF2, ["c"], {}, name="c"))),
        "non-iso 4": tuple(_algebra(4, rows, False) for rows in NON_ISO_4),
        "non-iso 4, graded": tuple(_algebra(4, rows, True) for rows in NON_ISO_4),
        "non-iso 4, no candidates": tuple(_algebra(4, rows, False) for rows in NO_CANDIDATES_4),
    }


def test_search_matches_the_product_loops():
    reasons = set()
    for name, (a, b) in _search_corpus().items():
        assert fingerprint(a) == fingerprint(b), name
        for budget in (1, 2, 3, 10, 55, 56, 200_000):
            got = search_isomorphism(a, b, budget=budget)
            want = (isom._try_torus_engine(a, b) or _zgraded_loop(a, b, budget)
                    or _generic_loop(a, b, budget))
            assert _outcome(got) == _outcome(want), (name, budget)
            reasons.add(got.reason.split(" (")[0])
            assert _outcome(got) == _outcome(_fingerprint_first_search(a, b, budget)), (name, budget)
    assert reasons == {"", "graded search budget", "generic search budget", "search space exhausted",
                       "no candidates share generator invariants"}


def _criterion_9_literal_pair(monkeypatch):
    """The deform of h'_Pi(2;2,2) and psl(4) that criterion 9 compares."""
    seen = []
    monkeypatch.setattr(experiments, "search_isomorphism",
                        lambda a, b: seen.append((a, b)) or search_isomorphism(a, b))
    experiments.criterion_09_quantization()
    return seen[0]


def test_search_matches_the_fingerprint_first_search(monkeypatch):
    ab = [Algebra(GF2, ["a%d" % i for i in range(dim)], {}) for dim in (3, 4, 5)]
    heis = [Algebra(GF2, ["h%d" % i for i in range(dim)], {(0, 1): {2: 1}}) for dim in (3, 4, 5)]
    pairs = [p for a, h in zip(ab, heis) for p in ((a, h), (h, a), (a, a))]
    pairs += [(build_kap4B(2), build_poisson(1, (1, 1))), (build_kap2(4), build_kap2(6)),
              _criterion_9_literal_pair(monkeypatch)]
    reasons = []
    for a, b in pairs:
        for budget in (1, 200_000):  # at budget 1 the Z-graded engine runs out on the literal pair
            got = search_isomorphism(a, b, budget=budget)
            assert _outcome(got) == _outcome(_fingerprint_first_search(a, b, budget)), (a.name, b.name)
        reasons.append(got.reason.split(":")[0])
    assert reasons[-3:] == ["derived_dims", "dim 15 != 63", "derivation_dim"]
    assert got.reason == "derivation_dim: 20 != 21"
    assert isom._try_zgraded_engine(*pairs[-1], 1).reason == "graded search budget"
