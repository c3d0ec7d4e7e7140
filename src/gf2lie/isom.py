"""Isomorphism search between structure-constant algebras over GF(2).

Three engines, tried in order of strength of available structure:
  E1  both algebras carry (Z/2)^r torus gradings with 1-dimensional
      weight blocks: walk the GL(r,2) maps that send weights to weights;
  E2  both carry a rank-1 Z-grading: block-matched generator search;
  E3  generic generator search over ad-rank invariant classes, walked
      only as far as the search reads them.
Every found map is post-verified; "distinguished" is only reported on
honest invariants, never on grading data: dimension, the derived and
lower-central series and the center first, then, only when E1 and E2 found
no map, the derivation space (before E3 or a Z-graded "exhausted").  A
verified isomorphism implies equal invariants, so the verdict and reason
are those of comparing whole fingerprints first.
"""

from __future__ import annotations

from itertools import combinations, product as _cartesian
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gf2
from .cohomology import derivation_dim
from .liealg import (Algebra, AlgebraError, LinearMap, Vec, ad_walk, brackets, center, derived_series_dims,
                     lower_central_dims, refuse_outside, subalgebra_generated, verify_morphism)


class IsoResult:
    def __init__(self, kind: str, mapping: Optional[LinearMap] = None, reason: str = "",
                 engine: str = ""):
        self.kind = kind  # "iso" | "distinguished" | "exhausted"
        self.map = mapping
        self.reason = reason
        self.engine = engine

    def __repr__(self):
        if self.kind == "iso":
            return "<iso found (%s)>" % self.engine
        return "<%s: %s>" % (self.kind, self.reason)


def _structure_dims(g: Algebra) -> dict:
    return {
        "dim": g.dim,
        "derived_dims": tuple(derived_series_dims(g)),
        "lower_central_dims": tuple(lower_central_dims(g)),
        "center_dim": center(g).dim,
    }


def _derivation_dims(g: Algebra) -> dict:
    return {"derivation_dim": derivation_dim(g)} if g.dim <= 32 else {}


def fingerprint(g: Algebra) -> dict:
    return {**_structure_dims(g), **_derivation_dims(g)}


def _first_difference(fa: dict, fb: dict) -> Optional[IsoResult]:
    for key in fa:
        if key in fb and fa[key] != fb[key]:
            return IsoResult("distinguished", reason="%s: %r != %r" % (key, fa[key], fb[key]))
    return None


def search_isomorphism(a: Algebra, b: Algebra, budget: int = 200_000) -> IsoResult:
    if budget < 1:
        raise AlgebraError("search budget must be at least 1, got %d" % budget)
    if a.dim != b.dim:
        return IsoResult("distinguished", reason="dim %d != %d" % (a.dim, b.dim))
    res = _first_difference(_structure_dims(a), _structure_dims(b))
    if res is not None:
        return res
    if not a.rows and not b.rows:  # abelian: every invertible map is an isomorphism
        identity = LinearMap(a, b, [b.unit(i) for i in range(b.dim)])
        if verify_morphism(identity, "isomorphism"):
            return IsoResult("iso", identity, engine="trivial")

    res = _try_torus_engine(a, b) or _try_zgraded_engine(a, b, budget)
    if res is not None and res.kind == "iso":
        return res
    return (_first_difference(_derivation_dims(a), _derivation_dims(b))
            or res or _generic_engine(a, b, budget))


# ---------------------------------------------------------------------------
# E1: (Z/2)^r torus gradings with singleton blocks
# ---------------------------------------------------------------------------

def _torus_data(g: Algebra):
    if not g.grading or set(g.grading_mod) != {2} or len(g.grading_mod) > 4:
        return None
    weights = [gf2.from_seq(w) for w in g.grading]
    if len(set(weights)) != len(weights):
        return None  # blocks must be singletons
    return len(g.grading_mod), weights


def _try_torus_engine(a: Algebra, b: Algebra) -> Optional[IsoResult]:
    da, db = _torus_data(a), _torus_data(b)
    if da is None or db is None or da[0] != db[0]:
        return None
    r, wa = da
    _, wb = db
    if (0 in wa) != (0 in wb):
        return None  # M 0 = 0, so weight 0 maps only to weight 0
    pos_b = {w: i for i, w in enumerate(wb)}
    by_top = [[w for w in wa if w >> k == 1] for k in range(r)]

    def fits(k, img):  # the weights of a with top bit k land on weights of b
        return all(img[w] in pos_b for w in by_top[k])

    # an invertible M keeps distinct weights distinct
    for rows in gf2.invertibles(r, fits):
        m = LinearMap(a, b, [1 << pos_b[gf2.apply_rows(rows, w)] for w in wa])
        if verify_morphism(m, "isomorphism"):
            return IsoResult("iso", m, engine="torus")
    return None


# ---------------------------------------------------------------------------
# generator search shared by E2/E3
# ---------------------------------------------------------------------------

def find_generators(g: Algebra, candidates: Optional[Sequence[Vec]] = None) -> Optional[List[int]]:
    """The first generating set of at most three of the given vectors
    (default: basis), by size, then in `combinations` order.  Each vector
    must lie in g.

    A set whose members all lie in the closure of a set that failed is
    skipped: that closure is a proper subalgebra, so it holds the closure
    of the set too.  Each failed closure of two or more vectors is kept as
    the mask of the candidates it holds; a prefix (a set minus its last
    member) ORs the masks that hold it into the last members it skips.  A
    single vector closes to its own line and is not kept."""
    cand = list(candidates) if candidates is not None else [1 << i for i in range(g.dim)]
    refuse_outside(g, cand, "a generator candidate")
    cand = [g.as_mask(v) for v in cand]
    m, failed = len(cand), []
    for size in (1, 2, 3):
        for prefix in combinations(range(m), size - 1):
            held, skip = gf2.from_bits(prefix), 0
            for mask in failed:
                if mask & held == held:
                    skip |= mask
            for k in range(prefix[-1] + 1 if prefix else 0, m):
                if skip >> k & 1:
                    continue
                gens = [cand[i] for i in prefix + (k,)]
                sub = subalgebra_generated(g, gens)
                if sub.dim == g.dim:
                    return gens
                if prefix:
                    failed.append(gf2.from_bits(i for i, v in enumerate(cand) if v in sub))
                    skip |= failed[-1]
    return None


def _search(a: Algebra, b: Algebra, gens: Sequence[int], candidates: Iterable[Tuple[int, ...]],
            budget: int) -> Tuple[Optional[LinearMap], int]:
    """The first verified isomorphism sending gens[t] to images[t], over the
    candidate tuples `images` in order, and the number of tuples tried;
    budget + 1 tried means the budget ran out.  The gens must be independent
    and generate a, as `find_generators` ensures.

    The gens are closed under the bracket as in `subalgebra_generated`,
    recording each vector that grows the span as a word [vecs[i], vecs[j]];
    a tuple's word images are bracketed in b in that order, and the tuple
    is dropped as soon as they fall dependent, since an isomorphism keeps
    them independent."""
    span, vecs, words = gf2.Span(gens), list(gens), []
    for i, v in enumerate(vecs):  # vecs grows as it is walked
        if span.dim == a.dim:
            break
        for j, w in enumerate(brackets(a, [v], vecs[:i])):
            if w and span.add(w):
                vecs.append(w)
                words.append((i, j))
    coords = gf2.invert(vecs, a.dim)  # e_k = sum of vecs over coords[k]
    tried = 0
    for images in candidates:
        tried += 1
        if tried > budget:
            break
        out = list(images)
        span = gf2.Span(out)
        for i, j in words:
            if span.dim < len(out):
                break
            out.append(b.bracket(out[i], out[j]))
            span.add(out[-1])
        if span.dim < a.dim:
            continue  # independent upstairs, dependent downstairs
        m = LinearMap(a, b, [gf2.apply_rows(out, c) for c in coords])
        if verify_morphism(m, "isomorphism"):
            return m, tried
    return None, tried


# ---------------------------------------------------------------------------
# E2: rank-1 Z-gradings
# ---------------------------------------------------------------------------

def _z_degrees(g: Algebra) -> Optional[List[int]]:
    if g.grading is None or g.grading_mod != (0,):
        return None
    return [w[0] for w in g.grading]


def _block_map(degs: List[int]) -> Dict[int, List[int]]:
    blocks: Dict[int, List[int]] = {}
    for i, d in enumerate(degs):
        blocks.setdefault(d, []).append(i)
    return blocks


def _match_scales(da: List[int], db: List[int]):
    """Yield (scale num, den, flip) making db = s * da as graded sets."""
    A = sorted(set(da))
    B = sorted(set(db))
    if len(A) != len(B):
        return
    for flip in (False, True):
        Bf = [-x for x in reversed(B)] if flip else B
        nzA = [x for x in A if x]
        nzB = [x for x in Bf if x]
        if bool(nzA) != bool(nzB):
            continue
        if not nzA:
            yield (1, 1, flip)
            continue
        # candidate scale from extreme entries
        num, den = nzB[-1], nzA[-1]
        if all(x * num % den == 0 for x in A) and [x * num // den for x in A] == Bf:
            yield (num, den, flip)


def _try_zgraded_engine(a: Algebra, b: Algebra, budget: int) -> Optional[IsoResult]:
    da, db = _z_degrees(a), _z_degrees(b)
    if da is None or db is None:
        return None
    blocks_a, blocks_b = _block_map(da), _block_map(db)
    for (num, den, flip) in _match_scales(da, db):
        # degree d in A corresponds to degree s*d (optionally flipped) in B
        def bdeg(d):
            v = d * num // den
            return -v if flip else v
        if sorted((bdeg(d), len(ix)) for d, ix in blocks_a.items()) != \
           sorted((d, len(ix)) for d, ix in blocks_b.items()):
            continue
        # pick generators among homogeneous basis vectors, smallest blocks first
        order = sorted(range(a.dim), key=lambda i: (len(blocks_a[da[i]]), da[i], i))
        gens = find_generators(a, [1 << i for i in order])
        if gens is None:
            continue
        cand_lists = []
        for v in gens:  # basis vectors, so homogeneous
            tgt = blocks_b.get(bdeg(da[v.bit_length() - 1]), [])
            cand_lists.append(sorted(gf2.from_bits(tgt[t] for t in gf2.bits(mask))
                                     for mask in range(1, 1 << len(tgt))))
        m, tried = _search(a, b, gens, _cartesian(*cand_lists), budget)
        if m is not None:
            return IsoResult("iso", m, engine="zgraded")
        if tried > budget:
            return IsoResult("exhausted", reason="graded search budget", engine="zgraded")
    return None


# ---------------------------------------------------------------------------
# E3: generic search with ad-rank pruning
# ---------------------------------------------------------------------------

def _ad_invariant(rows: List[int]) -> Tuple[int, int]:
    """(rank ad v, rank ad v^2) from the rows of ad v."""
    return gf2.rank(rows), gf2.rank(gf2.compose(rows, rows))


class _AdClasses:
    """The nonzero vectors of g with each wanted `_ad_invariant`, ascending.
    One `ad_walk` advances only as far as a read needs, and rank ad v^2 is
    computed only where rank ad v is a wanted one."""

    def __init__(self, g: Algebra, wanted: Sequence[Tuple[int, int]]):
        self.n = g.dim
        self.walk = ad_walk(g)
        self.classes: Dict[Tuple[int, int], List[int]] = {inv: [] for inv in wanted}
        self.ranks = {r for r, _ in wanted}

    def member(self, inv: Tuple[int, int], k: int) -> Optional[int]:
        """The k-th vector of class inv, or None past its end."""
        n, found = self.n, self.classes[inv]
        mask = (1 << n) - 1
        while len(found) <= k:
            step = next(self.walk, None)
            if step is None:
                return None
            v, ad = step
            rows = [(ad >> s) & mask for s in range(0, n * n, n)]
            r = gf2.rank(rows)
            if r in self.ranks:
                cls = self.classes.get((r, gf2.rank(gf2.compose(rows, rows))))
                if cls is not None:
                    cls.append(v)
        return found[k]

    def product(self, invs: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, ...]]:
        """`itertools.product` over the classes invs, read lazily."""
        k = 0
        while (v := self.member(invs[0], k)) is not None:
            for rest in (self.product(invs[1:]) if len(invs) > 1 else [()]):
                yield (v,) + rest
            k += 1


def _generic_engine(a: Algebra, b: Algebra, budget: int) -> IsoResult:
    n = a.dim
    if n > 16:
        return IsoResult("exhausted",
                         reason="generic engine capped at dim 16 (dim %d)" % n,
                         engine="generic")
    gens = find_generators(a)
    if gens is None:
        gens = find_generators(a, [1 << i for i in range(n)] +
                               [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)])
        if gens is None:
            return IsoResult("exhausted", reason="no small generating set", engine="generic")
    inv_gens = [_ad_invariant(a.ad_rows(v)) for v in gens]
    m, tried = _search(a, b, gens, _AdClasses(b, inv_gens).product(inv_gens), budget)
    if m is not None:
        return IsoResult("iso", m, engine="generic")
    if not tried:  # some generator's class is empty
        return IsoResult("exhausted", reason="no candidates share generator invariants", engine="generic")
    what = "generic search budget" if tried > budget else "search space exhausted"
    return IsoResult("exhausted", reason="%s (%d tried)" % (what, tried), engine="generic")
