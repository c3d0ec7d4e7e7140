"""Isomorphism search between structure-constant algebras over GF(2).

Three engines, tried in order of strength of available structure:
  E1  both algebras carry (Z/2)^r torus gradings with 1-dimensional
      weight blocks: enumerate small GL(r,2) lattice maps;
  E2  both carry a rank-1 Z-grading: block-matched generator search;
  E3  generic generator search pruned by ad-rank invariant classes.
Every found map is post-verified; "distinguished" is only reported on
honest invariants (dimension, derived/lower-central series, center,
derivation space), never on grading data.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .liealg import (Algebra, LinearMap, center, derivation_dim,
                     derived_series_dims, lower_central_dims, verify_morphism)


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


def fingerprint(g: Algebra, with_derivations: bool = True) -> dict:
    fp = {
        "dim": g.dim,
        "derived_dims": tuple(derived_series_dims(g)),
        "lower_central_dims": tuple(lower_central_dims(g)),
        "center_dim": center(g).dim,
    }
    if with_derivations and g.dim <= 32:
        fp["derivation_dim"] = derivation_dim(g)
    return fp


def search_isomorphism(a: Algebra, b: Algebra, budget: int = 200_000,
                       rng_seed: int = 0) -> IsoResult:
    if a.dim != b.dim:
        return IsoResult("distinguished", reason="dim %d != %d" % (a.dim, b.dim))
    fa, fb = fingerprint(a), fingerprint(b)
    for key in fa:
        if key in fb and fa[key] != fb[key]:
            return IsoResult("distinguished",
                             reason="%s: %r != %r" % (key, fa[key], fb[key]))
    if a.dim == 0:
        return IsoResult("iso", LinearMap(a, b, []), engine="trivial")

    res = _try_torus_engine(a, b)
    if res is not None:
        return res
    res = _try_zgraded_engine(a, b, budget)
    if res is not None:
        return res
    return _generic_engine(a, b, budget)


# ---------------------------------------------------------------------------
# E1: (Z/2)^r torus gradings with singleton blocks
# ---------------------------------------------------------------------------

def _torus_data(g: Algebra):
    if g.grading is None or g.grading_mod is None:
        return None
    if any(m != 2 for m in g.grading_mod):
        return None
    r = len(g.grading_mod)
    if r > 4:
        return None
    weights = [gf2.from_seq(w) for w in g.grading]
    if len(set(weights)) != len(weights):
        return None  # blocks must be singletons
    return r, weights


def _try_torus_engine(a: Algebra, b: Algebra) -> Optional[IsoResult]:
    da, db = _torus_data(a), _torus_data(b)
    if da is None or db is None or da[0] != db[0]:
        return None
    r, wa = da
    _, wb = db
    pos_b = {w: i for i, w in enumerate(wb)}
    # enumerate invertible r x r matrices M over GF(2), rows as ints
    for rows in _cartesian(range(1, 1 << r), repeat=r):
        if gf2.rank(rows) != r:
            continue
        mapped = []
        ok = True
        for w in wa:
            mw = 0
            for t in gf2.bits(w):
                mw ^= rows[t]
            if mw not in pos_b:
                ok = False
                break
            mapped.append(pos_b[mw])
        if not ok or len(set(mapped)) != len(mapped):
            continue
        images = [1 << mapped[i] for i in range(a.dim)]
        m = LinearMap(a, b, images)
        if verify_morphism(m, "isomorphism"):
            return IsoResult("iso", m, engine="torus")
    return None


# ---------------------------------------------------------------------------
# generation machinery shared by E2/E3
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
                for j in range(len(self.vecs)):
                    w = g.bracket(self.vecs[i], self.vecs[j])
                    if w and self.span.add(w):
                        self.vecs.append(w)
                        self.words.append(("br", i, j))
                        new_frontier.append(len(self.vecs) - 1)
                        if self.span.dim == g.dim:
                            break
                if self.span.dim == g.dim:
                    break
            frontier = new_frontier

    @property
    def generates(self) -> bool:
        return self.span.dim == self.g.dim

    def basis_coords(self) -> Optional[List[int]]:
        """For each unit e_i of the source, its combination over self.vecs."""
        span = gf2.TaggedSpan(self.g.dim)
        for v in self.vecs:
            span.add(v)
        out = []
        for i in range(self.g.dim):
            sol = span.solve(1 << i)
            if sol is None:
                return None
            out.append(sol)
        return out

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


def find_generators(g: Algebra, candidates: Optional[Sequence[int]] = None,
                    max_size: int = 3) -> Optional[List[int]]:
    """A small generating set among the given vectors (default: basis)."""
    cand = list(candidates) if candidates is not None else [1 << i for i in range(g.dim)]
    for size in range(1, max_size + 1):
        idxs = list(range(len(cand)))
        for combo in _combos(idxs, size):
            gens = [cand[t] for t in combo]
            gw = GenWords(g, gens)
            if gw.generates:
                return gens
    return None


def _combos(idxs, size):
    if size == 1:
        for i in idxs:
            yield (i,)
    elif size == 2:
        for ai in range(len(idxs)):
            for bi in range(ai + 1, len(idxs)):
                yield (idxs[ai], idxs[bi])
    else:
        for ai in range(len(idxs)):
            for bi in range(ai + 1, len(idxs)):
                for ci in range(bi + 1, len(idxs)):
                    yield (idxs[ai], idxs[bi], idxs[ci])


def _finish_map(a: Algebra, b: Algebra, gw: GenWords, word_images: List[int]) -> Optional[LinearMap]:
    coords = gw.basis_coords()
    if coords is None:
        return None
    images = [gf2.apply_rows(word_images, c) for c in coords]
    m = LinearMap(a, b, images)
    if verify_morphism(m, "isomorphism"):
        return m
    return None


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
        if den == 0 or num == 0:
            continue
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
        gens = find_generators(a, [1 << i for i in order], max_size=3)
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
        for images in _cartesian(*cand_lists):
            tried += 1
            if tried > budget:
                return IsoResult("exhausted", reason="graded search budget", engine="zgraded")
            word_imgs = gw.evaluate_in(b, list(images))
            if word_imgs is None:
                continue
            m = _finish_map(a, b, gw, word_imgs)
            if m is not None:
                return IsoResult("iso", m, engine="zgraded")
    return None


# ---------------------------------------------------------------------------
# E3: generic search with ad-rank pruning
# ---------------------------------------------------------------------------

def _ad_invariant(g: Algebra, v: int) -> Tuple[int, int]:
    rows = g.ad_rows(v)
    r1 = gf2.rank(rows)
    rows2 = gf2.compose(rows, rows)
    return r1, gf2.rank(rows2)


def _generic_engine(a: Algebra, b: Algebra, budget: int) -> IsoResult:
    n = a.dim
    if n > 16:
        return IsoResult("exhausted",
                         reason="generic engine capped at dim 16 (dim %d)" % n,
                         engine="generic")
    gens = find_generators(a, max_size=3)
    if gens is None:
        gens = find_generators(a, [1 << i for i in range(n)] +
                               [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)],
                               max_size=3)
        if gens is None:
            return IsoResult("exhausted", reason="no small generating set", engine="generic")
    inv_gens = [_ad_invariant(a, v) for v in gens]
    # classify all nonzero vectors of b by the same invariant
    by_inv: Dict[Tuple[int, int], List[int]] = {}
    for v in range(1, 1 << n):
        by_inv.setdefault(_ad_invariant(b, v), []).append(v)
    cand_lists = [by_inv.get(inv, []) for inv in inv_gens]
    if any(not c for c in cand_lists):
        return IsoResult("exhausted", reason="no candidates share generator invariants",
                         engine="generic")
    gw = GenWords(a, gens)
    tried = 0
    for images in _cartesian(*cand_lists):
        tried += 1
        if tried > budget:
            return IsoResult("exhausted", reason="generic search budget (%d tried)" % tried,
                             engine="generic")
        word_imgs = gw.evaluate_in(b, list(images))
        if word_imgs is None:
            continue
        m = _finish_map(a, b, gw, word_imgs)
        if m is not None:
            return IsoResult("iso", m, engine="generic")
    return IsoResult("exhausted", reason="search space exhausted (%d tried)" % tried,
                     engine="generic")
