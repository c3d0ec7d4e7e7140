"""Chevalley-Eilenberg complex with adjoint coefficients, degrees 1..3.

All signs are trivial in characteristic 2:
    (d1 b)(x,y)   = [b(x),y] + [x,b(y)] + b([x,y])
    (d2 c)(x,y,z) = [x,c(y,z)] + [y,c(x,z)] + [z,c(x,y)]
                  + c([x,y],z) + c([x,z],y) + c([y,z],x)
Cochains are stored sparsely on i<j pairs with GF(2) mask values.
The second line of d2 and its first are the cyclic compositions c∘μ and
μ∘c with the bracket μ, `liealg.cyclic_compose`, which walks the
incidence index that an Algebra and a Cochain2 both expose; so the cost
of d1 and d2 follows the support of the operands, not dim^3.
`cyclic_compose_table` is its bilinear twin: every pairwise composition
of a list of cochains, encoded, from one walk.

A weight block, `Block`, is the H^2 answer: its coordinates, its d1 and
d2 columns, the spans solved from them and the representatives.
`weight_block` keeps each block in its algebra's `cache`, and
`compute_h2` hands out that block.  Der(g) = Z^1 = ker d1 and H^1 come
from the d1 span of the unconstrained block: `derivation_dim` is n^2 minus
its rank, and no d2 is solved for it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .divpow import mono_text
from .grading import MODULUS, cochain_term_weight, cochain_weight, weight_keys
from .liealg import (Algebra, AlgebraError, Incidence, Triple, center, cyclic_compose, grading_failures,
                     incidence_index)

Pair = Tuple[int, int]


class CochainError(ValueError):
    pass


class Cochain2:
    """Alternating 2-cochain with adjoint values over GF(2)."""

    def __init__(self, algebra: Algebra, terms: Optional[Dict[Pair, int]] = None):
        self.algebra = algebra
        self.terms: Dict[Pair, int] = {}
        self._incidence: Optional[Incidence] = None
        if terms:
            for (i, j), v in terms.items():
                if i == j:
                    raise CochainError("repeated differential d(e_%d)^d(e_%d)" % (i, i))
                if i > j:
                    i, j = j, i
                if v:
                    self.terms[(i, j)] = self.terms.get((i, j), 0) ^ v
                    if not self.terms[(i, j)]:
                        del self.terms[(i, j)]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Cochain2) and self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other: "Cochain2") -> "Cochain2":
        if other.algebra is not self.algebra:
            raise CochainError("cannot add cochains on different algebras")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) ^ v
        return Cochain2(self.algebra, out)

    def pair_value(self, i: int, j: int) -> int:
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        return self.terms.get(key, 0)

    def incidence(self) -> Incidence:
        """`incidence_index` of the terms, with c in place of the bracket;
        built on first use."""
        if self._incidence is None:
            self._incidence = incidence_index(self.terms.items())
        return self._incidence

    def weight(self, mode: str) -> Tuple[int, ...]:
        return cochain_weight(self, mode)

    def text(self) -> str:
        g = self.algebra
        names = g.meta.get("vars")
        monos = g.meta.get("mono_degrees")

        def nm(k: int) -> str:
            if names and monos:
                return mono_text(monos[k], names)
            return g.labels[k]

        parts = []
        for (i, j) in sorted(self.terms):
            for k in sorted(gf2.bits(self.terms[(i, j)])):
                parts.append("%s (x) d(%s)^d(%s)" % (nm(k), nm(i), nm(j)))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "<2-cochain %s>" % self.text()


def _triple_key(z: int, x: int, y: int, n: int) -> int:
    """(a·n + b)·n + c for {a < b < c} = {z, x, y}, given x < y: a C^3 key
    before its value index (see `C3Index`)."""
    return (z * n + x) * n + y if z < x else (x * n + z) * n + y if z < y else (x * n + y) * n + z


def cyclic_compose_table(cochains: Sequence[Cochain2], c3: C3Index) -> List[List[int]]:
    """The compositions of every pair of the cochains a_0 .. a_m-1, encoded
    through c3: q[i][j] = a_i∘a_j + a_j∘a_i for i < j and q[i][i] = a_i∘a_i,
    zero below the diagonal.  So the defect of Σ x_i a_i is the XOR of
    q[i][j] over the pairs i <= j with x_i = x_j = 1.

    One walk over the cochains' incidence indexes, grouped by u: each pair
    x<y with e_u in a_j(x,y) meets each z with a_i(e_u, e_z) != 0, as in
    `cyclic_compose`.  The terms of one (u, i, j) are XORed into one mask
    at their C^3 positions, with no triple dict, and the mask into q.
    """
    pres: Dict[int, List[Tuple[int, List[Pair]]]] = {}
    rows: Dict[int, List[Tuple[int, List[Pair]]]] = {}
    for t, a in enumerate(cochains):
        pre, row = a.incidence()
        for u, pairs in pre.items():
            pres.setdefault(u, []).append((t, pairs))
        for u, hits in row.items():
            rows.setdefault(u, []).append((t, hits))
    q = [[0] * len(cochains) for _ in cochains]
    pos, n = c3.positions, c3.n
    for u, by_j in pres.items():
        by_i = rows.get(u, ())
        for j, pairs in by_j:
            for i, hits in by_i:
                m = 0
                for x, y in pairs:
                    for z, w in hits:
                        if z != x and z != y:
                            base = _triple_key(z, x, y, n) * n - 1
                            while w:
                                low = w & -w
                                m ^= 1 << pos.setdefault(base + low.bit_length(), len(pos))
                                w ^= low
                if i <= j:
                    q[i][j] ^= m
                else:
                    q[j][i] ^= m
    return q


def d2(c: Cochain2) -> Dict[Triple, int]:
    """The 3-cochain d2(c) = μ∘c + c∘μ as a sparse dict on i<j<k triples."""
    return cyclic_compose(c, c.algebra, cyclic_compose(c.algebra, c))


# ---------------------------------------------------------------------------
# coordinates and weight blocks
# ---------------------------------------------------------------------------

Constraint = Tuple[str, Tuple[int, ...]]


def _check_graded(g: Algebra, constraints: Sequence[Constraint]) -> None:
    """Raise unless each constraint's mode grades g, i.e. every bracket term
    has weight 0 in it; only then do d1 and d2 map each weight block into
    itself.  Each (algebra, mode) is decided once, in g.cache["graded"]:
    None when the mode grades g, else its least bad (i, j, k)."""
    verdicts = g.cache.setdefault("graded", {})
    for mode in sorted({mode for mode, _ in constraints}):
        if mode not in verdicts:
            keys = weight_keys(g, mode)
            bad = grading_failures(g, keys, [MODULUS[mode]] * len(keys[0]) if keys else ())
            verdicts[mode] = min(b[:3] for b in bad) if bad else None
        if verdicts[mode] is not None:
            i, j, k = verdicts[mode]
            raise AlgebraError("weight mode %r does not grade %s: [%s, %s] has the term %s of weight %r"
                               % (mode, g.name or "the algebra", g.labels[i], g.labels[j], g.labels[k],
                                  cochain_term_weight(g, k, (i, j), mode)))


def _packed_keys(g: Algebra, constraints: Sequence[Constraint], c2: bool):
    """The keys of all constraints packed into ints: (add, xor, wanted).

    Unreduced entries are digits wide enough for a sum of two keys, each
    key column shifted to digits >= 0; mod-2 entries are single bits above
    them.  add[i] + xor[i] packs key(i), and add[i] + add[j] +
    (xor[i] ^ xor[j]) packs key(i) + key(j).  `wanted` maps the packed
    key(i) + key(j) (c2) or key(i) (C^1) to the k, ascending, for which
    e_k ⊗ d(e_i)^d(e_j) or e_k ⊗ d(e_i) lies in the block.  A weight of the
    wrong length is refused."""
    zs, ms, n = [], [], g.dim  # per Z or mod-2 entry: its key column (shifted to >= 0) and the target's shift
    for mode, w in constraints:
        keys, m = weight_keys(g, mode), MODULUS[mode]
        if keys and len(w) != len(keys[0]):
            raise AlgebraError("a weight in mode %r has %d entries, not %d" % (mode, len(w), len(keys[0])))
        if m and any(not 0 <= x < m for x in w):
            return [0] * n, [0] * n, {}  # no coordinate has that weight
        for d, x in enumerate(w):
            col = [key[d] for key in keys]
            low = min(col, default=0) if not m else 0
            (ms if m else zs).append(([v - low for v in col], x + low if c2 else x))
    top = 2 * max((x for col, _ in zs for x in col), default=0)
    width = top.bit_length()
    add, xor, want = [0] * n, [0] * n, [0] * n
    for d, (col, s) in enumerate(zs):
        add = [a + (x << d * width) for a, x in zip(add, col)]
        want = [t + (x - s << d * width) if t is not None and 0 <= x - s <= top else None
                for t, x in zip(want, col)]
    for d, (col, s) in enumerate(ms, width * len(zs)):
        xor = [a + (x << d) for a, x in zip(xor, col)]
        want = [t + ((x ^ s) << d) if t is not None else None for t, x in zip(want, col)]
    wanted: Dict[int, List[int]] = {}
    for k, t in enumerate(want):
        if t is not None:
            wanted.setdefault(t, []).append(k)
    return add, xor, wanted


def c2_block_coords(g: Algebra, constraints: Sequence[Constraint] = ()) -> List[Tuple[Pair, int]]:
    """The C^2 coordinates (pair, k) of a weight block, pair-major with k
    ascending; every coordinate when there are no constraints."""
    add, xor, wanted = _packed_keys(g, constraints, c2=True)
    get, coords = wanted.get, []
    for i in range(g.dim):
        a, x = add[i], xor[i]
        for j in range(i + 1, g.dim):
            ks = get(a + add[j] + (x ^ xor[j]))
            if ks:
                pr = (i, j)  # one tuple per pair: a dim-30 algebra has 13,050 coordinates
                coords += [(pr, k) for k in ks]
    return coords


def c1_block_coords(g: Algebra, constraints: Sequence[Constraint] = ()) -> List[Tuple[int, int]]:
    """The C^1 coordinates (k, i), i.e. e_k ⊗ d(e_i), of a weight block,
    k-major with i ascending; every coordinate when there are no constraints."""
    add, xor, wanted = _packed_keys(g, constraints, c2=False)
    return sorted((k, i) for i in range(g.dim) for k in wanted.get(add[i] + xor[i], ()))


class C3Index:
    """Bit positions of the C^3 coordinates of an n-dim algebra.  The
    coordinate e_l ⊗ d(e_a)^d(e_b)^d(e_c), a<b<c, is keyed by the one int
    ((a·n + b)·n + c)·n + l; a key without a position gets the next free one.

    Which positions the keys get does not change any result: the d2 span
    (`Block.d2_span`: its `kernel` and `solve`) returns the unique
    combination over the inputs that grew the span, and whether an input
    grows the span does not depend on how the C^3 bits are ordered.
    """

    def __init__(self, n: int):
        self.n = n
        self.positions: Dict[int, int] = {}

    def encode(self, tri_val: Dict[Triple, int]) -> int:
        pos, n, m = self.positions, self.n, 0
        for (a, b, c), w in tri_val.items():
            base = ((a * n + b) * n + c) * n - 1
            while w:  # gf2.bits, inlined: most values are one bit
                low = w & -w
                m |= 1 << pos.setdefault(base + low.bit_length(), len(pos))
                w ^= low
        return m

    @property
    def width(self) -> int:
        return max(1, len(self.positions))


class Block:
    """One weight block of the complex: its C^2 coordinates `coords`
    ((pair, k) for e_k ⊗ d(e_i)^d(e_j), pair-major with k ascending) and C^1
    coordinates `c1` ((k, i) for e_k ⊗ d(e_i)); all of them when there are
    no constraints.  `encode` and `decode` map a 2-cochain of the block to
    its bit mask over `coords` and back; `d1_columns` and `d2_columns` write
    the differentials of unit cochains straight from the incidence index.
    `d1_span` and `h2` keep what the solvers build from them, `d2_span`
    builds its span afresh on each call.  The block is the H^2 answer:
    `dims` (dim Z2, dim B2, dim H2), `dim`, and `representatives` and
    `coboundaries`, decoded into fresh lists on each read.  Every
    constraint's mode must grade the algebra, so that d1 and d2 map the
    block into itself.  Get a block from `weight_block`, which keeps it.
    """

    def __init__(self, g: Algebra, constraints: Sequence[Constraint] = ()):
        _check_graded(g, constraints)
        self.g = g
        self.coords = c2_block_coords(g, constraints)
        self.c1 = c1_block_coords(g, constraints)
        n = g.dim
        # the position of e_k ⊗ d(e_i)^d(e_j), i < j, at the key (i·n + j)·n + k
        self._pos = {(i * n + j) * n + k: t for t, ((i, j), k) in enumerate(self.coords)}
        self._d1 = self._h2 = None  # built on first use: see d1_span and h2

    def encode(self, c: Cochain2) -> int:
        pos, n, m = self._pos, self.g.dim, 0
        for (i, j), v in c.terms.items():
            base = (i * n + j) * n
            for k in gf2.bits(v):
                t = pos.get(base + k)
                if t is None:
                    raise AlgebraError("cochain leaves the weight block at %r" % (((i, j), k),))
                m |= 1 << t
        return m

    def decode(self, mask: int) -> Cochain2:
        coords, terms = self.coords, {}
        for pos in gf2.bits(mask):
            pr, k = coords[pos]
            terms[pr] = terms.get(pr, 0) ^ (1 << k)
        return Cochain2(self.g, terms)

    def d1_columns(self):
        """d1 of each unit 1-cochain e_k ⊗ d(e_i), in `c1` order, encoded (a
        generator): [e_k, e_j] at each pair {i, j}, j != i, plus e_k at each
        pair x<y whose bracket holds e_i.  `c1` is k-major: each bit l of each
        [e_k, e_j] is taken once per k, with the parts of its key that do not
        depend on i, j·n + l (key i·n² + j·n + l, i < j) and j·n² + l (key
        j·n² + i·n + l, j < i); the keys of the pairs holding e_i once per i."""
        pre, rows = self.g.incidence()
        pos, n = self._pos, self.g.dim
        nn = n * n
        pair_keys: Dict[int, List[int]] = {}  # i -> (x·n + y)·n for each pair x<y whose bracket holds e_i
        hits, last = [], None  # (j, j·n + l, j·n² + l) for each bit l of [e_k, e_j], k the current one
        for k, i in self.c1:
            if k != last:
                hits, last = [(j, j * n + l, j * nn + l) for j, w in rows.get(k, ()) for l in gf2.bits(w)], k
            m, i_nn, i_n = 0, i * nn, i * n
            for j, lo, hi in hits:
                if j > i:
                    m ^= 1 << pos[i_nn + lo]
                elif j < i:
                    m ^= 1 << pos[hi + i_n]
            keys = pair_keys.get(i)
            if keys is None:
                keys = pair_keys[i] = [(x * n + y) * n for x, y in pre.get(i, ())]
            for key in keys:
                m ^= 1 << pos[key + k]
            yield m

    def d2_columns(self, c3: C3Index) -> List[int]:
        """d2 of each unit 2-cochain e_k ⊗ d(e_i)^d(e_j), in `coords` order,
        encoded through c3: μ∘c puts [e_k, e_z] at {i, j, z}, and c∘μ puts
        e_k at {x, y, j} for each pair x<y whose bracket holds e_i, and at
        {x, y, i} for each one whose bracket holds e_j.  Each term is XORed
        straight into its C^3 position, so repeated terms cancel.  The keys
        are `_triple_key`'s, inlined: a call per term would add ~4% to a
        cocycle-tables pass."""
        pre, rows = self.g.incidence()
        pos, n, out = c3.positions, self.g.dim, []
        for (i, j), k in self.coords:
            m = 0
            for z, w in rows.get(k, ()):
                if z != i and z != j:
                    base = ((z * n + i) * n + j if z < i else (i * n + z) * n + j if z < j
                            else (i * n + j) * n + z) * n - 1
                    while w:
                        low = w & -w
                        m ^= 1 << pos.setdefault(base + low.bit_length(), len(pos))
                        w ^= low
            for u, v in ((i, j), (j, i)):
                for x, y in pre.get(u, ()):
                    if v != x and v != y:
                        key = ((v * n + x) * n + y if v < x else (x * n + v) * n + y if v < y
                               else (x * n + y) * n + v) * n + k
                        m ^= 1 << pos.setdefault(key, len(pos))
            out.append(m)
        return out

    def d1_span(self) -> Tuple[gf2.TaggedSpan, Tuple[int, ...]]:
        """Every d1 column, tagged, for `coboundary_of` to solve against (shared, so only read),
        and the columns that grew it, in `c1` order: a basis of B^2."""
        if self._d1 is None:
            span = gf2.TaggedSpan(len(self.coords))
            self._d1 = span, tuple(col for col in self.d1_columns() if span.add(col))
        return self._d1

    def d2_span(self) -> Tuple[gf2.TaggedSpan, C3Index]:
        """Every d2 column, tagged, and the C3Index they are encoded through;
        the span's `kernel` is a basis of Z^2.  Built on each call, not kept."""
        c3 = C3Index(self.g.dim)
        cols = self.d2_columns(c3)
        return gf2.TaggedSpan(c3.width, cols), c3

    def h2(self) -> Tuple[Tuple[int, ...], Tuple[int, int, int]]:
        """The masks of H^2 representatives and (dim Z2, dim B2, dim H2), solved on first use.
        Each cocycle is reduced through B^2 plus the representatives chosen
        before it, so each one is independent modulo coboundaries and reduced.
        The span ends at B2 + Z2, so dim H2 = dim Z2 - dim B2 exactly when
        B2 ⊆ Z2: that equality certifies d2∘d1 = 0 on the block."""
        if self._h2 is None:
            z2_masks = self.d2_span()[0].kernel
            grew = self.d1_span()[1]
            span, reps = gf2.Span(grew), []
            for zm in z2_masks:
                res = span.reduce(zm)
                if res:
                    span.add(res)
                    reps.append(res)
            if len(reps) != len(z2_masks) - len(grew):
                raise AlgebraError("d2∘d1 != 0 on the block: dim H2 %d, dim Z2 %d, dim B2 %d"
                                   % (len(reps), len(z2_masks), len(grew)))
            self._h2 = tuple(reps), (len(z2_masks), len(grew), len(reps))
        return self._h2

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.h2()[1]

    @property
    def dim(self) -> int:
        return self.dims[2]

    @property
    def representatives(self) -> List[Cochain2]:
        return [self.decode(m) for m in self.h2()[0]]

    @property
    def coboundaries(self) -> List[Cochain2]:
        return [self.decode(m) for m in self.d1_span()[1]]

    def __repr__(self):
        return "<H2 block dim %d (Z2=%d, B2=%d)>" % (self.dim, *self.dims[:2])


def weight_block(g: Algebra, constraints: Sequence[Constraint] = ()) -> Block:
    """The Block of g at the constraints, built once and kept in
    g.cache["blocks"], keyed by the constraints with each weight a tuple,
    with the spans its solvers build, for as long as g lives."""
    blocks, key = g.cache.setdefault("blocks", {}), tuple((mode, tuple(w)) for mode, w in constraints)
    if key not in blocks:
        blocks[key] = Block(g, constraints)
    return blocks[key]


def compute_h2(g: Algebra, weight_filter: Optional[Tuple[int, ...]] = None, mode: str = "z",
               constraints: Optional[Sequence[Constraint]] = None,
               budget: int = 20_000_000) -> Block:
    """Kernel of d2 modulo image of d1, optionally inside one weight block:
    the memoized `Block` (see `weight_block`), with its H^2 solved.

    weight_filter + mode is the simple interface; `constraints` allows
    several simultaneous (mode, weight) restrictions.  The matrix budget
    guards against accidentally huge unrestricted computations.
    """
    constraints = list(constraints or ())
    if weight_filter is not None:
        constraints.append((mode, tuple(weight_filter)))
    blk = weight_block(g, constraints)
    n = g.dim
    if not constraints:
        est_c3 = n * n * (n - 1) * (n - 2) // 6
        if len(blk.coords) * est_c3 > budget:
            raise AlgebraError(
                "d2 matrix would have ~%d entries (> budget %d); restrict to a weight block"
                % (len(blk.coords) * est_c3, budget))
    blk.h2()
    return blk


def _weight_parts(c: Cochain2) -> List[Tuple[List[Constraint], Cochain2]]:
    """c split by its weight in every mode that grades its algebra, as
    (constraints, component) pairs; one unconstrained part when no mode
    does, and none for the zero cochain."""
    g, modes, parts = c.algebra, [], {}
    for mode in MODULUS:
        try:
            _check_graded(g, [(mode, ())])
            modes.append(mode)
        except AlgebraError:  # no monomial degrees, or the mode does not grade g
            pass
    for pr, v in c.terms.items():
        for k in gf2.bits(v):
            part = parts.setdefault(tuple((mode, cochain_term_weight(g, k, pr, mode)) for mode in modes), {})
            part[pr] = part.get(pr, 0) | 1 << k
    return [(list(cons), Cochain2(g, terms)) for cons, terms in parts.items()]


def coboundary_of(c: Cochain2) -> Optional[List[int]]:
    """Solve d1(b) = c; returns the images of b or None if c is not a coboundary.

    d1 maps each weight block into itself, so each weight component of c
    is solved inside its own block and the images are summed."""
    images = [0] * c.algebra.dim
    for constraints, part in _weight_parts(c):
        blk = weight_block(c.algebra, constraints)
        sol = blk.d1_span()[0].solve(blk.encode(part))
        if sol is None:
            return None
        for pos in gf2.bits(sol):
            k, i = blk.c1[pos]
            images[i] ^= 1 << k
    return images


def is_coboundary(c: Cochain2) -> bool:
    return coboundary_of(c) is not None


def d1(g: Algebra, images: Sequence[int]) -> Cochain2:
    """Differential of the linear map e_i -> images[i]: the sum of the d1
    columns of g's unconstrained block, whose `c1` puts e_k ⊗ d(e_i) at k·n + i."""
    blk, n = weight_block(g), g.dim
    x = gf2.from_bits(k * n + i for i, b in enumerate(images) for k in gf2.bits(b))
    return blk.decode(gf2.apply_rows(list(blk.d1_columns()), x))


def derivation_dim(g: Algebra) -> int:
    """dim Der(g) = dim Z^1 = n^2 - rank d1 (rank-nullity), the rank read off
    the d1 span of g's unconstrained block: the columns that grew it span B^2."""
    return g.dim * g.dim - len(weight_block(g).d1_span()[1])


def compute_h1_dim(g: Algebra) -> Tuple[int, int, int]:
    """(dim Z^1, dim B^1, dim H^1) with adjoint coefficients; B^1 = ad(g) has
    dimension n - dim center."""
    z1 = derivation_dim(g)
    b1 = g.dim - center(g).dim
    return z1, b1, z1 - b1


def combine(gens: Sequence[Cochain2], mask: int, start: Cochain2) -> Cochain2:
    """start plus the generators at the set bits of mask, added left to right."""
    for t in gf2.bits(mask):
        start = start + gens[t]
    return start


def _printed_solutions(g: Algebra, printed: Cochain2, constraints: Sequence[Constraint]):
    """(the block, with H^2 solved, x0, kernel).  The generators are the class
    representatives, then the coboundaries.  The masks over them whose sum
    carries every printed term are x0 (None when there is none) plus any
    sum of the kernel vectors."""
    blk = compute_h2(g, constraints=constraints)
    try:
        target = blk.encode(printed)
    except AlgebraError:  # a printed term outside the block: no generator carries it
        return blk, None, []
    gens = blk.h2()[0] + blk.d1_span()[1]
    cols = gf2.transpose(gens, len(blk.coords))
    rows = [cols[p] for p in gf2.bits(target)]
    return blk, gf2.solve(rows, [1] * len(rows)), gf2.kernel(rows, len(gens))


def block_consistent_representative(g: Algebra, printed: Cochain2,
                                    constraints: Sequence[Constraint]) -> Optional[Cochain2]:
    """A non-coboundary cocycle of the weight block whose coordinates agree
    with every term of a partially printed cochain, or None.

    Solves linearly over the block's cocycle representatives plus its
    coboundaries; the class part of the solution is forced nonzero.  An
    empty printed cochain is met by the first class representative.
    """
    h2, x0, kernel = _printed_solutions(g, printed, constraints)
    if x0 is None:
        return None
    class_mask = (1 << h2.dim) - 1
    if not x0 & class_mask:
        x0 ^= next((kv for kv in kernel if kv & class_mask), 0)
        if not x0 & class_mask:
            return None
    out = combine(h2.representatives + h2.coboundaries, x0, Cochain2(g, {}))
    if any(out.pair_value(*pr) & v != v for pr, v in printed.terms.items()):
        raise AlgebraError("the solved representative misses a printed term: the printed-term solve is wrong")
    return out


def consistent_class_masks(g: Algebra, printed: Cochain2,
                           constraints: Sequence[Constraint]) -> Tuple[Block, List[int]]:
    """All cohomology classes of the block (as masks over the block basis)
    admitting a representative whose coordinates contain every printed term."""
    h2, x0, kernel = _printed_solutions(g, printed, constraints)
    if x0 is None:
        return h2, []
    class_mask = (1 << h2.dim) - 1
    # the achievable classes form an affine subspace; enumerate it
    rows = gf2.Span(kv & class_mask for kv in kernel).sorted_rows()
    return h2, sorted({(x0 & class_mask) ^ gf2.apply_rows(rows, sub) for sub in range(1 << len(rows))})


def c2_weights(g: Algebra, mode: str) -> List[Tuple[int, ...]]:
    """The distinct weights of the C^2 coordinates, ascending: the weight of
    e_k ⊗ d(e_i)^d(e_j) is key(k) - key(i) - key(j), reduced."""
    keys, m = weight_keys(g, mode), MODULUS[mode]
    bases = {tuple(-a - b for a, b in zip(keys[i], keys[j])) for i in range(g.dim) for j in range(i + 1, g.dim)}
    return sorted({tuple((x + s) % m if m else x + s for x, s in zip(key, base))
                   for base in bases for key in set(keys)})


def h2_weight_table(g: Algebra, mode: str = "z") -> Dict[Tuple[int, ...], Block]:
    """Full H^2 split into weight blocks of the given mode."""
    out = {}
    for w in c2_weights(g, mode):
        blk = compute_h2(g, weight_filter=w, mode=mode)
        if blk.dim:
            out[w] = blk
    return out


# ---------------------------------------------------------------------------
# the printed-cocycle grammar: "x (x) d(y)^d(z) + ..."
# ---------------------------------------------------------------------------

def _d_arguments(text: str) -> List[str]:
    """Balanced-paren arguments of every d(...) in the text."""
    out = []
    i = 0
    while True:
        start = text.find("d(", i)
        if start < 0:
            break
        depth = 0
        j = start + 1
        while j < len(text):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            raise CochainError("unbalanced parentheses in %r" % text)
        out.append(text[start + 2:j])
        i = j + 1
    return out


def _parse_mono(text: str, g: Algebra) -> Tuple[int, ...]:
    names = g.meta.get("vars")
    N = g.meta.get("N")
    if names is None or N is None:
        raise CochainError("algebra carries no generating-function data")
    text = text.strip()
    exps = [0] * len(names)
    if text in ("1", ""):
        return tuple(exps)
    pos = {nm: i for i, nm in enumerate(names)}
    for factor in re.split(r"[*\s]+", text):
        if not factor:
            continue
        m = re.match(r"^(?P<v>[A-Za-z][A-Za-z0-9]*)(\^\((?P<e>-?\d+)\))?$", factor)
        if not m:
            raise CochainError("cannot parse monomial factor %r in %r" % (factor, text))
        v = m.group("v")
        if v not in pos:
            raise CochainError("unknown generating function %r in %r" % (v, text))
        e = int(m.group("e") or 1)
        i = pos[v]
        if e < 0 or e >= (1 << N[i]):
            raise CochainError("exponent out of range: %s^(%d) with N=%d" % (v, e, N[i]))
        if exps[i] & e:  # x^(a) x^(b) = binom(a+b, a) x^(a+b), even by Lucas
            raise CochainError("the product %r vanishes: %s^(%d) %s^(%d) = 0" % (text, v, exps[i], v, e))
        exps[i] |= e
    return tuple(exps)


def parse_cocycle(text: str, g: Algebra) -> Cochain2:
    """Parse the "value (x) d(y)^d(z) + ..." grammar into a 2-cochain."""
    monos = g.meta.get("mono_degrees")
    if monos is None:
        raise CochainError("algebra carries no monomial basis")
    index = {m: i for i, m in enumerate(monos)}
    terms: Dict[Pair, int] = {}
    text = text.strip()
    if not text:
        return Cochain2(g, {})
    for raw in text.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        if "(x)" not in raw:
            raise CochainError("term %r lacks the (x) separator" % raw)
        val_txt, dif_txt = raw.split("(x)", 1)
        args = _d_arguments(dif_txt)
        if len(args) != 2:
            raise CochainError("expected exactly 2 differentials in %r (found %d)" % (raw, len(args)))
        val = _parse_mono(val_txt, g)
        y1 = _parse_mono(args[0], g)
        y2 = _parse_mono(args[1], g)
        if y1 == y2:
            raise CochainError("repeated differential in %r" % raw)
        for mono, what in ((val, "value"), (y1, "argument"), (y2, "argument")):
            if mono not in index:
                raise CochainError("%s %r is not a basis function of %s" % (what, mono, g.name))
        i, j = sorted((index[y1], index[y2]))
        terms[(i, j)] = terms.get((i, j), 0) ^ (1 << index[val])
        if not terms[(i, j)]:
            del terms[(i, j)]
    return Cochain2(g, terms)
