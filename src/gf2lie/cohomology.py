"""Chevalley-Eilenberg complex with adjoint coefficients, degrees 1..3.

All signs are trivial in characteristic 2:
    (d1 b)(x,y)   = [b(x),y] + [x,b(y)] + b([x,y])
    (d2 c)(x,y,z) = [x,c(y,z)] + [y,c(x,z)] + [z,c(x,y)]
                  + c([x,y],z) + c([x,z],y) + c([y,z],x)
Cochains are stored sparsely on i<j pairs with GF(2) mask values.
The second line of d2 and its first are the cyclic compositions c∘μ and
μ∘c with the bracket μ, where (a∘b)(x,y,z) = Σ_cyc a(b(x,y), z); the
same composition gives the quadratic Jacobi defect c∘c of a deform and
every Jacobiator and Massey term (module deform).  `cyclic_compose`
walks the incidence index that an Algebra and a Cochain2 both expose,
so its cost, and that of d1 and d2, follows the support of the operands,
not dim^3.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import gf2
from .divpow import mono_text
from .grading import C2_OFFSET, cochain_weight, weight_keys
from .liealg import Algebra, AlgebraError, Incidence, incidence_index

Pair = Tuple[int, int]
Triple = Tuple[int, int, int]


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
        assert other.algebra is self.algebra
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


def d1(g: Algebra, images: Sequence[int]) -> Cochain2:
    """Differential of the linear map e_i -> images[i]."""
    pre, rows = g.incidence()
    terms: Dict[Pair, int] = {}
    for i, b in enumerate(images):
        if not b:
            continue
        # [b(e_i), e_j] is nonzero only for j next to the support of b(e_i)
        row: Dict[int, int] = {}
        for k in gf2.bits(b):
            for j, w in rows.get(k, ()):
                row[j] = row.get(j, 0) ^ w
        for j, w in row.items():
            if w and j != i:
                pr = (i, j) if i < j else (j, i)
                terms[pr] = terms.get(pr, 0) ^ w
        # b([e_x, e_y]) picks up b(e_i) wherever e_i occurs in the bracket
        for pr in pre.get(i, ()):
            terms[pr] = terms.get(pr, 0) ^ b
    # ascending pairs: the term order must not depend on the walk above
    return Cochain2(g, {pr: terms[pr] for pr in sorted(terms)})


Operand = Union[Algebra, Cochain2]


def cyclic_compose(a: Operand, b: Operand,
                   out: Optional[Dict[Triple, int]] = None) -> Dict[Triple, int]:
    """The 3-cochain (a∘b)(x,y,z) = Σ_cyc a(b(x,y), z) as a sparse dict on
    i<j<k triples; an Algebra stands for its bracket.

    The sum runs over the u that both operands touch: each pair x<y with
    e_u in b(x,y) meets each z with a(e_u,e_z) != 0, walking whichever
    operand touches fewer u.  With `out` the terms are added into it;
    either way the dict returned holds no zero value.
    """
    pre, rows = b.incidence()[0], a.incidence()[1]
    if out is None:
        out = {}
    for u in (pre if len(pre) <= len(rows) else rows):
        pairs, row = pre.get(u), rows.get(u)
        if pairs is None or row is None:
            continue
        for x, y in pairs:
            for z, v in row:
                if z != x and z != y:
                    tri = (z, x, y) if z < x else (x, z, y) if z < y else (x, y, z)
                    out[tri] = out.get(tri, 0) ^ v
    for tri in [tri for tri, w in out.items() if not w]:
        del out[tri]
    return out


def d2(c: Cochain2) -> Dict[Triple, int]:
    """The 3-cochain d2(c) = μ∘c + c∘μ as a sparse dict on i<j<k triples."""
    return cyclic_compose(c, c.algebra, cyclic_compose(c.algebra, c))


# ---------------------------------------------------------------------------
# coordinates and weight blocks
# ---------------------------------------------------------------------------

def _pairs(n: int) -> List[Pair]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


Constraint = Tuple[str, Tuple[int, ...]]

def _check_graded(g: Algebra, constraints: Sequence[Constraint]) -> None:
    """Raise unless every bracket term has weight 0 in each constraint's
    mode; only then do d1 and d2 map each weight block into itself."""
    for mode in sorted({mode for mode, _ in constraints}):
        keys = weight_keys(g, mode)
        shift, m = C2_OFFSET[mode], 2 if mode == "mod2" else 0
        # weight 0 means key(k) + shift = key(i) + key(j), mod 2 for "mod2"
        lhs = [tuple((x + shift) % m if m else x + shift for x in key) for key in keys]
        plus = operator.xor if m else operator.add  # mod-2 keys are 0 or 1
        bad = []
        for (i, j), row in g.sc.items():
            want = tuple(map(plus, keys[i], keys[j]))
            for k in row:
                if lhs[k] != want:
                    bad.append((i, j, k))
        if bad:
            i, j, k = min(bad)
            w = tuple((x - a - b + shift) % m if m else x - a - b + shift
                      for x, a, b in zip(keys[k], keys[i], keys[j]))
            raise AlgebraError("weight mode %r does not grade %s: [%s, %s] has the term %s of weight %r"
                               % (mode, g.name or "the algebra", g.labels[i], g.labels[j], g.labels[k], w))


def _block_keys(g: Algebra, constraints: Sequence[Constraint], offset: bool):
    """Per constraint (keys, weight minus offset, modulus), with the basis
    bucketed by its key tuple; None when no weight can meet a constraint.
    A weight of the wrong length is refused."""
    specs = []
    for mode, w in constraints:
        keys = weight_keys(g, mode)
        w = tuple(w)
        if keys and len(w) != len(keys[0]):
            raise AlgebraError("a weight in mode %r has %d entries, not %d" % (mode, len(w), len(keys[0])))
        if mode == "mod2" and any(x not in (0, 1) for x in w):
            return None
        shift = C2_OFFSET[mode] if offset else 0
        specs.append((keys, tuple(x - shift for x in w), 2 if mode == "mod2" else 0))
    buckets: Dict[tuple, List[int]] = {}
    for k in range(g.dim):
        buckets.setdefault(tuple(keys[k] for keys, _, _ in specs), []).append(k)
    return specs, buckets


def c2_block_coords(g: Algebra, constraints: Sequence[Constraint] = ()) -> List[Tuple[Pair, int]]:
    """The C^2 coordinates (pair, k) of a weight block, pair-major with k
    ascending; every coordinate when there are no constraints."""
    n = g.dim
    keyed = _block_keys(g, constraints, offset=True)
    if keyed is None:
        return []
    specs, buckets = keyed
    coords = []
    for pr in _pairs(n):
        i, j = pr
        want = tuple(tuple((s + a + b) % m if m else s + a + b
                           for s, a, b in zip(shift, keys[i], keys[j]))
                     for keys, shift, m in specs)
        for k in buckets.get(want, ()):
            coords.append((pr, k))
    return coords


def c1_block_coords(g: Algebra, constraints: Sequence[Constraint] = ()) -> List[Tuple[int, int]]:
    """The C^1 coordinates (k, i), i.e. e_k ⊗ d(e_i), of a weight block,
    k-major with i ascending; every coordinate when there are no constraints."""
    n = g.dim
    keyed = _block_keys(g, constraints, offset=False)
    if keyed is None:
        return []
    specs, buckets = keyed
    coords = []
    for k in range(n):
        want = tuple(tuple((a - s) % m if m else a - s for s, a in zip(shift, keys[k]))
                     for keys, shift, m in specs)
        for i in buckets.get(want, ()):
            coords.append((k, i))
    return coords


class C3Index:
    """Bit positions of the C^3 coordinates of an n-dim algebra, assigned in
    order of first use.  The coordinate e_l ⊗ d(e_a)^d(e_b)^d(e_c), a<b<c,
    is keyed by the one int ((a·n + b)·n + c)·n + l."""

    def __init__(self, n: int):
        self.n = n
        self.positions: Dict[int, int] = {}

    def _mask(self, keyed) -> int:
        """The mask of (triple key (a·n + b)·n + c, value mask) items."""
        pos, n, m = self.positions, self.n, 0
        for key, w in keyed:
            base = key * n - 1
            while w:  # gf2.bits, inlined: most values are one bit
                low = w & -w
                m |= 1 << pos.setdefault(base + low.bit_length(), len(pos))
                w ^= low
        return m

    def encode(self, tri_val: Dict[Triple, int]) -> int:
        n = self.n
        return self._mask(((a * n + b) * n + c, w) for (a, b, c), w in tri_val.items())

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
    Every constraint's mode must grade the algebra, so that d1 and d2 map
    the block into itself.
    """

    def __init__(self, g: Algebra, constraints: Sequence[Constraint] = ()):
        _check_graded(g, constraints)
        self.g = g
        self.coords = c2_block_coords(g, constraints)
        self.c1 = c1_block_coords(g, constraints)
        n = g.dim
        # at the key (i·n + j)·n + k, the position of e_k ⊗ d(e_i)^d(e_j),
        # i < j: a list over all n^3 keys when the block is all of C^2 (it
        # holds n^2(n-1)/2 of them), a dict when it is a weight block
        self._pos = [None] * n ** 3 if not constraints else {}
        for t, ((i, j), k) in enumerate(self.coords):
            self._pos[(i * n + j) * n + k] = t

    def encode(self, c: Cochain2) -> int:
        pos, n, m = self._pos, self.g.dim, 0
        get = pos.__getitem__ if isinstance(pos, list) else pos.get
        for (i, j), v in c.terms.items():
            base = (i * n + j) * n
            for k in gf2.bits(v):
                t = get(base + k)
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
        pair x<y whose bracket holds e_i."""
        pre, rows = self.g.incidence()
        pos, n = self._pos, self.g.dim
        for k, i in self.c1:
            m = 0
            for j, w in rows.get(k, ()):
                if j != i:
                    base = ((i * n + j) * n if i < j else (j * n + i) * n) - 1
                    while w:
                        low = w & -w
                        m ^= 1 << pos[base + low.bit_length()]
                        w ^= low
            for x, y in pre.get(i, ()):
                m ^= 1 << pos[(x * n + y) * n + k]
            yield m

    def d2_columns(self, c3: C3Index) -> List[int]:
        """d2 of each unit 2-cochain e_k ⊗ d(e_i)^d(e_j), in `coords` order,
        encoded through c3: μ∘c puts [e_k, e_z] at {i, j, z}, and c∘μ puts
        e_k at {x, y, j} for each pair x<y whose bracket holds e_i, and at
        {x, y, i} for each one whose bracket holds e_j."""
        pre, rows = self.g.incidence()
        n, out = self.g.dim, []
        for (i, j), k in self.coords:
            acc: Dict[int, int] = {}
            for z, w in rows.get(k, ()):
                if z != i and z != j:
                    key = ((z * n + i) * n + j if z < i else (i * n + z) * n + j if z < j
                           else (i * n + j) * n + z)
                    acc[key] = acc.get(key, 0) ^ w
            bit = 1 << k
            for u, v in ((i, j), (j, i)):
                for x, y in pre.get(u, ()):
                    if v != x and v != y:
                        key = ((v * n + x) * n + y if v < x else (x * n + v) * n + y if v < y
                               else (x * n + y) * n + v)
                        acc[key] = acc.get(key, 0) ^ bit
            out.append(c3._mask(acc.items()))
        return out

    def coboundaries(self) -> Tuple[gf2.Span, List[Cochain2]]:
        """B^2 of the block, and the unit coboundaries that grew it, in `c1` order."""
        span, grew = gf2.Span(), []
        for col in self.d1_columns():
            if span.add(col):
                grew.append(self.decode(col))
        return span, grew


class H2Basis:
    """Representatives of H^2(g;g), independent modulo coboundaries."""

    def __init__(self, block: Block, representatives: List[Cochain2],
                 dims: Tuple[int, int, int], coboundaries: List[Cochain2]):
        self.block = block
        self.algebra = block.g
        self.representatives = representatives
        self.dims = dims  # (dim Z2, dim B2, dim H2) within the block
        self.coboundaries = coboundaries  # a basis of B2, as Block.coboundaries gives it

    @property
    def dim(self) -> int:
        return self.dims[2]

    def __repr__(self):
        return "<H2 block dim %d (Z2=%d, B2=%d)>" % (self.dims[2], self.dims[0], self.dims[1])


def compute_h2(g: Algebra, weight_filter: Optional[Tuple[int, ...]] = None, mode: str = "z",
               constraints: Optional[Sequence[Constraint]] = None,
               budget: int = 20_000_000) -> H2Basis:
    """Kernel of d2 modulo image of d1, optionally inside one weight block.

    weight_filter + mode is the simple interface; `constraints` allows
    several simultaneous (mode, weight) restrictions.  The matrix budget
    guards against accidentally huge unrestricted computations.
    """
    constraints = list(constraints or ())
    if weight_filter is not None:
        constraints.append((mode, tuple(weight_filter)))
    blk = Block(g, constraints)
    n = g.dim
    if not constraints:
        est_c3 = n * n * (n - 1) * (n - 2) // 6
        if len(blk.coords) * est_c3 > budget:
            raise AlgebraError(
                "d2 matrix would have ~%d entries (> budget %d); restrict to a weight block"
                % (len(blk.coords) * est_c3, budget))

    c3 = C3Index(n)
    z2_masks = gf2.combination_kernel(blk.d2_columns(c3), c3.width)
    span, cobs = blk.coboundaries()
    dim_b2 = span.dim
    # representatives: reduce cocycles through B2 plus previously chosen reps,
    # so each one is independent modulo coboundaries and coboundary-reduced
    reps: List[Cochain2] = []
    for zm in z2_masks:
        res = span.reduce(zm)
        if res:
            span.add(res)
            reps.append(blk.decode(res))
    return H2Basis(blk, reps, (len(z2_masks), dim_b2, len(reps)), cobs)


def coboundary_of(c: Cochain2) -> Optional[List[int]]:
    """Solve d1(b) = c; returns the images of b or None if c is not a coboundary."""
    blk = Block(c.algebra)
    span = gf2.TaggedSpan(len(blk.coords))
    for col in blk.d1_columns():
        span.add(col)
    sol = span.solve(blk.encode(c))
    if sol is None:
        return None
    images = [0] * c.algebra.dim
    for pos in gf2.bits(sol):
        k, i = blk.c1[pos]
        images[i] ^= 1 << k
    return images


def is_coboundary(c: Cochain2) -> bool:
    return coboundary_of(c) is not None


def coboundary_block(g: Algebra, constraints: Sequence[Constraint]) -> List[Cochain2]:
    """A basis of the coboundaries restricted to a weight block."""
    return Block(g, constraints).coboundaries()[1]


def combine(gens: Sequence[Cochain2], mask: int, start: Cochain2) -> Cochain2:
    """start plus the generators at the set bits of mask, added left to right."""
    for t in gf2.bits(mask):
        start = start + gens[t]
    return start


def _printed_solutions(g: Algebra, printed: Cochain2, constraints: Sequence[Constraint]):
    """(H^2 of the block, generators, x0, kernel).  The generators are the
    class representatives, then the coboundaries.  The masks over them whose
    sum carries every printed term are x0 (None when there is none) plus
    any sum of the kernel vectors."""
    h2 = compute_h2(g, constraints=constraints)
    gens = h2.representatives + h2.coboundaries
    try:
        target = h2.block.encode(printed)
    except AlgebraError:  # a printed term outside the block: no generator carries it
        return h2, gens, None, []
    cols = gf2.transpose([h2.block.encode(c) for c in gens], len(h2.block.coords))
    rows = [cols[p] for p in gf2.bits(target)]
    return h2, gens, gf2.solve(rows, [1] * len(rows)), gf2.kernel(rows, len(gens))


def block_consistent_representative(g: Algebra, printed: Cochain2,
                                    constraints: Sequence[Constraint]) -> Optional[Cochain2]:
    """A non-coboundary cocycle of the weight block whose coordinates agree
    with every term of a partially printed cochain, or None.

    Solves linearly over the block's cocycle representatives plus its
    coboundaries; the class part of the solution is forced nonzero.  An
    empty printed cochain is met by the first class representative.
    """
    h2, gens, x0, kernel = _printed_solutions(g, printed, constraints)
    if x0 is None:
        return None
    class_mask = (1 << h2.dim) - 1
    if not x0 & class_mask:
        x0 ^= next((kv for kv in kernel if kv & class_mask), 0)
        if not x0 & class_mask:
            return None
    out = combine(gens, x0, Cochain2(g, {}))
    assert all(out.pair_value(*pr) & v == v for pr, v in printed.terms.items())
    return out


def consistent_class_masks(g: Algebra, printed: Cochain2,
                           constraints: Sequence[Constraint]) -> Tuple[H2Basis, List[int]]:
    """All cohomology classes of the block (as masks over the block basis)
    admitting a representative whose coordinates contain every printed term."""
    h2, _, x0, kernel = _printed_solutions(g, printed, constraints)
    if x0 is None:
        return h2, []
    class_mask = (1 << h2.dim) - 1
    # the achievable classes form an affine subspace; enumerate it
    rows = gf2.Span(kv & class_mask for kv in kernel).sorted_rows()
    return h2, sorted({(x0 & class_mask) ^ gf2.apply_rows(rows, sub) for sub in range(1 << len(rows))})


def c2_weights(g: Algebra, mode: str) -> List[Tuple[int, ...]]:
    """The distinct weights of the C^2 coordinates, ascending: the weight of
    e_k ⊗ d(e_i)^d(e_j) is key(k) - key(i) - key(j) + shift, mod 2 for "mod2"."""
    keys = weight_keys(g, mode)
    shift, m = C2_OFFSET[mode], 2 if mode == "mod2" else 0
    bases = {tuple(shift - a - b for a, b in zip(keys[i], keys[j])) for i, j in _pairs(g.dim)}
    return sorted({tuple((x + s) % m if m else x + s for x, s in zip(key, base))
                   for base in bases for key in set(keys)})


def h2_weight_table(g: Algebra, mode: str = "z") -> Dict[Tuple[int, ...], H2Basis]:
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
