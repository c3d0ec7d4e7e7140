"""Bit-packed linear algebra over GF(2).

Vectors are plain Python ints (bit i = coordinate i); matrices are lists
of row ints.  Arbitrary-precision ints give free word packing, xor is
vector addition, and `int.bit_count` is the mod-2 inner product workhorse.
Pivots sit at the highest set bit of a row.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def dot(a: int, b: int) -> int:
    """Mod-2 inner product of two bit vectors."""
    return (a & b).bit_count() & 1


def bits(v: int):
    """Indices of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def from_bits(idxs: Iterable[int]) -> int:
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def to_tuple(v: int, n: int) -> Tuple[int, ...]:
    return tuple((v >> i) & 1 for i in range(n))


def from_seq(seq: Sequence[int]) -> int:
    m = 0
    for i, c in enumerate(seq):
        if c & 1:
            m |= 1 << i
    return m


class Span:
    """Incrementally maintained row space, kept triangular: one row per pivot.

    The pivot of a row is its top bit below the tag width (TaggedSpan);
    a plain Span has no tags.  Insertion stops as soon as the top bit is a
    new pivot, so it never touches other rows.  The reduced row echelon
    form is built on demand and dropped when the span grows; `reduce`
    walks it when it is there.
    """

    _low = -1  # the non-tag bits

    def __init__(self, rows: Iterable[int] = ()):
        self._rows: Dict[int, int] = {}  # pivot -> triangular row
        self._rref: Optional[Dict[int, int]] = None  # pivot -> RREF row, ascending
        self.pivots: List[int] = []  # in insertion order
        self.mask = 0  # OR of the pivot bits
        for v in rows:
            self.add(v)

    def reduce(self, v: int) -> int:
        """v minus a combination of rows, holding no pivot bit (tags ride along)."""
        rows, mask = self._rref or self._rows, self.mask
        hit = v & mask
        while hit:
            v ^= rows[hit.bit_length() - 1]
            hit = v & mask
        return v

    def _insert(self, v: int) -> Optional[int]:
        """Insert v; None if the span grew, else the residue (tag bits only)."""
        rows, low = self._rows, self._low
        while True:
            img = v & low
            if not img:
                return v
            p = img.bit_length() - 1
            r = rows.get(p)
            if r is None:
                rows[p] = v
                self.pivots.append(p)
                self.mask |= 1 << p
                self._rref = None
                return None
            v ^= r

    def add(self, v: int) -> bool:
        """Insert v; return True if the span grew."""
        return self._insert(v) is None

    def _reduced(self) -> Dict[int, int]:
        if self._rref is None:
            red: Dict[int, int] = {}
            for p, r in sorted(self._rows.items()):
                hit = (r & self.mask) ^ (1 << p)
                while hit:  # lower pivots, whose RREF rows hold no other pivot
                    low = hit & -hit
                    r ^= red[low.bit_length() - 1]
                    hit ^= low
                red[p] = r
            self._rref = red
        return self._rref

    @property
    def rows(self) -> List[int]:
        """RREF rows in insertion order of their pivots."""
        red = self._reduced()
        return [red[p] for p in self.pivots]

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __len__(self) -> int:
        return len(self.pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def sorted_rows(self) -> List[int]:
        return list(self._reduced().values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._reduced() == other._reduced()

    def __hash__(self):
        return hash(tuple(self.sorted_rows()))


class TaggedSpan(Span):
    """Span with combination tracking: tag bits live above `width`.

    add(v) inserts v tagged with a fresh index; solve(t) returns the
    index mask whose inputs xor to t, or None.  The inputs a row combines
    are all ones that grew the span, so that mask is unique.  `kernel`
    holds, for each input that did not grow the span, the index mask of
    the inputs that xor to zero with it: a basis of all such masks.
    """

    def __init__(self, width: int, rows: Iterable[int] = ()):
        self.width = width
        self._low = (1 << width) - 1
        self.count = 0
        self.kernel: List[int] = []
        super().__init__(rows)

    def _tagged(self, v: int) -> int:
        tag = 1 << (self.width + self.count)
        self.count += 1
        return (v & self._low) | tag

    def add(self, v: int) -> bool:
        """Insert v with a fresh tag; returns True if the image span grew."""
        res = self._insert(self._tagged(v))
        if res is not None:
            self.kernel.append(res >> self.width)
        return res is None

    def solve(self, t: int) -> Optional[int]:
        """None as well when t has a bit at or above `width`, which no input reaches."""
        if t >> self.width:
            return None
        res = self.reduce(t)
        return None if res & self._low else res >> self.width


def rank(rows: Iterable[int]) -> int:
    return Span(rows).dim


def kernel(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : dot(row, x) = 0 for every row}, rows read as equations."""
    red = Span(rows)._reduced()
    out = []
    for f in range(ncols):
        if f not in red:
            out.append((1 << f) | from_bits(p for p, r in red.items() if (r >> f) & 1))
    return out


def solve(rows: Sequence[int], rhs: Sequence[int]) -> Optional[int]:
    """The solution x of dot(rows[i], x) = rhs[i] for all i with every free
    variable zero, or None.

    The rhs bit is kept below the variable columns so that top-bit
    pivoting never selects it.
    """
    red = Span((r << 1) | (b & 1) for r, b in zip(rows, rhs))._reduced()
    if 0 in red:
        return None  # row 0...0 | 1
    x = from_bits(p - 1 for p, r in red.items() if r & 1)
    for r, b in zip(rows, rhs):
        if dot(r, x) != (b & 1):  # cheap belt-and-braces
            return None
    return x


def combination_kernel(images: Sequence[int], width: int) -> List[int]:
    """All index-set combinations of `images` that xor to zero.

    Returns a basis of {x : xor of images[i] over set bits i of x = 0},
    each x a bit mask over range(len(images)): one per image that does not
    grow the span of those before it.  `width` bounds the bit length of
    the images.  Each x is unique over the images that grew the span, and
    which ones grow does not depend on how the bit positions are ordered.
    """
    return TaggedSpan(width, images).kernel


def compressor(keep: Sequence[int]) -> Callable[[int], int]:
    """v -> the bits of v at the ascending positions `keep`, packed down to
    bits 0, 1, ...: one shift and mask per run of consecutive positions."""
    runs: List[List[int]] = []  # [first position, mask, first new position]
    for new, old in enumerate(keep):
        if runs and runs[-1][0] + runs[-1][1].bit_length() == old:
            runs[-1][1] = 2 * runs[-1][1] + 1
        else:
            runs.append([old, 1, new])

    def compress(v: int) -> int:
        out = 0
        for shift, mask, to in runs:
            out |= ((v >> shift) & mask) << to
        return out
    return compress


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    cols = [0] * ncols
    for i, r in enumerate(rows):
        for j in bits(r):
            cols[j] |= 1 << i
    return cols


def apply_rows(rows: Sequence[int], v: int) -> int:
    """Linear map sending e_j to rows[j], applied to the vector v."""
    out = 0
    for j in bits(v):
        out ^= rows[j]
    return out


def compose(a_rows: Sequence[int], b_rows: Sequence[int]) -> List[int]:
    """Composite map v ↦ a(b(v)) in the apply_rows convention."""
    return [apply_rows(a_rows, bj) for bj in b_rows]


def invertibles(n: int, fits: Callable[[int, List[int]], bool]) -> Iterator[List[int]]:
    """The invertible n x n matrices M (rows[j] = M e_j) that pass `fits`,
    in itertools.product(range(1, 2^n), repeat=n) order.

    The rows are chosen depth-first, each from 1 .. 2^n - 1 ascending, and
    a prefix rows[:k+1] is extended only while rows[k] is independent of
    the earlier rows and fits(k, img) holds, where img[u] = M u for every
    u < 2^(k+1): a condition on the first k+1 rows prunes every matrix
    that begins with them.
    """
    img = [0] * (1 << n)
    rows = [0] * n

    def extend(k):
        lo = 1 << k
        low = img[:lo]
        span = set(low)
        for r in range(1, 1 << n):
            if r in span:
                continue
            img[lo:lo << 1] = [r ^ x for x in low]
            if fits(k, img):
                rows[k] = r
                if k + 1 == n:
                    yield list(rows)
                else:
                    yield from extend(k + 1)

    return extend(0)


def invert(rows: Sequence[int], n: int) -> Optional[List[int]]:
    """Inverse of the map e_j ↦ rows[j] on n coordinates, or None."""
    span = TaggedSpan(n)
    for j in range(n):
        if not span.add(rows[j]):
            return None  # columns dependent
    red = span._reduced()
    return [red[p] >> n for p in range(n)]
