"""Bit-packed linear algebra over GF(2).

Vectors are plain Python ints (bit i = coordinate i); matrices are lists
of row ints.  Arbitrary-precision ints give free word packing, xor is
vector addition, and `int.bit_count` is the mod-2 inner product workhorse.
Pivots sit at the highest set bit of a row.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


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
    """Incrementally maintained row space in reduced row echelon form.

    Invariant: pivot (top) bit of each row is set in no other row, and a
    row holds no pivot bit but its own.  So v reduces by xoring in the rows
    at the pivot bits v carries, found through `mask` and a pivot -> row
    index map, in O(popcount) instead of O(dim).
    """

    def __init__(self, rows: Iterable[int] = ()):
        self.rows: List[int] = []
        self.pivots: List[int] = []
        self.mask = 0  # OR of the pivot bits
        self._row_at: Dict[int, int] = {}  # pivot bit -> index into rows
        for v in rows:
            self.add(v)

    def reduce(self, v: int) -> int:
        rows, row_at = self.rows, self._row_at
        hit = v & self.mask
        while hit:
            low = hit & -hit
            v ^= rows[row_at[low.bit_length() - 1]]
            hit ^= low
        return v

    def add(self, v: int) -> bool:
        """Insert v; return True if the span grew."""
        v = self.reduce(v)
        if not v:
            return False
        p = v.bit_length() - 1
        for i, r in enumerate(self.rows):
            if (r >> p) & 1:
                self.rows[i] = r ^ v
        self._row_at[p] = len(self.rows)
        self.rows.append(v)
        self.pivots.append(p)
        self.mask |= 1 << p
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> List[int]:
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return [self.rows[i] for i in order]

    def copy(self) -> "Span":
        s = Span()
        s.rows = list(self.rows)
        s.pivots = list(self.pivots)
        s.mask = self.mask
        s._row_at = dict(self._row_at)
        return s

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return sorted(self.rows) == sorted(other.rows)

    def __hash__(self):
        return hash(tuple(sorted(self.rows)))


def rref(rows: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, their pivots), both
    sorted by pivot column ascending."""
    s = Span(rows)
    order = sorted(range(len(s.rows)), key=lambda i: s.pivots[i])
    return [s.rows[i] for i in order], [s.pivots[i] for i in order]


def rank(rows: Iterable[int]) -> int:
    by_pivot: Dict[int, int] = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            hit = by_pivot.get(p)
            if hit is None:
                by_pivot[p] = v
                break
            v ^= hit
    return len(by_pivot)


def kernel(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : dot(row, x) = 0 for every row}, rows read as equations."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = []
    for f in free:
        x = 1 << f
        for r, p in zip(red, pivots):
            if (r >> f) & 1:
                x |= 1 << p
        out.append(x)
    return out


def solve(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> Optional[int]:
    """One solution x of dot(rows[i], x) = rhs[i] for all i, or None.

    The rhs bit is kept below the variable columns so that top-bit
    pivoting never selects it.
    """
    aug = [(r << 1) | (b & 1) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = 0
    for r, p in zip(red, pivots):
        if p == 0:
            return None  # row 0...0 | 1
        if r & 1:
            x |= 1 << (p - 1)
    for r, b in zip(rows, rhs):
        if dot(r, x) != (b & 1):  # cheap belt-and-braces
            return None
    return x


def combination_kernel(images: Sequence[int], width: int) -> List[int]:
    """All index-set combinations of `images` that xor to zero.

    Returns a basis of {x : xor of images[i] over set bits i of x = 0},
    each x a bit mask over range(len(images)).  `width` bounds the bit
    length of the images; tag bits are carried above it and pivoting is
    restricted to the image part.
    """
    n = len(images)
    mask = (1 << width) - 1
    by_pivot: dict = {}
    out: List[int] = []
    for i in range(n):
        v = (images[i] & mask) | (1 << (width + i))
        while True:
            img = v & mask
            if not img:
                out.append(v >> width)
                break
            p = img.bit_length() - 1
            hit = by_pivot.get(p)
            if hit is None:
                by_pivot[p] = v
                break
            v ^= hit
    return out


class TaggedSpan:
    """Row space with combination tracking: tag bits live above `width`.

    add(v) inserts v tagged with a fresh index; solve(t) returns the
    index mask whose rows xor to t, or None.  Pivoting is restricted to
    the image part below `width`; rows are kept triangular (pivot dict),
    which a repeated-reduction loop handles without full RREF.
    """

    def __init__(self, width: int):
        self.width = width
        self.by_pivot: dict = {}
        self.count = 0

    def _mask(self) -> int:
        return (1 << self.width) - 1

    def add(self, v: int) -> bool:
        """Insert v with a fresh tag; returns True if the image span grew."""
        tag = 1 << (self.width + self.count)
        self.count += 1
        v = (v & self._mask()) | tag
        mask = self._mask()
        while True:
            img = v & mask
            if not img:
                return False
            p = img.bit_length() - 1
            hit = self.by_pivot.get(p)
            if hit is None:
                self.by_pivot[p] = v
                return True
            v ^= hit

    def reduce(self, t: int):
        """Reduce an untagged image vector; returns (residue, tag mask)."""
        assert t < (1 << self.width)
        mask = self._mask()
        while True:
            img = t & mask
            if not img:
                return 0, t >> self.width
            p = img.bit_length() - 1
            hit = self.by_pivot.get(p)
            if hit is None:
                return img, t >> self.width
            t ^= hit

    def solve(self, t: int) -> Optional[int]:
        res, tags = self.reduce(t)
        return None if res else tags

    @property
    def dim(self) -> int:
        return len(self.by_pivot)


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


def invert(rows: Sequence[int], n: int) -> Optional[List[int]]:
    """Inverse of the map e_j ↦ rows[j] on n coordinates, or None."""
    mask = (1 << n) - 1
    basis: List[int] = []
    pivots: List[int] = []
    at: Dict[int, int] = {}  # pivot -> index into basis
    for j in range(n):
        v = (rows[j] & mask) | (1 << (n + j))
        while True:
            img = v & mask
            if not img:
                return None  # columns dependent
            p = img.bit_length() - 1
            i = at.get(p)
            if i is None:
                at[p] = len(basis)
                basis.append(v)
                pivots.append(p)
                break
            v ^= basis[i]
    # back-substitute, highest pivot first, until image parts are unit vectors
    order = sorted(range(n), key=lambda i: -pivots[i])
    for i in order:
        for k in range(n):
            if k != i and (basis[k] >> pivots[i]) & 1:
                basis[k] ^= basis[i]
    inv = [0] * n
    for r, p in zip(basis, pivots):
        inv[p] = r >> n
    return inv
