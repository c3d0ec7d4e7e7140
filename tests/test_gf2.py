import random

from gf2lie import gf2


def test_rref_and_rank():
    rows = [0b101, 0b011, 0b110]
    red, piv = gf2.rref(rows)
    assert gf2.rank(rows) == 2
    assert len(red) == 2
    # pivots distinct, each pivot occurs in exactly one row
    for r, p in zip(red, piv):
        assert (r >> p) & 1
        assert sum(((r2 >> p) & 1) for r2 in red) == 1


def test_span_membership():
    s = gf2.Span([0b1100, 0b0110])
    assert 0b1010 in s
    assert 0b1000 not in s
    assert not s.add(0b1010)
    assert s.add(0b0001)
    assert s.dim == 3


def test_kernel():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(2, 10)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 6))]
        ker = gf2.kernel(rows, n)
        assert len(ker) == n - gf2.rank(rows)
        for x in ker:
            assert all(gf2.dot(r, x) == 0 for r in rows)


def test_solve():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(1, 9)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 9))]
        x0 = rng.getrandbits(n)
        rhs = [gf2.dot(r, x0) for r in rows]
        x = gf2.solve(rows, rhs, n)
        assert x is not None
        assert all(gf2.dot(r, x) == b for r, b in zip(rows, rhs))
    # inconsistent system
    assert gf2.solve([0b01, 0b01], [0, 1], 2) is None


def test_invert_and_compose():
    rng = random.Random(2)
    for n in (1, 4, 7, 16, 40):
        for _ in range(30):
            rows = [rng.getrandbits(n) for _ in range(n)]
            inv = gf2.invert(rows, n)
            if gf2.rank(rows) < n:
                assert inv is None
                continue
            both = gf2.compose(rows, inv)
            assert both == [1 << i for i in range(n)]
            assert gf2.compose(inv, rows) == both


def test_combination_kernel():
    images = [0b101, 0b011, 0b110, 0b000]
    ker = gf2.combination_kernel(images, 3)
    # 0b110 = xor of the first two; the zero image is a kernel vector
    assert len(ker) == 2
    for mask in ker:
        acc = 0
        for i in gf2.bits(mask):
            acc ^= images[i]
        assert acc == 0


def test_tagged_span_solve():
    span = gf2.TaggedSpan(4)
    vals = [0b1001, 0b0011, 0b0110]
    for v in vals:
        span.add(v)
    t = vals[0] ^ vals[2]
    sol = span.solve(t)
    assert sol is not None
    acc = 0
    for i in gf2.bits(sol):
        acc ^= vals[i]
    assert acc == t
    assert span.solve(0b1000) is None


# ---------------------------------------------------------------------------
# the row-scanning echelon, kept as an oracle for the pivot-indexed Span
# ---------------------------------------------------------------------------

class _ScanSpan:
    def __init__(self):
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        for r, p in zip(self.rows, self.pivots):
            if (v >> p) & 1:
                v ^= r
        return v

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return False
        p = v.bit_length() - 1
        for i, r in enumerate(self.rows):
            if (r >> p) & 1:
                self.rows[i] = r ^ v
        self.rows.append(v)
        self.pivots.append(p)
        return True


def _random_rows(rng, width):
    """Rows of one width, some sparse, some repeated or dependent."""
    rows = []
    for _ in range(rng.randrange(1, min(width, 60) + 8)):
        kind = rng.random()
        if kind < 0.3:
            v = 0
            for _ in range(rng.randint(1, 3)):
                v |= 1 << rng.randrange(width)
        elif kind < 0.45 and rows:
            v = rng.choice(rows) ^ rng.choice(rows)
        else:
            v = rng.getrandbits(width)
        rows.append(v)
    return rows


def test_span_matches_row_scan():
    rng = random.Random(3)
    for width in (4, 5, 9, 31, 64, 65, 130, 300):
        for _ in range(8):
            rows = _random_rows(rng, width)
            span, scan = gf2.Span(), _ScanSpan()
            for v in rows:
                assert span.add(v) == scan.add(v)
                assert span.rows == scan.rows and span.pivots == scan.pivots
            assert gf2.Span(rows).rows == scan.rows
            order = sorted(range(len(scan.rows)), key=lambda i: scan.pivots[i])
            assert span.sorted_rows() == [scan.rows[i] for i in order]
            for _ in range(20):
                v = rng.getrandbits(width) ^ rng.choice(rows)
                assert span.reduce(v) == scan.reduce(v)
                assert (v in span) == (scan.reduce(v) == 0)
            assert gf2.rank(rows) == len(gf2.rref(rows)[0]) == len(scan.rows)


def test_span_copy_is_independent():
    rng = random.Random(4)
    width = 40
    span = gf2.Span(rng.getrandbits(width) for _ in range(10))
    probes = [rng.getrandbits(width) for _ in range(30)]
    before = ([span.reduce(v) for v in probes], list(span.rows), list(span.pivots))
    dup = span.copy()
    assert dup == span and dup.rows == span.rows and dup.pivots == span.pivots
    grew = sum(dup.add(rng.getrandbits(width)) for _ in range(20))
    assert grew and dup.dim == span.dim + grew
    assert ([span.reduce(v) for v in probes], span.rows, span.pivots) == before
    assert all(dup.reduce(r) == 0 for r in span.rows)


def test_rank_edge_cases():
    assert gf2.rank([]) == 0
    assert gf2.rank([0, 0]) == 0
    assert gf2.rank(iter([0b11, 0b11, 0b01])) == 2


# ---------------------------------------------------------------------------
# the elimination loops the triangular core replaced, kept as oracles
# ---------------------------------------------------------------------------

class _RrefSpan:
    """Span kept in RREF: a growing add clears its pivot bit from every row."""

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        self.mask = 0
        self._row_at = {}
        for v in rows:
            self.add(v)

    def reduce(self, v):
        rows, row_at = self.rows, self._row_at
        hit = v & self.mask
        while hit:
            low = hit & -hit
            v ^= rows[row_at[low.bit_length() - 1]]
            hit ^= low
        return v

    def add(self, v):
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

    def sorted_rows(self):
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return [self.rows[i] for i in order]


def _oracle_rref(rows):
    s = _RrefSpan(rows)
    order = sorted(range(len(s.rows)), key=lambda i: s.pivots[i])
    return [s.rows[i] for i in order], [s.pivots[i] for i in order]


def _oracle_rank(rows):
    by_pivot = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            hit = by_pivot.get(p)
            if hit is None:
                by_pivot[p] = v
                break
            v ^= hit
    return len(by_pivot)


def _oracle_kernel(rows, ncols):
    red, pivots = _oracle_rref(rows)
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = 1 << f
        for r, p in zip(red, pivots):
            if (r >> f) & 1:
                x |= 1 << p
        out.append(x)
    return out


def _oracle_solve(rows, rhs, ncols):
    red, pivots = _oracle_rref([(r << 1) | (b & 1) for r, b in zip(rows, rhs)])
    x = 0
    for r, p in zip(red, pivots):
        if p == 0:
            return None
        if r & 1:
            x |= 1 << (p - 1)
    return x


def _oracle_combination_kernel(images, width):
    mask = (1 << width) - 1
    by_pivot = {}
    out = []
    for i in range(len(images)):
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


class _OracleTaggedSpan:
    def __init__(self, width):
        self.width = width
        self.mask = (1 << width) - 1
        self.by_pivot = {}
        self.count = 0

    def add(self, v):
        v = (v & self.mask) | (1 << (self.width + self.count))
        self.count += 1
        while True:
            img = v & self.mask
            if not img:
                return False
            p = img.bit_length() - 1
            hit = self.by_pivot.get(p)
            if hit is None:
                self.by_pivot[p] = v
                return True
            v ^= hit

    def solve(self, t):
        while True:
            img = t & self.mask
            if not img:
                return t >> self.width
            p = img.bit_length() - 1
            hit = self.by_pivot.get(p)
            if hit is None:
                return None
            t ^= hit


def _oracle_invert(rows, n):
    mask = (1 << n) - 1
    basis, pivots, at = [], [], {}
    for j in range(n):
        v = (rows[j] & mask) | (1 << (n + j))
        while True:
            img = v & mask
            if not img:
                return None
            p = img.bit_length() - 1
            i = at.get(p)
            if i is None:
                at[p] = len(basis)
                basis.append(v)
                pivots.append(p)
                break
            v ^= basis[i]
    for i in sorted(range(n), key=lambda i: -pivots[i]):
        for k in range(n):
            if k != i and (basis[k] >> pivots[i]) & 1:
                basis[k] ^= basis[i]
    inv = [0] * n
    for r, p in zip(basis, pivots):
        inv[p] = r >> n
    return inv


WIDTHS = (1, 2, 3, 5, 8, 13, 31, 64, 65, 100, 130, 200, 300)


def _row(rng, width, density):
    """One row with bit density 0, ~1/8, ~1/2, ~7/8 or 1."""
    full = (1 << width) - 1
    if density in (0, 4):
        return full if density else 0
    sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
    return (sparse, rng.getrandbits(width), full ^ sparse)[density - 1]


def _matrices(seed):
    """(width, rows) over every width, row counts 0 to 2n+1 and five
    densities; a third of the rows repeat or combine earlier ones."""
    rng = random.Random(seed)
    for width in WIDTHS:
        for count in sorted({0, 1, width // 2, width, width + 1, 2 * width + 1}):
            for density in range(5):
                rows = []
                for _ in range(count):
                    if rows and rng.random() < 0.3:
                        rows.append(rng.choice(rows) ^ rng.choice(rows))
                    else:
                        rows.append(_row(rng, width, density))
                yield width, rows


def _probes(rng, width, rows):
    """Vectors in the row space and random ones."""
    out = [0, (1 << width) - 1]
    for _ in range(6):
        acc = 0
        for r in rows:
            if rng.random() < 0.5:
                acc ^= r
        out += [acc, rng.getrandbits(width)]
    return out


def test_rref_rank_kernel_solve_match_the_oracles():
    rng = random.Random(10)
    for width, rows in _matrices(11):
        assert gf2.rref(rows) == _oracle_rref(rows)
        assert gf2.rank(rows) == _oracle_rank(rows)
        assert gf2.kernel(rows, width) == _oracle_kernel(rows, width)
        x0 = rng.getrandbits(width)
        rhs = [gf2.dot(r, x0) for r in rows]
        assert gf2.solve(rows, rhs, width) == _oracle_solve(rows, rhs, width)
        if rows:  # mostly inconsistent
            rhs[rng.randrange(len(rows))] ^= 1
            assert gf2.solve(rows, rhs, width) == _oracle_solve(rows, rhs, width)


def test_tagged_span_and_combination_kernel_match_the_oracles():
    rng = random.Random(12)
    for width, rows in _matrices(13):
        assert gf2.combination_kernel(rows, width) == _oracle_combination_kernel(rows, width)
        span, oracle = gf2.TaggedSpan(width), _OracleTaggedSpan(width)
        for v in rows:
            assert span.add(v) == oracle.add(v)
        assert span.dim == len(oracle.by_pivot)
        for t in _probes(rng, width, rows):
            assert span.solve(t) == oracle.solve(t)


def test_invert_matches_the_oracle():
    rng = random.Random(14)
    for n in WIDTHS:
        for trial in range(6):
            if trial % 2:  # invertible: the identity under random row additions
                rows = [1 << i for i in range(n)]
                for _ in range(3 * n):
                    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                    if i != j:
                        rows[i] ^= rows[j]
            else:
                rows = [_row(rng, n, trial // 2 + 1) for _ in range(n)]
            assert gf2.invert(rows, n) == _oracle_invert(rows, n)


def test_span_state_matches_the_rref_oracle():
    rng = random.Random(15)
    for width, rows in _matrices(16):
        span, oracle = gf2.Span(), _RrefSpan()
        checkpoints = {len(rows) // 3, len(rows) // 2, len(rows)}
        for k, v in enumerate(rows + [None]):
            if k in checkpoints:  # the RREF is built here, then dropped by growth
                assert (span.rows, span.pivots, span.mask, span.dim) == (
                    oracle.rows, oracle.pivots, oracle.mask, len(oracle.rows))
                assert span.sorted_rows() == oracle.sorted_rows()
                for t in _probes(rng, width, rows):
                    assert span.reduce(t) == oracle.reduce(t)
                    assert (t in span) == (oracle.reduce(t) == 0)
            if v is not None:
                assert span.add(v) == oracle.add(v)
                t = rng.getrandbits(width)  # reduced on the triangular rows
                assert span.reduce(t) == oracle.reduce(t)
        assert gf2.Span(rows).rows == oracle.rows
