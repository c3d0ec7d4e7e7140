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
