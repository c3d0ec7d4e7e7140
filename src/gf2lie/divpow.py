"""Divided-power functions O[m;N] in characteristic 2.

A monomial x^(r) is the exponent tuple r with 0 <= r_i <= 2^N_i - 1.
The product rule x^(r) x^(s) = binom(r+s, r) x^(r+s) reduces mod 2 to
the bitwise test (r_i & s_i) == 0 in every coordinate (Lucas), and the
product is zero whenever some r_i + s_i leaves the shearing range.
Out-of-range and negative binomial data always mean 0 here.  Packed into
one int (`mono_pack`), monomials multiply by one AND and one OR: the
product of a and b is a | b when a & b == 0, and zero otherwise.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import List, Optional, Sequence, Tuple

from .liealg import AlgebraError

Monomial = Tuple[int, ...]
ShearingVector = Tuple[int, ...]


def check_shearing(N: Sequence[int]) -> ShearingVector:
    N = tuple(int(n) for n in N)
    if not N or any(n < 1 for n in N):
        raise AlgebraError("shearing vector entries must be >= 1: %r" % (N,))
    return N


def monomials(N: Sequence[int]) -> List[Monomial]:
    """All monomials of O[m;N] in graded lexicographic order."""
    N = check_shearing(N)
    ranges = [range(1 << n) for n in N]
    out = list(_cartesian(*ranges))
    out.sort(key=lambda r: (sum(r), r))
    return out


def mono_mul(a: Monomial, b: Monomial, N: ShearingVector) -> Tuple[int, Optional[Monomial]]:
    """Divided-power product of two monomials: (coefficient mod 2, monomial)."""
    out = []
    for ra, rb, n in zip(a, b, N):
        if ra & rb:
            return 0, None  # binom(ra+rb, ra) even by Lucas
        r = ra + rb
        if r >= (1 << n):
            return 0, None  # out of the shearing range
        out.append(r)
    return 1, tuple(out)


# A packed monomial is one int holding r_i in an N_i-bit field, the first
# variable lowest.  When no field shares a bit, r_i + s_i = r_i | s_i stays
# below 2^N_i, so by the Lucas rule above a product is one AND and one OR.

def mono_offsets(N: ShearingVector) -> Tuple[int, ...]:
    """Bit offset of each variable's exponent field in a packed monomial."""
    out, o = [], 0
    for n in N:
        out.append(o)
        o += n
    return tuple(out)


def mono_pack(r: Monomial, N: ShearingVector) -> int:
    p = 0
    for e, o in zip(r, mono_offsets(N)):
        p |= e << o
    return p


def mono_partial(r: Monomial, *variables: int) -> Optional[Monomial]:
    """d_v1 d_v2 ... x^(r): one off the exponent of each listed variable (a
    variable may repeat), or None when an exponent would go below zero."""
    out = list(r)
    for v in variables:
        out[v] -= 1
    return tuple(out) if min(out, default=0) >= 0 else None


def mono_text(r: Monomial, names: Sequence[str]) -> str:
    parts = []
    for e, nm in zip(r, names):
        if e == 0:
            continue
        parts.append(nm if e == 1 else "%s^(%d)" % (nm, e))
    return "*".join(parts) if parts else "1"


def reindex_mono(r: Monomial, N: ShearingVector) -> Monomial:
    """x^(r) of O[m;N] as a monomial of O[2m;(1,..,1,N_1-1,..,N_m-1)].

    Digit split r_i = (r_i mod 2) + 2*[r_i/2]; when N_i = 1 the second
    factor is empty and the exponent stays with the first block.
    """
    low = tuple(e & 1 for e in r)
    high = tuple(e >> 1 for e, n in zip(r, N) if n >= 2)
    return low + high

