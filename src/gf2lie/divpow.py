"""Divided-power functions O[m;N] in characteristic 2.

A monomial x^(r) is the exponent tuple r with 0 <= r_i <= 2^N_i - 1.
The product rule x^(r) x^(s) = binom(r+s, r) x^(r+s) reduces mod 2 to
the bitwise test (r_i & s_i) == 0 in every coordinate (Lucas), and the
product is zero whenever some r_i + s_i leaves the shearing range.
Out-of-range and negative binomial data always mean 0 here.  Packed into
one int (`mono_pack`), monomials multiply by one AND and one OR
(`packed_mul`).
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field, Scalar

Monomial = Tuple[int, ...]
ShearingVector = Tuple[int, ...]


def check_shearing(N: Sequence[int]) -> ShearingVector:
    N = tuple(int(n) for n in N)
    if not N or any(n < 1 for n in N):
        raise ValueError("shearing vector entries must be >= 1: %r" % (N,))
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


def mono_unpack(p: int, N: ShearingVector) -> Monomial:
    out = []
    for n in N:
        out.append(p & ((1 << n) - 1))
        p >>= n
    return tuple(out)


def packed_mul(a: int, b: int) -> Tuple[int, Optional[int]]:
    """mono_mul on packed monomials: (1, a | b), or (0, None) if they share a bit."""
    return (0, None) if a & b else (1, a | b)


def mono_text(r: Monomial, names: Sequence[str]) -> str:
    parts = []
    for e, nm in zip(r, names):
        if e == 0:
            continue
        parts.append(nm if e == 1 else "%s^(%d)" % (nm, e))
    return "*".join(parts) if parts else "1"


class DPoly:
    """Sparse divided-power polynomial over a field."""

    __slots__ = ("field", "N", "terms")

    def __init__(self, field: Field, N: Sequence[int], terms: Optional[Dict[Monomial, int]] = None):
        self.field = field
        self.N = check_shearing(N)
        self.terms: Dict[Monomial, int] = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != len(self.N):
                    raise ValueError("monomial arity mismatch")
                if any(e < 0 or e >= (1 << n) for e, n in zip(mono, self.N)):
                    raise ValueError("exponent out of range in %r" % (mono,))
                if c:
                    self.terms[tuple(mono)] = c

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, field: Field, N: Sequence[int]) -> "DPoly":
        return cls(field, N)

    @classmethod
    def mono(cls, field: Field, N: Sequence[int], r: Monomial, coeff: int = 1) -> "DPoly":
        return cls(field, N, {tuple(r): coeff})

    @classmethod
    def one(cls, field: Field, N: Sequence[int]) -> "DPoly":
        return cls.mono(field, N, tuple(0 for _ in N))

    # -- ring ops --------------------------------------------------------
    def _compat(self, other: "DPoly"):
        if self.N != other.N or self.field != other.field:
            raise ValueError("context mismatch: %r vs %r" % ((self.field, self.N), (other.field, other.N)))

    def __add__(self, other: "DPoly") -> "DPoly":
        self._compat(other)
        f = self.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = f.add(out.get(mono, 0), c)
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return DPoly(self.field, self.N, out)

    __sub__ = __add__

    def __mul__(self, other: "DPoly") -> "DPoly":
        self._compat(other)
        f = self.field
        out: Dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sgn, mono = mono_mul(ma, mb, self.N)
                if not sgn:
                    continue
                c = f.mul(ca, cb)
                s = f.add(out.get(mono, 0), c)
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return DPoly(self.field, self.N, out)

    def scale(self, c: int) -> "DPoly":
        if not c:
            return DPoly(self.field, self.N)
        f = self.field
        return DPoly(self.field, self.N, {m: f.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, DPoly) and self.N == other.N
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.N, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        zero = tuple(0 for _ in self.N)
        return all(m == zero for m in self.terms)

    # -- calculus --------------------------------------------------------
    def partial(self, i: int) -> "DPoly":
        """d/dx_i with the divided-power rule x^(r) -> x^(r - e_i)."""
        if not (0 <= i < len(self.N)):
            raise ValueError("variable index %d out of range" % i)
        out: Dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            if mono[i] == 0:
                continue
            m2 = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            s = self.field.add(out.get(m2, 0), c)
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
        return DPoly(self.field, self.N, out)

    def text(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda r: (sum(r), r))
        parts = []
        for m in keys:
            c = self.terms[m]
            cs = "" if c == 1 else self.field.text(c) + "*"
            parts.append(cs + mono_text(m, names))
        return " + ".join(parts)

    def __repr__(self):
        names = ["x%d" % (i + 1) for i in range(len(self.N))]
        return "DPoly(%s)" % self.text(names)


# -- the scaling family F_alpha and the twisted derivatives ------------

def f_alpha_exponent(r: Monomial) -> int:
    """Sum over i of [r_i / 2]: the exponent of alpha in F_alpha(x^(r))."""
    return sum(e >> 1 for e in r)


def f_alpha_map(f: DPoly, alpha: Scalar) -> DPoly:
    """F_alpha(x^(r)) = alpha^(sum [r_i/2]) x^(r); automorphism for alpha != 0."""
    fld = alpha.field
    out: Dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        scale = fld.pow(alpha.value, f_alpha_exponent(mono))
        v = fld.mul(c, scale)
        if v:
            out[mono] = v
    return DPoly(fld, f.N, out)


def d_alpha_derivative(f: DPoly, i: int, alpha: Scalar) -> DPoly:
    """D_{alpha,i}: d_i on odd exponents, alpha*d_i on even ones.

    Matches F_alpha^{-1} d_i F_alpha when alpha != 0 and stays defined
    at alpha = 0.
    """
    if not (0 <= i < len(f.N)):
        raise ValueError("variable index %d out of range" % i)
    fld = alpha.field
    out: Dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        e = mono[i]
        if e == 0:
            continue
        v = c if (e & 1) else fld.mul(c, alpha.value)
        if not v:
            continue
        m2 = mono[:i] + (e - 1,) + mono[i + 1:]
        s = fld.add(out.get(m2, 0), v)
        if s:
            out[m2] = s
        else:
            out.pop(m2, None)
    return DPoly(fld, f.N, out)


def reindex_mono(r: Monomial, N: ShearingVector) -> Monomial:
    """x^(r) of O[m;N] as a monomial of O[2m;(1,..,1,N_1-1,..,N_m-1)].

    Digit split r_i = (r_i mod 2) + 2*[r_i/2]; when N_i = 1 the second
    factor is empty and the exponent stays with the first block.
    """
    low = tuple(e & 1 for e in r)
    high = tuple(e >> 1 for e, n in zip(r, N) if n >= 2)
    return low + high


def reindex_context(N: ShearingVector) -> ShearingVector:
    return tuple([1] * len(N) + [n - 1 for n in N if n >= 2])


def reindex_iso(f: DPoly) -> DPoly:
    """The multiplicative bijection O[m;N] -> O[2m;(1..1,N-1)] conjugating D_{0,i} to d_i."""
    N2 = reindex_context(f.N)
    out = {reindex_mono(m, f.N): c for m, c in f.terms.items()}
    return DPoly(f.field, N2, out)
