"""Exact scalars: GF(2^k) and the polynomial ring GF(2)[h].

Field elements are ints.  For GF(2^k) the int is the bit vector of the
residue modulo an irreducible polynomial; for the polynomial ring bit i
is the coefficient of h^i.  A thin Scalar wrapper carries the field
reference and supplies operators; hot loops work on the raw ints.
"""

from __future__ import annotations

from typing import Dict, Optional, Union


class FieldError(ValueError):
    pass


# Primitive polynomials over GF(2), degree 1..16 (classic LFSR taps);
# irreducibility is re-verified at construction time anyway.
DEFAULT_MODULUS = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def poly2_degree(p: int) -> int:
    return p.bit_length() - 1


def poly2_mul(a: int, b: int) -> int:
    """Carry-less multiplication of GF(2)[x] polynomials packed in ints."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly2_divmod(a: int, b: int):
    if not b:
        raise FieldError("polynomial division by zero")
    db = poly2_degree(b)
    q = 0
    while a and poly2_degree(a) >= db:
        shift = poly2_degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly2_mod(a: int, b: int) -> int:
    return poly2_divmod(a, b)[1]


def poly2_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(p)//2."""
    d = poly2_degree(p)
    if d < 1:
        return False
    for f in range(2, 1 << (d // 2 + 1)):
        if poly2_mod(p, f) == 0:
            return False
    return True


class _Char2Ring:
    """What GF(2^k) and GF(2)[h] share: addition is XOR, and elements are
    reduced modulo `order` when the ring has one (GF(2)[h] has none)."""

    order: Optional[int] = None

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.sqr(a)
            n >>= 1
        return r

    def el(self, v: Union[int, "Scalar"]) -> "Scalar":
        if isinstance(v, Scalar):
            if v.field is self:
                return v
            if isinstance(v.field, GF2k) and v.value in (0, 1):
                return Scalar(self, v.value)
            raise FieldError("cannot coerce scalar between fields")
        return Scalar(self, v % self.order if self.order and not 0 <= v < self.order else v)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)


class GF2k(_Char2Ring):
    """The field GF(2^k) as residues modulo an irreducible polynomial."""

    kind = "gf2k"

    def __init__(self, k: int, modulus: Optional[int] = None):
        if k < 1:
            raise FieldError("field degree must be >= 1")
        if modulus is None:
            if k not in DEFAULT_MODULUS:
                raise FieldError("no default modulus for k=%d; supply one" % k)
            modulus = DEFAULT_MODULUS[k]
        if poly2_degree(modulus) != k:
            raise FieldError("modulus degree %d != k=%d" % (poly2_degree(modulus), k))
        if not poly2_irreducible(modulus):
            raise FieldError("modulus 0x%x is reducible over GF(2)" % modulus)
        self.k = k
        self.modulus = modulus
        self.order = 1 << k

    def mul(self, a: int, b: int) -> int:
        return poly2_mod(poly2_mul(a, b), self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self.pow(a, self.order - 2)

    def sqrt(self, a: int) -> int:
        """Frobenius is a bijection; the square root is a^(2^(k-1))."""
        return self.pow(a, 1 << (self.k - 1))

    def gen(self) -> "Scalar":
        """The class of x, a generator when the modulus is primitive."""
        if self.k == 1:
            return self.one
        return Scalar(self, 2)

    def text(self, v: int) -> str:
        return hex(v)

    def __repr__(self):
        return "GF2" if self.k == 1 else "GF(2^%d)" % self.k

    def __eq__(self, other):
        return isinstance(other, GF2k) and (self.k, self.modulus) == (other.k, other.modulus)

    def __hash__(self):
        return hash(("gf2k", self.k, self.modulus))


class PolyRing(_Char2Ring):
    """GF(2)[h], the deformation-parameter ring. Not a field: only 1 is a unit."""

    kind = "poly"

    def __init__(self, var: str = "h"):
        self.var = var

    def mul(self, a: int, b: int) -> int:
        return poly2_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 1:
            return 1
        raise FieldError("no inverse of %s in GF(2)[%s]" % (self.text(a), self.var))

    def sqrt(self, a: int) -> int:
        raise FieldError("square roots are not defined in GF(2)[%s]" % self.var)

    def gen(self) -> "Scalar":
        return Scalar(self, 2)  # the variable h itself

    def text(self, v: int) -> str:
        return "[" + ",".join(str((v >> i) & 1) for i in range(max(1, v.bit_length()))) + "]"

    def __repr__(self):
        return "GF(2)[%s]" % self.var

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.var == other.var

    def __hash__(self):
        return hash(("poly", self.var))


Field = Union[GF2k, PolyRing]


def add_scaled(field: Field, acc: Dict[int, int], c: int, row: Dict[int, int]) -> None:
    """acc += c * row in place, for sparse {index: raw value} vectors; a
    value that becomes zero is dropped, and c = 1 skips the multiply."""
    if not c:
        return
    for k, w in row.items():
        s = acc.get(k, 0) ^ (w if c == 1 else field.mul(c, w))
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


class Scalar:
    """Field element wrapper; raw value in .value, field in .field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        self.field = field
        self.value = value

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field == self.field:
                return other
            return self.field.el(other)
        if other in (0, 1):
            return Scalar(self.field, other)
        raise FieldError("cannot mix %r with %r" % (self, other))

    def __add__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.add(self.value, o.value))

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.mul(self.value, o.value))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def sqrt(self) -> "Scalar":
        return Scalar(self.field, self.field.sqrt(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        return isinstance(other, Scalar) and self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return self.field.text(self.value)


GF2 = GF2k(1)


def field_make(spec: str) -> Field:
    """Build a field from a descriptor: 'gf2', 'gf4', 'gf2k:<k>',
    'gf2k:<k>:<modulus int/hex>', 'poly' or 'poly:<var>'."""
    s = spec.strip().lower()
    if s == "gf2":
        return GF2
    if s == "gf4":
        return GF2k(2)
    if s.startswith("gf2k:"):
        parts = s.split(":")
        try:
            if len(parts) > 3:
                raise ValueError
            k, mod = int(parts[1]), int(parts[2], 0) if len(parts) > 2 else None
        except ValueError:
            raise FieldError("field spec %r is not gf2k:<k> or gf2k:<k>:<modulus int/hex>" % (spec,)) from None
        return GF2k(k, mod)
    if s == "poly":
        return PolyRing()
    if s.startswith("poly:"):
        return PolyRing(s.split(":", 1)[1])
    raise FieldError("unrecognized field spec %r" % (spec,))
