import math
import random

import pytest

from gf2lie.fields import GF2, GF2k, Scalar
from gf2lie.divpow import (
    DPoly, d_alpha_derivative, f_alpha_map, mono_mul, mono_offsets, mono_pack, mono_unpack,
    monomials, packed_mul, reindex_context, reindex_iso, reindex_mono,
)


def big_binom_odd(n, k):
    """Independent oracle: big-integer binomial coefficient mod 2."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) & 1


def test_mono_mul_against_binomial_oracle_exhaustive():
    # single variable, exponents < 2^6
    N = (6,)
    for k in range(64):
        for l in range(64):
            coeff, mono = mono_mul((k,), (l,), N)
            expect = big_binom_odd(k + l, k) if k + l < 64 else 0
            assert coeff == expect, (k, l)
            if coeff:
                assert mono == (k + l,)


@pytest.mark.parametrize("N", [(3, 1, 2), (2, 2)])
def test_packed_mul_matches_mono_mul_exhaustive(N):
    monos = monomials(N)
    packed = [mono_pack(r, N) for r in monos]
    assert len(set(packed)) == len(monos)
    assert [mono_unpack(p, N) for p in packed] == monos
    zeros = 0
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            coeff, mono = mono_mul(a, b, N)
            pcoeff, pmono = packed_mul(pa, pb)
            assert pcoeff == coeff, (a, b)
            if coeff:
                assert mono_unpack(pmono, N) == mono, (a, b)
            else:
                zeros += 1
                assert pmono is None, (a, b)
    assert 0 < zeros < len(monos) ** 2


def test_mono_offsets():
    assert mono_offsets((3, 1, 2)) == (0, 3, 4)
    assert mono_pack((5, 1, 2), (3, 1, 2)) == 5 | 1 << 3 | 2 << 4


def test_mono_mul_examples():
    N = (3,)
    assert mono_mul((1,), (2,), N) == (1, (3,))     # binom(3,1)=3 odd
    assert mono_mul((1,), (1,), N)[0] == 0          # binom(2,1)=2 even
    assert mono_mul((3,), (4,), N) == (1, (7,))     # binom(7,3)=35 odd


def test_squares_are_constant():
    # f^2 lands in the constants for every f in O[m;N], exhaustively for dim <= 2^6
    N = (2, 1)
    monos = monomials(N)
    rng = random.Random(1)
    for trial in range(200):
        terms = {m: 1 for m in monos if rng.getrandbits(1)}
        f = DPoly(GF2, N, terms)
        assert (f * f).is_constant()


def test_partial_derivative_basics():
    N = (2,)
    x3 = DPoly.mono(GF2, N, (3,))
    assert x3.partial(0) == DPoly.mono(GF2, N, (2,))
    assert DPoly.one(GF2, N).partial(0) == DPoly.zero(GF2, N)


def test_partials_commute():
    N = (2, 2)
    monos = monomials(N)
    rng = random.Random(2)
    for trial in range(100):
        f = DPoly(GF2, N, {m: 1 for m in monos if rng.getrandbits(1)})
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


def test_leibniz():
    N = (2, 2)
    monos = monomials(N)
    rng = random.Random(3)
    for trial in range(100):
        f = DPoly(GF2, N, {m: 1 for m in monos if rng.getrandbits(1)})
        g = DPoly(GF2, N, {m: 1 for m in monos if rng.getrandbits(1)})
        for i in range(2):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_f_alpha_on_monomials():
    f4 = GF2k(2)
    t = f4.gen()
    N = (3,)
    x5 = DPoly.mono(f4, N, (5,))
    out = f_alpha_map(x5, t)
    assert out.terms == {(5,): f4.pow(t.value, 2)}  # [5/2] = 2
    x1 = DPoly.mono(f4, N, (1,))
    assert f_alpha_map(x1, t).terms == {(1,): 1}


def test_f_alpha_multiplicative():
    f4 = GF2k(2)
    t = f4.gen()
    N = (3,)
    a = DPoly.mono(f4, N, (2,))
    b = DPoly.mono(f4, N, (3,))
    assert f_alpha_map(a * b, t) == f_alpha_map(a, t) * f_alpha_map(b, t)
    # randomized, two variables
    N2 = (2, 2)
    monos = monomials(N2)
    rng = random.Random(4)
    for trial in range(60):
        f = DPoly(f4, N2, {m: rng.randrange(4) for m in monos if rng.getrandbits(1)})
        g = DPoly(f4, N2, {m: rng.randrange(4) for m in monos if rng.getrandbits(1)})
        assert f_alpha_map(f * g, t) == f_alpha_map(f, t) * f_alpha_map(g, t)


def test_f_alpha_composition_law():
    f4 = GF2k(2)
    N = (2, 3)
    monos = monomials(N)
    rng = random.Random(5)
    for a in range(4):
        for b in range(4):
            al, be = Scalar(f4, a), Scalar(f4, b)
            f = DPoly(f4, N, {m: rng.randrange(1, 4) for m in monos if rng.getrandbits(1)})
            assert f_alpha_map(f_alpha_map(f, be), al) == f_alpha_map(f, al * be)
    one = f4.one
    f = DPoly(f4, N, {m: rng.randrange(1, 4) for m in monos})
    assert f_alpha_map(f, one) == f


def test_d_alpha_cases():
    f4 = GF2k(2)
    t = f4.gen()
    N = (3,)
    x2 = DPoly.mono(f4, N, (2,))
    x3 = DPoly.mono(f4, N, (3,))
    assert d_alpha_derivative(x2, 0, t).terms == {(1,): t.value}
    assert d_alpha_derivative(x3, 0, t).terms == {(2,): 1}
    assert d_alpha_derivative(x2, 0, f4.zero).terms == {}


def test_d_alpha_matches_conjugated_partial():
    f4 = GF2k(2)
    N = (2, 2)
    monos = monomials(N)
    rng = random.Random(6)
    for a in range(1, 4):
        al = Scalar(f4, a)
        ali = al.inv()
        for trial in range(40):
            f = DPoly(f4, N, {m: rng.randrange(4) for m in monos if rng.getrandbits(1)})
            for i in range(2):
                lhs = d_alpha_derivative(f, i, al)
                rhs = f_alpha_map(f_alpha_map(f, al).partial(i), ali)
                assert lhs == rhs


def test_reindex_examples():
    N = (3,)
    assert reindex_mono((5,), N) == (1, 2)
    assert reindex_mono((0,), N) == (0, 0)
    assert reindex_context(N) == (1, 2)


def test_reindex_multiplicative_and_conjugates_d0():
    N = (2, 2)
    monos = monomials(N)
    rng = random.Random(7)
    zero = GF2.zero
    for trial in range(100):
        f = DPoly(GF2, N, {m: 1 for m in monos if rng.getrandbits(1)})
        g = DPoly(GF2, N, {m: 1 for m in monos if rng.getrandbits(1)})
        assert reindex_iso(f * g) == reindex_iso(f) * reindex_iso(g)
        for i in range(2):
            # D_{0,i} on O[m;N] turns into d/dy_i downstairs
            assert reindex_iso(d_alpha_derivative(f, i, zero)) == reindex_iso(f).partial(i)


def test_monomial_order_is_grlex():
    ms = monomials((2, 1))
    assert ms[0] == (0, 0)
    degs = [sum(m) for m in ms]
    assert degs == sorted(degs)
    assert len(ms) == 8


def test_exponent_bounds_enforced():
    with pytest.raises(ValueError):
        DPoly(GF2, (2,), {(4,): 1})
    with pytest.raises(ValueError):
        DPoly(GF2, (2,), {(1, 1): 1})
