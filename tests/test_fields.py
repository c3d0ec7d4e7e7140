import random

import pytest

from gf2lie.fields import (
    DEFAULT_MODULUS, GF2, FieldError, GF2k, PolyRing,
    add_scaled, field_make, poly2_divmod, poly2_irreducible,
)
from gf2lie.liealg import Algebra, LinearMap


def test_gf2_basics():
    assert GF2.add(1, 1) == 0
    one = GF2.one
    assert (one + one).value == 0
    assert GF2.mul(1, 1) == 1


def test_unique_irreducible_quadratic():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    f = field_make("gf2k:2:0b111")
    assert f.order == 4
    with pytest.raises(FieldError):
        GF2k(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_division_by_the_zero_polynomial_is_refused():
    # an assert here is skipped under python -O, and the division loop never ends
    with pytest.raises(FieldError, match="division by zero"):
        poly2_divmod(0b1011, 0)
    assert poly2_divmod(0b1011, 0b11) == (0b110, 1)  # x^3 + x + 1 = (x^2 + x)(x + 1) + 1


def test_default_moduli_all_irreducible():
    for k, m in DEFAULT_MODULUS.items():
        assert poly2_irreducible(m), "k=%d" % k
        GF2k(k)  # constructor re-checks


@pytest.mark.parametrize("k", sorted(DEFAULT_MODULUS))
def test_default_moduli_are_primitive(k):
    # gen() is the class of x: it generates the multiplicative group
    # exactly when its order is 2^k - 1
    f = GF2k(k)
    g = f.gen().value
    x, order = g, 1
    while x != 1:
        x, order = f.mul(x, g), order + 1
    assert order == f.order - 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_inverse_exhaustive(k):
    f = GF2k(k)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_frobenius_bijection_and_sqrt(k):
    f = GF2k(k)
    squares = sorted(f.mul(a, a) for a in range(f.order))
    assert squares == list(range(f.order))  # Frobenius is onto
    for a in range(f.order):
        assert f.sqrt(f.mul(a, a)) == a


def test_sqrt_examples():
    f = GF2k(2)
    t = f.gen()
    assert f.one.sqrt() == f.one
    assert f.zero.sqrt() == f.zero
    # exhaustive over the 4 elements: sqrt(t) = t^2 since (t^2)^2 = t^4 = t
    assert t.sqrt() == t * t
    for a in range(4):
        s = f.sqrt(a)
        assert f.mul(s, s) == a


def test_sqrt_rejected_in_poly_ring():
    R = PolyRing()
    with pytest.raises(FieldError):
        R.gen().sqrt()


def test_no_inverse_of_zero():
    with pytest.raises(FieldError):
        GF2.inv(0)


def test_field_make_specs():
    assert field_make("gf2") is GF2
    assert field_make("gf4").order == 4
    assert field_make("gf2k:3").order == 8
    assert isinstance(field_make("poly"), PolyRing)
    with pytest.raises(FieldError):
        field_make("whatever")


# ---------------------------------------------------------------------------
# the sparse {index: value} layer against dense coefficient lists
# ---------------------------------------------------------------------------

SCALAR_RINGS = [GF2k(2), GF2k(3), PolyRing()]


def _value(rng, f):
    return rng.randrange(f.order or 8)  # zero included


def _sparse_row(rng, f, n):
    return {k: _value(rng, f) for k in rng.sample(range(n), rng.randrange(n + 1))}


def _sparse(dense):
    return {k: v for k, v in enumerate(dense) if v}


def _random_entries(rng, f, n):
    """Structure constants for every pair i < j given as (i, j), as (j, i),
    as both (summed), as both with one row (summing to zero), or not at all."""
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            how = rng.randrange(5)
            row = _sparse_row(rng, f, n)
            if how in (1, 3, 4):
                entries[(i, j)] = row
            if how in (2, 3):
                entries[(j, i)] = _sparse_row(rng, f, n)
            if how == 4:
                entries[(j, i)] = dict(row)
    return entries


def _dense_table(n, entries):
    """C[i][j]: the dense row of [e_i, e_j], every entry for (i, j) or (j, i) summed."""
    C = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in entries.items():
        for k, v in row.items():
            C[i][j][k] ^= v
            C[j][i][k] ^= v
    return C


@pytest.mark.parametrize("f", SCALAR_RINGS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_layer_matches_dense_coefficient_lists(f, seed):
    rng = random.Random(seed)
    n = 6
    entries = _random_entries(rng, f, n)
    C = _dense_table(n, entries)
    g = Algebra(f, ["e%d" % i for i in range(n)], entries)
    assert g.sc == {(i, j): _sparse(C[i][j]) for i in range(n) for j in range(i + 1, n) if any(C[i][j])}
    for _ in range(10):
        u, v = _sparse_row(rng, f, n), _sparse_row(rng, f, n)
        want = [0] * n
        for i, a in u.items():
            for j, b in v.items():
                for k in range(n):
                    want[k] ^= f.mul(f.mul(a, b), C[i][j][k])
        assert g.bracket(u, v) == _sparse(want)
    images = [_sparse_row(rng, f, n) for _ in range(n)]
    m = LinearMap(g, g, images)
    for _ in range(10):
        v = _sparse_row(rng, f, n)
        want = [0] * n
        for i, c in v.items():
            for k in range(n):
                want[k] ^= f.mul(c, images[i].get(k, 0))
        assert m.apply(v) == _sparse(want)


@pytest.mark.parametrize("f", SCALAR_RINGS, ids=repr)
def test_add_scaled_at_zero_one_and_a_cancelling_row(f):
    rng = random.Random(7)
    for _ in range(20):
        acc, row = _sparse(_sparse_row(rng, f, 5).get(k, 0) for k in range(5)), _sparse_row(rng, f, 5)
        before = dict(acc)  # a sparse vector holds no zero; a row may
        add_scaled(f, acc, 0, row)
        assert acc == before
        add_scaled(f, acc, 1, row)
        assert acc == _sparse([before.get(k, 0) ^ row.get(k, 0) for k in range(5)])
        c = _value(rng, f) or 1
        acc = dict(before)
        add_scaled(f, acc, c, row)
        assert acc == _sparse([before.get(k, 0) ^ f.mul(c, row.get(k, 0)) for k in range(5)])
    acc = {2: 2, 0: 3}  # 2 = c * 1 cancels at index 2; the order of the rest is kept
    add_scaled(f, acc, 2, {2: 1, 4: 1})
    assert list(acc.items()) == [(0, 3), (4, 2)]
