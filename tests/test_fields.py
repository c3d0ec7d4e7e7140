import pytest

from gf2lie.fields import (
    DEFAULT_MODULUS, GF2, FieldError, GF2k, PolyRing,
    field_make, poly2_divmod, poly2_irreducible,
)


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
