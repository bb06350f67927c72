from math import isqrt

import pytest
from hypothesis import given, strategies as st

from abellab.errors import FieldMismatchError, ZeroDivisorError
from abellab.field import (
    ONE,
    ZERO,
    Scalar,
    _squarefree,
    check_radicand,
    format_scalar,
    parse_scalar,
    rational,
    sqrtD,
)

R3 = sqrtD(3)


def test_difference_of_squares():
    x = rational(1, 2) + R3
    y = rational(1, 2) - R3
    assert x * y == rational(-11, 4)


def test_reduction():
    assert rational(2, 6) + rational(1, 6) == rational(1, 2)


def test_rationalized_inverse():
    inv = rational(1) / (rational(1) + R3)
    assert inv == Scalar(rational(-1, 2).rat, rational(1, 2).rat, 3)
    assert inv * (rational(1) + R3) == ONE


def test_zero_divisor():
    with pytest.raises(ZeroDivisorError):
        ONE / ZERO


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        sqrtD(2) + sqrtD(3)


def test_rationals_embed_into_any_extension():
    assert rational(2) + R3 == Scalar(2, 1, 3)
    assert (R3 * R3) == rational(3)
    assert (R3 * R3).D is None  # canonical: rational values drop the tag


def test_d_validation():
    with pytest.raises(ValueError):
        Scalar(0, 1, 1)
    with pytest.raises(ValueError):
        Scalar(0, 1, 12)
    with pytest.raises(ValueError):
        Scalar(0, 1, None)
    # the radicand bound: 10^18 - 11 is the largest prime below it
    assert Scalar(0, 1, 10**18 - 11).D == 10**18 - 11
    for D in (10**18, (10**12 + 39) * (10**12 + 61)):
        with pytest.raises(ValueError, match=r"below 10\^18"):
            Scalar(0, 1, D)
        with pytest.raises(ValueError, match=r"below 10\^18"):
            Scalar(1, 0, D)
        with pytest.raises(ValueError, match=r"below 10\^18"):
            check_radicand(D)


def test_coerce_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        Scalar.coerce(0.5)
    with pytest.raises(TypeError, match="float"):
        rational(1) + Scalar.coerce(1.0)


def test_squarefree_matches_trial_division():
    def brute(d):
        return all(d % (f * f) for f in range(2, isqrt(d) + 1))

    assert [d for d in range(1, 3000) if _squarefree(d) != brute(d)] == []
    assert _squarefree(1000003) and not _squarefree(1000003 * 49)
    assert not _squarefree(999983**2) and _squarefree(999983 * 1000003)


def test_text_grammar_round_trip():
    cases = ["0", "5", "-7/3", "1*r3", "-3/4*r3", "1/2-3/4*r3", "2+1/3*r5"]
    for text in cases:
        x = parse_scalar(text)
        assert parse_scalar(format_scalar(x)) == x


def test_text_grammar_examples():
    x = parse_scalar("-3/4*r3")
    assert x == Scalar(0, rational(-3, 4).rat, 3)
    with pytest.raises(ValueError):
        parse_scalar("1/2+1/3")
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    with pytest.raises(FieldMismatchError):
        parse_scalar("1*r2", D=3)


@pytest.mark.parametrize("text", ["1/0", "-0/00", "1/0*r3", "1/2+3/0*r3", "1/0-1*r5", "1/0+2"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


def test_ordering_is_the_real_order():
    # sqrt(3) is between 1 and 2; 1/2 + sqrt(3) > 2
    assert rational(1) < R3 < rational(2)
    assert rational(1, 2) + R3 > rational(2)
    assert (-R3).sign() == -1
    assert ZERO.sign() == 0


def test_pow():
    assert (rational(1, 2) + R3) ** 2 == rational(13, 4) + R3


small = st.integers(-6, 6)
denom = st.integers(1, 4)


def scalars(with_root=True):
    def build(a, b, c, d, use_root):
        if with_root and use_root:
            return Scalar(rational(a, b).rat, rational(c, d).rat, 3)
        return rational(a, b)

    return st.builds(build, small, denom, small, denom, st.booleans())


@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars())
def test_inverses(x):
    assert x + (-x) == ZERO
    if x:
        assert x * (ONE / x) == ONE


@given(scalars())
def test_canonical_idempotence(x):
    again = Scalar(x.rat, x.irr, x.D if x.irr else None)
    assert again == x
    assert hash(again) == hash(x)
    assert format_scalar(again) == format_scalar(x)
