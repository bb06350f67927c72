"""The integer Poly kernel against a schoolbook Scalar reference.

The reference below is the dense list-of-Scalar arithmetic the kernel
replaced: every product is a double loop of Scalar multiply-adds.  It
lives only here, as a slow path to test the fast one against, over Q and
over Q(sqrt 3).  One test is an end-to-end oracle: a pair with a common
composition factor has an identically zero stratified table.  Series
reversion is checked by composing the two truncated series back to y.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from abellab.center import (
    BACKWARD,
    DELTA_ON_P,
    EPS_ON_Q,
    FORWARD,
    _revert,
    invert_series,
    parametric_table,
)
from abellab.field import ONE, ZERO, Scalar, sqrtD
from abellab.poly import Interval, Poly

# -- the schoolbook reference ---------------------------------------------------


def ref_trim(cs):
    out = list(cs)
    while out and not out[-1]:
        out.pop()
    return out


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ref_trim(out)


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return ref_trim(out)


def ref_eval(a, x):
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_derivative(a):
    return ref_trim([c * i for i, c in enumerate(a)][1:])


def ref_primitive(a, x0):
    out = [ZERO] + [c / (i + 1) for i, c in enumerate(a)]
    out[0] = -ref_eval(out, x0)
    return ref_trim(out)


def ref_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), [c])
    return acc


# -- strategies -------------------------------------------------------------------

D = 3
big = st.one_of(st.integers(-6, 6), st.integers(-(10**40), 10**40))
denoms = st.one_of(st.integers(1, 6), st.integers(1, 10**12))
rationals = st.builds(Fraction, big, denoms)


def scalars(surd):
    if not surd:
        return st.builds(Scalar, rationals)
    zero_or = st.one_of(st.just(Fraction(0)), rationals)
    return st.builds(lambda r, e: Scalar(r, e, D), rationals, zero_or)


def coeff_lists(surd, max_size=7):
    # zeros inside and at the top, so trimming and the zero polynomial are hit
    return st.lists(st.one_of(scalars(surd), st.just(ZERO)), max_size=max_size)


fields = pytest.mark.parametrize("surd", [False, True], ids=["Q", "Q(sqrt3)"])


def assert_canonical(f: Poly):
    assert not f.num or f.num[-1] or (f.irr and f.irr[-1])
    assert f.den > 0 and gcd(f.den, *f.num, *f.irr) == 1
    assert (f.D is None) == (not f.irr)
    assert not f.irr or (len(f.irr) == len(f.num) and any(f.irr))


def same(f: Poly, ref):
    assert_canonical(f)
    assert f.coeffs == tuple(ref)
    assert f == Poly(ref)


# -- differential tests -------------------------------------------------------------


@fields
@settings(deadline=None)
@given(data=st.data())
def test_construction_round_trips(surd, data):
    a = data.draw(coeff_lists(surd))
    f = Poly(a)
    same(f, ref_trim(a))
    assert hash(f) == hash(Poly(list(f.coeffs)))


@fields
@settings(deadline=None)
@given(data=st.data())
def test_product(surd, data):
    a, b = data.draw(coeff_lists(surd)), data.draw(coeff_lists(surd))
    same(Poly(a) * Poly(b), ref_mul(ref_trim(a), ref_trim(b)))


@settings(deadline=None)
@given(coeff_lists(False), coeff_lists(True))
def test_product_of_rational_and_surd(a, b):
    same(Poly(a) * Poly(b), ref_mul(ref_trim(a), ref_trim(b)))
    same(Poly(b) * Poly(a), ref_mul(ref_trim(b), ref_trim(a)))


@fields
@settings(deadline=None)
@given(data=st.data())
def test_sum_and_difference(surd, data):
    a, b = data.draw(coeff_lists(surd)), data.draw(coeff_lists(surd))
    f, g = Poly(a), Poly(b)
    same(f + g, ref_add(ref_trim(a), ref_trim(b)))
    same(f - g, ref_add(ref_trim(a), ref_neg(ref_trim(b))))
    same(f - f, [])


@fields
@settings(deadline=None)
@given(data=st.data())
def test_scale_and_derivative(surd, data):
    a, c = data.draw(coeff_lists(surd)), data.draw(scalars(surd))
    f = Poly(a)
    same(f.scale(c), ref_trim([x * c for x in ref_trim(a)]))
    same(f.derivative(), ref_derivative(ref_trim(a)))
    same(f.shift(2), ref_trim([ZERO, ZERO] + ref_trim(a)) if ref_trim(a) else [])


@fields
@settings(deadline=None)
@given(data=st.data())
def test_eval_and_primitive(surd, data):
    a, x = data.draw(coeff_lists(surd)), data.draw(scalars(surd))
    f = Poly(a)
    assert f.eval(x) == ref_eval(ref_trim(a), x)
    same(f.primitive(x), ref_primitive(ref_trim(a), x))


@settings(deadline=None)
@given(coeff_lists(False), st.builds(lambda r, e: Scalar(r, e, D), rationals, rationals))
def test_rational_poly_at_a_surd_point(a, x):
    f = Poly(a)
    assert f.eval(x) == ref_eval(ref_trim(a), x)
    same(f.primitive(x), ref_primitive(ref_trim(a), x))


@fields
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_compose(surd, data):
    a, b = data.draw(coeff_lists(surd, 5)), data.draw(coeff_lists(surd, 4))
    same(Poly(a).compose(Poly(b)), ref_compose(ref_trim(a), ref_trim(b)))


def test_unequal_lengths_and_sign_extremes():
    # m^2 has 127 bits, one short of a whole number of bytes, so a stride
    # that ignored the sum of min(len) products or the sign would overflow
    m = isqrt(2**127 - 1)
    for f, g in [
        (Poly([m, m, m]), Poly([m, m, m])),
        (Poly([m, -m, m]), Poly([-m, m, -m])),
        (Poly([-m, -m, -m, -m]), Poly([m, m])),
        (Poly([m]), Poly([-m] + [0] * 9 + [m])),
    ]:
        same(f * g, ref_mul(list(f.coeffs), list(g.coeffs)))
        same(g * f, ref_mul(list(g.coeffs), list(f.coeffs)))
    h = Poly([Scalar(1, -1, D), Scalar(-1, 1, D)])  # A + B = 0 in the middle product
    same(h * h, ref_mul(list(h.coeffs), list(h.coeffs)))
    same(h * Poly([2]), ref_mul(list(h.coeffs), [Scalar(2)]))
    f, g = Poly([Scalar(0, 1, D), 1, Scalar(-2, 1, D)]), Poly([1, Scalar(1, 1, D)])
    same(f.compose(g), ref_compose(list(f.coeffs), list(g.coeffs)))


# -- composition => center oracle -------------------------------------------------------

R3 = sqrtD(D)
INTERVALS = [(-1, 1), (0, 1), (Fraction(-1, 2), Fraction(3, 2)), (0, R3)]


def _rand_poly(rng, deg):
    cs = [Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))) for _ in range(deg)]
    return Poly(cs + [Scalar(rng.choice([1, -1, 2, Fraction(1, 2)]))])


@pytest.mark.parametrize("case", range(8))
def test_composition_pairs_have_zero_tables(case):
    rng = random.Random(1000 + case)
    a, b = INTERVALS[case % len(INTERVALS)]
    iv = Interval(a, b)
    quad = Poly([iv.a * iv.b, -(iv.a + iv.b), 1])
    W = quad * _rand_poly(rng, rng.randint(0, 1)) + Poly([rng.choice([1, -1])])
    assert W.eval(iv.a) == W.eval(iv.b)
    P = _rand_poly(rng, rng.randint(1, 3)).compose(W)
    Q = _rand_poly(rng, rng.randint(1, 2)).compose(W)
    P, Q = P - Poly([P.eval(iv.a)]), Q - Poly([Q.eval(iv.a)])
    p, q = P.derivative(), Q.derivative()
    for param in (EPS_ON_Q, DELTA_ON_P):
        for direction in (FORWARD, BACKWARD):
            assert parametric_table(p, q, iv, 8, param, direction).is_zero()


# -- division and series reversion ---------------------------------------------------


def ref_divmod(a, b):
    """Schoolbook division of coefficient lists over the field (b nonzero)."""
    rem = list(a)
    if len(rem) < len(b):
        return [], ref_trim(rem)
    quot = [ZERO] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        quot[i - len(b) + 1] = f
        for j, c in enumerate(b):
            rem[i - len(b) + 1 + j] = rem[i - len(b) + 1 + j] - f * c
    return ref_trim(quot), ref_trim(rem)


@fields
@settings(deadline=None)
@given(data=st.data())
def test_divmod(surd, data):
    a = ref_trim(data.draw(coeff_lists(surd)))
    b = ref_trim(data.draw(coeff_lists(surd, 4).filter(lambda c: any(c))))
    q, r = Poly(a).divmod(Poly(b))
    want_q, want_r = ref_divmod(a, b)
    same(q, want_q)
    same(r, want_r)
    assert ref_add(ref_mul(list(q.coeffs), b), list(r.coeffs)) == a
    assert r.is_zero() or r.degree < len(b) - 1


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Poly([1, 2]).divmod(Poly.zero())


def compose_truncated(ws, vs, zero, one):
    """Coefficients of y^0..y^K of (y + sum w y^k) o (y + sum v y^k),
    both lists starting at order 2, by schoolbook truncated products."""
    K = len(vs) + 1
    G = [zero, one] + list(vs)
    F = [zero, one] + list(ws)
    out = [zero] * (K + 1)
    power = [one] + [zero] * K  # G^0
    for k in range(1, K + 1):
        power = [
            sum((power[i] * G[n - i] for i in range(n + 1)), zero) for n in range(K + 1)
        ]
        out = [o + F[k] * p for o, p in zip(out, power)]
    return out


def identity_series(K, zero, one):
    return [zero, one] + [zero] * (K - 1)


@fields
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_invert_series_composes_back_to_y(surd, data):
    vs = data.draw(st.lists(scalars(surd), min_size=1, max_size=6))
    ws = invert_series(vs)
    assert len(ws) == len(vs)
    K = len(vs) + 1
    assert compose_truncated(ws, vs, ZERO, ONE) == identity_series(K, ZERO, ONE)
    assert compose_truncated(vs, ws, ZERO, ONE) == identity_series(K, ZERO, ONE)


@fields
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_revert_with_parameter_coefficients_composes_back_to_y(surd, data):
    vs = data.draw(st.lists(coeff_lists(surd, 3).map(Poly), min_size=1, max_size=5))
    zero, one = Poly.zero(), Poly.one()
    ws = _revert(vs, zero, one)
    assert len(ws) == len(vs)
    K = len(vs) + 1
    assert compose_truncated(ws, vs, zero, one) == identity_series(K, zero, one)
    assert compose_truncated(vs, ws, zero, one) == identity_series(K, zero, one)
