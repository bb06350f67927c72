"""The exponential-form TrigPoly kernel against a Fourier-table reference.

The reference below is the dict-of-Scalar arithmetic the kernel replaced:
a trigonometric polynomial is a triple (a0, cos table, sin table) and a
product expands every pair of terms by the product-to-sum rules.  It lives
only here, as a slow path to test the fast one against, over Q and over
Q(sqrt 3) separately.  Moments and certificates are checked against a
per-cell loop that forms every full product.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abellab.field import ONE, ZERO, Scalar, rational, sqrtD
from abellab.poly import Poly
from abellab.trig import (
    PiScalar,
    TrigPoly,
    build_family,
    first_moments_vanish,
    modify_family,
    non_cc_certificate,
    trig_diff,
    trig_integral,
    trig_moment,
    trig_mul,
)

# -- the Fourier-table reference ------------------------------------------------


def ref_clean(t):
    a0, cc, ss = t
    return (a0, {k: v for k, v in cc.items() if v}, {k: v for k, v in ss.items() if v})


def ref_mul(f, g):
    """Exact product via frequency convolution of the product-to-sum rules."""
    (fa, fc, fs), (ga, gc, gs) = f, g
    a0 = fa * ga
    cc: dict = {}
    ss: dict = {}

    def add_cos(k, v):
        nonlocal a0
        if k < 0:
            k = -k
        if k == 0:
            a0 = a0 + v
        elif v:
            cc[k] = cc.get(k, ZERO) + v

    def add_sin(k, v):
        if k < 0:
            k, v = -k, -v
        if k != 0 and v:
            ss[k] = ss.get(k, ZERO) + v

    if fa:
        for k, v in gc.items():
            add_cos(k, fa * v)
        for k, v in gs.items():
            add_sin(k, fa * v)
    if ga:
        for k, v in fc.items():
            add_cos(k, ga * v)
        for k, v in fs.items():
            add_sin(k, ga * v)

    half = Fraction(1, 2)
    for m, u in fc.items():
        for n, v in gc.items():
            w = u * v * half
            add_cos(m - n, w)
            add_cos(m + n, w)
        for n, v in gs.items():
            w = u * v * half
            add_sin(m + n, w)
            add_sin(n - m, w)
    for m, u in fs.items():
        for n, v in gc.items():
            w = u * v * half
            add_sin(m + n, w)
            add_sin(m - n, w)
        for n, v in gs.items():
            w = u * v * half
            add_cos(m - n, w)
            add_cos(m + n, -w)
    return ref_clean((a0, cc, ss))


def ref_diff(f):
    """Termwise derivative in the angle."""
    _, cc, ss = f
    return ref_clean((ZERO, {k: v * k for k, v in ss.items()}, {k: v * -k for k, v in cc.items()}))


def ref_add(f, g, sign=1):
    out = [f[0] + g[0] * sign, dict(f[1]), dict(f[2])]
    for table, other in ((out[1], g[1]), (out[2], g[2])):
        for k, v in other.items():
            table[k] = table.get(k, ZERO) + v * sign
    return ref_clean(tuple(out))


def ref_scale(f, c):
    a0, cc, ss = f
    return ref_clean((a0 * c, {k: v * c for k, v in cc.items()}, {k: v * c for k, v in ss.items()}))


def ref_pow(f, n):
    out = (ONE, {}, {})
    for _ in range(n):
        out = ref_mul(out, f)
    return out


def ref_moment(P, Q, i, j):
    """int Q^i d(P^j) / pi, from the full reference product."""
    return ref_mul(ref_pow(Q, i), ref_diff(ref_pow(P, j)))[0] * 2


def ref_certificate(P, Q, i_max, j_max):
    cells = sorted(
        ((i, j) for i in range(1, i_max + 1) for j in range(1, j_max + 1)),
        key=lambda ij: (ij[0] + ij[1], ij[0]),
    )
    for i, j in cells:
        val = ref_moment(P, Q, i, j)
        if val:
            return (i, j, PiScalar(val))
    return None


def tables(f: TrigPoly):
    return (f.a0, dict(f.cos_coeffs), dict(f.sin_coeffs))


# -- strategies ---------------------------------------------------------------------

D = 3
small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
big = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))


def scalars(surd, rationals=small):
    if not surd:
        return st.builds(Scalar, rationals)
    zero_or = st.one_of(st.just(Fraction(0)), rationals)
    return st.builds(lambda r, e: Scalar(r, e, D), rationals, zero_or)


def raw_trigs(surd, max_freq=6, size=3, rationals=small):
    # explicit zero coefficients, so dropped terms and the zero polynomial are hit
    coeff = st.one_of(scalars(surd, rationals), st.just(ZERO))
    table = st.dictionaries(st.integers(1, max_freq), coeff, max_size=size)
    return st.tuples(coeff, table, table)


fields = pytest.mark.parametrize("surd", [False, True], ids=["Q", "Q(sqrt3)"])


def assert_canonical(f: TrigPoly):
    _, cc, ss = tables(f)
    N = f.N
    assert N == max([*cc, *ss], default=0)
    assert len(f.R.coeffs) <= 2 * N + 1 and len(f.I.coeffs) <= 2 * N + 1
    for k in range(N + 1):
        assert f.R[N + k] == f.R[N - k] and f.I[N + k] == -f.I[N - k]


def same(f: TrigPoly, ref):
    assert_canonical(f)
    assert tables(f) == ref
    assert f == TrigPoly(*ref)


# -- differential tests -------------------------------------------------------------


@fields
@settings(deadline=None)
@given(data=st.data())
def test_construction_round_trips(surd, data):
    t = data.draw(st.one_of(raw_trigs(surd), raw_trigs(surd, rationals=big)))
    same(TrigPoly(*t), ref_clean(t))


@fields
@settings(deadline=None)
@given(data=st.data())
def test_product(surd, data):
    a, b = (data.draw(st.one_of(raw_trigs(surd), raw_trigs(surd, rationals=big))) for _ in "ab")
    want = ref_mul(ref_clean(a), ref_clean(b))
    same(trig_mul(TrigPoly(*a), TrigPoly(*b)), want)
    same(TrigPoly(*a) * TrigPoly(*b), want)


@settings(deadline=None)
@given(raw_trigs(False), raw_trigs(True))
def test_product_of_rational_and_surd(a, b):
    same(TrigPoly(*a) * TrigPoly(*b), ref_mul(ref_clean(a), ref_clean(b)))
    same(TrigPoly(*b) * TrigPoly(*a), ref_mul(ref_clean(b), ref_clean(a)))


@fields
@settings(deadline=None)
@given(data=st.data())
def test_sum_difference_and_scale(surd, data):
    a, b = data.draw(raw_trigs(surd)), data.draw(raw_trigs(surd))
    c = data.draw(st.one_of(scalars(surd), st.just(ZERO)))
    f, g, ra, rb = TrigPoly(*a), TrigPoly(*b), ref_clean(a), ref_clean(b)
    same(f + g, ref_add(ra, rb))
    same(f - g, ref_add(ra, rb, -1))
    same(f - f, (ZERO, {}, {}))
    same(-f, ref_scale(ra, Scalar.coerce(-1)))
    same(f.scale(c), ref_scale(ra, c))
    same(f * c, ref_scale(ra, c))
    same(f + c, ref_add(ra, (c, {}, {})))


@fields
@settings(deadline=None)
@given(data=st.data())
def test_derivative_and_integral(surd, data):
    a = ref_clean(data.draw(raw_trigs(surd)))
    f = TrigPoly(*a)
    same(trig_diff(f), ref_diff(a))
    assert trig_integral(f) == PiScalar(a[0] * 2)


@fields
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_power(surd, data):
    a = ref_clean(data.draw(raw_trigs(surd, max_freq=4)))
    n = data.draw(st.integers(0, 5))
    same(TrigPoly(*a) ** n, ref_pow(a, n))


@fields
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_moment_reads_one_coefficient_of_the_full_product(surd, data):
    a, b = (ref_clean(data.draw(raw_trigs(surd, max_freq=4))) for _ in "ab")
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    P, Q = TrigPoly(*a), TrigPoly(*b)
    got = trig_moment(P, Q, i, j)
    assert got == trig_integral(Q**i * trig_diff(P**j))
    assert got == PiScalar(ref_moment(a, b, i, j))


def modified_family(p_spec, q_spec, R):
    P, Q = build_family(3, 2, p_spec, q_spec)
    return P, modify_family(Q, 2, R)


def family_pairs(surd):
    """Coprime-frequency families (d1 = 3, d2 = 2), optionally modified by
    R(cos 2t), and unrelated random pairs."""
    pair = st.tuples(scalars(surd), scalars(surd))
    p_spec = st.dictionaries(st.sampled_from([1, 3]), pair, min_size=1, max_size=2)
    q_spec = st.dictionaries(st.sampled_from([1, 2, 4]), pair, min_size=1, max_size=2)
    R = st.lists(scalars(surd), max_size=3).map(Poly)
    families = st.builds(modified_family, p_spec, q_spec, R)
    table = st.dictionaries(st.integers(1, 3), scalars(surd), min_size=1, max_size=2)
    randoms = st.tuples(*(st.builds(TrigPoly, scalars(surd), table, table) for _ in "PQ"))
    return st.one_of(families, randoms)


@fields
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_certificate_matches_the_cell_by_cell_loop(surd, data):
    P, Q = data.draw(family_pairs(surd))
    i_max, j_max = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
    a, b = tables(P), tables(Q)
    assert non_cc_certificate(P, Q, i_max, j_max) == ref_certificate(a, b, i_max, j_max)
    want = all(
        not ref_moment(a, b, i, 1) and not ref_moment(b, a, i, 1) for i in range(i_max + 1)
    )
    assert first_moments_vanish(P, Q, i_max) is want


# -- canonical-form edge cases --------------------------------------------------------


def test_zero_polynomial():
    z = TrigPoly.zero()
    assert (z.N, z.R, z.I) == (0, Poly.zero(), Poly.zero())
    assert tables(z) == (ZERO, {}, {}) and not z
    assert TrigPoly(0, {3: 0}, {5: ZERO}) == z
    assert TrigPoly.cos(2) - TrigPoly.cos(2) == z
    assert trig_diff(TrigPoly.constant(7)) == z
    assert trig_mul(TrigPoly.cos(3), z) == z and TrigPoly.sin(4).scale(0) == z
    assert trig_integral(z) == PiScalar(ZERO) and z**0 == TrigPoly.constant(1)


def test_top_frequency_that_cancels():
    f = TrigPoly(1, {1: 2, 5: 3}, {2: 1})
    g = f - TrigPoly.cos(5, 3)
    assert g.N == 2
    same(g, (ONE, {1: rational(2)}, {2: ONE}))
    c, s = TrigPoly.cos(3), TrigPoly.sin(3)
    one = c * c + s * s  # cos^2 + sin^2: frequency 6 cancels down to 0
    assert one.N == 0 and one == TrigPoly.constant(1)
    same(c * c - s * s, (ZERO, {6: ONE}, {}))


def test_top_frequency_with_only_a_sine_coefficient():
    f = TrigPoly(1, {1: 2}, {4: 3})
    assert f.N == 4 and f.cos_coeffs == {1: rational(2)} and f.sin_coeffs == {4: rational(3)}
    same(f, (ONE, {1: rational(2)}, {4: rational(3)}))
    same(f * f, ref_mul(tables(f), tables(f)))
    same(trig_diff(f), (ZERO, {4: rational(12)}, {1: rational(-2)}))


def test_mixed_rational_and_surd_inputs():
    r3 = sqrtD(3)
    P = TrigPoly(rational(1, 2), {3: ONE}, {})
    Q = TrigPoly(0, {2: r3 + 1}, {2: r3})
    ref = ref_mul(tables(P), tables(Q))
    same(P * Q, ref)
    same(Q * P, ref)
    same(P + Q, ref_add(tables(P), tables(Q)))
    same(Q.scale(r3), ref_scale(tables(Q), r3))
    # sqrt(3) * sqrt(3) = 3 leaves a rational product
    sq = TrigPoly.sin(2, r3) * TrigPoly.sin(2, r3)
    assert sq == TrigPoly(rational(3, 2), {4: rational(-3, 2)}, {}) and sq.R.D is None
    assert trig_moment(P, Q, 2, 1) == PiScalar(ref_moment(tables(P), tables(Q), 2, 1))


def test_constructor_rejects_nonpositive_frequencies_and_views_are_read_only():
    for bad in ({0: 1}, {-2: 1}):
        with pytest.raises(ValueError):
            TrigPoly(0, bad, {})
        with pytest.raises(ValueError):
            TrigPoly(0, {}, bad)
    f = TrigPoly.cos(2)
    with pytest.raises(TypeError):
        f.cos_coeffs[3] = ONE
    with pytest.raises(AttributeError):
        f.a0 = ONE


def test_first_moments_are_checked_up_to_and_including_i_max():
    # int sin^i t d(cos 3t) first differs from 0 at i = 3; int cos^i 3t d(sin t) never does
    P, Q = TrigPoly.cos(3), TrigPoly.sin(1)
    assert [ref_moment(tables(P), tables(Q), i, 1) for i in range(4)][-1]
    assert first_moments_vanish(P, Q, 2) and not first_moments_vanish(P, Q, 3)
    assert first_moments_vanish(Q, P, 2) and not first_moments_vanish(Q, P, 3)


def test_equality_compares_the_canonical_form():
    assert TrigPoly(0, {}, {2: 1}) == TrigPoly.sin(2) != TrigPoly.sin(2, 3)
    assert TrigPoly.sin(2) != TrigPoly.cos(2) and TrigPoly.cos(1) != TrigPoly.cos(2)
    assert TrigPoly(1, {4: 0}, {}) == TrigPoly.constant(1) != TrigPoly.constant(2)
