import random

import pytest

from abellab.errors import PreconditionError
from abellab.field import ONE, ZERO, rational, sqrtD
from abellab.poly import Poly
from abellab.trig import (
    PiScalar,
    TrigPoly,
    build_family,
    modify_family,
    non_cc_certificate,
    trig_diff,
    trig_integral,
    trig_moment,
    trig_mul,
)


def test_mul_examples():
    c1 = TrigPoly.cos(1)
    assert trig_mul(c1, c1) == TrigPoly(rational(1, 2), {2: rational(1, 2)}, {})
    prod = trig_mul(TrigPoly.sin(2), TrigPoly.sin(6))
    assert prod == TrigPoly(0, {4: rational(1, 2), 8: rational(-1, 2)}, {})
    assert trig_mul(prod, TrigPoly.zero()) == TrigPoly.zero()


def test_diff_examples():
    assert trig_diff(TrigPoly.cos(3)) == TrigPoly.sin(3, -3)
    assert trig_diff(TrigPoly.constant(7)) == TrigPoly.zero()
    f = TrigPoly.sin(2) + TrigPoly.cos(6)
    assert trig_diff(f) == TrigPoly(0, {2: rational(2)}, {6: rational(-6)})


def test_integral_examples():
    assert trig_integral(TrigPoly.cos(5)) == PiScalar(ZERO)
    assert trig_integral(TrigPoly.constant(1)) == PiScalar(rational(2))
    sin6sq = TrigPoly.sin(6) ** 2
    assert trig_integral(sin6sq) == PiScalar(ONE)


def test_moment_examples():
    P = TrigPoly.cos(3)
    Q = TrigPoly.sin(2)
    assert trig_moment(P, Q, 3, 2) == PiScalar(rational(3, 4))
    for i in range(8):
        assert trig_moment(P, Q, i, 1) == PiScalar(ZERO)
    assert trig_moment(P, Q, 0, 4) == PiScalar(ZERO)


def test_build_family_examples():
    P, Q = build_family(3, 2, {1: (1, 0)}, {1: (0, 1)})
    assert P == TrigPoly.cos(3)
    assert Q == TrigPoly.sin(2)
    with pytest.raises(PreconditionError):
        build_family(2, 4, {1: (1, 0)}, {1: (0, 1)})
    with pytest.raises(PreconditionError):
        # index 3 on the q side is a multiple of d1 = 3
        build_family(3, 2, {1: (1, 0)}, {1: (0, 1), 3: (1, 0)})
    with pytest.raises(PreconditionError):
        build_family(3, 2, {2: (1, 0)}, {1: (0, 1)})  # 2 | 2 on the p side


def test_modify_family_examples():
    Q = TrigPoly.sin(2, 5) + TrigPoly.cos(2, 7)
    gamma = rational(3)
    R = Poly([0, -3, 0, 4]).scale(gamma)
    modified = modify_family(Q, 2, R)
    assert modified == Q + TrigPoly.cos(6, gamma)
    assert modify_family(Q, 2, Poly.zero()) == Q
    assert modify_family(Q, 2, Poly.one()) == Q + TrigPoly.constant(1)


def test_certificate_examples():
    P = TrigPoly.cos(3)
    cert = non_cc_certificate(P, TrigPoly.sin(2), 6, 6)
    assert cert == (3, 2, PiScalar(rational(3, 4)))
    r3 = sqrtD(3)
    Qs = TrigPoly.sin(2, r3) + TrigPoly.cos(2)
    assert trig_moment(P, Qs, 3, 2) == PiScalar(ZERO)
    CCP, CCQ = TrigPoly.cos(2), TrigPoly.cos(4)
    assert non_cc_certificate(CCP, CCQ, 6, 6) is None


def test_frequency_support_examples():
    f = TrigPoly.cos(3) + TrigPoly.sin(6)
    assert f.frequency_support() == {3, 6}
    assert TrigPoly.constant(4).frequency_support() == set()
    sq = TrigPoly.cos(3) ** 2
    assert sq.frequency_support() == {6}
    assert sq.a0 == rational(1, 2)


def rand_trig(rng, max_freq=5):
    cc = {k: rational(rng.randint(-2, 2)) for k in range(1, max_freq + 1)}
    ss = {k: rational(rng.randint(-2, 2)) for k in range(1, max_freq + 1)}
    return TrigPoly(rational(rng.randint(-2, 2)), cc, ss)


def test_stokes_identity():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_trig(rng)
        assert trig_integral(trig_diff(f)) == PiScalar(ZERO)


def test_by_parts():
    rng = random.Random(5)
    for _ in range(10):
        Pv = rand_trig(rng, 3)
        Qv = rand_trig(rng, 3)
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        lhs = trig_moment(Pv, Qv, i, j)
        rhs = trig_moment(Qv, Pv, j, i)
        assert lhs.coeff + rhs.coeff == ZERO


def test_orthogonality_shortcut():
    rng = random.Random(9)
    for _ in range(15):
        Pv = rand_trig(rng, 4)
        Qv = rand_trig(rng, 4)
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        qi = Qv**i
        dpj = trig_diff(Pv**j)
        if not (qi.frequency_support() & dpj.frequency_support()):
            assert trig_moment(Pv, Qv, i, j) == PiScalar(ZERO)


from hypothesis import given, settings, strategies as st

trig_polys = st.builds(
    lambda a0, cc, ss: TrigPoly(
        rational(a0),
        {k: rational(v) for k, v in cc.items()},
        {k: rational(v) for k, v in ss.items()},
    ),
    st.integers(-3, 3),
    st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=3),
    st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=3),
)


@settings(max_examples=40)
@given(trig_polys, trig_polys, trig_polys)
def test_trig_ring_axioms(f, g, h):
    assert trig_mul(f, g) == trig_mul(g, f)
    assert trig_mul(trig_mul(f, g), h) == trig_mul(f, trig_mul(g, h))
    assert trig_mul(f, g + h) == trig_mul(f, g) + trig_mul(f, h)


@settings(max_examples=30)
@given(trig_polys, trig_polys)
def test_trig_diff_is_a_derivation(f, g):
    assert trig_diff(trig_mul(f, g)) == trig_mul(trig_diff(f), g) + trig_mul(
        f, trig_diff(g)
    )


def test_family_first_moments_vanish():
    # d1 = 5, d2 = 2: p indices must be odd, q indices must avoid multiples of 5
    P, Q = build_family(5, 2, {1: (1, 0), 3: (0, 1)}, {1: (1, 1), 3: (2, 0)})
    for i in range(9):
        assert trig_moment(P, Q, i, 1) == PiScalar(ZERO)
        assert trig_moment(Q, P, i, 1) == PiScalar(ZERO)
