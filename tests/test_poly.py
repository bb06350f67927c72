import random

import pytest
from hypothesis import given, settings, strategies as st

from abellab.errors import ConstantFactorError, PreconditionError
from abellab.field import ONE, Scalar, rational, sqrtD
from abellab.linalg import solve
from abellab.poly import (
    Interval,
    PCPair,
    Poly,
    chebyshev,
    definite_integral,
    exponent_condition,
    in_subring,
)

R3 = sqrtD(3)
HALF_R3 = R3 * rational(1, 2)


def P(*coeffs):
    return Poly([rational(c) if isinstance(c, int) else c for c in coeffs])


def test_degree_marker():
    assert Poly.zero().degree is None
    assert Poly.zero().is_zero()
    assert P(3).degree == 0
    assert P(0, 1).degree == 1


def test_eval_examples():
    assert chebyshev(2).eval(HALF_R3) == rational(1, 2)
    assert Poly.zero().eval(R3) == rational(0)
    assert chebyshev(6).eval(HALF_R3) == rational(-1)


def test_compose_examples():
    assert chebyshev(3).compose(chebyshev(2)) == P(-1, 0, 18, 0, -48, 0, 32)
    f = P(2, 0, 5, 1)
    assert f.compose(Poly.x()) == f
    square = P(0, 0, 1)
    inner = P(0, -1, 0, 0, 0, 1)  # z^5 - z
    assert square.compose(inner) == P(0, 0, 1, 0, 0, 0, -2, 0, 0, 0, 1)


def test_primitive_examples():
    assert P(0, 2).primitive(rational(-1)) == P(-1, 0, 1)
    assert Poly.zero().primitive(rational(5)) == Poly.zero()
    assert P(-1, 0, 3).primitive(rational(0)) == P(0, -1, 0, 1)


def test_definite_integral_examples():
    iv = Interval(-1, 1)
    assert definite_integral(P(0, 0, 1), iv) == rational(2, 3)
    assert definite_integral(P(0, 1, 0, 5), iv) == rational(0)
    iv3 = Interval(-HALF_R3, HALF_R3)
    assert definite_integral(P(0, 0, 1), iv3) == Scalar(0, rational(1, 4).rat, 3)


def test_chebyshev_examples():
    assert chebyshev(0) == P(1)
    assert chebyshev(2) == P(-1, 0, 2)
    assert chebyshev(6) == P(-1, 0, 18, 0, -48, 0, 32)


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_chebyshev_semigroup(m, n):
    assert chebyshev(m).compose(chebyshev(n)) == chebyshev(m * n)


def test_in_subring_examples():
    f = P(5, 0, -2, 0, 1)
    w = P(0, 0, 1)
    assert in_subring(f, w) == P(5, -2, 1)
    assert in_subring(P(0, 0, 0, 1), w) is None
    assert in_subring(chebyshev(6), chebyshev(2)) == chebyshev(3)
    with pytest.raises(ConstantFactorError):
        in_subring(f, P(2))


def test_in_subring_degree_one_and_degenerate():
    # a degree-one inner factor generates everything
    f = P(5, 0, -2, 0, 1)
    w = P(3, 2)
    red = in_subring(f, w)
    assert red is not None and red.compose(w) == f
    # constants and zero are polynomials in anything
    assert in_subring(P(7), P(0, 0, 1)) == P(7)
    assert in_subring(Poly.zero(), P(0, 0, 1)) == Poly.zero()


def _subring_solve_oracle(Q, W):
    """Independent membership test: exact linear solve for the coefficients."""
    if Q.is_zero():
        return True
    if Q.degree % W.degree:
        return False
    n = Q.degree // W.degree
    cols = []
    power = Poly.one()
    for t in range(n + 1):
        cols.append([power[i] for i in range(Q.degree + 1)])
        power = power * W
    rows = [[cols[t][i] for t in range(n + 1)] for i in range(Q.degree + 1)]
    rhs = [Q[i] for i in range(Q.degree + 1)]
    return solve(rows, rhs, n + 1) is not None


def test_in_subring_complete_against_linear_solve():
    rng = random.Random(11)
    for _ in range(60):
        W = Poly([rational(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [ONE])
        if rng.random() < 0.5:
            S = Poly([rational(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [ONE])
            Q = S.compose(W)
        else:
            Q = Poly([rational(rng.randint(-3, 3)) for _ in range(rng.randint(2, 7))] + [ONE])
        got = in_subring(Q, W)
        assert (got is not None) == _subring_solve_oracle(Q, W)
        if got is not None:
            assert got.compose(W) == Q


def test_exponent_condition_examples():
    assert exponent_condition(P(0, 0, 0, 0, 1, 0, 0, 1), {2}, "U")  # x^4 + x^7
    assert not exponent_condition(P(0, 0, 0, 0, 0, 0, 1), {2}, "U")  # x^6
    assert exponent_condition(P(0, 0, 0, 0, 1, 0, 0, 0, 1), {2}, "U1")  # x^4 + x^8
    with pytest.raises(ValueError):
        exponent_condition(P(1), set(), "U")
    with pytest.raises(ValueError):
        exponent_condition(P(1), {4}, "U")


def test_interval_and_pair_validation():
    with pytest.raises(ValueError):
        Interval(1, 1)
    iv = Interval(-1, 1)
    with pytest.raises(PreconditionError):
        PCPair(P(1, 0, 1), P(0, -1, 0, 1), iv)
    PCPair(P(-1, 0, 1), P(0, -1, 0, 1), iv)


coeffs = st.lists(st.integers(-4, 4), min_size=0, max_size=5)


@settings(max_examples=60)
@given(coeffs, st.integers(-2, 2))
def test_primitive_inverts_derivative(cs, a):
    f = Poly([rational(c) for c in cs])
    F = f.primitive(rational(a))
    assert F.derivative() == f
    assert not F.eval(rational(a))


@settings(max_examples=40)
@given(coeffs, coeffs, coeffs)
def test_compose_associativity(cs1, cs2, cs3):
    f, g, h = (Poly([rational(c) for c in cs]) for cs in (cs1, cs2, cs3))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_integral_additivity_and_affine_invariance():
    rng = random.Random(3)
    for _ in range(25):
        f = Poly([rational(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))])
        a, c, b = rational(-1), rational(rng.randint(0, 2), 3), rational(2)
        whole = definite_integral(f, Interval(a, b))
        assert whole == definite_integral(f, Interval(a, c)) + definite_integral(
            f, Interval(c, b)
        )
        # pull back through x = u*t + v with the Jacobian factor
        u, v = rational(rng.choice([1, 2, -1]), rng.choice([1, 2])), rational(
            rng.randint(-2, 2)
        )
        tau = Poly([v, u])
        pulled = f.compose(tau).scale(u)
        ta, tb = (a - v) / u, (b - v) / u
        assert definite_integral(pulled, Interval(ta, tb)) == whole
