import random

import pytest

from abellab.decomp import (
    _divisors_between,
    _top_candidate,
    cc_check,
    indecomposable_factors,
    is_chebyshev_conjugate,
    is_definite,
    right_factors,
    structure_report,
)
from abellab.errors import NotClosedError, PreconditionError
from abellab.field import ONE, ZERO, rational, sqrtD
from abellab.poly import Interval, Poly, chebyshev, in_subring

IV11 = Interval(-1, 1)
HALF_R3 = sqrtD(3) * rational(1, 2)
IV3 = Interval(-HALF_R3, HALF_R3)
P6 = chebyshev(6) + Poly.one()
P10 = Poly([0, 0, 1]) * (Poly([-1, 0, 0, 0, 1]) ** 2)  # x^2 (x^4-1)^2
X2 = Poly([0, 0, 1])
X5X = Poly([0, -1, 0, 0, 0, 1])


def P(*cs):
    return Poly(cs)


def test_right_factors_quartic_power():
    fs = right_factors(P(0, 0, 0, 0, 1), IV11)
    assert [W for W in fs.factors] == [X2, P(0, 0, 0, 0, 1)]
    assert fs.s == 1


def test_right_factors_chebyshev_shift():
    fs = right_factors(P6, IV3)
    assert fs.degrees == (2, 3, 6)
    assert fs.s == 2


def test_right_factors_prime_degree():
    fs = right_factors(P(0, -1, 0, 1), IV11)
    assert fs.factors == (P(0, -1, 0, 1),)
    assert fs.s == 1


def test_right_factors_requires_closed():
    with pytest.raises(NotClosedError):
        right_factors(P(0, 1, 1), IV11)
    with pytest.raises(PreconditionError):
        right_factors(P(3), IV11)


def test_indecomposable_examples():
    fs = indecomposable_factors(P6, IV3)
    assert fs.s == 2
    assert fs.degrees == (2, 3)
    assert fs.factors[0] == X2
    assert fs.factors[1] == P(0, rational(-3, 4), 0, 1)

    fs10 = indecomposable_factors(P10, IV11)
    assert fs10.s == 2
    assert fs10.factors == (X2, X5X)

    fs4 = indecomposable_factors(P(0, 0, 0, 0, 1), IV11)
    assert fs4.s == 1
    assert fs4.factors == (X2,)


def test_factor_soundness():
    rng = random.Random(2)
    for _ in range(40):
        iv = Interval(rational(rng.randint(-2, 0)), rational(rng.randint(1, 3)))
        quad = Poly([iv.a * iv.b, -(iv.a + iv.b), ONE])
        F = Poly([rational(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))] + [ONE])
        Pp = quad * F
        fs = right_factors(Pp, iv)
        assert 1 <= fs.s <= 3
        for W in fs.factors:
            assert W.eval(iv.a) == W.eval(iv.b)
            red = in_subring(Pp, W)
            assert red is not None and red.compose(W) == Pp
            assert W.leading() == ONE and not W[0]


def test_is_definite_examples():
    assert is_definite(P6, IV3) is False
    assert is_definite(P(-1, 0, 1), IV11) is True
    assert is_definite(P10, IV11) is False
    with pytest.raises(PreconditionError):
        is_definite(P(1, 0, 1), IV11)


def test_cc_witness_example():
    Pp = P(-1, 0, 1) ** 2
    Q = P(0, 0, -1, 0, 1)
    w = cc_check(Pp, Q, IV11)
    assert w is not None
    assert w.W == X2
    assert w.P_reduced == P(1, -2, 1)
    assert w.Q_reduced == P(0, -1, 1)
    assert w.P_reduced.compose(w.W) == Pp
    assert w.Q_reduced.compose(w.W) == Q


def test_cc_none_example():
    assert cc_check(X2, P(0, -1, 0, 1), IV11) is None


def test_cc_chebyshev_example():
    Q = chebyshev(2) - Poly.constant(rational(1, 2))
    w = cc_check(P6, Q, IV3)
    assert w is not None
    assert w.W == X2  # the degree-2 class, normalized


def test_equivalence_normalization():
    rng = random.Random(7)
    for _ in range(20):
        iv = IV11
        quad = Poly([iv.a * iv.b, -(iv.a + iv.b), ONE])
        F = Poly([rational(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))] + [ONE])
        Pp = quad * F
        alpha = rational(rng.choice([1, 2, 3, -2]))
        beta = rational(rng.randint(-3, 3))
        composed = Pp.scale(alpha) + Poly.constant(beta)
        assert right_factors(Pp, iv).factors == right_factors(composed, iv).factors


def test_chebyshev_conjugacy_detector():
    assert is_chebyshev_conjugate(chebyshev(3))
    assert is_chebyshev_conjugate(P(1, 9, 0, 4))  # 4(x+...)^3-ish recentring case
    shifted = chebyshev(5).compose(P(1, 2))  # T5(2x + 1)
    assert is_chebyshev_conjugate(shifted)
    assert not is_chebyshev_conjugate(X5X)
    assert not is_chebyshev_conjugate(P(0, 0, 0, 0, 1))


def test_factor_sets_in_quadratic_extension():
    # random composites built over the sqrt(3) interval are recovered
    rng = random.Random(29)
    for _ in range(10):
        inner = Poly([rational(rng.randint(-2, 2)), rational(0), ONE])
        gap = inner.eval(IV3.b) - inner.eval(IV3.a)
        inner = inner + Poly([rational(0), -gap / (IV3.b - IV3.a)])
        outer = Poly(
            [rational(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
            + [rational(rng.choice([1, 2, -1]))]
        )
        Pp = outer.compose(inner)
        fs = right_factors(Pp, IV3)
        assert any(W.degree == 2 for W in fs.factors)
        for W in fs.factors:
            assert in_subring(Pp, W).compose(W) == Pp


def test_structure_report_examples():
    rep = structure_report(P6, IV3)
    assert (rep.s, rep.tag) == (2, "chebyshev-like")
    assert rep.factor_degrees == (2, 3)
    assert rep.definite is False

    rep10 = structure_report(P10, IV11)
    assert (rep10.s, rep10.tag) == (2, "power-like")

    rep1 = structure_report(P(-1, 0, 1), IV11)
    assert (rep1.s, rep1.tag) == (1, "single")
    assert rep1.definite is True


def ref_minimal(factors):
    """Minimal classes by the pairwise subring test (the reference for the
    degree rule)."""
    return tuple(
        W
        for W in factors
        if not any(V.degree < W.degree and in_subring(W, V) is not None for V in factors)
    )


def _closed_inner_factors():
    """(W, interval) with W(a) = W(b), over Q and Q(sqrt3)."""
    T = chebyshev
    return [
        (X2, IV11),
        (X5X, IV11),
        (P10, IV11),
        (T(4), IV11),
        (T(3).compose(T(2)), IV11),
        (T(2), IV3),
        (T(3), IV3),
        (P6, IV3),
        (T(2).compose(P6), IV3),
        (Poly([0, 0, 1, 0, -1]).scale(sqrtD(3)) + X2, IV11),
    ]


def test_minimal_classes_by_degree_match_the_subring_reference():
    rng = random.Random(11)
    # (x^5 - x)^4 has classes of degree 2, 4, 5, 10, 20: the non-minimal
    # degree-4 class comes before the minimal degree-5 one
    cases = [(P6, IV3), (P10, IV11), (X5X**4, IV11)] + _closed_inner_factors()
    for _ in range(60):
        W, iv = rng.choice(_closed_inner_factors())
        coeffs = [rational(rng.randint(-3, 3)) + rng.randint(-1, 1) * sqrtD(3) for _ in range(rng.randint(1, 3))]
        outer = Poly(coeffs + [rational(rng.choice([1, -2, 3]))])
        cases.append((outer.compose(W), iv))
    several = 0
    for Pp, iv in cases:
        fs = right_factors(Pp, iv)
        degrees = fs.degrees
        assert list(degrees) == sorted(set(degrees))
        minimal = indecomposable_factors(Pp, iv)
        assert minimal.factors == ref_minimal(fs.factors) == fs.minimal
        assert minimal.s == fs.s == len(minimal.factors)
        several += minimal.s > 1
    assert several >= 20


def ref_top_candidate(Pp, m):
    """The candidate as computed before the reversed-power recurrence: the
    full power W^n once per unknown coefficient, read at x^(N-t)."""
    N = Pp.degree
    n = N // m
    lc = Pp.leading()
    w = [ZERO] * m + [ONE]
    for t in range(1, m):
        current = lc * (Poly(w) ** n)[N - t]
        w[m - t] = (Pp[N - t] - current) / (lc * n)
    return Poly(w)


@pytest.mark.parametrize("surd", [False, True], ids=["Q", "Q(sqrt3)"])
def test_top_candidate_matches_the_full_power_reference(surd):
    rng = random.Random(31)

    def coeff():
        c = rational(rng.randint(-4, 4), rng.randint(1, 3))
        return c + rng.randint(-2, 2) * sqrtD(3) if surd else c

    cases = [P6, P10, X5X**4]
    for _ in range(40):
        # half dense polynomials (most candidates miss), half composites
        if rng.random() < 0.5:
            lead = rational(rng.choice([1, -2, 3]))
            cases.append(Poly([coeff() for _ in range(rng.randint(2, 12))] + [lead]))
        else:
            W = Poly([coeff() for _ in range(rng.randint(2, 4))] + [ONE])
            outer = Poly([coeff() for _ in range(rng.randint(1, 3))] + [rational(rng.choice([1, -2]))])
            cases.append(outer.compose(W))
    checked = 0
    for Pp in cases:
        for m in _divisors_between(Pp.degree):
            assert _top_candidate(Pp, m) == ref_top_candidate(Pp, m)
            checked += 1
    assert checked > 100
