import random

import pytest
from hypothesis import given, settings, strategies as st

from abellab.errors import FactorBoundError, KernelNotStabilizedError, PreconditionError
from abellab.field import ZERO, rational, sqrtD
from abellab.linalg import kernel_basis, rank, span_rref
from abellab.poly import definite_integral
from abellab.moments import (
    chebyshev_zero_space_dim,
    composition_sum_space,
    double_moments_vanish,
    in_zero_space_of,
    moment,
    moment_matrix,
    parametric_structure_report,
    pspace_basis,
    zero_space,
    zero_space_matches_compositions,
)
from abellab.poly import Interval, Poly, chebyshev

IV11 = Interval(-1, 1)
HALF_R3 = sqrtD(3) * rational(1, 2)
IV3 = Interval(-HALF_R3, HALF_R3)
P6 = chebyshev(6) + Poly.one()
P10 = Poly([0, 0, 1]) * (Poly([-1, 0, 0, 0, 1]) ** 2)


def P(*cs):
    return Poly(cs)


def test_moment_examples():
    Pp, Q = P(-1, 0, 1), P(0, -1, 0, 1)
    assert moment(Pp, Q, IV11, 0) == ZERO
    assert moment(Pp, Q, IV11, 1) == rational(8, 15)
    P3, Q3 = P(0, -1, 1), P(0, 2, -3, 1)
    assert moment(Q3, P3, IV01 := Interval(0, 1), 2) == rational(-1, 140)


def test_moment_bilinearity():
    rng = random.Random(13)
    for _ in range(10):
        A = P(*(rng.randint(-3, 3) for _ in range(4)))
        Q1 = P(*(rng.randint(-3, 3) for _ in range(5)))
        Q2 = P(*(rng.randint(-3, 3) for _ in range(5)))
        al, be = rational(rng.randint(-3, 3)), rational(rng.randint(-3, 3))
        i = rng.randint(0, 4)
        lhs = moment(A, Q1.scale(al) + Q2.scale(be), IV11, i)
        assert lhs == al * moment(A, Q1, IV11, i) + be * moment(A, Q2, IV11, i)


def test_integration_by_parts():
    rng = random.Random(19)
    quad = Poly([-1, 0, 1])
    for _ in range(10):
        A = quad * P(*(rng.randint(-2, 2) for _ in range(3)), 1)
        B = quad * P(*(rng.randint(-2, 2) for _ in range(3)), 1)
        assert moment(A, B, IV11, 1) == -moment(B, A, IV11, 1)


def test_double_moments_examples():
    W = P(0, 0, 1)
    Pc = P(1, -2).compose(W) - Poly.constant(rational(-1))
    Qc = P(0, -1, 1).compose(W)
    assert double_moments_vanish(Pc, Qc, IV11, 20)
    assert not double_moments_vanish(P(-1, 0, 1), P(0, -1, 0, 1), IV11, 5)
    assert double_moments_vanish(P6, chebyshev(3), IV3, 15)


def test_zero_space_chebyshev_dimension():
    basis = zero_space(P6, IV3, 6, 12)
    assert len(basis) == 4


def test_zero_space_definite_case():
    basis = zero_space(P(-1, 0, 1), IV11, 4, 8)
    want = [P(-1, 0, 1), P(-1, 0, 0, 0, 1)]
    got_vecs = [[f[i] for i in range(5)] for f in basis]
    want_vecs = [[f[i] for i in range(5)] for f in want]
    assert span_rref(got_vecs) == span_rref(want_vecs)


def test_zero_space_degree_two():
    basis = zero_space(P(-1, 0, 1), IV11, 2, 6)
    assert len(basis) == 1  # multiples of (x-a)(x-b), a function of x^2 here
    basis2 = zero_space(P(0, -1, 0, 0, 0, 1), Interval(-1, 1), 2, 10)
    assert len(basis2) == 0  # x^5 - x has no degree-2 factor class


def test_kernel_stabilization_error():
    with pytest.raises(KernelNotStabilizedError):
        zero_space(P(-1, 0, 1), IV11, 4, 0)


def test_negative_moment_bound_is_rejected():
    with pytest.raises(PreconditionError):
        zero_space(P(-1, 0, 1), IV11, 4, -1)
    with pytest.raises(PreconditionError):
        in_zero_space_of(P(-1, 0, 1), P(0, -1, 0, 1), IV11, -1)
    with pytest.raises(PreconditionError):
        double_moments_vanish(P(-1, 0, 1), P(0, -1, 0, 1), IV11, -1)
    with pytest.raises(PreconditionError):
        moment_matrix(P(-1, 0, 1), IV11, 4, -1)


def test_moment_matrix_shape():
    mm = moment_matrix(P(-1, 0, 1), IV11, 4, 8)
    assert len(mm.M) == 9 and all(len(row) == 3 for row in mm.M)
    assert len(pspace_basis(IV11, 4)) == 3


def test_composition_sum_space_examples():
    cs = composition_sum_space(P6, IV3, 6)
    assert len(cs) == 4
    cs2 = composition_sum_space(P(-1, 0, 1), IV11, 4)
    zs2 = zero_space(P(-1, 0, 1), IV11, 4, 8)
    assert cs2 == zs2
    # with one factor class of degree 2 and d < 4, only the first power fits
    cs3 = composition_sum_space(P(-1, 0, 1), IV11, 3)
    assert len(cs3) == 1


def test_easy_direction_always():
    # every composition-span member kills all moments
    for Pp, iv, d in ((P6, IV3, 10), (P10, IV11, 10)):
        for f in composition_sum_space(Pp, iv, d):
            assert all(not moment(Pp, f, iv, i) for i in range(12))


def test_match_examples():
    assert zero_space_matches_compositions(P6, IV3, 8, 16)
    assert zero_space_matches_compositions(P10, IV11, 8, 16)
    assert zero_space_matches_compositions(P(-1, 0, 1), IV11, 6, 12)


def test_dim_formula_values():
    assert chebyshev_zero_space_dim(6) == 4
    assert chebyshev_zero_space_dim(10) == 7
    # floor arithmetic throughout: the degree-0 boundary value is 0
    assert chebyshev_zero_space_dim(0) == 0


def test_stabilization_monotone():
    dims = []
    for imax in (4, 8, 12, 16):
        try:
            dims.append(len(zero_space(P6, IV3, 8, imax)))
        except KernelNotStabilizedError:
            dims.append(None)
    solid = [d for d in dims if d is not None]
    assert solid == sorted(solid, reverse=True) or len(set(solid)) == 1


def test_membership_certificate():
    assert in_zero_space_of(P6, chebyshev(3), IV3, 20)
    assert not in_zero_space_of(P(-1, 0, 1), P(0, -1, 0, 1), IV11, 6)


def test_structure_report_cc_pair():
    W = P(0, 0, 1)
    Pc = P(1, -2).compose(W) - Poly.constant(rational(-1))
    Qc = P(0, -1, 1).compose(W)
    rep = parametric_structure_report(Pc, Qc, IV11, 8, 10)
    assert rep.cc is not None
    assert rep.truncated_parametric_center
    assert rep.double_moments
    assert rep.consistent


def test_structure_report_non_center():
    rep = parametric_structure_report(P(-1, 0, 1), P(0, -1, 0, 1), IV11, 8, 10)
    assert rep.cc is None
    assert not rep.truncated_parametric_center
    assert rep.consistent  # implication is vacuous


def test_structure_report_chebyshev_pair():
    # P = 1 + T6 = 2 T3^2 is itself a polynomial in T3, so the pair has a
    # composition witness through the degree-3 class
    rep = parametric_structure_report(P6, chebyshev(3), IV3, 6, 12)
    assert rep.cc is not None
    assert rep.cc.W == P(0, rational(-3, 4), 0, 1)
    assert rep.double_moments
    assert not rep.P_definite
    assert rep.Q_definite
    assert rep.P_in_Z_of_Q and rep.Q_in_Z_of_P
    assert rep.consistent


# -- the two-elimination zero space, kept as the reference ------------------------


def ref_zero_space(Pb, iv, d, I_max):
    """Zero space as it was computed before the single elimination: the
    kernels of the cut and of the probe moment matrix, each eliminated in
    full, compared by dimension.  On a raise the probe's kernel dimension
    stands where zero_space reports the composition span's."""
    basis = pspace_basis(iv, d)
    derivs = [B.derivative() for B in basis]
    rows = []
    power = Poly.one()
    for _ in range(I_max + 6):
        rows.append([definite_integral(power * dq, iv) for dq in derivs])
        power = power * Pb

    def kernel_polys(vecs):
        out = []
        for v in vecs:
            acc = Poly.zero()
            for c, B in zip(v, basis):
                acc = acc + B.scale(c)
            out.append(acc)
        return out

    cut = kernel_polys(kernel_basis(rows[: I_max + 1], len(basis)))
    probe = kernel_polys(kernel_basis(rows, len(basis)))
    if len(cut) != len(probe):
        raise KernelNotStabilizedError(len(cut), len(probe), I_max)
    vectors = span_rref([[f[i] for i in range(d + 1)] for f in probe])
    return [Poly(r) for r in vectors]


R3 = sqrtD(3)
RATIONAL_INTERVALS = [Interval(-1, 1), Interval(0, 1), Interval(rational(-1, 2), 2)]
SURD_INTERVALS = [IV3, Interval(0, R3), Interval(1, rational(1) + R3)]


def small_polys(surd, min_len, max_len):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(
        lambda x: rational(x.numerator, x.denominator)
    )
    if surd:
        coeff = st.tuples(coeff, coeff).map(lambda t: t[0] + t[1] * R3)
    return st.lists(coeff, min_size=min_len, max_size=max_len).map(Poly)


@st.composite
def zero_space_cases(draw, surd):
    """P vanishing at both endpoints: half composite, S(W) - S(W(a)) with
    W(a) = W(b) and deg W >= 2, half (x-a)(x-b) R for a random R."""
    iv = draw(st.sampled_from(SURD_INTERVALS if surd else RATIONAL_INTERVALS))
    quad = Poly([iv.a * iv.b, -(iv.a + iv.b), 1])
    if draw(st.booleans()):
        V = draw(small_polys(surd, 1, 2))
        W = quad * (V if not V.is_zero() else Poly.one())
        S = draw(small_polys(surd, 2, 3))
        if S.degree is None or S.degree < 2:
            S = S + Poly.monomial(2)
        Pb = S.compose(W) - Poly.constant(S.eval(W.eval(iv.a)))
    else:
        R = draw(small_polys(surd, 1, 4))
        Pb = quad * (R if not R.is_zero() else Poly.one())
    d = draw(st.integers(4, 10))
    I_max = draw(st.integers(0, 2 * d))
    return Pb, iv, d, I_max


def outcome(fn, *args):
    try:
        return "basis", fn(*args)
    except KernelNotStabilizedError as exc:
        return "not stabilized", (exc.dim_at_imax, exc.i_max)


@pytest.mark.parametrize("surd", [False, True], ids=["Q", "Q(sqrt3)"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_single_elimination_matches_two_kernels(surd, data):
    Pb, iv, d, I_max = data.draw(zero_space_cases(surd))
    assert outcome(zero_space, Pb, iv, d, I_max) == outcome(ref_zero_space, Pb, iv, d, I_max)


def test_single_elimination_matches_two_kernels_on_fixed_cases():
    cases = [
        (P(-1, 0, 1), IV11, 4, 0),
        (P6, IV3, 8, 4),
        (P6, IV3, 10, 20),
        (P10, IV11, 10, 3),
        (P10, IV11, 8, 16),
    ]
    kinds = []
    for case in cases:
        got = outcome(zero_space, *case)
        assert got == outcome(ref_zero_space, *case)
        kinds.append(got[0])
    assert "basis" in kinds and "not stabilized" in kinds


def test_report_reads_double_moments_off_the_two_zero_space_tests(monkeypatch):
    import abellab.moments as moments

    W = P(0, 0, 1)
    pairs = [
        (P(1, -2).compose(W) - Poly.constant(rational(-1)), P(0, -1, 1).compose(W), IV11),
        (P(-1, 0, 1), P(0, -1, 0, 1), IV11),
        (P6, chebyshev(3), IV3),
        (P(-1, 0, 1), P(-1, 0, 1) * P(0, 1), IV11),
        # T2 + T3 lies in Z(T6 + 1), but T6 + 1 is not in C[T2 + T3]
        (P6, chebyshev(2) + chebyshev(3) - Poly.constant(rational(1, 2)), IV3),
    ]
    calls = []
    ladder = moments._moments_upto

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    monkeypatch.setattr(moments, "_moments_upto", counted)
    seen = set()
    for Pp, Q, iv in pairs:
        calls.clear()
        rep = parametric_structure_report(Pp, Q, iv, 6, 8)
        assert len(calls) <= 2
        assert rep.double_moments == (rep.P_in_Z_of_Q and rep.Q_in_Z_of_P)
        by_moment = all(moment(Pp, Q, iv, i) == 0 and moment(Q, Pp, iv, i) == 0 for i in range(9))
        assert rep.double_moments == by_moment == double_moments_vanish(Pp, Q, iv, 8)
        seen.add((rep.P_in_Z_of_Q, rep.Q_in_Z_of_P))
    assert seen == {(True, True), (False, False), (False, True)}


# -- the composition-span certificate -------------------------------------------

GRID_BASES = [
    (P6, IV3),
    (P10, IV11),
    (P(-1, 0, 1), IV11),
    (P(0, -1, 0, 0, 0, 1), IV11),
    (P(0, 1, 2).compose(P(0, -1, 0, 1)), IV11),  # S(W), W = x^3 - x
]


@pytest.fixture
def row_bounds(monkeypatch):
    """The moment bound of every moment_matrix call made by zero_space."""
    import abellab.moments as moments

    bounds = []
    formed = moments.moment_matrix

    def counted(Pb, iv, d, I_max):
        bounds.append(I_max)
        return formed(Pb, iv, d, I_max)

    monkeypatch.setattr(moments, "moment_matrix", counted)
    return bounds


def test_certified_zero_space_matches_the_probe_reference(row_bounds):
    grid = [
        (Pb, iv, d, I_max)
        for Pb, iv in GRID_BASES
        for d in range(2, 11)
        for I_max in sorted({0, 1, 2, d, 2 * d})
    ]
    # x^5 - x: the rows i <= I_max = codim S still have rank codim S - 1
    grid += [(P(0, -1, 0, 0, 0, 1), IV11, 6, 4), (P(0, -1, 0, 0, 0, 1), IV11, 8, 6)]
    branches = set()
    for Pb, iv, d, I_max in grid:
        row_bounds.clear()
        got = outcome(zero_space, Pb, iv, d, I_max)
        # one block of rows, i <= I_max, whether the kernel is returned or refused
        assert row_bounds == [I_max]
        assert got == outcome(ref_zero_space, Pb, iv, d, I_max)
        branches.add(got[0])
    assert branches == {"basis", "not stabilized"}


def test_certificate_needs_no_probe_rows(row_bounds):
    # the rows i <= I_max are formed once, and the rows i <= r = codim S
    # already have rank r, so fewer rows would certify the same kernel
    for Pb, iv, degrees in ((P6, IV3, range(6, 13)), (P10, IV11, range(6, 10))):
        for d in degrees:
            row_bounds.clear()
            basis = zero_space(Pb, iv, d, 2 * d)
            assert row_bounds == [2 * d]
            r = (d - 1) - len(basis)
            assert rank(moment_matrix(Pb, iv, d, r).M) == r


def test_a_span_outside_the_kernel_is_never_accepted(monkeypatch):
    import abellab.moments as moments

    # claim the whole endpoint-vanishing space as the composition span
    monkeypatch.setattr(moments, "composition_sum_space", lambda Pb, iv, d: pspace_basis(iv, d))
    with pytest.raises(AssertionError):
        zero_space(P(-1, 0, 1), IV11, 4, 8)


def test_a_refusal_reports_the_composition_span_dimension():
    refused = 0
    for Pb, iv in GRID_BASES:
        for d in range(2, 11):
            try:
                zero_space(Pb, iv, d, 1)
            except KernelNotStabilizedError as exc:
                refused += 1
                assert exc.dim_of_span == len(composition_sum_space(Pb, iv, d))
                assert exc.dim_at_imax > exc.dim_of_span and exc.i_max == 1
    assert refused


def test_a_factor_bound_error_is_not_swallowed(monkeypatch):
    import abellab.moments as moments

    def too_many_classes(Pb, iv, d):
        raise FactorBoundError("found 4 indecomposable factor classes")

    monkeypatch.setattr(moments, "composition_sum_space", too_many_classes)
    with pytest.raises(FactorBoundError):
        zero_space(P(-1, 0, 1), IV11, 4, 8)


def test_zero_polynomial_has_the_whole_space():
    with pytest.raises(PreconditionError):
        composition_sum_space(Poly.zero(), IV11, 4)
    basis = zero_space(Poly.zero(), IV11, 4, 3)
    assert len(basis) == 3
    assert basis == ref_zero_space(Poly.zero(), IV11, 4, 3)


def test_report_computes_the_factor_classes_of_P_once(monkeypatch):
    import abellab.decomp as decomp

    calls = []
    enumerate_classes = decomp.right_factors

    def counted(F, iv):
        calls.append(F)
        return enumerate_classes(F, iv)

    monkeypatch.setattr(decomp, "right_factors", counted)
    rep = parametric_structure_report(P6, chebyshev(3), IV3, 6, 12)
    assert calls == [P6, chebyshev(3)]
    assert rep.cc is not None and not rep.P_definite and rep.Q_definite


def test_the_comparison_computes_the_composition_span_once(monkeypatch):
    import abellab.moments as moments

    calls = []
    span = moments.composition_sum_space

    def counted(Pb, iv, d):
        calls.append(d)
        return span(Pb, iv, d)

    monkeypatch.setattr(moments, "composition_sum_space", counted)
    assert zero_space_matches_compositions(P6, IV3, 8, 16)
    assert calls == [8]
    with pytest.raises(KernelNotStabilizedError):
        zero_space_matches_compositions(P6, IV3, 8, 1)
    assert calls == [8, 8]
