"""Moment functionals int P^i Q' and their exact zero spaces.

The zero space of P at degree d collects the polynomials Q of degree at
most d, vanishing at both endpoints, that kill every moment of P.  It is
computed two independent ways: as the kernel of an exact moment matrix,
returned only when the composition span inside it certifies that no
further moment would shrink it, and as the span of compositions with P's
indecomposable factor classes; comparing the two is itself one of the
verification steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .center import EPS_ON_Q, FORWARD, parametric_table
from .decomp import _check_closed_pair, _common_factor, indecomposable_factors, is_definite
from .errors import KernelNotStabilizedError, PreconditionError
from .field import Scalar
from .linalg import echelon_kernel, rref, span_rref
from .poly import Interval, PCPair, Poly, definite_integral


def moment(P: Poly, Q: Poly, iv: Interval, i: int) -> Scalar:
    """Exact int_a^b P^i Q'."""
    if i < 0:
        raise PreconditionError("moment index must be nonnegative")
    return definite_integral((P**i) * Q.derivative(), iv)


def _moments_upto(P: Poly, qs, iv: Interval, n: int):
    """Rows [int P^i q for q in qs] for i = 0..n, sharing one power ladder."""
    if n < 0:
        raise PreconditionError("moment bound must be nonnegative, got %d" % n)
    rows = []
    power = Poly.one()
    for i in range(n + 1):
        rows.append([definite_integral(power * q, iv) for q in qs])
        if i < n:
            power = power * P
    return rows


def double_moments_vanish(P: Poly, Q: Poly, iv: Interval, N: int) -> bool:
    """Do int P^i Q' and int Q^j P' vanish for all i, j <= N?"""
    return in_zero_space_of(P, Q, iv, N) and in_zero_space_of(Q, P, iv, N)


def pspace_basis(iv: Interval, d: int):
    """Deterministic basis of {Q : deg Q <= d, Q(a) = Q(b) = 0}:
    (x-a)(x-b) x^n for n = 0..d-2."""
    if d < 2:
        return []
    a, b = iv.a, iv.b
    quad = Poly([a * b, -(a + b), 1])
    return [quad.shift(n) for n in range(d - 1)]


@dataclass(frozen=True)
class MomentMatrix:
    """Rows = moment index, columns = the fixed endpoint-vanishing basis."""

    I_max: int
    M: list
    basis: tuple


def moment_matrix(P: Poly, iv: Interval, d: int, I_max: int) -> MomentMatrix:
    basis = pspace_basis(iv, d)
    M = _moments_upto(P, [B.derivative() for B in basis], iv, I_max)
    return MomentMatrix(I_max=I_max, M=M, basis=tuple(basis))


def _combination(coeffs, polys) -> Poly:
    acc = Poly.zero()
    for c, f in zip(coeffs, polys):
        if c:
            acc = acc + f.scale(c)
    return acc


def _canonical_span(polys, d: int):
    """Canonical RREF basis (as Polys) of the span, in ascending-power coords."""
    vectors = [[f[i] for i in range(d + 1)] for f in polys]
    rows = span_rref(vectors)
    return [Poly(r) for r in rows]


def zero_space(P: Poly, iv: Interval, d: int, I_max: int):
    """Exact basis of {Q in P_d with all moments of P against Q zero}: the
    kernel of the moment rows i <= I_max, returned only when certified.

    The certificate is a sandwich: the composition span S lies in the zero
    space, which lies in the kernel of every block of moment rows, so when
    the rows have rank r = codim S their kernel is S for every larger
    block too.  Below rank r the kernel is strictly larger than S, and a
    KernelNotStabilizedError reports both dimensions.  Every moment of the
    zero polynomial vanishes, so there S counts as the whole space: r = 0.
    """
    _check_bounds(d, I_max)
    dim_S = len(composition_sum_space(P, iv, d)) if P else d - 1
    return _certified_kernel(P, iv, d, I_max, dim_S)


def _check_bounds(d: int, I_max: int):
    if d < 2:
        raise PreconditionError("d must be at least 2")
    if I_max < 0:
        raise PreconditionError("I_max must be nonnegative")


def _certified_kernel(P: Poly, iv: Interval, d: int, I_max: int, dim_S: int):
    """``zero_space``'s certificate, given the dimension of the span S."""
    r = (d - 1) - dim_S
    mm = moment_matrix(P, iv, d, I_max)
    echelon, pivots = rref(mm.M)
    n = len(mm.basis)
    if len(pivots) > r:
        raise AssertionError("composition span is not inside the moment kernel")
    if len(pivots) < r:
        raise KernelNotStabilizedError(n - len(pivots), n - r, I_max)
    kernel = echelon_kernel(echelon, pivots, n)
    return _canonical_span([_combination(v, mm.basis) for v in kernel], d)


def composition_sum_space(P: Poly, iv: Interval, d: int):
    """Basis of { sum_j S_j(W_j) : deg <= d } with endpoint values zero,
    where W_j ranges over P's indecomposable factor classes.

    Spanned by W_j^t - W_j(a)^t for t*deg(W_j) <= d, reduced to a
    canonical basis.
    """
    if P.eval(iv.a) or P.eval(iv.b):
        raise PreconditionError("P must vanish at both endpoints")
    spanning = []
    for W in indecomposable_factors(P, iv).factors:
        wa = W.eval(iv.a)
        power = Poly.one()
        value = Scalar.coerce(1)
        t = 1
        while t * W.degree <= d:
            power = power * W
            value = value * wa
            spanning.append(power - Poly.constant(value))
            t += 1
    return _canonical_span(spanning, d)


def zero_space_matches_compositions(P: Poly, iv: Interval, d: int, I_max: int) -> bool:
    """Do the moment kernel and the composition span agree exactly?"""
    _check_bounds(d, I_max)
    cs = composition_sum_space(P, iv, d)
    return _certified_kernel(P, iv, d, I_max, len(cs)) == cs


def chebyshev_zero_space_dim(d: int) -> int:
    """Closed-form dimension count for the degree-6 Chebyshev zero space:
    [(d+1)/2] + [(d+1)/3] - [(d+1)/6]."""
    if d < 0:
        raise PreconditionError("d must be nonnegative")
    return (d + 1) // 2 + (d + 1) // 3 - (d + 1) // 6


def in_zero_space_of(base: Poly, candidate: Poly, iv: Interval, I_max: int) -> bool:
    """Truncated certificate that candidate lies in the zero space of base:
    int base^i candidate' = 0 for all i <= I_max."""
    return not any(row[0] for row in _moments_upto(base, [candidate.derivative()], iv, I_max))


@dataclass(frozen=True)
class ParametricStructureReport:
    """Exact findings for one primitive pair, with the classification
    consistency flag: a truncated parametric center without a composition
    witness must show both polynomials non-definite and mutually inside
    each other's zero space."""

    cc: object
    truncated_parametric_center: bool
    double_moments: bool
    P_definite: bool
    Q_definite: bool
    P_in_Z_of_Q: bool
    Q_in_Z_of_P: bool
    K: int
    N: int
    consistent: bool


def parametric_structure_report(
    P: Poly, Q: Poly, iv: Interval, K: int, N: int
) -> ParametricStructureReport:
    PCPair(P, Q, iv)
    p = P.derivative()
    q = Q.derivative()
    _check_closed_pair(P, Q, iv)
    p_classes = indecomposable_factors(P, iv)
    witness = _common_factor(P, Q, p_classes)
    table = parametric_table(p, q, iv, K, EPS_ON_Q, FORWARD)
    tpc = table.is_zero()
    p_def = p_classes.s == 1
    q_def = is_definite(Q, iv)
    p_in_zq = in_zero_space_of(Q, P, iv, N)
    q_in_zp = in_zero_space_of(P, Q, iv, N)
    consistent = True
    if tpc and witness is None:
        consistent = (not p_def) and (not q_def) and p_in_zq and q_in_zp
    return ParametricStructureReport(
        cc=witness,
        truncated_parametric_center=tpc,
        double_moments=p_in_zq and q_in_zp,
        P_definite=p_def,
        Q_definite=q_def,
        P_in_Z_of_Q=p_in_zq,
        Q_in_Z_of_P=q_in_zp,
        K=K,
        N=N,
        consistent=consistent,
    )
