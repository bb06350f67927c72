"""Exact real trigonometric polynomials and their moment integrals.

A :class:`TrigPoly` f = a0 + sum_k (c_k cos kt + s_k sin kt) is kept in
exponential form: with z = e^(it) and N the top frequency present,
z^N f = sum_{m=0..2N} (R_m + i I_m) z^m for two :class:`Poly` R, I over
Q(sqrt D) with R_N = a0, R_(N+-k) = c_k/2, I_(N-+k) = +-s_k/2.  (N, R, I)
is canonical; equality compares it.  A product is four Kronecker Poly
products, R1 R2 - I1 I2 and R1 I2 + I1 R2, then N drops to the top
frequency left.  ``a0``, ``cos_coeffs`` and ``sin_coeffs`` are read-only
views built on first use.  An integral over [0, 2*pi] is 2*pi R_N, an
exact multiple of pi (:class:`PiScalar`), never a float; a moment
int Q^i d(P^j) reads only that coefficient of the product, a dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .errors import PreconditionError
from .field import ZERO, Scalar, _join
from .poly import Poly, _raw


class TrigPoly:
    """a0 + sum_k (cos_coeffs[k] cos(k t) + sin_coeffs[k] sin(k t))."""

    __slots__ = ("N", "R", "I", "_views")

    def __init__(self, a0=0, cos_coeffs=None, sin_coeffs=None):
        cc = {int(k): Scalar.coerce(v) for k, v in (cos_coeffs or {}).items()}
        ss = {int(k): Scalar.coerce(v) for k, v in (sin_coeffs or {}).items()}
        if any(k < 1 for k in cc) or any(k < 1 for k in ss):
            raise ValueError("frequencies must be positive integers")
        N = max([k for k, v in cc.items() if v] + [k for k, v in ss.items() if v], default=0)
        R, I = [ZERO] * (2 * N + 1), [ZERO] * (2 * N + 1)
        R[N] = Scalar.coerce(a0)
        for k, v in cc.items():
            if v:
                R[N + k] = R[N - k] = v / 2
        for k, v in ss.items():
            if v:
                I[N - k], I[N + k] = v / 2, -v / 2
        self.N, self.R, self.I, self._views = N, Poly(R), Poly(I), None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def constant(c) -> "TrigPoly":
        return TrigPoly(a0=c)

    @staticmethod
    def cos(k: int, c=1) -> "TrigPoly":
        return TrigPoly(a0=c) if k == 0 else TrigPoly(cos_coeffs={k: c})

    @staticmethod
    def sin(k: int, c=1) -> "TrigPoly":
        return TrigPoly() if k == 0 else TrigPoly(sin_coeffs={k: c})

    def _tables(self):
        if self._views is None:
            N, R, I = self.N, self.R, self.I
            cc = {k: R[N + k] * 2 for k in range(1, N + 1) if R[N + k]}
            ss = {k: I[N + k] * -2 for k in range(1, N + 1) if I[N + k]}
            self._views = (R[N], MappingProxyType(cc), MappingProxyType(ss))
        return self._views

    a0 = property(lambda self: self._tables()[0], doc="The constant term.")
    cos_coeffs = property(lambda self: self._tables()[1], doc="Frequency -> cosine coefficient.")
    sin_coeffs = property(lambda self: self._tables()[2], doc="Frequency -> sine coefficient.")

    # -- ring structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.R) or bool(self.I)

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.N == other.N and self.R == other.R and self.I == other.I

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(other)
        N = max(self.N, other.N)
        a, b = N - self.N, N - other.N
        return _trig(N, self.R.shift(a) + other.R.shift(b), self.I.shift(a) + other.I.shift(b))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _trig(self.N, -self.R, -self.I)

    def scale(self, c) -> "TrigPoly":
        return _trig(self.N, self.R.scale(c), self.I.scale(c))

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        return trig_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TrigPoly":
        if n < 0:
            raise ValueError("negative power")
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def frequency_support(self):
        """Frequencies k >= 1 with a nonzero cosine or sine coefficient."""
        return set(self.cos_coeffs) | set(self.sin_coeffs)

    def __repr__(self):
        return "TrigPoly(a0=%s, support=%s)" % (self.a0, sorted(self.frequency_support()))


def _trig(N: int, R: Poly, I: Poly) -> TrigPoly:
    """The TrigPoly z^-N (R + iI) in canonical form: N lowered to the top
    frequency present (the entries dropped below it are zero by symmetry)."""
    cut = N - max(max(len(R.num), len(I.num)) - 1 - N, 0)
    if cut:
        R, I = (_raw(p.num[cut:], p.irr[cut:], p.den, p.D) if p else p for p in (R, I))
    f = object.__new__(TrigPoly)
    f.N, f.R, f.I, f._views = N - cut, R, I, None
    return f


def _coeff(f: Poly, g: Poly, n: int) -> Scalar:
    """Coefficient n of the product f g, as one dot product."""
    D = _join(f.D, g.D)
    ms = range(max(0, n - len(g.num) + 1), min(len(f.num), n + 1))

    def dot(u, v):
        return sum(u[m] * v[n - m] for m in ms) if u and v else 0

    r = dot(f.num, g.num) + (D * dot(f.irr, g.irr) if f.irr and g.irr else 0)
    s, den = dot(f.irr, g.num) + dot(f.num, g.irr), f.den * g.den
    return Scalar(Fraction(r, den), Fraction(s, den), D)


def trig_mul(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Exact product (R1 + iI1)(R2 + iI2), by four Kronecker Poly products."""
    R = f.R * g.R - f.I * g.I
    return _trig(f.N + g.N, R, f.R * g.I + f.I * g.R)


def trig_diff(f: TrigPoly) -> TrigPoly:
    """Termwise derivative in the angle: i (m - N) (R_m + i I_m) at z^m."""
    dR, dI = (p.derivative().shift(1) - p.scale(f.N) for p in (f.R, f.I))
    return _trig(f.N, -dI, dR)


@dataclass(frozen=True)
class PiScalar:
    """An exact multiple of pi; every full-period integral lands here."""

    coeff: Scalar

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            return self.coeff == other.coeff
        if other == 0:
            return not self.coeff
        return NotImplemented

    def __str__(self):
        if not self.coeff:
            return "0"
        return "%s*pi" % self.coeff


def trig_integral(f: TrigPoly) -> PiScalar:
    """Exact integral over one full period: 2*pi times the constant term."""
    return PiScalar(f.R[f.N] * 2)


def _integral_of_product(f: TrigPoly, g: TrigPoly) -> PiScalar:
    """trig_integral(f * g) from the one coefficient of the product it reads."""
    n = f.N + g.N
    return PiScalar((_coeff(f.R, g.R, n) - _coeff(f.I, g.I, n)) * 2)


def trig_moment(P: TrigPoly, Q: TrigPoly, i: int, j: int) -> PiScalar:
    """Exact int_0^{2pi} Q^i d(P^j)."""
    if i < 0 or j < 0:
        raise PreconditionError("i and j must be nonnegative")
    return _integral_of_product(Q**i, trig_diff(P**j))


def build_family(d1: int, d2: int, p_spec: dict, q_spec: dict):
    """Construct the coprime-frequency family pair.

    P has cosine/sine coefficients (a_k, b_k) at frequencies k*d1 with
    a_k = b_k = 0 whenever d2 | k, and Q has (c_l, f_l) at l*d2 with
    c_l = f_l = 0 whenever d1 | l, for indices k, l >= 1; violations are
    rejected by index.
    """
    if d1 <= 1 or d2 <= 1:
        raise PreconditionError("frequency multipliers must exceed 1")
    if gcd(d1, d2) != 1:
        raise PreconditionError("frequencies not coprime")

    def build(spec, d, excluded_by, name):
        cc, ss = {}, {}
        for k, (ak, bk) in spec.items():
            k, ak, bk = int(k), Scalar.coerce(ak), Scalar.coerce(bk)
            if (ak or bk) and k < 1:
                raise PreconditionError("%s index %d must be positive" % (name, k))
            if (ak or bk) and k % excluded_by == 0:
                raise PreconditionError(
                    "%s index %d violates the divisibility exclusion" % (name, k)
                )
            if ak:
                cc[k * d] = ak
            if bk:
                ss[k * d] = bk
        return TrigPoly(0, cc, ss)

    return build(p_spec, d1, d2, "P"), build(q_spec, d2, d1, "Q")


def modify_family(Q: TrigPoly, d2: int, R: Poly) -> TrigPoly:
    """Q + R(cos(d2*t)), evaluated exactly by Horner in the trig ring."""
    base = TrigPoly.cos(d2)
    acc = TrigPoly.zero()
    for c in reversed(R.coeffs):
        acc = acc * base + TrigPoly.constant(c)
    return Q + acc


def _ladder(f: TrigPoly):
    """power(k) = f^k, each power built once, from the one before it."""
    pows = [_ONE]

    def power(k):
        while len(pows) <= k:
            pows.append(pows[-1] * f)
        return pows[k]

    return power


def first_moments_vanish(P: TrigPoly, Q: TrigPoly, i_max: int) -> bool:
    """Do int Q^i dP and int P^i dQ both vanish for every 0 <= i <= i_max?"""
    dP, dQ = trig_diff(P), trig_diff(Q)
    Pi, Qi = _ladder(P), _ladder(Q)
    return not any(
        _integral_of_product(Qi(i), dP) or _integral_of_product(Pi(i), dQ)
        for i in range(i_max + 1)
    )


def non_cc_certificate(P: TrigPoly, Q: TrigPoly, i_max: int, j_max: int):
    """First (i, j) in the (i+j, i) order with a nonzero mixed moment.

    A nonzero value certifies that P and Q admit no common composition
    factor; None is inconclusive, not a proof of the condition.
    """
    if i_max < 1 or j_max < 1:
        raise PreconditionError("i_max and j_max must be at least 1")
    Qi, Pj, dPj = _ladder(Q), _ladder(P), {}
    for s in range(2, i_max + j_max + 1):
        for i, j in ((i, s - i) for i in range(max(1, s - j_max), min(i_max, s - 1) + 1)):
            if j not in dPj:
                dPj[j] = trig_diff(Pj(j))
            val = _integral_of_product(Qi(i), dPj[j])
            if val:
                return (i, j, val)
    return None


_ONE = TrigPoly(1)
