"""Dense univariate polynomials over the exact scalar field.

A polynomial is stored as integers over one common denominator:

* ``num`` -- the numerators of the rational parts, ascending by power;
* ``irr`` -- the numerators of the sqrt(D) parts, the same length as
  ``num``, or empty for a rational polynomial;
* ``den`` -- the positive common denominator;
* ``D``   -- the squarefree radicand, or None for a rational polynomial.

Coefficient i is (num[i] + irr[i]*sqrt(D)) / den.  The form is canonical:
no trailing zero coefficient, gcd(den, num..., irr...) = 1, and ``irr``
empty exactly when every coefficient is rational.  The zero polynomial has
empty tuples; its degree is reported as ``None`` (a distinct marker, never
-1, so degree arithmetic cannot silently work on it).  Equality and hashing
compare the canonical integers.  ``coeffs``, the tuple of :class:`Scalar`
coefficients, is built on first use and cached.

Products use Kronecker substitution: each numerator vector is packed into
one signed big integer at a stride wide enough for every coefficient of the
result, the two integers are multiplied once (CPython multiplies large
integers by Karatsuba), and the signed digits are read back.  Over Q(sqrt D)
a product takes three such multiplications, AC, BE and (A+B)(C+E).  Sums,
scaling, derivatives, primitives, evaluation and composition also work on
the integers; of the arithmetic, only division goes through Scalars.
Everything is immutable and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ConstantFactorError, PreconditionError
from .field import ZERO, Scalar, _join


def _split(c: Scalar):
    """(p, t, q) with c = (p + t*sqrt(D)) / q and q > 0."""
    r, e = c.rat, c.irr
    if not e:
        return r.numerator, 0, r.denominator
    q = lcm(r.denominator, e.denominator)
    return r.numerator * (q // r.denominator), e.numerator * (q // e.denominator), q


def _kmul(a, b):
    """The integer product of two coefficient vectors, by one big-int multiply.

    Each vector is packed as sum (c_i + h) 2^(s i) - sum h 2^(s i) with
    h = 2^(s-1), i.e. offset binary in s-bit slots, where s bounds every
    coefficient of the product with room for its sign.  Adding the offset
    back to the product makes every slot a nonnegative digit below 2^s, so
    the result is read off the bytes with no carries.
    """
    bound = max(max(map(abs, a)), 1) * max(max(map(abs, b)), 1) * min(len(a), len(b))
    w = bound.bit_length() // 8 + 1  # slot width in bytes, 8w > bit length
    half = 1 << (8 * w - 1)
    offset = half.to_bytes(w, "little")
    fb = int.from_bytes
    A = fb(b"".join([(c + half).to_bytes(w, "little") for c in a]), "little")
    B = fb(b"".join([(c + half).to_bytes(w, "little") for c in b]), "little")
    A -= fb(offset * len(a), "little")
    B -= fb(offset * len(b), "little")
    n = len(a) + len(b) - 1
    data = (A * B + fb(offset * n, "little")).to_bytes(w * n, "little")
    return [fb(data[i : i + w], "little") - half for i in range(0, w * n, w)]


def _mul_parts(a, b, c, e, D):
    """(A + B sqrt D)(C + E sqrt D) on numerator vectors; an empty sqrt(D)
    part means a rational factor.  Both parts of a factor share a length."""
    if not b and not e:
        return _kmul(a, c), ()
    if not b:
        return _kmul(a, c), _kmul(a, e)
    if not e:
        return _kmul(a, c), _kmul(b, c)
    ac = _kmul(a, c)
    be = _kmul(b, e)
    mid = _kmul([x + y for x, y in zip(a, b)], [x + y for x, y in zip(c, e)])
    return [x + D * y for x, y in zip(ac, be)], [m - x - y for m, x, y in zip(mid, ac, be)]


def _horner(num, irr, p, t, q, D):
    """(r, s, q^(n-1)) with f(x) = (r + s sqrt D) / (den q^(n-1)) at
    x = (p + t sqrt D) / q, for f of length n >= 1 over den.

    Homogeneous Horner: r + s sqrt D = sum_i f_i p^i q^(n-1-i), all in
    integers."""
    n = len(num)
    tD = t * D if t else 0
    irr = irr or (0,) * n
    r, s, qk = num[-1], irr[-1], 1
    for i in range(n - 2, -1, -1):
        qk *= q
        r, s = r * p + s * tD + num[i] * qk, r * t + s * p + irr[i] * qk
    return r, s, qk


def _raw(num, irr, den, D) -> "Poly":
    """A Poly from parts already in canonical form."""
    f = object.__new__(Poly)
    f.num, f.irr, f.den, f.D, f._coeffs = num, irr, den, D, None
    return f


def _poly(num, irr, den, D) -> "Poly":
    """A canonical Poly from integer numerator lists over ``den`` > 0:
    trims trailing zeros, drops an all-zero sqrt(D) part and divides out
    the common gcd."""
    n = len(num)
    if irr:
        while n and not num[n - 1] and not irr[n - 1]:
            n -= 1
        irr = irr[:n]
        if not any(irr):
            irr = ()
    else:
        while n and not num[n - 1]:
            n -= 1
    if not irr:
        D = None
    if not n:
        return _P_ZERO
    num = num[:n]
    g = gcd(den, *num, *irr)
    if g != 1:
        num = [x // g for x in num]
        irr = [x // g for x in irr]
        den //= g
    return _raw(tuple(num), tuple(irr), den, D)


class Poly:
    """Dense univariate polynomial; index = power."""

    __slots__ = ("num", "irr", "den", "D", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [Scalar.coerce(c) for c in coeffs]
        D = None
        for c in cs:
            D = _join(D, c.D)
        den = lcm(1, *(c.rat.denominator for c in cs), *(c.irr.denominator for c in cs))
        num = [c.rat.numerator * (den // c.rat.denominator) for c in cs]
        irr = [c.irr.numerator * (den // c.irr.denominator) for c in cs] if D else ()
        f = _poly(num, irr, den, D)
        self.num, self.irr, self.den, self.D, self._coeffs = f.num, f.irr, f.den, f.D, None

    # -- basics ---------------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def x() -> "Poly":
        return _P_X

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(power: int) -> "Poly":
        return Poly([0] * power + [1])

    @property
    def coeffs(self):
        """The coefficients as Scalars, ascending by power (built once)."""
        cs = self._coeffs
        if cs is None:
            den, D = self.den, self.D
            if self.irr:
                cs = tuple(
                    Scalar(Fraction(x, den), Fraction(y, den), D) for x, y in zip(self.num, self.irr)
                )
            else:
                cs = tuple(Scalar(Fraction(x, den)) for x in self.num)
            self._coeffs = cs
        return cs

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.num) else ZERO

    def leading(self) -> Scalar:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        _join(self.D, other.D)
        return self.num == other.num and self.irr == other.irr and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.irr, self.den, self.D))

    # -- ring operations --------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the least common denominator."""
        D = _join(self.D, other.D)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        n = max(len(self.num), len(other.num))
        num = [x * ma for x in self.num] + [0] * (n - len(self.num))
        for i, y in enumerate(other.num):
            num[i] += y * mb
        irr = ()
        if D is not None:
            irr = [x * ma for x in self.irr] + [0] * (n - len(self.irr))
            for i, y in enumerate(other.irr):
                irr[i] += y * mb
        return _poly(num, irr, da * ma, D)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return _raw(tuple(-x for x in self.num), tuple(-x for x in self.irr), self.den, self.D)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.num or not other.num:
                return _P_ZERO
            D = _join(self.D, other.D)
            num, irr = _mul_parts(self.num, self.irr, other.num, other.irr, D)
            return _poly(num, irr, self.den * other.den, D)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Scalar.coerce(c)
        if not c or not self.num:
            return _P_ZERO
        D = _join(self.D, c.D)
        p, t, q = _split(c)
        a, b = self.num, self.irr
        if not t:
            return _poly([x * p for x in a], [y * p for y in b], self.den * q, D)
        b = b or (0,) * len(a)
        tD = t * D
        num = [x * p + y * tD for x, y in zip(a, b)]
        irr = [x * t + y * p for x, y in zip(a, b)]
        return _poly(num, irr, self.den * q, D)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.num:
            return _P_ZERO
        pad = (0,) * k
        return _raw(pad + self.num, pad + self.irr if self.irr else (), self.den, self.D)

    # -- calculus -----------------------------------------------------------------

    def eval(self, x) -> Scalar:
        x = Scalar.coerce(x)
        if not self.num:
            return ZERO
        D = _join(self.D, x.D)
        r, s, qk = _horner(self.num, self.irr, *_split(x), D)
        den = self.den * qk
        return Scalar(Fraction(r, den), Fraction(s, den), D)

    def derivative(self) -> "Poly":
        num = [x * i for i, x in enumerate(self.num)][1:]
        irr = [y * i for i, y in enumerate(self.irr)][1:]
        return _poly(num, irr, self.den, self.D)

    def primitive(self, a) -> "Poly":
        """The antiderivative F with F' = self and F(a) = 0.

        Over den * lcm(1..n+1) every coefficient c_i/(i+1) is an integer
        numerator; the constant term is then -F(a), put over the
        denominator of the homogeneous Horner value."""
        n = len(self.num)
        if not n:
            return _P_ZERO
        a = Scalar.coerce(a)
        D = _join(self.D, a.D)
        L = lcm(*range(1, n + 1))
        num = [0] + [x * (L // (i + 1)) for i, x in enumerate(self.num)]
        irr = [0] + [y * (L // (i + 1)) for i, y in enumerate(self.irr)] if self.irr else []
        den = self.den * L
        r, s, qk = _horner(num, irr, *_split(a), D)
        if s and not irr:
            irr = [0] * (n + 1)
        num = [x * qk for x in num]
        irr = [y * qk for y in irr]
        num[0] = -r
        if irr:
            irr[0] = -s
        return _poly(num, irr, den * qk, D)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), by homogeneous Horner over the integer parts:
        with inner = g / e, self(inner) * e^(n-1) = sum_i f_i g^i e^(n-1-i)."""
        n = len(self.num)
        if n <= 1 or not inner.num:
            return _poly(list(self.num[:1]), list(self.irr[:1]), self.den, self.D)
        D = _join(self.D, inner.D)
        num, irr = self.num, self.irr
        g, h, e = inner.num, inner.irr, inner.den
        acc, acc_irr = [num[-1]], [irr[-1]] if irr else ()
        ek = 1
        for i in range(n - 2, -1, -1):
            ek *= e
            acc, acc_irr = _mul_parts(acc, acc_irr, g, h, D)
            acc[0] += num[i] * ek
            if irr:
                acc_irr[0] += irr[i] * ek
        return _poly(acc, acc_irr, self.den * ek, D)

    def divmod(self, divisor: "Poly"):
        """Quotient and remainder over the field; divisor must be nonzero."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = divisor.degree
        lead = divisor.leading()
        if len(rem) - 1 < d:
            return _P_ZERO, self
        quot = [ZERO] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / lead
            quot[i - d] = f
            for j, dc in enumerate(divisor.coeffs):
                rem[i - d + j] = rem[i - d + j] - f * dc
        return Poly(quot), Poly(rem)

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("(%s)*x" % c)
            else:
                parts.append("(%s)*x^%d" % (c, i))
        return " + ".join(parts)

    def __repr__(self):
        return "Poly[%s]" % (self.degree if self.num else "zero")


_P_ZERO = _raw((), (), 1, None)
_P_ONE = _raw((1,), (), 1, None)
_P_X = _raw((0, 1), (), 1, None)


class Interval:
    """An oriented interval [a, b] with distinct exact endpoints."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = Scalar.coerce(a)
        b = Scalar.coerce(b)
        if a == b:
            raise ValueError("interval endpoints must differ")
        self.a = a
        self.b = b

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return "Interval(%s, %s)" % (self.a, self.b)


class PCPair:
    """A pair of primitives P, Q vanishing at both endpoints of an interval.

    These are exactly the pairs for which the first two return-map
    equations already hold, the natural domain for everything downstream.
    """

    __slots__ = ("P", "Q", "iv")

    def __init__(self, P: Poly, Q: Poly, iv: Interval):
        for name, F in (("P", P), ("Q", Q)):
            if F.eval(iv.a) or F.eval(iv.b):
                raise PreconditionError(
                    "%s must vanish at both endpoints to form a primitive pair" % name
                )
        self.P = P
        self.Q = Q
        self.iv = iv

    def __repr__(self):
        return "PCPair(deg P=%s, deg Q=%s)" % (self.P.degree, self.Q.degree)


def definite_integral(f: Poly, iv: Interval) -> Scalar:
    """Exact integral of f over [a, b]."""
    F = f.primitive(iv.a)
    return F.eval(iv.b)


def chebyshev(d: int) -> Poly:
    """Chebyshev polynomial of degree d via the three-term recurrence."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return _P_ONE
    prev, cur = _P_ONE, _P_X
    two_x = Poly([0, 2])
    for _ in range(d - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def in_subring(Q: Poly, W: Poly):
    """Express Q as a polynomial in W, or return None.

    Uses the W-adic expansion: repeatedly divide with remainder by W.
    Q lies in the ring generated by W exactly when every remainder is a
    constant, and those constants are the coefficients of the witness.
    """
    if W.is_constant():
        raise ConstantFactorError("constant factor")
    digits = []
    cur = Q
    while True:
        cur, rem = cur.divmod(W)
        if not rem.is_constant():
            return None
        digits.append(rem[0])
        if not cur:
            break
    result = Poly(digits)
    return result


def exponent_condition(f: Poly, primes, which: str) -> bool:
    """Coefficient-support test by exponent arithmetic.

    ``which="U"``: every exponent with a nonzero coefficient is either a
    power of one of the given primes or coprime to all of them.
    ``which="U1"``: every such exponent has all its prime factors among
    the given primes.  Exponent 0 passes vacuously in both modes.
    """
    primes = sorted(set(primes))
    if not primes:
        raise ValueError("need at least one prime")
    for r in primes:
        if r < 2 or any(r % k == 0 for k in range(2, int(r**0.5) + 1)):
            raise ValueError("%d is not prime" % r)
    for i, c in enumerate(f.coeffs):
        if not c or i == 0:
            continue
        if which == "U":
            if any(_is_prime_power(i, r) for r in primes):
                continue
            if all(gcd(i, r) == 1 for r in primes):
                continue
            return False
        elif which == "U1":
            m = i
            for r in primes:
                while m % r == 0:
                    m //= r
            if m != 1:
                return False
        else:
            raise ValueError("which must be 'U' or 'U1'")
    return True


def _is_prime_power(i: int, r: int) -> bool:
    if i < r:
        return False
    while i % r == 0:
        i //= r
    return i == 1
