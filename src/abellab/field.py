"""Exact scalars in Q or a real quadratic extension Q(sqrt(D)).

A :class:`Scalar` stores two exact rationals ``rat`` and ``irr`` together
with an optional squarefree integer ``D > 1``; its value is
``rat + irr*sqrt(D)``.  A scalar with ``D=None`` is a plain rational and is
compatible with every extension (it embeds), so integer and rational
constants mix freely with extension elements.  Combining two scalars with
two *different* explicit ``D`` values raises :class:`FieldMismatchError`;
towers of extensions are out of scope.

Rationals are ``fractions.Fraction`` values, which stay reduced with a
positive denominator, so equality is plain component comparison.
Polynomial arithmetic does not go through this class: ``abellab.poly``
works on integer numerators and builds scalars only where they are read.
"""

from __future__ import annotations

import re
from fractions import Fraction as _Q
from functools import lru_cache
from math import isqrt

from .errors import FieldMismatchError, ZeroDivisorError

_ZERO_Q = _Q(0)
_ONE_Q = _Q(1)


def _as_rational(x):
    if isinstance(x, int):
        return _Q(x)
    if isinstance(x, _Q):
        return x
    raise TypeError("cannot use a %s as an exact scalar" % type(x).__name__)


def _squarefree(d: int) -> bool:
    """Is d free of square factors?

    Trial division only while f^3 <= d, dividing each factor found out of
    d: what is left has every prime factor above the cube root, so at most
    two of them, and it has a square factor exactly when it is a square.
    """
    if d % 4 == 0:
        return False
    if d % 2 == 0:
        d //= 2
    f = 3
    while f * f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return False
        f += 2
    r = isqrt(d)
    return d == 1 or r * r != d


@lru_cache
def check_radicand(D: int) -> None:
    """Raise ValueError unless D is a squarefree integer with 1 < D < 10^18.

    Below the bound the trial division in _squarefree takes at most
    5 * 10^5 steps; a product of two 20-digit primes would take 10^13.
    """
    if D >= 10**18:
        raise ValueError("D must be below 10^18, got %d" % D)
    if D <= 1 or not _squarefree(D):
        raise ValueError("D must be a squarefree integer > 1, got %d" % D)


def _join(da, db):
    """The common radicand of two fields given by their D (None for Q)."""
    if da is None:
        return db
    if db is None or da == db:
        return da
    raise FieldMismatchError("field mismatch: sqrt(%s) vs sqrt(%s)" % (da, db))


class Scalar:
    """An exact element rat + irr*sqrt(D) of Q(sqrt(D)), or of Q when D is None.

    A zero irrational part makes the value a plain rational, so D is
    dropped; the canonical form is therefore unique per value.
    """

    __slots__ = ("rat", "irr", "D")

    def __init__(self, rat=0, irr=0, D=None):
        rat = _as_rational(rat) if not isinstance(rat, _Q) else rat
        irr = _as_rational(irr) if not isinstance(irr, _Q) else irr
        if D is not None:
            check_radicand(D)
            if not irr:
                D = None
        elif irr:
            raise ValueError("irrational part requires an explicit D")
        self.rat = rat
        self.irr = irr
        self.D = D

    @staticmethod
    def coerce(x) -> "Scalar":
        """Lift an int or a Fraction into a Scalar; other types raise TypeError."""
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_rational(x), 0, None)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, _Q)):
                return Scalar(self.rat + other, self.irr, self.D)
            return NotImplemented
        D = _join(self.D, other.D)
        return Scalar(self.rat + other.rat, self.irr + other.irr, D)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, _Q)):
                return Scalar(self.rat - other, self.irr, self.D)
            return NotImplemented
        D = _join(self.D, other.D)
        return Scalar(self.rat - other.rat, self.irr - other.irr, D)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Scalar(-self.rat, -self.irr, self.D)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, _Q)):
                return Scalar(self.rat * other, self.irr * other, self.D)
            return NotImplemented
        D = _join(self.D, other.D)
        a, b, c, e = self.rat, self.irr, other.rat, other.irr
        if not b and not e:
            return Scalar(a * c, _ZERO_Q, D)
        return Scalar(a * c + b * e * D, a * e + b * c, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, _Q)):
                if not other:
                    raise ZeroDivisorError("zero divisor")
                return Scalar(self.rat / other, self.irr / other, self.D)
            return NotImplemented
        D = _join(self.D, other.D)
        c, e = other.rat, other.irr
        if not c and not e:
            raise ZeroDivisorError("zero divisor")
        if not e:
            return Scalar(self.rat / c, self.irr / c, D)
        # multiply by the conjugate; the norm c^2 - e^2 D is nonzero because
        # sqrt(D) is irrational
        norm = c * c - e * e * D
        a, b = self.rat, self.irr
        return Scalar((a * c - b * e * D) / norm, (b * c - a * e) / norm, D)

    def __rtruediv__(self, other):
        return Scalar.coerce(other).__truediv__(self)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Scalar(_ONE_Q, 0, None)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- predicates and ordering ---------------------------------------------

    def __bool__(self):
        return bool(self.rat) or bool(self.irr)

    def __eq__(self, other):
        if isinstance(other, (int, _Q)):
            return not self.irr and self.rat == other
        if not isinstance(other, Scalar):
            return NotImplemented
        _join(self.D, other.D)
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.D))

    def sign(self) -> int:
        """Exact sign of the real value rat + irr*sqrt(D)."""
        a, b = self.rat, self.irr
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # opposite signs: compare a^2 with b^2 D
        diff = a * a - b * b * self.D
        if diff == 0:  # impossible for squarefree D > 1, kept for safety
            return 0
        return sa if diff > 0 else sb

    def __lt__(self, other):
        return (self - Scalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - Scalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Scalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - Scalar.coerce(other)).sign() >= 0

    # -- text form ------------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)


def sqrtD(D: int) -> Scalar:
    """The generator sqrt(D) itself."""
    return Scalar(0, 1, D)


# -- the whitespace-free text grammar -----------------------------------------
#
#   "a/b"                plain rational (the "/b" may be omitted when b = 1)
#   "c/d*rD"             pure irrational part, e.g. "-3/4*r3" = -(3/4)*sqrt(3)
#   "a/b+c/d*rD"         both parts; the '+' may be '-'
#
# This grammar is used in every JSON file and in CLI output.

_FRAC = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    r"^(?P<first>%s)(?:(?P<op>[+-])(?P<second>\d+(?:/\d+)?))?(?:\*r(?P<D>\d+))?$" % _FRAC
)


def _fmt_frac(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(x: Scalar) -> str:
    """Canonical text form; parse_scalar round-trips it."""
    if not x.irr:
        return _fmt_frac(x.rat)
    tail = "%s*r%d" % (_fmt_frac(abs(x.irr)), x.D)
    if not x.rat:
        return tail if x.irr > 0 else "-" + tail
    sign = "+" if x.irr > 0 else "-"
    return _fmt_frac(x.rat) + sign + tail


def _parse_frac(text: str, part: str):
    try:
        return _Q(part)
    except ZeroDivisionError as exc:
        raise ValueError("malformed scalar %r (zero denominator)" % text) from exc


def parse_scalar(text: str, D=None) -> Scalar:
    """Parse the text grammar above.

    ``D`` is the session extension; a literal "rE" in the text must agree
    with it (or fixes it when ``D`` is None).
    """
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("malformed scalar %r" % text)
    first = _parse_frac(text, m.group("first"))
    d_txt = m.group("D")
    if d_txt is None:
        if m.group("op") is not None:
            raise ValueError("malformed scalar %r (two rational parts)" % text)
        return Scalar(first, 0, None)
    d_val = int(d_txt)
    if D is not None and d_val != D:
        raise FieldMismatchError("field mismatch: r%d in a r%d context" % (d_val, D))
    if m.group("op") is None:
        return Scalar(0, first, d_val)
    second = _parse_frac(text, m.group("second"))
    if m.group("op") == "-":
        second = -second
    return Scalar(first, second, d_val)


def rational(n, d=1) -> Scalar:
    """Convenience constructor for plain rationals."""
    return Scalar(_Q(n, d) if d != 1 else _Q(n), 0, None)
