"""Seeded inputs and an independent exact reference for the benchmark.

Polynomials here are ascending lists of ``fractions.Fraction`` and the
arithmetic is a few lines of schoolbook code, so the checks do not depend
on the library under test.  Library objects are built only through its
public constructors and parsed back only through the scalar text grammar,
which is the library's stable output contract.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# The five rational intervals of the stratification acceptance suite.
INTERVALS = [
    (Fraction(-1), Fraction(1)),
    (Fraction(0), Fraction(1)),
    (Fraction(-2), Fraction(1)),
    (Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(1), Fraction(2)),
]


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    """One independent stream per (workload, seed, round); str seeds hash
    with SHA-512 inside ``random``, so the stream is the same in every
    interpreter."""
    return random.Random("%s:%d:%d" % (workload, seed, round_index))


def rand_frac(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def rand_nonzero(rng) -> Fraction:
    while True:
        v = rand_frac(rng)
        if v:
            return v


def rand_poly(rng, deg: int) -> list:
    """Random polynomial of exact degree ``deg``."""
    return [rand_frac(rng) for _ in range(deg)] + [rand_nonzero(rng)]


# Coefficient sizes for dense polynomials; see dense_poly.
_SIZES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3)]


def dense_poly(rng, deg: int) -> list:
    """Random polynomial of exact degree ``deg <= 6`` with no zero
    coefficient: the first deg+1 sizes of _SIZES in random order with
    random signs.  Every seed draws the same sizes, so the cost of exact
    arithmetic on the result hardly depends on the seed."""
    sizes = _SIZES[: deg + 1]
    rng.shuffle(sizes)
    return [c if rng.random() < 0.5 else -c for c in sizes]


# -- reference arithmetic on Fraction coefficient lists -------------------------


def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def ppow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = pmul(out, a)
    return out


def pcompose(outer, inner):
    acc = []
    for c in reversed(outer):
        acc = padd(pmul(acc, inner), [c])
    return acc


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def primitive_at(p, a):
    """Antiderivative F with F(a) = 0."""
    F = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]
    F[0] = -peval(F, a)
    return trim(F)


def integral(p, a, b):
    F = primitive_at(p, a)
    return peval(F, b)


def rank(rows) -> int:
    """Rank of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def vanishing_quad(a, b):
    """(x - a)(x - b)."""
    return [a * b, -(a + b), Fraction(1)]


def closed_inner(rng, a, b, deg):
    """Random W of degree ``deg`` with W(a) = W(b).

    W = (x-a)(x-b) G +- 1 with G = dense_poly(deg - 2) takes the same value
    at both endpoints whatever G is.
    """
    G = dense_poly(rng, deg - 2)
    return padd(pmul(vanishing_quad(a, b), G), [Fraction(rng.choice([1, -1]))])


def vanishing_composite(S, W, a):
    """S(W) - S(W(a)), which vanishes at both endpoints when W(a) = W(b)."""
    PS = pcompose(S, W)
    return padd(PS, [-peval(PS, a)])


# -- the scalar text grammar ----------------------------------------------------

_SCALAR_RE = re.compile(
    r"^(?P<first>[+-]?\d+(?:/\d+)?)(?:(?P<op>[+-])(?P<second>\d+(?:/\d+)?))?(?:\*r(?P<D>\d+))?$"
)
_DIGITS_RE = re.compile(r"\d+")


def parse_text(text: str):
    """Scalar text -> (rational part, sqrt(D) part, D or None)."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("not a scalar: %r" % text)
    first = Fraction(m.group("first"))
    if m.group("D") is None:
        if m.group("op"):
            raise ValueError("not a scalar: %r" % text)
        return first, Fraction(0), None
    D = int(m.group("D"))
    if m.group("op") is None:
        return Fraction(0), first, D
    second = Fraction(m.group("second"))
    return first, (second if m.group("op") == "+" else -second), D


def rational_of(text: str) -> Fraction:
    rat, irr, _ = parse_text(text)
    if irr:
        raise ValueError("expected a rational, got %r" % text)
    return rat


def surd_text(rat: Fraction, irr: Fraction, D: int) -> str:
    """Canonical text of rat + irr*sqrt(D)."""
    if not irr:
        return str(rat)
    tail = "%s*r%d" % (abs(irr), D)
    if not rat:
        return tail if irr > 0 else "-" + tail
    return "%s%s%s" % (rat, "+" if irr > 0 else "-", tail)


def max_bits(text: str) -> int:
    """Largest bit length of any integer written in ``text``."""
    return max((int(d).bit_length() for d in _DIGITS_RE.findall(text)), default=0)


class Job:
    """One unit of benchmark work: ``run()`` is timed, ``check`` is not.

    ``check(output, seen)`` returns the job's canonical output text or
    raises :class:`CheckFailed`; ``seen`` is one dict shared by the checks
    of a round, for identities that span jobs.
    """

    __slots__ = ("key", "run", "check")

    def __init__(self, key, run, check):
        self.key = key
        self.run = run
        self.check = check


class CheckFailed(Exception):
    """An output disagreed with its exact reference."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)
