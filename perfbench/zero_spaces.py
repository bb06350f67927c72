"""Workload ``zero_spaces``: moment zero spaces against composition spans.

Each job computes Z(P) at degree d by the moment kernel (``zero_space``
with I_max = 2d) and by the composition span (``composition_sum_space``);
the check is that the two canonical bases are equal and that they span
the kernel of the same conditions set up independently here with
``Fraction`` (``_conditions``).  A round is:

* c*(T6 + 1) on [-sqrt3/2, sqrt3/2], over Q(sqrt 3), for d = 6..12;
* c*x^2 (x^4 - 1)^2 on [-1, 1] for d = 6..9;
* S(W) - S(W(a)) with W(a) = W(b) on the five rational intervals, d = 6..10.

The seeded scale c (one of +-2, +-1/2) leaves every zero
space unchanged but varies the inputs from round to round, so results can
rarely be reused from an earlier round; its sizes are alike, so every
seed's round costs about the same.  For c*(T6 + 1) the dimension must also
equal [d/2] + [d/3] - [d/6], the exact count the acceptance suite found
for d = 6..12.
"""

from __future__ import annotations

from fractions import Fraction

import abellab.moments as moments
from abellab.field import format_scalar, parse_scalar
from abellab.poly import Interval, Poly

from gen import (
    INTERVALS,
    Job,
    closed_inner,
    dense_poly,
    pmul,
    ppow,
    rank,
    rational_of,
    require,
    rng_for,
    vanishing_composite,
)

NAME = "zero_spaces"
SCALES = [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]
T6_PLUS_1 = [Fraction(c) for c in (0, 0, 18, 0, -48, 0, 32)]
POWER = pmul([0, 0, Fraction(1)], ppow([Fraction(-1), 0, 0, 0, Fraction(1)], 2))


def make_round(seed: int, r: int, workdir):
    rng = rng_for(NAME, seed, r)
    cheb_iv = Interval(parse_scalar("-1/2*r3"), parse_scalar("1/2*r3"))
    jobs = []
    for d in range(6, 13):
        P = _scaled(rng, T6_PLUS_1)
        ends, xint = _symmetric_interval(Fraction(3, 4), d)
        jobs.append(_job("%d.cheb%d" % (r, d), P, cheb_iv, ends, xint, d, d // 2 + d // 3 - d // 6))
        if d <= 9:
            P = _scaled(rng, POWER)
            ends, xint = _rational_interval(Fraction(-1), Fraction(1), d)
            jobs.append(_job("%d.power%d" % (r, d), P, Interval(-1, 1), ends, xint, d, None))
    for i, (a, b) in enumerate(INTERVALS):
        w_deg = 2 + i % 2
        W = closed_inner(rng, a, b, w_deg)
        P = vanishing_composite(dense_poly(rng, 6 // w_deg), W, a)
        ends, xint = _rational_interval(a, b, 6 + i)
        jobs.append(_job("%d.composite%d" % (r, 6 + i), P, Interval(a, b), ends, xint, 6 + i, None))
    return jobs


def _scaled(rng, P):
    c = rng.choice(SCALES)
    return [c * x for x in P]


def _rational_interval(a, b, d):
    """The endpoint rows f(a) = 0, f(b) = 0 on coefficients f_0..f_d, and
    m -> int_a^b x^m."""
    ends = [[a**j for j in range(d + 1)], [b**j for j in range(d + 1)]]
    return ends, lambda m: (b ** (m + 1) - a ** (m + 1)) / (m + 1)


def _symmetric_interval(q, d):
    """The same for [-s, s] with s^2 = q rational, in rational terms:
    f(s) = f(-s) = 0 iff the even and the odd part of f vanish at x^2 = q,
    and int_-s^s x^m is s * 2 q^(m/2) / (m+1) for even m, 0 for odd m; the
    common factor s leaves the kernel unchanged and is dropped."""
    ends = [
        [q ** (j // 2) if j % 2 == 0 else 0 for j in range(d + 1)],
        [q ** (j // 2) if j % 2 == 1 else 0 for j in range(d + 1)],
    ]
    return ends, lambda m: 2 * q ** (m // 2) / (m + 1) if m % 2 == 0 else Fraction(0)


def _conditions(P, ends, xint, d, n):
    """Rows of the linear conditions on the coefficients f_0..f_d that put
    f in Z(P) with moments up to P^n: the endpoint rows, then for each i
    int P^i f' = sum_j f_j * j * int P^i x^(j-1) = 0."""
    xs = [xint(m) for m in range(n * (len(P) - 1) + d)]
    rows = list(ends)
    power = [Fraction(1)]
    for i in range(n + 1):
        terms = [(k, c) for k, c in enumerate(power) if c]
        rows.append([0] + [j * sum(c * xs[k + j - 1] for k, c in terms) for j in range(1, d + 1)])
        power = pmul(power, P)
    return rows


def _job(key, P, iv, ends, xint, d, want_dim):
    Pl = Poly(P)

    def run():
        return (
            moments.zero_space(Pl, iv, d, 2 * d),
            moments.composition_sum_space(Pl, iv, d),
        )

    def check(spaces, seen):
        kernel, span = (
            [" ".join(format_scalar(f[i]) for i in range(f.degree + 1)) for f in basis]
            for basis in spaces
        )
        require(kernel == span, "moment kernel differs from the composition span")
        if want_dim is not None:
            require(len(kernel) == want_dim, "dimension %d, expected %d" % (len(kernel), want_dim))
        # Z(P) from scratch: the basis must lie in the kernel of the
        # conditions and have the kernel's dimension.
        rows = _conditions(P, ends, xint, d, 2 * d)
        vectors = [[rational_of(t) for t in f.split()] for f in kernel]
        vectors = [v + [Fraction(0)] * (d + 1 - len(v)) for v in vectors]
        for v in vectors:
            require(not any(sum(x * y for x, y in zip(row, v)) for row in rows), "basis element not in Z(P)")
        require(
            rank(vectors) == len(vectors) == d + 1 - rank(rows),
            "basis of dimension %d does not span Z(P) of dimension %d" % (len(vectors), d + 1 - rank(rows)),
        )
        return "d=%d dim=%d\n%s" % (d, len(kernel), "\n".join(kernel))

    return Job(key, run, check)
