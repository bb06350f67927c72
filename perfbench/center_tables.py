"""Workload ``center_tables``: parameter-stratified return-map tables.

Each job takes a primitive pair (P, Q) of degree <= 6 on one of the five
rational intervals and computes the K = 10 tables for both
parameterizations (parameter on q, parameter on p); two jobs in five also
compute the backward table.  One job in five is a composition pair
P = S1(W), Q = S2(W) with W(a) = W(b), whose tables must vanish.

The degrees follow a fixed schedule within each round of five jobs, so
every round has the same mix of sizes and only the coefficients depend on
the seed.  Library calls go through the module object (``center.x``), so a
traced run sees them.
"""

from __future__ import annotations

from fractions import Fraction

import abellab.center as center
from abellab.field import format_scalar
from abellab.poly import Interval, Poly

from gen import (
    INTERVALS,
    Job,
    closed_inner,
    dense_poly,
    integral,
    pderiv,
    pmul,
    ppow,
    rational_of,
    require,
    rng_for,
    vanishing_composite,
    vanishing_quad,
)

NAME = "center_tables"
K = 10
# (deg P, deg Q, backward table too) for the four random pairs of a round;
# the fifth job of a round is the composition pair.
SCHEDULE = [(6, 2, False), (3, 6, True), (4, 4, False), (5, 3, True)]


def make_round(seed: int, r: int, workdir):
    rng = rng_for(NAME, seed, r)
    jobs = []
    for i, (a, b) in enumerate(INTERVALS):
        quad = vanishing_quad(a, b)
        if i < len(SCHEDULE):
            dp, dq, backward = SCHEDULE[i]
            P = pmul(quad, dense_poly(rng, dp - 2))
            Q = pmul(quad, dense_poly(rng, dq - 2))
            composite = False
        else:
            W = closed_inner(rng, a, b, 2)
            P = vanishing_composite(dense_poly(rng, 3), W, a)
            Q = vanishing_composite(dense_poly(rng, 2), W, a)
            backward, composite = False, True
        jobs.append(_job("%d.%d" % (r, i), P, Q, a, b, backward, composite))
    return jobs


def _job(key, P, Q, a, b, backward, composite):
    iv = Interval(a, b)
    Pl, Ql = Poly(P), Poly(Q)

    def run():
        p, q = Pl.derivative(), Ql.derivative()
        tables = [
            center.parametric_table(p, q, iv, K, center.EPS_ON_Q),
            center.parametric_table(p, q, iv, K, center.DELTA_ON_P),
        ]
        if backward:
            tables.append(
                center.parametric_table(p, q, iv, K, center.EPS_ON_Q, center.BACKWARD)
            )
        return tables

    def check(tables, seen):
        require(len(tables) == (3 if backward else 2), "wrong table count")
        text = []
        parsed = []
        for t in tables:
            items = sorted((kj, format_scalar(v)) for kj, v in t.entries.items())
            text.append(
                "%s %s K=%d: %s"
                % (t.param, t.direction, t.K, " ".join("%d,%d=%s" % (k, j, v) for (k, j), v in items))
            )
            parsed.append({kj: rational_of(v) for kj, v in items})
        eps, delta = parsed[0], parsed[1]
        _check_eps_support(eps, "forward")
        for k, j in delta:
            require(j <= k // 2 - 1, "parameter-on-p entry outside support at (%d,%d)" % (k, j))
        if composite:
            require(not any(parsed), "composition pair with a nonzero table entry")
        _check_columns(P, Q, a, b, eps, delta)
        if backward:
            back = parsed[2]
            _check_eps_support(back, "backward")
            for k in range(2, K + 1):
                require(
                    back.get((k, 1), 0) == -eps.get((k, 1), 0),
                    "backward linear column is not minus the forward one at k=%d" % k,
                )
        return "\n".join(text)

    return Job(key, run, check)


def _check_eps_support(entries, label):
    for k, j in entries:
        require(
            j % 2 == (k - 1) % 2 and 1 <= j <= k - 3,
            "%s parameter-on-q entry outside support at (%d,%d)" % (label, k, j),
        )


def _half_binomial(i):
    num = Fraction(1)
    fact = 1
    for t in range(i):
        num *= Fraction(1, 2) - t
        fact *= t + 1
    return num / fact


def _check_columns(P, Q, a, b, eps, delta):
    """The closed-form linear columns:
    eps(2i+2, 1) = (-2)^i binom(1/2, i) int P^i q, and
    eps(k, k-3) = delta(k, 1) = int Q^(k-3) p."""
    p, q = pderiv(P), pderiv(Q)
    for i in range(4):
        want = (-2) ** i * _half_binomial(i) * integral(pmul(ppow(P, i), q), a, b)
        require(eps.get((2 * i + 2, 1), 0) == want, "eps column mismatch at i=%d" % i)
    Qi = [Fraction(1)]
    for i in range(K - 2):
        want = integral(pmul(Qi, p), a, b)
        require(delta.get((i + 3, 1), 0) == want, "delta column mismatch at i=%d" % i)
        if i >= 1:
            require(eps.get((i + 3, i), 0) == want, "eps top stratum mismatch at k=%d" % (i + 3))
        Qi = pmul(Qi, Q)
