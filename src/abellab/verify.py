"""Bundled acceptance suites (criteria A1-A10).

Each criterion is a function returning a :class:`CriterionResult`; the
same functions back both ``abellab verify`` and the pytest acceptance
module.  "Random" always means seeded-deterministic: a fixed seed fully
determines every sample, so reruns are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .center import (
    DELTA_ON_P,
    EPS_ON_Q,
    FORWARD,
    first_order_column,
    invert_series,
    melnikov,
    parametric_table,
    poincare_coeffs,
    tabulated_coefficient,
)
from .decomp import _common_factor, cc_check, indecomposable_factors, is_definite, structure_report
from .errors import KernelNotStabilizedError, NotClosedError
from .field import ONE, ZERO, Scalar, rational, sqrtD
from .linalg import kernel_basis, solve
from .moments import (
    _combination,
    chebyshev_zero_space_dim,
    moment,
    parametric_structure_report,
    zero_space,
    zero_space_matches_compositions,
)
from .poly import Interval, Poly, chebyshev, definite_integral, exponent_condition
from .trig import (
    build_family,
    first_moments_vanish,
    modify_family,
    non_cc_certificate,
    trig_moment,
)


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    def format_line(self) -> str:
        return "%s %s: %s" % (self.cid, self.title, "PASS" if self.passed else "FAIL")


# -- random generators ------------------------------------------------------------


def _rand_scalar(rng) -> Scalar:
    return rational(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def _rand_nonzero(rng) -> Scalar:
    while True:
        v = _rand_scalar(rng)
        if v:
            return v


def _rand_poly(rng, deg: int, dense=False) -> Poly:
    if deg < 0:
        return Poly.zero()
    coeffs = [
        _rand_nonzero(rng) if dense else _rand_scalar(rng) for _ in range(deg)
    ]
    coeffs.append(_rand_nonzero(rng))
    return Poly(coeffs)


_INTERVALS = [
    (rational(-1), rational(1)),
    (rational(0), rational(1)),
    (rational(-2), rational(1)),
    (rational(-1, 2), rational(3, 2)),
    (rational(1), rational(2)),
]


def _rand_interval(rng) -> Interval:
    a, b = rng.choice(_INTERVALS)
    return Interval(a, b)


def _rand_pcpoly(rng, iv: Interval, max_deg: int, dense=False) -> Poly:
    """Random polynomial vanishing at both endpoints, degree <= max_deg."""
    quad = Poly([iv.a * iv.b, -(iv.a + iv.b), ONE])
    F = _rand_poly(rng, rng.randint(0, max_deg - 2), dense=dense)
    return quad * F


def _rand_pcpair(rng, max_deg: int):
    iv = _rand_interval(rng)
    return _rand_pcpoly(rng, iv, max_deg), _rand_pcpoly(rng, iv, max_deg), iv


# -- the two benchmark bases (A4, A5 and A6) ----------------------------------------

# T6 + 1 on [-sqrt(3)/2, sqrt(3)/2], over Q(sqrt 3): factor classes T2 and T3
_HALF_R3 = sqrtD(3) / 2
_P6, _IV3 = chebyshev(6) + Poly.one(), Interval(-_HALF_R3, _HALF_R3)
# x^2 (x^4 - 1)^2 on [-1, 1]: factor classes x^2 and x^5 - x
_P10, _IV11 = Poly([0, 0, 1]) * Poly([-1, 0, 0, 0, 1]) ** 2, Interval(-1, 1)


# -- shared sample/table cache (A1 and A2 use the same samples) ---------------------

_TABLE_CACHE: dict = {}


def _stratification_samples(seed: int):
    """200 random primitive pairs of degree <= 6 with both K = 10 tables."""
    if seed in _TABLE_CACHE:
        return _TABLE_CACHE[seed]
    rng = random.Random(seed)
    samples = []
    for _ in range(200):
        P, Q, iv = _rand_pcpair(rng, 6)
        p, q = P.derivative(), Q.derivative()
        eps = parametric_table(p, q, iv, 10, EPS_ON_Q, FORWARD)
        delta = parametric_table(p, q, iv, 10, DELTA_ON_P, FORWARD)
        samples.append((P, Q, iv, eps, delta))
    _TABLE_CACHE[seed] = samples
    return samples


# -- A1 -----------------------------------------------------------------------------


def a1_stratification(seed: int) -> CriterionResult:
    """Support of the stratified tables on random primitive pairs."""
    samples = _stratification_samples(seed)
    bad = []
    for P, Q, iv, eps, delta in samples:
        for (k, j) in eps.entries:
            if not (j % 2 == (k - 1) % 2 and 1 <= j <= k - 3):
                bad.append(("eps", k, j))
        for (k, j) in delta.entries:
            if not j <= k // 2 - 1:
                bad.append(("delta", k, j))
    passed = not bad
    details = [
        "%d primitive pairs, degree <= 6, K = 10" % len(samples),
        "parameter-on-q support must sit in {j = k-1 mod 2, 1 <= j <= k-3}",
        "parameter-on-p support must sit in {j <= floor(k/2) - 1}",
    ]
    findings = ["violation %s at (k=%d, j=%d)" % t for t in bad[:10]]
    return CriterionResult("A1", "stratification-support", passed, details, findings)


# -- A2 -----------------------------------------------------------------------------


def a2_moment_columns(seed: int) -> CriterionResult:
    """Linear-parameter columns equal their closed moment forms."""
    samples = _stratification_samples(seed)
    bad = []
    for P, Q, iv, eps, delta in samples:
        for i in range(0, 4):
            want = first_order_column(P, Q, iv, i, EPS_ON_Q)
            got = eps.entry(2 * i + 2, 1)
            if got != want:
                bad.append(("eps-col", i, got, want))
        for k in range(4, eps.K + 1):
            want = moment(Q, P, iv, k - 3)
            if eps.entry(k, k - 3) != want:
                bad.append(("eps-top", k, eps.entry(k, k - 3), want))
        for i in range(0, eps.K - 2):
            want = first_order_column(P, Q, iv, i, DELTA_ON_P)
            if delta.entry(i + 3, 1) != want:
                bad.append(("delta-col", i, delta.entry(i + 3, 1), want))
            if want != moment(Q, P, iv, i):
                bad.append(("oracle-mismatch", i, want, moment(Q, P, iv, i)))
    passed = not bad
    details = [
        "entry(2i+2, 1) = (-2)^i binom(1/2, i) m_i(P,Q) for i <= 3",
        "entry(k, k-3) = m_{k-3}(Q,P) for 4 <= k <= 10",
        "delta entry(i+3, 1) = m_i(Q,P), cross-checked with the closed forms",
    ]
    findings = ["%s mismatch at %s: got %s want %s" % t for t in bad[:10]]
    return CriterionResult("A2", "moment-column-laws", passed, details, findings)


# -- A3 -----------------------------------------------------------------------------


def a3_series_match(seed: int) -> CriterionResult:
    """Reversed flow coefficients equal the tabulated expansions (h1=q)."""
    rng = random.Random(seed + 3)
    n = 50
    bad = []
    convention_hits = {
        ("forward", "h1=p"): 0,
        ("forward", "h1=q"): 0,
        ("backward", "h1=p"): 0,
        ("backward", "h1=q"): 0,
    }
    for _ in range(n):
        iv = _rand_interval(rng)
        p = _rand_poly(rng, rng.randint(0, 4))
        q = _rand_poly(rng, rng.randint(0, 4))
        vs = poincare_coeffs(p, q, iv, 6)
        ws = invert_series(vs)
        tab = {
            assign: [tabulated_coefficient(k, p, q, iv, assign) for k in range(2, 7)]
            for assign in ("h1=p", "h1=q")
        }
        for assign in ("h1=p", "h1=q"):
            if tab[assign] == vs:
                convention_hits[("forward", assign)] += 1
            if tab[assign] == ws:
                convention_hits[("backward", assign)] += 1
        if ws != tab["h1=q"]:
            bad.append((p, q, iv))
    # the hand anchor: constant inputs 1, 1 on [0, 1]
    anchor = invert_series(poincare_coeffs(Poly([1]), Poly([1]), Interval(0, 1), 6))
    anchor_ok = anchor == [
        rational(-1),
        rational(0),
        rational(3, 2),
        rational(-11, 6),
        rational(-5, 12),
    ]
    passed = not bad and anchor_ok
    details = [
        "%d random (p, q) of degree <= 4, orders 2..6, exact" % n,
        "convention matches (all five orders): "
        + ", ".join("%s/%s=%d" % (d, a, c) for (d, a), c in sorted(convention_hits.items())),
        "anchor p=q=1 on [0,1]: backward = (-1, 0, 3/2, -11/6, -5/12): %s" % anchor_ok,
    ]
    findings = [] if passed else ["%d instances disagree with backward/h1=q" % len(bad)]
    return CriterionResult("A3", "tabulated-series-match", passed, details, findings)


# -- A4 -----------------------------------------------------------------------------


def _cc_pair(rng, iv: Interval):
    """A composition pair: random inner factor with equal endpoint values."""
    while True:
        wdeg = rng.randint(2, 3)
        coeffs = [_rand_scalar(rng) for _ in range(wdeg - 1)] + [ZERO, _rand_nonzero(rng)]
        W = Poly(coeffs)
        # fix the linear coefficient so W(a) = W(b)
        gap = W.eval(iv.b) - W.eval(iv.a)
        lin = -gap / (iv.b - iv.a)
        W = W + Poly([ZERO, lin])
        if W.degree == wdeg:
            break
    Pt = _rand_poly(rng, rng.randint(1, 3))
    Qt = _rand_poly(rng, rng.randint(1, 3))
    if Pt.degree == 0:
        Pt = Pt + Poly([0, 1])
    if Qt.degree == 0:
        Qt = Qt + Poly([0, 1])
    P = Pt.compose(W)
    Q = Qt.compose(W)
    return P, Q, W


def _cc_pcpair(rng, iv: Interval):
    P, Q, W = _cc_pair(rng, iv)
    P = P - Poly.constant(P.eval(iv.a))
    Q = Q - Poly.constant(Q.eval(iv.a))
    return P, Q, W


def a4_melnikov(seed: int):
    """Three results: the (5,2)=2*D6 identity, vanishing on composition
    pairs, and the fitted constants for (7,2) vs D7 and (9,2) vs D8."""
    rng = random.Random(seed + 4)
    # (i) entry(5,2) == 2 D6 on 100 random primitive pairs
    bad_i = 0
    for _ in range(100):
        P, Q, iv = _rand_pcpair(rng, 6)
        t = parametric_table(P.derivative(), Q.derivative(), iv, 5, EPS_ON_Q, FORWARD)
        if t.entry(5, 2) != Scalar.coerce(2) * melnikov(6, P, Q, iv):
            bad_i += 1
    res_i = CriterionResult(
        "A4i",
        "melnikov-anchor-5-2",
        bad_i == 0,
        ["entry(5,2) = 2*D6 on 100 random primitive pairs, exact"],
        [] if bad_i == 0 else ["%d mismatches" % bad_i],
    )

    # (ii) D6 = D7 = D8 = 0 on 20 constructed composition pairs
    bad_ii = 0
    for _ in range(20):
        iv = _rand_interval(rng)
        P, Q, _ = _cc_pcpair(rng, iv)
        if any(melnikov(k, P, Q, iv) for k in (6, 7, 8)):
            bad_ii += 1
    res_ii = CriterionResult(
        "A4ii",
        "melnikov-vanishing-on-composition",
        bad_ii == 0,
        ["D6 = D7 = D8 = 0 on 20 constructed composition pairs, exact"],
        [] if bad_ii == 0 else ["%d pairs with nonzero values" % bad_ii],
    )

    # (iii) fit constants on moment-vanishing samples from the degree-6
    # Chebyshev family (all arithmetic in Q(sqrt 3))
    P6, iv3 = _P6, _IV3
    T2, T3 = chebyshev(2), chebyshev(3)
    samples = []
    shape_rows = []
    while len(samples) < 20:
        S1 = _rand_poly(rng, rng.randint(1, 3))
        s2a, s2b = _rand_scalar(rng), _rand_scalar(rng)
        Q = S1.compose(T2) + T3.scale(s2a) + (T3**3).scale(s2b)
        Q = Q - Poly.constant(Q.eval(iv3.a))
        if not Q:
            continue
        t = parametric_table(P6.derivative(), Q.derivative(), iv3, 9, EPS_ON_Q, FORWARD)
        samples.append(
            (
                t.entry(7, 2),
                melnikov(7, P6, Q, iv3),
                t.entry(9, 2),
                melnikov(8, P6, Q, iv3),
            )
        )
        # the three integrals that make up the order-8 expression, kept
        # separately so a failed single-constant fit can be refit with
        # free weights
        q = Q.derivative()
        F1 = (P6 * q).primitive(iv3.a)
        F2 = (P6 * P6 * q).primitive(iv3.a)
        shape_rows.append(
            [
                definite_integral(P6**3 * Q * q, iv3),
                definite_integral(P6 * P6 * q * F1, iv3),
                definite_integral(P6 * q * F2, iv3),
            ]
        )

    def fit(pairs):
        const = next((val / dk for val, dk in pairs if dk), None)
        if const is None:
            return None, all(not val for val, _ in pairs)
        return const, all(val == const * dk for val, dk in pairs)

    c7, clean7 = fit([(e7, d7) for e7, d7, _, _ in samples])
    c9, clean9 = fit([(e9, d8) for _, _, e9, d8 in samples])
    details = [
        "%d moment-vanishing samples from the degree-6 Chebyshev family" % len(samples),
        "fit entry(7,2) = c7 * D7: c7 = %s, all residuals zero: %s" % (c7, clean7),
        "fit entry(9,2) = c9 * D8: c9 = %s, all residuals zero: %s" % (c9, clean9),
    ]
    findings = []
    if not clean7:
        findings.append("nonzero residuals in the (7,2)/D7 fit: no single constant works")
    if not clean9:
        refit = solve(shape_rows, [e9 for _, _, e9, _ in samples], 3)
        findings.append(
            "nonzero residuals in the (9,2)/D8 fit: the printed 320/185 weights "
            "do not reproduce the table stratum by a constant factor"
        )
        if refit is not None:
            findings.append(
                "refit with free weights on (int P^3 Q q, int P^2 q int P q, "
                "int P q int P^2 q): entry(9,2) = %s, exact on all samples "
                "(weights unique only up to the by-parts relation "
                "int P^2 q int P q + int P q int P^2 q = m1*m2 = 0 here)"
                % ("(%s, %s, %s)" % tuple(str(x) for x in refit))
            )
    res_iii = CriterionResult("A4iii", "melnikov-constant-fit", True, details, findings)
    return [res_i, res_ii, res_iii]


# -- A5 -----------------------------------------------------------------------------


def a5_zero_space(seed: int):
    rng = random.Random(seed + 5)
    P6, iv3 = _P6, _IV3
    T2, T3 = chebyshev(2), chebyshev(3)

    # (a) 30 random members of the composition span kill the moments
    d = 12
    bad_a = 0
    for _ in range(30):
        S1 = _rand_poly(rng, rng.randint(0, d // 2))
        odd = [rng.randint(-3, 3) if t % 2 == 1 else 0 for t in range(d // 3 + 1)]
        S2 = Poly(odd)
        Q = S1.compose(T2) + S2.compose(T3)
        Q = Q - Poly.constant(Q.eval(iv3.a))
        if not Q:
            continue
        if any(moment(P6, Q, iv3, i) for i in range(16)):
            bad_a += 1
    res_a = CriterionResult(
        "A5a",
        "chebyshev-span-kills-moments",
        bad_a == 0,
        ["30 random S1(T2) + S2(T3) members, moments vanish up to i = 15, exact"],
        [] if bad_a == 0 else ["%d members with a nonzero moment" % bad_a],
    )

    # (b) kernel dimension against the closed-form count
    dims = {dd: len(zero_space(P6, iv3, dd, 2 * dd)) for dd in range(6, 13)}
    mismatch = []
    boundary = []
    for dd, got in dims.items():
        formula = chebyshev_zero_space_dim(dd)
        adjusted = dd // 2 + dd // 3 - dd // 6
        if got == formula:
            continue
        if got == adjusted and abs(formula - got) == 1:
            boundary.append(dd)
        else:
            mismatch.append((dd, got, formula, adjusted))
    passed_b = not mismatch
    details_b = [
        "kernel dims for d = 6..12: %s" % {k: v for k, v in sorted(dims.items())},
        "closed form [(d+1)/2]+[(d+1)/3]-[(d+1)/6]: %s"
        % {dd: chebyshev_zero_space_dim(dd) for dd in range(6, 13)},
    ]
    findings_b = []
    if boundary:
        findings_b.append(
            "boundary off-by-one at d in %s: the closed form counts the degree "
            "bound as d+1; replacing d+1 by d (i.e. [d/2]+[d/3]-[d/6]) matches "
            "the kernel exactly at every tested degree" % boundary
        )
    if mismatch:
        findings_b.append("unexplained dimension mismatches: %s" % mismatch)
    res_b = CriterionResult(
        "A5b", "zero-space-dimension-formula", passed_b, details_b, findings_b
    )

    # (c) kernel equals the composition span for both benchmark polynomials
    P10, iv11 = _P10, _IV11
    bad_c = []
    for dd in range(2, 13):
        if not zero_space_matches_compositions(P6, iv3, dd, 2 * dd):
            bad_c.append(("chebyshev", dd))
        if not zero_space_matches_compositions(P10, iv11, dd, 2 * dd):
            bad_c.append(("power", dd))
    res_c = CriterionResult(
        "A5c",
        "zero-space-equals-composition-span",
        not bad_c,
        ["moment kernel == composition span for d = 2..12, both benchmarks"],
        ["mismatch at %s d=%d" % t for t in bad_c],
    )
    return [res_a, res_b, res_c]


# -- A6 -----------------------------------------------------------------------------


def a6_factors(seed: int) -> CriterionResult:
    rng = random.Random(seed + 6)
    P6, iv3 = _P6, _IV3
    fs6 = indecomposable_factors(P6, iv3)
    rep6 = structure_report(P6, iv3)
    ok6 = fs6.s == 2 and fs6.degrees == (2, 3) and rep6.tag == "chebyshev-like"

    P10, iv11 = _P10, _IV11
    fs10 = indecomposable_factors(P10, iv11)
    rep10 = structure_report(P10, iv11)
    want10 = (Poly([0, 0, 1]), Poly([0, -1, 0, 0, 0, 1]))
    ok10 = fs10.s == 2 and fs10.factors == want10 and rep10.tag == "power-like"

    bad_small = 0
    max_s = max(fs6.s, fs10.s)
    for _ in range(100):
        iv = _rand_interval(rng)
        P = _rand_pcpoly(rng, iv, 5, dense=True)
        while P.degree < 2:
            P = _rand_pcpoly(rng, iv, 5, dense=True)
        s = indecomposable_factors(P, iv).s
        max_s = max(max_s, s)
        if not is_definite(P, iv):
            bad_small += 1
    passed = ok6 and ok10 and bad_small == 0 and max_s <= 3
    details = [
        "degree-6 Chebyshev benchmark: s = %d, degrees %s, tag %s" % (fs6.s, fs6.degrees, rep6.tag),
        "degree-10 power benchmark: s = %d, factors as expected: %s, tag %s"
        % (fs10.s, fs10.factors == want10, rep10.tag),
        "100 dense random endpoint-vanishing polynomials of degree <= 5: all definite",
        "max s observed anywhere: %d (bound: 3)" % max_s,
    ]
    findings = []
    if not ok6:
        findings.append("degree-6 benchmark mismatch: %s" % (fs6,))
    if not ok10:
        findings.append("degree-10 benchmark mismatch: %s" % (fs10,))
    if bad_small:
        findings.append("%d low-degree polynomials reported non-definite" % bad_small)
    return CriterionResult("A6", "factor-enumeration", passed, details, findings)


# -- A7 -----------------------------------------------------------------------------


def a7_cc(seed: int) -> CriterionResult:
    rng = random.Random(seed + 7)
    bad = []
    reports_checked = 0
    for idx in range(30):
        iv = _rand_interval(rng)
        P, Q, W = _cc_pair(rng, iv)
        w = cc_check(P, Q, iv)
        if w is None:
            bad.append("pair %d: no witness found" % idx)
            continue
        if w.P_reduced.compose(w.W) != P or w.Q_reduced.compose(w.W) != Q:
            bad.append("pair %d: witness does not recompose" % idx)
        if cc_check(Q, P, iv) is None:
            bad.append("pair %d: asymmetric result" % idx)
        # the perturbed pair must be rejected: x^7 breaks the equal-endpoint
        # requirement on every real interval, and without it there is no
        # composition witness
        perturbed = Q + Poly.monomial(7)
        try:
            if cc_check(P, perturbed, iv) is not None:
                bad.append("pair %d: perturbed pair accepted" % idx)
        except NotClosedError:
            pass
        if idx < 5:
            Ppc = P - Poly.constant(P.eval(iv.a))
            Qpc = Q - Poly.constant(Q.eval(iv.a))
            rep = parametric_structure_report(Ppc, Qpc, iv, 8, 10)
            reports_checked += 1
            if not rep.consistent:
                bad.append("pair %d: classification consistency violated" % idx)
    # symmetry on pairs without a witness
    neg = [(Poly([0, 0, 1]), Poly([0, -1, 0, 1]), Interval(-1, 1))]
    for _ in range(10):
        iv = _rand_interval(rng)
        A = _rand_pcpoly(rng, iv, 6)
        B = _rand_pcpoly(rng, iv, 6)
        if A.degree >= 1 and B.degree >= 1:
            neg.append((A, B, iv))
    for A, B, iv in neg:
        fwd = cc_check(A, B, iv) is not None
        rev = cc_check(B, A, iv) is not None
        if fwd != rev:
            bad.append("symmetry broken on a random pair")
    passed = not bad
    details = [
        "30 constructed composition pairs: witness found, exact recomposition",
        "perturbation by x^7 rejected every time",
        "cc_check symmetric on composition, perturbed, and random pairs",
        "classification reports consistent on %d spot-checked pairs" % reports_checked,
    ]
    return CriterionResult("A7", "composition-checker", passed, details, bad[:10])


# -- A8 / A9 ------------------------------------------------------------------------

_CUBIC_MONOMIALS = [
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
    (1, 1, 1),
    (1, 0, 2),
    (0, 3, 0),
    (0, 2, 1),
    (0, 1, 2),
    (0, 0, 3),
]


def _family_pair(alpha, beta, gamma):
    """P = cos 3t and Q = alpha sin 2t + beta cos 2t + gamma cos 6t."""
    P, Q = build_family(3, 2, {1: (1, 0)}, {1: (beta, alpha)})
    R = Poly([0, -3, 0, 4]).scale(gamma)  # gamma * (4z^3 - 3z): cos 6t from cos 2t
    return P, modify_family(Q, 2, R)


def _fit_certificate_cubic():
    """Interpolate the (3,2) moment as an exact cubic form in (alpha, beta, gamma).

    Points (1, b, c) with b, c in 0..3 separate the ten cubic monomials
    (each has a distinct (beta, gamma) exponent pair), so the system has a
    unique solution; uniqueness is re-checked through the kernel.
    """
    pts = [(1, b, c) for b in range(4) for c in range(4)]
    rows = []
    rhs = []
    for (a, b, c) in pts:
        rows.append(
            [rational(a**i * b**j * c**k) for (i, j, k) in _CUBIC_MONOMIALS]
        )
        P, Q = _family_pair(rational(a), rational(b), rational(c))
        rhs.append(trig_moment(P, Q, 3, 2).coeff)
    ncols = len(_CUBIC_MONOMIALS)
    if kernel_basis(rows, ncols):
        return None
    sol = solve(rows, rhs, ncols)
    if sol is None:
        return None
    return {m: c for m, c in zip(_CUBIC_MONOMIALS, sol) if c}


def _cubic_to_text(coeffs: dict) -> str:
    names = ("alpha", "beta", "gamma")
    parts = []
    for mono, c in sorted(coeffs.items(), reverse=True):
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        parts.append("(%s)*%s" % (c, "*".join(factors)))
    return " + ".join(parts) if parts else "0"


def a8_trig_family(seed: int) -> CriterionResult:
    rng = random.Random(seed + 8)
    bad = []

    # vanishing of both first-moment families for random members
    for _ in range(8):
        alpha, beta, gamma = (_rand_scalar(rng) for _ in range(3))
        P, Q = _family_pair(alpha, beta, gamma)
        if not first_moments_vanish(P, Q, 12):
            bad.append("first moments fail at some i <= 12")

    # certificate anchor at (1, 0, 0)
    P, Q = _family_pair(ONE, ZERO, ZERO)
    cert = non_cc_certificate(P, Q, 6, 6)
    want = rational(3, 4)
    if cert is None or cert[:2] != (3, 2) or cert[2].coeff != want:
        bad.append("certificate at (1,0,0) is %s, expected (3, 2, 3/4*pi)" % (cert,))

    # vanishing at (sqrt 3, 1, gamma): the locus alpha^2 = 3 beta^2
    r3 = sqrtD(3)
    P, Q = _family_pair(r3, ONE, rational(2))
    if trig_moment(P, Q, 3, 2):
        bad.append("(3,2) moment does not vanish at alpha=sqrt(3), beta=1")

    # the full cubic identity
    coeffs = _fit_certificate_cubic()
    expected = {(3, 0, 0): rational(3, 4), (1, 2, 0): rational(-9, 4)}
    ident_ok = coeffs == expected
    if not ident_ok:
        bad.append("fitted cubic %s differs from (3/4)a^3 - (9/4)ab^2" % coeffs)
    identity = _cubic_to_text(coeffs) if coeffs else "fit failed"

    passed = not bad
    details = [
        "families with d1 = 3, d2 = 2; both first-moment families vanish to i = 12",
        "certificate at (alpha,beta,gamma) = (1,0,0): (i,j) = (3,2), value 3/4*pi",
        "certificate vanishes on alpha^2 = 3 beta^2 (checked at alpha = sqrt 3, beta = 1)",
        "full (3,2) value as a cubic identity: %s * pi" % identity,
        "vanishing locus: alpha * (alpha^2 - 3 beta^2) = 0, independent of gamma",
    ]
    return CriterionResult("A8", "trig-family-certificates", passed, details, bad[:10])


def a9_modified_family(seed: int) -> CriterionResult:
    rng = random.Random(seed + 9)
    bad = 0
    for _ in range(20):
        q_spec = {}
        for l in (1, 2, 4, 5):
            if rng.random() < 0.7:
                q_spec[l] = (_rand_scalar(rng), _rand_scalar(rng))
        if not q_spec:
            q_spec[1] = (ONE, ZERO)
        P, Q = build_family(3, 2, {1: (1, 0)}, q_spec)
        R = _rand_poly(rng, rng.randint(0, 3))
        if not first_moments_vanish(P, modify_family(Q, 2, R), 10):
            bad += 1
    passed = bad == 0
    return CriterionResult(
        "A9",
        "modified-family-linearity",
        passed,
        ["20 random modifications R(cos 2t), both moment families vanish to i = 10"],
        [] if passed else ["%d modified families with a nonzero moment" % bad],
    )


# -- A10 ----------------------------------------------------------------------------


def _u_poly(rng, iv: Interval, kind: str) -> Poly:
    """Random endpoint-vanishing polynomial with exponents that are powers
    of 2 or coprime to 2 (plus a free constant).

    kind "even": support {0,2,4,8} on a symmetric interval; "narrow":
    support {0,1,2,4,8} (so the polynomial itself lives in the candidate
    space); "general": odd exponents mixed with powers of 2.  The endpoint
    conditions fix x^2 for "even" (one condition, by symmetry), else x, x^4.
    """
    if kind == "even":
        coeffs = [ZERO] * 9
        coeffs[0] = _rand_scalar(rng)
        for e in (4, 8):
            coeffs[e] = _rand_scalar(rng)
        if not any(coeffs[e] for e in (4, 8)):
            coeffs[8] = ONE
        P = Poly(coeffs)
    elif kind == "narrow":
        coeffs = [ZERO] * 9
        coeffs[0] = _rand_scalar(rng)
        for e in (2, 8):
            coeffs[e] = _rand_scalar(rng)
        if not coeffs[8]:
            coeffs[8] = ONE
        P = Poly(coeffs)
    else:
        coeffs = [ZERO] * 12
        coeffs[0] = _rand_scalar(rng)
        for e in (3, 5, 7, 9, 11, 2, 8):
            if rng.random() < 0.6:
                coeffs[e] = _rand_scalar(rng)
        if not any(coeffs[e] for e in (3, 5, 7, 9, 11, 2, 8)):
            coeffs[11] = ONE
        P = Poly(coeffs)
    closing = (2,) if kind == "even" else (1, 4)
    ends = (iv.a, iv.b)
    c = solve([[t**e for e in closing] for t in ends], [-P.eval(t) for t in ends], len(closing))
    return P + _combination(c, [Poly.monomial(e) for e in closing])


def _ur_samples(seed: int):
    """A10's ten base polynomials with their intervals: four "even", three
    "narrow" and three "general" (see _u_poly)."""
    rng = random.Random(seed + 10)
    for idx in range(10):
        kind = "even" if idx < 4 else ("narrow" if idx < 7 else "general")
        if kind == "even":
            c = rational(rng.randint(1, 2), rng.choice([1, 2]))
            iv = Interval(-c, c)
        else:
            iv = rng.choice([Interval(1, 2), Interval(-2, -1), Interval(rational(1, 2), rational(3, 2))])
        yield _u_poly(rng, iv, kind), iv


def _ur_kernel(P: Poly, iv: Interval):
    """The certified zero space of P at degree 8, cut down to the
    polynomials supported on {0,1,2,4,8}: no x^3, x^5, x^6 or x^7 term."""
    zs = zero_space(P, iv, 8, 16)
    kernel = kernel_basis([[f[e] for f in zs] for e in (3, 5, 6, 7)], len(zs))
    return [_combination(v, zs) for v in kernel]


def a10_prime_support(seed: int) -> CriterionResult:
    bad = []
    kernel_sizes = []
    for idx, (P, iv) in enumerate(_ur_samples(seed)):
        if not exponent_condition(P, {2}, "U"):
            bad.append("sample %d: base polynomial leaves the allowed support" % idx)
            continue
        try:
            kernel = _ur_kernel(P, iv)
        except KernelNotStabilizedError:
            bad.append("sample %d: moment kernel not stabilized" % idx)
            continue
        kernel_sizes.append(len(kernel))
        # kernel elements are nonzero and vanish at both endpoints, so each
        # is a closed pair with P and cc_check reduces to P's classes
        classes = indecomposable_factors(P, iv) if kernel else None
        for Q in kernel:
            if not exponent_condition(Q, {2}, "U1"):
                bad.append("sample %d: kernel element leaves the allowed support" % idx)
            elif _common_factor(P, Q, classes) is None:
                bad.append("sample %d: kernel element without composition witness" % idx)
    passed = not bad
    details = [
        "10 random base polynomials with power-of-2 / odd exponent support, degree <= 12",
        "moment kernels over the {1, 2, 4, 8}-supported pairs: sizes %s" % kernel_sizes,
        "every kernel element admits a composition witness with the base",
    ]
    return CriterionResult("A10", "prime-support-definiteness", passed, details, bad[:10])


# -- suite registry ------------------------------------------------------------------


# Each suite's criterion functions, in order; "all" runs A1..A10.
SUITES = {
    "all": (
        a1_stratification,
        a2_moment_columns,
        a3_series_match,
        a4_melnikov,
        a5_zero_space,
        a6_factors,
        a7_cc,
        a8_trig_family,
        a9_modified_family,
        a10_prime_support,
    ),
    "stratify": (a1_stratification,),
    "columns": (a2_moment_columns,),
    "series": (a3_series_match,),
    "melnikov": (a4_melnikov,),
    "zspace": (a5_zero_space,),
    "factors": (a6_factors,),
    "cc": (a7_cc,),
    "trig": (a8_trig_family, a9_modified_family),
    "ur": (a10_prime_support,),
}


def run_suite(name: str, seed: int = 7):
    """The results of the suite's criteria, in order; A4 and A5 give three each."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have %s)" % (name, sorted(SUITES)))
    out = []
    for criterion in SUITES[name]:
        res = criterion(seed)
        out.extend(res if isinstance(res, list) else [res])
    return out
