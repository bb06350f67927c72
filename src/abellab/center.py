"""Return-map coefficients of y' = p(x) y^3 + q(x) y^2 and their
parameter stratification.

The solution with initial value y(a) = s expands as y(x) = sum c_k(x) s^k
with c_1 = 1 and, for k >= 2,

    c_k = primitive_a[ p * sum_{i+j+l=k} c_i c_j c_l
                       + q * sum_{i+j=k} c_i c_j ],

so the forward map s -> y(b) has coefficients v_k = c_k(b).  Scaling p
by a formal parameter and running the same recursion with
polynomial-in-parameter coefficients yields the stratified table v_{k,j};
the table for a parameter on q is its re-indexing by weight, and the
backward map is obtained by exact series reversion.  All arithmetic is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError
from .field import ONE, ZERO, Scalar
from .poly import Interval, PCPair, Poly, _raw, definite_integral

EPS_ON_Q = "eps_on_q"
DELTA_ON_P = "delta_on_p"
FORWARD = "forward"
BACKWARD = "backward"


# -- iterated integrals ------------------------------------------------------


def iterated_integral(alpha, h1: Poly, h2: Poly, iv: Interval) -> Scalar:
    """Nested integral over [a,b] of h_{alpha_1} int h_{alpha_2} int ...

    Computed inside out: repeatedly multiply by the current h and take the
    primitive based at a, then evaluate at b.
    """
    alpha = tuple(alpha)
    if not alpha or any(i not in (1, 2) for i in alpha):
        raise ValueError("multi-index must be a nonempty sequence over {1,2}")
    g = Poly.one()
    for idx in reversed(alpha):
        h = h1 if idx == 1 else h2
        g = (h * g).primitive(iv.a)
    return g.eval(iv.b)


# -- the flow recursion -------------------------------------------------------


def _pp_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, poly in enumerate(g):
        out[i] = out[i] + poly
    while out and out[-1].is_zero():
        out.pop()
    return out


def _pp_mul(f, g):
    if not f or not g:
        return []
    out = [Poly.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    while out and out[-1].is_zero():
        out.pop()
    return out


def _flow_coefficients(p_slots, q_slots, a, K: int):
    """c_k as polynomials in x with polynomial-in-parameter coefficients.

    ``p_slots`` / ``q_slots`` hold the inputs by parameter power, e.g.
    [0, p] when a formal parameter multiplies p.
    """
    one = [Poly.one()]
    c = {1: one}
    u2 = {}
    for k in range(2, K + 1):
        # sum_{i+j=k} c_i c_j is symmetric: twice the terms with i < j,
        # plus the square c_{k/2}^2 when k is even
        acc2 = []
        for i in range(1, (k + 1) // 2):
            acc2 = _pp_add(acc2, _pp_mul(c[i], c[k - i]))
        acc2 = [poly.scale(2) for poly in acc2]
        if k % 2 == 0:
            acc2 = _pp_add(acc2, _pp_mul(c[k // 2], c[k // 2]))
        u2[k] = acc2
        acc3 = []
        for i in range(1, k - 1):
            acc3 = _pp_add(acc3, _pp_mul(c[i], u2[k - i]))
        integrand = _pp_add(_pp_mul(p_slots, acc3), _pp_mul(q_slots, acc2))
        c[k] = [poly.primitive(a) for poly in integrand]
    return c


def poincare_coeffs(p: Poly, q: Poly, iv: Interval, K: int):
    """Forward return-map coefficients [v_2, ..., v_K], exact."""
    if K < 2:
        raise PreconditionError("K must be at least 2")
    c = _flow_coefficients([p], [q], iv.a, K)
    out = []
    for k in range(2, K + 1):
        slot = c[k]
        out.append(slot[0].eval(iv.b) if slot else ZERO)
    return out


# -- series reversion ----------------------------------------------------------


def _series_mul(A, B, K, zero):
    out = [zero] * (K + 1)
    for i in range(1, K):
        a = A[i]
        if not a:
            continue
        for j in range(1, K + 1 - i):
            b = B[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return out


def _revert(vs, zero, one):
    """Coefficients [w_2..w_K] with (y + sum w y^k) o (y + sum v y^k) = y."""
    K = len(vs) + 1
    G = [zero, one] + list(vs)
    gpow = {1: G}
    cur = G
    for j in range(2, K + 1):
        cur = _series_mul(cur, G, K, zero)
        gpow[j] = cur
    h = {}
    ws = []
    for k in range(2, K + 1):
        acc = G[k]
        for j in range(2, k):
            acc = acc + h[j] * gpow[j][k]
        hk = -acc
        h[k] = hk
        ws.append(hk)
    return ws


def invert_series(v):
    """Invert y + sum v_k y^k (v listed from order 2); exact reversion."""
    vs = [Scalar.coerce(x) for x in v]
    return _revert(vs, ZERO, ONE)


# -- the tabulated iterated-integral expansions --------------------------------

_COMBINATIONS = {
    2: {(1,): -1},
    3: {(1, 1): 2, (2,): -1},
    4: {(1, 1, 1): -6, (1, 2): 3, (2, 1): 2},
    5: {(1, 1, 1, 1): 24, (1, 1, 2): -12, (1, 2, 1): -8, (2, 1, 1): -6, (2, 2): 3},
    6: {
        (1, 1, 1, 1, 1): -120,
        (1, 1, 1, 2): 60,
        (1, 1, 2, 1): 40,
        (1, 2, 1, 1): 30,
        (2, 1, 1, 1): 24,
        (1, 2, 2): -15,
        (2, 1, 2): -12,
        (2, 2, 1): -8,
    },
}


def tabulated_coefficient(k: int, p: Poly, q: Poly, iv: Interval, assignment: str) -> Scalar:
    """Return-map coefficient of order k from its classical tabulated
    expansion in iterated integrals (k = 2..6).

    ``assignment`` fixes which input plays index 1: "h1=p" or "h1=q".
    Under "h1=q" these values equal the backward-map coefficients of the
    forward recursion above.
    """
    if k not in _COMBINATIONS:
        raise PreconditionError("tabulated expansions cover k = 2..6 only")
    if assignment == "h1=p":
        h1, h2 = p, q
    elif assignment == "h1=q":
        h1, h2 = q, p
    else:
        raise ValueError("assignment must be 'h1=p' or 'h1=q'")
    acc = ZERO
    for alpha, coef in _COMBINATIONS[k].items():
        acc = acc + Scalar.coerce(coef) * iterated_integral(alpha, h1, h2, iv)
    return acc


# -- stratified tables -----------------------------------------------------------


@dataclass(frozen=True)
class CenterTable:
    """Stratified return-map coefficients: entries[(k, j)] = coefficient of
    parameter^j in the order-k map coefficient; absent means zero."""

    K: int
    param: str
    direction: str
    entries: dict

    def entry(self, k: int, j: int) -> Scalar:
        return self.entries.get((k, j), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def lowest_stratum(self):
        """The lowest parameter power with a nonzero entry, or None."""
        return min((j for _, j in self.entries), default=None)


@lru_cache(maxsize=8)
def _forward_map(p_key, q_key, a_key, b_key, K: int):
    """v_2..v_K of the forward map with a parameter delta on p, each a
    Poly in delta.

    The arguments are the canonical parts of p, q and the endpoints, so a
    lookup compares integers and never two fields.  Callers ask for the
    tables of one pair in a row, so the few most recent inputs are kept.
    """
    p, q = _raw(*p_key), _raw(*q_key)
    a, b = Scalar(*a_key), Scalar(*b_key)
    c = _flow_coefficients([Poly.zero(), p], [q], a, K)
    return tuple(Poly([poly.eval(b) for poly in c[k]]) for k in range(2, K + 1))


def parametric_table(
    p: Poly, q: Poly, iv: Interval, K: int, param: str, direction: str = FORWARD
) -> CenterTable:
    """The stratified table of (forward or backward) map coefficients.

    The recursion runs once per (p, q, interval, K), with a formal
    parameter delta on p, and both parameters and both directions share
    its result (see _forward_map); the backward direction applies exact
    series reversion over the polynomial-in-parameter ring.  Each c_k is
    weighted homogeneous of weight k-1 when delta weighs 2 and a parameter
    on q weighs 1, and reversion keeps the weight, so the table with the
    parameter on q is the same one re-indexed: delta^t at order k is
    eps^(k-1-2t).
    """
    if K < 2:
        raise PreconditionError("K must be at least 2")
    if direction not in (FORWARD, BACKWARD):
        raise ValueError("direction must be 'forward' or 'backward'")
    if param not in (EPS_ON_Q, DELTA_ON_P):
        raise ValueError("param must be %r or %r" % (EPS_ON_Q, DELTA_ON_P))
    a, b = iv.a, iv.b
    per_k = _forward_map(
        (p.num, p.irr, p.den, p.D),
        (q.num, q.irr, q.den, q.D),
        (a.rat, a.irr, a.D),
        (b.rat, b.irr, b.D),
        K,
    )
    if direction == BACKWARD:
        per_k = _revert(per_k, Poly.zero(), Poly.one())
    entries = {}
    for k, delta_poly in zip(range(2, K + 1), per_k):
        strata = list(enumerate(delta_poly.coeffs))
        if param == EPS_ON_Q:
            strata = [(k - 1 - 2 * t, val) for t, val in reversed(strata)]
        for j, val in strata:
            if val:
                entries[(k, j)] = val
    return CenterTable(K=K, param=param, direction=direction, entries=entries)


@dataclass(frozen=True)
class InfinitesimalOrder:
    """Largest l with all strata below l identically zero up to order K.

    ``order`` is None when every entry up to K vanishes (the truncated
    computation cannot distinguish the order from infinity).
    """

    order: object
    K: int


def infinitesimal_order(
    p: Poly, q: Poly, iv: Interval, K: int, param: str
) -> InfinitesimalOrder:
    lowest = parametric_table(p, q, iv, K, param, FORWARD).lowest_stratum()
    return InfinitesimalOrder(order=lowest, K=K)


# -- quadratic-stratum (Melnikov) expressions ------------------------------------


def melnikov(k: int, P: Poly, Q: Poly, iv: Interval) -> Scalar:
    """The printed quadratic-stratum expressions for k = 6, 7, 8.

    D6 = (1/2) int p Q^2, D7 = -2 int P p Q^2, and D8 combines
    int P^3 Q q with the two nested integrals weighted 320 and 185.
    Requires a primitive pair (P, Q vanish at both endpoints).
    """
    PCPair(P, Q, iv)
    p = P.derivative()
    q = Q.derivative()
    if k == 6:
        return definite_integral(p * Q * Q, iv) / Scalar.coerce(2)
    if k == 7:
        return Scalar.coerce(-2) * definite_integral(P * p * Q * Q, iv)
    if k == 8:
        F1 = (P * q).primitive(iv.a)
        F2 = (P * P * q).primitive(iv.a)
        lead = definite_integral(P * P * P * Q * q, iv)
        nest1 = definite_integral(P * P * q * F1, iv)
        nest2 = definite_integral(P * q * F2, iv)
        return lead - Scalar.coerce(320) * nest1 + Scalar.coerce(185) * nest2
    raise PreconditionError("k must be 6, 7, or 8")


def _half_binomial(i: int) -> Scalar:
    """binom(1/2, i) as an exact scalar."""
    num = ONE
    half = Scalar.coerce(1) / Scalar.coerce(2)
    for t in range(i):
        num = num * (half - Scalar.coerce(t))
    fact = 1
    for t in range(2, i + 1):
        fact *= t
    return num / Scalar.coerce(fact)


def first_order_column(P: Poly, Q: Poly, iv: Interval, i: int, param: str) -> Scalar:
    """Closed-form prediction for the linear-in-parameter table column.

    Derived from the first variation of the unperturbed flow:
    perturbing q gives the coefficients of y_a^2 (1 - 2 P y_a^2)^{1/2}
    integrated against q, i.e. (-2)^i binom(1/2, i) int P^i q at order
    2i+2; perturbing p gives int Q^i p at order i+3.  Independent of the
    recursion, for cross-checking it.
    """
    PCPair(P, Q, iv)
    if i < 0:
        raise PreconditionError("i must be nonnegative")
    if param == DELTA_ON_P:
        return definite_integral((Q**i) * P.derivative(), iv)
    if param == EPS_ON_Q:
        m_i = definite_integral((P**i) * Q.derivative(), iv)
        return Scalar.coerce((-2) ** i) * _half_binomial(i) * m_i
    raise ValueError("param must be %r or %r" % (EPS_ON_Q, DELTA_ON_P))
