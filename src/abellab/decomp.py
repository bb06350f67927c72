"""Right composition factors with equal endpoint values.

For a polynomial P with P(a) = P(b), a *right factor on [a, b]* is a
polynomial W with W(a) = W(b) and P = S(W) for some polynomial S.  Two
factors are equivalent when they differ by a degree-one left composition,
so each class is represented here by its monic member with zero constant
term.  In characteristic zero a polynomial has at most one factor class
per degree, and the class coefficients are determined successively from
the top coefficients of P; candidates are built that way and then
verified exactly by subring membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FactorBoundError, NotClosedError, PreconditionError
from .field import ONE, ZERO, Scalar
from .poly import Interval, Poly, chebyshev, in_subring


def _divisors_between(n: int):
    """Divisors m of n with 1 < m <= n, ascending."""
    return [m for m in range(2, n + 1) if n % m == 0]


def _top_candidate(P: Poly, m: int) -> Poly:
    """The unique monic, zero-constant candidate factor of degree m.

    If P = S(V) with deg V = m and N = n*m, then for t < m the coefficient
    of x^(N-t) in P is lc * v_t, where v = U^n and U(y) = y^m V(1/y) =
    1 + u_1 y + ... is V reversed; so u_1..u_(m-1) are pinned one by one,
    while the constant term of V is free and normalized to zero.  A power
    of a series obeys t v_t = sum_{j=1..t} ((n+1) j - t) u_j v_(t-j)
    (J. C. P. Miller's recurrence), whose j = t term is n t u_t, so u_t is
    solved from v_0..v_t = P[N]/lc..P[N-t]/lc with no power of V formed.
    """
    N = P.degree
    n = N // m
    lc = P.leading()
    v = [P[N - k] / lc for k in range(m)]
    u = [ONE]
    for t in range(1, m):
        rest = ZERO
        for j in range(1, t):
            rest = rest + u[j] * v[t - j] * ((n + 1) * j - t)
        u.append((v[t] - rest / t) / n)
    return Poly([ZERO] + u[:0:-1] + [ONE])


@dataclass(frozen=True)
class FactorSet:
    """Normalized right factor classes of one polynomial, ascending by
    degree, and the indecomposable classes among them."""

    factors: tuple
    minimal: tuple

    @property
    def s(self) -> int:
        return len(self.minimal)

    @property
    def degrees(self):
        return tuple(W.degree for W in self.factors)


def right_factors(P: Poly, iv: Interval) -> FactorSet:
    """All right factor classes of P on the interval, one per degree.

    Includes P's own class.  Requires P nonconstant with equal endpoint
    values.
    """
    if P.is_constant():
        raise PreconditionError("P must be nonconstant")
    if P.eval(iv.a) != P.eval(iv.b):
        raise NotClosedError("not an [a,b]-closed polynomial")
    found = []
    for m in _divisors_between(P.degree):
        W = _top_candidate(P, m)
        if W.eval(iv.a) != W.eval(iv.b):
            continue
        if in_subring(P, W) is None:
            continue
        found.append(W)
    minimal = _minimal_factors(found)
    if len(minimal) > 3:
        raise FactorBoundError(
            "found %d indecomposable factor classes; at most 3 are possible"
            % len(minimal)
        )
    return FactorSet(tuple(found), minimal)


def _minimal_factors(factors):
    """Factors with no proper factor of their own inside the list.

    For right factors V and W of one polynomial, C[V, W] = C[U] with
    deg U = gcd(deg V, deg W) (Engstrom, "Polynomial substitutions", Amer.
    J. Math. 63, 1941), and there is one class per degree, so W lies in
    C[V] exactly when deg V divides deg W.
    """
    degrees = [V.degree for V in factors]
    return tuple(
        W for W in factors if not any(e < W.degree and W.degree % e == 0 for e in degrees)
    )


def indecomposable_factors(P: Poly, iv: Interval) -> FactorSet:
    """The minimal right factor classes (no proper factor of their own),
    ascending by degree; s equals the count."""
    minimal = right_factors(P, iv).minimal
    return FactorSet(minimal, minimal)


def is_definite(P: Poly, iv: Interval) -> bool:
    """True when P has a single indecomposable factor class.

    Such P force the composition condition on any polynomial whose moments
    against P all vanish.  Requires P(a) = P(b) = 0.
    """
    if P.eval(iv.a) or P.eval(iv.b):
        raise PreconditionError("P must vanish at both endpoints")
    return indecomposable_factors(P, iv).s == 1


@dataclass(frozen=True)
class Witness:
    """A common-factor witness: P = P_reduced(W), Q = Q_reduced(W)."""

    W: Poly
    P_reduced: Poly
    Q_reduced: Poly


def cc_check(P: Poly, Q: Poly, iv: Interval):
    """Composition-condition witness for (P, Q), or None.

    Any common right factor with equal endpoint values is itself a
    composite of one of P's indecomposable factor classes, so testing Q
    against each of those classes decides the condition.
    """
    _check_closed_pair(P, Q, iv)
    return _common_factor(P, Q, indecomposable_factors(P, iv))


def _check_closed_pair(P: Poly, Q: Poly, iv: Interval):
    """Raise unless P and Q are nonconstant with equal endpoint values."""
    for name, F in (("P", P), ("Q", Q)):
        if F.is_constant():
            raise PreconditionError("%s must be nonconstant" % name)
        if F.eval(iv.a) != F.eval(iv.b):
            raise NotClosedError("not an [a,b]-closed polynomial (%s)" % name)


def _common_factor(P: Poly, Q: Poly, classes: FactorSet):
    """``cc_check`` on P's indecomposable classes, already computed."""
    for W in classes.factors:
        Qr = in_subring(Q, W)
        if Qr is not None:
            return Witness(W, in_subring(P, W), Qr)
    return None


def is_chebyshev_conjugate(W: Poly) -> bool:
    """Is W = sigma . T_m . tau for degree-one sigma, tau (complex scalars allowed)?

    After recentring to kill the subleading coefficient, W must match
    alpha*T_m(u*x) + beta coefficient-by-coefficient; only u^2 enters, so
    the test stays inside the scalar field.
    """
    m = W.degree
    if m is None or m < 2:
        return False
    if m == 2:
        return True
    shift = -W[m - 1] / (Scalar.coerce(m) * W[m])
    V = W.compose(Poly([shift, ONE]))
    T = chebyshev(m)
    for k in range(1, m):
        if (m - k) % 2 == 1 and V[k]:
            return False
    A = V[m] / T[m]
    if not V[m - 2]:
        return False
    U = A * T[m - 2] / V[m - 2]  # u^2
    if not U:
        return False
    Upow = U
    for j in range(2, (m - 1) // 2 + 1):
        Upow = Upow * U
        k = m - 2 * j
        if k < 1:
            break
        if V[k] * Upow != A * T[k]:
            return False
    return True


@dataclass(frozen=True)
class StructureReport:
    s: int
    factor_degrees: tuple
    definite: bool
    tag: str
    factors: tuple


def structure_report(P: Poly, iv: Interval) -> StructureReport:
    """Classification summary: factor count, degrees, definiteness, shape tag.

    For s = 2 the two possible shapes are distinguished structurally:
    when both minimal factors are Chebyshev conjugates the pair behaves
    like T_n, T_m of a common T_nm ("chebyshev-like"); otherwise one
    factor plays the role of a power and the tag is "power-like".
    """
    fs = indecomposable_factors(P, iv)
    s = fs.s
    if s == 1:
        tag = "single"
    elif s == 3:
        tag = "triple"
    else:
        if all(is_chebyshev_conjugate(W) for W in fs.factors):
            tag = "chebyshev-like"
        else:
            tag = "power-like"
    in_p = not P.eval(iv.a) and not P.eval(iv.b)
    return StructureReport(
        s=s,
        factor_degrees=fs.degrees,
        definite=(s == 1) and in_p,
        tag=tag,
        factors=fs.factors,
    )
