import itertools
import random

import pytest

from abellab import center
from abellab.center import (
    BACKWARD,
    DELTA_ON_P,
    EPS_ON_Q,
    FORWARD,
    _flow_coefficients,
    _revert,
    first_order_column,
    infinitesimal_order,
    invert_series,
    iterated_integral,
    melnikov,
    parametric_table,
    poincare_coeffs,
    tabulated_coefficient,
)
from abellab.errors import PreconditionError
from abellab.field import ONE, ZERO, rational, sqrtD
from abellab.poly import Interval, Poly

IV01 = Interval(0, 1)
IV11 = Interval(-1, 1)


def P(*cs):
    return Poly([rational(c) for c in cs])


def rand_pcpair(rng, iv, max_deg):
    quad = Poly([iv.a * iv.b, -(iv.a + iv.b), ONE])
    def one():
        deg = rng.randint(0, max_deg - 2)
        return quad * Poly([rational(rng.randint(-3, 3)) for _ in range(deg)] + [rational(rng.choice([1, -1, 2]))])
    return one(), one()


def test_iterated_examples():
    assert iterated_integral((1, 1), P(1), P(0), IV01) == rational(1, 2)
    assert iterated_integral((1, 2), P(1), P(0, 2), IV01) == rational(1, 3)
    assert iterated_integral((2, 1, 2), P(0), P(0), IV01) == ZERO
    with pytest.raises(ValueError):
        iterated_integral((), P(1), P(1), IV01)
    with pytest.raises(ValueError):
        iterated_integral((1, 3), P(1), P(1), IV01)


def test_poincare_riccati_case():
    vs = poincare_coeffs(P(0), P(1), IV01, 8)
    assert vs == [ONE] * 7  # y -> y/(1-y)


def test_poincare_constant_case():
    vs = poincare_coeffs(P(1), P(1), IV01, 6)
    assert vs == [rational(1), rational(2), rational(7, 2), rational(41, 6), rational(53, 4)]


def test_poincare_zero_case():
    assert poincare_coeffs(P(0), P(0), IV01, 9) == [ZERO] * 8


def test_invert_series_examples():
    c = rational(5, 3)
    assert invert_series([c]) == [-c]
    v2, v3 = rational(2), rational(-1, 2)
    w = invert_series([v2, v3])
    assert w[1] == rational(2) * v2 * v2 - v3
    # geometric: v_k = c^{k-1} inverts to w_k = (-c)^{k-1}
    geo = [c ** (k - 1) for k in range(2, 9)]
    inv = invert_series(geo)
    assert inv == [(-c) ** (k - 1) for k in range(2, 9)]


def test_invert_series_is_an_involution():
    rng = random.Random(17)
    vs = [rational(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(9)]
    assert invert_series(invert_series(vs)) == vs


def test_tabulated_examples():
    assert tabulated_coefficient(4, P(1), P(1), IV01, "h1=q") == rational(3, 2)
    assert tabulated_coefficient(2, P(1), P(0), IV01, "h1=q") == ZERO
    assert tabulated_coefficient(6, P(1), P(1), IV01, "h1=q") == rational(-5, 12)
    with pytest.raises(PreconditionError):
        tabulated_coefficient(7, P(1), P(1), IV01, "h1=q")


def test_backward_table_matches_tabulated():
    rng = random.Random(23)
    for _ in range(10):
        p = Poly([rational(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))])
        q = Poly([rational(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))])
        vs = poincare_coeffs(p, q, IV11, 6)
        ws = invert_series(vs)
        for k in range(2, 7):
            assert ws[k - 2] == tabulated_coefficient(k, p, q, IV11, "h1=q")


def test_parametric_examples():
    Pp, Q = P(-1, 0, 1), P(0, -1, 0, 1)
    t = parametric_table(Pp.derivative(), Q.derivative(), IV11, 6, EPS_ON_Q, FORWARD)
    assert t.entry(4, 1) == rational(-8, 15)

    P3, Q3 = P(0, -1, 1), P(0, 2, -3, 1)
    t3 = parametric_table(P3.derivative(), Q3.derivative(), IV01, 6, EPS_ON_Q, FORWARD)
    assert t3.entry(5, 2) == rational(-1, 140)

    # a composition pair has an identically zero table
    W = P(0, 0, 1)
    Pc = P(1, -2).compose(W) - Poly.constant(P(1, -2).eval(ONE))
    Qc = P(0, -1, 1).compose(W) - Poly.constant(P(0, -1, 1).eval(ONE))
    tc = parametric_table(Pc.derivative(), Qc.derivative(), IV11, 9, EPS_ON_Q, FORWARD)
    assert tc.is_zero()


def test_support_laws_random():
    rng = random.Random(31)
    for _ in range(15):
        Pp, Q = rand_pcpair(rng, IV11, 6)
        p, q = Pp.derivative(), Q.derivative()
        eps = parametric_table(p, q, IV11, 9, EPS_ON_Q, FORWARD)
        for (k, j) in eps.entries:
            assert j % 2 == (k - 1) % 2 and 1 <= j <= k - 3
        delta = parametric_table(p, q, IV11, 9, DELTA_ON_P, FORWARD)
        for (k, j) in delta.entries:
            assert j <= k // 2 - 1
        # the two parameterizations carry the same values under the
        # appearance-count reindexing: eps stratum j (q count) matches
        # delta stratum (k-1-j)/2 (p count)
        assert set(eps.entries) == {(k, k - 1 - 2 * j) for (k, j) in delta.entries}
        for (k, j), val in eps.entries.items():
            assert delta.entry(k, (k - 1 - j) // 2) == val


def ref_eps_table(p, q, iv, K, direction):
    """Entries of the parameter-on-q table from a recursion with the
    parameter in q's slot, the path parametric_table ran before it
    re-indexed the parameter-on-p recursion."""
    c = _flow_coefficients([p], [Poly.zero(), q], iv.a, K)
    per_k = [Poly([poly.eval(iv.b) for poly in c[k]]) for k in range(2, K + 1)]
    if direction == BACKWARD:
        per_k = _revert(per_k, Poly.zero(), Poly.one())
    return {
        (k, j): val
        for k, eps_poly in zip(range(2, K + 1), per_k)
        for j, val in enumerate(eps_poly.coeffs)
        if val
    }


@pytest.mark.parametrize("D", [None, 3])
def test_eps_table_is_the_reindexed_delta_recursion(D):
    rng = random.Random(37 if D is None else 43)
    r3 = sqrtD(3)

    def coeff():
        c = rational(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        return c if D is None else c + rational(rng.randint(-2, 2), rng.choice([1, 2])) * r3

    ivs = [IV11, Interval(0, 1)] if D is None else [Interval(-r3 / 2, r3 / 2), Interval(0, r3)]
    surds = 0
    for n in range(8):
        iv = ivs[n % 2]
        p = Poly([coeff() for _ in range(rng.randint(1, 4))])
        q = Poly([coeff() for _ in range(rng.randint(1, 4))])
        K = rng.randint(2, 9)
        for direction in (FORWARD, BACKWARD):
            got = parametric_table(p, q, iv, K, EPS_ON_Q, direction).entries
            want = ref_eps_table(p, q, iv, K, direction)
            assert list(got.items()) == list(want.items())
            surds += sum(1 for v in want.values() if v.irr)
    assert (surds > 0) == (D is not None)


def test_unknown_param_is_rejected():
    with pytest.raises(ValueError):
        parametric_table(P(1), P(0, 1), IV11, 4, "eps_on_p")


def test_backward_direction_table():
    Pp, Q = P(-1, 0, 1), P(0, -1, 0, 1)
    p, q = Pp.derivative(), Q.derivative()
    fwd = parametric_table(p, q, IV11, 6, EPS_ON_Q, FORWARD)
    bwd = parametric_table(p, q, IV11, 6, EPS_ON_Q, BACKWARD)
    # first-order strata only flip sign under reversion
    for (k, j), val in fwd.entries.items():
        if j == 1:
            assert bwd.entry(k, j) == -val


def test_melnikov_examples():
    P3, Q3 = P(0, -1, 1), P(0, 2, -3, 1)
    assert melnikov(6, P3, Q3, IV01) == rational(-1, 280)
    assert melnikov(6, P3, Poly.zero(), IV01) == ZERO
    assert melnikov(7, P3, Poly.zero(), IV01) == ZERO
    assert melnikov(8, P3, Poly.zero(), IV01) == ZERO
    W = P(0, 0, 1)
    Pc = P(0, 1, 1).compose(W) - Poly.constant(rational(2))
    Qc = P(0, -2, 1).compose(W) - Poly.constant(rational(-1))
    for k in (6, 7, 8):
        assert melnikov(k, Pc, Qc, IV11) == ZERO
    with pytest.raises(PreconditionError):
        melnikov(9, P3, Q3, IV01)
    with pytest.raises(PreconditionError):
        melnikov(6, P(1, 1), Q3, IV01)


def test_infinitesimal_order():
    Pp, Q = P(-1, 0, 1), P(0, -1, 0, 1)
    res = infinitesimal_order(Pp.derivative(), Q.derivative(), IV11, 8, EPS_ON_Q)
    assert res.order == 1 and res.K == 8
    res0 = infinitesimal_order(Pp.derivative(), Poly.zero(), IV11, 10, EPS_ON_Q)
    assert res0.order is None
    W = P(0, 0, 1)
    Pc = P(1, -2).compose(W) - Poly.constant(P(1, -2).eval(ONE))
    Qc = P(0, -1, 1).compose(W) - Poly.constant(P(0, -1, 1).eval(ONE))
    resc = infinitesimal_order(Pc.derivative(), Qc.derivative(), IV11, 12, EPS_ON_Q)
    assert resc.order is None


def test_first_order_column_examples():
    Pp, Q = P(-1, 0, 1), P(0, -1, 0, 1)
    assert first_order_column(Pp, Q, IV11, 0, DELTA_ON_P) == ZERO
    assert first_order_column(Pp, Q, IV11, 1, EPS_ON_Q) == rational(-8, 15)
    P3, Q3 = P(0, -1, 1), P(0, 2, -3, 1)
    assert first_order_column(P3, Q3, IV01, 2, DELTA_ON_P) == rational(-1, 140)


def test_parametric_pipeline_matches_plain_runs():
    # evaluating the formal-parameter tables at fixed rational parameter
    # values must reproduce plain (unstratified) runs, both directions
    rng = random.Random(53)
    for _ in range(4):
        Pp, Q = rand_pcpair(rng, IV11, 6)
        p, q = Pp.derivative(), Q.derivative()
        fwd = parametric_table(p, q, IV11, 7, EPS_ON_Q, FORWARD)
        bwd = parametric_table(p, q, IV11, 7, EPS_ON_Q, BACKWARD)
        for eps0 in (rational(0), rational(1), rational(-2), rational(1, 2)):
            plain = poincare_coeffs(p, q.scale(eps0), IV11, 7)
            for k in range(2, 8):
                want = plain[k - 2]
                got = sum(
                    (val * eps0**j for (kk, j), val in fwd.entries.items() if kk == k),
                    ZERO,
                )
                assert got == want
            plain_back = invert_series(plain)
            for k in range(2, 8):
                got = sum(
                    (val * eps0**j for (kk, j), val in bwd.entries.items() if kk == k),
                    ZERO,
                )
                assert got == plain_back[k - 2]


def test_delta_param_matches_plain_runs():
    rng = random.Random(59)
    Pp, Q = rand_pcpair(rng, IV11, 5)
    p, q = Pp.derivative(), Q.derivative()
    fwd = parametric_table(p, q, IV11, 6, DELTA_ON_P, FORWARD)
    for d0 in (rational(1), rational(-1), rational(3)):
        plain = poincare_coeffs(p.scale(d0), q, IV11, 6)
        for k in range(2, 7):
            got = sum(
                (val * d0**j for (kk, j), val in fwd.entries.items() if kk == k),
                ZERO,
            )
            assert got == plain[k - 2]


def test_affine_invariance_of_coefficients():
    rng = random.Random(41)
    for _ in range(8):
        p = Poly([rational(rng.randint(-2, 2)) for _ in range(3)])
        q = Poly([rational(rng.randint(-2, 2)) for _ in range(3)])
        vs = poincare_coeffs(p, q, IV11, 7)
        u, v = rational(rng.choice([2, 3, -1]), rng.choice([1, 2])), rational(rng.randint(-2, 2))
        tau = Poly([v, u])
        pullback = lambda f: f.compose(tau).scale(u)
        ta, tb = (IV11.a - v) / u, (IV11.b - v) / u
        vs2 = poincare_coeffs(pullback(p), pullback(q), Interval(ta, tb), 7)
        assert vs == vs2


# -- the shared forward map --------------------------------------------------------

ALL_TABLES = [(param, d) for param in (EPS_ON_Q, DELTA_ON_P) for d in (FORWARD, BACKWARD)]


def canonical(table):
    """A table as plain values, comparable across fields."""
    return table.K, table.param, table.direction, {kj: (v.rat, v.irr, v.D) for kj, v in table.entries.items()}


def cold(p, q, iv, K, param, direction=FORWARD):
    center._forward_map.cache_clear()
    return canonical(parametric_table(p, q, iv, K, param, direction))


def test_warm_tables_equal_cold_ones():
    rng = random.Random(61)
    center._forward_map.cache_clear()
    for _ in range(6):
        Pp, Q = rand_pcpair(rng, IV11, 6)
        p, q = Pp.derivative(), Q.derivative()
        K = rng.randint(2, 9)
        warm = [canonical(parametric_table(p, q, IV11, K, *t)) for t in ALL_TABLES]
        assert warm == [cold(p, q, IV11, K, *t) for t in ALL_TABLES]
        info = center._forward_map.cache_info()
        assert info.currsize <= info.maxsize == 8


def test_the_cache_keeps_fields_apart():
    r2, r3 = sqrtD(2), sqrtD(3)
    inputs = [
        (P(1, 2) + Poly([0, r2]), P(0, 1, 1), IV11),
        (P(1, 2) + Poly([0, r3]), P(0, 1, 1), IV11),
        (P(1, 2), P(0, 1, 1), IV11),
        (P(1, 2), P(0, 1, 1), Interval(-r3, r3)),
    ]
    want = [cold(p, q, iv, 7, EPS_ON_Q) for p, q, iv in inputs]
    assert all(u != v for u, v in itertools.combinations(want, 2))
    center._forward_map.cache_clear()
    for _ in range(2):
        assert [canonical(parametric_table(p, q, iv, 7, EPS_ON_Q)) for p, q, iv in inputs] == want


def test_the_cache_keeps_intervals_and_orders_apart():
    p, q = P(1, -1, 2), P(0, 3, -1)
    cases = [(IV11, 6), (IV11, 8), (IV01, 8), (Interval(-1, 2), 8)]
    want = [cold(p, q, iv, K, DELTA_ON_P, BACKWARD) for iv, K in cases]
    assert all(want[1] != w for w in want[:1] + want[2:])
    center._forward_map.cache_clear()
    for _ in range(2):
        assert [canonical(parametric_table(p, q, iv, K, DELTA_ON_P, BACKWARD)) for iv, K in cases] == want


def test_changing_a_table_leaves_the_next_one_alone():
    center._forward_map.cache_clear()
    p, q = P(1, -1, 2), P(0, 3, -1)
    first = parametric_table(p, q, IV11, 8, EPS_ON_Q)
    want = canonical(first)
    first.entries.clear()
    second = parametric_table(p, q, IV11, 8, EPS_ON_Q)
    assert canonical(second) == want
    second.entries[(2, 0)] = ONE
    assert canonical(parametric_table(p, q, IV11, 8, EPS_ON_Q)) == want


@pytest.fixture
def flow_calls(monkeypatch):
    center._forward_map.cache_clear()
    calls = []
    flow = center._flow_coefficients

    def counted(p_slots, q_slots, a, K):
        calls.append(K)
        return flow(p_slots, q_slots, a, K)

    monkeypatch.setattr(center, "_flow_coefficients", counted)
    return calls


def test_one_pair_runs_the_recursion_once(flow_calls):
    p, q = P(1, -1, 2), P(0, 3, -1)
    parametric_table(p, q, IV11, 10, EPS_ON_Q)
    parametric_table(p, q, IV11, 10, DELTA_ON_P)
    parametric_table(p, q, IV11, 10, EPS_ON_Q, BACKWARD)
    assert flow_calls == [10]


def test_a1_runs_the_recursion_once_per_pair(flow_calls, monkeypatch):
    from abellab import verify

    monkeypatch.setattr(verify, "_TABLE_CACHE", {})
    assert verify.a1_stratification(7).passed
    assert len(flow_calls) == 200
