"""Workload ``cli_mix``: many short in-process ``abellab.cli.main`` calls.

Every round writes fresh JSON fixtures and makes 15 calls with ``--json``
covering all 11 subcommands other than ``verify``, at small sizes.  Four of
the calls use a field Q(sqrt D) with the large squarefree D = 1000003, where
each scalar construction pays for the squarefree check.  Each call must
exit with 0 and print JSON; identities across calls are checked exactly:
center-table entry 5,2 = 2*D6 from melnikov, a cc witness recomposes to P
and Q, the first trig-family moments vanish, and a few single-call
identities (m_0 = 0, m_1(P,Q) = -m_1(Q,P), nested integrals) hold.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import abellab.cli as cli

from gen import (
    INTERVALS,
    CheckFailed,
    Job,
    closed_inner,
    dense_poly,
    pcompose,
    peval,
    pmul,
    primitive_at,
    parse_text,
    rand_nonzero,
    rand_poly,
    rational_of,
    require,
    rng_for,
    surd_text,
    vanishing_composite,
    vanishing_quad,
)

NAME = "cli_mix"
BIG_D = 1000003  # prime, so squarefree
# The large-D interval is [0, BETA*sqrt(D)], about [0, 1].
BETA = Fraction(1, 1000)


def _poly_json(coeffs):
    return {"coeffs": [str(c) for c in coeffs]}


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _trig_json(rng, freqs, D=None):
    def coeff():
        v = rand_nonzero(rng)
        return surd_text(Fraction(0), v, D) if D is not None and rng.random() < 0.5 else str(v)

    table = {"a0": "0", "cos": {}, "sin": {}}
    for f in rng.sample(freqs, 2):
        table[rng.choice(["cos", "sin"])][str(f)] = coeff()
    return table


def make_round(seed: int, r: int, workdir):
    rng = rng_for(NAME, seed, r)
    root = workdir / ("r%d" % r)
    root.mkdir(parents=True, exist_ok=True)

    a, b = INTERVALS[r % len(INTERVALS)]
    quad = vanishing_quad(a, b)
    P = pmul(quad, dense_poly(rng, 3))
    Q = pmul(quad, dense_poly(rng, 2))
    iv_json = {"a": str(a), "b": str(b)}
    pair = _write(root / "pair.json", {"P": _poly_json(P), "Q": _poly_json(Q), "interval": iv_json})

    ca, cb = INTERVALS[(r + 2) % len(INTERVALS)]
    w_deg = 2 + r % 2
    W = closed_inner(rng, ca, cb, w_deg)
    S1, S2 = dense_poly(rng, 6 // w_deg), dense_poly(rng, 2)
    ccP, ccQ = pcompose(S1, W), pcompose(S2, W)
    cc_iv = {"a": str(ca), "b": str(cb)}
    ccpair = _write(root / "cc.json", {"P": _poly_json(ccP), "Q": _poly_json(ccQ), "interval": cc_iv})
    Z = vanishing_composite(S1, W, ca)
    single = _write(root / "single.json", {"P": _poly_json(Z), "interval": cc_iv})

    alpha = [rng.choice([1, 2]) for _ in range(rng.randint(3, 4))]
    h1, h2 = rand_poly(rng, rng.randint(1, 2)), rand_poly(rng, rng.randint(1, 2))
    iterated = _write(
        root / "iterated.json",
        {"alpha": alpha, "h1": _poly_json(h1), "h2": _poly_json(h2), "interval": iv_json},
    )

    trig = _write(
        root / "trig.json",
        {"P": _trig_json(rng, [1, 2, 3]), "Q": _trig_json(rng, [1, 2, 3]), "i": rng.randint(1, 3), "j": rng.randint(1, 2)},
    )
    q = dense_poly(rng, 3) + dense_poly(rng, 3)
    family = _write(
        root / "family.json",
        {
            "d1": 3,
            "d2": 2,
            "p": {"1": ["1", "0"]},
            "q": {str(l): [str(q[2 * i]), str(q[2 * i + 1])] for i, l in enumerate((1, 2, 4, 5))},
            "R": _poly_json(dense_poly(rng, 3)),
        },
    )

    # P = x (x - b) F over Q(sqrt D) with b = BETA*sqrt(D): coefficient k is
    # F[k-2] - BETA*F[k-1]*sqrt(D).
    def surd_poly(F):
        F = [Fraction(0)] + F + [Fraction(0)]
        return {"coeffs": [surd_text(F[k - 1], -BETA * F[k], BIG_D) for k in range(len(F))]}

    pairD = _write(
        root / "pairD.json",
        {
            "D": BIG_D,
            "P": surd_poly(dense_poly(rng, 2)),
            "Q": surd_poly(dense_poly(rng, 1)),
            "interval": {"a": "0", "b": surd_text(Fraction(0), BETA, BIG_D)},
        },
    )
    trigD = _write(
        root / "trigD.json",
        {"D": BIG_D, "P": _trig_json(rng, [1, 2, 3], BIG_D), "Q": _trig_json(rng, [1, 2, 3], BIG_D), "i": rng.randint(1, 3), "j": rng.randint(1, 2)},
    )

    calls = [
        ("center-table", [pair, "--kmax", "8", "--param", "eps"], _check_table),
        ("melnikov", [pair], _melnikov_check("center-table")),
        ("moments", [pair, "--nmax", "12"], _check_moments),
        ("report", [pair, "--kmax", "6", "--nmax", "10"], _check_report),
        ("definite", [pair], lambda out, seen: require(isinstance(out["definite"], bool), "definite is not a bool")),
        ("cc", [ccpair], _cc_check(ccP, ccQ)),
        ("factors", [single], _factors_check(W)),
        ("zspace", [single, "--degree", "7"], _zspace_check(Z, ca, cb)),
        ("iterated", [iterated], _iterated_check(alpha, h1, h2, a, b)),
        ("trig-moment", [trig], _check_trig_moment),
        ("trig-family", [family, "--imax", "6"], _check_family),
        ("center-table-D", [pairD, "--kmax", "5", "--param", "eps"], _check_table),
        ("melnikov-D", [pairD], _melnikov_check("center-table-D")),
        ("moments-D", [pairD, "--nmax", "6"], _check_moments),
        ("trig-moment-D", [trigD], _check_trig_moment),
    ]
    return [_job("%d.%s" % (r, key), key, argv, check) for key, argv, check in calls]


def _job(key, name, argv, check):
    command = name[:-2] if name.endswith("-D") else name
    argv = [command, "--input"] + argv + ["--json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check_call(result, seen):
        code, text, err = result
        require(code == 0, "%s exited with %r: %s" % (command, code, err.strip()))
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed("%s printed invalid JSON: %s" % (command, exc))
        seen[name] = payload
        check(payload, seen)
        return text

    return Job(key, run, check_call)


def _surd(text):
    rat, irr, _ = parse_text(text)
    return rat, irr


def _check_table(out, seen):
    for kj, v in out["entries"].items():
        k, j = map(int, kj.split(","))
        require(1 <= j <= k - 3 and j % 2 == (k - 1) % 2, "entry %s outside the support" % kj)
        parse_text(v)


def _melnikov_check(table_key):
    def check(out, seen):
        entry = seen[table_key]["entries"].get("5,2", "0")
        d6 = _surd(out["D6"])
        require(_surd(entry) == (2 * d6[0], 2 * d6[1]), "entry 5,2 != 2*D6")
        for k in ("D7", "D8"):
            parse_text(out[k])

    return check


def _check_moments(out, seen):
    m_pq, m_qp = out["m_PQ"], out["m_QP"]
    require(len(m_pq) == len(m_qp) == out["N"] + 1, "wrong moment count")
    require(_surd(m_pq["0"]) == (0, 0), "int Q' over a primitive pair is not 0")
    a, b = _surd(m_pq["1"]), _surd(m_qp["1"])
    require((a[0] + b[0], a[1] + b[1]) == (0, 0), "int P Q' != -int Q P'")


def _check_report(out, seen):
    require(out["consistent"] is True, "report is inconsistent")
    require((out["K"], out["N"]) == (6, 10), "report ignored --kmax/--nmax")


def _poly_of(obj):
    return [rational_of(c) for c in obj["coeffs"]]


def _cc_check(P, Q):
    def check(out, seen):
        w = out["witness"]
        require(w is not None, "no witness for a composition pair")
        W = _poly_of(w["W"])
        require(pcompose(_poly_of(w["P_reduced"]), W) == P, "witness does not recompose P")
        require(pcompose(_poly_of(w["Q_reduced"]), W) == Q, "witness does not recompose Q")

    return check


def _factors_check(W):
    lead = W[-1]
    normal = [Fraction(0)] + [c / lead for c in W[1:]]

    def check(out, seen):
        factors = [_poly_of(f) for f in out["factors"]]
        require(out["s"] == len(factors) == len(out["factor_degrees"]), "factor count mismatch")
        require(normal in factors, "the construction factor W is missing")

    return check


def _zspace_check(P, a, b):
    def check(out, seen):
        basis = [_poly_of(f) for f in out["basis"]]
        require(out["dimension"] == len(basis), "dimension != basis length")
        for f in basis:
            require(peval(f, a) == 0 and peval(f, b) == 0, "basis element not endpoint-vanishing")
        # P lies in its own zero space; reduce it by the echelon basis.
        v = list(P) + [Fraction(0)] * (out["d"] + 1 - len(P))
        for f in basis:
            c = v[next(i for i, x in enumerate(f) if x)]
            for i, x in enumerate(f):
                v[i] -= c * x
        require(not any(v), "P is not in its own zero space")

    return check


def _iterated_check(alpha, h1, h2, a, b):
    g = [Fraction(1)]
    for idx in reversed(alpha):
        g = primitive_at(pmul(h1 if idx == 1 else h2, g), a)
    want = peval(g, b)

    def check(out, seen):
        require(rational_of(out["value"]) == want, "iterated integral mismatch")

    return check


def _check_trig_moment(out, seen):
    value = out["moment"]
    if value != "0":
        require(value.endswith("*pi"), "moment is not a multiple of pi")
        parse_text(value[:-3])


def _check_family(out, seen):
    require(out["first_moments_vanish"] is True, "first moments of a family do not vanish")
