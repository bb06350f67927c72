"""Command-line front end.

Subcommands map one-to-one onto the library: center-table, iterated,
melnikov, moments, zspace, factors, cc, definite, report, trig-moment,
trig-family, and verify (the bundled acceptance suites).  Inputs are
JSON files using the exact scalar text grammar; output is deterministic
text or JSON.  Exit codes: 0 success, 1 computational failure, 2
malformed input.

``main`` is the one place that reads the input, runs the command and
writes stdout: each ``cmd_*`` takes the parsed arguments and the input
object and returns ``(exit_code, payload, lines)``, printed as JSON under
``--json`` and as the text lines otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from .center import (
    BACKWARD,
    DELTA_ON_P,
    EPS_ON_Q,
    FORWARD,
    iterated_integral,
    melnikov,
    parametric_table,
)
from .decomp import cc_check, is_definite, structure_report
from .errors import AbelLabError, FieldMismatchError, PreconditionError
from .field import Scalar, _join, check_radicand
from .moments import _moments_upto, parametric_structure_report, zero_space
from .poly import Interval, Poly
from .serialize import (
    InputError,
    dumps,
    interval_from_json,
    poly_from_json,
    poly_to_json,
    scalar_from_text,
    scalar_to_text,
    trig_from_json,
    trig_to_json,
)
from .trig import (
    TrigPoly,
    build_family,
    first_moments_vanish,
    modify_family,
    non_cc_certificate,
    trig_moment,
)

# The names of verify.SUITES, kept here so that only `verify` imports the suites.
SUITE_NAMES = (
    "all", "cc", "columns", "factors", "melnikov", "series", "stratify", "trig", "ur", "zspace"
)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load(path: str) -> dict:
    """The input object, with its optional field 'D' checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read input file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise InputError("input is not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise InputError("input is nested too deeply") from exc
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    D = obj.get("D")
    if D is not None:
        if not _is_int(D):
            raise InputError("field 'D' must be an integer")
        try:
            check_radicand(D)
        except ValueError as exc:
            raise InputError("field 'D': %s" % exc) from exc
    return obj


def _one_field(values) -> None:
    """Raise FieldMismatchError unless the parsed polynomials, intervals and
    trig polynomials share one radicand: a command need not combine them all."""
    D = None
    for v in values:
        parts = (v.a, v.b) if isinstance(v, Interval) else (v.R, v.I) if isinstance(v, TrigPoly) else (v,)
        for part in parts:
            D = _join(D, part.D)


def _fields(obj: dict, *names, parse=poly_from_json) -> list:
    """The named input fields in order, over one field Q(sqrt D).

    "interval" is read as an interval and every other name with ``parse``;
    a missing or falsy value is an input error.
    """
    D = obj.get("D")
    values = []
    for name in names:
        raw = obj.get(name)
        if not raw:
            raise InputError("missing field %r" % name)
        values.append((interval_from_json if name == "interval" else parse)(raw, D))
    _one_field(values)
    return values


def _witness_json(w):
    if w is None:
        return None
    return {
        "W": poly_to_json(w.W),
        "P_reduced": poly_to_json(w.P_reduced),
        "Q_reduced": poly_to_json(w.Q_reduced),
    }


def cmd_center_table(args, obj):
    P, Q, iv = _fields(obj, "P", "Q", "interval")
    p, q = P.derivative(), Q.derivative()
    param = EPS_ON_Q if args.param == "eps" else DELTA_ON_P
    table = parametric_table(p, q, iv, args.kmax, param, args.direction)
    # The backward map is -v plus products of v's, so its lowest stratum is
    # the forward one: the table read in either direction gives the order.
    order = table.lowest_stratum()
    entries = sorted(table.entries.items())
    payload = {
        "K": table.K,
        "param": table.param,
        "direction": table.direction,
        "entries": {"%d,%d" % kj: scalar_to_text(v) for kj, v in entries},
        "infinitesimal_order": order if order is not None else "all-zero",
    }
    lines = ["center table (%s, %s, K=%d)" % (table.param, table.direction, table.K)]
    lines += ["  v[%d,%d] = %s" % (k, j, scalar_to_text(v)) for (k, j), v in entries]
    if not entries:
        lines.append("  all entries vanish")
    return 0, payload, lines


def cmd_iterated(args, obj):
    alpha = obj.get("alpha")
    if not (isinstance(alpha, list) and alpha and all(_is_int(x) and x in (1, 2) for x in alpha)):
        raise InputError("field 'alpha' must be a nonempty list over {1,2}")
    h1, h2, iv = _fields(obj, "h1", "h2", "interval")
    val = scalar_to_text(iterated_integral(alpha, h1, h2, iv))
    return 0, {"alpha": alpha, "value": val}, ["I_%s = %s" % ("".join(map(str, alpha)), val)]


def cmd_melnikov(args, obj):
    P, Q, iv = _fields(obj, "P", "Q", "interval")
    payload = {"D%d" % k: scalar_to_text(melnikov(k, P, Q, iv)) for k in (6, 7, 8)}
    return 0, payload, ["%s = %s" % kv for kv in payload.items()]


def cmd_moments(args, obj):
    P, Q, iv = _fields(obj, "P", "Q", "interval")
    n = args.nmax
    m_pq = {str(i): scalar_to_text(v) for i, (v,) in enumerate(_moments_upto(P, [Q.derivative()], iv, n))}
    m_qp = {str(i): scalar_to_text(v) for i, (v,) in enumerate(_moments_upto(Q, [P.derivative()], iv, n))}
    lines = ["moments up to %d" % n]
    lines += ["  m_%d(P,Q) = %s" % (i, m_pq[str(i)]) for i in range(n + 1)]
    lines += ["  m_%d(Q,P) = %s" % (i, m_qp[str(i)]) for i in range(n + 1)]
    return 0, {"m_PQ": m_pq, "m_QP": m_qp, "N": n}, lines


def cmd_zspace(args, obj):
    P, iv = _fields(obj, "P", "interval")
    d = args.degree
    if d is None:
        raise InputError("missing required flag --degree")
    imax = args.imax if args.imax is not None else 2 * d
    basis = zero_space(P, iv, d, imax)
    payload = {
        "d": d,
        "I_max": imax,
        "dimension": len(basis),
        "basis": [poly_to_json(f) for f in basis],
    }
    lines = ["zero space at degree %d: dimension %d" % (d, len(basis))]
    lines += ["  %s" % f for f in basis]
    return 0, payload, lines


def cmd_factors(args, obj):
    P, iv = _fields(obj, "P", "interval")
    rep = structure_report(P, iv)
    payload = {
        "s": rep.s,
        "factor_degrees": list(rep.factor_degrees),
        "definite": rep.definite,
        "tag": rep.tag,
        "factors": [poly_to_json(W) for W in rep.factors],
    }
    lines = [
        "indecomposable factor classes: s = %d, degrees %s, tag %s"
        % (rep.s, list(rep.factor_degrees), rep.tag)
    ]
    lines += ["  W = %s" % W for W in rep.factors]
    return 0, payload, lines


def cmd_cc(args, obj):
    P, Q, iv = _fields(obj, "P", "Q", "interval")
    w = cc_check(P, Q, iv)
    if w is None:
        lines = ["no common composition factor"]
    else:
        lines = [
            "composition witness found:",
            "  W = %s" % w.W,
            "  P = Pt(W) with Pt = %s" % w.P_reduced,
            "  Q = Qt(W) with Qt = %s" % w.Q_reduced,
        ]
    return 0, {"witness": _witness_json(w)}, lines


def cmd_definite(args, obj):
    P, iv = _fields(obj, "P", "interval")
    val = is_definite(P, iv)
    return 0, {"definite": val}, ["definite: %s" % val]


def cmd_report(args, obj):
    P, Q, iv = _fields(obj, "P", "Q", "interval")
    rep = parametric_structure_report(P, Q, iv, args.kmax, args.nmax)
    payload = {
        "cc": _witness_json(rep.cc),
        "truncated_parametric_center": rep.truncated_parametric_center,
        "double_moments": rep.double_moments,
        "P_definite": rep.P_definite,
        "Q_definite": rep.Q_definite,
        "P_in_Z_of_Q": rep.P_in_Z_of_Q,
        "Q_in_Z_of_P": rep.Q_in_Z_of_P,
        "K": rep.K,
        "N": rep.N,
        "consistent": rep.consistent,
    }
    lines = [
        "cc witness: %s" % ("yes, W = %s" % rep.cc.W if rep.cc else "none"),
        "truncated parametric center (K=%d): %s" % (rep.K, rep.truncated_parametric_center),
        "double moments vanish (N=%d): %s" % (rep.N, rep.double_moments),
        "P definite: %s / Q definite: %s" % (rep.P_definite, rep.Q_definite),
        "P in Z(Q): %s / Q in Z(P): %s" % (rep.P_in_Z_of_Q, rep.Q_in_Z_of_P),
        "classification consistent: %s" % rep.consistent,
    ]
    return 0, payload, lines


def cmd_trig_moment(args, obj):
    P, Q = _fields(obj, "P", "Q", parse=trig_from_json)
    i = obj.get("i")
    j = obj.get("j")
    if not _is_int(i) or not _is_int(j):
        raise InputError("fields 'i' and 'j' must be integers")
    val = str(trig_moment(P, Q, i, j))
    return 0, {"i": i, "j": j, "moment": val}, ["int Q^%d d(P^%d) = %s" % (i, j, val)]


def cmd_trig_family(args, obj):
    D = obj.get("D")
    d1 = obj.get("d1")
    d2 = obj.get("d2")
    if not _is_int(d1) or not _is_int(d2):
        raise InputError("fields 'd1' and 'd2' must be integers")

    def spec_table(name):
        raw = obj.get(name, {})
        if not isinstance(raw, dict):
            raise InputError("field %r must be an object" % name)
        out = {}
        for k, pair in raw.items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError("field %r: entry %r must be a [cos, sin] pair" % (name, k))
            try:
                idx = int(k)
            except ValueError as exc:
                raise InputError("field %r: bad index %r" % (name, k)) from exc
            out[idx] = tuple(Scalar.coerce(0) if c is None else scalar_from_text(c, D) for c in pair)
        return out

    P, Q = build_family(d1, d2, spec_table("p"), spec_table("q"))
    R = poly_from_json(obj["R"], D) if "R" in obj else Poly.zero()
    _one_field([P, Q, R])
    Q = modify_family(Q, d2, R)
    imax = args.imax if args.imax is not None else 12
    fam_ok = first_moments_vanish(P, Q, imax)
    cert = non_cc_certificate(P, Q, imax, imax)
    payload = {
        "P": trig_to_json(P),
        "Q": trig_to_json(Q),
        "first_moments_vanish_upto": imax,
        "first_moments_vanish": fam_ok,
        "certificate": None if cert is None else {"i": cert[0], "j": cert[1], "value": str(cert[2])},
    }
    lines = [
        "family with d1=%d, d2=%d" % (d1, d2),
        "first moment families vanish up to %d: %s" % (imax, fam_ok),
        "non-composition certificate: %s"
        % ("none found (inconclusive)" if cert is None else "(i=%d, j=%d) -> %s" % cert),
    ]
    return 0, payload, lines


def cmd_verify(args, obj):
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed)
    criteria = [
        {"id": res.cid, "title": res.title, "passed": res.passed, "details": res.details, "findings": res.findings}
        for res in results
    ]
    lines = []
    for res in results:
        lines.append(res.format_line())
        lines += ["    finding: %s" % f for f in res.findings]
    code = 0 if all(res.passed for res in results) else 1
    return code, {"suite": args.suite, "seed": args.seed, "criteria": criteria}, lines


# Options of the subcommands that read them, besides --input and --json.
_FLAGS = {
    "kmax": {"type": int, "default": 12},
    "nmax": {"type": int, "default": 20},
    "imax": {"type": int, "default": None},
    "degree": {"type": int, "default": None},
    "param": {"choices": ["eps", "delta"], "default": "eps"},
    "direction": {"choices": [FORWARD, BACKWARD], "default": FORWARD},
    "suite": {"choices": SUITE_NAMES, "default": "all"},
    "seed": {"type": int, "default": 7},
}

_COMMANDS = [
    ("center-table", cmd_center_table, ("kmax", "param", "direction")),
    ("iterated", cmd_iterated, ()),
    ("melnikov", cmd_melnikov, ()),
    ("moments", cmd_moments, ("nmax",)),
    ("zspace", cmd_zspace, ("degree", "imax")),
    ("factors", cmd_factors, ()),
    ("cc", cmd_cc, ()),
    ("definite", cmd_definite, ()),
    ("report", cmd_report, ("kmax", "nmax")),
    ("trig-moment", cmd_trig_moment, ()),
    ("trig-family", cmd_trig_family, ("imax",)),
    ("verify", cmd_verify, ("suite", "seed")),
]

# What argparse prints for the command position when every command is built.
# Only a one-command parser sets it as the metavar: on the full parser it
# would also replace "command" in the missing-command error.
_ALL_COMMANDS = "{%s}" % ",".join(name for name, _, _ in _COMMANDS)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the subcommand named by argv[0], or for all of them.

    When argv[0] names a subcommand only its subparser is built; the usage
    line still lists every command, so every message reads the same.
    """
    named = [c for c in _COMMANDS if argv and c[0] == argv[0]]
    ap = argparse.ArgumentParser(
        prog="abellab",
        description="Exact computations for parametric centers of the Abel equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar=_ALL_COMMANDS if named else None)
    for name, fn, flags in named or _COMMANDS:
        if name == "verify":
            p = sub.add_parser(name, help="run the bundled acceptance suites")
        else:
            p = sub.add_parser(name)
            p.add_argument("--input", required=True, help="path to a JSON input file")
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[:1]).parse_args(argv)
    # exact inputs and results may run past Python's int/str digit limit
    # (3.10.7 and later): lift it for this call, then restore the caller's
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        obj = None if args.command == "verify" else _load(args.input)
        code, payload, lines = args.fn(args, obj)
        print(dumps(payload) if args.json else "\n".join(lines))
        return code
    except (InputError, PreconditionError, FieldMismatchError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except AbelLabError as exc:
        print("computation failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
