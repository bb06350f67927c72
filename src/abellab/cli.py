"""Command-line front end.

Subcommands map one-to-one onto the library: center-table, iterated,
melnikov, moments, zspace, factors, cc, definite, report, trig-moment,
trig-family, and verify (the bundled acceptance suites).  Inputs are
JSON files using the exact scalar text grammar; output is deterministic
text or JSON.  Exit codes: 0 success, 1 computational failure, 2
malformed input.
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
    infinitesimal_order,
    iterated_integral,
    melnikov,
    parametric_table,
)
from .decomp import cc_check, is_definite, structure_report
from .errors import AbelLabError, PreconditionError
from .field import Scalar, _squarefree
from .moments import _moments_upto, parametric_structure_report, zero_space
from .serialize import (
    InputError,
    dumps,
    interval_from_json,
    pi_to_text,
    poly_from_json,
    poly_to_json,
    scalar_to_text,
    trig_from_json,
    trig_to_json,
)
from .trig import (
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


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read input file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise InputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    return obj


def _context_D(obj: dict):
    D = obj.get("D")
    if D is None:
        return None
    if not isinstance(D, int) or isinstance(D, bool):
        raise InputError("field 'D' must be an integer")
    if D <= 1 or not _squarefree(D):
        raise InputError("field 'D' must be a squarefree integer > 1, got %d" % D)
    return D


def _pair_from(obj: dict):
    D = _context_D(obj)
    P = poly_from_json(obj.get("P") or _missing("P"), D)
    Q = poly_from_json(obj.get("Q") or _missing("Q"), D)
    iv = interval_from_json(obj.get("interval") or _missing("interval"), D)
    return P, Q, iv


def _single_from(obj: dict):
    D = _context_D(obj)
    P = poly_from_json(obj.get("P") or _missing("P"), D)
    iv = interval_from_json(obj.get("interval") or _missing("interval"), D)
    return P, iv


def _missing(name: str):
    raise InputError("missing field %r" % name)


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _param(args) -> str:
    return EPS_ON_Q if args.param == "eps" else DELTA_ON_P


def _table_payload(table) -> dict:
    return {
        "K": table.K,
        "param": table.param,
        "direction": table.direction,
        "entries": {"%d,%d" % kj: scalar_to_text(v) for kj, v in sorted(table.entries.items())},
    }


def cmd_center_table(args) -> int:
    obj = _load(args.input)
    P, Q, iv = _pair_from(obj)
    table = parametric_table(
        P.derivative(), Q.derivative(), iv, args.kmax, _param(args), args.direction
    )
    payload = _table_payload(table)
    order = infinitesimal_order(P.derivative(), Q.derivative(), iv, args.kmax, _param(args))
    payload["infinitesimal_order"] = order.order if order.order is not None else "all-zero"
    lines = ["center table (%s, %s, K=%d)" % (table.param, table.direction, table.K)]
    for (k, j), v in sorted(table.entries.items()):
        lines.append("  v[%d,%d] = %s" % (k, j, scalar_to_text(v)))
    if not table.entries:
        lines.append("  all entries vanish")
    _emit(args, payload, lines)
    return 0


def cmd_iterated(args) -> int:
    obj = _load(args.input)
    D = _context_D(obj)
    alpha = obj.get("alpha")
    if not isinstance(alpha, list) or not alpha or any(x not in (1, 2) for x in alpha):
        raise InputError("field 'alpha' must be a nonempty list over {1,2}")
    h1 = poly_from_json(obj.get("h1") or _missing("h1"), D)
    h2 = poly_from_json(obj.get("h2") or _missing("h2"), D)
    iv = interval_from_json(obj.get("interval") or _missing("interval"), D)
    val = iterated_integral(alpha, h1, h2, iv)
    _emit(
        args,
        {"alpha": alpha, "value": scalar_to_text(val)},
        ["I_%s = %s" % ("".join(map(str, alpha)), scalar_to_text(val))],
    )
    return 0


def cmd_melnikov(args) -> int:
    obj = _load(args.input)
    P, Q, iv = _pair_from(obj)
    vals = {k: melnikov(k, P, Q, iv) for k in (6, 7, 8)}
    payload = {"D%d" % k: scalar_to_text(v) for k, v in vals.items()}
    _emit(args, payload, ["D%d = %s" % (k, scalar_to_text(v)) for k, v in vals.items()])
    return 0


def cmd_moments(args) -> int:
    obj = _load(args.input)
    P, Q, iv = _pair_from(obj)
    n = args.nmax
    m_pq = {str(i): scalar_to_text(v) for i, (v,) in enumerate(_moments_upto(P, [Q.derivative()], iv, n))}
    m_qp = {str(i): scalar_to_text(v) for i, (v,) in enumerate(_moments_upto(Q, [P.derivative()], iv, n))}
    payload = {"m_PQ": m_pq, "m_QP": m_qp, "N": n}
    lines = ["moments up to %d" % n]
    lines += ["  m_%d(P,Q) = %s" % (i, m_pq[str(i)]) for i in range(n + 1)]
    lines += ["  m_%d(Q,P) = %s" % (i, m_qp[str(i)]) for i in range(n + 1)]
    _emit(args, payload, lines)
    return 0


def cmd_zspace(args) -> int:
    obj = _load(args.input)
    P, iv = _single_from(obj)
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
    _emit(args, payload, lines)
    return 0


def cmd_factors(args) -> int:
    obj = _load(args.input)
    P, iv = _single_from(obj)
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
    _emit(args, payload, lines)
    return 0


def cmd_cc(args) -> int:
    obj = _load(args.input)
    P, Q, iv = _pair_from(obj)
    w = cc_check(P, Q, iv)
    if w is None:
        _emit(args, {"witness": None}, ["no common composition factor"])
        return 0
    payload = {
        "witness": {
            "W": poly_to_json(w.W),
            "P_reduced": poly_to_json(w.P_reduced),
            "Q_reduced": poly_to_json(w.Q_reduced),
        }
    }
    lines = [
        "composition witness found:",
        "  W = %s" % w.W,
        "  P = Pt(W) with Pt = %s" % w.P_reduced,
        "  Q = Qt(W) with Qt = %s" % w.Q_reduced,
    ]
    _emit(args, payload, lines)
    return 0


def cmd_definite(args) -> int:
    obj = _load(args.input)
    P, iv = _single_from(obj)
    val = is_definite(P, iv)
    _emit(args, {"definite": val}, ["definite: %s" % val])
    return 0


def cmd_report(args) -> int:
    obj = _load(args.input)
    P, Q, iv = _pair_from(obj)
    rep = parametric_structure_report(P, Q, iv, args.kmax, args.nmax)
    payload = {
        "cc": None
        if rep.cc is None
        else {
            "W": poly_to_json(rep.cc.W),
            "P_reduced": poly_to_json(rep.cc.P_reduced),
            "Q_reduced": poly_to_json(rep.cc.Q_reduced),
        },
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
    _emit(args, payload, lines)
    return 0


def cmd_trig_moment(args) -> int:
    obj = _load(args.input)
    D = _context_D(obj)
    P = trig_from_json(obj.get("P") or _missing("P"), D)
    Q = trig_from_json(obj.get("Q") or _missing("Q"), D)
    i = obj.get("i")
    j = obj.get("j")
    if not isinstance(i, int) or not isinstance(j, int):
        raise InputError("fields 'i' and 'j' must be integers")
    val = trig_moment(P, Q, i, j)
    _emit(
        args,
        {"i": i, "j": j, "moment": pi_to_text(val)},
        ["int Q^%d d(P^%d) = %s" % (i, j, pi_to_text(val))],
    )
    return 0


def cmd_trig_family(args) -> int:
    obj = _load(args.input)
    D = _context_D(obj)
    d1 = obj.get("d1")
    d2 = obj.get("d2")
    if not isinstance(d1, int) or not isinstance(d2, int):
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
            out[idx] = (
                Scalar.coerce(0) if pair[0] is None else _scalar(pair[0], D),
                Scalar.coerce(0) if pair[1] is None else _scalar(pair[1], D),
            )
        return out

    P, Q = build_family(d1, d2, spec_table("p"), spec_table("q"))
    if "R" in obj:
        R = poly_from_json(obj["R"], D)
        Q = modify_family(Q, d2, R)
    imax = args.imax if args.imax is not None else 12
    fam_ok = first_moments_vanish(P, Q, imax)
    cert = non_cc_certificate(P, Q, imax, imax)
    payload = {
        "P": trig_to_json(P),
        "Q": trig_to_json(Q),
        "first_moments_vanish_upto": imax,
        "first_moments_vanish": fam_ok,
        "certificate": None if cert is None else {"i": cert[0], "j": cert[1], "value": pi_to_text(cert[2])},
    }
    lines = [
        "family with d1=%d, d2=%d" % (d1, d2),
        "first moment families vanish up to %d: %s" % (imax, fam_ok),
        "non-composition certificate: %s"
        % ("none found (inconclusive)" if cert is None else "(i=%d, j=%d) -> %s" % (cert[0], cert[1], pi_to_text(cert[2]))),
    ]
    _emit(args, payload, lines)
    return 0


def _scalar(text, D):
    from .serialize import scalar_from_text

    return scalar_from_text(text, D)


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed)
    payload = {"suite": args.suite, "seed": args.seed, "criteria": []}
    ok = True
    for res in results:
        payload["criteria"].append(
            {
                "id": res.cid,
                "title": res.title,
                "passed": res.passed,
                "details": res.details,
                "findings": res.findings,
            }
        )
        ok = ok and res.passed
    if args.json:
        print(dumps(payload))
    else:
        for res in results:
            print(res.format_line())
            for f in res.findings:
                print("    finding: %s" % f)
    return 0 if ok else 1


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abellab",
        description="Exact computations for parametric centers of the Abel equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except AbelLabError as exc:
        print("computation failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
