"""JSON forms for scalars, polynomials, intervals, and trig polynomials.

All numbers travel as the whitespace-free scalar text grammar ("a/b",
"a/b+c/d*rD"); floats are never emitted.  Emission is deterministic:
keys are sorted and the scalar text form is canonical, so identical
inputs yield byte-identical output.
"""

from __future__ import annotations

import json

from .field import Scalar, format_scalar, parse_scalar
from .poly import Interval, Poly
from .trig import TrigPoly


class InputError(ValueError):
    """Malformed input file or field; maps to exit code 2 in the CLI."""


def _field(obj: dict, name: str):
    if name not in obj:
        raise InputError("missing field %r" % name)
    return obj[name]


def scalar_to_text(x: Scalar) -> str:
    return format_scalar(x)


def scalar_from_text(text, D=None) -> Scalar:
    if not isinstance(text, str):
        raise InputError("scalar values must be strings in the text grammar")
    try:
        return parse_scalar(text, D)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def poly_to_json(f: Poly) -> dict:
    return {"coeffs": [scalar_to_text(c) for c in f.coeffs]}


def poly_from_json(obj, D=None) -> Poly:
    if not isinstance(obj, dict):
        raise InputError("polynomial must be an object with a 'coeffs' list")
    coeffs = _field(obj, "coeffs")
    if not isinstance(coeffs, list):
        raise InputError("field 'coeffs' must be a list")
    return Poly([scalar_from_text(c, D) for c in coeffs])


def interval_from_json(obj, D=None) -> Interval:
    if not isinstance(obj, dict):
        raise InputError("interval must be an object with fields 'a' and 'b'")
    a = scalar_from_text(_field(obj, "a"), D)
    b = scalar_from_text(_field(obj, "b"), D)
    try:
        return Interval(a, b)
    except ValueError as exc:
        raise InputError("field 'a'/'b': %s" % exc) from exc


def trig_to_json(f: TrigPoly) -> dict:
    return {
        "a0": scalar_to_text(f.a0),
        "cos": {str(k): scalar_to_text(v) for k, v in sorted(f.cos_coeffs.items())},
        "sin": {str(k): scalar_to_text(v) for k, v in sorted(f.sin_coeffs.items())},
    }


def trig_from_json(obj, D=None) -> TrigPoly:
    if not isinstance(obj, dict):
        raise InputError("trig polynomial must be an object")
    a0 = scalar_from_text(obj.get("a0", "0"), D)

    def table(name):
        raw = obj.get(name, {})
        if not isinstance(raw, dict):
            raise InputError("field %r must be an object" % name)
        out = {}
        for k, v in raw.items():
            try:
                freq = int(k)
            except ValueError as exc:
                raise InputError("field %r: bad frequency %r" % (name, k)) from exc
            out[freq] = scalar_from_text(v, D)
        return out

    try:
        return TrigPoly(a0, table("cos"), table("sin"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def dumps(obj) -> str:
    """Deterministic JSON emission."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=2)
