import random

from abellab.field import Scalar, rational, sqrtD
from abellab.poly import Interval, Poly
from abellab.serialize import (
    interval_from_json,
    poly_from_json,
    poly_to_json,
    trig_from_json,
    trig_to_json,
)
from abellab.trig import TrigPoly


def test_poly_round_trip():
    rng = random.Random(1)
    for _ in range(25):
        f = Poly([rational(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 7))])
        assert poly_from_json(poly_to_json(f)) == f


def test_poly_round_trip_with_root():
    f = Poly([Scalar(1, 2, 3), rational(-4, 5), Scalar(0, rational(7, 2).rat, 3)])
    assert poly_from_json(poly_to_json(f)) == f


def test_interval_round_trip():
    iv = Interval(-sqrtD(3) * rational(1, 2), rational(5, 3))
    back = interval_from_json({"a": "-1/2*r3", "b": "5/3"})
    assert back == iv


def test_trig_round_trip():
    f = TrigPoly(rational(1, 2), {3: rational(-2, 7)}, {2: sqrtD(5)})
    assert trig_from_json(trig_to_json(f)) == f
    assert trig_from_json(trig_to_json(TrigPoly.zero())) == TrigPoly.zero()
