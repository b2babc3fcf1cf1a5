"""evaluate_family against a committed high-precision reference.

tests/data/family_reference.json holds E, E2 and E2c to 30 digits, each
computed two independent ways with mpmath by tools/make_family_reference.py.
Differences are taken exactly, in Fractions, so the comparison itself adds
no rounding.
"""

import json
import math
import os
from fractions import Fraction

import pytest

from cbstab.family import evaluate_family
from cbstab.quadrature import DEFAULT_CONFIG

DATA = os.path.join(os.path.dirname(__file__), "data", "family_reference.json")
COMPONENTS = (("energy", "energy_error"), ("bienergy", "bienergy_error"),
              ("c_bienergy", "c_bienergy_error"))
REL_BOUND = 1e-8
ZERO_BOUND = 1e-10
NODE_BUDGET = 600


def _points():
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def test_reference_covers_the_domain():
    points = _points()
    dims = {p["m"] for p in points}
    ts = [p["t"] for p in points]
    assert dims == set(range(2, 13))
    assert min(ts) == 1e-8 and max(ts) == 1e8
    assert {(2, 1e-6), (3, 1e-5), (4, 1e-6), (4, 67146.58302973828),
            (6, 6.948e7)} <= {(p["m"], p["t"]) for p in points}


@pytest.mark.parametrize("point", _points(), ids=lambda p: f"m{p['m']}-t{p['t']:g}")
def test_error_estimate_bounds_true_error(point):
    ev = evaluate_family(point["m"], point["t"])
    for name, error_name in COMPONENTS:
        ref = Fraction(point[name])
        got = getattr(ev, name)
        error = getattr(ev, error_name)
        gap = abs(Fraction(got) - ref)
        assert gap <= Fraction(error), (name, got, point[name], error)
        if ref == 0:
            assert abs(got) <= ZERO_BOUND, (name, got)
        else:
            assert gap <= Fraction(REL_BOUND) * abs(ref), (name, got, point[name])


def test_shared_node_count_is_bounded():
    # a machine-independent cost bound: nodes, not seconds
    worst = max(evaluate_family(m, 10.0 ** k, DEFAULT_CONFIG).nodes
                for m in range(2, 13) for k in range(-8, 9, 2))
    assert worst <= NODE_BUDGET


def test_t_inversion_reflects_the_nodes():
    # t -> 1/t is x -> -x, and the ladder's nodes are symmetric about the
    # midpoint of the bumps, so both sides sum the same node values
    for m in (3, 5, 8):
        for t in (0.25, 4.0, 2.0 ** -20):
            a, b = evaluate_family(m, t), evaluate_family(m, 1.0 / t)
            assert a.nodes == b.nodes
            for name, _ in COMPONENTS:
                va, vb = getattr(a, name), getattr(b, name)
                assert abs(va - vb) <= 4 * math.ulp(max(abs(va), abs(vb)))
