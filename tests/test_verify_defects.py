"""Every `verify` check can fail: the defect table.

Each entry of DEFECTS is one defect in the program, made in-process with
monkeypatch, and the exact set of checks that `run_suites()` fails under it,
as fnmatch patterns over the check names.  An entry may also pin the `got`
text of a failed check.  An entry that fails nothing is a defect within
every error estimate and tolerance, or one that only the other tests catch.  This module fails
on a check that no entry fails and on a pattern that matches no check.
"""

import dataclasses
import fnmatch
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import pytest

import cbstab.core
import cbstab.family
import cbstab.spectra
import cbstab.verify
from cbstab.core import Functional
from cbstab.family import M_MAX
from cbstab.verify import run_suites
from helpers import patch_energy_root_plus_one, rebind_everywhere

IDENTITY = f"E2c''(1) family side = Jacobi side, m=2..{M_MAX}"
SIGN = f"sign of the Jacobi factor, m=2..{M_MAX}"
SCALING = "scaling invariance (50 rational factors)"
CURVE = "E2c(phi_t) on S^4 over 10 log-spaced t in *"  # a pattern reads [...] as a class
SYMMETRY = "family(m, t) = family(m, 1/t), m=4..8, t=0.5, 0.25, 0.125"
SPOTS = ("E2c(Id) closed form m=*", "E(Id) closed form m=*")
NUMERICAL = "m=* second difference in log t, step 0.01"


def _wrapped(module, name, wrap):
    """The defect that turns the function module.name into wrap(that function)."""
    return lambda monkeypatch: rebind_everywhere(monkeypatch, module, name,
                                                 wrap(getattr(module, name)))


def _setting(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


def _last_root(kind, root):
    """kind's last Jacobi root in core._roots becomes root(m, lam_num, lam_den), reduced."""
    def wrap(roots):
        def wrong(kind_, dimension, lam_num, lam_den):
            right = roots(kind_, dimension, lam_num, lam_den)
            if kind_ is not kind:
                return right
            return right[:-1] + (cbstab.core._reduced(*root(dimension, lam_num, lam_den)),)
        return wrong
    return _wrapped(cbstab.core, "_roots", wrap)


def _family(change):
    """The family's values as verify reads them: each evaluation ev becomes change(m, t, ev)."""
    def wrap(evaluate):
        return lambda m, t: change(m, t, evaluate(m, t))
    return _wrapped(cbstab.verify, "evaluate_family", wrap)


def _terms(energy=1.0, bienergy=1.0, coefficient=2.0 / 3.0):
    """E and E2 scaled, and E2c summed from them as E2 + coefficient * (m-1)(m-3) E."""
    def change(m, t, ev):
        e, e2 = energy * ev.energy, bienergy * ev.bienergy
        return dataclasses.replace(ev, energy=e, bienergy=e2,
                                   c_bienergy=e2 + coefficient * (m - 1) * (m - 3) * e)
    return _family(change)


def _scaled(factor, where=lambda t: True):
    """Every value times factor, at each t that `where` picks."""
    def change(m, t, ev):
        if not where(t):
            return ev
        return dataclasses.replace(ev, energy=factor * ev.energy, bienergy=factor * ev.bienergy,
                                   c_bienergy=factor * ev.c_bienergy)
    return _family(change)


def _offset_above_1(m, t, ev):
    return dataclasses.replace(ev, c_bienergy=ev.c_bienergy + 1e-3) if t > 1.0 else ev


def _positive_times(function, factor):
    return lambda x: factor * function(x) if x > 0.0 else function(x)


def _times(factor):
    def wrap(upper_bound):
        return lambda m, t: factor * upper_bound(m, t)
    return wrap


def _t_times(factor):
    def wrap(epsilon_schedule):
        def wrong(m, eps):
            t, certificate = epsilon_schedule(m, eps)
            return factor * t, certificate
        return wrong
    return wrap


def _c_without_square_term(c_constant):
    # C = (2(m-2)^2 + m(m-1)(m-3)/3) omega_{m-1}
    return lambda m: m * (m - 1) * (m - 3) / 3 * cbstab.family.sphere_volume(m - 1)


def _side_without_bienergy(family_side):
    # the bienergy term of _family_side is (m-2)^2 w, w = m/(m+1)
    def wrong(m):
        num, den = family_side(m)
        return num * (m + 1) - (m - 2) ** 2 * m * den, den * (m + 1)
    return wrong


def _volume_times_1_0001(volume_terms):
    def wrong(n):
        num, den, k = volume_terms(n)
        return num * 10001, den * 10000, k
    return wrong


def _divergence_free_shifted(rows):
    # mu'_k = (k(k+m-1) + m-2) lambda/(m-1) with m-1 in place of m-2; a sphere
    # row's numerator is a multiple of lambda's numerator, the shift one more
    def wrong(m, lam, up_to):
        return [(num + lam.numerator, den, True, mult) if divergence_free and m > 1
                else (num, den, divergence_free, mult)
                for num, den, divergence_free, mult in rows(m, lam, up_to)]
    return wrong


def _circle_rotation_twice(rows):
    def wrong(m, lam, up_to):
        right = rows(m, lam, up_to)
        return [(0, 1, True, 2)] + right[1:] if m == 1 else right
    return wrong


def _obata_m_plus_1(obata_pair):
    return lambda m, lam_num, lam_den: ((m + 1) * lam_num, m * lam_den)


def _plus_one(multiplicity):
    return lambda m, k: multiplicity(m, k) + 1


def _sign_flipped_at_5(factor):
    def wrong(m):
        value, den = factor(m)
        return (-value, den) if m == 5 else (value, den)
    return wrong


@dataclass(frozen=True)
class Defect:
    name: str
    patch: Callable
    fails: tuple[str, ...]
    # a failed check's exact `got` text, or a test of its CheckResult
    gots: dict = field(default_factory=dict)


DEFECTS = [
    # the family's values
    Defect("E2c constant 2/3 written 2/3.1", _terms(coefficient=2.0 / 3.1),
           (CURVE, "E2c(Id) closed form m=*", NUMERICAL)),
    Defect("E2 x 1.001", _terms(bienergy=1.001),
           (CURVE, "m=[45] second difference in log t, step 0.01")),
    Defect("E x (1 + 1e-6)", _terms(energy=1.0 + 1e-6),
           (CURVE, *SPOTS, "m=4 second difference in log t, step 0.01")),
    # the error estimates at t = 1 are near 6e-14 of each value
    Defect("E x (1 + 1e-9)", _terms(energy=1.0 + 1e-9), (CURVE, *SPOTS)),
    Defect("every value x (1 + 2e-8)", _scaled(1.0 + 2e-8), (CURVE, *SPOTS)),
    Defect("every value x (1 + 5e-9)", _scaled(1.0 + 5e-9), (CURVE, *SPOTS)),
    # the estimates' margin: 2**-44, LADDER_ROUNDOFF itself, fails the S^4 curve
    Defect("every value x (1 + 2**-46), within every error estimate",
           _scaled(1.0 + 2.0 ** -46), ()),
    # no check but `symmetry` evaluates the family past t = 1
    Defect("every value x 1.001 at t > 1", _scaled(1.001, lambda t: t > 1.0), (SYMMETRY,)),
    Defect("every value x (1 + 1e-7) at t > 1", _scaled(1.0 + 1e-7, lambda t: t > 1.0),
           (SYMMETRY,), {SYMMETRY: "15 of 15 pairs differ, first m=4 t=0.5"}),
    Defect("E2c + 1e-3 at t > 1, unreported", _family(_offset_above_1), (SYMMETRY,)),
    # one ulp, far within every error estimate; the mirror is exact, so `symmetry` sees it
    Defect("every value x (1 + 2**-52) at t > 1", _scaled(1.0 + 2.0 ** -52, lambda t: t > 1.0),
           (SYMMETRY,)),
    # a sinh that is not odd: sinh(s)^2, the bienergy's coefficient, moves at t > 1 only
    Defect("math.sinh x (1 + 2**-50) for positive arguments",
           _setting(math, "sinh", _positive_times(math.sinh, 1.0 + 2.0 ** -50)), (SYMMETRY,)),
    # the ladder still stops on its accurate second level; the family's tests catch it
    Defect("REL_TOLERANCE 1e-4", _setting(cbstab.family, "REL_TOLERANCE", 1e-4), ()),
    # every error estimate 2**44 times its value: E2c - err would pass
    Defect("LADDER_ROUNDOFF 2.0 ** 44, the exponent's sign lost",
           _setting(cbstab.family, "LADDER_ROUNDOFF", 2.0 ** 44),
           ("m=* t=*: E2c < C*int sin^2(alpha)", "m=* eps=*: E2c + err < eps")),
    # the bound's margin over E2c is at least 2.7x; the family's tests catch both
    Defect("upper_bound x 0.4", _wrapped(cbstab.family, "upper_bound", _times(0.4)), ()),
    Defect("C without its 2(m-2)^2 term",
           _wrapped(cbstab.family, "c_constant", _c_without_square_term), ()),
    Defect("epsilon_schedule's t x 4", _wrapped(cbstab.family, "epsilon_schedule", _t_times(4.0)),
           ("m=* eps=*: certificate inequality",)),
    Defect("epsilon_schedule's t x 100",
           _wrapped(cbstab.family, "epsilon_schedule", _t_times(100.0)),
           ("m=* eps=*: certificate inequality",)),
    Defect("_family_side without its bienergy term",
           _wrapped(cbstab.family, "_family_side", _side_without_bienergy), (IDENTITY,)),
    # the closed forms and the Jacobi side scale with it too; the S^4 curve's target is a number
    Defect("sphere_volume x 1.0001",
           _wrapped(cbstab.family, "_sphere_volume_terms", _volume_times_1_0001), (CURVE,)),
    # the exact engine's roots and bounds; the second differences are
    # compared with the Jacobi side, so every c root defect fails them too
    Defect("c root (2/3)(7 - m) lambda",
           _last_root(Functional.CONFORMAL_BIENERGY, lambda m, n, d: (2 * (7 - m) * n, 3 * d)),
           ("c_bienergy S^4", "c_bienergy S^5", "S^4 exception",
            "S^5 index/nullity coincidence", IDENTITY, SIGN, NUMERICAL)),
    # S^3 and S^4 gain an index; the S^5..S^10 coincidence holds for any c
    # below the Obata bound, so it cannot see this defect.  At m = 3 the
    # family side is 3/4 and the Jacobi side (3 - 4)(3 - 8/3) * 3/4 = -1/4.
    Defect("c root (2/3)(5 - m) lambda",
           _last_root(Functional.CONFORMAL_BIENERGY, lambda m, n, d: (2 * (5 - m) * n, 3 * d)),
           ("c_bienergy S^3", "c_bienergy S^4", "S^4 exception", IDENTITY, SIGN, NUMERICAL),
           {IDENTITY: f"{M_MAX - 2} of {M_MAX - 1} differ, first m=3: 3/4 vs -1/4",
            "S^4 exception": "(5, 5, 10, 10)"}),
    # c above the Obata bound m for every m >= 3
    Defect("c root (2/3)(6 + m) lambda",
           _last_root(Functional.CONFORMAL_BIENERGY, lambda m, n, d: (2 * (6 + m) * n, 3 * d)),
           ("c_bienergy S^[3-9]", "c_bienergy S^10", "S^4 exception",
            "S^* index/nullity coincidence", IDENTITY, SIGN, NUMERICAL)),
    # the top cutoff of S^4, S^5 and S^7 no longer scales with lambda, so a
    # copy scaled by c < 1 declares a bound short of it: 19 of the 50 factors
    # on each of the three spheres, each one mismatch
    Defect("energy root 2 lambda + 1", patch_energy_root_plus_one,
           ("energy S^*", "S^4 exception", "S^* index/nullity coincidence", SCALING),
           {SCALING: f"{3 * 19} mismatches"}),
    # the cutoff stays 2 lambda, so every scaled copy is counted, and differs
    Defect("energy root 2 lambda - 1",
           _last_root(Functional.ENERGY, lambda m, n, d: (2 * n - d, d)),
           ("energy S^*", "S^4 exception", SCALING), {SCALING: "15 mismatches"}),
    Defect("Obata bound (m+1) lambda / m",
           _wrapped(cbstab.core, "_obata_pair", _obata_m_plus_1),
           ("first gradient band on the Obata bound, S^2..S^10",),
           {"first gradient band on the Obata bound, S^2..S^10": "9 of 9 off, first S^2"}),
    # the built-in spheres' rows
    Defect("gradient multiplicity + 1",
           _wrapped(cbstab.spectra, "gradient_multiplicity", _plus_one),
           ("energy S^[2-9]", "energy S^10", "bienergy S^2", "c_bienergy S^2",
            "c_bienergy S^[4-9]", "c_bienergy S^10", "S^4 exception")),
    Defect("divergence-free eigenvalue + lambda/(m-1)",
           _wrapped(cbstab.spectra, "_rows", _divergence_free_shifted),
           ("*energy S^[2-9]", "*energy S^10", "S^4 exception")),  # all three tables
    Defect("the circle's rotation field counted twice",
           _wrapped(cbstab.spectra, "_rows", _circle_rotation_twice), ("*energy S^1",)),
    # the zero and sign halves must both hold: the zeros are still at m = 2, 4
    Defect("the Jacobi factor's sign flipped at m = 5",
           _wrapped(cbstab.verify, "_factor", _sign_flipped_at_5),
           (IDENTITY, SIGN, "m=5 second difference in log t, step 0.01")),
]

@functools.cache
def _check_names():
    return tuple(r.name for r in run_suites())


def _matched(patterns):
    return {name for name in _check_names()
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)}


@pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_defect_fails_exactly_its_checks(monkeypatch, defect):
    expected = _matched(defect.fails)
    defect.patch(monkeypatch)
    results = {r.name: r for r in run_suites()}
    assert {name for name, r in results.items() if not r.passed} == expected
    for name, want in defect.gots.items():
        result = results[name]
        assert not result.passed
        assert result.got == want if isinstance(want, str) else want(result), result


def test_every_check_fails_under_a_defect():
    patterns = [pattern for defect in DEFECTS for pattern in defect.fails]
    assert set(_check_names()) - _matched(patterns) == set()
    for pattern in patterns:
        assert _matched([pattern]), pattern
