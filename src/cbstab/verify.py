"""Named verification suites behind `cbstab verify` and the acceptance tests.

Each suite returns CheckResult records; a suite passes when every record
does.  Tolerances and sample points are fixed here, not configurable, so the
suites mean the same thing in every run.  The acceptance tests
(tests/test_acceptance.py) call these suites through run_suites and define
no check of their own.

No suite compares E2c with E2 + (2/3)(m-1)(m-3) E: evaluate_family computes
it that way, so the comparison would test rounding only.  The accuracy of
all three values is checked against an exact closed form in
tests/test_family_reference.py.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import EinsteinSpace, Functional, _index_rows, jacobi_eigenvalue
from .errors import DomainError
from .family import (M_MAX, _family_side, c_constant, epsilon_schedule, evaluate_family,
                     spectral_prediction, sphere_volume, upper_bound)
from .spectra import builtin_spectrum

CONSTANCY_REL_TOL = 1e-8
SPOT_REL_TOL = 1e-8
SPOT_ABS_TOL = 1e-10
HESSIAN_REL_TOL = 1e-3
HESSIAN_ABS_TOL_AT_ZERO = 1e-4
# the numerical check's central second difference in s = log t
HESSIAN_STEP = 0.01
HESSIAN_DIMENSIONS = (4, 5, 6, 7)
SCALING_SAMPLES = 50
SCALING_SEED = 20250808


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    expected: str
    got: str
    tolerance: str
    passed: bool


def _check(suite: str, name: str, expected, got, tolerance: str, passed: bool) -> CheckResult:
    return CheckResult(suite=suite, name=name, expected=str(expected), got=str(got),
                       tolerance=tolerance, passed=bool(passed))


def _sphere_reports(spectrum):
    """Energy, bienergy and c-bienergy reports of a built-in spectrum, from one merge."""
    return _index_rows(spectrum.space, spectrum.rows, Functional, spectrum.complete_up_to)


def _expected_energy(m: int) -> tuple[int, int]:
    if m == 1:
        return 0, 1
    if m == 2:
        return 0, 6
    return m + 1, m * (m + 1) // 2


def _expected_c_bienergy(m: int) -> tuple[int, int]:
    if m in (1, 3):
        return 0, m * (m + 1) // 2
    if m in (2, 4):
        return 0, (m + 1) * (m + 2) // 2
    return m + 1, m * (m + 1) // 2


def suite_tables() -> list[CheckResult]:
    """Index/nullity tables for unit spheres m = 1..10, exact."""
    out = []
    reports = {m: _sphere_reports(builtin_spectrum(m)) for m in range(1, 11)}
    for m, (e, e2, e2c) in reports.items():
        want_e = _expected_energy(m)
        want_e2c = _expected_c_bienergy(m)
        out.append(_check("tables", f"energy S^{m}", want_e, (e.index, e.nullity),
                          "exact", (e.index, e.nullity) == want_e))
        out.append(_check("tables", f"bienergy S^{m}", (0, want_e[1]), (e2.index, e2.nullity),
                          "exact", (e2.index, e2.nullity) == (0, want_e[1])))
        out.append(_check("tables", f"c_bienergy S^{m}", want_e2c, (e2c.index, e2c.nullity),
                          "exact", (e2c.index, e2c.nullity) == want_e2c))

    e4, _, e2c4 = reports[4]
    got = (e2c4.index, e4.index, e2c4.nullity, e4.nullity)
    out.append(_check("tables", "S^4 exception", (0, 5, 15, 10), got,
                      "exact", got == (0, 5, 15, 10)))
    for m in range(5, 11):
        e, e2, e2c = reports[m]
        ok = e2c.index == e.index and e2c.nullity == e2.nullity
        out.append(_check("tables", f"S^{m} index/nullity coincidence",
                          (e.index, e2.nullity), (e2c.index, e2c.nullity), "exact", ok))

    out.append(_scaling_invariance_check())
    return out


def _scaling_invariance_check() -> CheckResult:
    rng = random.Random(SCALING_SEED)
    bases = {m: builtin_spectrum(m) for m in (4, 5, 7)}
    base_reports = {m: _sphere_reports(spectrum) for m, spectrum in bases.items()}
    failures = 0
    for _ in range(SCALING_SAMPLES):
        c = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        for m, spectrum in bases.items():
            scaled_space = EinsteinSpace(m, spectrum.space.einstein_constant * c)
            scaled_rows = [(num * c.numerator, den * c.denominator, divergence_free, mult, None)
                           for num, den, divergence_free, mult, _ in spectrum.rows]
            scaled = _index_rows(scaled_space, scaled_rows, Functional,
                                 spectrum.complete_up_to * c)
            for base, report in zip(base_reports[m], scaled):
                if (base.index, base.nullity) != (report.index, report.nullity):
                    failures += 1
    return _check("tables", f"scaling invariance ({SCALING_SAMPLES} rational factors)",
                  "0 mismatches", f"{failures} mismatches", "exact", failures == 0)


def suite_constancy() -> list[CheckResult]:
    """Constancy of the m=4 c-bienergy curve plus closed-form spot values."""
    out = []
    evaluate = functools.cache(evaluate_family)  # each (m, t) once per run
    target = 32.0 * math.pi ** 2 / 3.0
    worst = 0.0
    for k in range(-10, 11):
        t = 10.0 ** (k / 10.0)
        ev = evaluate(4, t)
        worst = max(worst, abs(ev.c_bienergy - target) / target)
    out.append(_check("constancy", "E2c(phi_t) on S^4 over 21 log-spaced t in [0.1, 10]",
                      f"32*pi^2/3 = {target:.12g}", f"worst rel dev {worst:.3e}",
                      f"rel {CONSTANCY_REL_TOL:g}", worst <= CONSTANCY_REL_TOL))

    for m in range(4, 9):
        ev = evaluate(m, 1.0)
        omega_m = sphere_volume(m)
        want_e2c = m * (m - 1) * (m - 3) / 3.0 * omega_m
        want_e = 0.5 * m * omega_m
        gap_e2c = abs(ev.c_bienergy - want_e2c) / want_e2c
        gap_e = abs(ev.energy - want_e) / want_e
        out.append(_check("constancy", f"E2c(Id) closed form m={m}",
                          f"{want_e2c:.12g}", f"{ev.c_bienergy:.12g}",
                          f"rel {SPOT_REL_TOL:g}", gap_e2c <= SPOT_REL_TOL))
        out.append(_check("constancy", f"E(Id) closed form m={m}",
                          f"{want_e:.12g}", f"{ev.energy:.12g}",
                          f"rel {SPOT_REL_TOL:g}", gap_e <= SPOT_REL_TOL))
        out.append(_check("constancy", f"E2(Id) = 0 m={m}", "0",
                          f"{ev.bienergy:.3e}", f"abs {SPOT_ABS_TOL:g}",
                          abs(ev.bienergy) <= SPOT_ABS_TOL))
    return out


def _factor(m: int) -> Fraction:
    """The c-bienergy Jacobi eigenvalue of the unit m-sphere's first gradient band, mu = m."""
    space = EinsteinSpace(dimension=m, einstein_constant=Fraction(m - 1))
    return jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, space, m)


def suite_hessian() -> list[CheckResult]:
    """E2c''(t=1) from the family's integrals against the Jacobi eigenvalue, then numerically.

    The variation field of the family at t = 1 is W = (sin r) d/dr, the
    gradient of -cos r, a Laplace eigenfunction with eigenvalue m.  The
    identity is a critical point of the c-bienergy, so E2c''(t=1) is the
    Hessian on W: in units of omega_m, the Jacobi side _factor(m) * w, with
    ||W||^2 / omega_m = w = m/(m+1) (Wallis).  family._family_side gives the
    family side, and spectral_prediction(m) its value.
    """
    factors = {m: _factor(m) for m in range(2, M_MAX + 1)}
    sides = [(m, _family_side(m), f * Fraction(m, m + 1)) for m, f in factors.items()]
    differ = [side for side in sides if side[1] != side[2]]
    out = [_check("hessian", f"E2c''(1) family side = Jacobi side, m=2..{M_MAX}",
                  f"0 of {len(factors)} differ",
                  f"{len(differ)} of {len(factors)} differ"
                  + (", first m={}: {} vs {}".format(*differ[0]) if differ else ""),
                  "exact", not differ)]
    zero = [m for m, f in factors.items() if f == 0]
    positive = [m for m, f in factors.items() if f > 0]
    out.append(_check("hessian", f"sign of the Jacobi factor, m=2..{M_MAX}",
                      f"zero at m=[2, 4], positive at m=[3], negative at the other {M_MAX - 4}",
                      f"zero at m={zero}, positive at m={positive}, negative at the other "
                      f"{len(factors) - len(zero) - len(positive)}",
                      "exact", zero == [2, 4] and positive == [3]))
    h = HESSIAN_STEP
    for m in HESSIAN_DIMENSIONS:
        center = evaluate_family(m, 1.0).c_bienergy
        plus = evaluate_family(m, math.exp(h)).c_bienergy
        minus = evaluate_family(m, math.exp(-h)).c_bienergy
        quotient = (plus - 2.0 * center + minus) / (h * h)
        prediction = spectral_prediction(m)
        if prediction == 0.0:
            tolerance = f"abs {HESSIAN_ABS_TOL_AT_ZERO:g}"
            ok = abs(quotient) <= HESSIAN_ABS_TOL_AT_ZERO
        else:
            tolerance = f"rel {HESSIAN_REL_TOL:g}"
            ok = abs(quotient - prediction) <= HESSIAN_REL_TOL * abs(prediction)
        out.append(_check("hessian", f"m={m} second difference in log t, step {h:g}",
                          f"{prediction:.10g}", f"{quotient:.10g}", tolerance, ok))
    return out


def suite_epsilon() -> list[CheckResult]:
    """The epsilon construction really achieves E2c(phi_t) < eps."""
    out = []
    for m, eps in ((5, 1.0), (5, 0.1), (6, 0.5), (7, 0.25)):
        t, cert = epsilon_schedule(m, eps)
        ev = evaluate_family(m, t)
        achieved = ev.c_bienergy + ev.c_bienergy_error
        out.append(_check("epsilon", f"m={m} eps={eps}: E2c + err < eps",
                          f"< {eps}", f"{achieved:.6e} (t={t:.6e})",
                          "strict", achieved < eps))
        lhs = math.sin(2.0 * math.atan(t * cert.k)) ** 2
        rhs = cert.eta / (2.0 * cert.rho)
        out.append(_check("epsilon", f"m={m} eps={eps}: certificate inequality",
                          f"< {rhs:.6e}", f"{lhs:.6e}", "strict", lhs < rhs))
    return out


def suite_bounds() -> list[CheckResult]:
    """Strict upper bound C * integral sin^2(alpha) for m >= 5."""
    out = []
    for m in (5, 6, 7):
        for t in (0.01, 0.5, 1.0, 2.0, 100.0):
            ev = evaluate_family(m, t)
            bound = upper_bound(m, t)
            ok = ev.c_bienergy + ev.c_bienergy_error < bound
            out.append(_check("bounds", f"m={m} t={t}: E2c < C*int sin^2(alpha)",
                              f"< {bound:.10g}",
                              f"{ev.c_bienergy:.10g} (+{ev.c_bienergy_error:.2e})",
                              "strict", ok))
        out.append(_check("bounds", f"m={m}: constant C positive", "> 0",
                          f"{c_constant(m):.10g}", "strict", c_constant(m) > 0))
    return out


def suite_symmetry() -> list[CheckResult]:
    """Positivity of E2c along the family for m = 4..8.

    The t <-> 1/t symmetry holds by construction, since evaluate_family sums
    the same node values for t and 1/t; tests/test_family_reference.py
    checks it, and the suite keeps its name.
    """
    out = []
    for m in (4, 5, 6, 7, 8):
        for t in (0.05, 0.37, 0.5, 1.0, 3.0, 20.0):
            ev = evaluate_family(m, t)
            out.append(_check("symmetry", f"positivity m={m} t={t}", "> 0",
                              f"{ev.c_bienergy:.6e}", "strict", ev.c_bienergy > 0.0))
    return out


SUITES = {
    "tables": suite_tables,
    "constancy": suite_constancy,
    "hessian": suite_hessian,
    "epsilon": suite_epsilon,
    "bounds": suite_bounds,
    "symmetry": suite_symmetry,
}


def run_suites(names=None) -> list[CheckResult]:
    """Run the named suites (all of them by default) in the order given.

    Every name is checked before any suite runs; an unknown one raises
    DomainError.
    """
    names = list(SUITES) if names is None else list(names)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise DomainError(f"unknown suite {unknown[0]!r}; available: {', '.join(SUITES)}")
    return [result for name in names for result in SUITES[name]()]
