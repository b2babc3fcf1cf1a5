"""Named verification suites behind `cbstab verify` and the acceptance tests.

Each suite returns CheckResult records; a suite passes when every record
does.  Tolerances and sample points are fixed here, not configurable, so the
suites mean the same thing in every run.  The acceptance tests
(tests/test_acceptance.py) call these suites through run_suites and define
no check of their own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import EinsteinSpace, Functional, SpectralBand, index_reports
from .family import c_constant, epsilon_schedule, evaluate_family, upper_bound
from .quadrature import sphere_volume
from .spectra import builtin_spectrum
from .variation import SignVerdict, fd_second_derivative

CONSTANCY_REL_TOL = 1e-8
SPOT_REL_TOL = 1e-8
SPOT_ABS_TOL = 1e-10
SYMMETRY_REL_TOL = 1e-9
HESSIAN_REL_TOL = 1e-3
HESSIAN_ABS_TOL_AT_ZERO = 1e-4
DECOMPOSITION_ABS_FLOOR = 1e-12
SCALING_SAMPLES = 50
SCALING_SEED = 20250808
DECOMPOSITION_GRID = sorted({(m, t) for m in (3, 4, 5, 6) for t in (0.3, 1.0, 2.5)}
                            | {(m, t) for m in (4, 5, 6, 7) for t in (0.05, 0.5, 1.0, 3.0, 20.0)})


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
    return index_reports(spectrum.space, spectrum.bands, Functional,
                         complete_up_to=spectrum.complete_up_to)


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
            scaled_bands = [SpectralBand(b.eigenvalue * c, b.multiplicity, b.kind)
                            for b in spectrum.bands]
            scaled = index_reports(scaled_space, scaled_bands, Functional,
                                   complete_up_to=spectrum.complete_up_to * c)
            for base, report in zip(base_reports[m], scaled):
                if (base.index, base.nullity) != (report.index, report.nullity):
                    failures += 1
    return _check("tables", f"scaling invariance ({SCALING_SAMPLES} rational factors)",
                  "0 mismatches", f"{failures} mismatches", "exact", failures == 0)


def suite_constancy() -> list[CheckResult]:
    """Constancy of the m=4 c-bienergy curve plus closed-form spot values."""
    out = []
    target = 32.0 * math.pi ** 2 / 3.0
    worst = 0.0
    for k in range(-10, 11):
        t = 10.0 ** (k / 10.0)
        ev = evaluate_family(4, t)
        worst = max(worst, abs(ev.c_bienergy - target) / target)
    out.append(_check("constancy", "E2c(phi_t) on S^4 over 21 log-spaced t in [0.1, 10]",
                      f"32*pi^2/3 = {target:.12g}", f"worst rel dev {worst:.3e}",
                      f"rel {CONSTANCY_REL_TOL:g}", worst <= CONSTANCY_REL_TOL))

    for m in range(4, 9):
        ev = evaluate_family(m, 1.0)
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


def suite_hessian() -> list[CheckResult]:
    """Finite differences against the spectral Hessian value at t = 1."""
    out = []
    report = fd_second_derivative(4)
    out.append(_check("hessian", "m=4 second derivative vanishes", "0",
                      f"{report.fd_value:.3e}", f"abs {HESSIAN_ABS_TOL_AT_ZERO:g}",
                      abs(report.fd_value) <= HESSIAN_ABS_TOL_AT_ZERO
                      and report.sign_verdict is SignVerdict.ZERO))
    for m in (5, 6, 7):
        report = fd_second_derivative(m)
        ok = (report.relative_gap <= HESSIAN_REL_TOL
              and report.sign_verdict is SignVerdict.NEGATIVE)
        out.append(_check("hessian", f"m={m} fd matches prediction",
                          f"{report.prediction:.10g}", f"{report.fd_value:.10g}",
                          f"rel {HESSIAN_REL_TOL:g}", ok))
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
    """t <-> 1/t symmetry, positivity and the decomposition identity."""
    out = []
    for m in (4, 5, 6):
        for t in (0.2, 0.5, 2.0, 5.0):
            a = evaluate_family(m, t)
            b = evaluate_family(m, 1.0 / t)
            gaps = []
            for va, vb in ((a.energy, b.energy), (a.bienergy, b.bienergy),
                           (a.c_bienergy, b.c_bienergy)):
                gaps.append(abs(va - vb) / max(1.0, abs(va), abs(vb)))
            worst = max(gaps)
            out.append(_check("symmetry", f"m={m} t={t} vs 1/t", "componentwise equal",
                              f"worst rel gap {worst:.3e}", f"rel {SYMMETRY_REL_TOL:g}",
                              worst <= SYMMETRY_REL_TOL))

    for m in (4, 5, 6, 7, 8):
        for t in (0.05, 0.37, 0.5, 1.0, 3.0, 20.0):
            ev = evaluate_family(m, t)
            out.append(_check("symmetry", f"positivity m={m} t={t}", "> 0",
                              f"{ev.c_bienergy:.6e}", "strict", ev.c_bienergy > 0.0))

    for m, t in DECOMPOSITION_GRID:
        ev = evaluate_family(m, t)
        coef = 2.0 * (m - 1) * (m - 3) / 3.0
        combined = (ev.c_bienergy_error + ev.bienergy_error
                    + abs(coef) * ev.energy_error + DECOMPOSITION_ABS_FLOOR)
        gap = abs(ev.c_bienergy - (ev.bienergy + coef * ev.energy))
        out.append(_check("symmetry", f"decomposition m={m} t={t}",
                          f"gap <= {combined:.3e}", f"{gap:.3e}",
                          "combined quadrature error", gap <= combined))
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
    """Run the named suites (all of them by default) in a fixed order."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        results.extend(SUITES[name]())
    return results
