"""Named verification suites behind `cbstab verify` and the acceptance tests.

Each suite yields its checks as plain (name, expected, got, tolerance,
passed) tuples, and run_suites makes every CheckResult, taking the suite
from its SUITES key; a suite passes when every check does.  Tolerances and
sample points are fixed here, not configurable, so the suites mean the same
thing in every run.  The acceptance tests (tests/test_acceptance.py) call
these suites through run_suites and define no check of their own, and
tests/test_verify_defects.py names a defect in the program that fails each
check.  The `symmetry` suite checks the family's t <-> 1/t symmetry bit
for bit at t = 2^-k, where it is exact, so every other family check
samples t <= 1.  A family value compared with an exact one must lie within
its own error estimate, so no tolerance on it is set by hand; the second
differences add only their O(h^2) truncation.
Each suite reads the family as its one argument, family(m, t): run_suites
evaluates each distinct (m, t) once per call and hands the values to the
suites that read them; no value outlives the call.

The exact checks run on integer pairs.  The `tables` suite compares
(index, nullity) from core._sign_counts, the counting core that `cbstab
index` and index_reports read; it builds no SpectralBand, IndexReport or
Jacobi Fraction, and its rescaled spheres are integer pairs, with no
EinsteinSpace or Fraction of their own.  It also checks each unit
sphere's first gradient band against core._obata_pair, the Obata bound
that validation reads.  `hessian` compares core._jacobi_pair's pair with
family._family_side's by integer cross-multiplication, and its second
differences with the Jacobi pair, so it builds no Fraction.  Both suites
read the roots from their one definition, core._roots.

No suite compares E2c with E2 + (2/3)(m-1)(m-3) E: evaluate_family computes
it that way, so the comparison would test rounding only.  Nor does one
check what holds by arithmetic alone: E2 at t = 1, whose coefficient
(m-2)^2 sinh^2(0) is 0, or the sign of the constant C, a sum of positive
terms.  The accuracy of all three values is checked against an exact
closed form in tests/test_family_reference.py.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .core import Functional, _jacobi_pair, _obata_pair, _ratio_text, _sign_counts
from .errors import DomainError, IncompleteSpectrum
from .family import (M_MAX, _family_side, epsilon_schedule, evaluate_family, sphere_volume,
                     upper_bound)
from .spectra import builtin_spectrum

# the second differences' O(h^2) truncation allowance, relative
HESSIAN_REL_TOL = 1e-3
# the numerical check's second difference in s = log t, at s = -h and 0
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


# the kinds every sphere is counted for, in the order the tables read them
_KINDS = tuple(Functional)


def _sphere_counts(m: int, lam_num: int, lam_den: int, rows,
                   bound: tuple[int, int]) -> list[tuple[int, int]]:
    """Energy, bienergy and c-bienergy (index, nullity) of a sphere's rows, from one merge."""
    return [(index, nullity) for _, index, nullity, _, _ in
            _sign_counts(m, lam_num, lam_den, rows, _KINDS, bound)]


def _unit_sphere(m: int) -> tuple:
    """The built-in unit m-sphere as (m, lambda's pair, its rows, its bound's pair)."""
    spectrum = builtin_spectrum(m)
    lam, bound = spectrum.space.einstein_constant, spectrum.complete_up_to
    return m, lam.numerator, lam.denominator, spectrum.rows, (bound.numerator, bound.denominator)


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


def suite_tables(family):
    """Index/nullity tables for unit spheres m = 1..10, exact."""
    spheres = {m: _unit_sphere(m) for m in range(1, 11)}
    counts = {m: _sphere_counts(*data) for m, data in spheres.items()}
    for m, (e, e2, e2c) in counts.items():
        want_e = _expected_energy(m)
        want_e2 = (0, want_e[1])
        want_e2c = _expected_c_bienergy(m)
        yield f"energy S^{m}", want_e, e, "exact", e == want_e
        yield f"bienergy S^{m}", want_e2, e2, "exact", e2 == want_e2
        yield f"c_bienergy S^{m}", want_e2c, e2c, "exact", e2c == want_e2c

    e4, _, e2c4 = counts[4]
    got = (e2c4[0], e4[0], e2c4[1], e4[1])
    yield "S^4 exception", (0, 5, 15, 10), got, "exact", got == (0, 5, 15, 10)
    for m in range(5, 11):
        e, e2, e2c = counts[m]
        want = (e[0], e2[1])
        yield f"S^{m} index/nullity coincidence", want, e2c, "exact", e2c == want

    # the round sphere saturates the bound: on the unit m-sphere the first
    # gradient band is mu = m, and lambda = m - 1
    off = []
    for m in range(2, 11):
        _, lam_num, lam_den, rows, _ = spheres[m]
        num, den = next((num, den) for num, den, divergence_free, _ in rows if not divergence_free)
        obata_num, obata_den = _obata_pair(m, lam_num, lam_den)
        if num * obata_den != obata_num * den:
            off.append(m)
    yield ("first gradient band on the Obata bound, S^2..S^10", "0 of 9 off",
           f"{len(off)} of 9 off" + (f", first S^{off[0]}" if off else ""), "exact", not off)

    yield _scaling_invariance([(spheres[m], counts[m]) for m in (4, 5, 7)])


def _scaling_invariance(bases) -> tuple:
    """Each (sphere, counts) in `bases`, scaled by SCALING_SAMPLES rational factors c.

    Scaling the metric by 1/c scales lambda, every eigenvalue and the
    declared bound by c, so the counts must not move.  Each is scaled as an
    integer pair, unreduced.  A copy whose scaled bound no longer reaches a
    scaled cutoff is one mismatch.
    """
    rng = random.Random(SCALING_SEED)
    failures = 0
    for _ in range(SCALING_SAMPLES):
        c_num, c_den = rng.randint(1, 60), rng.randint(1, 60)
        for (m, lam_num, lam_den, rows, (bound_num, bound_den)), base in bases:
            scaled_rows = [(num * c_num, den * c_den, divergence_free, mult)
                           for num, den, divergence_free, mult in rows]
            try:
                scaled = _sign_counts(m, lam_num * c_num, lam_den * c_den, scaled_rows, _KINDS,
                                      (bound_num * c_num, bound_den * c_den))
            except IncompleteSpectrum:
                failures += 1
                continue
            for counts, (_, index, nullity, _, _) in zip(base, scaled):
                if counts != (index, nullity):
                    failures += 1
    return (f"scaling invariance ({SCALING_SAMPLES} rational factors)",
            "0 mismatches", f"{failures} mismatches", "exact", failures == 0)


def suite_constancy(family):
    """Constancy of the m=4 c-bienergy curve plus closed-form spot values of E2c and E."""
    # t < 1: at t = 1 the m=4 spot value m(m-1)(m-3)/3 * omega_m is 32*pi^2/3
    target = 32.0 * math.pi ** 2 / 3.0
    worst = 0.0
    for k in range(-10, 0):
        ev = family(4, 10.0 ** (k / 10.0))
        worst = max(worst, abs(ev.c_bienergy - target) / ev.c_bienergy_error)
    yield ("E2c(phi_t) on S^4 over 10 log-spaced t in [0.1, 1)",
           f"32*pi^2/3 = {target:.12g}", f"worst |dev| / error estimate {worst:.3e}",
           "error estimate", worst <= 1.0)

    for m in range(4, 9):
        ev = family(m, 1.0)
        omega_m = sphere_volume(m)
        want_e2c = m * (m - 1) * (m - 3) / 3.0 * omega_m
        want_e = 0.5 * m * omega_m
        yield (f"E2c(Id) closed form m={m}", f"{want_e2c:.12g}", f"{ev.c_bienergy:.12g}",
               "error estimate", abs(ev.c_bienergy - want_e2c) <= ev.c_bienergy_error)
        yield (f"E(Id) closed form m={m}", f"{want_e:.12g}", f"{ev.energy:.12g}",
               "error estimate", abs(ev.energy - want_e) <= ev.energy_error)


def _factor(m: int) -> tuple[int, int]:
    """The c-bienergy Jacobi eigenvalue of the unit m-sphere's first gradient band, mu = m.

    An integer pair (value, denominator) with denominator > 0.
    """
    return _jacobi_pair(Functional.CONFORMAL_BIENERGY, m, m - 1, 1, m, 1)


def suite_hessian(family):
    """E2c''(t=1) from the family's integrals against the Jacobi eigenvalue, then numerically.

    The variation field of the family at t = 1 is W = (sin r) d/dr, the
    gradient of -cos r, a Laplace eigenfunction with eigenvalue m.  The
    identity is a critical point of the c-bienergy, so E2c''(t=1) is the
    Hessian on W: in units of omega_m, the Jacobi side _factor(m) * w, with
    ||W||^2 / omega_m = w = m/(m+1) (Wallis).  family._family_side gives the
    family side; the two integer pairs are compared by cross-multiplication,
    and the second differences with the Jacobi side times omega_m.  E2c is
    even in log t (`symmetry` checks this bit for bit at t = 2^-k), so each
    second difference is 2 (E2c(e^-h) - E2c(1)) / h^2, with no point past
    t = 1; it may miss the Jacobi side by its O(h^2) truncation and its
    propagated error estimates.
    """
    factors = {m: _factor(m) for m in range(2, M_MAX + 1)}
    differ = []
    for m, (value, den) in factors.items():
        family_num, family_den = _family_side(m)
        # the Jacobi side is (value * m) / (den * (m + 1))
        if family_num * den * (m + 1) != value * m * family_den:
            differ.append((m, _ratio_text(family_num, family_den),
                           _ratio_text(value * m, den * (m + 1))))
    yield (f"E2c''(1) family side = Jacobi side, m=2..{M_MAX}",
           f"0 of {len(factors)} differ",
           f"{len(differ)} of {len(factors)} differ"
           + (", first m={}: {} vs {}".format(*differ[0]) if differ else ""),
           "exact", not differ)
    zero = [m for m, (value, _) in factors.items() if value == 0]
    positive = [m for m, (value, _) in factors.items() if value > 0]
    yield (f"sign of the Jacobi factor, m=2..{M_MAX}",
           f"zero at m=[2, 4], positive at m=[3], negative at the other {M_MAX - 4}",
           f"zero at m={zero}, positive at m={positive}, negative at the other "
           f"{len(factors) - len(zero) - len(positive)}",
           "exact", zero == [2, 4] and positive == [3])
    h = HESSIAN_STEP
    for m in HESSIAN_DIMENSIONS:
        center, side = family(m, 1.0), family(m, math.exp(-h))
        quotient = 2.0 * (side.c_bienergy - center.c_bienergy) / (h * h)
        value, den = factors[m]
        prediction = value * m / (den * (m + 1)) * sphere_volume(m)
        allowance = (HESSIAN_REL_TOL * abs(prediction)
                     + 2.0 * (side.c_bienergy_error + center.c_bienergy_error) / (h * h))
        yield (f"m={m} second difference in log t, step {h:g}", f"{prediction:.10g}",
               f"{quotient:.10g}", f"rel {HESSIAN_REL_TOL:g} + error estimates",
               abs(quotient - prediction) <= allowance)


def suite_epsilon(family):
    """The epsilon construction really achieves E2c(phi_t) < eps."""
    for m, eps in ((5, 1.0), (5, 0.1), (6, 0.5), (7, 0.25)):
        t, cert = epsilon_schedule(m, eps)
        ev = family(m, t)
        achieved = ev.c_bienergy + ev.c_bienergy_error
        yield (f"m={m} eps={eps}: E2c + err < eps", f"< {eps}",
               f"{achieved:.6e} (t={t:.6e})", "strict", achieved < eps)
        lhs = math.sin(2.0 * math.atan(t * cert.k)) ** 2
        rhs = cert.eta / (2.0 * cert.rho)
        yield (f"m={m} eps={eps}: certificate inequality", f"< {rhs:.6e}", f"{lhs:.6e}",
               "strict", lhs < rhs)


def suite_bounds(family):
    """Strict upper bound C * integral sin^2(alpha) for m >= 5.

    E2c is even in log t, which the `symmetry` suite checks bit for bit at
    t = 2^-k, and so is the bound 2 pi t/(1 + t)^2 * C, so the points stop
    at t = 1.
    """
    for m in (5, 6, 7):
        for t in (0.01, 0.5, 1.0):
            ev = family(m, t)
            bound = upper_bound(m, t)
            yield (f"m={m} t={t}: E2c < C*int sin^2(alpha)", f"< {bound:.10g}",
                   f"{ev.c_bienergy:.10g} (+{ev.c_bienergy_error:.2e})", "strict",
                   ev.c_bienergy + ev.c_bienergy_error < bound)


def suite_symmetry(family):
    """family(m, t) = family(m, 1/t) bit for bit, for m = 4..8 and t = 2^-1, 2^-2, 2^-3.

    phi_{1/t} is phi_t conjugated by the reflection r -> pi - r, so the
    functionals take the same value at t and 1/t.  At these t, 1/t is
    exact and s = log t changes sign only, so the ladder sums the same node
    values at t and 1/t: its window depends on |s| only, the mirror node -u
    swaps sin r and sin alpha, sinh is odd, and math.fsum does not depend on
    the order of the terms.  So all three values, their error estimates and
    the node count must be equal, not merely close; the floats are positive
    and finite, so == compares their bits.
    """
    pairs = [(m, t) for m in range(4, 9) for t in (0.5, 0.25, 0.125)]
    differ = [(m, t) for m, t in pairs if family(m, t) != family(m, 1.0 / t)]
    yield ("family(m, t) = family(m, 1/t), m=4..8, t=0.5, 0.25, 0.125",
           f"0 of {len(pairs)} pairs differ", f"{len(differ)} of {len(pairs)} pairs differ"
           + (", first m={} t={}".format(*differ[0]) if differ else ""),
           "bit for bit", not differ)


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

    Every name is checked before any suite runs; an unknown or repeated
    one raises DomainError.  Each suite, given this call's one family
    table, yields (name, expected, got, tolerance, passed), and this is
    the one place that makes them CheckResults, under its SUITES name.
    """
    names = list(SUITES) if names is None else list(names)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise DomainError(f"unknown suite {unknown[0]!r}; available: {', '.join(SUITES)}")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise DomainError(f"suite {repeated[0]!r} named twice")
    family = functools.cache(evaluate_family)
    return [CheckResult(suite, name, str(expected), str(got), tolerance, bool(passed))
            for suite in names
            for name, expected, got, tolerance, passed in SUITES[suite](family)]
