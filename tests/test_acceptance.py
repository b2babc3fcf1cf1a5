"""Acceptance gate: every verification suite passes, within its time budget.

Each check, with its tolerance and sample points, is defined once, in
cbstab.verify; these tests run the same suites as `cbstab verify` and print
the checks that failed (visible with pytest -s or in a failing run's output).
The `tables` and `constancy` suites are each run once and their checks split
between two criterion tests; every other suite is one `test_verify_suite`.
"""

import functools
import time

import pytest

from cbstab.errors import DomainError
from cbstab.family import M_MAX
from cbstab.verify import HESSIAN_DIMENSIONS, SUITES, run_suites, suite_hessian, suite_tables
from test_core import count_constructions, patch_energy_root_plus_one

TIME_LIMITS_S = {"tables": 1.0, "constancy": 5.0, "hessian": 30.0}


@functools.cache
def _timed_run(suite):
    start = time.perf_counter()
    results = run_suites([suite])
    return tuple(results), time.perf_counter() - start


def _assert_suite(suite, select=lambda name: True):
    results, elapsed = _timed_run(suite)
    chosen = [r for r in results if select(r.name)]
    failed = [r for r in chosen if not r.passed]
    for r in failed:
        print(f"FAIL {r.suite}/{r.name}: expected {r.expected}, got {r.got} "
              f"(tolerance: {r.tolerance})")
    assert chosen and not failed
    assert elapsed < TIME_LIMITS_S.get(suite, float("inf"))


def _is_s4_or_coincidence(name):
    return name == "S^4 exception" or name.endswith("index/nullity coincidence")


def test_criterion_1_sphere_tables_exact():
    """The energy, bienergy and c-bienergy tables for S^1..S^10, and scaling invariance."""
    _assert_suite("tables", lambda name: not _is_s4_or_coincidence(name))


def test_criterion_2_s4_exception_and_coincidence():
    """S^4 is the lone exception; for m in 5..10 the reports coincide."""
    _assert_suite("tables", _is_s4_or_coincidence)


def test_criterion_3_h4c_constancy():
    """E2c(phi_t) on S^4 is constant in t."""
    _assert_suite("constancy", lambda name: "(Id)" not in name)


def test_criterion_4_closed_form_spot_values():
    """E2c(Id), E(Id) and E2(Id) against their closed forms."""
    _assert_suite("constancy", lambda name: "(Id)" in name)


@pytest.mark.parametrize("suite", [s for s in SUITES if s not in ("tables", "constancy")])
def test_verify_suite(suite):
    _assert_suite(suite)


@pytest.mark.parametrize("suite", list(SUITES))
def test_each_suite_gives_passing_checks_under_its_own_name(suite):
    # what each op of the benchmark's verify workload requires of one suite
    results, _ = _timed_run(suite)
    assert results and all(r.suite == suite and r.passed for r in results)


@pytest.mark.parametrize("names", [["nonsense"], ["tables", "nonsense"]])
def test_unknown_suite_is_refused_before_any_suite_runs(monkeypatch, names):
    monkeypatch.setitem(SUITES, "tables", lambda: pytest.fail("a suite ran"))
    with pytest.raises(DomainError, match="unknown suite 'nonsense'"):
        run_suites(names)


# symmetry's 30 positivity points are distinct;
# constancy's log-spaced curve passes t = 1 on S^4, a spot value too;
# hessian differences E2c at t = e^-h, 1 and e^h for m = 4..7
@pytest.mark.parametrize("suite, calls", [("symmetry", 30), ("constancy", 25), ("hessian", 12)])
def test_suite_evaluates_each_point_once(monkeypatch, suite, calls):
    import cbstab.verify

    points = []
    original = cbstab.verify.evaluate_family

    def counted(m, t):
        points.append((m, t))
        return original(m, t)

    monkeypatch.setattr(cbstab.verify, "evaluate_family", counted)
    run_suites([suite])
    assert len(points) == len(set(points)) == calls
    # no value outlives the run: a second run evaluates every point again
    run_suites([suite])
    assert len(points) == 2 * calls


def test_tables_counts_signs_without_building_reports(monkeypatch):
    # a machine-independent cost counter: `tables` compares (index, nullity)
    # from the engine's counting core, so it builds no band and no report
    # (325 bands, 489 reports and 1602 Fractions while it compared reports).
    # Its Fractions and spaces are the built-in spheres' (10 of them): each
    # builtin_spectrum builds its lambda and its bound, picked from the
    # cutoffs as integer pairs, and one EinsteinSpace, on Python 3.10 to
    # 3.13 (5 Fractions per sphere while each cutoff was a Fraction).  A
    # scaled copy is integer pairs only, so neither count grows with
    # SCALING_SAMPLES (415 Fractions and 163 spaces while each copy had its own).
    import cbstab.core

    reports = []
    monkeypatch.setattr(cbstab.core, "IndexReport", lambda **fields: reports.append(fields))
    counts, results = count_constructions(lambda: list(suite_tables()))
    assert len(results) == 38 and all(passed for *_, passed in results)
    assert reports == []
    assert counts["SpectralBand"] == 0
    assert counts["EinsteinSpace"] == 10
    assert counts["Fraction"] <= 10 * 2


def test_hessian_builds_a_fraction_per_family_side_only():
    # the exact half compares integer pairs by cross-multiplication, so its
    # only Fraction per m = 2..M_MAX is _family_side's; the numerical half
    # builds one more per spectral_prediction, and evaluate_family none
    # (314 Fractions and 49 spaces while the sides were compared as Fractions)
    counts, results = count_constructions(lambda: list(suite_hessian()))
    assert all(passed for *_, passed in results)
    assert counts == {"Fraction": (M_MAX - 1) + len(HESSIAN_DIMENSIONS), "SpectralBand": 0,
                      "EinsteinSpace": 0}


def test_scaled_copy_short_of_its_cutoff_is_a_mismatch(monkeypatch):
    # with energy root 2*lambda + 1 the top cutoff of S^4, S^5 and S^7 does not
    # scale with lambda, so a copy scaled by c < 1 declares a bound short of
    # it; the run goes on, and the scaling check counts each such copy, 19 of
    # the 50 factors on each of the three spheres, as one mismatch
    patch_energy_root_plus_one(monkeypatch)
    results = {r.name: r for r in run_suites(["tables"])}
    scaling = results["scaling invariance (50 rational factors)"]
    assert not scaling.passed
    assert scaling.got == f"{3 * 19} mismatches"
