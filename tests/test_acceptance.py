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
from cbstab.family import evaluate_family
from cbstab.verify import SUITES, run_suites, suite_hessian, suite_tables
from helpers import count_constructions

TIME_LIMITS_S = {"tables": 1.0, "constancy": 5.0, "hessian": 30.0}


@functools.cache
def _timed_run(suite):
    start = time.perf_counter()
    results = run_suites([suite])
    return tuple(results), time.perf_counter() - start


def _assert_suite(suite, select=lambda name: True):
    results, elapsed = _timed_run(suite)
    assert all(r.suite == suite for r in results)
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
    """E2c(Id) and E(Id) against their closed forms."""
    _assert_suite("constancy", lambda name: "(Id)" in name)


@pytest.mark.parametrize("suite", [s for s in SUITES if s not in ("tables", "constancy")])
def test_verify_suite(suite):
    _assert_suite(suite)


def test_exact_suites_give_45_passing_checks():
    # tables and hessian compare integer pairs, so their verdicts, unlike
    # the pinned energy and verify digests, do not depend on the libm
    results = run_suites(["tables", "hessian"])
    assert len(results) == 45 and all(r.passed for r in results)


@pytest.mark.parametrize("names", [["nonsense"], ["tables", "nonsense"], ["tables", "tables"]])
def test_unknown_suite_is_refused_before_any_suite_runs(monkeypatch, names):
    # a repeated name would run its suite, and list each of its checks, twice
    monkeypatch.setitem(SUITES, "tables", lambda family: pytest.fail("a suite ran"))
    refusal = ("unknown suite 'nonsense'" if "nonsense" in names
               else "suite 'tables' named twice")
    with pytest.raises(DomainError, match=refusal):
        run_suites(names)


# symmetry evaluates each of its 15 pairs at t = 2^-1, 2^-2, 2^-3 and at 1/t,
# where the two evaluations are equal bit for bit;
# constancy's log-spaced curve stops short of t = 1 on S^4, a spot value;
# hessian differences E2c at t = e^-h and 1 for m = 4..7, E2c being even in log t;
# bounds stops at t = 1, since E2c and the bound are symmetric under t <-> 1/t;
# epsilon evaluates each of its four constructions once;
# a full run evaluates each shared point once, t = 1 for m = 4..7 (constancy,
# hessian, bounds) and t = 0.5 for m = 5..7 (bounds, symmetry): 56 for 66 reads
@pytest.mark.parametrize("suite, calls", [(None, 56), ("symmetry", 30), ("constancy", 15),
                                          ("hessian", 8), ("bounds", 9), ("epsilon", 4)])
def test_suite_evaluates_each_point_once(monkeypatch, suite, calls):
    import cbstab.verify

    points = []
    running = []
    original = cbstab.verify.evaluate_family

    def counted(m, t):
        points.append((running[-1], m, t))
        return original(m, t)

    def named(name, run):
        def tagged(family):
            running.append(name)
            yield from run(family)
        return tagged

    monkeypatch.setattr(cbstab.verify, "evaluate_family", counted)
    for name, run in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, named(name, run))
    names = None if suite is None else [suite]
    run_suites(names)
    assert len(points) == len({(m, t) for _, m, t in points}) == calls
    # symmetry is the one suite that looks past t = 1
    assert all(t <= 1.0 for name, _, t in points if name != "symmetry")
    # no value outlives the run: a second run evaluates every point again
    run_suites(names)
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
    counts, results = count_constructions(lambda: list(suite_tables(evaluate_family)))
    assert len(results) == 39 and all(passed for *_, passed in results)
    assert reports == []
    assert counts["SpectralBand"] == 0
    assert counts["EinsteinSpace"] == 10
    assert counts["Fraction"] <= 10 * 2


def test_hessian_builds_no_fraction():
    # a machine-independent cost counter: the exact half cross-multiplies
    # two integer pairs, the numerical half rounds the Jacobi pair once, and
    # evaluate_family builds none (53 Fractions while the family side was a
    # Fraction, 314 and 49 spaces while the sides were compared as Fractions)
    counts, results = count_constructions(lambda: list(suite_hessian(evaluate_family)))
    assert all(passed for *_, passed in results)
    assert counts == {"Fraction": 0, "SpectralBand": 0, "EinsteinSpace": 0}
