import dataclasses
import math
from fractions import Fraction

import pytest

import cbstab.core
import cbstab.verify
from cbstab.core import Functional
from cbstab.errors import DomainError
from cbstab.family import (M_MAX, _family_side, evaluate_family, spectral_prediction,
                           sphere_volume)
from cbstab.verify import HESSIAN_STEP, run_suites

PI = math.pi
IDENTITY = f"E2c''(1) family side = Jacobi side, m=2..{M_MAX}"


def test_prediction_exact_zero_at_m4():
    assert spectral_prediction(4) == 0.0


def test_prediction_m5_closed_form():
    # (5-8)(5-8/3) * omega_4 * int sin^6 = -7 * (8 pi^2/3) * (5 pi/16) = -35 pi^3/6
    assert spectral_prediction(5) == pytest.approx(-35.0 * PI ** 3 / 6.0, rel=1e-14)


def test_prediction_matches_factor_times_field_norm():
    for m in (3, 5, 6, 7, 8):
        lam = m - 1
        factor = (m - 2 * lam) * (m - 2.0 / 3.0 * (6 - m) * lam)
        p = m + 1  # Wallis: integral of sin^p over (0, pi), from Gamma
        sin_power = math.sqrt(PI) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        w_norm_sq = sphere_volume(m - 1) * sin_power
        assert spectral_prediction(m) == pytest.approx(factor * w_norm_sq, rel=1e-13)


def test_prediction_signs():
    assert spectral_prediction(2) == spectral_prediction(4) == 0.0
    assert spectral_prediction(3) > 0.0  # J_2^c = J^2 at m = 3
    for m in range(5, M_MAX + 1):
        assert spectral_prediction(m) < 0.0


def test_prediction_domain_is_the_family_domain():
    # past the family's M_MAX: underflow reads -0.0 near m = 380, and
    # math.pi ** k overflows at m = 2000
    for m in (1, 51, 380, 2000):
        with pytest.raises(DomainError):
            spectral_prediction(m)


def _sech_power_integral(n):
    # B(n) = integral over the real line of sech^n = 2^{n-1} Gamma(n/2)^2 / Gamma(n)
    return 2.0 ** (n - 1) * math.gamma(n / 2) ** 2 / math.gamma(n)


def test_family_side_from_the_sech_integrals():
    # the second s-derivatives of the family's integrals, before Wallis
    for m in range(2, 13):
        omega = sphere_volume(m - 1)
        b_m, b_m2 = _sech_power_integral(m), _sech_power_integral(m + 2)
        energy = m / 2 * omega * (4 * b_m - 6 * b_m2)
        bienergy = (m - 2) ** 2 * omega * b_m2
        want = bienergy + 2 * (m - 1) * (m - 3) / 3 * energy
        got = float(_family_side(m)) * sphere_volume(m)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10), m


def _second_difference(m):
    h = HESSIAN_STEP
    plus, center, minus = (evaluate_family(m, math.exp(s)).c_bienergy for s in (h, 0.0, -h))
    return (plus - 2.0 * center + minus) / (h * h)


def test_fd_matches_prediction():
    for m in (5, 6):
        prediction = spectral_prediction(m)
        assert abs(_second_difference(m) - prediction) <= 1e-3 * abs(prediction)
        assert prediction < 0.0


def test_fd_zero_at_m4():
    assert abs(_second_difference(4)) <= 1e-4


def _patch_wrong_c_root(monkeypatch):
    """Put (2/3)(5 - m) lambda in place of (2/3)(6 - m) lambda in core's one root definition."""
    roots = cbstab.core._roots

    def wrong(kind, dimension, lam_num, lam_den):
        if kind is not Functional.CONFORMAL_BIENERGY:
            return roots(kind, dimension, lam_num, lam_den)
        return roots(kind, dimension, lam_num, lam_den)[:1] + (
            cbstab.core._reduced(2 * (5 - dimension) * lam_num, 3 * lam_den),)

    monkeypatch.setattr(cbstab.core, "_roots", wrong)


def test_wrong_c_bienergy_root_fails_the_identity(monkeypatch):
    _patch_wrong_c_root(monkeypatch)
    results = {r.name: r for r in run_suites(["hessian"])}
    # the factor keeps only its zero at m = 2, where mu = 2 lambda
    assert not results[IDENTITY].passed
    assert results[IDENTITY].got.startswith(f"{M_MAX - 2} of {M_MAX - 1} differ, first m=3")


def test_one_root_definition_serves_tables_and_hessian(monkeypatch):
    # the tables' counts and the hessian's Jacobi side read the same roots,
    # so one defect in them fails checks in both suites
    _patch_wrong_c_root(monkeypatch)
    results = run_suites(["tables", "hessian"])
    failed = {r.name: r for r in results if not r.passed}
    # S^3 and S^4 gain an index; the S^5..S^10 coincidence holds for any c
    # below the Obata bound, so it cannot see this defect
    assert set(failed) == {"c_bienergy S^3", "c_bienergy S^4", "S^4 exception", IDENTITY,
                           f"sign of the Jacobi factor, m=2..{M_MAX}"}
    # the failure text is written as Fractions write it
    m, lam = 3, 2
    family = _family_side(m)
    jacobi = (m - 2 * lam) * (m - Fraction(2, 3) * (5 - m) * lam) * Fraction(m, m + 1)
    assert failed[IDENTITY].got \
        == f"{M_MAX - 2} of {M_MAX - 1} differ, first m={m}: {family} vs {jacobi}"
    assert failed["S^4 exception"].got == "(5, 5, 10, 10)"


def test_offset_at_t_above_1_fails_the_numerical_check(monkeypatch):
    # an unreported error at t = e^h enters the quotient as offset/h^2; it
    # fails the check with the number shown, and raises nothing
    def offset(m, t):
        ev = evaluate_family(m, t)
        if t > 1.0:
            ev = dataclasses.replace(ev, c_bienergy=ev.c_bienergy + 1e-3)
        return ev

    monkeypatch.setattr(cbstab.verify, "evaluate_family", offset)
    results = run_suites(["hessian"])
    numerical = [r for r in results if "second difference" in r.name]
    assert len(numerical) == 4 and not any(r.passed for r in numerical)
    assert all(r.passed for r in results if r not in numerical)
    m5 = next(r for r in numerical if r.name.startswith("m=5 "))
    assert abs(float(m5.got) - float(m5.expected)) == pytest.approx(10.0, rel=1e-3)
