import dataclasses
import math

import pytest

import cbstab.variation
from cbstab.errors import DomainError, StepTooSmall
from cbstab.family import evaluate_family
from cbstab.quadrature import sphere_volume
from cbstab.variation import fd_second_derivative, spectral_prediction

PI = math.pi


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
    for m in range(5, 11):
        assert spectral_prediction(m) < 0.0
    assert spectral_prediction(3) > 0.0  # J_2^c = J^2 at m = 3
    # past the family's M_MAX: underflow reads -0.0 near m = 380, and
    # math.pi ** k overflows at m = 2000
    for m in (1, 51, 380, 2000):
        with pytest.raises(DomainError):
            spectral_prediction(m)


def test_fd_matches_prediction():
    for m in (5, 6):
        report = fd_second_derivative(m)
        assert report.relative_gap <= 1e-3
        assert report.prediction < 0.0
        assert report.prediction == spectral_prediction(m)


def test_fd_domain_is_the_family_domain():
    with pytest.raises(DomainError):
        fd_second_derivative(2000)


def test_fd_zero_at_m4():
    report = fd_second_derivative(4)
    assert abs(report.fd_value) <= 1e-4
    assert report.prediction == 0.0


def test_fd_step_table_converges_monotonically():
    for m in (5, 6):
        report = fd_second_derivative(m)
        deviations = [abs(v - report.prediction) for _, v in report.fd_step_table]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_fd_richardson_beats_raw_steps():
    report = fd_second_derivative(5)
    best_raw = min(abs(v - report.prediction) for _, v in report.fd_step_table)
    assert abs(report.fd_value - report.prediction) < best_raw


def test_step_too_small_detected(monkeypatch):
    def inflated(m, t):
        return dataclasses.replace(evaluate_family(m, t), c_bienergy_error=1.0)

    monkeypatch.setattr(cbstab.variation, "evaluate_family", inflated)
    with pytest.raises(StepTooSmall, match="exceeds the second difference"):
        fd_second_derivative(5)


def test_step_too_small_when_deviation_grows(monkeypatch):
    # an unreported error at t = 1 + h enters the quotient as offset/h^2
    def offset(m, t):
        ev = evaluate_family(m, t)
        if t > 1.0:
            ev = dataclasses.replace(ev, c_bienergy=ev.c_bienergy + 1e-5)
        return ev

    monkeypatch.setattr(cbstab.variation, "evaluate_family", offset)
    with pytest.raises(StepTooSmall, match="deviation grew"):
        fd_second_derivative(5)
