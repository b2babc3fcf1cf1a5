import math

import pytest

from cbstab.errors import DomainError, StepTooSmall
from cbstab.quadrature import QuadratureConfig, sin_power_integral, sphere_volume
from cbstab.variation import (
    SignVerdict,
    fd_second_derivative,
    spectral_prediction,
)

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
        w_norm_sq = sphere_volume(m - 1) * sin_power_integral(m + 1)
        assert spectral_prediction(m) == pytest.approx(factor * w_norm_sq, rel=1e-13)


def test_prediction_signs():
    for m in range(5, 11):
        assert spectral_prediction(m) < 0.0
    assert spectral_prediction(3) > 0.0  # J_2^c = J^2 at m = 3
    with pytest.raises(DomainError):
        spectral_prediction(1)


def test_fd_matches_prediction():
    for m in (5, 6):
        report = fd_second_derivative(m)
        assert report.relative_gap <= 1e-3
        assert report.sign_verdict is SignVerdict.NEGATIVE
        assert report.prediction == spectral_prediction(m)


def test_fd_zero_at_m4():
    report = fd_second_derivative(4)
    assert abs(report.fd_value) <= 1e-4
    assert report.sign_verdict is SignVerdict.ZERO


def test_fd_step_table_converges_monotonically():
    for m in (5, 6):
        report = fd_second_derivative(m)
        deviations = [abs(v - report.prediction) for _, v in report.fd_step_table]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_fd_richardson_beats_raw_steps():
    report = fd_second_derivative(5)
    best_raw = min(abs(v - report.prediction) for _, v in report.fd_step_table)
    assert abs(report.fd_value - report.prediction) < best_raw


def test_fd_step_validation():
    with pytest.raises(DomainError):
        fd_second_derivative(5, steps=())
    with pytest.raises(DomainError):
        fd_second_derivative(5, steps=(0.6,))
    with pytest.raises(DomainError):
        fd_second_derivative(5, steps=(0.1, -0.01))


def test_step_too_small_detected():
    coarse = QuadratureConfig(first_level_nodes=4, max_doublings=2,
                              rel_tolerance=0.5, abs_tolerance=1e-300)
    with pytest.raises(StepTooSmall):
        fd_second_derivative(5, coarse, steps=(0.01, 0.005))
