import math

import pytest

from cbstab.errors import DomainError, QuadratureFailure
from cbstab.family import (
    c_constant,
    epsilon_schedule,
    evaluate_family,
    upper_bound,
)
from cbstab.quadrature import QuadratureConfig, sphere_volume

PI = math.pi


def test_identity_map_closed_forms():
    for m in range(2, 9):
        ev = evaluate_family(m, 1.0)
        omega_m = sphere_volume(m)
        assert ev.energy == pytest.approx(0.5 * m * omega_m, rel=1e-12)
        assert abs(ev.bienergy) <= 1e-12
        if m >= 4:
            want = m * (m - 1) * (m - 3) / 3.0 * omega_m
            assert ev.c_bienergy == pytest.approx(want, rel=1e-12)


def test_h4c_is_constant():
    target = 32.0 * PI ** 2 / 3.0
    for t in (0.1, 0.37, 1.0, 2.5, 4.2, 10.0):
        ev = evaluate_family(4, t)
        assert ev.c_bienergy == pytest.approx(target, rel=1e-10)


def test_s2_maps_are_harmonic():
    # conformal self-maps of S^2 have vanishing tension for every t
    for t in (0.2, 1.0, 3.7):
        ev = evaluate_family(2, t)
        assert ev.bienergy == 0.0
        assert ev.energy > 0.0


def test_two_sums_per_node(monkeypatch):
    # a machine-independent cost counter: E2c comes from the E and E2 sums,
    # so each node is summed twice, not three times
    summed = []
    fsum = math.fsum

    def counting_fsum(values):
        values = list(values)
        summed.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    ev = evaluate_family(5, 0.7)
    assert sum(summed) == 2 * ev.nodes


@pytest.mark.parametrize("m, t", [(5, 0.7), (2, 1.0), (12, 1e-8), (50, 1e8)])
def test_one_exp_pair_per_mirror_pair(monkeypatch, m, t):
    # a machine-independent cost counter: the nodes u and -u share the two
    # exponentials of sin r and sin alpha, and the node 0 has no mirror
    calls = []
    exp = math.exp

    def counting_exp(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counting_exp)
    ev = evaluate_family(m, t)
    assert len(calls) == ev.nodes + 1


def test_positivity():
    for m in (4, 5, 6, 7, 8):
        for t in (0.01, 0.37, 1.0, 2.0, 50.0):
            assert evaluate_family(m, t).c_bienergy > 0.0


def test_evaluate_family_domain():
    with pytest.raises(DomainError):
        evaluate_family(1, 1.0)
    with pytest.raises(DomainError):
        evaluate_family(5, 0.0)
    for t in (1e9, 1e-9, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            evaluate_family(5, t)
    with pytest.raises(DomainError):
        evaluate_family(51, 1.0)  # past M_MAX


def test_evaluate_family_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        evaluate_family(5, 0.2, QuadratureConfig(max_doublings=1))


def test_c_constant_values():
    assert c_constant(5) == pytest.approx(752.0 * PI ** 2 / 9.0, rel=1e-13)
    assert c_constant(6) == pytest.approx(62.0 * PI ** 3, rel=1e-13)
    for m in range(5, 12):
        assert c_constant(m) > 0.0
    with pytest.raises(DomainError):
        c_constant(4)
    with pytest.raises(DomainError):
        c_constant(51)


def test_epsilon_schedule_certificate():
    for m, eps in ((5, 1.0), (5, 0.1), (6, 0.5)):
        t, cert = epsilon_schedule(m, eps)
        assert 0.0 < t < cert.delta_prime
        assert cert.eta == pytest.approx(eps / c_constant(m), rel=1e-13)
        assert cert.rho == pytest.approx(PI - cert.eta / 2.0, rel=1e-13)
        assert cert.k == pytest.approx(math.tan(cert.rho / 2.0), rel=1e-12)
        assert cert.delta < PI / 2
        assert cert.delta_prime == pytest.approx(math.tan(cert.delta / 2.0) / cert.k,
                                                 rel=1e-13)
        # defining inequality of delta'
        assert math.sin(2.0 * math.atan(t * cert.k)) ** 2 < cert.eta / (2.0 * cert.rho)


def test_epsilon_schedule_huge_eps_clamps():
    t, cert = epsilon_schedule(5, 1e9)
    assert cert.eta <= PI
    assert cert.rho > 0.0
    assert cert.delta < PI / 2
    assert t > 0.0


def test_epsilon_schedule_domain():
    with pytest.raises(DomainError):
        epsilon_schedule(4, 1.0)
    with pytest.raises(DomainError):
        epsilon_schedule(51, 1.0)
    with pytest.raises(DomainError):
        epsilon_schedule(5, 0.0)
    with pytest.raises(DomainError):
        epsilon_schedule(5, -2.0)


def test_upper_bound_at_identity():
    # int sin^2 = pi/2, and the true value (40/3) omega_5 sits below C*pi/2
    bound = upper_bound(5, 1.0)
    assert bound == pytest.approx(c_constant(5) * PI / 2.0, rel=1e-11)
    ev = evaluate_family(5, 1.0)
    assert ev.c_bienergy < bound


def test_upper_bound_strict():
    for m in (5, 6):
        for t in (0.01, 0.5, 2.0, 80.0):
            ev = evaluate_family(m, t)
            bound = upper_bound(m, t)
            assert bound > 0.0
            assert ev.c_bienergy + ev.c_bienergy_error < bound


def test_concurrent_evaluations_are_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    grid = [(m, t) for m in (4, 5) for t in (0.3, 1.0, 2.7)]
    sequential = [evaluate_family(m, t) for m, t in grid]
    with ThreadPoolExecutor(max_workers=6) as pool:
        concurrent = list(pool.map(lambda mt: evaluate_family(*mt), grid))
    assert concurrent == sequential
