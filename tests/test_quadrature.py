import math
from fractions import Fraction

import pytest

from cbstab.errors import DomainError, NonFiniteSample, QuadratureFailure
from cbstab.quadrature import (
    QuadratureConfig,
    sphere_volume,
    sphere_volume_exact,
    trapezoid_ladder,
)


def wallis_oracle(p):
    """Independent recursion I_p = (p-1)/p * I_{p-2}, I_0 = pi, I_1 = 2."""
    if p == 0:
        return math.pi
    if p == 1:
        return 2.0
    return (p - 1) / p * wallis_oracle(p - 2)


def test_sphere_volumes():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert sphere_volume(4) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-15)
    assert sphere_volume_exact(5) == (Fraction(1), 3)
    # against the Gamma-function definition
    for n in range(1, 13):
        ref = 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        assert sphere_volume(n) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        sphere_volume(0)


def test_volume_recursion_identity():
    # omega_m = omega_{m-1} * int sin^{m-1}, against the independent recursion
    for m in range(2, 13):
        assert sphere_volume(m) / sphere_volume(m - 1) == pytest.approx(
            wallis_oracle(m - 1), rel=1e-14)


def test_config_invariants():
    with pytest.raises(DomainError):
        QuadratureConfig(max_doublings=0)


def _sech_sums(calls):
    def sums(nodes):
        calls.append(list(nodes))
        return (math.fsum(1.0 / math.cosh(x) ** 2 for x in nodes),
                math.fsum(math.exp(-x * x) for x in nodes))
    return sums


def test_trapezoid_ladder_integrals():
    calls = []
    result = trapezoid_ladder(_sech_sums(calls), 20.0, 0.5)
    assert result.values[0] == pytest.approx(2.0, rel=1e-13)
    assert result.values[1] == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert all(0.0 < e < 1e-9 for e in result.errors)
    assert abs(result.values[0] - 2.0) <= result.errors[0]


def test_trapezoid_ladder_levels_share_nodes():
    calls = []
    result = trapezoid_ladder(_sech_sums(calls), 20.0, 0.5)
    nodes = [x for level in calls for x in level]
    assert len(nodes) == len(set(nodes)) == result.nodes
    assert sorted(nodes) == sorted(-x for x in nodes)  # symmetric about 0
    assert calls[0] == [0.5 * j for j in range(-40, 41)]
    assert len(calls) >= 2
    for i in range(1, len(calls)):
        # a halving adds one midpoint per gap of the level before
        assert len(calls[i]) == sum(len(c) for c in calls[:i]) - 1
    for level in calls:
        # each level in increasing order and exactly symmetric about 0,
        # which the family relies on to evaluate mirror pairs together
        assert level == sorted(level)
        assert level == [-x for x in reversed(level)]
    assert [0.0 in level for level in calls] == [True] + [False] * (len(calls) - 1)


def test_trapezoid_ladder_budget():
    with pytest.raises(QuadratureFailure, match="largest change per level"):
        trapezoid_ladder(_sech_sums([]), 20.0, 2.0, QuadratureConfig(max_doublings=1))


def test_trapezoid_ladder_nonfinite():
    with pytest.raises(NonFiniteSample):
        trapezoid_ladder(lambda nodes: (float("nan"),), 1.0, 0.5)
    with pytest.raises(DomainError):
        trapezoid_ladder(lambda nodes: (0.0,), 0.0, 0.5)
