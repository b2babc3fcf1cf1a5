"""The trapezoid ladder and exact sphere-volume constants.

`trapezoid_ladder` is the trapezoidal rule on the real line for several
integrands at once, meant for analytic integrands that decay exponentially,
where it converges geometrically in the number of nodes (Trefethen and
Weideman, SIAM Review 56(3), 2014); its levels are nested, so halving the
step evaluates only the new midpoints.

Sphere volumes are computed from the exact half-integer Gamma recursion;
the float version is a thin wrapper over an exact rational coefficient
times a power of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, NonFiniteSample, QuadratureFailure


@dataclass(frozen=True)
class QuadratureConfig:
    """Budget of the trapezoid ladder: max_doublings bounds the step halvings."""

    max_doublings: int = 12

    def __post_init__(self):
        if self.max_doublings < 1:
            raise DomainError(f"max_doublings must be >= 1, got {self.max_doublings}")


DEFAULT_CONFIG = QuadratureConfig()


# The ladder stops once every integrand's change between two levels is
# within ABS_TOLERANCE or within REL_TOLERANCE of its value.
REL_TOLERANCE = 1e-11
ABS_TOLERANCE = 1e-12

# Relative rounding error allowed for in every trapezoid_ladder estimate,
# 256 units in the last place.  Once the rule has converged, the change
# between two levels is the rounding noise of the node values and can miss
# it; against the exact closed form in tests/test_family_reference.py
# (m = 2..12 and 16, 24, 50, t in [1e-8, 1e8]) the family's worst relative
# error is about 7e-15, a tenth of this floor.
LADDER_ROUNDOFF = 2.0 ** -44


@dataclass(frozen=True)
class LadderResult:
    """Integrals of several integrands from one shared trapezoid ladder."""

    values: tuple[float, ...]
    errors: tuple[float, ...]
    nodes: int  # distinct nodes evaluated over all levels


def _level_sums(sums: Callable[[list[float]], Sequence[float]],
                nodes: list[float], step: float) -> Sequence[float]:
    totals = sums(nodes)
    for i, total in enumerate(totals):
        if not math.isfinite(total):
            raise NonFiniteSample(
                f"integrand {i} summed to {total!r} over the nodes added at step {step!r}")
    return totals


def trapezoid_ladder(sums: Callable[[list[float]], Sequence[float]], half_width: float,
                     step: float, config: QuadratureConfig = DEFAULT_CONFIG) -> LadderResult:
    """Trapezoidal rule on [-half_width, half_width] for several integrands.

    sums(nodes) returns, for each integrand, the sum of its values over the
    given nodes; every node is passed exactly once.  The first level has the
    nodes j*h for |j| <= k = ceil(half_width/step) and h = step.  Each
    halving of h adds only the midpoints, so the levels share their nodes.
    Each call of sums gets one level's new nodes in increasing order, and
    each level is symmetric about 0 exactly, nodes[i] == -nodes[-1 - i],
    because the mirror of a node c*h is (-c)*h and rounding is symmetric
    about 0.  0.0 is a node of the first level only, so the nonnegative
    half of a level is nodes[len(nodes) // 2:].  The integrands must be
    negligible outside the window, which then stands for the whole real
    line.

    Halving stops once every integrand's change between the last two
    levels is within ABS_TOLERANCE or within REL_TOLERANCE of its value.
    Each reported error is that change plus LADDER_ROUNDOFF times the value.
    Raises QuadratureFailure when max_doublings halvings do not suffice and
    NonFiniteSample when a level's sum is not finite.
    """
    if not (half_width > 0.0 and step > 0.0):
        raise DomainError(f"need half_width > 0 and step > 0, got {half_width}, {step}")
    k = math.ceil(half_width / step)
    h = step
    totals = _level_sums(sums, [j * h for j in range(-k, k + 1)], h)
    nodes = 2 * k + 1
    values = [h * total for total in totals]
    history = []
    for _ in range(config.max_doublings):
        midpoints = [(j + 0.5) * h for j in range(-k, k)]
        totals = [a + b for a, b in zip(totals, _level_sums(sums, midpoints, 0.5 * h))]
        h *= 0.5
        k *= 2
        nodes += len(midpoints)
        current = [h * total for total in totals]
        changes = [abs(c - p) for c, p in zip(current, values)]
        values = current
        if all(d <= ABS_TOLERANCE or d <= REL_TOLERANCE * abs(v)
               for d, v in zip(changes, values)):
            return LadderResult(
                values=tuple(values),
                errors=tuple(d + LADDER_ROUNDOFF * abs(v) for d, v in zip(changes, values)),
                nodes=nodes)
        history.append(max(changes))
    raise QuadratureFailure(
        f"no convergence after {config.max_doublings} halvings ({nodes} nodes, "
        f"step {h:.3g}): largest change per level "
        + ", ".join(f"{d:.3e}" for d in history))


def sphere_volume_exact(n: int) -> tuple[Fraction, int]:
    """Volume of the unit n-sphere as (rational coefficient, power of pi).

    Uses the half-integer Gamma recursion, so the coefficient is exact:
    odd n gives 2/k! type values, even n gives 2*4^k*k!/(2k)!.
    """
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    if n % 2 == 1:
        k = (n + 1) // 2
        return Fraction(2, math.factorial(k - 1)), k
    k = n // 2
    return Fraction(2 * 4 ** k * math.factorial(k), math.factorial(2 * k)), k


def sphere_volume(n: int) -> float:
    """Volume of the Euclidean unit n-sphere (2*pi^((n+1)/2)/Gamma((n+1)/2))."""
    coeff, k = sphere_volume_exact(n)
    return float(coeff) * math.pi ** k
