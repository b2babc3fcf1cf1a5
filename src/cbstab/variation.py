"""Second derivative of t -> E2c(phi_t) at t = 1, two independent ways.

The variation field of the family at t = 1 is W = (sin r) d/dr, the
gradient of gamma(r) = -cos(r), which is a Laplace eigenfunction with
eigenvalue m on the unit sphere.  Since the identity map is a critical
point of the c-bienergy on a constant-scalar-curvature space, the second
derivative equals the Hessian evaluated on W:

    d^2/dt^2|_{t=1} E2c(phi_t)
        = (mu - 2 lam)(mu - (2/3)(6 - m) lam) * ||W||_{L^2}^2,

with mu = m, lam = m - 1 and, by Wallis, ||W||^2 = omega_{S^{m-1}} *
integral of sin^{m+1} = omega_{S^m} * m/(m+1).  The factor is the exact
c-bienergy Jacobi eigenvalue of the first gradient band
(core.jacobi_eigenvalue), so the sign of the prediction is exact and is the
verdict.  The finite-difference side recomputes the same quantity from
central second differences of evaluate_family at the fixed STEPS,
Richardson-extrapolated on the two smallest, so agreement checks the
Hessian computation against direct numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EinsteinSpace, Functional, jacobi_eigenvalue
from .errors import StepTooSmall
from .family import _check_m, evaluate_family
from .quadrature import sphere_volume

STEPS = (0.08, 0.04, 0.02, 0.01)


@dataclass(frozen=True)
class SecondVariationReport:
    dimension: int
    fd_value: float
    fd_step_table: tuple[tuple[float, float], ...]
    prediction: float
    relative_gap: float


def _factor(m: int) -> Fraction:
    """The exact c-bienergy Jacobi eigenvalue on W, in the first gradient band (mu = m)."""
    m = _check_m(m)
    space = EinsteinSpace(dimension=m, einstein_constant=Fraction(m - 1))
    return jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, space, m)


def spectral_prediction(m: int) -> float:
    """Closed-form Hessian value on W for 2 <= m <= M_MAX; 0.0 exactly when the factor is 0."""
    return float(_factor(m) * Fraction(m, m + 1)) * sphere_volume(m)


def fd_second_derivative(m: int) -> SecondVariationReport:
    """Central-difference second derivative of E2c along the family at t = 1.

    Raises StepTooSmall when the propagated quadrature error swamps the
    second difference at the smallest step, or when shrinking the step
    drives the quotient away from the prediction instead of toward it.
    """
    prediction = spectral_prediction(m)
    center = evaluate_family(m, 1.0)
    table = []
    noise_floors = []
    for h in STEPS:
        plus = evaluate_family(m, 1.0 + h)
        minus = evaluate_family(m, 1.0 - h)
        diff = plus.c_bienergy - 2.0 * center.c_bienergy + minus.c_bienergy
        noise = (plus.c_bienergy_error + 2.0 * center.c_bienergy_error
                 + minus.c_bienergy_error)
        table.append((h, diff / (h * h)))
        noise_floors.append((h, abs(diff), noise))

    # deviations that grow as h shrinks, or an error floor above the
    # difference itself, mean 1/h^2 is amplifying quadrature error
    significance = max(1e-9, 1e-7 * abs(center.c_bienergy))
    h_min, diff_min, noise_min = noise_floors[-1]
    if noise_min > diff_min and noise_min / (h_min * h_min) > significance:
        raise StepTooSmall(
            f"quadrature error estimate {noise_min:.3e} exceeds the second "
            f"difference {diff_min:.3e} at step {h_min}")
    for (h_prev, v_prev), (h_cur, v_cur) in zip(table, table[1:]):
        dev_prev = abs(v_prev - prediction)
        dev_cur = abs(v_cur - prediction)
        if dev_cur > 2.0 * dev_prev and dev_cur > significance:
            raise StepTooSmall(
                f"deviation grew from {dev_prev:.3e} (h={h_prev}) to "
                f"{dev_cur:.3e} (h={h_cur}); quadrature error dominates")

    (h_big, v_big), (h_small, v_small) = table[-2], table[-1]
    ratio_sq = (h_big / h_small) ** 2
    fd_value = (ratio_sq * v_small - v_big) / (ratio_sq - 1.0)
    relative_gap = abs(fd_value - prediction) / max(1.0, abs(prediction))
    return SecondVariationReport(
        dimension=m,
        fd_value=fd_value,
        fd_step_table=tuple(table),
        prediction=prediction,
        relative_gap=relative_gap,
    )
