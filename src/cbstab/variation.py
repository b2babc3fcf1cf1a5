"""Second derivative of t -> E2c(phi_t) at t = 1, from two exact sides.

The variation field of the family at t = 1 is W = (sin r) d/dr, the
gradient of gamma(r) = -cos(r), a Laplace eigenfunction with eigenvalue m
on the unit sphere.  The identity map is a critical point of the
c-bienergy on a constant-scalar-curvature space, so the second derivative
is the Hessian on W.  In units of omega_m, with w = m/(m+1), both sides
are exact rationals:

* the Jacobi side, _factor(m) * w: the c-bienergy Jacobi eigenvalue of the
  first gradient band, (mu - 2 lam)(mu - (2/3)(6 - m) lam) with mu = m and
  lam = m - 1 (core.jacobi_eigenvalue), times ||W||^2 / omega_m = w (Wallis);
* the family side, _family_side(m): E2c is even in s = log t, so
  E2c''(t=1) = d^2 E2c/ds^2 at s = 0, taken under the family's integrals.
  With B(n) = integral of sech^n, omega_{m-1} B(m) = omega_m and
  B(m+2) = w B(m), so E_ss(0) = (m/2)(4 - 6w), from (sech^2)'' =
  4 sech^2 - 6 sech^4, and E2_ss(0) = (m-2)^2 w, from (sinh^2)'' = 2 at 0.

verify's hessian suite checks that the two sides agree for every m, and
compares spectral_prediction with a second difference of evaluate_family.
"""

from __future__ import annotations

from fractions import Fraction

from .core import EinsteinSpace, Functional, jacobi_eigenvalue
from .family import _check_m
from .quadrature import sphere_volume


def _factor(m: int) -> Fraction:
    """The exact c-bienergy Jacobi eigenvalue on W, in the first gradient band (mu = m)."""
    m = _check_m(m)
    space = EinsteinSpace(dimension=m, einstein_constant=Fraction(m - 1))
    return jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, space, m)


def _family_side(m: int) -> Fraction:
    """d^2 E2c/ds^2 at s = 0 from the family's integrals, in units of omega_m."""
    # (m+1) E_ss(0) and (m+1) E2_ss(0), integers
    energy = m * (2 * (m + 1) - 3 * m)
    bienergy = (m - 2) ** 2 * m
    return Fraction(3 * bienergy + 2 * (m - 1) * (m - 3) * energy, 3 * (m + 1))


def spectral_prediction(m: int) -> float:
    """Closed-form Hessian value on W for 2 <= m <= M_MAX; 0.0 exactly when the factor is 0."""
    return float(_factor(m) * Fraction(m, m + 1)) * sphere_volume(m)
