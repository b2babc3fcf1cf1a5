"""The rotationally symmetric family of sphere self-maps and its energies.

Writing the m-sphere as a warped product over (0, pi) with polar distance
r, the family is phi_t(theta, r) = (theta, alpha_t(r)) with

    alpha_t(r) = 2*arctan(t * tan(r/2)),        phi_1 = Id.

Its pointwise energy densities are

    |dphi_t|^2   = m * (sin(alpha)/sin(r))^2
    |tau(phi_t)|^2 = (m-2)^2 * (sin(alpha)/sin(r))^2 * ((cos(alpha)-cos(r))/sin(r))^2

and the three functionals reduce to one-dimensional integrals against
omega_{S^{m-1}} * sin^{m-1}(r) dr.

The integrals are evaluated in the coordinates x = log tan(r/2) and
s = log t, in which alpha_t is the shift x -> x + s:

    sin r = sech x,   dr = sech x dx,   sin alpha = sech(x + s),
    cos alpha - cos r = -sinh s * sech x * sech(x + s),

so that

    E  = (m/2) omega_{m-1} * integral over R of sech^{m-2}(x) sech^2(x+s) dx,
    E2 = ((m-2)^2/2) omega_{m-1} sinh^2(s) * integral of sech^{m-2}(x) sech^4(x+s) dx,
    E2c = E2 + (2/3)(m-1)(m-3) E      (pointwise in the densities).

The two integrands are analytic bumps at x = 0 and x = -s that decay at
least like exp(-m|x|), and t <-> 1/t is the reflection x -> -x.  The
trapezoidal rule converges geometrically for such integrands, so both are
summed on one shared, nested ladder of equally spaced nodes (Trefethen and
Weideman, SIAM Review 56(3), 2014), centred between the bumps; halving the
step evaluates only the new midpoints, and sech is taken from exp(-|x|),
which cannot overflow.  In u = x + s/2, the reflection
u -> -u about the midpoint of the bumps swaps sin r and sin alpha, and
every ladder level is symmetric about u = 0, so the two exponentials of a
node u serve both integrands at u and at -u: one pair of exponentials per
mirror pair of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureFailure

# the supported parameter range; M_MAX is the largest dimension on which
# _first_step was measured.  evaluate_family checks it with _check_m and
# _check_t, and upper_bound checks t with _check_t; c_constant checks
# 5 <= m <= M_MAX itself, and upper_bound and epsilon_schedule rely on that.
T_MIN = 1e-8
T_MAX = 1e8
M_MAX = 50


@dataclass(frozen=True)
class QuadratureConfig:
    """Budget of the trapezoid ladder: max_doublings bounds the step halvings."""

    max_doublings: int = 12

    def __post_init__(self):
        if self.max_doublings < 1:
            raise DomainError(f"max_doublings must be >= 1, got {self.max_doublings}")


# The ladder stops once every integral's change between two levels is
# within ABS_TOLERANCE or within REL_TOLERANCE of its value.
REL_TOLERANCE = 1e-11
ABS_TOLERANCE = 1e-12

# Relative rounding error allowed for in every ladder estimate, 256 units in
# the last place.  Once the rule has converged, the change between two
# levels is the rounding noise of the node values and can miss it; against
# the exact closed form in tests/test_family_reference.py (m = 2..12 and
# 16, 24, 50, t in [1e-8, 1e8]) the family's worst relative error is about
# 7e-15, a tenth of this floor.
LADDER_ROUNDOFF = 2.0 ** -44


def _real(x, name: str) -> float:
    # float() alone would read "2" as 2.0 and True as 1.0
    if not isinstance(x, (bool, str, bytes, bytearray)):
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
        except OverflowError as exc:  # no repr: str() of 10**5000 raises too
            raise DomainError(f"{name} is out of float range ({type(x).__name__})") from exc
    raise DomainError(f"{name} must be a real number, got {x!r}")


def _check_t(t: float) -> float:
    t = _real(t, "family parameter t")
    if not T_MIN <= t <= T_MAX:  # also rejects nan
        raise DomainError(f"family parameter t must lie in [{T_MIN:g}, {T_MAX:g}], got {t!r}")
    return t


def _check_m(m: int) -> int:
    if not isinstance(m, int) or not 2 <= m <= M_MAX:
        raise DomainError(f"sphere dimension m must be an integer in [2, {M_MAX}], got {m!r}")
    return m


@dataclass(frozen=True)
class FamilyEvaluation:
    energy: float
    energy_error: float
    bienergy: float
    bienergy_error: float
    c_bienergy: float
    c_bienergy_error: float
    nodes: int  # ladder nodes shared by the three integrals


def _first_step(m: int) -> float:
    # Node spacing of the ladder's first level for the integrands of E and
    # E2 in dimension m, whose bumps narrow like 1/sqrt(m).  Measured for
    # m = 2..50, |s| <= 18.5 and shifted grids: the rule is within 1e-4 of
    # the integral at this spacing and within 1e-12 at half of it, so the
    # second level is accurate even when the absolute tolerance stops the
    # ladder there, and the change between two levels bounds the error of
    # the finer one.
    return 1.4 / math.sqrt(m + 6)


def _tail_margin(rate: float) -> float:
    # A product of sech powers with total exponent `rate` is below
    # 2^rate * exp(-rate * d) at distance d beyond both bumps, so past
    # log 2 + 40/rate its tail is below e^-40 of the bump's height.
    return 0.7 + 40.0 / rate


def evaluate_family(m: int, t: float,
                    quad: QuadratureConfig = QuadratureConfig()) -> FamilyEvaluation:
    """Energy, bienergy and c-bienergy of phi_t on the unit m-sphere.

    Along this family the c-bienergy density is pointwise the bienergy
    density plus (2/3)(m-1)(m-3) times the energy density, so the ladder
    sums only the integrands of E and E2, and each level takes
    E2c = E2 + (2/3)(m-1)(m-3) E from their two sums.  E2c stays the
    ladder's third value: its change between levels is held to the same
    tolerances and gives its error estimate.  An exact closed form
    (tests/test_family_reference.py) checks the accuracy of all three.
    `nodes` counts the shared nodes; a mirror pair of nodes u, -u shares
    one pair of exponentials, so an evaluation calls math.exp nodes + 1
    times (the node 0 has no mirror).  The values are those of evaluating
    every node on its own, bit for bit: the mirror's arguments are exact
    negations, and math.fsum does not depend on the order of the terms.

    Halving stops once every value's change between the last two levels is
    within ABS_TOLERANCE or within REL_TOLERANCE of it; each error is that
    change plus LADDER_ROUNDOFF times the value.  Raises QuadratureFailure
    when a level's value or change is not finite, or when
    quad.max_doublings halvings do not suffice; so every value and error
    returned is finite.
    """
    m = _check_m(m)
    t = _check_t(t)
    s = math.log(t)
    half = 0.5 * s
    p = m - 2
    c1 = (m - 2) ** 2 * math.sinh(s) ** 2
    coef = 2.0 * (m - 1) * (m - 3) / 3.0
    half_omega = 0.5 * sphere_volume(m - 1)

    def level_sums(offset: float, count: int) -> tuple[float, float, float]:
        # The level's nodes u >= 0 are (j + offset) * h for 0 <= j < count,
        # generated here, so no node list is built: offset 0 gives the first
        # level's j*h and offset 0.5 a halving's midpoints (j + 0.5)*h.
        # u = x + s/2 puts the bumps at u = -s/2 and u = s/2.  A level is
        # symmetric about 0 exactly, since the mirror of c*h is (-c)*h, and
        # (-u) -+ half is exactly -(u +- half), so the node -u has the sin r
        # and sin alpha of u swapped: walk the level's u >= 0 and add the
        # terms of -u too.  math.exp is looked up on each call, so a patched
        # math.exp sees every call.
        exp = math.exp
        energy, bienergy = [], []
        add_energy, add_bienergy = energy.append, bienergy.append
        for j in range(count):
            u = (j + offset) * h
            # sech y = 2 e^-|y| / (1 + e^-2|y|), which cannot overflow
            a = exp(-abs(u - half))
            sin_r = 2.0 * a / (1.0 + a * a)
            a = exp(-abs(u + half))
            sin_alpha = 2.0 * a / (1.0 + a * a)
            sin2 = sin_alpha * sin_alpha
            e = sin_r ** p * sin2  # sin^{m-2} r sin^2 alpha
            add_energy(e)
            add_bienergy(e * sin2)
            if u != 0.0:  # the mirror node -u
                sin2 = sin_r * sin_r
                e = sin_alpha ** p * sin2
                add_energy(e)
                add_bienergy(e * sin2)
        e_sum = half_omega * m * math.fsum(energy)
        b_sum = half_omega * c1 * math.fsum(bienergy)
        return e_sum, b_sum, b_sum + coef * e_sum

    # The first level has the nodes j*h for |j| <= k, over a window that
    # holds both bumps and their tails; each halving adds the midpoints
    # (j + 0.5)*h for -k <= j < k.
    h = _first_step(m)
    k = math.ceil((0.5 * abs(s) + _tail_margin(m)) / h)
    # The running sums, values and changes of E, E2 and E2c are plain
    # locals, prefixed e_, b_ and c_: lists, generators and zips built per
    # level cost 7-10% of an evaluation.
    e_total, b_total, c_total = level_sums(0, k + 1)
    nodes = 2 * k + 1
    e_value, b_value, c_value = h * e_total, h * b_total, h * c_total
    history = []
    reason = "no convergence"
    for _ in range(quad.max_doublings):
        e_level, b_level, c_level = level_sums(0.5, k)
        e_total += e_level
        b_total += b_level
        c_total += c_level
        nodes += 2 * k
        h *= 0.5
        k *= 2
        e, b, c = h * e_total, h * b_total, h * c_total
        e_change, b_change, c_change = abs(e - e_value), abs(b - b_value), abs(c - c_value)
        e_value, b_value, c_value = e, b, c
        # a non-finite value makes its change inf or NaN, and the tolerance
        # test below reads inf <= inf as true, so such a level ends the ladder
        if not (math.isfinite(e_change) and math.isfinite(b_change)
                and math.isfinite(c_change)):
            # inf or NaN, as every change is >= 0
            history.append(e_change + b_change + c_change)
            reason = "non-finite level sum"
            break
        if ((e_change <= ABS_TOLERANCE or e_change <= REL_TOLERANCE * abs(e_value))
                and (b_change <= ABS_TOLERANCE or b_change <= REL_TOLERANCE * abs(b_value))
                and (c_change <= ABS_TOLERANCE or c_change <= REL_TOLERANCE * abs(c_value))):
            return FamilyEvaluation(
                energy=e_value,
                energy_error=e_change + LADDER_ROUNDOFF * abs(e_value),
                bienergy=b_value,
                bienergy_error=b_change + LADDER_ROUNDOFF * abs(b_value),
                c_bienergy=c_value,
                c_bienergy_error=c_change + LADDER_ROUNDOFF * abs(c_value),
                nodes=nodes,
            )
        history.append(max(e_change, b_change, c_change))
    raise QuadratureFailure(
        f"{reason} after {len(history)} halvings ({nodes} nodes, "
        f"step {h:.3g}): largest change per level "
        + ", ".join(f"{d:.3e}" for d in history))


def c_constant(m: int) -> float:
    """The constant C = (2(m-2)^2 + m(m-1)(m-3)/3) * omega_{S^{m-1}}."""
    if not isinstance(m, int) or not 5 <= m <= M_MAX:
        raise DomainError(f"the upper-bound constant needs integer m in [5, {M_MAX}], got {m!r}")
    # the exact rational, rounded once: int / int is correctly rounded
    return (6 * (m - 2) ** 2 + m * (m - 1) * (m - 3)) / 3 * sphere_volume(m - 1)


@dataclass(frozen=True)
class EpsilonCertificate:
    eta: float
    rho: float
    k: float
    delta: float
    delta_prime: float


def epsilon_schedule(m: int, eps: float) -> tuple[float, EpsilonCertificate]:
    """Parameter t with guaranteed E2c(phi_t) < eps, for 5 <= m <= M_MAX.

    Follows the constructive chain eta = eps/C, rho = pi - eta/2,
    K = tan(rho/2), delta = arcsin(sqrt(eta/(2 rho))) and
    delta' = tan(delta/2)/K, returning the representative t = delta'/2.
    eta is clamped to pi for very large eps (keeps rho positive and only
    shrinks t, so the guarantee survives); the arcsin argument is clamped
    to 1 and delta capped strictly below pi/2 for the same reason.

    For small eps the t returned lies below T_MIN, where evaluate_family
    raises DomainError, so the guarantee cannot be checked there: (m, eps)
    = (5, 0.03), (6, 0.1) and (7, 0.18) give t = 5.47e-9, 9.35e-9 and
    9.17e-9.
    """
    constant = c_constant(m)
    eps = _real(eps, "eps")
    if not (eps > 0.0) or not math.isfinite(eps):
        raise DomainError(f"eps must be positive, got {eps!r}")
    eta = eps / constant
    if eta > math.pi:
        eta = math.pi
    rho = math.pi - 0.5 * eta
    k = math.tan(0.5 * rho)
    delta = math.asin(min(1.0, math.sqrt(eta / (2.0 * rho))))
    cap = 0.5 * math.pi * (1.0 - 1e-12)
    if delta > cap:
        delta = cap
    delta_prime = math.tan(0.5 * delta) / k
    t = 0.5 * delta_prime
    return t, EpsilonCertificate(eta=eta, rho=rho, k=k, delta=delta,
                                 delta_prime=delta_prime)


def _family_side(m: int) -> tuple[int, int]:
    """E2c''(t=1) / omega_m from the family's integrals, as an integer pair.

    E2c is even in s = log t, so E2c''(t=1) = d^2 E2c/ds^2 at s = 0, taken
    under the integrals above.  With B(n) = integral of sech^n,
    omega_{m-1} B(m) = omega_m and B(m+2) = w B(m) for w = m/(m+1) (Wallis),
    so E_ss(0) = (m/2)(4 - 6w), from (sech^2)'' = 4 sech^2 - 6 sech^4, and
    E2_ss(0) = (m-2)^2 w, from (sinh^2)'' = 2 at 0.  verify's hessian suite
    checks that this equals the c-bienergy Jacobi eigenvalue of the first
    gradient band times ||W||^2 / omega_m = w, for the variation field
    W = (sin r) d/dr, for every m.
    """
    # (m+1) E_ss(0) and (m+1) E2_ss(0), integers
    energy = m * (2 * (m + 1) - 3 * m)
    bienergy = (m - 2) ** 2 * m
    return 3 * bienergy + 2 * (m - 1) * (m - 3) * energy, 3 * (m + 1)


def upper_bound(m: int, t: float) -> float:
    """The bound C * integral of sin^2(alpha_t) over (0, pi), 5 <= m <= M_MAX.

    With u = tan(r/2), sin(alpha_t) = 2tu/(1 + t^2 u^2) and
    dr = 2 du/(1 + u^2), so the integral is 2 pi t/(1 + t)^2.  The bound
    strictly exceeds the c-bienergy of phi_t; the gap is what makes the
    epsilon construction work.
    """
    t = _check_t(t)
    return c_constant(m) * (2.0 * math.pi * t / (1.0 + t) ** 2)


# pi - math.pi, rounded to a double
_PI_LOW = 1.2246467991473532e-16


def _sphere_volume_terms(n: int) -> tuple[int, int, int]:
    """Volume of the unit n-sphere as (numerator, denominator, power of pi),
    the rational coefficient not reduced.

    Uses the half-integer Gamma recursion, so the coefficient is exact:
    odd n gives 2/k! type values, even n gives 2*4^k*k!/(2k)!.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"sphere dimension must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    if n % 2 == 1:
        k = (n + 1) // 2
        return 2, math.factorial(k - 1), k
    k = n // 2
    return 2 * 4 ** k * math.factorial(k), math.factorial(2 * k), k


def sphere_volume(n: int) -> float:
    """Volume of the Euclidean unit n-sphere (2*pi^((n+1)/2)/Gamma((n+1)/2)).

    0.0 from n = 455 on, where the volume rounds to zero.
    """
    num, den, k = _sphere_volume_terms(n)
    # int / int is correctly rounded, as float() of the coefficient is
    coefficient = num / den
    if coefficient >= 2.0 ** -1022:  # a normal double: n <= 342
        return coefficient * math.pi ** k
    # Past n = 342 the coefficient would lose bits as a subnormal, and past
    # n = 1240 pi^k overflows.  Scale both by powers of 2, which is exact,
    # into range, and scale their product back once: pi = 4 * (pi/4).
    # math.pi ** k is off by k times math.pi's relative rounding error d,
    # 3.9e-17, up to 7 units of 2^-1074 where the volume is subnormal
    # (n >= 438), so that error is taken out: pi^k = math.pi^k (1 + k d).
    shift = den.bit_length() - num.bit_length()
    pi_power = (0.25 * math.pi) ** k * (1.0 + k * (_PI_LOW / math.pi))
    return math.ldexp((num << shift) / den * pi_power, 2 * k - shift)
