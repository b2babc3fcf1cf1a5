"""evaluate_family against an exact oracle for E, E2 and E2c.

The three functionals reduce to I(p, q; t), the integral over the real line
of sech^p(x) sech^q(x + log t), with integer p and q; with v = e^{2x},

    I(p, q; t) = 2^{n-1} t^q * integral over (0, inf) of
                 v^{n/2-1} / ((1+v)^p (1+t^2 v)^q) dv,        n = p + q,

(Gradshteyn-Ryzhik 3.197.1), and

    E   = (m/2) omega_{m-1} I(m-2, 2),
    E2  = ((m-2)^2/2) omega_{m-1} ((t - 1/t)/2)^2 I(m-2, 4),
    E2c = E2 + (2/3)(m-1)(m-3) E.

The oracle below splits the rational part of that integrand into partial
fractions at v = -1 and v = -1/t^2 in exact Fraction arithmetic, so each
functional comes out as rational multiples of pi^i (log t)^l: a + b log t
for even n, c pi for odd n, and the Beta integral at t = 1.  It does no
quadrature, imports only fractions, decimal and math, and is evaluated in
Decimal at rising precision until two precisions agree to DIGITS digits,
which absorbs the cancellation of the rational parts near t = 1.
Differences from evaluate_family are taken exactly, in Fractions, so the
comparison itself adds no rounding.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from cbstab.family import evaluate_family
from cbstab.verify import HESSIAN_DIMENSIONS, HESSIAN_STEP

DIGITS = 40  # significant digits on which two successive precisions must agree
COMPONENTS = (("energy", "energy_error"), ("bienergy", "bienergy_error"),
              ("c_bienergy", "c_bienergy_error"))
REL_BOUND = 1e-8
ZERO_BOUND = 1e-10
NODE_BUDGET = 600

GRID = [(m, 10.0 ** k) for m in range(2, 13) for k in range(-8, 9)]
# the energy-sweep benchmark's defect probes, and a point past 1e7.5 for m = 6
PROBES = [(2, 1e-6), (3, 1e-5), (4, 1e-6), (4, 67146.58302973828), (6, 6.948e7)]
# moderate t in low dimensions, and more t on S^4, where E2c is constant
MODERATE = sorted({(m, t) for m in (3, 4, 5, 6) for t in (0.3, 1.0, 2.5)}
                  | {(m, t) for m in (4, 5, 6, 7) for t in (0.05, 0.5, 1.0, 3.0, 20.0)}
                  | {(4, 0.37), (4, 4.2)})
NEAR_ONE = [(m, t) for m in (2, 4, 7, 12) for t in (1 - 2.0 ** -30, 1 + 2.0 ** -30, 1 + 2.0 ** -52)]
HIGH_DIMENSIONS = [(m, 10.0 ** k) for m in (16, 24, 50) for k in (-8, -4, 0, 4, 8)]
# the hessian suite of verify differences t = e^-h and 1 (t = 1 is in MODERATE);
# t = e^h, which no verify check reads, still tests the ladder's accuracy
SECOND_DIFFERENCE = [(m, math.exp(s)) for m in HESSIAN_DIMENSIONS
                     for s in (-HESSIAN_STEP, HESSIAN_STEP)]
POINTS = list(dict.fromkeys(GRID + PROBES + MODERATE + NEAR_ONE + HIGH_DIMENSIONS
                            + SECOND_DIFFERENCE))


# ---- the oracle: exact terms {(power of pi, power of log t): rational} ----

def _taylor(k, a, b, c, e, order):
    """Coefficients of u^0 .. u^(order-1) in (u + a)^k / (b + c u)^e."""
    power = [math.comb(k, i) * a ** (k - i) for i in range(min(k, order - 1) + 1)]
    inverse = [1 / b ** e]
    for i in range(1, order):
        inverse.append(inverse[-1] * -(e + i - 1) * c / (i * b))
    return [sum(power[j] * inverse[i - j] for j in range(min(i, len(power) - 1) + 1))
            for i in range(order)]


def _gamma_half(n):
    """Gamma(n/2) / sqrt(pi)^(n % 2), a rational."""
    if n % 2 == 0:
        return Fraction(math.factorial(n // 2 - 1))
    return Fraction(math.prod(range(n - 2, 0, -2)), 2 ** ((n - 1) // 2))


def _beta_three_halves(j):
    """B(3/2, j - 3/2) / pi, continued to j = 1, where it is -1."""
    if j == 1:
        return Fraction(-1)
    return _gamma_half(2 * j - 3) / (2 * math.factorial(j - 1))


def _sech_integral(p, q, t):
    """Exact terms of I(p, q; t) for a positive rational t."""
    n = p + q
    scale = 2 ** (n - 1) * t ** q
    if t == 1:
        # 2^{n-1} B(n/2, n/2)
        return {(n % 2, 0): scale * _gamma_half(n) ** 2 / math.factorial(n - 1)}
    beta = t * t
    k = (n - 2) // 2  # v^{n/2-1} is v^k, times v^{1/2} when n is odd
    # v^k / ((1+v)^p (1+beta v)^q) = sum_j A_j (1+v)^-j + sum_j B_j (1+beta v)^-j,
    # from the Laurent series about v = -1 and about v = -1/beta
    near_minus_one = _taylor(k, Fraction(-1), 1 - beta, beta, q, p)
    near_pole = _taylor(k, -1 / beta, 1 - 1 / beta, Fraction(1), p, q)
    a = {j: near_minus_one[p - j] for j in range(1, p + 1)}
    b = {j: beta ** (j - q) * near_pole[q - j] for j in range(1, q + 1)}
    if n % 2 == 0:
        # the integrand decays like v^-2, so A_1 + B_1/beta = 0 and the two
        # j = 1 logarithms leave -A_1 log beta
        rational = (sum(a[j] / (j - 1) for j in a if j > 1)
                    + sum(b[j] / (beta * (j - 1)) for j in b if j > 1))
        return {(0, 0): scale * rational, (0, 1): -2 * scale * a.get(1, 0)}
    # the integrand carries v^{1/2}, and (1+beta v)^-j integrates to
    # beta^{-3/2} B(3/2, j - 3/2); the divergent parts of the j = 1 terms
    # cancel, so their continued values sum to the right total
    rational = (sum(a[j] * _beta_three_halves(j) for j in a)
                + sum(b[j] * _beta_three_halves(j) for j in b) / t ** 3)
    return {(1, 0): scale * rational}


def _times(terms, coefficient, pi_power):
    return {(i + pi_power, l): coefficient * v for (i, l), v in terms.items() if v}


def _plus(x, y):
    total = dict(x)
    for key, v in y.items():
        total[key] = total.get(key, 0) + v
    return {key: v for key, v in total.items() if v}


def family_exact(m, t):
    """Exact terms of (E, E2, E2c) of phi_t on the unit m-sphere."""
    t = Fraction(t)
    # omega_{m-1} / 2 = pi^{m/2} / Gamma(m/2)
    half_omega = 1 / _gamma_half(m)
    energy = _times(_sech_integral(m - 2, 2, t), m * half_omega, m // 2)
    c1 = (m - 2) ** 2 * ((t - 1 / t) / 2) ** 2
    bienergy = _times(_sech_integral(m - 2, 4, t), c1 * half_omega, m // 2) if c1 else {}
    c_bienergy = _plus(bienergy, _times(energy, Fraction(2 * (m - 1) * (m - 3), 3), 0))
    return energy, bienergy, c_bienergy


def _pi(digits):
    # Machin's formula pi = 16 acot 5 - 4 acot 239, in integers scaled by 10^guard
    guard = digits + 10
    unity = 10 ** guard

    def acot(x):
        total = term = unity // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n += 2
            sign = -sign
            total += sign * (term // n)
        return total

    return Decimal(16 * acot(5) - 4 * acot(239)).scaleb(-guard)


def _evaluate_at(terms, t, digits):
    with localcontext() as ctx:
        ctx.prec = digits
        pi = _pi(digits)
        log_t = (Decimal(t.numerator) / t.denominator).ln()
        total = Decimal(0)
        for (i, l), v in terms.items():
            total += Decimal(v.numerator) / v.denominator * pi ** i * (log_t if l else 1)
        return total


def evaluate(terms, t):
    """Decimal value of exact terms, to DIGITS significant digits.

    A nonempty set of terms here never sums to zero, so a zero at two
    precisions means that both lost every digit to cancellation.
    """
    if not terms:
        return Decimal(0)
    t = Fraction(t)
    digits = 2 * DIGITS
    value = _evaluate_at(terms, t, digits)
    while True:
        digits *= 2
        finer = _evaluate_at(terms, t, digits)
        with localcontext() as ctx:
            ctx.prec = digits
            if finer and abs(finer - value) <= abs(finer).scaleb(-DIGITS):
                return finer
        value = finer


# ---- the tests ----

def test_reference_covers_the_domain():
    dims = {m for m, _ in POINTS}
    ts = [t for _, t in POINTS]
    assert dims == set(range(2, 13)) | {16, 24, 50}
    assert min(ts) == 1e-8 and max(ts) == 1e8
    assert set(PROBES) | set(MODERATE) | set(NEAR_ONE) | set(SECOND_DIFFERENCE) <= set(POINTS)
    assert {(m, 1.0) for m in HESSIAN_DIMENSIONS} <= set(POINTS)


def _point_ids(points):
    # t to six significant digits, or by repr where that would give two
    # points the same name (within 1e-6 of t = 1)
    short = [f"m{m}-t{t:g}" for m, t in points]
    return [name if short.count(name) == 1 or float(f"{t:g}") == t else f"m{m}-t{t!r}"
            for name, (m, t) in zip(short, points)]


@pytest.mark.parametrize("m, t", POINTS, ids=_point_ids(POINTS))
def test_error_estimate_bounds_true_error(m, t):
    ev = evaluate_family(m, t)
    for (name, error_name), terms in zip(COMPONENTS, family_exact(m, t)):
        ref = Fraction(evaluate(terms, t))
        got = getattr(ev, name)
        error = getattr(ev, error_name)
        gap = abs(Fraction(got) - ref)
        assert gap <= Fraction(error), (name, got, float(ref), error)
        if ref == 0:
            assert abs(got) <= ZERO_BOUND, (name, got)
        else:
            assert gap <= Fraction(REL_BOUND) * abs(ref), (name, got, float(ref))


S4_TS = ([Fraction(1, 10 ** 8), Fraction(37, 100), Fraction(1), Fraction(5, 2),
          Fraction(10 ** 8)]
         + [Fraction(10.0 ** (k / 10)) for k in range(-10, 11)])


def test_s4_c_bienergy_is_exactly_32_pi_squared_over_3():
    # the S^4 exception with no float: the log t parts of E2 and E cancel
    for t in S4_TS:
        assert family_exact(4, t)[2] == {(2, 0): Fraction(32, 3)}, t


def test_sin_squared_alpha_integral_is_2_pi_t_over_1_plus_t_squared():
    # the closed form behind family.upper_bound: integral over (0, pi) of
    # sin^2(alpha_t) dr is I(1, 2; t) in x = log tan(r/2)
    for t in S4_TS:
        assert _sech_integral(1, 2, t) == {(1, 0): 2 * t / (1 + t) ** 2}, t


def test_shared_node_count_is_bounded():
    # a machine-independent cost bound: nodes, not seconds
    worst = max(evaluate_family(m, 10.0 ** k).nodes
                for m in range(2, 13) for k in range(-8, 9, 2))
    assert worst <= NODE_BUDGET


def test_t_inversion_reflects_the_nodes():
    # t -> 1/t is x -> -x, and the ladder's nodes are symmetric about the
    # midpoint of the bumps, so both sides sum the same node values
    for m in (3, 5, 8):
        for t in (0.25, 4.0, 2.0 ** -20):
            a, b = evaluate_family(m, t), evaluate_family(m, 1.0 / t)
            assert a.nodes == b.nodes
            for name, _ in COMPONENTS:
                va, vb = getattr(a, name), getattr(b, name)
                assert abs(va - vb) <= 4 * math.ulp(max(abs(va), abs(vb)))
