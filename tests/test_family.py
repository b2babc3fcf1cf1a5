import hashlib
import inspect
import json
import math
import os
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import cbstab.family
from cbstab.errors import DomainError, QuadratureFailure
from cbstab.family import (
    _family_side,
    _sphere_volume_terms,
    M_MAX,
    QuadratureConfig,
    c_constant,
    epsilon_schedule,
    evaluate_family,
    sphere_volume,
    upper_bound,
)
from helpers import count_code_calls, count_constructions
from test_family_reference import _pi

PI = math.pi


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
    num, den, k = _sphere_volume_terms(5)
    assert (Fraction(num, den), k) == (Fraction(1), 3)
    # against the Gamma-function definition
    for n in range(1, 13):
        ref = 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        assert sphere_volume(n) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        sphere_volume(0)


def test_sphere_volume_is_its_exact_coefficient_rounded_once():
    # the integer numerator divided by the denominator is correctly rounded,
    # as float() of the exact coefficient is, so no Fraction is built; up to
    # n = 342, where the coefficient is a normal double (past it a subnormal
    # coefficient would lose bits, test_sphere_volume_against_decimal)
    for n in range(1, 343):
        num, den, k = _sphere_volume_terms(n)
        assert float.hex(sphere_volume(n)) == float.hex(float(Fraction(num, den)) * PI ** k), n
    for m in range(5, M_MAX + 1):
        exact = 2 * (m - 2) ** 2 + Fraction(m * (m - 1) * (m - 3), 3)
        assert float.hex(c_constant(m)) == float.hex(float(exact) * sphere_volume(m - 1)), m
    counts, _ = count_constructions(lambda: (sphere_volume(7), c_constant(7)))
    assert counts["Fraction"] == 0


def test_sphere_volume_against_decimal():
    # Past n = 342 the coefficient is subnormal, past n = 356 it is 0.0 and
    # past n = 1240 pi^k overflows, while the volume is a normal double up
    # to n = 437 and rounds to 0.0 from n = 455 on.
    smallest_normal, unit = 2.0 ** -1022, 2.0 ** -1074
    with localcontext() as ctx:
        ctx.prec = 40
        pi = _pi(40)
        for n in range(1, 2001):
            num, den, k = _sphere_volume_terms(n)
            exact = Decimal(num) / Decimal(den) * pi ** k
            got = sphere_volume(n)
            if n >= 455:
                assert float(exact) == 0.0 and got == 0.0, n
            elif exact >= smallest_normal:
                assert abs(Decimal(got) - exact) <= Decimal(1e-13) * exact, n
            else:
                assert abs(Decimal(got) - exact) <= 2 * Decimal(unit), n


@pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None])
def test_sphere_volume_refuses_a_non_integer_dimension(n):
    with pytest.raises(DomainError, match="sphere dimension must be an integer"):
        sphere_volume(n)


def test_volume_recursion_identity():
    # omega_m = omega_{m-1} * int sin^{m-1}, against the independent recursion
    for m in range(2, 13):
        assert sphere_volume(m) / sphere_volume(m - 1) == pytest.approx(
            wallis_oracle(m - 1), rel=1e-14)


def test_config_invariants():
    with pytest.raises(DomainError):
        QuadratureConfig(max_doublings=0)
    # README documents the default budget
    assert QuadratureConfig().max_doublings == 12
    assert evaluate_family.__defaults__ == (QuadratureConfig(),)


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


def _code_objects(module):
    """Every code object of module's source file that its functions and
    classes hold, nested ones (level_sums, comprehensions) included."""
    stack = []
    for value in vars(module).values():
        for obj in vars(value).values() if isinstance(value, type) else (value,):
            code = getattr(getattr(obj, "__func__", obj), "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                stack.append(code)
    found = set()
    while stack:
        code = stack.pop()
        found.add(code)
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return found


def test_ladder_bookkeeping_runs_no_comprehension():
    # a machine-independent cost counter: the ladder keeps its running sums,
    # values and changes in locals, so per level it calls only level_sums,
    # and no comprehension or generator code (3.12 inlines list
    # comprehensions, but not generator expressions)
    codes = _code_objects(cbstab.family)
    comprehensions = {c for c in codes if c.co_flags & inspect.CO_GENERATOR
                      or c.co_name in ("<listcomp>", "<setcomp>", "<dictcomp>")}
    level_sums = {c for c in codes if c.co_name == "level_sums"}
    assert len(comprehensions) >= 1 and len(level_sums) == 1  # the failure message's join
    counts, _ = count_code_calls(
        {"comprehension": comprehensions, "level_sums": level_sums,
         "other": codes - comprehensions - level_sums},
        lambda: evaluate_family(5, 0.7))
    # evaluate_family and its seven argument and constant helpers; the first
    # level and two halvings
    assert counts == {"comprehension": 0, "level_sums": 3, "other": 8}


def test_ladder_levels_are_nested(monkeypatch):
    # At t = 1 the bumps meet at u = 0, and a node u >= 0 calls math.exp
    # with -|u - 0| and -|u + 0|, both exactly -u; the mirror -u adds none.
    calls = []
    exp = math.exp

    def recording_exp(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", recording_exp)
    ev = evaluate_family(5, 1.0)
    assert calls[0::2] == calls[1::2]
    nodes = [-x for x in calls[0::2]]
    assert len(set(nodes)) == len(nodes)  # no node is evaluated twice
    assert 2 * len(nodes) - 1 == ev.nodes  # 0 is its own mirror
    levels = [[nodes[0]]]  # each level's u >= 0 come in increasing order
    for u in nodes[1:]:
        if u > levels[-1][-1]:
            levels[-1].append(u)
        else:
            levels.append([u])
    first = levels[0]
    assert first[0] == 0.0
    assert first == pytest.approx([j * first[1] for j in range(len(first))], rel=1e-15)
    assert len(levels) >= 2
    for i in range(1, len(levels)):
        # exactly the midpoints of the levels before: one in each gap
        before = sorted(u for level in levels[:i] for u in level)
        assert len(levels[i]) == len(before) - 1
        for lo, mid, hi in zip(before, levels[i], before[1:]):
            assert lo < mid < hi
            assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-15)


# t = 1, 2 and 5 per decade from 1e-8 up to 1e8, read from decimal strings
# so that no libm call makes the grid
LADDER_GRID_T = [float(f"{d}e{e}") for e in range(-8, 8) for d in (1, 2, 5)] + [1e8]


def test_ladder_bits_are_pinned_on_the_grid():
    """sha256 over every bit of evaluate_family(m, t) on m = 2..50 x the t grid.

    The CLI pins cover 12 values of m at 11 values of t; a rewrite of the
    ladder must keep every bit at every point.  Like those pins, the digest
    holds for the libm it was recorded with (glibc 2.36, Debian 12), whose
    exp, log and sinh are not correctly rounded.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "family_grid_digest.json")
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert {1e-8, 1.0, 1e8} <= set(LADDER_GRID_T)
    digest = hashlib.sha256()
    points = 0
    for m in range(2, 51):
        for t in LADDER_GRID_T:
            ev = evaluate_family(m, t)
            values = (ev.energy, ev.energy_error, ev.bienergy, ev.bienergy_error,
                      ev.c_bienergy, ev.c_bienergy_error)
            assert all(math.isfinite(v) for v in values), (m, t)
            digest.update(f"{m} {t.hex()} {' '.join(v.hex() for v in values)} "
                          f"{ev.nodes}\n".encode("ascii"))
            points += 1
    assert (points, digest.hexdigest()) == (pinned["points"], pinned["sha256"])


@pytest.mark.parametrize("m", range(2, 51))
def test_domain_corners_are_finite(m):
    # every node term is a product of sech powers <= 1 and the bienergy
    # coefficient (m-2)^2 sinh^2(s) is at most about 5.8e18, so every sum
    # at the corners of the domain is finite
    for t in (1e-8, 1e8):
        ev = evaluate_family(m, t)
        assert all(math.isfinite(v) for v in (ev.energy, ev.energy_error, ev.bienergy,
                                              ev.bienergy_error, ev.c_bienergy,
                                              ev.c_bienergy_error))
        assert min(ev.energy_error, ev.bienergy_error, ev.c_bienergy_error) >= 0.0


@pytest.mark.parametrize("volume", [math.inf, math.nan])
def test_non_finite_sums_end_in_quadrature_failure(monkeypatch, volume):
    # a non-finite level sum makes its change NaN: the ladder fails at that
    # level rather than return a non-finite value
    monkeypatch.setattr(cbstab.family, "sphere_volume", lambda n: volume)
    with pytest.raises(QuadratureFailure, match="largest change per level"):
        evaluate_family(5, 1.0)



@pytest.mark.parametrize("call, value, change", [(3, math.inf, "inf"), (4, math.inf, "nan"),
                                                 (1, math.inf, "nan"), (3, math.nan, "nan")])
def test_a_non_finite_level_sum_ends_in_quadrature_failure(monkeypatch, call, value, change):
    # an infinite level after a finite one changes by inf, which the
    # relative tolerance reads as inf <= inf; the ladder must refuse it, not
    # return energy=inf with error inf.  The first level sums call 1 (E) and
    # call 2 (E2), the first halving calls 3 and 4; at t = 1 the E2 sum's
    # coefficient sinh^2(s) is 0, so an infinite E2 sum reads 0 * inf = nan.
    fsum = math.fsum
    calls = []

    def broken_fsum(values):
        calls.append(None)
        return value if len(calls) == call else fsum(values)

    monkeypatch.setattr(math, "fsum", broken_fsum)
    with pytest.raises(QuadratureFailure) as info:
        evaluate_family(5, 1.0)
    assert str(info.value) == ("non-finite level sum after 1 halvings (85 nodes, step 0.211): "
                               f"largest change per level {change}")
    assert len(calls) == 4  # refused at the level it appeared in


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
    # float() would read these as 2.0, 1.0 and 2.0, or raise a bare error
    for t in ("x", None, "2", True, b"2", 1j):
        with pytest.raises(DomainError, match="must be a real number"):
            evaluate_family(5, t)
    with pytest.raises(DomainError, match="must be a real number"):
        upper_bound(5, None)
    # float() overflows on these, and repr(10**5000) raises too
    for t in (10 ** 400, -10 ** 400, Fraction(10 ** 5000, 3)):
        with pytest.raises(DomainError, match="out of float range"):
            evaluate_family(5, t)
    with pytest.raises(DomainError, match="out of float range"):
        upper_bound(5, 10 ** 400)


def test_evaluate_family_takes_any_real_t():
    want = evaluate_family(5, 0.5)
    assert evaluate_family(5, Fraction(1, 2)) == want
    assert evaluate_family(5, 1) == evaluate_family(5, 1.0)


def test_ladder_budget():
    with pytest.raises(QuadratureFailure, match="largest change per level") as info:
        evaluate_family(5, 0.2, QuadratureConfig(max_doublings=1))
    message = str(info.value)
    assert "after 1 halvings" in message
    changes = message.split("largest change per level ")[1].split(", ")
    assert len(changes) == 1 and float(changes[0]) > 0.0


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


def test_epsilon_schedule_huge_eps_clamps():
    t, cert = epsilon_schedule(5, 1e9)
    assert cert.eta <= PI
    assert cert.rho > 0.0
    # eta is clamped to pi, so the arcsin argument is 1 and delta takes the cap
    assert cert.delta == 0.5 * PI * (1.0 - 1e-12)
    assert t > 0.0


def test_epsilon_schedule_large_eps_below_the_clamp():
    # eta = 3 is below the clamp, and delta = arcsin(sqrt(eta/(2 rho))) ~ 1.27
    # is below the cap
    _, cert = epsilon_schedule(5, 3.0 * c_constant(5))
    assert cert.eta == pytest.approx(3.0, rel=1e-15)
    assert cert.delta == math.asin(math.sqrt(cert.eta / (2.0 * cert.rho)))
    assert cert.delta == pytest.approx(1.27, abs=0.01)


def test_epsilon_schedule_domain():
    with pytest.raises(DomainError):
        epsilon_schedule(4, 1.0)
    with pytest.raises(DomainError):
        epsilon_schedule(51, 1.0)
    with pytest.raises(DomainError):
        epsilon_schedule(5, 0.0)
    with pytest.raises(DomainError):
        epsilon_schedule(5, -2.0)
    for eps in ("x", None, "2", True):
        with pytest.raises(DomainError, match="eps must be a real number"):
            epsilon_schedule(5, eps)
    for eps in (10 ** 400, Fraction(10 ** 5000, 3)):
        with pytest.raises(DomainError, match="eps is out of float range"):
            epsilon_schedule(5, eps)
    assert epsilon_schedule(5, Fraction(1, 2)) == epsilon_schedule(5, 0.5)


def test_upper_bound_at_identity():
    # int sin^2 = pi/2
    assert upper_bound(5, 1.0) == pytest.approx(c_constant(5) * PI / 2.0, rel=1e-11)


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


def test_prediction_m5_closed_form():
    # (5-8)(5-8/3) * omega_4 * int sin^6 = -7 * (8 pi^2/3) * (5 pi/16) = -35 pi^3/6,
    # and omega_5 = pi^3
    assert Fraction(*_family_side(5)) == Fraction(-35, 6)


def test_prediction_matches_factor_times_field_norm():
    for m in (3, 5, 6, 7, 8):
        lam = m - 1
        factor = (m - 2 * lam) * (m - 2.0 / 3.0 * (6 - m) * lam)
        p = m + 1  # Wallis: integral of sin^p over (0, pi), from Gamma
        sin_power = math.sqrt(PI) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        w_norm_sq = sphere_volume(m - 1) * sin_power
        num, den = _family_side(m)
        assert num / den * sphere_volume(m) == pytest.approx(factor * w_norm_sq, rel=1e-13)


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
        num, den = _family_side(m)
        got = num / den * sphere_volume(m)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10), m
