import random
from fractions import Fraction

import pytest

from cbstab.core import (
    BandKind,
    EinsteinSpace,
    Functional,
    SpectralBand,
    as_rational,
    contribution_cutoff,
    index_reports,
    jacobi_eigenvalue,
    validate_spectrum,
)
from cbstab.errors import (
    BoundViolation,
    DomainError,
    IncompleteSpectrum,
    InvalidBand,
    SpectrumCompletenessWarning,
)

S4 = EinsteinSpace(4, Fraction(3))
GRAD = BandKind.GRADIENT
DIVFREE = BandKind.DIVERGENCE_FREE


def band(mu, mult, kind=GRAD):
    return SpectralBand(Fraction(mu), mult, kind)


def test_space_invariants():
    s = EinsteinSpace(5, Fraction(7, 2), name="demo")
    assert s.scalar_curvature == Fraction(35, 2)
    assert EinsteinSpace(3, 0).einstein_constant == 0
    with pytest.raises(DomainError):
        EinsteinSpace(0, Fraction(1))
    with pytest.raises(DomainError):
        EinsteinSpace(4, Fraction(-1))
    with pytest.raises(DomainError):
        EinsteinSpace(4, 1.5)  # floats are never accepted as exact data


def test_band_invariants():
    with pytest.raises(InvalidBand):
        SpectralBand(Fraction(2), 0, GRAD)
    with pytest.raises(InvalidBand):
        SpectralBand(Fraction(-1), 3, GRAD)
    assert band("7/2", 4).eigenvalue == Fraction(7, 2)


def test_jacobi_eigenvalue_examples():
    assert jacobi_eigenvalue(Functional.ENERGY, S4, 4) == Fraction(-2)
    assert jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, S4, 4) == 0
    s5 = EinsteinSpace(5, Fraction(4))
    assert jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, s5, 5) == Fraction(-7)
    s7 = EinsteinSpace(7, Fraction(6))
    assert jacobi_eigenvalue(Functional.BIENERGY, s7, 12) == 0


def test_jacobi_rejects_bad_mu():
    with pytest.raises(DomainError):
        jacobi_eigenvalue(Functional.ENERGY, S4, -1)
    with pytest.raises(DomainError):
        jacobi_eigenvalue(Functional.ENERGY, S4, 2.5)


def test_jacobi_factor_identity():
    # J_2^c eigenvalue = J eigenvalue * (mu - (2/3)(6-m)lambda), exactly
    rng = random.Random(987)
    for _ in range(200):
        m = rng.randint(1, 12)
        lam = Fraction(rng.randint(0, 30), rng.randint(1, 9))
        mu = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        space = EinsteinSpace(m, lam)
        expected = (jacobi_eigenvalue(Functional.ENERGY, space, mu)
                    * (mu - Fraction(2, 3) * (6 - m) * lam))
        assert jacobi_eigenvalue(Functional.CONFORMAL_BIENERGY, space, mu) == expected


def test_bienergy_is_square_of_energy():
    rng = random.Random(55)
    for _ in range(100):
        m = rng.randint(1, 10)
        lam = Fraction(rng.randint(0, 20), rng.randint(1, 7))
        mu = Fraction(rng.randint(0, 30), rng.randint(1, 7))
        space = EinsteinSpace(m, lam)
        j = jacobi_eigenvalue(Functional.ENERGY, space, mu)
        assert jacobi_eigenvalue(Functional.BIENERGY, space, mu) == j * j


def test_contribution_cutoff_examples():
    assert contribution_cutoff(S4, Functional.CONFORMAL_BIENERGY) == 6
    assert contribution_cutoff(EinsteinSpace(8, 7), Functional.CONFORMAL_BIENERGY) == 14
    assert contribution_cutoff(EinsteinSpace(5, 4), Functional.ENERGY) == 8
    # past the cutoff every Jacobi eigenvalue is positive
    for kind in Functional:
        cut = contribution_cutoff(S4, kind)
        for extra in (Fraction(1, 7), Fraction(3), Fraction(100)):
            assert jacobi_eigenvalue(kind, S4, cut + extra) > 0


S4_BANDS = [band(4, 5, GRAD), band(6, 10, DIVFREE)]


def test_index_nullity_s4():
    e = index_reports(S4, S4_BANDS, [Functional.ENERGY], complete_up_to=6)[0]
    assert (e.index, e.nullity) == (5, 10)
    e2 = index_reports(S4, S4_BANDS, [Functional.BIENERGY], complete_up_to=6)[0]
    assert (e2.index, e2.nullity) == (0, 10)
    e2c = index_reports(S4, S4_BANDS, [Functional.CONFORMAL_BIENERGY], complete_up_to=6)[0]
    assert (e2c.index, e2c.nullity) == (0, 15)


def test_index_nullity_ricci_flat():
    flat = EinsteinSpace(6, Fraction(0))
    bands = [band(0, 2, DIVFREE), band(1, 3, GRAD), band("5/2", 4, DIVFREE)]
    report = index_reports(flat, bands, [Functional.CONFORMAL_BIENERGY], complete_up_to=0)[0]
    assert report.index == 0
    assert report.nullity == 2  # only the mu = 0 band is in the kernel


def test_conformal_equals_bienergy_when_trivial():
    # m = 3 or lambda = 0 collapse J_2^c to J^2
    cases = [
        (EinsteinSpace(3, Fraction(2)), [band(3, 4, GRAD), band(4, 6, DIVFREE), band(8, 9, GRAD)]),
        (EinsteinSpace(7, Fraction(0)), [band(0, 3, DIVFREE), band(2, 5, GRAD)]),
    ]
    for space, bands in cases:
        a = index_reports(space, bands, [Functional.CONFORMAL_BIENERGY], complete_up_to=100)[0]
        b = index_reports(space, bands, [Functional.BIENERGY], complete_up_to=100)[0]
        assert (a.index, a.nullity) == (b.index, b.nullity)
        assert [(bd.eigenvalue, bd.multiplicity, j) for bd, j in a.contributing_bands] \
            == [(bd.eigenvalue, bd.multiplicity, j) for bd, j in b.contributing_bands]


def test_duplicate_bands_are_merged():
    doubled = [band(4, 2, GRAD), band(4, 3, GRAD), band(6, 10, DIVFREE)]
    report = index_reports(S4, doubled, [Functional.ENERGY], complete_up_to=6)[0]
    assert report.index == 5
    assert len(report.contributing_bands) == 2
    assert report.contributing_bands[0][0].multiplicity == 5


def test_contributing_bands_sorted_gradient_first_at_ties():
    bands = [band(6, 7, DIVFREE), band(4, 5, GRAD), band(6, 2, GRAD)]
    report = index_reports(S4, bands, [Functional.ENERGY], complete_up_to=6)[0]
    ordered = [(b.eigenvalue, b.kind) for b, _ in report.contributing_bands]
    assert ordered == [(Fraction(4), GRAD), (Fraction(6), GRAD), (Fraction(6), DIVFREE)]
    # positive bands never appear
    report2 = index_reports(S4, bands + [band(9, 4, GRAD)], [Functional.ENERGY],
                            complete_up_to=9)[0]
    assert all(j <= 0 for _, j in report2.contributing_bands)


def test_incomplete_spectrum_raises():
    with pytest.raises(IncompleteSpectrum):
        index_reports(S4, S4_BANDS, [Functional.ENERGY], complete_up_to=4)
    # S^4: 2*lambda = 6 covers the energy, but c = 4 is no further root; on
    # S^2 (lambda = 1) the conformal cutoff c = 8/3 lies past 2*lambda = 2
    s2 = EinsteinSpace(2, Fraction(1))
    reports = index_reports(s2, [band(2, 3, GRAD)], [Functional.ENERGY], complete_up_to=2)
    assert (reports[0].index, reports[0].nullity) == (0, 3)
    with pytest.raises(IncompleteSpectrum, match="extend to 8/3"):
        index_reports(s2, [band(2, 3, GRAD)], list(Functional), complete_up_to=2)


def test_undeclared_completeness_warns():
    with pytest.warns(SpectrumCompletenessWarning):
        index_reports(S4, S4_BANDS, [Functional.ENERGY])
    with pytest.warns(SpectrumCompletenessWarning) as record:
        index_reports(S4, S4_BANDS, list(Functional))
    assert len(record) == 3


def test_index_nullity_rejects_invalid_band():
    class FakeBand:
        eigenvalue = Fraction(2)
        multiplicity = 0
        kind = GRAD

    with pytest.raises(InvalidBand):
        index_reports(S4, [FakeBand()], [Functional.ENERGY], complete_up_to=6)


def test_scaling_invariance():
    rng = random.Random(4242)
    bands = S4_BANDS + [band(9, 4, GRAD)]
    base = {kind: index_reports(S4, bands, [kind], complete_up_to=9)[0] for kind in Functional}
    for _ in range(50):
        c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        scaled_space = EinsteinSpace(4, Fraction(3) * c)
        scaled = [SpectralBand(b.eigenvalue * c, b.multiplicity, b.kind) for b in bands]
        for kind in Functional:
            report = index_reports(scaled_space, scaled, [kind], complete_up_to=9 * c)[0]
            assert (report.index, report.nullity) == (base[kind].index, base[kind].nullity)


def test_validate_spectrum_unit_s5():
    s5 = EinsteinSpace(5, Fraction(4))
    report = validate_spectrum(s5, [band(5, 6, GRAD), band(8, 15, DIVFREE)])
    assert report.ok
    assert any("Obata" in msg for msg in report.warnings)  # rigidity note at mu = 5


def test_validate_spectrum_violations():
    report = validate_spectrum(S4, [band(3, 5, GRAD)])
    assert not report.ok
    with pytest.raises(BoundViolation) as info:
        validate_spectrum(S4, [band(3, 5, GRAD)]).raise_first_violation()
    assert info.value.band.eigenvalue == 3
    with pytest.raises(BoundViolation):
        validate_spectrum(S4, [band(5, 2, DIVFREE)]).raise_first_violation()


def test_validate_spectrum_skips_ricci_flat():
    flat = EinsteinSpace(4, Fraction(0))
    report = validate_spectrum(flat, [band(0, 1, GRAD), band(0, 1, DIVFREE)])
    report.raise_first_violation()
    assert report.ok and not report.issues


def test_as_rational_returns_fraction_unchanged():
    value = Fraction(6, 8)
    assert as_rational(value) is value
    assert as_rational("6/8") == value
    with pytest.raises(DomainError):
        as_rational(0.75)


def brute_force_report(space, bands, kind):
    """Reference: merge by Fraction key, then jacobi_eigenvalue on every band."""
    merged = {}
    for b in bands:
        merged[(b.eigenvalue, b.kind)] = merged.get((b.eigenvalue, b.kind), 0) + b.multiplicity
    index = nullity = 0
    contributing = []
    for (mu, kind_of_band), mult in merged.items():
        j = jacobi_eigenvalue(kind, space, mu)
        if j < 0:
            index += mult
        elif j == 0:
            nullity += mult
        if j <= 0:
            contributing.append((SpectralBand(mu, mult, kind_of_band), j))
    contributing.sort(key=lambda pair: (pair[0].eigenvalue, pair[0].kind is DIVFREE))
    return index, nullity, contributing


def random_spectrum(rng, m):
    """Bands around the Jacobi roots 2*lambda and c, the Obata bound and 0,
    with exact hits on each and repeated (eigenvalue, kind) rows."""
    lam = Fraction(0) if rng.random() < 0.15 else Fraction(rng.randint(1, 40), rng.randint(1, 6))
    space = EinsteinSpace(m, lam)
    roots = [2 * lam, Fraction(2, 3) * (6 - m) * lam, Fraction(0)]
    if m > 1:
        roots.append(Fraction(m, m - 1) * lam)
    hits = [r for r in roots if r >= 0]
    span = 3 * max(hits) + 1
    bands = []
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if bands and roll < 0.2:
            mu, kind = rng.choice(bands).eigenvalue, rng.choice([GRAD, DIVFREE])
        elif roll < 0.45:
            mu, kind = rng.choice(hits), rng.choice([GRAD, DIVFREE])
        else:
            q = rng.randint(1, 12)
            mu, kind = Fraction(rng.randint(0, int(span * q)), q), rng.choice([GRAD, DIVFREE])
        bands.append(SpectralBand(mu, rng.randint(1, 9), kind))
    return space, bands


def test_root_counting_matches_brute_force():
    rng = random.Random(20260417)
    for trial in range(600):
        m = trial % 12 + 1  # c > 0 for m < 6, c = 0 at m = 6, c < 0 for m > 6
        space, bands = random_spectrum(rng, m)
        kinds = list(Functional)
        rng.shuffle(kinds)
        kinds = kinds[:rng.randint(1, 3)]
        reports = index_reports(space, bands, kinds, complete_up_to=10 ** 6)
        assert [r.functional for r in reports] == kinds
        for report in reports:
            expected = brute_force_report(space, bands, report.functional)
            got = (report.index, report.nullity, list(report.contributing_bands))
            assert got == expected, (m, space.einstein_constant, report.functional)
            single = index_reports(space, bands, [report.functional], complete_up_to=10 ** 6)[0]
            assert single == report
