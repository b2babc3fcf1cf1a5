import enum
import math
import random
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cbstab.core
from cbstab.core import (
    _band_rows,
    _cutoffs,
    _ratio_text,
    _roots,
    _sign_counts,
    _validate_rows,
    BandKind,
    EinsteinSpace,
    Functional,
    SpectralBand,
    as_rational,
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
from cbstab.spectra import builtin_spectrum
from helpers import count_code_calls, count_constructions

S4 = EinsteinSpace(4, Fraction(3))
GRAD = BandKind.GRADIENT
DIVFREE = BandKind.DIVERGENCE_FREE


def band(mu, mult, kind=GRAD):
    return SpectralBand(Fraction(mu), mult, kind)


def test_space_invariants():
    s = EinsteinSpace(5, Fraction(7, 2), name="demo")
    assert s.scalar_curvature == Fraction(35, 2)
    assert EinsteinSpace(3, 0).einstein_constant == 0
    for lam in ("3", 3):  # held as the exact Fraction it is read as
        held = EinsteinSpace(4, lam).einstein_constant
        assert type(held) is Fraction and held == 3
    with pytest.raises(DomainError):
        EinsteinSpace(0, Fraction(1))
    with pytest.raises(DomainError):
        EinsteinSpace(4, Fraction(-1))
    with pytest.raises(DomainError):
        EinsteinSpace(4, 1.5)  # floats are never accepted as exact data
    with pytest.raises(DomainError):
        EinsteinSpace(True, 0)  # a bool is not a dimension
    with pytest.raises(DomainError):
        EinsteinSpace(4, True)  # nor an Einstein constant
    assert EinsteinSpace(1, 0).einstein_constant == 0
    with pytest.raises(DomainError, match="the circle is flat"):
        EinsteinSpace(1, Fraction(3))  # Ric vanishes in dimension 1
    # spectrum_document would write a name of 5 that load_spectrum refuses
    with pytest.raises(DomainError, match="name must be a string, got 5"):
        EinsteinSpace(4, 3, name=5)


@pytest.mark.parametrize("kind", ["energy", None])
def test_a_kind_that_is_not_a_functional_is_refused(kind):
    # each was read as the c-bienergy: (0, 15) for S^4's energy, a Jacobi
    # eigenvalue of 0 for -2, and S^2's default bound 8/3 for 2
    refusal = "kind must be a Functional, got "
    with pytest.raises(DomainError, match=refusal):
        index_reports(S4, S4_BANDS, [Functional.ENERGY, kind], complete_up_to=6)
    with pytest.raises(DomainError, match=refusal):
        jacobi_eigenvalue(kind, S4, 4)
    with pytest.raises(DomainError, match=refusal):
        builtin_spectrum(2, kinds=[kind])


def test_band_invariants():
    with pytest.raises(InvalidBand):
        SpectralBand(Fraction(2), 0, GRAD)
    with pytest.raises(InvalidBand):
        SpectralBand(Fraction(-1), 3, GRAD)
    with pytest.raises(InvalidBand):
        SpectralBand(Fraction(2), True, GRAD)  # a bool is not a multiplicity
    with pytest.raises(DomainError):
        SpectralBand(True, 1, GRAD)  # nor an eigenvalue
    with pytest.raises(InvalidBand, match="kind must be a BandKind, got 'gradient'"):
        SpectralBand(Fraction(1), 1, "gradient")  # a kind name is not a kind
    # band-likes are converted, so index_reports refuses the same kind
    with pytest.raises(InvalidBand):
        index_reports(S4, [SimpleNamespace(eigenvalue=Fraction(1), multiplicity=1,
                                           kind="gradient")],
                      [Functional.ENERGY], complete_up_to=10)
    assert band("7/2", 4).eigenvalue == Fraction(7, 2)
    # an int or "p/q" eigenvalue is read exactly, into a Fraction
    for raw, want in ((3, Fraction(3)), ("7/2", Fraction(7, 2)), ("6/4", Fraction(3, 2))):
        mu = SpectralBand(raw, 1, GRAD).eigenvalue
        assert type(mu) is Fraction and mu == want


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
    for kind in Functional:
        with pytest.raises(DomainError):
            jacobi_eigenvalue(kind, S4, True)


def test_jacobi_factor_identity():
    # J_2^c eigenvalue = J eigenvalue * (mu - (2/3)(6-m)lambda), exactly
    rng = random.Random(987)
    for _ in range(200):
        m = rng.randint(1, 12)
        lam = Fraction(rng.randint(0, 30), rng.randint(1, 9))
        mu = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        if m == 1:
            lam = Fraction(0)  # the circle is flat
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
        if m == 1:
            lam = Fraction(0)  # the circle is flat
        space = EinsteinSpace(m, lam)
        j = jacobi_eigenvalue(Functional.ENERGY, space, mu)
        assert jacobi_eigenvalue(Functional.BIENERGY, space, mu) == j * j


def cutoff(space, kind):
    """kind's contribution cutoff on space, as _cutoffs gives it."""
    lam = space.einstein_constant
    _, [pair], _ = _cutoffs(space.dimension, lam.numerator, lam.denominator, [kind])
    return Fraction(*pair)


def test_contribution_cutoff_examples():
    assert cutoff(S4, Functional.CONFORMAL_BIENERGY) == 6
    assert cutoff(EinsteinSpace(8, 7), Functional.CONFORMAL_BIENERGY) == 14
    assert cutoff(EinsteinSpace(5, 4), Functional.ENERGY) == 8
    # past the cutoff every Jacobi eigenvalue is positive
    for kind in Functional:
        cut = cutoff(S4, kind)
        for extra in (Fraction(1, 7), Fraction(3), Fraction(100)):
            assert jacobi_eigenvalue(kind, S4, cut + extra) > 0


S4_BANDS = [band(4, 5, GRAD), band(6, 10, DIVFREE)]


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


def test_roots_are_reduced_pairs_of_the_formula():
    for m in range(1, 13):
        for lam in ([Fraction(0)] if m == 1 else  # the circle is flat
                    [Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(7)]):
            space = EinsteinSpace(m, lam)
            formula = {Functional.ENERGY: [2 * lam],
                       Functional.BIENERGY: [2 * lam, 2 * lam],
                       Functional.CONFORMAL_BIENERGY: [2 * lam, Fraction(2, 3) * (6 - m) * lam]}
            for kind, want in formula.items():
                pairs = _roots(kind, m, lam.numerator, lam.denominator)
                assert all(type(num) is int and type(den) is int for num, den in pairs)
                assert [(root.numerator, root.denominator) for root in want] == list(pairs)
                assert cutoff(space, kind) == max(want)
    # the second root c = (2/3)(6 - m)*lambda is zero at m = 6 and negative past it
    c_bienergy = Functional.CONFORMAL_BIENERGY
    assert _roots(c_bienergy, 6, 7, 1) == ((14, 1), (0, 1))
    assert _roots(c_bienergy, 7, 1, 3) == ((2, 3), (-2, 9))
    assert _roots(c_bienergy, 12, 5, 2) == ((5, 1), (-10, 1))
    # lambda need not be reduced; the roots are
    assert _roots(c_bienergy, 7, 4, 12) == ((2, 3), (-2, 9))
    assert _roots(c_bienergy, 12, 35, 14) == ((5, 1), (-10, 1))


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
    # the message writes the bound in lowest terms, however it was given
    for bound in ("11/2", "22/4"):
        with pytest.raises(IncompleteSpectrum) as info:
            index_reports(S4, S4_BANDS, list(Functional), complete_up_to=bound)
        assert str(info.value) \
            == "bands declared complete up to 11/2 but contributions extend to 6"
    with pytest.raises(IncompleteSpectrum) as info:
        _sign_counts(4, 6, 2, _band_rows(S4_BANDS), list(Functional), (22, 4))
    assert str(info.value) == "bands declared complete up to 11/2 but contributions extend to 6"


@pytest.mark.parametrize("m", [4, 5, 7, 10])
def test_index_reports_builds_a_fraction_per_reported_row_only(m):
    sphere = builtin_spectrum(m)
    bands = sphere.bands  # built from the rows on first access, so outside the count
    counts, reports = count_constructions(lambda: index_reports(
        sphere.space, bands, Functional, complete_up_to=sphere.complete_up_to))
    listed = [b for report in reports for b, _ in report.contributing_bands]
    # per reported row one band with its eigenvalue, and its Jacobi eigenvalue
    assert len(listed) == 5
    assert counts == {"Fraction": 10, "SpectralBand": 5, "EinsteinSpace": 0}


def test_index_reports_hashes_no_enum_member():
    # Enum.__hash__ is a Python-level call; the merge key and the tie order
    # test the kind by identity instead, on every band below the cut
    sphere = builtin_spectrum(5)
    counts, reports = count_code_calls(
        {"Enum.__hash__": {enum.Enum.__hash__.__code__}},
        lambda: index_reports(sphere.space, sphere.bands * 2, Functional,
                              complete_up_to=sphere.complete_up_to))
    assert [(r.index, r.nullity) for r in reports] == [(12, 30), (0, 30), (12, 30)]
    assert counts == {"Enum.__hash__": 0}


def test_undeclared_completeness_warns():
    with pytest.warns(SpectrumCompletenessWarning) as record:
        index_reports(S4, S4_BANDS, [Functional.ENERGY])
    assert len(record) == 1
    with pytest.warns(SpectrumCompletenessWarning) as record:
        index_reports(S4, S4_BANDS, list(Functional))
    assert len(record) == 3
    with pytest.warns(SpectrumCompletenessWarning) as generated:
        assert len(index_reports(S4, S4_BANDS, (k for k in Functional))) == 3
    assert len(generated) == 3
    # one warning per functional, attributed to index_reports' caller, past
    # the engine's own frames
    assert {w.filename for w in record} == {__file__}


def test_index_nullity_rejects_invalid_band():
    class FakeBand:
        eigenvalue = Fraction(2)
        multiplicity = 0
        kind = GRAD

    with pytest.raises(InvalidBand):
        index_reports(S4, [FakeBand()], [Functional.ENERGY], complete_up_to=6)

    class FarFakeBand(FakeBand):
        eigenvalue = Fraction(100)  # past every cutoff on S^4: skipped, still checked

    with pytest.raises(InvalidBand):
        index_reports(S4, [FarFakeBand()], list(Functional), complete_up_to=6)
    with pytest.raises(InvalidBand):
        validate_spectrum(S4, [FarFakeBand()])
    with pytest.raises(InvalidBand):  # both bounds are vacuous at lambda = 0, the band is not
        validate_spectrum(EinsteinSpace(4, 0), [FakeBand()])


def test_validate_spectrum_unit_s5():
    s5 = EinsteinSpace(5, Fraction(4))
    report = validate_spectrum(s5, [band(5, 6, GRAD), band(8, 15, DIVFREE)])
    assert report.first_violation is None
    assert any("Obata" in msg for msg in report.warnings)  # rigidity note at mu = 5


def test_validate_spectrum_violations():
    report = validate_spectrum(S4, [band(3, 5, GRAD)])
    assert report.first_violation is not None
    with pytest.raises(BoundViolation) as info:
        validate_spectrum(S4, [band(3, 5, GRAD)]).raise_first_violation()
    assert str(info.value) == "gradient band mu=3 below Lichnerowicz-Obata bound 4"
    with pytest.raises(BoundViolation):
        validate_spectrum(S4, [band(5, 2, DIVFREE)]).raise_first_violation()


def test_validate_spectrum_skips_ricci_flat():
    flat = EinsteinSpace(4, Fraction(0))
    report = validate_spectrum(flat, [band(0, 1, GRAD), band(0, 1, DIVFREE)])
    report.raise_first_violation()
    assert report.warnings == ()
    assert report.first_violation is None


def test_validate_spectrum_keeps_band_order_and_reports_the_first_violation():
    # on S^4 the Obata bound is 4 and 2*lambda is 6: a rigidity note, then a
    # divergence-free violation, then an Obata violation
    report = validate_spectrum(S4, [band(4, 1, GRAD), band(5, 2, DIVFREE), band(3, 3, GRAD)])
    assert report.warnings == (
        "gradient band mu=4 saturates the Obata bound: round sphere only",
        "divergence-free band mu=5 below 2*lambda=6",
        "gradient band mu=3 below Lichnerowicz-Obata bound 4",
    )
    assert report.first_violation is not None
    with pytest.raises(BoundViolation) as info:
        report.raise_first_violation()
    assert str(info.value) == "divergence-free band mu=5 below 2*lambda=6"


def test_scalar_curvature_builds_one_fraction():
    # from Python 3.12, int * Fraction converts the int to a Fraction first
    for lam in (Fraction(3), Fraction(7, 3), Fraction(0)):
        counts, curvature = count_constructions(lambda: EinsteinSpace(6, lam).scalar_curvature)
        assert curvature == 6 * lam
        assert counts == {"Fraction": 1, "SpectralBand": 0, "EinsteinSpace": 1}


def test_ratio_text_is_str_of_fraction():
    rng = random.Random(2026)
    pairs = [(0, 1), (0, 7), (0, 2**70), (5, 1), (-5, 1), (6, 8), (-6, 8), (-12, 4),
             (2**64 + 1, 1), (-(2**64) * 3, 2**64 * 6), (3**50, 3**45 * 7)]
    for _ in range(2000):
        num = rng.randint(-(2**80), 2**80) if rng.random() < 0.2 else rng.randint(-60, 60)
        den = rng.randint(1, 2**70) if rng.random() < 0.2 else rng.randint(1, 30)
        common = rng.choice([1, 1, 2, 6, 2**65 + 3])  # unreduced pairs
        pairs.append((num * common, den * common))
    for num, den in pairs:
        assert _ratio_text(num, den) == str(Fraction(num, den)), (num, den)


def reference_validation(space, rows):
    """Reference for validate_spectrum: compare and format Fractions, row by row."""
    lam = space.einstein_constant
    if not lam:
        return (), None
    obata = Fraction(space.dimension, space.dimension - 1) * lam
    messages = []
    first = None
    for num, den, divergence_free, _ in rows:
        mu = Fraction(num, den)
        if divergence_free and mu < 2 * lam:
            message = f"divergence-free band mu={mu} below 2*lambda={2 * lam}"
        elif not divergence_free and mu < obata:
            message = f"gradient band mu={mu} below Lichnerowicz-Obata bound {obata}"
        elif not divergence_free and mu == obata:
            messages.append(f"gradient band mu={mu} saturates the Obata bound: round sphere only")
            continue
        else:
            continue
        messages.append(message)
        first = first or message
    return tuple(messages), first


def test_validation_matches_a_fraction_reference():
    # unreduced rows around both bounds, with lambda = 0 and the circle among the spaces
    rng = random.Random(31)
    for _ in range(300):
        m = rng.choice([1, 2, 3, 4, 5, 6, 9, 12])
        lam = Fraction(0) if m == 1 or rng.random() < 0.15 else Fraction(rng.randint(1, 40),
                                                                            rng.randint(1, 9))
        space = EinsteinSpace(m, lam)
        bounds = [Fraction(0), 2 * lam] + ([Fraction(m, m - 1) * lam] if m > 1 else [])
        rows = []
        for _ in range(rng.randint(0, 40)):
            mu = rng.choice(bounds) + Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            mu = max(mu, Fraction(0))
            k = rng.randint(1, 4)
            rows.append((mu.numerator * k, mu.denominator * k, rng.random() < 0.5,
                         rng.randint(1, 9)))
        report = _validate_rows(space, rows)
        assert (report.warnings, report.first_violation) == reference_validation(space, rows)


def test_as_rational_returns_fraction_unchanged():
    value = Fraction(6, 8)
    assert as_rational(value) is value
    assert as_rational("6/8") == value
    with pytest.raises(DomainError):
        as_rational(0.75)


def test_as_rational_refuses_what_str_cannot_write(monkeypatch):
    # Fraction reads all of these, but str() of an integer of more than
    # `limit` digits raises, so such a value could not be printed
    limit = sys.get_int_max_str_digits()
    for text in (f"1e{limit - 1}", f"1e-{limit - 1}", "9" * limit):
        assert str(as_rational(text))
    for value in (f"1e{limit}", f"-1e{limit}", f"1e-{limit}", 10 ** limit):
        with pytest.raises(DomainError, match=f"out of range: numerator or denominator "
                                              f"past {limit} digits"):
            as_rational(value)
    # a text with an exponent is refused before Fraction reads it only where
    # the digits' lengths decide it; at the boundary the verdict is still
    # Fraction's value against the limit
    for text in ("1e4299", "1e4300", "1.5e4299", "100e4298", "0.001e4302", "1e-4299",
                 "1e-4300", "0e100000", "-0.0e-100000", " +12.5E4298 ", "0.5e-4299"):
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) < 10 ** limit:
            assert as_rational(text) == value, text
        else:
            with pytest.raises(DomainError, match="out of range"):
                as_rational(text)
    # a machine-independent cost counter: no Fraction of 10**10000000 digits
    # is built to be refused (the whole power took seconds), whatever digits
    # Fraction reads: any decimal digit, and from 3.11 on underscores between
    # digits, which 3.10's Fraction refuses
    underscores = ("1_0e10000000", "1e1_0000000", "-2_5.0_1e+1_0000000")
    past = ("1e10000000", "-2.5e+10000000", "7e-10000000", "\uff11e1000000",
            "\u0663.\u0665e10000000")
    if sys.version_info >= (3, 11):
        past += underscores
    else:
        for text in underscores:
            with pytest.raises(DomainError, match="not a rational"):
                as_rational(text)
    for text in past:
        counts, refusal = count_constructions(lambda: pytest.raises(DomainError, as_rational, text))
        assert counts["Fraction"] == 0, text
        assert str(refusal.value) == f"out of range: numerator or denominator past {limit} digits"
    # a zero mantissa is 0 at any exponent; Fraction(text) would build the
    # power first (seconds for 10**10000000), so no Fraction reads the text.
    # An exponent longer than the limit is still Fraction's to refuse, and so
    # is a decimal part of letters d, which the grammar of 3.11 and 3.12 reads.
    for text in ("0e" + "1" * (limit + 1), "1.de10000000"):
        with pytest.raises(DomainError, match="not a rational"):
            as_rational(text)

    def no_text(value=0, *args):
        assert not isinstance(value, str), value
        return Fraction(value, *args)

    monkeypatch.setattr(cbstab.core, "Fraction", no_text)
    zeros = ["0e10000000", "-0.000e-3000000", "\uff10e10000000", "\u0660.\u0660e-3000000"]
    if sys.version_info >= (3, 11):
        zeros += ["0_0e10000000", "0.0_0e1_0000000"]
    for text in zeros:
        assert as_rational(text) == 0, text


# None is the default of up_to, lam and complete_up_to, so only the first
# two entry points see it
MALFORMED_RATIONALS = ["1/0", "0/0", "x", "", "9" * 5000, None, [1], 1.5, True]


@pytest.mark.parametrize("value", MALFORMED_RATIONALS, ids=lambda value: repr(value)[:16])
def test_every_malformed_rational_is_a_domain_error(value):
    calls = [as_rational, lambda v: EinsteinSpace(4, v)]
    if value is not None:
        calls += [lambda v: builtin_spectrum(4, v),
                  lambda v: builtin_spectrum(4, up_to=v),
                  lambda v: index_reports(S4, [], [Functional.ENERGY], complete_up_to=v)]
    for call in calls:
        with pytest.raises(DomainError, match="not a rational"):
            call(value)


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
    if m == 1:
        lam = Fraction(0)  # the circle is flat; drawn anyway, so later trials keep their data
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


def test_sign_counts_reduces_only_the_rows_at_or_below_the_top(monkeypatch):
    # rows mu = k/2, k = 1..59, on S^5 with lambda = 5/4: the energy's top
    # cutoff is 2*lambda = 5/2, so the rows k <= 5 are reduced and merged,
    # one math.gcd each, and one more reduces the root; a weaker cut keeps
    # the counts but reduces rows past the top
    calls = []
    gcd = math.gcd

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    rows = [(k, 2, False, 1) for k in range(1, 60)]
    [(_, index, nullity, listed, _)] = _sign_counts(5, 5, 4, rows, (Functional.ENERGY,), None)
    assert (index, nullity, len(listed)) == (4, 1, 5)
    assert len(calls) == 6


def test_sign_counts_are_the_reports_counts():
    # the counting core behind the reports, on the brute-force test's
    # spectra with every row repeated unreduced (num*k/den*k), which must
    # merge with its reduced twin as the bands given twice merge in
    # index_reports.  The core is given lambda and the bound unreduced by the
    # same k.  A quarter of the draws declare no bound: the core warns
    # nothing, and index_reports warns once per functional
    rng = random.Random(20261019)
    for trial in range(300):
        m = trial % 12 + 1
        space, bands = random_spectrum(rng, m)
        rows = _band_rows(bands)
        k = rng.randint(2, 7)
        rows += [(num * k, den * k, divergence_free, mult)
                 for num, den, divergence_free, mult in rows]
        kinds = list(Functional)
        rng.shuffle(kinds)
        kinds = kinds[:rng.randint(1, 3)]
        declared = None if rng.random() < 0.25 else 10 ** 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = space.einstein_constant
            counts = _sign_counts(m, lam.numerator * k, lam.denominator * k, rows, kinds,
                                  None if declared is None else (declared * k, k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # kinds is read once, so any iterable works, an iterator too
            reports = index_reports(space, bands * 2, iter(kinds), declared)
        assert [w.category for w in caught] \
            == [SpectrumCompletenessWarning] * (len(kinds) if declared is None else 0)
        assert len(counts) == len(reports) == len(kinds)
        for kind, (roots, index, nullity, listed, values), report in zip(kinds, counts,
                                                                         reports):
            assert roots == _roots(kind, m, lam.numerator, lam.denominator)
            assert (index, nullity) == (report.index, report.nullity)
            expected = brute_force_report(space, bands + bands, kind)
            assert (index, nullity) == expected[:2], (m, space.einstein_constant, kind)
            # each listed row in lowest terms, with its Jacobi eigenvalue's numerator
            scale = math.prod(rd for _, rd in roots)
            got = [(Fraction(num, den), mult, Fraction(value, den ** len(roots) * scale))
                   for (num, den, _, mult), value in zip(listed, values)]
            assert got == [(b.eigenvalue, b.multiplicity, j) for b, j in report.contributing_bands]
            assert all(math.gcd(num, den) == 1 for num, den, *_ in listed)
