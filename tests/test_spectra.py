import itertools
import json
import math
from fractions import Fraction

import pytest

from cbstab.core import BandKind, EinsteinSpace, Functional, index_reports, validate_spectrum
from cbstab.errors import DomainError, InvalidBand, MissingField, ParseError
from cbstab.spectra import (
    builtin_spectrum,
    divergence_free_multiplicity,
    gradient_multiplicity,
    _rational_field,
    load_spectrum,
    spectrum_document,
)


GRAD = BandKind.GRADIENT
DIV = BandKind.DIVERGENCE_FREE


def harmonic_polynomial_dim(nvars, degree):
    """Brute-force dim of harmonic homogeneous polynomials: monomial count
    minus the rank of the Laplacian, computed exactly over the rationals."""
    def monomials(n, d):
        if n == 1:
            return [(d,)]
        out = []
        for head in range(d + 1):
            out.extend((head,) + rest for rest in monomials(n - 1, d - head))
        return out

    source = monomials(nvars, degree)
    if degree < 2:
        return len(source)
    target = monomials(nvars, degree - 2)
    index = {mon: i for i, mon in enumerate(target)}
    rows = []
    for mon in source:
        row = [Fraction(0)] * len(target)
        for axis in range(nvars):
            if mon[axis] >= 2:
                image = list(mon)
                image[axis] -= 2
                row[index[tuple(image)]] += mon[axis] * (mon[axis] - 1)
        rows.append(row)
    # exact Gaussian elimination for the rank (columns of the transpose)
    rank = 0
    ncols = len(target)
    pivot_col = 0
    matrix = [row[:] for row in rows]
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return len(source) - rank


def test_gradient_multiplicity_against_bruteforce():
    for m, k in itertools.product((2, 3, 4, 5), (1, 2, 3)):
        assert gradient_multiplicity(m, k) == harmonic_polynomial_dim(m + 1, k)


def test_gradient_multiplicity_against_binomials():
    for m in range(2, 13):
        for k in range(1, 13):
            want = math.comb(m + k, k) - (math.comb(m + k - 2, k - 2) if k >= 2 else 0)
            assert gradient_multiplicity(m, k) == want


def test_multiplicities_are_positive_integers():
    for m in range(2, 13):
        for k in range(1, 13):
            n = gradient_multiplicity(m, k)
            d = divergence_free_multiplicity(m, k)
            assert isinstance(n, int) and n >= 1
            assert isinstance(d, int) and d >= 1


def test_divergence_free_anchor_values():
    # Killing fields: first band has dim of the isometry algebra o(m+1)
    for m in range(2, 11):
        assert divergence_free_multiplicity(m, 1) == m * (m + 1) // 2
    # on S^2 the formula degenerates to 2k+1
    for k in range(1, 10):
        assert divergence_free_multiplicity(2, k) == 2 * k + 1
    assert divergence_free_multiplicity(5, 1) == 15


def bands_of(m, lam, up_to, kind=None):
    """The built-in bands up to `up_to`, optionally only those of one kind."""
    bands = builtin_spectrum(m, lam, up_to=up_to).bands
    return [b for b in bands if kind is None or b.kind is kind]


def test_gradient_bands_examples():
    bands = bands_of(4, 3, 6, GRAD)
    assert [(b.eigenvalue, b.multiplicity, b.kind) for b in bands] \
        == [(Fraction(4), 5, BandKind.GRADIENT)]
    bands = bands_of(2, 1, 2, GRAD)
    assert [(b.eigenvalue, b.multiplicity) for b in bands] == [(Fraction(2), 3)]
    assert bands_of(5, 4, 4, GRAD) == []


def test_divergence_free_bands_examples():
    bands = bands_of(4, 3, 6, DIV)
    assert [(b.eigenvalue, b.multiplicity, b.kind) for b in bands] \
        == [(Fraction(6), 10, BandKind.DIVERGENCE_FREE)]
    assert [(b.eigenvalue, b.multiplicity) for b in bands_of(5, 4, 8, DIV)] \
        == [(Fraction(8), 15)]
    assert [(b.eigenvalue, b.multiplicity) for b in bands_of(2, 1, 2, DIV)] \
        == [(Fraction(2), 3)]


def test_first_divergence_free_band_is_killing():
    for m in range(2, 11):
        lam = Fraction(m - 1)
        first = bands_of(m, lam, 2 * lam, DIV)
        assert len(first) == 1
        assert first[0].eigenvalue == 2 * lam
        assert first[0].multiplicity == m * (m + 1) // 2


def test_first_gradient_band_saturates_obata():
    for m in range(3, 11):
        lam = Fraction(m - 1)
        space = builtin_spectrum(m).space
        below_killing = bands_of(m, lam, 2 * lam, GRAD)
        assert len(below_killing) == 1  # nothing else in (0, 2 lambda)
        assert below_killing[0].eigenvalue == Fraction(m, m - 1) * lam
        report = validate_spectrum(space, below_killing)
        assert report.ok
        assert any("Obata" in msg for msg in report.warnings)


def test_rescaling_lambda():
    for c in (Fraction(1, 3), Fraction(5, 2), Fraction(7)):
        base = bands_of(6, 5, 12)
        scaled = bands_of(6, 5 * c, 12 * c)
        assert len(base) == len(scaled)
        for b, s in zip(base, scaled):
            assert s.eigenvalue == b.eigenvalue * c
            assert s.multiplicity == b.multiplicity
            assert s.kind == b.kind


def test_circle_bands():
    circle = builtin_spectrum(1, 0, up_to=0)
    space, bands = circle.space, circle.bands
    assert space.dimension == 1 and space.einstein_constant == 0
    assert [(b.eigenvalue, b.multiplicity, b.kind) for b in bands] \
        == [(Fraction(0), 1, BandKind.DIVERGENCE_FREE)]
    assert [(b.eigenvalue, b.multiplicity) for b in bands_of(1, 0, 1)] \
        == [(Fraction(0), 1), (Fraction(1), 2)]
    # the rotation field is the whole energy kernel on the circle
    energy, c_bienergy = index_reports(space, bands,
                                       [Functional.ENERGY, Functional.CONFORMAL_BIENERGY],
                                       complete_up_to=0)
    assert (energy.index, energy.nullity) == (0, 1)
    assert (c_bienergy.index, c_bienergy.nullity) == (0, 1)


def test_builtin_spectrum_unit_sphere():
    s4 = builtin_spectrum(4)
    assert s4.space == EinsteinSpace(4, 3, name="S^4")
    assert (s4.complete_up_to, s4.path) == (Fraction(6), None)
    assert [(b.eigenvalue, b.multiplicity, b.kind) for b in s4.bands] \
        == [(Fraction(4), 5, GRAD), (Fraction(6), 10, DIV)]
    assert s4.validation == validate_spectrum(s4.space, s4.bands)
    assert any("Obata" in w for w in s4.warnings)


def test_builtin_spectrum_cutoff_follows_kinds():
    # on S^2 the c-bienergy root (2/3)(6 - m)*lambda = 8/3 lies above 2*lambda = 2
    assert builtin_spectrum(2, kinds=[Functional.ENERGY]).complete_up_to == 2
    assert builtin_spectrum(2).complete_up_to == Fraction(8, 3)
    assert builtin_spectrum(4, kinds=()).bands == ()
    explicit = builtin_spectrum(4, 3, up_to=10)
    assert explicit.complete_up_to == 10
    # mu = 10 is the second gradient band; the second divergence-free one is 12
    assert [(b.eigenvalue, b.multiplicity, b.kind) for b in explicit.bands] \
        == [(Fraction(4), 5, GRAD), (Fraction(6), 10, DIV), (Fraction(10), 14, GRAD)]


def test_builtin_spectrum_names_and_circle():
    assert builtin_spectrum(6, Fraction(5, 2)).space.name == "S^6 (lambda=5/2)"
    assert builtin_spectrum(6, "5").space.name == "S^6"
    circle = builtin_spectrum(1, 0, up_to=4)
    assert (circle.space.name, circle.space.einstein_constant) == ("S^1", 0)
    assert [(b.eigenvalue, b.multiplicity) for b in circle.bands] \
        == [(Fraction(0), 1), (Fraction(1), 2), (Fraction(4), 2)]
    assert circle.warnings == ()
    assert builtin_spectrum(1).complete_up_to == 0


@pytest.mark.parametrize("args", [(0,), (2.0,), (1, 2), (4, 0), (4, -1),
                                  (4, None, tuple(Functional), -1), (1, 0, (), -1)])
def test_builtin_spectrum_domain(args):
    with pytest.raises(DomainError):
        builtin_spectrum(*args)


def write_spectrum(tmp_path, doc, name="spectrum.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def s4_document():
    return spectrum_document(builtin_spectrum(4))


@pytest.mark.parametrize("m", range(1, 11))
def test_load_spectrum_round_trip(tmp_path, m):
    builtin = builtin_spectrum(m)
    path = write_spectrum(tmp_path, spectrum_document(builtin))
    loaded = load_spectrum(path)
    assert loaded.space == builtin.space
    assert loaded.bands == builtin.bands
    assert loaded.complete_up_to == builtin.complete_up_to
    assert loaded.path == str(path)
    assert loaded.warnings == builtin.warnings
    from_file = index_reports(loaded.space, loaded.bands, Functional,
                              complete_up_to=loaded.complete_up_to)
    from_builtin = index_reports(builtin.space, builtin.bands, Functional,
                                 complete_up_to=builtin.complete_up_to)
    assert from_file == from_builtin


def test_load_spectrum_exact_rationals(tmp_path):
    doc = {
        "name": "half-integer", "dimension": 4, "einstein_constant": "7/4",
        "bands": [{"eigenvalue": "7/2", "multiplicity": 2, "kind": "gradient"}],
    }
    loaded = load_spectrum(write_spectrum(tmp_path, doc))
    assert isinstance(loaded.bands[0].eigenvalue, Fraction)
    assert loaded.bands[0].eigenvalue == Fraction(7, 2)
    assert loaded.space.einstein_constant == Fraction(7, 4)
    assert loaded.complete_up_to is None


def test_load_spectrum_attaches_validation_warnings(tmp_path):
    doc = {
        "name": "bad bounds", "dimension": 4, "einstein_constant": "3",
        "bands": [{"eigenvalue": "3", "multiplicity": 5, "kind": "gradient"}],
    }
    loaded = load_spectrum(write_spectrum(tmp_path, doc))
    assert any("Lichnerowicz-Obata" in w for w in loaded.warnings)


def test_load_spectrum_errors(tmp_path):
    with pytest.raises(InvalidBand):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4, "einstein_constant": "3",
            "bands": [{"eigenvalue": "4", "multiplicity": 0, "kind": "gradient"}]}))
    with pytest.raises(MissingField):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4,
            "bands": []}))
    with pytest.raises(MissingField):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4, "einstein_constant": "3",
            "bands": [{"multiplicity": 1, "kind": "gradient"}]}))
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_spectrum(path)
    with pytest.raises(ParseError):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4, "einstein_constant": 3.0,
            "bands": []}))
    with pytest.raises(ParseError):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4, "einstein_constant": "3",
            "bands": [{"eigenvalue": "4", "multiplicity": 1, "kind": "harmonic"}]}))


def test_load_spectrum_unknown_fields(tmp_path):
    doc = s4_document()
    doc["comment"] = "extra"
    path = write_spectrum(tmp_path, doc)
    loaded = load_spectrum(path)  # ignored when not strict
    assert loaded.space.dimension == 4
    with pytest.raises(ParseError):
        load_spectrum(path, strict=True)
    doc = s4_document()
    doc["bands"][0]["note"] = "extra"
    path = write_spectrum(tmp_path, doc, name="band-extra.json")
    load_spectrum(path)
    with pytest.raises(ParseError):
        load_spectrum(path, strict=True)


# Strings the "p/q" fast path takes, strings it must hand to Fraction(str),
# and the integer-conversion digit limit, which both must report alike.
PARITY_STRINGS = ["6/8", "7", "0", " 3/4", "+3/4", "-1/2", "1.5", "1e3", "3_000/4", "3/ 4",
                  "1/0", "0/0", "\u0663/4", "\u00b2/4", "", "9" * 5000, "1/" + "7" * 5000]


@pytest.mark.parametrize("text", PARITY_STRINGS, ids=lambda text: repr(text)[:16])
def test_rational_field_matches_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as info:
            _rational_field(text, "bands[0].eigenvalue")
        assert str(info.value) == f"bands[0].eigenvalue is not a rational: {text!r} ({exc})"
    else:
        got = _rational_field(text, "bands[0].eigenvalue")
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
