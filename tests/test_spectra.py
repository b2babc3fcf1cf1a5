import dataclasses
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import pytest

from cbstab.cli import main
from cbstab.core import BandKind, EinsteinSpace, Functional, index_reports, validate_spectrum
from cbstab.errors import DomainError, InvalidBand, ParseError
from cbstab.spectra import (
    builtin_spectrum,
    divergence_free_multiplicity,
    gradient_multiplicity,
    _parse_rows,
    _rational_field,
    _rows,
    load_spectrum,
    spectrum_document,
)
from helpers import count_constructions, patch_energy_root_plus_one


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


def test_multiplicities_build_no_factorial(monkeypatch):
    # a machine-independent cost counter: each multiplicity is one binomial,
    # so a high sphere's rows are quick (two factorials of about m each took
    # seconds at m = 300000)
    def factorial(n):
        raise AssertionError(f"factorial({n})")

    monkeypatch.setattr(math, "factorial", factorial)
    spectrum = builtin_spectrum(10 ** 6)
    assert spectrum.rows[0][3] == 10 ** 6 + 1  # the gradient band k = 1
    assert divergence_free_multiplicity(10 ** 6, 1) == 10 ** 6 * (10 ** 6 + 1) // 2


def bands_of(m, lam, up_to, kind=None):
    """The built-in bands up to `up_to`, optionally only those of one kind."""
    bands = builtin_spectrum(m, lam, up_to=up_to).bands
    return [b for b in bands if kind is None or b.kind is kind]


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
        assert report.first_violation is None
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
    assert any("Obata" in w for w in s4.validation.warnings)
    # the report is the rows', so a copy with other rows reports on those
    assert dataclasses.replace(s4, rows=s4.rows[1:]).validation.warnings == ()


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
    assert circle.validation.warnings == ()
    assert builtin_spectrum(1).complete_up_to == 0


def closed_form_bands(m, lam, up_to):
    """The closed-form bands up to `up_to` in Fractions, sorted by eigenvalue then kind."""
    if m == 1:
        return [(Fraction(0), 1, DIV)] + [(Fraction(k * k), 2, GRAD)
                                          for k in range(1, math.isqrt(math.floor(up_to)) + 1)]
    scale = Fraction(lam) / (m - 1)
    bands = []
    for k in itertools.count(1):
        mu = k * (k + m - 1) * scale
        if mu > up_to:
            break
        bands.append((mu, gradient_multiplicity(m, k), GRAD))
    for k in itertools.count(1):
        mu = (k * (k + m - 1) + m - 2) * scale
        if mu > up_to:
            break
        bands.append((mu, divergence_free_multiplicity(m, k), DIV))
    return sorted(bands, key=lambda band: (band[0], band[2] is DIV))


@pytest.mark.parametrize("m", range(1, 13))
def test_builtin_bands_match_the_closed_forms(m):
    # a rational lambda leaves the rows' shared denominator lam.denominator*(m - 1)
    # unreduced, and on S^2 every gradient band ties with a divergence-free one
    lams = (0,) if m == 1 else (m - 1, Fraction(7, 3), Fraction(5, 12))
    for lam in lams:
        default = builtin_spectrum(m, lam)
        for up_to in (default.complete_up_to, 30 * Fraction(lam)):
            got = builtin_spectrum(m, lam, up_to=up_to).bands
            assert [(b.eigenvalue, b.multiplicity, b.kind) for b in got] \
                == closed_form_bands(m, lam, up_to), (m, lam, up_to)
            assert all(type(b.eigenvalue) is Fraction for b in got)


@pytest.mark.parametrize("m, lam, up_to", [(12, None, 4000), (7, Fraction(7, 3), 200),
                                           (1, 0, 400), (4, None, None),
                                           (7, Fraction(7, 3), None), (1, 0, None)])
def test_builtin_spectrum_builds_no_band(m, lam, up_to):
    counts, sphere = count_constructions(lambda: builtin_spectrum(m, lam, up_to=up_to))
    assert counts["SpectralBand"] == 0
    # at most one Fraction for lambda and one for the bound: the default bound
    # is the top cutoff, picked as an integer pair, and the rows and the
    # warnings are written from integer pairs
    assert counts["Fraction"] <= 2
    if up_to is not None:
        assert len(sphere.rows) > 20


@pytest.mark.parametrize("m", range(1, 13))
def test_rows_are_four_integers(tmp_path, m):
    # a row is (num, den, divergence-free?, multiplicity) and carries no band
    sphere = builtin_spectrum(m)
    path = write_spectrum(tmp_path, spectrum_document(sphere))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["bands"][0]["eigenvalue"] = " " + doc["bands"][0]["eigenvalue"]  # not plain
    loaded = load_spectrum(write_spectrum(tmp_path, doc, name="spaced.json"))
    assert {tuple(map(type, row)) for row in sphere.rows + loaded.rows} \
        == {(int, int, bool, int)}
    assert loaded.bands == sphere.bands


def test_builtin_bound_reads_the_roots_the_counts_read(monkeypatch):
    # the built-in bound and the counting core pick the top cutoff on one
    # path, so a defect in core's roots moves both and the sphere stays
    # complete for its own counts
    assert builtin_spectrum(4).complete_up_to == 6
    patch_energy_root_plus_one(monkeypatch)
    sphere = builtin_spectrum(4)
    assert sphere.complete_up_to == 7
    index_reports(sphere.space, sphere.bands, Functional, complete_up_to=sphere.complete_up_to)


@pytest.mark.parametrize("args", [(0,), (2.0,), (True,), (1, 2), (4, 0), (4, -1),
                                  (4, None, tuple(Functional), -1), (1, 0, (), -1),
                                  (4, True)])
def test_builtin_spectrum_domain(args):
    with pytest.raises(DomainError):
        builtin_spectrum(*args)


@pytest.mark.parametrize("args, message", [
    ((2.0,), "need integer m >= 1, got 2.0"), ((True,), "need integer m >= 1, got True"),
    ((2, 0), "must be positive for m >= 2, got 0"),
    ((2, -1), "must be positive for m >= 2, got -1"),
])
def test_builtin_spectrum_refuses_before_building_the_space(args, message):
    # EinsteinSpace refuses most of these too, in its own words, so the
    # message shows that builtin_spectrum's own check refused them
    with pytest.raises(DomainError, match=message):
        builtin_spectrum(*args)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(-1)])
def test_rows_refuses_a_sphere_without_positive_lambda(lam):
    # every row's eigenvalue would be <= 0 and pass the cut, so the loops
    # would never end; builtin_spectrum's DomainError stands before this
    with pytest.raises(AssertionError, match="lam > 0"):
        _rows(2, lam, Fraction(1))


def test_circle_rows_cut_at_a_fractional_bound(capsys):
    # k^2 <= 9/2 holds for k <= 2 only: the cut compares k^2 * 2 with 9
    code = main(["spectrum", "--dim", "1", "--up-to", "9/2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete_up_to"] == "9/2"
    assert [band["eigenvalue"] for band in doc["bands"]] == ["0", "1", "4"]


def write_spectrum(tmp_path, doc, name="spectrum.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_spectrum_refuses_a_file_descriptor(tmp_path):
    # open() took an int or a bool as a descriptor and closed it: True closed stdout
    with open(write_spectrum(tmp_path, s4_document()), encoding="utf-8") as handle:
        for path in (handle.fileno(), True):
            with pytest.raises(DomainError, match="path must be a str or an os.PathLike"):
                load_spectrum(path)


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
    assert loaded.validation.warnings == builtin.validation.warnings
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
    # written back without a bound, as the document that was read
    assert spectrum_document(loaded) == doc


def test_load_spectrum_attaches_validation_warnings(tmp_path):
    doc = {
        "name": "bad bounds", "dimension": 4, "einstein_constant": "3",
        "bands": [{"eigenvalue": "3", "multiplicity": 5, "kind": "gradient"}],
    }
    loaded = load_spectrum(write_spectrum(tmp_path, doc))
    assert any("Lichnerowicz-Obata" in w for w in loaded.validation.warnings)


def test_load_spectrum_errors(tmp_path):
    with pytest.raises(InvalidBand):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4, "einstein_constant": "3",
            "bands": [{"eigenvalue": "4", "multiplicity": 0, "kind": "gradient"}]}))
    with pytest.raises(ParseError, match="missing required field 'einstein_constant'"):
        load_spectrum(write_spectrum(tmp_path, {
            "name": "x", "dimension": 4,
            "bands": []}))
    with pytest.raises(ParseError):
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
    with pytest.raises(ParseError, match="top level must be an object"):
        load_spectrum(write_spectrum(tmp_path, [s4_document()]))
    with pytest.raises(ParseError, match="name must be a string, got 4"):
        load_spectrum(write_spectrum(tmp_path, dict(s4_document(), name=4)))
    with pytest.raises(ParseError, match="bands must be an array"):
        load_spectrum(write_spectrum(tmp_path, dict(s4_document(), bands={"0": GOOD_BAND})))


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


# Strings the band reader reads as an integer pair, strings it hands to
# Fraction(str), and the integer-conversion digit limit, which both must
# report alike.
PARITY_STRINGS = ["6/8", "7", "0", " 3/4", "+3/4", "-1/2", "1.5", "1e3", "3_000/4", "3/ 4",
                  "1/0", "0/0", "\u0663/4", "\u00b2/4", "", "9" * 5000, "1/" + "7" * 5000,
                  "5/", "/5", "5//6", "05/010", "0/7", "7/1"]


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


GOOD_BAND = {"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"}
# (bad band, strict, exception class, full message), the band at position 1500
BAND_REFUSALS = {
    "not-object": (["4", 5, "gradient"], False, ParseError,
                   "bands[1500] must be an object, got list"),
    "missing-eigenvalue": ({"multiplicity": 5, "kind": "gradient"}, False, ParseError,
                           "bands[1500] is missing required field 'eigenvalue'"),
    "missing-multiplicity": ({"eigenvalue": "4", "kind": "gradient"}, False, ParseError,
                             "bands[1500] is missing required field 'multiplicity'"),
    "missing-kind": ({"eigenvalue": "4", "multiplicity": 5}, False, ParseError,
                     "bands[1500] is missing required field 'kind'"),
    "unknown-strict": (dict(GOOD_BAND, note="extra", comment=1), True, ParseError,
                       "bands[1500] has unknown fields ['comment', 'note']"),
    "float-eigenvalue": (dict(GOOD_BAND, eigenvalue=4.0), False, ParseError,
                         "bands[1500].eigenvalue must be an integer or a 'p/q' string, "
                         "got 4.0"),
    "zero-denominator": (dict(GOOD_BAND, eigenvalue="1/0"), False, ParseError,
                         "bands[1500].eigenvalue is not a rational: '1/0' (Fraction(1, 0))"),
    "not-a-number": (dict(GOOD_BAND, eigenvalue="x"), False, ParseError,
                     "bands[1500].eigenvalue is not a rational: 'x' "
                     "(Invalid literal for Fraction: 'x')"),
    "negative": (dict(GOOD_BAND, eigenvalue="-1/2"), False, InvalidBand,
                 "bands[1500].eigenvalue must be >= 0, got -1/2"),
    "bad-kind": (dict(GOOD_BAND, kind="harmonic"), False, ParseError,
                 "bands[1500].kind must be one of ['divergence_free', 'gradient'], "
                 "got 'harmonic'"),
    "multiplicity-0": (dict(GOOD_BAND, multiplicity=0), False, InvalidBand,
                       "bands[1500].multiplicity must be a positive integer, got 0"),
    "multiplicity-true": (dict(GOOD_BAND, multiplicity=True), False, InvalidBand,
                          "bands[1500].multiplicity must be a positive integer, got True"),
    "multiplicity-str": (dict(GOOD_BAND, multiplicity="3"), False, InvalidBand,
                         "bands[1500].multiplicity must be a positive integer, got '3'"),
}


@pytest.mark.parametrize("case", BAND_REFUSALS)
def test_band_refusal_messages(tmp_path, case):
    bad, strict, error, message = BAND_REFUSALS[case]
    path = write_spectrum(tmp_path, {"name": "x", "dimension": 4, "einstein_constant": "3",
                                     "bands": [GOOD_BAND] * 1500 + [bad]})
    with pytest.raises(error) as info:
        load_spectrum(path, strict=strict)
    assert type(info.value) is error
    assert str(info.value) == message


# Bands at position 1500 in the spellings _parse_rows reads as an integer
# pair and in those it hands to _rational_field, refusals of each check
# among them.  (band, strict) pairs.
PARITY_BANDS = (
    [(dict(GOOD_BAND, eigenvalue=text), False) for text in PARITY_STRINGS]
    + [(dict(GOOD_BAND, **change), strict)
       for change in ({"multiplicity": True}, {"multiplicity": 1.0}, {"multiplicity": "3"},
                      {"multiplicity": 0}, {"kind": "harmonic"}, {"kind": ["gradient"]},
                      {"note": "extra"}, {"eigenvalue": 4}, {"eigenvalue": "13/6"})
       for strict in (False, True)])
# Each case's outcome, recorded while a second band reader, _parse_band,
# read every band but the plainest: {"row": reduced row} or {"error": class
# name, "message": ...}.  Where Python's Fraction or int moved an outcome,
# the case maps each version ("3.10", ...) to the outcome from it on, in
# ascending order.  Keyed by the band's JSON text, which tells True, 1 and
# 1.0 apart.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "band_parity.json"), encoding="utf-8") as _handle:
    PARITY_OUTCOMES = {(json.dumps(case["band"]), case["strict"]): case["outcome"]
                       for case in json.load(_handle)}


def recorded_outcome(bad, strict):
    outcome = PARITY_OUTCOMES[json.dumps(bad), strict]
    if "row" in outcome or "error" in outcome:
        return outcome
    since = [version for version in outcome
             if tuple(map(int, version.split("."))) <= sys.version_info[:2]]
    return outcome[since[-1]]


@pytest.mark.parametrize("bad, strict", PARITY_BANDS,
                         ids=lambda value: repr(value)[:40] if isinstance(value, dict) else "")
def test_load_spectrum_matches_parse_band(tmp_path, bad, strict):
    outcome = recorded_outcome(bad, strict)
    path = write_spectrum(tmp_path, {"name": "x", "dimension": 4, "einstein_constant": "3",
                                     "bands": [GOOD_BAND] * 1500 + [bad]})
    if "error" in outcome:
        with pytest.raises(Exception) as info:
            load_spectrum(path, strict=strict)
        assert type(info.value).__name__ == outcome["error"]
        assert str(info.value) == outcome["message"]
    else:
        loaded = load_spectrum(path, strict=strict)
        assert len(loaded.rows) == 1501
        band = loaded.bands[1500]
        mu = band.eigenvalue
        assert [mu.numerator, mu.denominator, band.kind is DIV, band.multiplicity] \
            == outcome["row"]


def test_index_builds_fractions_and_bands_only_for_what_it_prints(tmp_path, capsys,
                                                                 monkeypatch):
    # 990 bands on a space with lambda = 5 (2*lambda = 10, Obata bound 6,
    # c = 0, so every cutoff is 10).  Thirty lie at or below it, k/3 for
    # k = 1..30 of alternating kinds; two of them repeat the (4/3,
    # divergence-free) row, which leaves 28 merged rows.  Every one of them
    # is listed by the energy and c-bienergy reports, the one at 10 by the
    # bienergy report too; 9 gradient and 14 divergence-free bands lie below
    # their bounds.  The other 960 lie past the cut.
    import cbstab.core

    reports = []
    monkeypatch.setattr(cbstab.core, "IndexReport", lambda **fields: reports.append(fields))
    bands = [{"eigenvalue": f"{k}/3", "multiplicity": 1 + k % 4,
              "kind": "gradient" if k % 2 else "divergence_free"} for k in range(1, 31)]
    bands[1] = bands[5] = bands[3]
    bands += [{"eigenvalue": f"{k}/7", "multiplicity": 2,
               "kind": "divergence_free" if k % 3 else "gradient"} for k in range(71, 1031)]
    path = write_spectrum(tmp_path, {"name": "mostly far", "dimension": 6,
                                     "einstein_constant": "5", "complete_up_to": "12",
                                     "bands": bands})
    counts, code = count_constructions(
        lambda: main(["index", "--spectrum-file", str(path), "--functional", "all"]))
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    listed = {(row["eigenvalue"], row["kind"])
              for report in doc["reports"] for row in report["contributing_bands"]}
    jacobi = sum(len(report["contributing_bands"]) for report in doc["reports"])
    issues = len(doc["warnings"])
    assert (len(listed), jacobi, issues) == (28, 57, 23)
    # the document is written from the sign counts and every number in it
    # from its integer pair: no band, no report, and no Fraction per listed
    # row or warning, only lambda and complete_up_to as read and the scalar
    # curvature
    assert counts["SpectralBand"] == 0
    assert reports == []
    assert counts["Fraction"] <= 3


def test_load_spectrum_builds_no_fraction_per_flagged_band(tmp_path):
    # on lambda = 3, m = 4 the Obata bound is 4 and 2*lambda is 6: every band
    # below is flagged, unreduced, of either kind, and some gradient ones sit
    # at the bound
    flagged = [{"eigenvalue": f"{2 * (k % 9)}/4", "multiplicity": 1, "kind": "gradient"}
               if k % 2 else
               {"eigenvalue": f"{2 * (k % 11)}/4", "multiplicity": 1, "kind": "divergence_free"}
               for k in range(1000)]
    counts = []
    for number in (1, 1000):
        path = write_spectrum(tmp_path, {"name": "x", "dimension": 4, "einstein_constant": "3",
                                         "bands": flagged[:number]},
                              name=f"flagged-{number}.json")
        fractions, loaded = count_constructions(lambda: load_spectrum(path))
        assert len(loaded.validation.warnings) == number
        counts.append(fractions)
    assert counts[0] == counts[1]
    assert counts[1]["SpectralBand"] == 0


def test_band_with_an_extra_field_is_read_as_an_integer_pair(tmp_path):
    # a plain band with a field the reader ignores is read like its plain
    # twin: no Fraction and no SpectralBand for it
    plain = [{"eigenvalue": f"{k}/3", "multiplicity": k, "kind": "gradient"}
             for k in range(1, 101)]
    noted = [dict(band, note="extra") for band in plain]
    counts, rows = count_constructions(lambda: _parse_rows(noted, False))
    assert (counts["Fraction"], counts["SpectralBand"]) == (0, 0)
    assert rows == _parse_rows(plain, False)
    doc = {"name": "x", "dimension": 4, "einstein_constant": "3", "bands": noted}
    path = write_spectrum(tmp_path, doc)
    counts, loaded = count_constructions(lambda: load_spectrum(path))
    assert (counts["Fraction"], counts["SpectralBand"]) == (1, 0)  # lambda only
    assert loaded.rows == rows
