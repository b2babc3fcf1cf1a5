"""Closed-form Hodge-Laplacian spectra of round spheres and spectrum files.

For the round m-sphere with Einstein constant lambda (unit sphere:
lambda = m - 1) the vector-field spectrum splits into gradient bands

    mu_k = k*(k + m - 1) * lambda/(m - 1),          k >= 1,
    N(m, k) = (2k + m - 1) * (k + m - 2)! / (k! * (m - 1)!)

and divergence-free bands

    mu'_k = (k*(k + m - 1) + m - 2) * lambda/(m - 1),   k >= 1,
    M(m, k) = k*(k + m - 1)*(2k + m - 1)*(k + m - 3)! / ((k + 1)! * (m - 2)!).

The first divergence-free band is exactly 2*lambda with multiplicity
m*(m+1)/2, the Killing fields.  The circle is handled separately since the
factorial formulas degenerate at m = 1.

Other spaces enter through JSON spectrum files; rationals are parsed
exactly from "p/q" strings, never through floats.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BandKind,
    EinsteinSpace,
    Functional,
    SpectralBand,
    SpectrumValidation,
    _cutoffs,
    _ratio_text,
    _row_band,
    _validate_rows,
    as_rational,
)
from .errors import DomainError, InvalidBand, ParseError


def gradient_multiplicity(m: int, k: int) -> int:
    """Dimension N(m, k) of the k-th gradient band on the m-sphere, m >= 2, k >= 1."""
    # (k + m - 2)! / (k! (m - 1)!) = C(k + m - 2, k) / (m - 1); N is an integer
    return (2 * k + m - 1) * math.comb(k + m - 2, k) // (m - 1)


def divergence_free_multiplicity(m: int, k: int) -> int:
    """Dimension M(m, k) of the k-th divergence-free band on the m-sphere, m >= 2, k >= 1."""
    # k (k + m - 3)! / ((k + 1)! (m - 2)!) = C(k + m - 3, k - 1) / (k + 1); M is an integer
    return (k + m - 1) * (2 * k + m - 1) * math.comb(k + m - 3, k - 1) // (k + 1)


def _rows(m: int, lam: Fraction, up_to: Fraction) -> list[tuple]:
    """Closed-form rows with eigenvalue <= up_to, sorted by eigenvalue then kind.

    A row is the engine's (num, den, divergence_free, multiplicity).
    Every sphere row shares the denominator lam.denominator*(m - 1), so the
    cut and the sort compare numerators.  m = 1 is the flat circle: the
    rotation field at 0 plus k^2 harmonics, with denominator 1.
    """
    if m > 1 and lam <= 0:
        # the loops below would never end; builtin_spectrum refuses this first
        raise AssertionError(f"_rows needs lam > 0 for m >= 2, got {lam}")
    top_num, top_den = up_to.numerator, up_to.denominator
    if m == 1:
        rows = [(0, 1, True, 1)]
        k = 1
        while k * k * top_den <= top_num:
            rows.append((k * k, 1, False, 2))
            k += 1
        return rows
    scale, den = lam.numerator, lam.denominator * (m - 1)
    rows = []
    k = 1
    while (num := k * (k + m - 1) * scale) * top_den <= top_num * den:
        rows.append((num, den, False, gradient_multiplicity(m, k)))
        k += 1
    k = 1
    while (num := (k * (k + m - 1) + m - 2) * scale) * top_den <= top_num * den:
        rows.append((num, den, True, divergence_free_multiplicity(m, k)))
        k += 1
    rows.sort(key=lambda row: (row[0], row[2]))
    return rows


@dataclass(frozen=True)
class LoadedSpectrum:
    """A validated spectrum: a closed-form sphere (path None) or a spectrum file.

    `rows` holds the bands as the engine's four-integer rows; `bands` and
    the `validation` report are built from them on first access, so a
    record made with other rows (dataclasses.replace) reports on those.
    """

    space: EinsteinSpace
    rows: tuple[tuple, ...]
    complete_up_to: Fraction | None
    path: str | None

    @functools.cached_property
    def bands(self) -> tuple[SpectralBand, ...]:
        return tuple(_row_band(*row) for row in self.rows)

    @functools.cached_property
    def validation(self) -> SpectrumValidation:
        """validate_spectrum's report on the rows: bound violations and rigidity notes."""
        return _validate_rows(self.space, self.rows)


def builtin_spectrum(m: int, lam: Fraction | int | str | None = None,
                     kinds: Iterable[Functional] = tuple(Functional),
                     up_to: Fraction | int | str | None = None) -> LoadedSpectrum:
    """The closed-form spectrum of the round m-sphere, or of the flat circle for m = 1.

    `lam` defaults to the unit sphere's m - 1; the circle must have lam = 0
    and every other sphere lam > 0.  The bands run up to `up_to`, by default
    the largest contribution cutoff over `kinds` (0 for no kinds), and that
    bound is declared complete.  The result has no path, and its
    `validation` is built as a file's is.
    """
    if type(m) is not int or m < 1:
        raise DomainError(f"need integer m >= 1, got {m!r}")
    lam = Fraction(m - 1) if lam is None else as_rational(lam)
    if m > 1 and lam <= 0:
        raise DomainError(f"Einstein constant must be positive for m >= 2, got {lam}")
    space = EinsteinSpace(dimension=m, einstein_constant=lam,
                          name=f"S^{m}" if lam == m - 1 else f"S^{m} (lambda={lam})")
    if up_to is None:
        top = _cutoffs(m, lam.numerator, lam.denominator, kinds)[2]
        up_to = Fraction(0) if top is None else Fraction(*top)
    up_to = as_rational(up_to)
    if up_to < 0:
        raise DomainError(f"up_to must be >= 0, got {up_to}")
    rows = tuple(_rows(m, lam, up_to))
    return LoadedSpectrum(space=space, rows=rows, complete_up_to=up_to, path=None)


_TOP_FIELDS = {"name", "dimension", "einstein_constant", "complete_up_to", "bands"}
# a tuple, so a band missing several fields always names the same one first
_BAND_FIELDS = ("eigenvalue", "multiplicity", "kind")
_DIVERGENCE_FREE = {kind.value: kind is BandKind.DIVERGENCE_FREE for kind in BandKind}
_KIND_VALUES = {divergence_free: name for name, divergence_free in _DIVERGENCE_FREE.items()}


def _rational_field(raw, field: str, position: int | None = None) -> Fraction:
    """An integer or "p/q" field; `position` is the index of the band it belongs to."""
    cause = None
    if type(raw) is str or type(raw) is int:  # not a bool
        try:
            return as_rational(raw)
        except DomainError as exc:
            cause, problem = exc, f"is {exc}"
    else:
        problem = f"must be an integer or a 'p/q' string, got {raw!r}"
    # the field's text is built only on this failure path
    where = field if position is None else f"bands[{position}].{field}"
    raise ParseError(f"{where} {problem}") from cause


def _parse_rows(raw_bands: list, strict: bool) -> tuple[tuple, ...]:
    """The engine's rows of a file's bands, in file order: the one band reader.

    A row is (num, den, divergence_free, multiplicity), the eigenvalue
    num/den with den > 0, not necessarily reduced.  A plain ASCII "p" or
    "p/q" eigenvalue is read as its integer pair, without a Fraction; any
    other spelling goes through _rational_field.  A band is refused for the
    first of: not an object, a missing field, unknown fields (strict only),
    the eigenvalue, the kind, the multiplicity, the sign; SpectralBand words
    the last two.  One row per band before it, so len(rows) is its position.
    """
    rows = []
    append = rows.append
    for raw in raw_bands:
        try:
            text, mult, kind = raw["eigenvalue"], raw["multiplicity"], raw["kind"]
        except (KeyError, TypeError):
            if type(raw) is not dict:
                raise ParseError(f"bands[{len(rows)}] must be an object, "
                                 f"got {type(raw).__name__}") from None
            missing = next(name for name in _BAND_FIELDS if name not in raw)
            raise ParseError(f"bands[{len(rows)}] is missing required field {missing!r}") from None
        if strict and len(raw) > len(_BAND_FIELDS):
            unknown = set(raw).difference(_BAND_FIELDS)
            raise ParseError(f"bands[{len(rows)}] has unknown fields {sorted(unknown)}")
        den = 0
        if type(text) is str and text.isascii():
            head, slash, tail = text.partition("/")
            if head.isdigit() and (not slash or tail.isdigit()):
                try:
                    num, den = int(head), int(tail) if slash else 1
                except ValueError:
                    # past int's digit limit: _rational_field words the refusal
                    pass
        if not den:
            mu = _rational_field(text, "eigenvalue", len(rows))
            num, den = mu.numerator, mu.denominator
        try:
            divergence_free = _DIVERGENCE_FREE[kind]
        except (KeyError, TypeError):
            raise ParseError(f"bands[{len(rows)}].kind must be one of "
                             f"{sorted(_DIVERGENCE_FREE)}, got {kind!r}") from None
        if type(mult) is not int or mult < 1 or num < 0:
            try:
                _row_band(num, den, divergence_free, mult)
            except InvalidBand as exc:
                raise InvalidBand(f"bands[{len(rows)}].{exc}") from exc
        append((num, den, divergence_free, mult))
    return tuple(rows)


def load_spectrum(path: str | os.PathLike, strict: bool = False) -> LoadedSpectrum:
    """Load a JSON spectrum file; its bounds are checked on first access to `validation`.

    `path` is a str or an os.PathLike; anything else, such as a file
    descriptor, raises DomainError before any file is opened.  The
    report's `warnings` hold the bound violations and rigidity notes.
    Structural problems raise ParseError or InvalidBand.
    """
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an int, or a bool, as a file descriptor and close it
        raise DomainError(f"path must be a str or an os.PathLike, got {path!r}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # a syntax error, an integer past int's digit limit, too deep a
            # nesting, or a byte that is not UTF-8
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for name in ("name", "dimension", "einstein_constant", "bands"):
        if name not in doc:
            raise ParseError(f"{path}: missing required field {name!r}")
    if strict:
        unknown = set(doc) - _TOP_FIELDS
        if unknown:
            raise ParseError(f"{path}: unknown fields {sorted(unknown)}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: name must be a string, got {name!r}")
    try:
        space = EinsteinSpace(
            dimension=doc["dimension"], name=name,
            einstein_constant=_rational_field(doc["einstein_constant"], "einstein_constant"))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    complete_up_to = None
    if doc.get("complete_up_to") is not None:
        complete_up_to = _rational_field(doc["complete_up_to"], "complete_up_to")
    if not isinstance(doc["bands"], list):
        raise ParseError(f"{path}: bands must be an array")
    rows = _parse_rows(doc["bands"], strict)
    return LoadedSpectrum(space=space, rows=rows, complete_up_to=complete_up_to, path=str(path))


def spectrum_document(spectrum: LoadedSpectrum) -> dict:
    """Serialize a spectrum into the file format (round-trips through load_spectrum)."""
    space = spectrum.space
    doc = {
        "name": space.name if space.name is not None else f"dim-{space.dimension} space",
        "dimension": space.dimension,
        "einstein_constant": str(space.einstein_constant),
    }
    if spectrum.complete_up_to is not None:
        doc["complete_up_to"] = str(spectrum.complete_up_to)
    # the keys _BAND_FIELDS reads
    doc["bands"] = [{"eigenvalue": _ratio_text(num, den), "multiplicity": mult,
                     "kind": _KIND_VALUES[divergence_free]}
                    for num, den, divergence_free, mult in spectrum.rows]
    return doc
