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

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    _KIND_ORDER,
    _prechecked_band,
    BandKind,
    EinsteinSpace,
    Functional,
    Rational,
    SpectralBand,
    SpectrumValidation,
    as_rational,
    contribution_cutoff,
    validate_spectrum,
)
from .errors import DomainError, InvalidBand, MissingField, ParseError


def gradient_multiplicity(m: int, k: int) -> int:
    """Dimension N(m, k) of the k-th gradient band on the m-sphere."""
    if m < 2 or k < 1:
        raise DomainError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    num = (2 * k + m - 1) * math.factorial(k + m - 2)
    den = math.factorial(k) * math.factorial(m - 1)
    if num % den:
        raise AssertionError(f"N({m},{k}) is not an integer; formula broken")
    return num // den


def divergence_free_multiplicity(m: int, k: int) -> int:
    """Dimension M(m, k) of the k-th divergence-free band on the m-sphere."""
    if m < 2 or k < 1:
        raise DomainError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    num = k * (k + m - 1) * (2 * k + m - 1) * math.factorial(k + m - 3)
    den = math.factorial(k + 1) * math.factorial(m - 2)
    if num % den:
        raise AssertionError(f"M({m},{k}) is not an integer; formula broken")
    return num // den


def _bands(m: int, lam: Fraction, up_to: Fraction) -> list[SpectralBand]:
    """Closed-form bands with eigenvalue <= up_to, sorted by eigenvalue then kind.

    m = 1 is the flat circle: the rotation field at 0 plus k^2 harmonics.
    """
    if m == 1:
        bands = [SpectralBand(Fraction(0), 1, BandKind.DIVERGENCE_FREE)]
        k = 1
        while k * k <= up_to:
            bands.append(SpectralBand(Fraction(k * k), 2, BandKind.GRADIENT))
            k += 1
        return bands
    scale = lam / (m - 1)
    bands = []
    k = 1
    while (mu := k * (k + m - 1) * scale) <= up_to:
        bands.append(SpectralBand(mu, gradient_multiplicity(m, k), BandKind.GRADIENT))
        k += 1
    k = 1
    while (mu := (k * (k + m - 1) + m - 2) * scale) <= up_to:
        bands.append(SpectralBand(mu, divergence_free_multiplicity(m, k),
                                  BandKind.DIVERGENCE_FREE))
        k += 1
    bands.sort(key=lambda b: (b.eigenvalue, _KIND_ORDER[b.kind]))
    return bands


@dataclass(frozen=True)
class LoadedSpectrum:
    """A validated spectrum: a closed-form sphere (path None) or a spectrum file."""

    space: EinsteinSpace
    bands: tuple[SpectralBand, ...]
    complete_up_to: Fraction | None
    path: str | None
    validation: SpectrumValidation

    @property
    def warnings(self) -> tuple[str, ...]:
        return self.validation.warnings


def builtin_spectrum(m: int, lam: Rational | None = None,
                     kinds: Iterable[Functional] = tuple(Functional),
                     up_to: Rational | None = None) -> LoadedSpectrum:
    """The closed-form spectrum of the round m-sphere, or of the flat circle for m = 1.

    `lam` defaults to the unit sphere's m - 1; the circle must have lam = 0
    and every other sphere lam > 0.  The bands run up to `up_to`, by default
    the largest contribution cutoff over `kinds` (0 for no kinds), and that
    bound is declared complete.  The result carries the same validate_spectrum
    report that load_spectrum gives a file, and no path.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"need integer m >= 1, got {m!r}")
    lam = Fraction(m - 1) if lam is None else as_rational(lam)
    if m == 1 and lam != 0:
        raise DomainError(f"the circle is flat; its Einstein constant must be 0, got {lam}")
    if m > 1 and lam <= 0:
        raise DomainError(f"Einstein constant must be positive for m >= 2, got {lam}")
    space = EinsteinSpace(dimension=m, einstein_constant=lam,
                          name=f"S^{m}" if lam == m - 1 else f"S^{m} (lambda={lam})")
    if up_to is None:
        up_to = max((contribution_cutoff(space, kind) for kind in kinds), default=Fraction(0))
    up_to = as_rational(up_to)
    if up_to < 0:
        raise DomainError(f"up_to must be >= 0, got {up_to}")
    bands = tuple(_bands(m, lam, up_to))
    return LoadedSpectrum(space=space, bands=bands, complete_up_to=up_to, path=None,
                          validation=validate_spectrum(space, bands))


_TOP_FIELDS = {"name", "dimension", "einstein_constant", "complete_up_to", "bands"}
# a tuple, so a band missing several fields always names the same one first
_BAND_FIELDS = ("eigenvalue", "multiplicity", "kind")
_KIND_NAMES = {kind.value: kind for kind in BandKind}


def _rational_field(raw, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ParseError(f"{where} must be an integer or a 'p/q' string, got {raw!r}")
    try:
        if isinstance(raw, str):
            # Plain ASCII "p" and "p/q" with q > 0 skip the regular expression
            # in Fraction(str); every other string goes through it, so it
            # alone defines the accepted syntax and the error text.
            num, slash, den = raw.partition("/")
            if num.isascii() and num.isdigit() and (
                    not slash or (den.isascii() and den.isdigit())):
                p = int(num)
                q = int(den) if slash else 1
                if q:
                    return Fraction(p, q)
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where} is not a rational: {raw!r} ({exc})") from exc


def _parse_band(raw, position: int, strict: bool) -> SpectralBand:
    where = f"bands[{position}]"
    if not isinstance(raw, dict):
        raise ParseError(f"{where} must be an object, got {type(raw).__name__}")
    for name in _BAND_FIELDS:
        if name not in raw:
            raise MissingField(f"{where} is missing required field {name!r}")
    if strict:
        unknown = set(raw).difference(_BAND_FIELDS)
        if unknown:
            raise ParseError(f"{where} has unknown fields {sorted(unknown)}")
    eigenvalue = _rational_field(raw["eigenvalue"], f"{where}.eigenvalue")
    mult = raw["multiplicity"]
    if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
        raise InvalidBand(f"{where}.multiplicity must be a positive integer, got {mult!r}")
    kind_name = raw["kind"]
    kind = _KIND_NAMES.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise ParseError(
            f"{where}.kind must be one of {sorted(_KIND_NAMES)}, got {kind_name!r}")
    if eigenvalue.numerator < 0:
        raise InvalidBand(f"{where}.eigenvalue must be >= 0, got {eigenvalue}")
    return _prechecked_band(eigenvalue, mult, kind)


def load_spectrum(path: str | os.PathLike, strict: bool = False) -> LoadedSpectrum:
    """Load a JSON spectrum file and validate its bounds non-strictly.

    The result carries the validate_spectrum report as `validation`; its
    bound violations and rigidity notes are the `warnings` of the result.
    Structural problems raise ParseError, MissingField or InvalidBand.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for name in ("name", "dimension", "einstein_constant", "bands"):
        if name not in doc:
            raise MissingField(f"{path}: missing required field {name!r}")
    if strict:
        unknown = set(doc) - _TOP_FIELDS
        if unknown:
            raise ParseError(f"{path}: unknown fields {sorted(unknown)}")
    dimension = doc["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise ParseError(f"{path}: dimension must be a positive integer, got {dimension!r}")
    lam = _rational_field(doc["einstein_constant"], "einstein_constant")
    if lam < 0:
        raise ParseError(f"{path}: einstein_constant must be >= 0, got {lam}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: name must be a string, got {name!r}")
    complete_up_to = None
    if doc.get("complete_up_to") is not None:
        complete_up_to = _rational_field(doc["complete_up_to"], "complete_up_to")
    if not isinstance(doc["bands"], list):
        raise ParseError(f"{path}: bands must be an array")
    bands = tuple(_parse_band(raw, i, strict) for i, raw in enumerate(doc["bands"]))
    space = EinsteinSpace(dimension=dimension, einstein_constant=lam, name=name)
    return LoadedSpectrum(space=space, bands=bands, complete_up_to=complete_up_to,
                          path=str(path), validation=validate_spectrum(space, bands))


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
    doc["bands"] = [
        {
            "eigenvalue": str(band.eigenvalue),
            "multiplicity": band.multiplicity,
            "kind": band.kind.value,
        }
        for band in spectrum.bands
    ]
    return doc
