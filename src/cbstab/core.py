"""Exact stability engine for identity maps of compact Einstein manifolds.

On an Einstein manifold (Ric = lambda*g) the Jacobi operators of the
energy, bienergy and conformal-bienergy functionals at the identity map
act on a Hodge-Laplacian eigenfield with eigenvalue mu as multiplication
by

    energy:      mu - 2*lambda
    bienergy:    (mu - 2*lambda)^2
    c-bienergy:  (mu - 2*lambda) * (mu - (2/3)*(6 - m)*lambda)

so index and nullity are sign counts over the spectrum.  Everything here
is exact rational arithmetic; zero detection never involves floats.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    BoundViolation,
    DomainError,
    IncompleteSpectrum,
    InvalidBand,
    SpectrumCompletenessWarning,
)

Rational = Union[Fraction, int, str]


def as_rational(value: Rational) -> Fraction:
    """Coerce int / "p/q" string / Fraction to an exact Fraction.

    The reader of exact rationals in the CLI, the library and every
    spectrum-file field but a band eigenvalue in the plainest spelling,
    which spectra._parse_rows reads as an integer pair.  A string is
    accepted exactly when Fraction(str) accepts it.  Anything else, a float
    or a bool included, raises DomainError.
    """
    cls = type(value)
    if cls is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise DomainError(f"not a rational: {value!r} "
                          f"(a {cls.__name__}; rationals are exact)")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"not a rational: {value!r} ({exc})") from exc


class BandKind(Enum):
    GRADIENT = "gradient"
    DIVERGENCE_FREE = "divergence_free"


class Functional(Enum):
    ENERGY = "energy"
    BIENERGY = "bienergy"
    CONFORMAL_BIENERGY = "c_bienergy"


@dataclass(frozen=True)
class EinsteinSpace:
    """Compact Einstein manifold: dimension m and Einstein constant lambda >= 0.

    In dimension 1 (the circle) lambda must be 0.
    """

    dimension: int
    einstein_constant: Fraction
    name: str | None = None

    def __post_init__(self):
        if type(self.dimension) is not int or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        lam = as_rational(self.einstein_constant)
        object.__setattr__(self, "einstein_constant", lam)
        # Ric vanishes identically in dimension 1
        if self.dimension == 1 and lam != 0:
            raise DomainError(f"the circle is flat; its Einstein constant must be 0, got {lam}")
        if lam < 0:
            raise DomainError(f"Einstein constant must be >= 0, got {lam}")

    @property
    def scalar_curvature(self) -> Fraction:
        return self.dimension * self.einstein_constant


@dataclass(frozen=True, slots=True)
class SpectralBand:
    """One Hodge-Laplacian eigenvalue on vector fields, with multiplicity and kind."""

    eigenvalue: Fraction
    multiplicity: int
    kind: BandKind

    def __post_init__(self):
        # every band built passes this check, so it must be cheap; the rows
        # of a built-in sphere and of a file's plainest bands meet it by
        # construction (spectra._rows, spectra._parse_rows)
        mu = self.eigenvalue
        if type(mu) is not Fraction:
            mu = as_rational(mu)
            object.__setattr__(self, "eigenvalue", mu)
        mult = self.multiplicity
        if type(mult) is not int or mult < 1:
            raise InvalidBand(f"multiplicity must be a positive integer, got {mult!r}")
        if mu.numerator < 0:
            raise InvalidBand(f"eigenvalue must be >= 0, got {mu}")
        if type(self.kind) is not BandKind:
            raise InvalidBand(f"kind must be a BandKind, got {self.kind!r}")


@dataclass(frozen=True)
class IndexReport:
    """Index/nullity of one functional plus the bands that realize them."""

    functional: Functional
    index: int
    nullity: int
    contributing_bands: tuple[tuple[SpectralBand, Fraction], ...] = field(default=())


def jacobi_eigenvalue(kind: Functional, space: EinsteinSpace, mu: Rational) -> Fraction:
    """Eigenvalue of the Jacobi operator of `kind` on a band with eigenvalue mu."""
    mu = as_rational(mu)
    if mu < 0:
        raise DomainError(f"Hodge eigenvalue must be >= 0, got {mu}")
    roots = _roots(kind, space)
    # one Fraction of the integer products, not one per root
    return Fraction(math.prod(mu.numerator * den - num * mu.denominator for num, den in roots),
                    mu.denominator ** len(roots) * math.prod(den for _, den in roots))


def _roots(kind: Functional, space: EinsteinSpace) -> tuple[tuple[int, int], ...]:
    """The roots of kind's Jacobi eigenvalue as a monic polynomial in mu.

    Each root is a reduced (numerator, denominator) pair with denominator > 0.
    """
    lam = space.einstein_constant
    two_lam = _reduced(2 * lam.numerator, lam.denominator)
    if kind is Functional.ENERGY:
        return (two_lam,)
    if kind is Functional.BIENERGY:
        return (two_lam, two_lam)
    # c = (2/3)(6 - m)*lambda
    return (two_lam, _reduced(2 * (6 - space.dimension) * lam.numerator, 3 * lam.denominator))


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    common = math.gcd(num, den)
    return num // common, den // common


def _largest(pairs) -> tuple[int, int]:
    """The largest of reduced (numerator, denominator) pairs, by cross-multiplication."""
    best_num, best_den = pairs[0]
    for num, den in pairs[1:]:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def contribution_cutoff(space: EinsteinSpace, kind: Functional) -> Fraction:
    """Least mu* with Jacobi eigenvalue > 0 for every mu > mu*."""
    return Fraction(*_largest(_roots(kind, space)))


def _band_rows(bands: Iterable[SpectralBand]) -> list[tuple]:
    """The engine's rows of SpectralBands; a band-like is converted, and so checked, first.

    A row is (num, den, divergence_free, multiplicity, band): the eigenvalue
    num/den with den > 0, not necessarily reduced, and the SpectralBand it
    stands for, or None when no band was built for it (every row of a
    LoadedSpectrum).  The engine builds a row's band only when it reports
    the row.
    """
    rows = []
    for band in bands:
        if type(band) is not SpectralBand:
            band = SpectralBand(band.eigenvalue, band.multiplicity, band.kind)
        mu = band.eigenvalue
        rows.append((mu.numerator, mu.denominator, band.kind is BandKind.DIVERGENCE_FREE,
                     band.multiplicity, band))
    return rows


def _row_band(num: int, den: int, divergence_free: bool, multiplicity: int) -> SpectralBand:
    kind = BandKind.DIVERGENCE_FREE if divergence_free else BandKind.GRADIENT
    return SpectralBand(Fraction(num, den), multiplicity, kind)


def _row_order(a, b) -> int:
    """By eigenvalue, gradient first at ties, for reduced rows with den > 0."""
    return (a[0] * b[1] - b[0] * a[1]) or (a[2] - b[2])


def index_reports(space: EinsteinSpace, bands: Iterable[SpectralBand],
                  kinds: Iterable[Functional],
                  complete_up_to: Rational | None = None) -> list[IndexReport]:
    """Exact index and nullity of each functional in `kinds`, in that order.

    Each Jacobi eigenvalue is a monic polynomial in mu with the roots that
    _roots lists as reduced integer pairs.  On a band mu = num/den it is
    value / (den**k * prod(rd)), with value = prod(num*rd - rn*den) over the
    k roots rn/rd, so the sign of the integer value is the band's sign.  The
    cutoffs, the cut of bands past the largest one (every selected Jacobi
    eigenvalue is positive there) and the completeness check are integer
    cross-multiplications too.  Repeated (eigenvalue, kind) rows are merged
    once; each merged row carries one SpectralBand, shared by every report
    that lists it: the input band if the row merged nothing, else one band
    with the summed multiplicity, built only if a report lists the row.  A
    Fraction is built only for each reported Jacobi eigenvalue.  A band that
    is not a SpectralBand is converted, and so checked, first.

    `complete_up_to` declares that `bands` lists every eigenvalue up to that
    bound.  If the declared bound does not reach a functional's contribution
    cutoff the counts could miss negative or zero bands, so
    IncompleteSpectrum is raised.  Without a declaration one
    SpectrumCompletenessWarning per functional is emitted and the
    computation proceeds on the bands given.
    """
    return _index_rows(space, _band_rows(bands), kinds, complete_up_to)


def _index_rows(space: EinsteinSpace, rows, kinds: Iterable[Functional],
                complete_up_to: Rational | None) -> list[IndexReport]:
    """index_reports on _band_rows rows; a row without a band gets one only if listed."""
    kinds = list(kinds)
    roots = [_roots(kind, space) for kind in kinds]
    cutoffs = [_largest(kind_roots) for kind_roots in roots]
    # with no kinds every row is past the top
    top_num, top_den = _largest(cutoffs) if cutoffs else (-1, 1)
    # (numerator, denominator, divergence-free?) -> [numerator, denominator,
    # divergence-free?, summed multiplicity, first row's band]; the reduced integer
    # pair identifies the eigenvalue and hashes much faster than a Fraction,
    # and a bool, unlike an Enum member, hashes without a Python-level call
    merged: dict[tuple[int, int, bool], list] = {}
    for num, den, divergence_free, mult, band in rows:
        if num * top_den > top_num * den:
            continue
        common = math.gcd(num, den)
        if common != 1:
            num //= common
            den //= common
        key = (num, den, divergence_free)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [num, den, divergence_free, mult, band]
        else:
            entry[3] += mult
    if complete_up_to is None:
        for _ in kinds:
            warnings.warn(
                "band list has no declared completeness bound; index/nullity may undercount",
                SpectrumCompletenessWarning, stacklevel=3)
    else:
        declared = as_rational(complete_up_to)
        declared_num, declared_den = declared.numerator, declared.denominator
        for cut_num, cut_den in cutoffs:
            if declared_num * cut_den < cut_num * declared_den:
                raise IncompleteSpectrum(
                    f"bands declared complete up to {complete_up_to} but contributions "
                    f"extend to {Fraction(cut_num, cut_den)}")

    entries = sorted(merged.values(), key=functools.cmp_to_key(_row_order))
    reports = []
    for kind, kind_roots in zip(kinds, roots):
        degree = len(kind_roots)
        root_scale = math.prod(rd for _, rd in kind_roots)
        index = 0
        nullity = 0
        contributing = []
        for entry in entries:
            num, den, divergence_free, mult, band = entry
            value = 1
            for rn, rd in kind_roots:
                value *= num * rd - rn * den
            if value > 0:
                continue
            if value < 0:
                index += mult
            else:
                nullity += mult
            # the row's one band, which later reports share
            if band is None:
                band = entry[4] = _row_band(num, den, divergence_free, mult)
            elif mult != band.multiplicity:
                band = entry[4] = SpectralBand(band.eigenvalue, mult, band.kind)
            contributing.append((band, Fraction(value, den ** degree * root_scale)))
        reports.append(IndexReport(functional=kind, index=index, nullity=nullity,
                                   contributing_bands=tuple(contributing)))
    return reports


@dataclass(frozen=True)
class SpectrumValidation:
    """The messages of validate_spectrum in band order, and the first violation's."""

    warnings: tuple[str, ...]
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None

    def raise_first_violation(self) -> None:
        """Strict mode: raise BoundViolation for the first violation, if any."""
        if self.first_violation is not None:
            raise BoundViolation(self.first_violation)


def validate_spectrum(space: EinsteinSpace,
                      bands: Iterable[SpectralBand]) -> SpectrumValidation:
    """Check bands against the Lichnerowicz-Obata and divergence-free bounds.

    Gradient bands must satisfy mu >= m*lambda/(m-1) (equality only on the
    round sphere, reported as a rigidity note); divergence-free bands must
    satisfy mu >= 2*lambda.  Both bounds are vacuous for lambda = 0, where
    the Obata note is skipped too; band-likes are still checked.  Strict
    callers raise the first violation with
    SpectrumValidation.raise_first_violation().
    """
    return _validate_rows(space, _band_rows(bands))


def _validate_rows(space: EinsteinSpace, rows) -> SpectrumValidation:
    """validate_spectrum on _band_rows rows, by cross-multiplication.

    A Fraction is built only for a flagged row, to format its message.
    """
    lam = space.einstein_constant
    m = space.dimension
    obata = Fraction(m, m - 1) * lam if lam else None  # lam = 0 when m = 1
    two_lam = 2 * lam
    # each bound as an integer pair, so a row is compared by cross-multiplication,
    # and its text in each message, so a message formats one Fraction
    if obata is not None:
        obata_num, obata_den = obata.numerator, obata.denominator
        below_obata = f"gradient band mu={{}} below Lichnerowicz-Obata bound {obata}"
    two_lam_num, two_lam_den = two_lam.numerator, two_lam.denominator
    below_two_lam = f"divergence-free band mu={{}} below 2*lambda={two_lam}"
    at_obata = "gradient band mu={} saturates the Obata bound: round sphere only"
    messages = []
    first_violation = None
    for num, den, divergence_free, _, _ in rows:
        if divergence_free:
            if num * two_lam_den >= two_lam_num * den:
                continue
            template = below_two_lam
        elif obata is None:
            continue
        else:
            vs_obata = num * obata_den - obata_num * den
            if vs_obata > 0:
                continue
            template = below_obata if vs_obata < 0 else at_obata
        message = template.format(Fraction(num, den))
        messages.append(message)
        if first_violation is None and template is not at_obata:
            first_violation = message
    return SpectrumValidation(warnings=tuple(messages), first_violation=first_violation)
