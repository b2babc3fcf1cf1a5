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
    """Coerce int / "p/q" string / Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError(
            f"refusing float {value!r}: eigenvalues and Einstein constants are exact rationals")
    return Fraction(value)


class BandKind(Enum):
    GRADIENT = "gradient"
    DIVERGENCE_FREE = "divergence_free"


class Functional(Enum):
    ENERGY = "energy"
    BIENERGY = "bienergy"
    CONFORMAL_BIENERGY = "c_bienergy"


@dataclass(frozen=True)
class EinsteinSpace:
    """Compact Einstein manifold: dimension m and Einstein constant lambda >= 0."""

    dimension: int
    einstein_constant: Fraction
    name: str | None = None

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "einstein_constant", as_rational(self.einstein_constant))
        if self.einstein_constant < 0:
            raise DomainError(f"Einstein constant must be >= 0, got {self.einstein_constant}")

    @property
    def scalar_curvature(self) -> Fraction:
        return self.dimension * self.einstein_constant


@dataclass(frozen=True)
class SpectralBand:
    """One Hodge-Laplacian eigenvalue on vector fields, with multiplicity and kind."""

    eigenvalue: Fraction
    multiplicity: int
    kind: BandKind

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", as_rational(self.eigenvalue))
        _check_band(self)


def _prechecked_band(eigenvalue: Fraction, multiplicity: int, kind: BandKind) -> SpectralBand:
    """A SpectralBand built without __post_init__, for callers that have already
    checked its invariants: a Fraction eigenvalue >= 0 and an int multiplicity >= 1."""
    band = object.__new__(SpectralBand)
    object.__setattr__(band, "eigenvalue", eigenvalue)
    object.__setattr__(band, "multiplicity", multiplicity)
    object.__setattr__(band, "kind", kind)
    return band


def _check_band(band) -> None:
    if not isinstance(band.multiplicity, int) or band.multiplicity < 1:
        raise InvalidBand(f"multiplicity must be a positive integer, got {band.multiplicity!r}")
    if band.eigenvalue < 0:
        raise InvalidBand(f"eigenvalue must be >= 0, got {band.eigenvalue}")


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
    lam = space.einstein_constant
    j = mu - 2 * lam
    if kind is Functional.ENERGY:
        return j
    if kind is Functional.BIENERGY:
        return j * j
    return j * (mu - Fraction(2, 3) * (6 - space.dimension) * lam)


def contribution_cutoff(space: EinsteinSpace, kind: Functional) -> Fraction:
    """Least mu* with Jacobi eigenvalue > 0 for every mu > mu*."""
    two_lam = 2 * space.einstein_constant
    if kind is Functional.CONFORMAL_BIENERGY:
        other_root = Fraction(2, 3) * (6 - space.dimension) * space.einstein_constant
        return max(two_lam, other_root)
    return two_lam


_KIND_ORDER = {BandKind.GRADIENT: 0, BandKind.DIVERGENCE_FREE: 1}


def _compare(mu: Fraction, root: Fraction) -> int:
    """sign(mu - root), by integer cross-multiplication (denominators are positive)."""
    diff = mu.numerator * root.denominator - root.numerator * mu.denominator
    return (diff > 0) - (diff < 0)


def _merge_bands(bands: Iterable[SpectralBand]) -> dict[tuple[int, int, BandKind], list]:
    """Sum the multiplicities of repeated (eigenvalue, kind) rows.

    Maps (numerator, denominator, kind) to [eigenvalue, multiplicity]; the
    reduced integer pair identifies the Fraction and hashes much faster.
    A SpectralBand was checked when it was built; any other band-like
    object is checked here.
    """
    merged: dict[tuple[int, int, BandKind], list] = {}
    for band in bands:
        mu = band.eigenvalue
        if type(band) is not SpectralBand:
            _check_band(band)
            mu = as_rational(mu)
        key = (mu.numerator, mu.denominator, band.kind)
        row = merged.get(key)
        if row is None:
            merged[key] = [mu, band.multiplicity]
        else:
            row[1] += band.multiplicity
    return merged


def _jacobi_sign(kind: Functional, vs_two_lam: int, vs_c: int) -> int:
    """Sign of jacobi_eigenvalue from sign(mu - 2*lambda) and sign(mu - c)."""
    if kind is Functional.ENERGY:
        return vs_two_lam
    if kind is Functional.BIENERGY:
        return vs_two_lam * vs_two_lam
    return vs_two_lam * vs_c


def index_reports(space: EinsteinSpace, bands: Iterable[SpectralBand],
                  kinds: Iterable[Functional],
                  complete_up_to: Rational | None = None) -> list[IndexReport]:
    """Exact index and nullity of each functional in `kinds`, in that order.

    Every Jacobi eigenvalue changes sign only at mu = 2*lambda and at
    mu = c = (2/3)(6 - m)*lambda, so the bands are merged once, each merged
    band up to the largest contribution cutoff gets those two signs, and
    every functional's counts follow from them; jacobi_eigenvalue is
    evaluated only for the bands a report lists.

    `complete_up_to` declares that `bands` lists every eigenvalue up to that
    bound.  If the declared bound does not reach a functional's contribution
    cutoff the counts could miss negative or zero bands, so
    IncompleteSpectrum is raised.  Without a declaration one
    SpectrumCompletenessWarning per functional is emitted and the
    computation proceeds on the bands given.
    """
    kinds = list(kinds)
    merged = _merge_bands(bands)
    cutoffs = [contribution_cutoff(space, kind) for kind in kinds]
    if complete_up_to is None:
        for _ in kinds:
            warnings.warn(
                "band list has no declared completeness bound; index/nullity may undercount",
                SpectrumCompletenessWarning, stacklevel=2)
    else:
        declared = as_rational(complete_up_to)
        for cutoff in cutoffs:
            if declared < cutoff:
                raise IncompleteSpectrum(
                    f"bands declared complete up to {complete_up_to} but contributions "
                    f"extend to {cutoff}")
    if not kinds:
        return []

    # past the largest cutoff every selected Jacobi eigenvalue is positive
    top = max(cutoffs)
    top_num, top_den = top.numerator, top.denominator
    rows = [(mu, mult, kind) for (num, den, kind), (mu, mult) in merged.items()
            if num * top_den <= top_num * den]
    # by eigenvalue, gradient first at ties: two stable sorts compare each
    # Fraction once instead of an (eigenvalue, kind) tuple's == and <
    rows.sort(key=lambda row: _KIND_ORDER[row[2]])
    rows.sort(key=lambda row: row[0])
    two_lam = 2 * space.einstein_constant
    c_root = Fraction(2, 3) * (6 - space.dimension) * space.einstein_constant
    signed = [(_prechecked_band(mu, mult, kind), _compare(mu, two_lam), _compare(mu, c_root))
              for mu, mult, kind in rows]

    reports = []
    for kind in kinds:
        index = 0
        nullity = 0
        contributing = []
        for band, vs_two_lam, vs_c in signed:
            sign = _jacobi_sign(kind, vs_two_lam, vs_c)
            if sign > 0:
                continue
            if sign < 0:
                index += band.multiplicity
            else:
                nullity += band.multiplicity
            contributing.append((band, jacobi_eigenvalue(kind, space, band.eigenvalue)))
        reports.append(IndexReport(functional=kind, index=index, nullity=nullity,
                                   contributing_bands=tuple(contributing)))
    return reports


@dataclass(frozen=True)
class ValidationIssue:
    band: SpectralBand
    severity: str  # "violation" or "rigidity"
    message: str


@dataclass(frozen=True)
class SpectrumValidation:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not any(issue.severity == "violation" for issue in self.issues)

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(issue.message for issue in self.issues)

    def raise_first_violation(self) -> None:
        """Strict mode: raise BoundViolation for the first violation, if any."""
        for issue in self.issues:
            if issue.severity == "violation":
                raise BoundViolation(issue.message, band=issue.band)


def validate_spectrum(space: EinsteinSpace,
                      bands: Iterable[SpectralBand]) -> SpectrumValidation:
    """Check bands against the Lichnerowicz-Obata and divergence-free bounds.

    Gradient bands must satisfy mu >= m*lambda/(m-1) (equality only on the
    round sphere, reported as a rigidity note); divergence-free bands must
    satisfy mu >= 2*lambda.  Both checks are vacuous for lambda = 0 and are
    skipped.  Strict callers raise the first violation with
    SpectrumValidation.raise_first_violation().
    """
    lam = space.einstein_constant
    if lam == 0:
        return SpectrumValidation(issues=())
    m = space.dimension
    obata = Fraction(m, m - 1) * lam if m > 1 else None
    two_lam = 2 * lam
    issues = []
    for band in bands:
        mu = band.eigenvalue
        if type(band) is not SpectralBand:
            _check_band(band)
            mu = as_rational(mu)
        if band.kind is BandKind.GRADIENT and obata is not None:
            vs_obata = _compare(mu, obata)
            if vs_obata < 0:
                issues.append(ValidationIssue(
                    band, "violation",
                    f"gradient band mu={band.eigenvalue} below Lichnerowicz-Obata "
                    f"bound {obata}"))
            elif vs_obata == 0:
                issues.append(ValidationIssue(
                    band, "rigidity",
                    f"gradient band mu={band.eigenvalue} saturates the Obata bound: "
                    f"round sphere only"))
        elif band.kind is BandKind.DIVERGENCE_FREE:
            if _compare(mu, two_lam) < 0:
                issues.append(ValidationIssue(
                    band, "violation",
                    f"divergence-free band mu={band.eigenvalue} below 2*lambda={two_lam}"))
    return SpectrumValidation(issues=tuple(issues))
