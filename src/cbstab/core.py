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
import re
import sys
import warnings
from dataclasses import dataclass
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
    spectrum-file field but a band eigenvalue in the plain ASCII "p" or
    "p/q" spelling, which spectra._parse_rows reads as an integer pair.  A
    string is accepted exactly when Fraction(str) accepts it and str() can
    write the value: a numerator or denominator past Python's integer
    conversion limit (4300 digits by default, as in "1e5000") raises
    DomainError, as anything else does, a float or a bool included.
    """
    cls = type(value)
    if cls is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise DomainError(f"not a rational: {value!r} "
                          f"(a {cls.__name__}; rationals are exact)")
    # 0, no limit, where the function is absent (before Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # no repr: an int past the limit cannot be written
    past_limit = f"out of range: numerator or denominator past {limit} digits"
    if limit and cls is str:
        past = _exponent_past(value, limit)
        if past is None:
            return Fraction(0)  # zero at any exponent: no power of 10 to build
        if past:
            raise DomainError(past_limit)
    try:
        rational = Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"not a rational: {value!r} ({exc})") from exc
    largest = max(abs(rational.numerator), rational.denominator)
    # 2**(3 * limit) < 10**limit, so only a longer integer is compared with 10**limit
    if limit and largest.bit_length() > 3 * limit and largest >= 10 ** limit:
        raise DomainError(past_limit)
    return rational


# a decimal with an exponent in ASCII digits, a spelling Fraction(str) reads
# on every Python: the digits before and after the point, and the exponent
_EXPONENT_FORM = r"\s*[-+]?(?=[0-9]|\.[0-9])([0-9]*)(?:\.([0-9]*))?[eE]([-+]?[0-9]+)\s*\Z"


def _exponent_past(text: str, limit: int) -> bool | None:
    """Whether Fraction(text) surely has a numerator or denominator of 10**limit or more.

    Decided from the lengths of text's digit strings, so that an exponent
    such as "1e10000000" is refused before Fraction builds 10**10000000.
    None for a zero mantissa, whose value is 0 at any exponent.  False
    where the lengths do not decide it, for any other spelling and for a
    part too long for int(), so Fraction reads or refuses such text as
    before.  The pattern is compiled on the first text with an exponent.
    """
    match = ("e" in text or "E" in text) and re.match(_EXPONENT_FORM, text)
    if not match:
        return False
    whole, decimals, exponent = match.groups("")
    digits = whole + decimals
    if max(len(whole), len(decimals), len(exponent.lstrip("+-"))) > limit:
        return False
    if not digits.strip("0"):
        return None
    # the value is M * 10**shift with 1 <= M < 10**len(digits)
    shift = int(exponent) - len(decimals)
    return shift >= limit or -shift - len(digits) >= limit


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
        # one Fraction: from Python 3.12, int * Fraction builds two
        lam = self.einstein_constant
        return Fraction(self.dimension * lam.numerator, lam.denominator)


@dataclass(frozen=True, slots=True)
class SpectralBand:
    """One Hodge-Laplacian eigenvalue on vector fields, with multiplicity and kind."""

    eigenvalue: Fraction
    multiplicity: int
    kind: BandKind

    def __post_init__(self):
        # every band built passes this check, so it must be cheap; the rows
        # of a built-in sphere meet it by construction (spectra._rows), and
        # spectra._parse_rows builds a band only to word a file band's refusal
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
    contributing_bands: tuple[tuple[SpectralBand, Fraction], ...]


def jacobi_eigenvalue(kind: Functional, space: EinsteinSpace, mu: Rational) -> Fraction:
    """Eigenvalue of the Jacobi operator of `kind` on a band with eigenvalue mu."""
    mu = as_rational(mu)
    if mu < 0:
        raise DomainError(f"Hodge eigenvalue must be >= 0, got {mu}")
    lam = space.einstein_constant
    # one Fraction of the integer pair, not one per root
    return Fraction(*_jacobi_pair(kind, space.dimension, lam.numerator, lam.denominator,
                                  mu.numerator, mu.denominator))


def _jacobi_pair(kind: Functional, dimension: int, lam_num: int, lam_den: int,
                 num: int, den: int) -> tuple[int, int]:
    """kind's Jacobi eigenvalue on mu = num/den, den > 0, as an integer pair.

    The pair (value, denominator) has denominator > 0 and is not reduced;
    lambda = lam_num/lam_den need not be either.  The roots are read
    through this module's _roots.
    """
    roots = _roots(kind, dimension, lam_num, lam_den)
    value = 1
    for rn, rd in roots:
        value *= num * rd - rn * den
    return value, _jacobi_denominator(den, roots)


def _jacobi_denominator(den: int, roots) -> int:
    """den**len(roots) * prod(rd): the denominator of `value` on mu = num/den."""
    result = 1
    for _, rd in roots:
        result *= den * rd
    return result


def _roots(kind: Functional, dimension: int, lam_num: int,
           lam_den: int) -> tuple[tuple[int, int], ...]:
    """The roots of kind's Jacobi eigenvalue as a monic polynomial in mu.

    The one definition of the roots, for lambda = lam_num/lam_den with
    lam_den > 0, not necessarily reduced.  Each root is a reduced
    (numerator, denominator) pair with denominator > 0.
    """
    two_lam = _reduced(2 * lam_num, lam_den)
    if kind is Functional.ENERGY:
        return (two_lam,)
    if kind is Functional.BIENERGY:
        return (two_lam, two_lam)
    # c = (2/3)(6 - m)*lambda
    return (two_lam, _reduced(2 * (6 - dimension) * lam_num, 3 * lam_den))


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    common = math.gcd(num, den)
    return num // common, den // common


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction.

    The one writer of exact pairs: where str() cannot write the reduced
    numerator or denominator, it raises _unwritable()'s DomainError.
    """
    common = math.gcd(num, den)
    if common != 1:
        num //= common
        den //= common
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise _unwritable() from None


def _unwritable() -> DomainError:
    """The refusal of an output integer past Python's conversion limit, where str() raises."""
    return DomainError(f"out of range: a number in the output past "
                       f"{sys.get_int_max_str_digits()} digits")


def _largest(pairs) -> tuple[int, int]:
    """The largest of reduced (numerator, denominator) pairs, by cross-multiplication."""
    best_num, best_den = pairs[0]
    for num, den in pairs[1:]:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _cutoffs(dimension: int, lam_num: int, lam_den: int, kinds: Iterable[Functional]) -> tuple:
    """(roots, cutoffs, top): each kind's _roots and contribution cutoff, and the largest cutoff.

    The one place that picks a spectrum's top cutoff, read by _sign_counts
    and by spectra.builtin_spectrum for its default bound.  Every cutoff is
    a reduced integer pair; top is None for no kinds.  The roots are read
    through this module's _roots.
    """
    roots = [_roots(kind, dimension, lam_num, lam_den) for kind in kinds]
    cutoffs = [_largest(kind_roots) for kind_roots in roots]
    return roots, cutoffs, _largest(cutoffs) if cutoffs else None


def _band_rows(bands: Iterable[SpectralBand]) -> list[tuple]:
    """The engine's rows (num, den, divergence_free, multiplicity) of the bands.

    A band that is not a SpectralBand is converted, and so checked, first.
    A band's eigenvalue is a Fraction, so num/den is in lowest terms; the
    rows of spectra._rows and spectra._parse_rows need not be.
    """
    rows = []
    for band in bands:
        if type(band) is not SpectralBand:
            band = SpectralBand(band.eigenvalue, band.multiplicity, band.kind)
        mu = band.eigenvalue
        rows.append((mu.numerator, mu.denominator, band.kind is BandKind.DIVERGENCE_FREE,
                     band.multiplicity))
    return rows


def _row_band(num: int, den: int, divergence_free: bool, multiplicity: int) -> SpectralBand:
    kind = BandKind.DIVERGENCE_FREE if divergence_free else BandKind.GRADIENT
    return SpectralBand(Fraction(num, den), multiplicity, kind)


def _row_order(a, b) -> int:
    """By eigenvalue, gradient first at ties, for reduced rows with den > 0."""
    return (a[0] * b[1] - b[0] * a[1]) or (a[2] - b[2])


# the text of SpectrumCompletenessWarning, which `cbstab index` also lists
COMPLETENESS_WARNING = "band list has no declared completeness bound; index/nullity may undercount"


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
    once, and a report lists each merged row as a new band with the summed
    multiplicity.  A band that is not a SpectralBand is converted, and so
    checked, first.

    `complete_up_to` declares that `bands` lists every eigenvalue up to that
    bound.  If the declared bound does not reach a functional's contribution
    cutoff the counts could miss negative or zero bands, so
    IncompleteSpectrum is raised.  Without a declaration one
    SpectrumCompletenessWarning per functional is emitted and the
    computation proceeds on the bands given.
    """
    kinds = list(kinds)
    rows = _band_rows(bands)
    declared = None
    if complete_up_to is not None:
        bound = as_rational(complete_up_to)
        declared = bound.numerator, bound.denominator
    lam = space.einstein_constant
    counts = _sign_counts(space.dimension, lam.numerator, lam.denominator, rows, kinds, declared)
    if complete_up_to is None:
        for _ in kinds:
            warnings.warn(COMPLETENESS_WARNING, SpectrumCompletenessWarning, stacklevel=2)
    reports = []
    for kind, (roots, index, nullity, listed, values) in zip(kinds, counts):
        contributing = tuple((_row_band(*row), Fraction(value, _jacobi_denominator(row[1], roots)))
                             for row, value in zip(listed, values))
        reports.append(IndexReport(functional=kind, index=index, nullity=nullity,
                                   contributing_bands=contributing))
    return reports


def _sign_counts(dimension: int, lam_num: int, lam_den: int, rows,
                 kinds: Iterable[Functional], declared: tuple[int, int] | None) -> list[tuple]:
    """The engine's sign counts, with no band, report, Fraction or warning made.

    The one counting function: `cbstab index`, index_reports and verify's
    `tables` suite read it.  It takes the space as its dimension and
    lambda = lam_num/lam_den, and the declared completeness bound as an
    integer pair (num, den), or None for none; every denominator is > 0
    and none need be reduced.  A declared bound short of a cutoff raises
    IncompleteSpectrum, whose message writes the bound in lowest terms.

    Returns one (roots, index, nullity, listed, values) per kind, in order:
    the kind's _roots, its index and nullity, the merged rows whose Jacobi
    eigenvalue is <= 0, in eigenvalue order, and for each of them the
    integer numerator `value` of that eigenvalue over
    _jacobi_denominator(den, roots).  A listed row is [num, den,
    divergence-free?, summed multiplicity] in lowest terms with den > 0, the
    same list for every kind that lists it; callers only read it.  The
    values are a list of their own, so the counts allocate no tuple the
    garbage collector tracks.
    """
    roots, cutoffs, top = _cutoffs(dimension, lam_num, lam_den, kinds)
    # with no kinds every row is past the top
    top_num, top_den = (-1, 1) if top is None else top
    # (numerator, denominator, divergence-free?) -> merged row; the reduced integer
    # pair identifies the eigenvalue and hashes much faster than a Fraction,
    # and a bool, unlike an Enum member, hashes without a Python-level call
    merged: dict[tuple[int, int, bool], list] = {}
    for num, den, divergence_free, mult in rows:
        if num * top_den > top_num * den:
            continue
        common = math.gcd(num, den)
        if common != 1:
            num //= common
            den //= common
        key = (num, den, divergence_free)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [num, den, divergence_free, mult]
        else:
            entry[3] += mult
    if declared is not None:
        declared_num, declared_den = declared
        for cut_num, cut_den in cutoffs:
            if declared_num * cut_den < cut_num * declared_den:
                raise IncompleteSpectrum(
                    f"bands declared complete up to {_ratio_text(declared_num, declared_den)} "
                    f"but contributions extend to {_ratio_text(cut_num, cut_den)}")

    entries = sorted(merged.values(), key=functools.cmp_to_key(_row_order))
    counts = []
    for kind_roots in roots:
        index = 0
        nullity = 0
        listed = []
        values = []
        for entry in entries:
            num, den, _, mult = entry
            value = 1
            for rn, rd in kind_roots:
                value *= num * rd - rn * den
            if value > 0:
                continue
            if value < 0:
                index += mult
            else:
                nullity += mult
            listed.append(entry)
            values.append(value)
        counts.append((kind_roots, index, nullity, listed, values))
    return counts


@dataclass(frozen=True)
class SpectrumValidation:
    """The messages of validate_spectrum in band order, and the first violation's."""

    warnings: tuple[str, ...]
    first_violation: str | None

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


def _obata_pair(dimension: int, lam_num: int, lam_den: int) -> tuple[int, int]:
    """The Lichnerowicz-Obata bound m*lambda/(m-1) as an unreduced integer pair.

    The one definition of the bound, for dimension >= 2 and lambda =
    lam_num/lam_den with lam_den > 0: _validate_rows checks gradient bands
    against it, and verify's `tables` suite checks that each unit sphere's
    first gradient band lies on it.
    """
    return dimension * lam_num, (dimension - 1) * lam_den


def _validate_rows(space: EinsteinSpace, rows) -> SpectrumValidation:
    """validate_spectrum on the engine's rows, by cross-multiplication.

    Every row's eigenvalue is >= 0, so for lambda = 0 nothing is flagged.
    One cross-multiplication per row picks the rows below or at a bound, in
    band order, and only a picked row's message is formatted, and a bound
    only once a message names it; every number in it is written from its
    integer pair, so no Fraction is built.
    """
    lam = space.einstein_constant
    if not lam:
        return SpectrumValidation(warnings=(), first_violation=None)
    m = space.dimension
    # 2*lambda is the energy's Jacobi root; both bounds stay unreduced pairs
    two_lam_num, two_lam_den = _roots(Functional.ENERGY, m, lam.numerator, lam.denominator)[0]
    obata_num, obata_den = _obata_pair(m, lam.numerator, lam.denominator)
    picked = [(num, den, divergence_free) for num, den, divergence_free, _ in rows
              if (num * two_lam_den < two_lam_num * den if divergence_free
                  else num * obata_den <= obata_num * den)]
    messages = []
    first_violation = None
    two_lam = obata = ""  # each written once, for the first message that names it
    for num, den, divergence_free in picked:
        mu = _ratio_text(num, den)
        if divergence_free:
            two_lam = two_lam or _ratio_text(two_lam_num, two_lam_den)
            messages.append(f"divergence-free band mu={mu} below 2*lambda={two_lam}")
        elif num * obata_den == obata_num * den:
            # a rigidity note, not a violation
            messages.append(f"gradient band mu={mu} saturates the Obata bound: round sphere only")
            continue
        else:
            obata = obata or _ratio_text(obata_num, obata_den)
            messages.append(f"gradient band mu={mu} below Lichnerowicz-Obata bound {obata}")
        if first_violation is None:
            first_violation = messages[-1]
    return SpectrumValidation(warnings=tuple(messages), first_violation=first_violation)
