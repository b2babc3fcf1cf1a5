"""Exception types shared by all cbstab modules."""


class CbstabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CbstabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureFailure(CbstabError, RuntimeError):
    """The trapezoid ladder halved its step max_doublings times without meeting its tolerance."""


class NonFiniteSample(CbstabError, ArithmeticError):
    """An integrand returned NaN or infinity at a quadrature node."""


class InvalidBand(CbstabError, ValueError):
    """A spectral band's multiplicity is < 1, its eigenvalue < 0 or its kind not a BandKind."""


class IncompleteSpectrum(CbstabError, ValueError):
    """A band list declared complete does not cover [0, cutoff]."""


class BoundViolation(CbstabError, ValueError):
    """Strict validation found a band below the Lichnerowicz-Obata or Killing bound."""


class ParseError(CbstabError, ValueError):
    """A spectrum file is malformed."""


class MissingField(ParseError):
    """A required field is absent from a spectrum file."""


class SpectrumCompletenessWarning(UserWarning):
    """Band list used without a declared completeness bound; counts may be low."""
