"""Exception types shared by all cbstab modules."""


class CbstabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CbstabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureFailure(CbstabError, RuntimeError):
    """evaluate_family's ladder hit a non-finite level sum or ran out of max_doublings halvings.

    The message says which, and lists the largest change between levels after each halving.
    """


class InvalidBand(CbstabError, ValueError):
    """A spectral band's multiplicity is < 1, its eigenvalue < 0 or its kind not a BandKind."""


class IncompleteSpectrum(CbstabError, ValueError):
    """A band list declared complete does not cover [0, cutoff]."""


class BoundViolation(CbstabError, ValueError):
    """Strict validation found a band below the Lichnerowicz-Obata or Killing bound."""


class ParseError(CbstabError, ValueError):
    """A spectrum file is malformed."""


class SpectrumCompletenessWarning(UserWarning):
    """Band list used without a declared completeness bound; counts may be low."""
