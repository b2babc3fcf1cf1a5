"""Stability of identity maps of compact Einstein manifolds.

Exact rational index/nullity computations for the energy, bienergy and
conformal-bienergy functionals from spectral data, closed-form sphere
spectra, and numerical evaluation of the functionals along the conformal
family of sphere self-maps.
"""

from .core import (
    BandKind,
    EinsteinSpace,
    Functional,
    IndexReport,
    SpectralBand,
    SpectrumValidation,
    ValidationIssue,
    contribution_cutoff,
    index_nullity,
    index_reports,
    jacobi_eigenvalue,
    validate_spectrum,
)
from .errors import (
    BoundViolation,
    CbstabError,
    DomainError,
    IncompleteSpectrum,
    InvalidBand,
    MissingField,
    NonFiniteSample,
    ParseError,
    QuadratureFailure,
    SpectrumCompletenessWarning,
    StepTooSmall,
)
from .family import (
    EpsilonCertificate,
    FamilyEvaluation,
    c_constant,
    epsilon_schedule,
    evaluate_family,
    upper_bound,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    sin_power_integral,
    sphere_volume,
)
from .spectra import (
    ClosedFormSphere,
    FileOrigin,
    LoadedSpectrum,
    SpectrumSource,
    builtin_spectrum,
    circle_bands,
    divergence_free_bands,
    gradient_bands,
    load_spectrum,
    spectrum_document,
    sphere_bands,
    unit_sphere,
)
from .variation import (
    SecondVariationReport,
    SignVerdict,
    fd_second_derivative,
    spectral_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "BandKind",
    "BoundViolation",
    "CbstabError",
    "ClosedFormSphere",
    "DEFAULT_CONFIG",
    "DomainError",
    "EinsteinSpace",
    "EpsilonCertificate",
    "FamilyEvaluation",
    "FileOrigin",
    "Functional",
    "IncompleteSpectrum",
    "IndexReport",
    "InvalidBand",
    "LoadedSpectrum",
    "MissingField",
    "NonFiniteSample",
    "ParseError",
    "QuadratureConfig",
    "QuadratureFailure",
    "SecondVariationReport",
    "SignVerdict",
    "SpectralBand",
    "SpectrumCompletenessWarning",
    "SpectrumSource",
    "SpectrumValidation",
    "StepTooSmall",
    "ValidationIssue",
    "builtin_spectrum",
    "c_constant",
    "circle_bands",
    "contribution_cutoff",
    "divergence_free_bands",
    "epsilon_schedule",
    "evaluate_family",
    "fd_second_derivative",
    "gradient_bands",
    "index_nullity",
    "index_reports",
    "jacobi_eigenvalue",
    "load_spectrum",
    "sin_power_integral",
    "spectral_prediction",
    "spectrum_document",
    "sphere_bands",
    "sphere_volume",
    "unit_sphere",
    "upper_bound",
    "validate_spectrum",
]
