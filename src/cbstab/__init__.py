"""Stability of identity maps of compact Einstein manifolds.

Exact rational index/nullity computations for the energy, bienergy and
conformal-bienergy functionals from spectral data, closed-form sphere
spectra, and numerical evaluation of the functionals along the conformal
family of sphere self-maps.

Importing the package loads no submodule: each exported name, and each
submodule that defines one, is imported on first access (PEP 562), so a
CLI run loads only what its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    "core": ("BandKind", "EinsteinSpace", "Functional", "IndexReport", "SpectralBand",
             "SpectrumValidation", "index_reports", "jacobi_eigenvalue", "validate_spectrum"),
    "errors": ("BoundViolation", "CbstabError", "DomainError", "IncompleteSpectrum",
               "InvalidBand", "ParseError", "QuadratureFailure", "SpectrumCompletenessWarning"),
    "family": ("FamilyEvaluation", "c_constant", "epsilon_schedule", "evaluate_family",
               "sphere_volume", "upper_bound"),
    "spectra": ("LoadedSpectrum", "builtin_spectrum", "load_spectrum", "spectrum_document"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
