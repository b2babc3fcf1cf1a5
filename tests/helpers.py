"""What several test modules share: counting calls and rebinding names."""

import sys
from fractions import Fraction

import cbstab.core
from cbstab.core import EinsteinSpace, Functional, SpectralBand


def count_code_calls(codes, call):
    """Calls to each named set of code objects while call() runs, counted
    by the profiler hook (not by timing), and call()'s result."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call":
            for label, code_set in codes.items():
                if frame.f_code in code_set:
                    counts[label] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return counts, result


def count_constructions(call):
    """Fractions, SpectralBands and EinsteinSpaces built while call() runs,
    and call()'s result."""
    fraction_code = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic since 3.12
        fraction_code.add(Fraction._from_coprime_ints.__func__.__code__)
    # each __post_init__ runs once per object built
    return count_code_calls({"Fraction": fraction_code,
                             "SpectralBand": {SpectralBand.__post_init__.__code__},
                             "EinsteinSpace": {EinsteinSpace.__post_init__.__code__}}, call)


def rebind_everywhere(monkeypatch, module, name, new):
    """Bind `new` wherever a cbstab module binds module.name, as a change to its source would."""
    old = getattr(module, name)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name == "cbstab" or loaded_name.startswith("cbstab."):
            for attr, value in list(vars(loaded).items()):
                if value is old:
                    monkeypatch.setattr(loaded, attr, new)


def patch_energy_root_plus_one(monkeypatch):
    """Put 2*lambda + 1 in place of the energy's root 2*lambda in core's one root definition."""
    roots = cbstab.core._roots

    def wrong(kind, dimension, lam_num, lam_den):
        if kind is not Functional.ENERGY:
            return roots(kind, dimension, lam_num, lam_den)
        return (cbstab.core._reduced(2 * lam_num + lam_den, lam_den),)

    monkeypatch.setattr(cbstab.core, "_roots", wrong)
