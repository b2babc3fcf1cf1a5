"""Command-line frontend: index/nullity tables, energy curves, spectrum dumps
and the verification suites.  Documents go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 failed verification checks, 2 strict-validation
failure, 3 numerical failure, 64 usage error, 66 file error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction

from .core import Functional, index_reports
from .errors import (
    BoundViolation,
    CbstabError,
    DomainError,
    IncompleteSpectrum,
    InvalidBand,
    NonFiniteSample,
    ParseError,
    QuadratureFailure,
)
from .family import T_MAX, T_MIN, evaluate_family
from .spectra import LoadedSpectrum, builtin_spectrum, load_spectrum, spectrum_document
from .verify import SUITES, run_suites

_FUNCTIONALS = {
    "e": Functional.ENERGY,
    "e2": Functional.BIENERGY,
    "e2c": Functional.CONFORMAL_BIENERGY,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _t_values(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one t value")
    for t in values:
        if not (T_MIN <= t <= T_MAX):
            raise argparse.ArgumentTypeError(
                f"t={t:g} outside the supported range [{T_MIN:g}, {T_MAX:g}]")
    return values


def _suite_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in SUITES:
            raise argparse.ArgumentTypeError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return names


def _f17(value: float) -> float:
    # quantize through 17 significant digits so documents are reproducible
    return float(format(value, ".17g"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbstab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index/nullity of the identity map")
    p_index.add_argument("--dim", type=int, help="sphere dimension (built-in spectrum)")
    p_index.add_argument("--lambda", dest="einstein_constant", type=_rational,
                         help="Einstein constant as 'p/q' (default: unit sphere m-1)")
    p_index.add_argument("--spectrum-file", help="JSON spectrum file instead of a built-in sphere")
    p_index.add_argument("--functional", choices=["e", "e2", "e2c", "all"], default="all")
    p_index.add_argument("--strict", action="store_true",
                         help="exit 2 on a bound violation or a spectrum file without "
                              "complete_up_to, and 66 on unknown file fields; rigidity "
                              "notes stay warnings")
    p_index.set_defaults(func=_cmd_index)

    p_energy = sub.add_parser("energy", help="evaluate E, E2, E2c along the family")
    p_energy.add_argument("--dim", type=int, required=True)
    p_energy.add_argument("--t", type=_t_values, required=True,
                          help="comma-separated parameter values, e.g. 0.5,1,2")
    p_energy.add_argument("--format", choices=["csv", "json"], default="csv")
    p_energy.set_defaults(func=_cmd_energy)

    p_spectrum = sub.add_parser("spectrum", help="dump closed-form bands as a spectrum file")
    p_spectrum.add_argument("--dim", type=int, required=True)
    p_spectrum.add_argument("--lambda", dest="einstein_constant", type=_rational,
                            help="Einstein constant as 'p/q' (default: unit sphere m-1)")
    p_spectrum.add_argument("--up-to", type=_rational,
                            help="largest eigenvalue to emit (default: contribution cutoff)")
    p_spectrum.add_argument("--format", choices=["json"], default="json")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suites", type=_suite_list, default=list(SUITES),
                          help=f"comma-separated subset of: {', '.join(SUITES)}")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import, and reused after that
    return build_parser()


def _selected_functionals(selector: str) -> list[Functional]:
    if selector == "all":
        return [Functional.ENERGY, Functional.BIENERGY, Functional.CONFORMAL_BIENERGY]
    return [_FUNCTIONALS[selector]]


def _report_doc(report) -> dict:
    return {
        "functional": report.functional.value,
        "index": report.index,
        "nullity": report.nullity,
        "contributing_bands": [
            {
                "eigenvalue": str(band.eigenvalue),
                "multiplicity": band.multiplicity,
                "kind": band.kind.value,
                "jacobi_eigenvalue": str(jacobi),
            }
            for band, jacobi in report.contributing_bands
        ],
    }


def _source_doc(loaded: LoadedSpectrum) -> dict:
    if loaded.path is None:
        return {
            "origin": "closed_form_sphere",
            "dimension": loaded.space.dimension,
            "einstein_constant": str(loaded.space.einstein_constant),
        }
    return {"origin": "file", "path": loaded.path}


def _cmd_index(args) -> int:
    kinds = _selected_functionals(args.functional)
    if args.spectrum_file is not None:
        if args.dim is not None or args.einstein_constant is not None:
            raise _UsageError("--spectrum-file excludes --dim/--lambda")
        loaded = load_spectrum(args.spectrum_file, strict=args.strict)
    elif args.dim is None:
        raise _UsageError("need either --dim (built-in sphere) or --spectrum-file")
    else:
        loaded = builtin_spectrum(args.dim, args.einstein_constant, kinds)
    space, declared = loaded.space, loaded.complete_up_to
    if args.strict:
        if declared is None:
            raise IncompleteSpectrum(
                "strict mode requires the spectrum file to declare complete_up_to")
        loaded.validation.raise_first_violation()
    doc_warnings = list(loaded.warnings)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = index_reports(space, loaded.bands, kinds, complete_up_to=declared)
    doc_warnings.extend(str(w.message) for w in caught)

    doc = {
        "space": {
            "name": space.name,
            "dimension": space.dimension,
            "einstein_constant": str(space.einstein_constant),
            "scalar_curvature": str(space.scalar_curvature),
        },
        "source": _source_doc(loaded),
        "strict": bool(args.strict),
        "complete_up_to": None if declared is None else str(declared),
        "warnings": doc_warnings,
        "reports": [_report_doc(r) for r in reports],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_energy(args) -> int:
    if args.dim < 2:
        raise _UsageError(f"--dim must be >= 2 for the family, got {args.dim}")
    # compute everything first so failures suppress all output
    rows = [(t, evaluate_family(args.dim, t)) for t in args.t]
    if args.format == "json":
        doc = {
            "dimension": args.dim,
            "rows": [
                {
                    "t": _f17(t),
                    "energy": _f17(ev.energy),
                    "energy_error": _f17(ev.energy_error),
                    "bienergy": _f17(ev.bienergy),
                    "bienergy_error": _f17(ev.bienergy_error),
                    "c_bienergy": _f17(ev.c_bienergy),
                    "c_bienergy_error": _f17(ev.c_bienergy_error),
                }
                for t, ev in rows
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        lines = ["t,energy,energy_error,bienergy,bienergy_error,c_bienergy,c_bienergy_error"]
        for t, ev in rows:
            lines.append(",".join(format(v, ".17g") for v in (
                t, ev.energy, ev.energy_error, ev.bienergy, ev.bienergy_error,
                ev.c_bienergy, ev.c_bienergy_error)))
        print("\n".join(lines))
    return 0


def _cmd_spectrum(args) -> int:
    loaded = builtin_spectrum(args.dim, args.einstein_constant, up_to=args.up_to)
    print(json.dumps(spectrum_document(loaded), indent=2))
    return 0


def _cmd_verify(args) -> int:
    results = run_suites(args.suites)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        doc = {
            "checks": [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "expected": r.expected,
                    "got": r.got,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in results
            ],
            "total": len(results),
            "failed": len(failed),
            "ok": not failed,
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.suite}/{r.name}: expected {r.expected}, "
                  f"got {r.got} (tolerance: {r.tolerance})")
        print(f"{len(results)} checks: {len(results) - len(failed)} passed, "
              f"{len(failed)} failed")
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"cbstab: usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"cbstab: usage error: {exc}", file=sys.stderr)
        return 64
    except (ParseError, InvalidBand) as exc:
        print(f"cbstab: spectrum file error: {exc}", file=sys.stderr)
        return 66
    except OSError as exc:
        print(f"cbstab: file error: {exc}", file=sys.stderr)
        return 66
    except (BoundViolation, IncompleteSpectrum) as exc:
        print(f"cbstab: validation failure: {exc}", file=sys.stderr)
        return 2
    except (QuadratureFailure, NonFiniteSample) as exc:
        print(f"cbstab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"cbstab: usage error: {exc}", file=sys.stderr)
        return 64
    except CbstabError as exc:
        print(f"cbstab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
