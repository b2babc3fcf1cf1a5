"""Command-line frontend: index/nullity tables, energy curves, spectrum dumps
and the verification suites.  Documents go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 failed verification checks, 2 strict-validation
failure, 3 numerical failure, 64 usage error, 66 file error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    BoundViolation,
    CbstabError,
    DomainError,
    IncompleteSpectrum,
    InvalidBand,
    ParseError,
    QuadratureFailure,
)

# Each handler imports the modules it runs, so a subcommand loads no module
# it does not use and the parser needs none.  verify.SUITES holds the same
# names in the same order; a test checks that.
_SUITE_NAMES = ("tables", "constancy", "hessian", "epsilon", "bounds", "symmetry")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _rational(text: str):
    from .core import as_rational

    try:
        return as_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _t_values(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one t value")
    return values


def _suite_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("need at least one suite")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbstab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index/nullity of the identity map")
    p_index.add_argument("--dim", type=int, help="sphere dimension (built-in spectrum)")
    p_index.add_argument("--lambda", dest="einstein_constant", type=_rational,
                         help="Einstein constant as 'p/q' (default: unit sphere m-1)")
    p_index.add_argument("--spectrum-file", help="JSON spectrum file instead of a built-in sphere")
    p_index.add_argument("--functional", choices=("e", "e2", "e2c", "all"), default="all")
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
    p_verify.add_argument("--suites", type=_suite_list,
                          help=f"comma-separated subset of: {', '.join(_SUITE_NAMES)}")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import, and reused after that
    return build_parser()


def _source_doc(loaded) -> dict:
    if loaded.path is None:
        return {
            "origin": "closed_form_sphere",
            "dimension": loaded.space.dimension,
            "einstein_constant": str(loaded.space.einstein_constant),
        }
    return {"origin": "file", "path": loaded.path}


def _cmd_index(args) -> int:
    import warnings

    from .core import Functional, _index_rows
    from .spectra import builtin_spectrum, load_spectrum

    kinds = {"e": (Functional.ENERGY,), "e2": (Functional.BIENERGY,),
             "e2c": (Functional.CONFORMAL_BIENERGY,), "all": tuple(Functional)}[args.functional]
    if args.spectrum_file is not None:
        if args.dim is not None or args.einstein_constant is not None:
            raise DomainError("--spectrum-file excludes --dim/--lambda")
        loaded = load_spectrum(args.spectrum_file, strict=args.strict)
    elif args.dim is None:
        raise DomainError("need either --dim (built-in sphere) or --spectrum-file")
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
        reports = _index_rows(space, loaded.rows, kinds, declared)
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
    }
    print(_index_json(doc, reports))
    return 0


def _index_json(head: dict, reports) -> str:
    """json.dumps(dict(head, reports=...), indent=2) for the `index` document.

    `head` nests at most one level of non-empty dicts, and its lists hold
    strings only;
    the reports are written from the IndexReports, so no report dict is
    built and the pure-Python encoder that `indent` selects is not run.
    """
    import json
    from json.encoder import encode_basestring_ascii as _json_string

    lines = ["{"]
    for key, value in head.items():
        if type(value) is dict:
            items = [f"    {_json_string(k)}: {json.dumps(v)}" for k, v in value.items()]
            lines.append(f"  {_json_string(key)}: {{\n" + ",\n".join(items) + "\n  },")
        elif type(value) is list and value:
            items = [f"    {_json_string(item)}" for item in value]
            lines.append(f"  {_json_string(key)}: [\n" + ",\n".join(items) + "\n  ],")
        else:
            lines.append(f"  {_json_string(key)}: {json.dumps(value)},")
    lines.append('  "reports": [' if reports else '  "reports": []')
    for number, report in enumerate(reports):
        lines.append("    {")
        lines.append(f'      "functional": {_json_string(report.functional.value)},')
        lines.append(f'      "index": {report.index},')
        lines.append(f'      "nullity": {report.nullity},')
        if not report.contributing_bands:
            lines.append('      "contributing_bands": []')
        else:
            lines.append('      "contributing_bands": [')
            entries = [
                f'        {{\n'
                f'          "eigenvalue": {_json_string(str(band.eigenvalue))},\n'
                f'          "multiplicity": {band.multiplicity},\n'
                f'          "kind": {_json_string(band.kind.value)},\n'
                f'          "jacobi_eigenvalue": {_json_string(str(jacobi))}\n'
                f'        }}'
                for band, jacobi in report.contributing_bands]
            lines.append(",\n".join(entries))
            lines.append("      ]")
        lines.append("    }," if number + 1 < len(reports) else "    }")
    if reports:
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines)


# the JSON keys, the CSV header and the FamilyEvaluation fields after t
_ENERGY_COLUMNS = ("t", "energy", "energy_error", "bienergy", "bienergy_error",
                   "c_bienergy", "c_bienergy_error")


def _cmd_energy(args) -> int:
    from .family import evaluate_family

    # compute everything first so failures suppress all output
    rows = []
    for t in args.t:
        ev = evaluate_family(args.dim, t)
        rows.append([t] + [getattr(ev, name) for name in _ENERGY_COLUMNS[1:]])
    if args.format == "json":
        import json

        doc = {"dimension": args.dim, "rows": [dict(zip(_ENERGY_COLUMNS, row)) for row in rows]}
        print(json.dumps(doc, indent=2))
    else:
        lines = [",".join(_ENERGY_COLUMNS)]
        lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
        print("\n".join(lines))
    return 0


def _cmd_spectrum(args) -> int:
    import json

    from .spectra import builtin_spectrum, spectrum_document

    loaded = builtin_spectrum(args.dim, args.einstein_constant, up_to=args.up_to)
    print(json.dumps(spectrum_document(loaded), indent=2))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites(args.suites)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        import json

        doc = {
            # CheckResult's field order is the document's key order
            "checks": [vars(r) for r in results],
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
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParseError, InvalidBand) as exc:
        print(f"cbstab: spectrum file error: {exc}", file=sys.stderr)
        return 66
    except OSError as exc:
        print(f"cbstab: file error: {exc}", file=sys.stderr)
        return 66
    except (BoundViolation, IncompleteSpectrum) as exc:
        print(f"cbstab: validation failure: {exc}", file=sys.stderr)
        return 2
    except QuadratureFailure as exc:
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
