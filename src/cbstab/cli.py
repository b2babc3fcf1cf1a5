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
    # command word -> its parser, for _parse
    parser.commands = sub.choices

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


def _parse(argv) -> argparse.Namespace:
    """The shared parser's namespace for `argv`, or its DomainError or SystemExit.

    A command word first goes straight to that command's parser.  The top
    level adds nothing on that path: its one option is -h, and its
    subparsers action takes every argument after the command word and
    parses them with that same parser.  So the namespace, each error
    message and each help text are the same, less the unread `command`.
    Any other first argument, or none, goes to the top level.
    """
    parser = _shared_parser()
    args = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(args[0]) if args else None
    if command is None:
        return parser.parse_args(args)
    return command.parse_args(args[1:])


def _object(keys, indent: int) -> str:
    """The %s template of an object with these keys, laid out as
    json.dumps(indent=2) lays it out when the object opens at `indent`."""
    pad = " " * indent
    return "{\n" + ",\n".join(f'{pad}  "{key}": %s' for key in keys) + f"\n{pad}}}"


def _array(items, indent: int) -> str:
    """Written items laid out as json.dumps(indent=2) lays out an array opening at `indent`."""
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


# The keys are fixed ASCII names, so the templates are built without json,
# which the writers import only when they run.
_INDEX = _object(("space", "source", "strict", "complete_up_to", "warnings", "reports"), 0)
_SPACE = _object(("name", "dimension", "einstein_constant", "scalar_curvature"), 2)
_FILE_SOURCE = _object(("origin", "path"), 2)
_SPHERE_SOURCE = _object(("origin", "dimension", "einstein_constant"), 2)
_REPORT = _object(("functional", "index", "nullity", "contributing_bands"), 4)
# a file can list thousands of bands, which an f-string fills several times
# faster than %, so the band template, string fields quoted, is split at them
_BAND_PARTS = (_object(("eigenvalue", "multiplicity", "kind", "jacobi_eigenvalue"), 8)
               % ('"%s"', "%s", '"%s"', '"%s"')).split("%s")
# the JSON keys, the CSV header and the FamilyEvaluation fields after t
_ENERGY_COLUMNS = ("t", "energy", "energy_error", "bienergy", "bienergy_error",
                   "c_bienergy", "c_bienergy_error")
_ENERGY = _object(("dimension", "rows"), 0)
_ENERGY_ROW = _object(_ENERGY_COLUMNS, 4)
_VERIFY = _object(("checks", "total", "failed", "ok"), 0)
# one check in CheckResult's field order
_CHECK = _object(("suite", "name", "expected", "got", "tolerance", "passed"), 4)


def _cmd_index(args) -> int:
    from .core import COMPLETENESS_WARNING, Functional, _sign_counts
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
    lam = space.einstein_constant
    counts = _sign_counts(space.dimension, lam.numerator, lam.denominator, loaded.rows, kinds,
                          None if declared is None else (declared.numerator, declared.denominator))
    doc_warnings = list(loaded.validation.warnings)
    if declared is None:
        # what index_reports warns, once per functional
        doc_warnings += [COMPLETENESS_WARNING] * len(kinds)
    print(_index_json(space, loaded.path, args.strict, declared, doc_warnings, kinds, counts))
    return 0


def _index_json(space, path, strict, declared, warnings, kinds, counts) -> str:
    """json.dumps(doc, indent=2) for the `index` document of `space`, read
    from the spectrum file at `path`, or a closed-form sphere if `path` is None.

    The reports are written from the kinds' core._sign_counts: each listed
    row's eigenvalue and Jacobi eigenvalue is written from its integer pair,
    so no Fraction, band, report or dict is built, and the pure-Python
    encoder that `indent` selects is not run.  A Fraction is written as
    "{value}", since str() of one holds only digits, a sign and a slash.
    """
    from json.encoder import encode_basestring_ascii as _json_string

    from .core import _jacobi_denominator, _ratio_text, _unwritable
    from .spectra import _KIND_VALUES

    lam = space.einstein_constant
    source = (_SPHERE_SOURCE % ('"closed_form_sphere"', space.dimension, f'"{lam}"')
              if path is None else _FILE_SOURCE % ('"file"', _json_string(path)))
    start, after_eigenvalue, after_multiplicity, after_kind, end = _BAND_PARTS
    try:
        reports = [
            _REPORT % (_json_string(kind.value), index, nullity, _array([
                f"{start}{_ratio_text(num, den)}{after_eigenvalue}{mult}{after_multiplicity}"
                f"{_KIND_VALUES[divergence_free]}{after_kind}"
                f"{_ratio_text(value, _jacobi_denominator(den, roots))}{end}"
                for (num, den, divergence_free, mult), value in zip(listed, values)], 6))
            for kind, (roots, index, nullity, listed, values) in zip(kinds, counts)]
        scalar_curvature = str(space.scalar_curvature)
    except ValueError:
        # str() of a multiplicity, an index, a nullity or m * lambda past the
        # limit; _ratio_text raises the same refusal itself
        raise _unwritable() from None
    return _INDEX % (
        _SPACE % (_json_string(space.name), space.dimension, f'"{lam}"',
                  f'"{scalar_curvature}"'),
        source, "true" if strict else "false", "null" if declared is None else f'"{declared}"',
        _array(list(map(_json_string, warnings)), 2), _array(reports, 2))


def _energy_json(dimension: int, rows) -> str:
    """json.dumps({"dimension": ..., "rows": [...]}, indent=2) for `energy`.

    Each row is a list of floats in _ENERGY_COLUMNS order, and there is at
    least one.  json writes a finite float as its repr, which is its str(),
    and every value is finite: _check_t bounds t, and evaluate_family raises
    QuadratureFailure rather than return a value or error that is not finite.
    Writing the rows directly skips the pure-Python encoder that `indent` selects.
    """
    return _ENERGY % (dimension, _array([_ENERGY_ROW % tuple(row) for row in rows], 2))


def _cmd_energy(args) -> int:
    from .family import evaluate_family

    # compute everything first so failures suppress all output
    rows = []
    for t in args.t:
        ev = evaluate_family(args.dim, t)
        rows.append([t] + [getattr(ev, name) for name in _ENERGY_COLUMNS[1:]])
    if args.format == "json":
        print(_energy_json(args.dim, rows))
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


def _verify_json(results, failed: int) -> str:
    """json.dumps({"checks": [...], "total": ..., "failed": ..., "ok": ...}, indent=2)
    for `verify`, each check being vars() of a CheckResult.

    Each string goes through json's own ASCII string encoder, as json.dumps
    writes it; writing the rest directly skips the pure-Python encoder that
    `indent` selects.
    """
    from json.encoder import encode_basestring_ascii as _json_string

    checks = [_CHECK % (_json_string(r.suite), _json_string(r.name), _json_string(r.expected),
                        _json_string(r.got), _json_string(r.tolerance),
                        "true" if r.passed else "false")
              for r in results]
    return _VERIFY % (_array(checks, 2), len(results), failed, "false" if failed else "true")


def _cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites(args.suites)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(_verify_json(results, len(failed)))
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
        args = _parse(argv)
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
