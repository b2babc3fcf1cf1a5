"""Seeded inputs and per-op output checks for the benchmark workloads.

Every workload is an endless sequence of rounds; a round is a list of ops
and each op is one `cbstab` command line plus a check of what it printed.
The same seed always gives the same rounds.  The checks compare against
references computed here, independently of cbstab.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

SUITES = ("tables", "constancy", "hessian", "epsilon", "bounds", "symmetry")
FUNCTIONALS = ("energy", "bienergy", "c_bienergy")
DIMENSIONS = tuple(range(2, 13))
LOG10_T_RANGE = (-8.0, 8.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Known defects of the family evaluator.  An op that fails makes two runs of
# the same code disagree, so the timed draw (DRAWN_LOG10_T) leaves these
# regions of (m, t) out, and every energy-sweep run probes the points in
# DEFECT_PROBES, untimed, and lists what they give; a fix of a defect shows
# there.
#  - QuadratureFailure (exit 3) for m in 2..4 at small t.  On a grid of
#    log10 t with step 0.05 it fails at most points with t <= 1e-5, and on a
#    grid with step 0.01 at none with t > 10**-4.5.
#  - For m = 4 at large t the energy integral, about 1e-6, stops on the
#    absolute tolerance while still wrong by about 1e-10, so the
#    decomposition identity misses the reported error bars.  On grids of
#    log10 t this happens in narrow bands at 4.2057, 4.4995, 4.827 and 5.211,
#    and nowhere on [3, 4] (step 1e-4) or [-4, 3] (step 5e-4); for every
#    other m nowhere on [-8, 8] (step 7e-3 or finer).
DRAWN_LOG10_T = {2: (-4.0, 8.0), 3: (-4.0, 8.0), 4: (-4.0, 4.0)}  # else LOG10_T_RANGE
DEFECT_PROBES = ((2, 1e-6), (3, 1e-5), (4, 1e-6), (4, 67146.58302973828))

# The decomposition check uses the same rounding floor as `cbstab verify`.
DECOMPOSITION_FLOOR = 1e-12


@dataclass(frozen=True)
class Verdict:
    passed: bool
    problem: str | None = None
    known_defect: bool = False


PASS = Verdict(True)


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str, str], Verdict]
    bands: int = 0


@dataclass
class Workload:
    name: str
    rounds: Iterator[list[Op]]
    warmup: Op
    trace_rounds: int
    probes: tuple[Op, ...] = ()  # run untimed after the ops; see DEFECT_PROBES


def _fail(problem: str) -> Verdict:
    return Verdict(False, problem)


def _parse_json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdout is not JSON: {exc}") from exc


# ---------------------------------------------------------------- verify


def _verify_check(suite: str):
    def check(rc: int, stdout: str, stderr: str) -> Verdict:
        if rc != 0:
            return _fail(f"verify --suites {suite} exited {rc}: {stderr.strip()[:200]}")
        try:
            doc = _parse_json(stdout)
        except ValueError as exc:
            return _fail(str(exc))
        if doc.get("ok") is not True or doc.get("failed") != 0:
            return _fail(f"suite {suite}: ok={doc.get('ok')} failed={doc.get('failed')}")
        checks = doc.get("checks", [])
        if not checks or len(checks) != doc.get("total"):
            return _fail(f"suite {suite}: {len(checks)} checks, total={doc.get('total')}")
        if any(c.get("suite") != suite or c.get("passed") is not True for c in checks):
            return _fail(f"suite {suite}: a check is from another suite or did not pass")
        return PASS
    return check


def _verify_op(suite: str) -> Op:
    return Op(["verify", "--suites", suite, "--format", "json"], _verify_check(suite))


def verify_workload(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"verify:{seed}")

    def rounds():
        while True:
            order = list(SUITES)
            rng.shuffle(order)
            yield [_verify_op(s) for s in order]

    return Workload("verify", rounds(), _verify_op("hessian"),
                    trace_rounds=1 if tiny else 30)


# ---------------------------------------------------------------- energy-sweep


def _energy_check(m: int, t: float, probe: bool = False):
    """Checks an energy op; for a defect probe (probe=True) the known
    defects, exit 3 and a missed decomposition, are listed, not failed."""
    coef = 2.0 * (m - 1) * (m - 3) / 3.0

    def check(rc: int, stdout: str, stderr: str) -> Verdict:
        if rc == 3 and probe:
            return Verdict(False, f"m={m} t={t!r}: {stderr.strip()}", known_defect=True)
        if rc != 0:
            return _fail(f"m={m} t={t!r} exited {rc}: {stderr.strip()[:200]}")
        try:
            doc = _parse_json(stdout)
        except ValueError as exc:
            return _fail(str(exc))
        rows = doc.get("rows", [])
        if doc.get("dimension") != m or len(rows) != 1 or rows[0].get("t") != t:
            return _fail(f"m={m} t={t!r}: document does not echo the input")
        row = rows[0]
        values = [row.get(k) for k in ("energy", "energy_error", "bienergy", "bienergy_error",
                                       "c_bienergy", "c_bienergy_error")]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return _fail(f"m={m} t={t!r}: non-finite or missing value in {row}")
        e, e_err, e2, e2_err, e2c, e2c_err = values
        # E > 0; E2 and, for m >= 3, E2c integrate non-negative densities
        if not (e > 0.0 and e2 >= 0.0 and (m < 3 or e2c >= 0.0)):
            return _fail(f"m={m} t={t!r}: sign violated: E={e} E2={e2} E2c={e2c}")
        if min(e_err, e2_err, e2c_err) < 0.0:
            return _fail(f"m={m} t={t!r}: negative error estimate")
        gap = abs(e2c - (e2 + coef * e))
        allowed = e2c_err + e2_err + abs(coef) * e_err + DECOMPOSITION_FLOOR * max(1.0, abs(e2c))
        if gap > allowed:
            # the error estimates do not cover the true error: a wrong output
            return Verdict(False, f"m={m} t={t!r}: E2c - E2 - {coef:.6g}*E = {gap:.3e} "
                                  f"exceeds the reported error bars {allowed:.3e}",
                           known_defect=probe)
        return PASS
    return check


def _energy_op(m: int, t: float, probe: bool = False) -> Op:
    return Op(["energy", "--dim", str(m), "--t", repr(t), "--format", "json"],
              _energy_check(m, t, probe))


def energy_workload(seed: int, tiny: bool) -> Workload:
    """Each round visits every m once; log10 t for one m is a randomly shifted
    golden-ratio sequence, so it is uniform on DRAWN_LOG10_T of m, never
    repeats, and any prefix of the run covers the range evenly."""
    rng = random.Random(f"energy-sweep:{seed}")
    shifts = {m: rng.random() for m in DIMENSIONS}

    def rounds():
        k = 0
        while True:
            ops = []
            for m in DIMENSIONS:
                lo, hi = DRAWN_LOG10_T.get(m, LOG10_T_RANGE)
                u = (shifts[m] + k * GOLDEN) % 1.0
                ops.append(_energy_op(m, 10.0 ** (lo + (hi - lo) * u)))
            yield ops
            k += 1

    probes = tuple(_energy_op(m, t, probe=True) for m, t in DEFECT_PROBES)
    return Workload("energy-sweep", rounds(), _energy_op(5, 0.5),
                    trace_rounds=2 if tiny else 64, probes=probes[:1] if tiny else probes)


# ---------------------------------------------------------------- spectrum-index


def _jacobi_signs(two_lam: Fraction, c_root: Fraction, mu: Fraction) -> tuple[int, int, int]:
    """Signs of mu - 2 lam, (mu - 2 lam)^2 and (mu - 2 lam)(mu - c_root)."""
    j = (mu > two_lam) - (mu < two_lam)
    return j, j * j, j * ((mu > c_root) - (mu < c_root))


def _rational_text(value: Fraction, rng: random.Random) -> str:
    """Unreduced 'p/q' text for value, sometimes a plain integer string."""
    k = rng.randint(1, 3)
    if value.denominator == 1 and k == 1 and rng.random() < 0.5:
        return str(value.numerator)
    return f"{value.numerator * k}/{value.denominator * k}"


def _below(bound: Fraction, rng: random.Random) -> Fraction:
    q = rng.randint(1, 12)
    return Fraction(rng.randrange(0, math.ceil(bound * q)), q)


def _at_or_above(bound: Fraction, span: Fraction, rng: random.Random) -> Fraction:
    q = rng.randint(1, 12)
    start = math.ceil(bound * q)
    return Fraction(rng.randint(start, start + math.ceil(span * q)), q)


@dataclass
class SpectrumFile:
    path: str
    bands: int
    expected: list[tuple[int, int]]
    warnings: int


def _write_spectrum(path: str, m: int, rows_wanted: int, dirty: float, dup: float,
                    declared: bool, rng: random.Random) -> SpectrumFile:
    # lam in [8, 12]: the eigenvalue grids below scale with lam, and so does
    # the share of rows that coincide by chance and are merged; a narrow
    # range keeps the work per file about the same for every seed
    q = rng.randint(1, 9)
    lam = Fraction(rng.randint(8 * q, 12 * q), q)
    obata = Fraction(m, m - 1) * lam
    two_lam = 2 * lam
    c_root = Fraction(2, 3) * (6 - m) * lam
    rows: list[tuple[Fraction, str]] = []
    bands = []
    for _ in range(rows_wanted):
        if rows and rng.random() < dup:
            mu, kind = rows[rng.randrange(len(rows))]
        else:
            kind = "gradient" if rng.random() < 0.5 else "divergence_free"
            bound = obata if kind == "gradient" else two_lam
            roll = rng.random()
            if roll < dirty:
                mu = _below(bound, rng)
            elif roll < dirty + 0.02:
                # exact hits on the Jacobi roots and the Obata bound
                mu = rng.choice([r for r in (two_lam, c_root, obata) if r >= bound])
            else:
                mu = _at_or_above(bound, 30 * lam, rng)
        rows.append((mu, kind))
        bands.append({"eigenvalue": _rational_text(mu, rng),
                      "multiplicity": rng.randint(1, 50), "kind": kind})

    index = [0, 0, 0]
    nullity = [0, 0, 0]
    warnings = 0
    for (mu, kind), band in zip(rows, bands):
        for i, s in enumerate(_jacobi_signs(two_lam, c_root, mu)):
            if s < 0:
                index[i] += band["multiplicity"]
            elif s == 0:
                nullity[i] += band["multiplicity"]
        if kind == "gradient":
            warnings += mu <= obata
        else:
            warnings += mu < two_lam
    doc = {"name": os.path.basename(path), "dimension": m, "einstein_constant": str(lam)}
    if declared:
        doc["complete_up_to"] = _rational_text(max(two_lam, c_root) + _below(4 * lam, rng), rng)
    else:
        warnings += len(FUNCTIONALS)  # one completeness warning per functional
    doc["bands"] = bands
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return SpectrumFile(path, rows_wanted, list(zip(index, nullity)), warnings)


def _index_check(spec: SpectrumFile):
    def check(rc: int, stdout: str, stderr: str) -> Verdict:
        name = os.path.basename(spec.path)
        if rc != 0:
            return _fail(f"index {name} exited {rc}: {stderr.strip()[:200]}")
        try:
            doc = _parse_json(stdout)
        except ValueError as exc:
            return _fail(str(exc))
        reports = doc.get("reports", [])
        got = [(r.get("functional"), r.get("index"), r.get("nullity")) for r in reports]
        want = [(f, i, n) for f, (i, n) in zip(FUNCTIONALS, spec.expected)]
        if got != want:
            return _fail(f"index {name}: got {got}, reference sign count {want}")
        if len(doc.get("warnings", [])) != spec.warnings:
            return _fail(f"index {name}: {len(doc.get('warnings', []))} warnings, "
                         f"expected {spec.warnings}")
        return PASS
    return check


def _index_op(spec: SpectrumFile) -> Op:
    return Op(["index", "--spectrum-file", spec.path, "--functional", "all"],
              _index_check(spec), bands=spec.bands)


def spectrum_workload(seed: int, tiny: bool, workdir: str) -> Workload:
    """A pool of spectrum files, visited in a fresh seeded order every round.

    The pool's shape is the same for every seed, so pools from different
    seeds do comparable work: sizes are the centres of a log-uniform
    stratification of [1e3, 2e4] bands, and each run of three neighbouring
    sizes holds one clean, one lightly and one heavily dirty file, and one
    low, one middle and one high duplicate share, in a fixed Latin-square
    pattern; dimensions cycle through 2..12 in a fixed order, and every
    fourth file declares no completeness.  The seed draws each file's
    Einstein constant and bands.  The pool size is odd, so
    the median op is one file rather than the gap between two."""
    rng = random.Random(f"spectrum-index:{seed}")
    pool_size, low, high = (3, 50, 200) if tiny else (27, 1000, 20000)
    dirt_levels = (0.0, 0.06, 0.3)
    dup_levels = (0.075, 0.225, 0.375)
    pool = []
    for i in range(pool_size):
        block, j = divmod(i, 3)
        size = round(low * (high / low) ** ((i + 0.5) / pool_size))
        dirty = dirt_levels[(block + j) % 3]
        dup = dup_levels[(block + 2 * j) % 3]
        declared = i % 4 != 3
        path = os.path.join(workdir, f"spectrum-{i:02d}.json")
        m = DIMENSIONS[5 * i % len(DIMENSIONS)]
        pool.append(_write_spectrum(path, m, size, dirty, dup, declared, rng))

    def rounds():
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield [_index_op(spec) for spec in order]

    return Workload("spectrum-index", rounds(), _index_op(pool[0]),
                    trace_rounds=1 if tiny else 2)


def make(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    if name == "verify":
        return verify_workload(seed, tiny)
    if name == "energy-sweep":
        return energy_workload(seed, tiny)
    if name == "spectrum-index":
        return spectrum_workload(seed, tiny, workdir)
    raise KeyError(name)
