"""Write tests/data/family_reference.json: E, E2 and E2c of the family at high precision.

    python3 tools/make_family_reference.py [--out PATH]

Needs mpmath (developed against 1.3.0); without it the script says so and
exits 0, because cbstab itself stays stdlib-only.  Every value is computed
at 60 decimal digits two independent ways, and the script refuses to write
when they disagree beyond 1e-25 relative:

* the x-form, x = log tan(r/2) and s = log t, integrated over the real line
  with unit-spaced breakpoints across the window that holds both bumps;
* the r-form, integrated over (0, pi) with the half-angle closed forms for
  sin(alpha)/sin(r) and cos(alpha) - cos(r), split at the layer
  r = 2*atan(1/t) and at distances from it that double towards both ends.

The x-form value is stored to 30 significant digits.  The points are
m = 2..12 on the grid log10 t = -8, -7, ..., 8, plus the energy-sweep
benchmark's defect probes and (6, 6.948e7).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "tests", "data", "family_reference.json")
DPS = 60
AGREEMENT = 1e-25
DIMENSIONS = range(2, 13)
LOG10_T = range(-8, 9)
EXTRA_POINTS = ((2, 1e-6), (3, 1e-5), (4, 1e-6), (4, 67146.58302973828), (6, 6.948e7))
TAIL = 12  # breakpoints reach this far beyond the bumps; mp.quad maps the rest


def sphere_volume(mp, n):
    return 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)


def x_form(mp, m, t):
    """(E, E2, E2c) from the integrands in x = log tan(r/2)."""
    s = mp.log(mp.mpf(t))
    half_omega = sphere_volume(mp, m - 1) / 2
    c1 = (m - 2) ** 2 * mp.sinh(s) ** 2
    c2 = mp.mpf(2 * m * (m - 1) * (m - 3)) / 3
    lo = int(mp.floor(min(0, -s))) - TAIL
    hi = int(mp.ceil(max(0, -s))) + TAIL
    points = [mp.ninf] + list(range(lo, hi + 1)) + [mp.inf]

    def integral(f):
        return mp.quad(f, points)

    def base(x):
        return mp.sech(x) ** (m - 2) * mp.sech(x + s) ** 2

    energy = half_omega * m * integral(base)
    if c1 == 0:
        bienergy = mp.zero
    else:
        bienergy = half_omega * c1 * integral(lambda x: base(x) * mp.sech(x + s) ** 2)
    c_bienergy = half_omega * integral(
        lambda x: base(x) * (c1 * mp.sech(x + s) ** 2 + c2))
    return energy, bienergy, c_bienergy


def r_form(mp, m, t):
    """(E, E2, E2c) from the densities in the polar distance r."""
    t = mp.mpf(t)
    half_omega = sphere_volume(mp, m - 1) / 2
    c1 = (m - 2) ** 2
    c2 = mp.mpf(2 * m * (m - 1) * (m - 3)) / 3
    layer = 2 * mp.atan(1 / t)
    points = [layer]
    step = min(layer, mp.pi - layer)
    d = step
    while layer - d > 0:
        points.insert(0, layer - d)
        d *= 2
    d = step
    while layer + d < mp.pi:
        points.append(layer + d)
        d *= 2
    points = [mp.zero] + points + [mp.pi]

    def parts(r):
        u = mp.tan(r / 2)
        tu2 = (t * u) ** 2
        ratio = t * (1 + u * u) / (1 + tu2)  # sin(alpha) / sin(r)
        cos_diff = 2 * u * u * (1 - t * t) / ((1 + tu2) * (1 + u * u))
        sin_r = mp.sin(r)
        return ratio, cos_diff, sin_r

    def energy_density(r):
        ratio, _, sin_r = parts(r)
        return m * ratio ** 2 * sin_r ** (m - 1)

    def bienergy_density(r):
        ratio, cos_diff, sin_r = parts(r)
        return c1 * ratio ** 2 * cos_diff ** 2 * sin_r ** (m - 3)

    def c_bienergy_density(r):
        ratio, cos_diff, sin_r = parts(r)
        sin_alpha_sq = (ratio * sin_r) ** 2
        return sin_alpha_sq * (c1 * sin_r ** (m - 5) * cos_diff ** 2 + c2 * sin_r ** (m - 3))

    energy = half_omega * mp.quad(energy_density, points)
    if c1 == 0 or t == 1:
        bienergy = mp.zero
    else:
        bienergy = half_omega * mp.quad(bienergy_density, points)
    c_bienergy = half_omega * mp.quad(c_bienergy_density, points)
    return energy, bienergy, c_bienergy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    try:
        import mpmath
    except ImportError:
        print("make_family_reference: mpmath is not installed; nothing written")
        return 0
    mp = mpmath.mp
    mp.dps = DPS

    points = [(m, 10.0 ** k) for m in DIMENSIONS for k in LOG10_T]
    points += [p for p in EXTRA_POINTS if p not in points]
    rows = []
    worst = 0.0
    start = time.perf_counter()
    for m, t in points:
        row = {"m": m, "t": t}
        for name, a, b in zip(("energy", "bienergy", "c_bienergy"),
                              x_form(mp, m, t), r_form(mp, m, t)):
            scale = max(abs(a), abs(b))
            gap = abs(a - b) / scale if scale else mp.zero
            if gap > AGREEMENT:
                print(f"make_family_reference: m={m} t={t!r} {name}: x-form {a} and "
                      f"r-form {b} differ by {mpmath.nstr(gap, 3)} relative; nothing written",
                      file=sys.stderr)
                return 1
            worst = max(worst, float(gap))
            row[name] = mpmath.nstr(a, 30)
        rows.append(row)
        print(f"m={m:2d} t={t:<10.4g} ok ({time.perf_counter() - start:.0f} s)", flush=True)

    doc = {
        "generator": "tools/make_family_reference.py",
        "mpmath": mpmath.__version__,
        "dps": DPS,
        "agreement": AGREEMENT,
        "worst_relative_gap": worst,
        "points": rows,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(rows)} points to {args.out}; worst x/r gap {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
