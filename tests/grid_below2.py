"""Check the grid below a/b = 2 against `tests/data/grid_below2.json`.

For each b from 2 to 13 this runs

    python -m moebius_arith.cli sweep b --amax min(20, 2b - 1) --json

with `src` on PYTHONPATH, which certifies the 107 specs a/b < 2 with a <= 20
and gcd(a, b) = 1 at the default budget, and compares the status, reason,
index, `defined_cosets` and `peak_cosets` of every spec with the file.  It
prints each difference and exits 1 if there is any.  With the C kernel the
grid takes about four minutes.  `--write` rewrites the file from the runs
instead, for a change that is meant to move these counts.

Usage: python tests/grid_below2.py [--write]
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "grid_below2.json"
DENOMINATORS = tuple(range(2, 14))
FIELDS = ("status", "reason", "index", "defined_cosets", "peak_cosets")


def sweep(b: int) -> list[dict]:
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-m", "moebius_arith.cli", "sweep", str(b),
         "--amax", str(min(20, 2 * b - 1)), "--json"],
        env=env, capture_output=True, text=True, check=True)
    return [{"a": cert["spec"]["a"], "b": cert["spec"]["b"],
             "status": cert["status"], "reason": cert["reason"],
             "index": cert["index"],
             "defined_cosets": cert["resources"]["defined_cosets"],
             "peak_cosets": cert["resources"]["peak_cosets"]}
            for cert in json.loads(out.stdout)]


def main(argv) -> int:
    grid = [entry for b in DENOMINATORS for entry in sweep(b)]
    if argv == ["--write"]:
        DATA.write_text("[\n" + ",\n".join(json.dumps(e) for e in grid)
                        + "\n]\n")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 64
    want = {(e["a"], e["b"]): e for e in json.loads(DATA.read_text())}
    got = {(e["a"], e["b"]): e for e in grid}
    bad = 0
    for spec in sorted(want.keys() | got.keys(), key=lambda s: (s[1], s[0])):
        w, g = want.get(spec), got.get(spec)
        diff = ([k for k in FIELDS if w[k] != g[k]] if w and g
                else ["missing from the runs" if w else "missing from file"])
        if diff:
            bad += 1
            print(f"{spec[0]}/{spec[1]}: {', '.join(diff)}: "
                  f"file {w}, run {g}")
    arithmetic = sum(e["status"] == "Arithmetic" for e in grid)
    print(f"{arithmetic} of {len(grid)} Arithmetic; "
          f"{bad} difference(s) from {DATA.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
