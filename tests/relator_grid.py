"""Check the relator search's candidates against `tests/data/relator_grid.json`.

For each of the 114 specs a/b with 2 <= b <= 13, 1 <= a < 2b and
gcd(a, b) = 1, and for each bound 40 and 300, this runs `find_relator`'s
collision search (the labelled fallback kept out) and compares, call by
call, the kind of ball it searched ("kernel" for `_fast.Ball`, "python"
for `_SyllableBall`), whether the ball is complete, the number of
candidates and the SHA-256 of their spellings, one per line in order.
The ball kinds in the file are those of a run with the kernel; when the
kernel does not load, every call must search a Python ball, and the rest
must still match.  It prints each difference and exits 1 if there is any.
`--write` rewrites the file from the runs instead, for a change that is
meant to move the candidates.

Usage: python tests/relator_grid.py [--write]
"""

import hashlib
import json
import sys
from math import gcd
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "relator_grid.json"
BOUNDS = (40, 300)
FIELDS = ("ball", "complete", "candidates", "sha256")

sys.path.insert(0, str(ROOT / "src"))

from moebius_arith import _fast, coset_enum  # noqa: E402
from moebius_arith.certifier import (MoebiusSpec,  # noqa: E402
                                     express_generators)
from moebius_arith.presentation import build_presentation  # noqa: E402


def specs():
    return [(a, b) for b in range(2, 14) for a in range(1, 2 * b)
            if gcd(a, b) == 1]


def search(a: int, b: int, bound: int) -> dict:
    """The record of `find_relator`'s collision search on a/b at `bound`;
    a table past `_AUGMENTED_MAX_INDEX` keeps the labelled fallback out."""
    inner = coset_enum._collision_relator_search
    seen = []

    def recording(ball, m, bound):
        seen.append((ball, inner(ball, m, bound)))
        return seen[-1][1]
    pres = build_presentation(b)
    wa, wb = express_generators(MoebiusSpec(a, b), pres)
    table = SimpleNamespace(n=coset_enum._AUGMENTED_MAX_INDEX + 1)
    coset_enum._collision_relator_search = recording
    try:
        coset_enum.find_relator(pres, wa, wb, table, bound=bound)
    finally:
        coset_enum._collision_relator_search = inner
    (ball, found), = seen
    text = "\n".join(map(str, found))
    return {"a": a, "b": b, "bound": bound,
            "ball": "kernel" if isinstance(ball, _fast.Ball) else "python",
            "complete": ball.complete, "candidates": len(found),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 64
    grid = [search(a, b, bound) for a, b in specs() for bound in BOUNDS]
    if argv == ["--write"]:
        DATA.write_text("[\n" + ",\n".join(json.dumps(e) for e in grid)
                        + "\n]\n")
        return 0
    kernel = _fast.kernel() is not None
    key = lambda e: (e["b"], e["a"], e["bound"])  # noqa: E731
    want = {key(e): e for e in json.loads(DATA.read_text())}
    if not kernel:
        want = {k: {**e, "ball": "python"} for k, e in want.items()}
    got = {key(e): e for e in grid}
    bad = 0
    for call in sorted(want.keys() | got.keys()):
        w, g = want.get(call), got.get(call)
        diff = ([k for k in FIELDS if w[k] != g[k]] if w and g
                else ["missing from the runs" if w else "missing from file"])
        if diff:
            bad += 1
            print(f"{call[1]}/{call[0]} at bound {call[2]}: "
                  f"{', '.join(diff)}: file {w}, run {g}")
    found = sum(e["candidates"] > 0 for e in grid)
    print(f"{found} of {len(grid)} calls found candidates "
          f"({'kernel' if kernel else 'no kernel'}); "
          f"{bad} difference(s) from {DATA.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
