"""Rebuild the per-spec baseline table from traced benchmark reports.

    python3 perfbench/table.py perfbench/results/hlt_certify.jsonl \
        perfbench/results/felsch_certify.jsonl

Each file holds run.py's standard output of a `--trace 1` run.  The table
takes each spec's first traced certify row: index, definitions, peak
cosets and the self time of `todd_coxeter` (enum s).
"""

from __future__ import annotations

import json
import sys


def first_traced_rows(paths) -> dict[str, dict[str, dict]]:
    """{strategy: {spec: row}} over the traced certify rows of the reports
    of the hlt_certify and felsch_certify workloads."""
    out: dict[str, dict[str, dict]] = {"hlt": {}, "felsch": {}}
    for path in paths:
        with open(path) as fh:
            for line in fh:
                report = json.loads(line).get("report")
                if not report or report["workload"] not in ("hlt_certify", "felsch_certify"):
                    continue
                for row in report["rows"]:
                    if row["op"] == "certify" and row.get("traced"):
                        out[row["strategy"]].setdefault(row["spec"], row)
    return out


def enum_s(row: dict) -> str:
    return f"{row['layers'].get('coset_enum.todd_coxeter', 0.0):.2f}"


def main(paths) -> int:
    rows = first_traced_rows(paths)
    specs = sorted(set(rows["hlt"]) | set(rows["felsch"]),
                   key=lambda s: tuple(int(x) for x in s.split("/")))
    print("| spec | index | HLT defined | HLT peak | enum s | Felsch defined | Felsch s |")
    print("|------|------:|------------:|---------:|-------:|---------------:|---------:|")
    for spec in specs:
        h, f = rows["hlt"].get(spec), rows["felsch"].get(spec)
        index = (h or f)["index"]
        cells = [spec, f"{index:,}"]
        cells += [f"{h['defined']:,}", f"{h['peak']:,}", enum_s(h)] if h else ["–"] * 3
        cells += [f"{f['defined']:,}", enum_s(f)] if f else ["–"] * 2
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
