#!/usr/bin/env python3
"""Median and quartile spread of benchmark reports, per workload and metric.

    python3 bench/summarize.py [REPORT_DIR] [--json OUT]     # default: .bench_out

Reads every `<workload>-seed<n>-trace<t>.json` report in REPORT_DIR and prints,
for each metric, the median, the quartiles (as `statistics.quantiles(values,
n=4)` gives them) and the spread (Q3 - Q1) / median.  An end-to-end spread
that reaches a third of the metric's bound in BENCHMARK.json is marked `!`
(setup_s is exempt).  `--json` also writes the summary, with the metadata of
the first report, to OUT.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("folder", nargs="?", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(args.folder.glob("*-seed*-trace*.json")):
        report = json.loads(path.read_text())
        groups.setdefault((report["workload"], report["trace"]), []).append(report)
    summary = {}
    for (workload, trace), reports in sorted(groups.items()):
        failed = sum(r["failed"] for r in reports)
        attempted = sum(r["attempted"] for r in reports)
        seeds = sorted(r["seed"] for r in reports)
        print(f"{workload} trace {trace}: {len(reports)} runs, seeds {seeds}, failed {failed} of {attempted}")
        rows = {}
        for name, (_, unit) in reports[0]["metrics"].items():
            values = [r["metrics"][name][0] for r in reports]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = "!" if trace == 0 and name != "setup_s" and spread >= bounds[name] / 3 else " "
            print(f"  {name:38s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        summary[f"{workload}.trace{trace}"] = {
            "runs": len(reports), "seeds": seeds, "seconds": reports[0]["seconds"],
            "attempted": attempted, "failed": failed, "metrics": rows,
        }
    if args.json and groups:
        first = next(iter(groups.values()))[0]
        args.json.write_text(json.dumps({"metadata": first["metadata"], "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
