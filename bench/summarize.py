"""Fold per-run result files into one BENCH file of medians and quartiles.

    python3 bench/summarize.py --out bench/baseline/BENCH_0.json bench/out/results/*.json

For every (workload, trace) pair and metric it records the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) as a share of the median, and the runs and seeds used.
The machine facts of the runs are kept once; the command refuses runs made
on different machines, pinned thread counts or commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(paths) -> dict:
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    if not runs:
        raise SystemExit("error: no result files given")
    machines = {json.dumps(r["machine"], sort_keys=True) for r in runs}
    if len(machines) != 1:
        raise SystemExit(f"error: results come from {len(machines)} different machine records")
    groups: dict[str, dict] = {}
    for r in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        key = f"{r['workload']} trace {r['trace']}"
        g = groups.setdefault(key, {"workload": r["workload"], "trace": r["trace"],
                                    "seconds": r["seconds"], "seeds": [],
                                    "attempted": 0, "failed": 0, "values": {}})
        g["seeds"].append(r["seed"])
        g["attempted"] += r["attempted"]
        g["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            g["values"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for key, g in groups.items():
        metrics = {}
        for name, (unit, values) in g.pop("values").items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            metrics[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread_share": (q3 - q1) / abs(med) if med else None,
                             "n": len(values)}
        g["metrics"] = metrics
        out[key] = g
    return {"machine": runs[0]["machine"], "groups": out,
            "layer_moves": next((r["layer_moves"] for r in runs if r["layer_moves"]), None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for key, g in summary["groups"].items():
        print(f"{key}: seeds {g['seeds']}, failed {g['failed']} of {g['attempted']}")
        for name, m in g["metrics"].items():
            spread = "-" if m["spread_share"] is None else f"{m['spread_share']:.4f}"
            print(f"  {name:<40} median {m['median']:<14.6g} spread {spread} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
