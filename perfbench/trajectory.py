#!/usr/bin/env python3
"""Summarise benchmark result files into one trajectory point.

    python3 perfbench/trajectory.py --label seed --commit <sha> > perfbench/BENCH_seed.json

Reads every ``perfbench/out/<workload>-seed<n>-trace<t>.json`` and reports,
per workload, the median and quartiles over seeds of each metric the
untraced runs printed, the per-seed ``f1`` (a pure speed change must leave
it identical), and the median over seeds of each per-layer metric of the
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", default=None)
    args = parser.parse_args()

    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["env"]["workload"], record["env"]["trace"]), []).append(record)

    env = {}
    workloads: dict[str, dict] = {}
    for (name, trace), records in sorted(runs.items()):
        env = {k: v for k, v in records[0]["env"].items() if k not in ("workload", "seed", "trace")}
        entry = workloads.setdefault(name, {})
        seeds = sorted(r["env"]["seed"] for r in records)
        failed = sum(r["ledger"]["failed"] for r in records)
        attempted = sum(r["ledger"]["attempted"] for r in records)
        if trace:
            entry["traced"] = {"seeds": seeds, "error_rate": f"{failed}/{attempted}"}
            entry["per_layer_median"] = {k: statistics.median(r["layers"][k] for r in records) for k in records[0]["layers"]}
            continue
        entry["seeds"] = seeds
        entry["error_rate"] = f"{failed}/{attempted}"
        units = {k: m["unit"] for k, m in records[0]["report"].items()}
        entry["metrics"] = {
            k: {**spread([r["report"][k]["value"] for r in records]), "unit": unit} for k, unit in units.items()
        }
        if "f1" in units:
            entry["f1_by_seed"] = {str(r["env"]["seed"]): r["report"]["f1"]["value"] for r in records}
    print(json.dumps({"label": args.label, "commit": args.commit, "env": env, "workloads": workloads}, indent=1))


if __name__ == "__main__":
    main()
