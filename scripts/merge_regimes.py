#!/usr/bin/env python3
"""Time a strict merge and trace its memory on the input shapes where the merge behaves differently.

Usage: PYTHONPATH=src python scripts/merge_regimes.py [--regime NAME ...]

Each regime's input is built in a fresh subprocess, which then runs one strict ``merge_points``: one subprocess
times the merge (wall seconds, and how far the merge raised the process's peak RSS), another runs it under
``tracemalloc`` (peak MB of Python-visible allocations). Input generation is never measured. Regimes:

  index-1m          the index-1m benchmark input, seed 1 (``perfbench/gen.py``'s ``uniform_inputs``): 1 M uniform
                    surveys, 17 % of them on repeated coordinates
  colocated-40      20 k surveys sharing the exact coordinates of 40 sites 0.1 degrees apart, 500 per site
  colocated-10      the same 20 k surveys at 10 sites, 2 000 per site
  polar-antimeridian  2 k surveys 0.01-0.1 degrees from each pole and 2 k from +-180 degrees (latitudes within 1
                    degree of the equator), merged with a 5 km box, so most boxes cross +-180 degrees
  pipeline-po       the pipeline-clustered benchmark's PO file, seed 1 (120 k surveys in 1 km knots)
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from geoflora.ingest import Dataset, parse_occurrences
from geoflora.pseudolabel import MergeConfig, MergeMode, merge_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  the benchmark's generator, read as it is

REGIMES = ("index-1m", "colocated-40", "colocated-10", "polar-antimeridian", "pipeline-po")


def _colocated(sites: int, n: int = 20_000):
    rng = np.random.default_rng(sites)
    where = rng.permutation(np.arange(n) % sites)
    lats, lons = 45.0 + 0.1 * where, np.full(n, 5.0)
    return Dataset.from_csr(np.arange(1, n + 1), lats, lons, np.arange(n + 1), rng.integers(0, 50, n)), 0.32


def _polar_antimeridian(per_group: int = 2_000):
    rng = np.random.default_rng(0)
    off = rng.uniform(0.01, 0.1, 3 * per_group)
    side = rng.choice([-1.0, 1.0], 3 * per_group)
    lats = np.concatenate((side[: 2 * per_group] * (90.0 - off[: 2 * per_group]), rng.uniform(-1.0, 1.0, per_group)))
    lons = np.concatenate((rng.uniform(-180.0, 180.0, 2 * per_group), side[2 * per_group :] * (180.0 - off[2 * per_group :])))
    n = lats.size
    return Dataset.from_csr(np.arange(1, n + 1), lats, lons, np.arange(n + 1), rng.integers(0, 50, n)), 5.0


def _dataset(regime: str):
    """(dataset, box half-side in km) of one regime."""
    if regime == "index-1m":
        s = gen.uniform_inputs(1)
        return Dataset.from_csr(s.ids, s.lats, s.lons, s.indptr, s.species), 0.32
    if regime.startswith("colocated-"):
        return _colocated(int(regime.split("-")[1]))
    if regime == "polar-antimeridian":
        return _polar_antimeridian()
    with tempfile.TemporaryDirectory() as tmp:
        return parse_occurrences(str(gen.pipeline_inputs(1, Path(tmp)).po.path))[0], 0.32


def _child(regime: str, traced: bool) -> dict:
    dataset, half = _dataset(regime)
    cfg = MergeConfig(mode=MergeMode.STRICT, box_half_km=half)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    merged = merge_points(dataset, cfg)
    wall = time.perf_counter() - t0
    out = {"surveys": len(dataset), "records": len(merged)}
    if traced:
        out["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    else:
        out["merge_s"] = wall
        out["rss_rise_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024  # ru_maxrss is in KiB
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--regime", action="append", choices=REGIMES, help="regime to run (repeatable; default: all)")
    ap.add_argument("--child", nargs=2, metavar=("REGIME", "TRACED"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child[0], args.child[1] == "1")))
        return 0
    print(f"{'regime':<20}{'surveys':>9}{'records':>9}{'merge_s':>9}{'rss_rise_mb':>13}{'traced_peak_mb':>16}")
    for regime in args.regime or REGIMES:
        row = {}
        for traced in ("0", "1"):
            done = subprocess.run([sys.executable, __file__, "--child", regime, traced], capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            row.update(json.loads(done.stdout))
        print(f"{regime:<20}{row['surveys']:>9}{row['records']:>9}{row['merge_s']:>9.3f}{row['rss_rise_mb']:>13.1f}{row['traced_peak_mb']:>16.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
