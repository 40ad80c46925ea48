#!/usr/bin/env python3
"""geoflora benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-clustered --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in its own process

One run generates its inputs from ``--seed``, checks the committed golden
fixture run, times its workload for about ``--seconds`` seconds and checks
the outputs against the brute-force oracles in ``tests/oracles.py``. It
prints one line per metric (median, unit, sample count) and, as the last
line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``:

  --trace 0   the end-to-end metrics: ``run_s`` (the workload's headline
              time: pipeline_s, merge_s or tune_s), ``setup_s`` and
              ``peak_rss_mb``. The two times are wall seconds rescaled by
              the machine's speed measured next to them (``run_s`` by the
              run's ``speed_factor``, see ``SpeedProbe``; ``setup_s`` as
              ``setup_seconds`` describes), so that the host's speed drift
              is damped; the raw medians are printed too. ``peak_rss_mb`` is
              this process's peak by the end of the timed runs: the inputs
              are generated in a child process and the output checks run
              after it is read;
  --trace 1   the per-layer metrics of a traced run (see tracing.py), with
              the tracing overhead against untraced repetitions.

A failed check exits with status 1; a checkout without the program exits
with status 2 and prints no result. Details and spans go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, SpeedProbe, metric  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REQUIRED = ("src/geoflora/__init__.py", "src/geoflora/cli.py", "tests/oracles.py", "tests/fixtures/golden")
IMPORT_REPS = 8
BUILD_REPS = 3
# numpy + scipy.spatial import, geoflora's heavy dependencies, on the 2-core reference container in a quiet phase
DEPS_REFERENCE_S = 0.5


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> list[tuple[float, float]]:
    """(dependencies, whole) seconds of importing geoflora's CLI in a fresh interpreter, once per repetition.

    The interpreter imports numpy and scipy.spatial first, then ``geoflora.cli``;
    the whole span covers both, so it is the import a user waits for.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); t0 = time.perf_counter(); "
        "import numpy, scipy.spatial; t1 = time.perf_counter(); import geoflora.cli; "
        "print(t1 - t0, time.perf_counter() - t0)"
    )
    out = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
        deps, whole = map(float, child.stdout.split())
        out.append((deps, whole))
    return out


def setup_seconds(workload) -> float:
    """The program's set-up at reference speed: the geoflora import plus, where the workload has one, its build.

    Each import is divided by the dependency import inside the same
    interpreter a moment before, and each build is rescaled by the
    ``SpeedProbe`` samples taken right before and after it, so only speed
    measured next to a time rescales it. On a shared 2-core host the raw
    import wall time spread by 20-30 % between runs, the ratio by under 2 %.
    """
    imports = import_seconds()
    workload.report["import_s"] = metric([whole for _, whole in imports], "s")
    workload.report["deps_import_s"] = metric([deps for deps, _ in imports], "s")
    setup = DEPS_REFERENCE_S * statistics.median(whole / deps for deps, whole in imports)
    probe, builds, scaled = SpeedProbe(), [], []
    probe.sample(2)
    for _ in range(BUILD_REPS):
        t = workload.setup_once()
        if t is None:
            break
        probe.sample(2)
        builds.append(t)
        scaled.append(t * probe.factor(probe.samples[-4:]))
    if builds:
        workload.report["build_s"] = metric(builds, "s")
        setup += statistics.median(scaled)
    return setup


def peak_rss_mb() -> float:
    """This process's peak resident set so far; inputs are generated in a child, so they do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metric(name: str, m: dict) -> None:
    extra = f"  min {min(m['samples']):.6g}  max {max(m['samples']):.6g}" if m["n"] > 1 else ""
    print(f"{name:<32} {m['value']:>14.6g}  {m['unit']:<10} n={m['n']}{extra}")


def run_one(args) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} holds no geoflora checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import geoflora

    if Path(geoflora.__file__).resolve().parent != ROOT / "src" / "geoflora":
        print(f"error: imported geoflora from {geoflora.__file__}, not from this checkout", file=sys.stderr)
        return 2

    env = environment(args)
    print(f"# geoflora benchmark: {json.dumps(env, sort_keys=True)}")
    ledger = checks.Ledger()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, ledger, checks.load_oracles(ROOT))
    layers: dict[str, float] = {}
    try:
        workload.generate()
        ledger.check("golden-fixture", lambda: checks.golden_run(ROOT, workdir / "golden"))
        workload.report["pre_setup_rss_mb"] = metric([peak_rss_mb()], "MB")
        if args.trace:
            layers = workload.run_traced(args.seconds)
        else:
            setup = setup_seconds(workload)
            workload.run(args.seconds)
            workload.report["peak_rss_mb"] = metric([peak_rss_mb()], "MB")  # before the checks add their own
            factor = workload.probe.factor()
            workload.report["probe_s"] = metric(workload.probe.samples, "s")
            workload.report["speed_factor"] = metric([factor], "ratio")
            workload.report["setup_s"] = metric([setup], "s")
            workload.report["run_s"] = metric([workload.report[workload.headline]["value"] * factor], "s")
        workload.verify()
    except Exception:  # the run must still report what failed
        ledger.attempted += 1
        ledger.fail("benchmark", traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = workload.report
    report.setdefault("peak_rss_mb", metric([peak_rss_mb()], "MB"))
    for name, m in report.items():
        print_metric(name, m)
    print(f"{'error_rate':<32} {ledger.failed:>8}/{ledger.attempted:<5} failed/attempted")
    if args.trace:
        traced = report.get(workload.headline + "_traced")
        if traced and workload.headline in report:
            overhead = traced["value"] - report[workload.headline]["value"]
            print(f"{'trace overhead':<32} {overhead:>+14.6g}  s          traced minus untraced {workload.headline}")
        for name, unit in LAYER_METRICS.items():
            print(f"{name:<32} {layers.get(name, float('nan')):>14.6g}  {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items() if name in layers}
    else:
        print(f"run_s is {workload.headline} x speed_factor; setup_s is import_s / deps_import_s x {DEPS_REFERENCE_S} s (+ build_s at probe speed)")
        values = {name: report.get(name, {}).get("value") for name in END_TO_END}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items() if math.isfinite(values[name] or math.nan)}
    for note in workload.trace_notes:
        print(f"# {note}")

    correct = ledger.failed == 0
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {
        "env": env,
        "report": report,
        "layers": layers,
        "ledger": {"attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures},
        "trace_notes": workload.trace_notes,
        "spans": getattr(workload, "spans", []),
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to it alone."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.rstrip("\n").splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if child.returncode == 2 or not lines:
            return child.returncode or 2
        status = status or child.returncode
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
