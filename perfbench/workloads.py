"""The benchmark workloads: inputs, timed operations and output checks.

pipeline-clustered  ``geoflora pipeline`` on CSV files: the command users
                    run, and every layer does real work.
index-1m            the paper's scale claim in memory: a 1 M-survey strict
                    merge plus bulk exact radius and kNN queries; isolates
                    geo and pseudolabel, no file I/O.
tune-topk           ``geoflora postprocess --tune-truth``: the only path
                    through the grid search, samples-F1 and score loading;
                    heavy on reads, bypasses merge and predict.

Each workload reports its own metrics by name (``pipeline_s``, ``merge_s``,
``radius_qps``, ...); ``headline`` names the one that becomes the
workload's end-to-end ``run_s``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import itertools
import multiprocessing
import re
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import gen
from tracing import Tracer, layer_metrics, layers_add_up


def _strict():
    from geoflora.pseudolabel import MergeConfig, MergeMode

    return MergeConfig(mode=MergeMode.STRICT)


class SpeedProbe:
    """The machine's speed, sampled between the timed operations of a run.

    On a shared host the speed of the same code drifts by tens of percent
    over minutes, far more than a run can average away. The probe times a
    fixed kernel (Python set and dict churn plus a numpy sort, the mix
    geoflora runs) before and between repetitions; ``factor`` rescales the
    run's wall times towards the speed at which the kernel takes
    ``REFERENCE_S``. The factor is the same for any version of geoflora, so
    it damps the drift without hiding a change in the program.

    The probe follows the drift only in part: over 75 runs of the three
    workloads on a shared 2-core host, log run time and log probe time
    correlated at 0.64, and the least-squares slope of the one on the other
    was 0.51 (0.47-0.54 per workload). A full rescale adds the probe's own
    noise and made some sets of runs spread wider than raw wall time did, so
    the factor is the speed ratio raised to that slope, ``WEIGHT``.
    """

    REFERENCE_S = 0.06  # kernel median on the 2-core reference container in a quiet phase
    WEIGHT = 0.5

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int) -> None:
        # A garbage collection here would time the heap the workload left behind, not the machine.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._sample(times)
        finally:
            if was_enabled:
                gc.enable()

    def _sample(self, times: int) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            rng = np.random.default_rng(0)
            flat = rng.integers(0, 5000, 100_000).tolist()
            sets = [frozenset(flat[i : i + 4]) for i in range(0, len(flat), 4)]
            groups: dict[int, set[int]] = {}
            for i, s in enumerate(sets):
                groups.setdefault(i % 5000, set()).update(s)
            sorted((len(v), k) for k, v in groups.items())
            rng.random(1_000_000).sort()
            self.samples.append(time.perf_counter() - t0)

    def factor(self, samples: list[float] | None = None) -> float:
        """Rescaling for times measured next to ``samples`` (by default, all of them)."""
        return (self.REFERENCE_S / statistics.median(samples or self.samples)) ** self.WEIGHT


def in_child(fn, *args):
    """``fn(*args)`` in a forked process, so that input generation does not count toward this process's peak RSS."""
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples) if samples else float("nan"), "unit": unit, "n": len(samples), "samples": samples}


class Workload:
    name = ""
    headline = ""

    def __init__(self, seed: int, workdir: Path, ledger: checks.Ledger, oracles, sizes=None):
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.oracles = oracles
        self.sizes = sizes
        self.report: dict[str, dict] = {}
        self.trace_notes: list[str] = []
        self.probe = SpeedProbe()

    # Subclasses: generate(), setup_once() -> float | None, once() -> float, verify().

    def setup_once(self) -> float | None:
        """Program-side set-up beyond importing geoflora, timed; None when there is none."""
        return None

    def repeat(self, seconds: float, op: str) -> list[float]:
        """Run ``once`` until the next repetition would end past ``seconds``; at least once."""
        samples: list[float] = []
        start = time.perf_counter()
        self.probe.sample(24)
        while True:
            t = self.ledger.operation(op, self.once)
            if t is None:
                return samples
            samples.append(t)
            self.probe.sample(12)
            if time.perf_counter() - start + statistics.median(samples) > seconds:
                return samples

    def run(self, seconds: float) -> None:
        self.report[self.headline] = metric(self.repeat(seconds, self.headline), "s")

    @contextlib.contextmanager
    def tracing(self, tracer: Tracer):
        """``tracer`` installed for the block, and only for it."""
        missing = tracer.install()
        try:
            yield tracer
        finally:
            tracer.uninstall()
            self.trace_notes = [f"not traced, absent in this version: {m}" for m in missing]
            self.trace_notes += [f"item count failed: {e}" for e in tracer.count_errors]

    def run_traced(self, seconds: float) -> dict[str, float]:
        """Untraced and traced repetitions in pairs; layer metrics are medians over the traced ones.

        An unmeasured first repetition warms the process up, and the order
        within a pair alternates, so that neither side always runs first.
        """
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict[str, float]] = []
        start = time.perf_counter()
        if self.ledger.operation(self.headline + "-warm-up", self.once) is None:
            return {}
        while True:
            tracer = Tracer()

            def traced_once():
                with self.tracing(tracer):
                    return self.ledger.operation(self.headline + "-traced", self.once)

            if len(plain) % 2:
                tt = traced_once()
                t = self.ledger.operation(self.headline, self.once)
            else:
                t = self.ledger.operation(self.headline, self.once)
                tt = traced_once()
            if t is None or tt is None:
                break
            plain.append(t)
            traced.append(tt)
            layers.append(self.check_trace(tracer))
            if time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
                break
        self.report[self.headline] = metric(plain, "s")
        self.report[self.headline + "_traced"] = metric(traced, "s")
        out = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        if plain:
            out["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
        return out

    def check_trace(self, tracer: Tracer) -> dict[str, float]:
        """Layer metrics of one traced repetition; the reported layer times must add up to the traced wall time."""
        m = layer_metrics(tracer.spans)
        self.ledger.check("trace-layers-sum-to-wall", lambda: layers_add_up(m))
        self.spans = tracer.to_json()
        return m


class PipelineClustered(Workload):
    name = "pipeline-clustered"
    headline = "pipeline_s"

    def generate(self) -> None:
        self.inputs = in_child(gen.pipeline_inputs, self.seed, self.workdir / "in", self.sizes or gen.PipelineSizes())
        self.outdir = self.workdir / "out"
        self.digest = None

    def outputs(self) -> list[Path]:
        return [self.outdir / n for n in checks.GOLDEN_OUTPUTS]

    def once(self) -> float:
        i = self.inputs
        argv = ["pipeline", "--pa", str(i.pa.path), "--po", str(i.po.path), "--test", str(i.test.path), "--outdir", str(self.outdir)]
        t0 = time.perf_counter()
        status, _ = checks.run_cli(argv)
        elapsed = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"pipeline exited {status}")
        d = checks.digest(self.outputs())
        if self.digest not in (None, d):
            raise RuntimeError("pipeline outputs differ between repetitions")
        self.digest = d
        return elapsed

    def verify(self) -> None:
        from geoflora.geo import GeoIndex
        from geoflora.ingest import Dataset

        o, ledger, rng = self.oracles, self.ledger, np.random.default_rng([self.seed, 7])
        pa, po, test = self.inputs.pa.surveys, self.inputs.po.surveys, self.inputs.test.surveys
        sub_path = self.outdir / "submission.csv"
        if not sub_path.exists():
            ledger.fail("outputs", "no submission written")
            return
        submission = checks.read_submission_file(sub_path)
        ledger.check("submission-covers-test", lambda: checks.covers_exactly(submission, test.ids))
        f1, reason = checks.f1_agrees(o, self.inputs.truth.surveys.raw_sets(), submission)
        ledger.check("f1-matches-oracle", lambda: reason)
        if f1 is not None:
            self.report["f1"] = metric([f1], "ratio")

        q = rng.choice(len(test), min(40, len(test)), replace=False)
        q_lat, q_lon = np.radians(test.lats[q]), np.radians(test.lons[q])
        pa_index = GeoIndex(pa.ids, pa.lats, pa.lons)
        pos, dist = pa_index.knn_query_many(q_lat, q_lon, 10)
        ledger.check("knn-matches-oracle", lambda: checks.knn_matches(o, pa.ids, pa.lats, pa.lons, q_lat, q_lon, pos, dist, range(len(q)), 10))

        po_ds = Dataset(po.ids, po.lats, po.lons, list(po.raw_sets().values()))
        po_index = GeoIndex.from_dataset(po_ds)
        p = rng.choice(len(po), min(40, len(po)), replace=False)
        p_lat, p_lon = po_index.lat_rad[p], po_index.lon_rad[p]
        result = po_index.radius_query_many(p_lat, p_lon, checks.PATCH_RADIUS_KM)
        ledger.check("radius-matches-oracle", lambda: checks.radius_matches(o, po.ids, po.lats, po.lons, p_lat, p_lon, result, range(len(p)), checks.PATCH_RADIUS_KM))
        ledger.check("patch-box-matches-oracle", lambda: checks.patch_matches(o, po_ds, po_index, p[:20], _strict()))
        ledger.check("gate-matches-oracle", lambda: self._gate_check(rng))
        ledger.check("merged-po-matches-oracle", lambda: self._merged_check(po_ds, rng))

    def _gate_check(self, rng) -> str | None:
        from geoflora.geo import GeoPoint

        pa = self.inputs.pa.surveys
        rows = (self.outdir / "gate.csv").read_text(encoding="utf-8").splitlines()[1:]
        test = self.inputs.test.surveys
        if len(rows) != len(test):
            return f"{len(rows)} gate rows for {len(test)} test surveys"
        for r in rng.choice(len(rows), min(100, len(rows)), replace=False):
            sid, side, km = rows[r].split(",")
            p = int(np.searchsorted(test.ids, int(sid)))
            centre = GeoPoint.from_degrees(float(test.lats[p]), float(test.lons[p]))
            nearest = self.oracles.brute_knn(pa.ids, pa.lats, pa.lons, centre, 1)[0][1]
            want = "in_distribution" if nearest <= 10.0 else "out_of_distribution"
            if float(km) != nearest or side != want:
                return f"gate row for survey {sid}: {side} {km} vs oracle {want} {nearest!r}"
        return None

    def _merged_check(self, po_ds, rng) -> str | None:
        rows = (self.outdir / "merged_po.csv").read_text(encoding="utf-8").splitlines()[1:]
        anchors = []
        for r in rng.choice(len(rows), min(60, len(rows)), replace=False):
            sid, _, _, species = rows[r].split(",")
            anchors.append((int(sid), frozenset(int(t) for t in species.split()), None))
        return checks.merged_matches(self.oracles, po_ds, _strict(), anchors)


class Index1M(Workload):
    name = "index-1m"
    headline = "merge_s"
    BATCH = {"radius": 50_000, "knn": 10_000}
    KNN_K = 10
    MIN_BATCHES = 8

    def generate(self) -> None:
        self.surveys = in_child(gen.uniform_inputs, self.seed, self.sizes or gen.IndexSizes())
        # The species sets are the input the public Dataset takes, so building them is input generation.
        self.species_sets = self.surveys.species_sets()
        self.rng = np.random.default_rng([self.seed, 8])
        self.batch_size = {kind: min(m, len(self.surveys)) for kind, m in self.BATCH.items()}
        self.dataset = self.index = None

    def setup_once(self) -> float:
        """Dataset construction plus the GeoIndex build that the merge and the queries reuse."""
        from geoflora.geo import GeoIndex
        from geoflora.ingest import Dataset

        s = self.surveys
        self.dataset = self.index = None
        t0 = time.perf_counter()
        self.dataset = Dataset(s.ids, s.lats, s.lons, self.species_sets)
        self.index = GeoIndex.from_dataset(self.dataset)
        return time.perf_counter() - t0

    def merge(self) -> float:
        from geoflora.pseudolabel import merge_points

        t0 = time.perf_counter()
        self.merged = merge_points(self.dataset, _strict())
        return time.perf_counter() - t0

    def batch(self, kind: str):
        """One bulk query batch at sampled survey positions (so ties and members occur).

        Returns its seconds and a closure that checks two sampled rows against the oracle.
        """
        q = self.rng.integers(0, len(self.surveys), self.batch_size[kind])
        q_lat, q_lon = self.index.lat_rad[q], self.index.lon_rad[q]
        t0 = time.perf_counter()
        if kind == "radius":
            result = self.index.radius_query_many(q_lat, q_lon, checks.PATCH_RADIUS_KM)
        else:
            result = self.index.knn_query_many(q_lat, q_lon, self.KNN_K)
        elapsed = time.perf_counter() - t0
        s, o = self.surveys, self.oracles
        rows = self.rng.choice(q.size, 2, replace=False)

        def verify() -> None:
            if kind == "radius":
                self.ledger.check("radius-matches-oracle", lambda: checks.radius_matches(o, s.ids, s.lats, s.lons, q_lat, q_lon, result, rows, checks.PATCH_RADIUS_KM))
            else:
                self.ledger.check("knn-matches-oracle", lambda: checks.knn_matches(o, s.ids, s.lats, s.lons, q_lat, q_lon, *result, rows, self.KNN_K))

        return elapsed, verify

    def checked_batch(self, kind: str) -> float:
        elapsed, verify = self.batch(kind)
        verify()
        return elapsed

    def _batches(self, seconds: float, start: float, step) -> dict[str, list[float]]:
        """Alternate radius and kNN batches: at least MIN_BATCHES each, then until ``seconds`` since ``start``."""
        times: dict[str, list[float]] = {"radius": [], "knn": []}
        while True:
            for kind in times:
                t = self.ledger.operation(f"{kind}-batch", lambda: step(kind))
                if t is None:
                    return times
                times[kind].append(t)
            spent = time.perf_counter() - start
            nxt = sum(statistics.median(v) for v in times.values())
            if len(times["knn"]) >= self.MIN_BATCHES and spent + nxt > seconds:
                return times

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        self.probe.sample(24)
        t = self.ledger.operation("merge", self.merge)
        self.report["merge_s"] = metric([t] if t is not None else [], "s")
        self.probe.sample(12)

        def step(kind: str) -> float:
            elapsed = self.checked_batch(kind)
            self.probe.sample(1)
            return elapsed

        times = self._batches(seconds, start, step)
        for kind in times:
            self.report[f"{kind}_qps"] = metric([self.batch_size[kind] / t for t in times[kind]], "queries/s")

    def run_traced(self, seconds: float) -> dict[str, float]:
        """Traced set-up, merge and query batches; an untraced twin of each batch gives the overhead.

        The tracer is installed only around the traced parts, so the twins record no spans.
        """
        plain: dict[str, list[float]] = {"radius": [], "knn": []}
        tracer = Tracer()
        with self.tracing(tracer):
            with tracer.root("bench.setup"):
                self.setup_once()
            start = time.perf_counter()
            with tracer.root("bench.merge"):
                self.ledger.operation("merge", self.merge)

        def traced_batch(kind: str) -> float:
            with self.tracing(tracer), tracer.root(f"bench.{kind}_batch"):
                elapsed, verify = self.batch(kind)
            verify()
            return elapsed

        def both(kind: str) -> float:
            """An untraced and a traced batch, in alternating order so that neither side always runs first."""
            if len(plain[kind]) % 2:
                elapsed = traced_batch(kind)
                plain[kind].append(self.checked_batch(kind))
            else:
                plain[kind].append(self.checked_batch(kind))
                elapsed = traced_batch(kind)
            return elapsed

        traced = self._batches(seconds, start, both)
        self.traced_batches = {kind: len(v) for kind, v in traced.items()}
        out = self.check_trace(tracer)
        base = sum(statistics.median(v) for v in plain.values())
        out["trace.overhead_share"] = sum(statistics.median(v) for v in traced.values()) / base - 1.0
        return out

    def verify(self) -> None:
        merged = getattr(self, "merged", None)
        if merged is None:
            self.ledger.fail("outputs", "no merge result")
            return
        ds = self.dataset
        picks = self.rng.choice(len(merged), min(20, len(merged)), replace=False)
        anchors = [(merged[i].survey_id, merged[i].species, merged[i].source_ids) for i in picks]
        self.ledger.check("merged-matches-oracle", lambda: checks.merged_matches(self.oracles, ds, _strict(), anchors))
        self.ledger.check("merge-covers-every-survey", lambda: self._covers(merged))
        p = self.rng.choice(len(ds), 10, replace=False)
        self.ledger.check("patch-box-matches-oracle", lambda: checks.patch_matches(self.oracles, ds, self.index, p, _strict()))
        self.report["records_out"] = metric([float(len(merged))], "count")

    def _covers(self, merged) -> str | None:
        sources = np.fromiter(itertools.chain.from_iterable(r.source_ids for r in merged), dtype=np.int64)
        unreached = np.setdiff1d(self.dataset.ids, sources).size
        return f"{unreached} surveys reach no merged record" if unreached else None


def _tune_inputs(seed: int, indir: Path, sizes: gen.TuneSizes) -> gen.TuneInputs:
    """The tuning files plus ``scores.csv``, made with geoflora's public predictor functions."""
    from geoflora.ingest import DatasetKind, parse_occurrences
    from geoflora.predictor import neighbor_frequency_predict, save_scores

    inputs = gen.tune_inputs(seed, indir, sizes)
    pa, catalog = parse_occurrences(str(inputs.pa.path), kind=DatasetKind.PA_TRAIN)
    test, _ = parse_occurrences(str(inputs.test.path), kind=DatasetKind.TEST)
    save_scores(neighbor_frequency_predict(pa, test, 10, num_species=len(catalog)), str(indir / "scores.csv"), catalog)
    return inputs


class TuneTopK(Workload):
    name = "tune-topk"
    headline = "tune_s"
    GRID_LINE = re.compile(r"grid search: threshold=(\S+) k_cap=(\d+) \(F1=(\S+)\)")

    def generate(self) -> None:
        self.inputs = in_child(_tune_inputs, self.seed, self.workdir / "in", self.sizes or gen.TuneSizes())
        self.scores = self.workdir / "in" / "scores.csv"
        self.output = self.workdir / "out" / "submission.csv"
        self.output.parent.mkdir(parents=True, exist_ok=True)
        self.digest = None
        self.tuned = None

    def once(self) -> float:
        i = self.inputs
        argv = [
            "postprocess", "--scores", str(self.scores), "--test", str(i.test.path), "--reference", str(i.pa.path),
            "--tune-truth", str(i.truth.path), "--output", str(self.output),
        ]
        t0 = time.perf_counter()
        status, out = checks.run_cli(argv)
        elapsed = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"postprocess exited {status}")
        found = self.GRID_LINE.search(out)
        if found is None:
            raise RuntimeError("postprocess printed no grid-search result")
        d = checks.digest([self.output])
        if (self.digest, self.tuned) not in ((None, None), (d, found.groups())):
            raise RuntimeError("tuning result differs between repetitions")
        self.digest, self.tuned = d, found.groups()
        return elapsed

    def verify(self) -> None:
        from geoflora.geo import GeoIndex

        if not self.output.exists():
            self.ledger.fail("outputs", "no submission written")
            return
        o, rng = self.oracles, np.random.default_rng([self.seed, 9])
        pa, test = self.inputs.pa.surveys, self.inputs.test.surveys
        submission = checks.read_submission_file(self.output)
        self.ledger.check("submission-covers-test", lambda: checks.covers_exactly(submission, test.ids))
        f1, reason = checks.f1_agrees(o, self.inputs.truth.surveys.raw_sets(), submission)
        self.ledger.check("f1-matches-oracle", lambda: reason)
        if f1 is not None:
            self.report["f1"] = metric([f1], "ratio")
        q = rng.choice(len(test), min(40, len(test)), replace=False)
        q_lat, q_lon = np.radians(test.lats[q]), np.radians(test.lons[q])
        pos, dist = GeoIndex(pa.ids, pa.lats, pa.lons).knn_query_many(q_lat, q_lon, 5)
        self.ledger.check("vote-knn-matches-oracle", lambda: checks.knn_matches(o, pa.ids, pa.lats, pa.lons, q_lat, q_lon, pos, dist, range(len(q)), 5))


WORKLOADS = {w.name: w for w in (PipelineClustered, Index1M, TuneTopK)}
