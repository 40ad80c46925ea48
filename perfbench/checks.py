"""Correctness checks run by every benchmark invocation.

Results are compared with the brute-force oracles in ``tests/oracles.py``
(loaded read-only from the checkout) and with the committed golden run. A
failed check, or an operation that raises, counts toward the error rate and
makes the benchmark exit non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_OUTPUTS = ("merged_po.csv", "gate.csv", "scores_in.csv", "scores_ood.csv", "submission.csv")
PATCH_RADIUS_KM = 0.4525483399593905  # circumscribes the default 640 m patch box


class Ledger:
    """Operations and checks attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {detail}")
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name: str, fn: Callable[[], str | None]) -> None:
        """Run ``fn``; it returns None when the check passes, else the reason."""
        self.attempted += 1
        try:
            reason = fn()
        except Exception:  # a check that raises has failed, and the run goes on
            reason = traceback.format_exc(limit=3)
        if reason is not None:
            self.fail(name, reason)

    def operation(self, name: str, fn: Callable[[], object]):
        """Run one timed operation; an exception counts as a failure and gives None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.fail(name, traceback.format_exc(limit=5))
            return None


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("geoflora_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``geoflora.cli.run`` with its stdout captured; looked up at call time so a tracer's patch applies."""
    import geoflora.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = geoflora.cli.run(argv)
    return status, buf.getvalue()


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def golden_run(root: Path, outdir: Path) -> str | None:
    """The fixture pipeline reproduces the five golden data files byte for byte.

    ``manifest.json`` is left out: it embeds the numpy and Python versions.
    """
    fixtures = root / "tests" / "fixtures"
    status, _ = run_cli(
        [
            "pipeline",
            "--pa", str(fixtures / "pa_train.csv"),
            "--po", str(fixtures / "po_train.csv"),
            "--test", str(fixtures / "test.csv"),
            "--outdir", str(outdir),
        ]
    )
    if status != 0:
        return f"fixture pipeline exited {status}"
    differ = [n for n in GOLDEN_OUTPUTS if (outdir / n).read_bytes() != (fixtures / "golden" / n).read_bytes()]
    return f"differs from golden: {differ}" if differ else None


def read_submission_file(path: Path) -> dict[int, frozenset[int]]:
    """Independent reader: survey id -> raw species ids; rejects duplicate rows."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "surveyId,predictions":
        raise ValueError(f"bad submission header {lines[0]!r}")
    out: dict[int, frozenset[int]] = {}
    for line in lines[1:]:
        sid, preds = line.split(",")
        if int(sid) in out:
            raise ValueError(f"duplicate submission row for survey {sid}")
        out[int(sid)] = frozenset(int(t) for t in preds.split())
    return out


def covers_exactly(submission: dict[int, frozenset[int]], test_ids: np.ndarray) -> str | None:
    expected = set(test_ids.tolist())
    missing = len(expected - submission.keys())
    extra = len(submission.keys() - expected)
    return f"{missing} test surveys missing, {extra} unexpected" if missing or extra else None


def f1_agrees(oracles, truth: dict, submission: dict) -> tuple[float | None, str | None]:
    """The program's samples-F1 and the oracle's recount agree exactly; (F1, failure reason)."""
    from geoflora.losses import samples_f1

    try:
        f1 = samples_f1(truth, submission)
    except ValueError as exc:
        return None, f"samples_f1 raised: {exc}"
    ref = oracles.samples_f1_oracle(truth, submission)
    return f1, (None if f1 == ref else f"samples_f1 {f1!r} != oracle {ref!r}")


def knn_matches(oracles, ids, lats, lons, q_lat_rad, q_lon_rad, pos, dist, rows, k: int) -> str | None:
    """Sampled rows of a ``knn_query_many`` result equal the linear-scan oracle."""
    from geoflora.geo import GeoPoint

    for i in rows:
        got = [(int(ids[p]), float(d)) for p, d in zip(pos[i], dist[i])]
        want = oracles.brute_knn(ids, lats, lons, GeoPoint(float(q_lat_rad[i]), float(q_lon_rad[i])), k)
        if got != want:
            return f"kNN row {i} differs: {got[:3]}... vs {want[:3]}..."
    return None


def radius_matches(oracles, ids, lats, lons, q_lat_rad, q_lon_rad, result, rows, radius_km: float) -> str | None:
    """Sampled slices of a ``radius_query_many`` result equal the oracle as (distance, id) lists."""
    from geoflora.geo import GeoPoint

    offsets, pos, dist = result
    for i in rows:
        sl = slice(offsets[i], offsets[i + 1])
        got = sorted((float(d), int(ids[p])) for p, d in zip(pos[sl], dist[sl]))
        center = GeoPoint(float(q_lat_rad[i]), float(q_lon_rad[i]))
        want = [(d, sid) for sid, d in oracles.brute_radius(ids, lats, lons, center, radius_km)]
        if got != want:
            return f"radius row {i}: {len(got)} members vs oracle {len(want)}"
    return None


def patch_matches(oracles, dataset, index, positions, cfg) -> str | None:
    """``neighbors_in_patch`` equals the pairwise box oracle at sampled surveys."""
    from geoflora.pseudolabel import neighbors_in_patch

    for p in positions:
        got = [r.survey_id for r in neighbors_in_patch(dataset, dataset.record(int(p)), cfg, index=index)]
        want = dataset.ids[oracles.box_members_oracle(dataset, int(p), cfg)].tolist()
        if got != want:
            return f"patch box of survey {int(dataset.ids[p])}: {got} vs oracle {want}"
    return None


def merged_matches(oracles, dataset, cfg, anchors: list[tuple[int, frozenset[int], tuple[int, ...] | None]]) -> str | None:
    """Each sampled merged record is its anchor's box union (species and, if given, sources)."""
    for sid, species, sources in anchors:
        p = int(np.searchsorted(dataset.ids, sid))
        members = oracles.box_members_oracle(dataset, p, cfg)
        union = frozenset().union(*(dataset.species[j] for j in members))
        if species != union:
            return f"merged record {sid}: species {sorted(species)} vs box union {sorted(union)}"
        if sources is not None and sources != tuple(dataset.ids[members].tolist()):
            return f"merged record {sid}: sources differ from its box members"
    return None
