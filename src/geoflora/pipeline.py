"""The full chain as one library call: merge -> gate -> two experts -> routed submission.

Presence-only surveys are patch-merged; each test survey is routed by its
distance to the nearest presence-absence survey; the in-distribution expert
scores and votes over the PA surveys, the out-of-distribution expert over the
merged PO surveys, each with its own Threshold Top-K and vote settings.

``PipelineConfig`` is the single source of the chain's settings: its field
names are the config-file keys, the ``geoflora pipeline`` flags and the
manifest's ``config`` keys, and its defaults are the owning modules'
constants.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .gate import DEFAULT_GATE_RADIUS_KM, Side, assign, moe_merge, write_assignments
from .ingest import DatasetKind, RangeError, SpeciesCatalog, parse_occurrences, reindex_dataset, write_dataset
from .postprocess import IN_DIST_TOP_K, IN_DIST_VOTE, OOD_TOP_K, OOD_VOTE, TopKConfig, VoteConfig, side_predictions, write_submission
from .predictor import DEFAULT_K, ScoreMatrix, neighbor_frequency_predict, save_scores
from .pseudolabel import MergeConfig, MergeMode, merge_points, merge_stats, merged_to_dataset

OUTPUTS = ("merged_po.csv", "gate.csv", "scores_in.csv", "scores_ood.csv", "submission.csv")


# The ``PipelineConfig`` field, less its side prefix, behind each TopKConfig / VoteConfig field.
_SIDE_FIELDS = {"threshold": "threshold", "k_cap": "k_cap", "neighbor_count": "vote_neighbors", "min_frequency": "vote_min_freq"}


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the chain; field names are config-file keys and option names."""

    merge_mode: MergeMode = MergeMode.STRICT
    box_half_km: float = MergeConfig.box_half_km
    rare_count_threshold: int = MergeConfig.rare_count_threshold
    gate_radius_km: float = DEFAULT_GATE_RADIUS_KM
    predict_k: int = DEFAULT_K
    in_threshold: float = IN_DIST_TOP_K.threshold
    in_k_cap: int = IN_DIST_TOP_K.k_cap
    ood_threshold: float = OOD_TOP_K.threshold
    ood_k_cap: int = OOD_TOP_K.k_cap
    in_vote_neighbors: int = IN_DIST_VOTE.neighbor_count
    in_vote_min_freq: float = IN_DIST_VOTE.min_frequency
    ood_vote_neighbors: int = OOD_VOTE.neighbor_count
    ood_vote_min_freq: float = OOD_VOTE.min_frequency
    vote_inclusive: bool = False
    fallback_top1: bool = False

    def __post_init__(self) -> None:
        """Check every value up front, so a bad one fails before any file is read or written."""
        if not self.predict_k >= 1:  # written so that NaN fails too
            raise RangeError("predict_k", ">= 1", self.predict_k)
        if not self.gate_radius_km >= 0:
            raise RangeError("gate_radius_km", ">= 0", self.gate_radius_km)
        self.merge_config()
        for side, prefix in ((Side.IN_DISTRIBUTION, "in_"), (Side.OUT_OF_DISTRIBUTION, "ood_")):
            try:
                self.side_configs(side)
            except RangeError as exc:  # name the field of this config, not of TopKConfig / VoteConfig
                raise RangeError(prefix + _SIDE_FIELDS[exc.field], exc.requirement, exc.value) from None

    def merge_config(self) -> MergeConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(MergeConfig) if f.name != "mode"}
        return MergeConfig(mode=self.merge_mode, **shared)

    def side_configs(self, side: Side) -> tuple[TopKConfig, VoteConfig]:
        strictly_greater = not self.vote_inclusive
        if side is Side.IN_DISTRIBUTION:
            return (
                TopKConfig(self.in_threshold, self.in_k_cap, self.fallback_top1),
                VoteConfig(self.in_vote_neighbors, self.in_vote_min_freq, strictly_greater),
            )
        return (
            TopKConfig(self.ood_threshold, self.ood_k_cap, self.fallback_top1),
            VoteConfig(self.ood_vote_neighbors, self.ood_vote_min_freq, strictly_greater),
        )


def _config_dict(config) -> dict:
    """A config dataclass as plain JSON values, enums by their value."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run(pa: str | Path, po: str | Path, test: str | Path, outdir: str | Path, config: PipelineConfig = PipelineConfig()) -> dict:
    """Run the chain on three survey files and write its outputs under ``outdir``.

    Writes the five ``OUTPUTS``, ``manifest.json`` (configuration plus input
    and output SHA-256 digests, byte-identical across environments) and
    ``run.json`` (the numpy and Python versions); prints one progress line per
    stage to stdout and returns the manifest.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    pa_ds, pa_catalog = parse_occurrences(str(pa), kind=DatasetKind.PA_TRAIN)
    po_ds, po_catalog = parse_occurrences(str(po), kind=DatasetKind.PO_TRAIN)
    test_ds, _ = parse_occurrences(str(test), kind=DatasetKind.TEST)
    catalog = SpeciesCatalog.union([pa_catalog, po_catalog])
    pa_ds = reindex_dataset(pa_ds, pa_catalog, catalog)
    po_ds = reindex_dataset(po_ds, po_catalog, catalog)

    merge_cfg = config.merge_config()
    merged_records = merge_points(po_ds, merge_cfg)
    merged_po = merged_to_dataset(merged_records)
    write_dataset(merged_po, outdir / "merged_po.csv", catalog)
    report = merge_stats(po_ds, merged_records)
    print(
        f"merge[{merge_cfg.mode.value}]: {report.surveys_in} -> {report.surveys_out} surveys, "
        f"mean species/survey {report.mean_species_in:.3f} -> {report.mean_species_out:.3f}"
    )

    assignments = assign(test_ds, pa_ds, config.gate_radius_km)
    write_assignments(assignments, str(outdir / "gate.csv"))
    in_mask = np.array([a.side is Side.IN_DISTRIBUTION for a in assignments], dtype=bool)
    print(f"gate: {int(in_mask.sum())} in-distribution, {int((~in_mask).sum())} out-of-distribution")

    predictions: dict[Side, dict[int, frozenset[int]]] = {}
    for side, train, mask, scores_name in (
        (Side.IN_DISTRIBUTION, pa_ds, in_mask, "scores_in.csv"),
        (Side.OUT_OF_DISTRIBUTION, merged_po, ~in_mask, "scores_ood.csv"),
    ):
        test_side = test_ds.take(np.flatnonzero(mask))
        matrix, predictions[side] = ScoreMatrix(len(catalog)), {}
        if len(test_side):
            if len(train) == 0:
                raise ValueError(f"no training data for the {side.value.replace('_', '-')} expert")
            matrix = neighbor_frequency_predict(train, test_side, config.predict_k, num_species=len(catalog))
            predictions[side] = side_predictions(matrix, test_side, train, *config.side_configs(side))
        save_scores(matrix, str(outdir / scores_name), catalog)

    final = moe_merge(assignments, predictions[Side.IN_DISTRIBUTION], predictions[Side.OUT_OF_DISTRIBUTION])
    submission_path = outdir / "submission.csv"
    write_submission(final, str(submission_path), catalog)
    print(f"wrote {submission_path} ({len(final)} surveys)")

    manifest = {
        "package": "geoflora",
        "version": __version__,
        "command": "pipeline",
        "config": _config_dict(config),
        "inputs": {"pa": _sha256(pa), "po": _sha256(po), "test": _sha256(test)},
        "outputs": {name: _sha256(outdir / name) for name in OUTPUTS},
    }
    write_json(outdir / "manifest.json", manifest)
    print(f"wrote {outdir / 'manifest.json'}")
    # environment record: kept out of the manifest, it differs between environments
    write_json(outdir / "run.json", {"versions": {"numpy": np.__version__, "python": sys.version.split()[0]}})
    return manifest
