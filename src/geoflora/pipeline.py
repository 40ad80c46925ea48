"""The full chain as one library call: merge -> gate -> two experts -> routed submission.

Presence-only surveys are patch-merged; each test survey is routed by its
distance to the nearest presence-absence survey; the in-distribution expert
scores and votes over the PA surveys, the out-of-distribution expert over the
merged PO surveys, each with its own Threshold Top-K and vote settings.
Each reference set is indexed once (PA for the gate and the in-distribution
expert, merged PO for the other) and each side's surveys are queried once,
at the larger of ``predict_k`` and the side's ``vote_neighbors``: the scores
and the votes take prefixes of that one answer.

``PipelineConfig`` holds the chain's settings: its field names are the
config-file keys, the ``geoflora pipeline`` flags and the manifest's
``config`` keys. Each stage config (``MergeConfig``, ``GateConfig``,
``PredictConfig``, and ``TopKConfig`` / ``VoteConfig`` per side) owns its
defaults and range checks; ``PipelineConfig`` takes its defaults from them
and builds them from its fields.
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
from .gate import GateConfig, Side, assign, moe_merge, write_assignments
from .geo import GeoIndex
from .ingest import DatasetKind, RangeError, RowSets, SpeciesCatalog, parse_occurrences, reindex_dataset, write_dataset
from .postprocess import OOD_TOP_K, OOD_VOTE, TopKConfig, VoteConfig, side_predictions, write_submission
from .predictor import PredictConfig, ScoreMatrix, neighbor_frequency_predict, save_scores
from .pseudolabel import MergeConfig, MergeMode, merge_points, merge_stats, merged_to_dataset

OUTPUTS = ("merged_po.csv", "gate.csv", "scores_in.csv", "scores_ood.csv", "submission.csv")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the chain; field names are config-file keys and option names."""

    merge_mode: MergeMode = MergeMode.STRICT
    box_half_km: float = MergeConfig.box_half_km
    rare_count_threshold: int = MergeConfig.rare_count_threshold
    gate_radius_km: float = GateConfig.gate_radius_km
    predict_k: int = PredictConfig.k
    in_threshold: float = TopKConfig.threshold
    in_k_cap: int = TopKConfig.k_cap
    ood_threshold: float = OOD_TOP_K.threshold
    ood_k_cap: int = OOD_TOP_K.k_cap
    in_vote_neighbors: int = VoteConfig.vote_neighbors
    in_vote_min_freq: float = VoteConfig.vote_min_freq
    ood_vote_neighbors: int = OOD_VOTE.vote_neighbors
    ood_vote_min_freq: float = OOD_VOTE.vote_min_freq
    vote_inclusive: bool = VoteConfig.vote_inclusive
    fallback_top1: bool = TopKConfig.fallback_top1

    def __post_init__(self) -> None:
        """Build every stage config up front, so a bad value fails before any file is read or written."""
        self.merge_config()
        self._stage_config(GateConfig)
        self._stage_config(PredictConfig, "predict_")
        for side in Side:
            self.side_configs(side)

    def _stage_config(self, cls, prefix: str = ""):
        """The ``cls`` config of one stage; its field ``name`` is set by this config's ``prefix + name``, else ``name``.

        A range error names this config's field.
        """
        own = {f.name for f in fields(self)}
        source = {f.name: prefix + f.name if prefix + f.name in own else f.name for f in fields(cls)}
        try:
            return cls(**{name: getattr(self, field) for name, field in source.items()})
        except RangeError as exc:
            raise RangeError(source[exc.field], exc.requirement, exc.value) from None

    def merge_config(self) -> MergeConfig:
        return self._stage_config(MergeConfig, "merge_")

    def side_configs(self, side: Side) -> tuple[TopKConfig, VoteConfig]:
        prefix = "in_" if side is Side.IN_DISTRIBUTION else "ood_"
        return self._stage_config(TopKConfig, prefix), self._stage_config(VoteConfig, prefix)


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
    pa_ds, pa_catalog = parse_occurrences(str(pa), kind=DatasetKind.PA_TRAIN)
    po_ds, po_catalog = parse_occurrences(str(po), kind=DatasetKind.PO_TRAIN)
    test_ds, _ = parse_occurrences(str(test), kind=DatasetKind.TEST)
    catalog = SpeciesCatalog.union([pa_catalog, po_catalog])
    pa_ds = reindex_dataset(pa_ds, pa_catalog, catalog)
    po_ds = reindex_dataset(po_ds, po_catalog, catalog)

    merge_cfg = config.merge_config()
    merged_records = merge_points(po_ds, merge_cfg)
    merged_po = merged_to_dataset(merged_records)
    # one index per reference set and one kNN query per side
    pa_index = GeoIndex.from_dataset(pa_ds)
    gate = assign(test_ds, pa_ds, config.gate_radius_km, index=pa_index)
    n_in = int(gate.in_mask.sum())
    if len(merged_po) == 0 and n_in < len(gate):  # before any output; an empty PA file routes every test survey out
        raise ValueError(f"{po}: no surveys, but {len(gate) - n_in} test surveys are out-of-distribution")

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_dataset(merged_po, outdir / "merged_po.csv", catalog)
    report = merge_stats(po_ds, merged_records)
    print(
        f"merge[{merge_cfg.mode.value}]: {report.surveys_in} -> {report.surveys_out} surveys, "
        f"mean species/survey {report.mean_species_in:.3f} -> {report.mean_species_out:.3f}"
    )
    write_assignments(gate, str(outdir / "gate.csv"))
    print(f"gate: {n_in} in-distribution, {len(gate) - n_in} out-of-distribution")

    predictions: dict[Side, RowSets] = {}
    for side, train, mask, scores_name in (
        (Side.IN_DISTRIBUTION, pa_ds, gate.in_mask, "scores_in.csv"),
        (Side.OUT_OF_DISTRIBUTION, merged_po, ~gate.in_mask, "scores_ood.csv"),
    ):
        test_side = test_ds.take(np.flatnonzero(mask))
        matrix, predictions[side] = ScoreMatrix(len(catalog)), test_side.species  # no rows on an empty side
        if len(test_side):
            top_k, vote = config.side_configs(side)
            index = pa_index if side is Side.IN_DISTRIBUTION else GeoIndex.from_dataset(train)
            k = max(config.predict_k, vote.vote_neighbors)
            neighbors, _ = index.knn_query_many(np.radians(test_side.lats), np.radians(test_side.lons), k)
            matrix = neighbor_frequency_predict(train, test_side, config.predict_k, num_species=len(catalog), neighbors=neighbors)
            predictions[side] = side_predictions(matrix, test_side, train, top_k, vote, neighbors=neighbors)
            del index, neighbors
        pa_index = None  # each side's index and neighbours go once the side is done
        save_scores(matrix, str(outdir / scores_name), catalog)

    final = moe_merge(gate, predictions[Side.IN_DISTRIBUTION], predictions[Side.OUT_OF_DISTRIBUTION])
    submission_path = outdir / "submission.csv"
    write_submission(gate.ids, final, str(submission_path), catalog)
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
