"""Weakly supervised geospatial pipeline for multi-species survey data."""

__version__ = "0.1.0"

from .gate import Gate, GateAssignment, Side, assign, moe_merge
from .geo import EARTH_RADIUS_KM, GeoIndex, GeoPoint
from .ingest import (
    Dataset,
    DatasetKind,
    ParseError,
    RowSets,
    SpeciesCatalog,
    SurveyRecord,
    parse_occurrences,
    union_rows,
    write_dataset,
)
from .losses import AslParams, LabeledScores, asl_grad, asl_loss, bce_loss, samples_f1
from .postprocess import TopKConfig, VoteConfig, finalize
from .predictor import ScoreMatrix, load_scores, neighbor_frequency_predict, save_scores
from .pseudolabel import (
    MergeConfig,
    MergedRecord,
    MergedSet,
    MergeMode,
    merge_points,
    merge_stats,
    neighbors_in_patch,
)

__all__ = [
    "AslParams",
    "Dataset",
    "DatasetKind",
    "EARTH_RADIUS_KM",
    "Gate",
    "GateAssignment",
    "GeoIndex",
    "GeoPoint",
    "LabeledScores",
    "MergeConfig",
    "MergeMode",
    "MergedRecord",
    "MergedSet",
    "ParseError",
    "RowSets",
    "ScoreMatrix",
    "Side",
    "SpeciesCatalog",
    "SurveyRecord",
    "TopKConfig",
    "VoteConfig",
    "asl_grad",
    "asl_loss",
    "assign",
    "bce_loss",
    "finalize",
    "load_scores",
    "merge_points",
    "merge_stats",
    "moe_merge",
    "neighbor_frequency_predict",
    "neighbors_in_patch",
    "parse_occurrences",
    "samples_f1",
    "save_scores",
    "union_rows",
    "write_dataset",
]
