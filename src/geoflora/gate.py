"""Geographic expert router.

Test surveys with a presence-absence training survey within the gate radius
(10 km by default, boundary inclusive) are in-distribution; everything else
is out-of-distribution. Each survey then takes exactly its assigned expert's
prediction, with no mixing inside a survey.

``assign`` returns a columnar ``Gate``; each expert's ``RowSets`` follow its side's
surveys, and ``moe_merge`` unites them into one ``RowSets`` aligned with the test ids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geo import GeoIndex
from .ingest import Dataset, RangeError, RowSets, union_rows


class Side(enum.Enum):
    IN_DISTRIBUTION = "in_distribution"
    OUT_OF_DISTRIBUTION = "out_of_distribution"


@dataclass(frozen=True)
class GateConfig:
    """Routing settings: a test survey within ``gate_radius_km`` of a PA survey is in-distribution."""

    gate_radius_km: float = 10.0

    def __post_init__(self) -> None:
        if not self.gate_radius_km >= 0:  # written so that NaN fails too
            raise RangeError("gate_radius_km", ">= 0", self.gate_radius_km)


@dataclass(frozen=True)
class GateAssignment:
    survey_id: int
    side: Side
    nearest_pa_km: float


@dataclass(frozen=True, eq=False)
class Gate(Sequence[GateAssignment]):
    """Columns with one row per test survey, by survey id; rows read as ``GateAssignment`` views made on demand."""

    ids: np.ndarray
    nearest_km: np.ndarray
    in_mask: np.ndarray

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, i) -> GateAssignment:
        side = Side.IN_DISTRIBUTION if self.in_mask[i] else Side.OUT_OF_DISTRIBUTION
        return GateAssignment(int(self.ids[i]), side, float(self.nearest_km[i]))


def assign(
    test_dataset: Dataset, pa_dataset: Dataset, gate_radius_km: float = GateConfig.gate_radius_km, *, index: GeoIndex | None = None
) -> Gate:
    """Per test survey: its side and the distance to the nearest PA survey.

    An empty PA dataset routes everything out-of-distribution with an
    infinite nearest distance. Rows follow the test dataset, i.e. survey id.
    ``index`` may carry a prebuilt index over ``pa_dataset``.
    """
    GateConfig(gate_radius_km)
    if len(pa_dataset) == 0:
        nearest = np.full(len(test_dataset), math.inf)
    else:
        index = GeoIndex.from_dataset(pa_dataset) if index is None else index
        _, dists = index.knn_query_many(np.radians(test_dataset.lats), np.radians(test_dataset.lons), 1)
        nearest = dists[:, 0]
    return Gate(test_dataset.ids, nearest, nearest <= gate_radius_km)


def moe_merge(gate: Gate, in_dist_predictions: RowSets, ood_predictions: RowSets) -> RowSets:
    """Route each survey to its assigned expert's prediction: row i of the result is ``gate.ids[i]``.

    Each expert's rows follow its own side's surveys in gate order; routing is the union of these disjoint rows.
    """
    return union_rows(len(gate), (np.flatnonzero(gate.in_mask), in_dist_predictions), (np.flatnonzero(~gate.in_mask), ood_predictions))


def write_assignments(gate: Gate, path: str) -> None:
    names = (Side.OUT_OF_DISTRIBUTION.value, Side.IN_DISTRIBUTION.value)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,side,nearestPaKm\n")
        for sid, inside, km in zip(gate.ids.tolist(), gate.in_mask.tolist(), gate.nearest_km.tolist()):
            f.write(f"{sid},{names[inside]},{km!r}\n")
