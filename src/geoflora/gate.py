"""Geographic expert router.

Test surveys with a presence-absence training survey within the gate radius
(10 km by default, boundary inclusive) are in-distribution; everything else
is out-of-distribution. Each survey then takes exactly its assigned expert's
prediction, with no mixing inside a survey.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geo import GeoIndex
from .ingest import Dataset, ParseError, RangeError, check_ids, csv_rows


class Side(enum.Enum):
    IN_DISTRIBUTION = "in_distribution"
    OUT_OF_DISTRIBUTION = "out_of_distribution"


class RoutingError(ValueError):
    """A survey is missing from its assigned expert's predictions."""


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


def assign(
    test_dataset: Dataset,
    pa_dataset: Dataset,
    gate_radius_km: float = GateConfig.gate_radius_km,
) -> list[GateAssignment]:
    """Per test survey: its side and the distance to the nearest PA survey.

    An empty PA dataset routes everything out-of-distribution with an
    infinite nearest distance. Output is ordered by survey id.
    """
    GateConfig(gate_radius_km)
    n = len(test_dataset)
    if len(pa_dataset) == 0:
        nearest = np.full(n, math.inf)
    else:
        index = GeoIndex.from_dataset(pa_dataset)
        _, dists = index.knn_query_many(np.radians(test_dataset.lats), np.radians(test_dataset.lons), 1)
        nearest = dists[:, 0]
    return [
        GateAssignment(
            int(test_dataset.ids[i]),
            Side.IN_DISTRIBUTION if nearest[i] <= gate_radius_km else Side.OUT_OF_DISTRIBUTION,
            float(nearest[i]),
        )
        for i in range(n)
    ]


def moe_merge(
    assignments: list[GateAssignment],
    in_dist_predictions: Mapping[int, frozenset[int]],
    ood_predictions: Mapping[int, frozenset[int]],
) -> dict[int, frozenset[int]]:
    """Route each survey to its assigned expert's prediction."""
    out: dict[int, frozenset[int]] = {}
    for a in assignments:
        source = in_dist_predictions if a.side is Side.IN_DISTRIBUTION else ood_predictions
        if a.survey_id not in source:
            raise RoutingError(f"survey {a.survey_id} missing from {a.side.value} predictions")
        out[a.survey_id] = frozenset(source[a.survey_id])
    return out


def write_assignments(assignments: list[GateAssignment], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,side,nearestPaKm\n")
        for a in assignments:
            km = "inf" if math.isinf(a.nearest_pa_km) else repr(a.nearest_pa_km)
            f.write(f"{a.survey_id},{a.side.value},{km}\n")


def read_assignments(path: str) -> list[GateAssignment]:
    """Read an assignment file; a malformed row is rejected with its location.

    Ids must pass ``check_ids``; a distance must be ``inf`` or a finite value >= 0.
    """
    out = []
    for line, row in csv_rows(path, ("surveyId", "side", "nearestPaKm")):
        try:
            a = GateAssignment(int(row[0]), Side(row[1]), float(row[2]))
        except ValueError as exc:
            raise ParseError(f"{path}:{line}: malformed row: {exc}") from None
        check_ids(path, line, row[0], a.survey_id)
        if not a.nearest_pa_km >= 0:  # written so that NaN fails too
            raise ParseError(f"{path}:{line}: malformed row: nearestPaKm must be >= 0 or inf, got {row[2]}")
        out.append(a)
    return out
