"""Per-survey, per-species scores.

Two sources: a neighbour-frequency baseline (the fraction of a test point's
k nearest training surveys containing each species, following the prior that
geographic proximity implies ecological similarity) and score files produced
by external models. Either way the result is a sparse score matrix with
values in [0, 1]; absent entries are zero.
"""

from __future__ import annotations

import csv
from collections import Counter
from typing import Mapping

import numpy as np

from .geo import GeoIndex
from .ingest import Dataset, ParseError, SpeciesCatalog, check_ids

# Neighbours per test survey in the baseline.
DEFAULT_K = 10


class ScoreMatrix:
    """Sparse survey x species scores; row ids unique, stored values in [0, 1]."""

    def __init__(self, num_species: int):
        if num_species < 0:
            raise ValueError("num_species must be >= 0")
        self.num_species = int(num_species)
        self._rows: dict[int, dict[int, float]] = {}

    def add_row(self, survey_id: int, scores: Mapping[int, float]) -> None:
        if survey_id in self._rows:
            raise ValueError(f"duplicate survey id {survey_id}")
        row: dict[int, float] = {}
        for sp, val in scores.items():
            if not 0 <= sp < self.num_species:
                raise ValueError(f"species index {sp} out of range [0, {self.num_species})")
            val = float(val)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"score {val} for survey {survey_id}, species {sp} outside [0, 1]")
            row[int(sp)] = val
        self._rows[int(survey_id)] = row

    def row(self, survey_id: int) -> dict[int, float]:
        return dict(self._rows[survey_id])

    def survey_ids(self) -> list[int]:
        return sorted(self._rows)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry as flat arrays, rows in survey-id order.

        Returns each row's entry count, then the species index and the score
        of every entry, row after row.
        """
        rows = [self._rows[sid] for sid in self.survey_ids()]
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        total = int(counts.sum())
        species = np.fromiter((sp for row in rows for sp in row), np.int64, total)
        scores = np.fromiter((val for row in rows for val in row.values()), np.float64, total)
        return counts, species, scores

    def __contains__(self, survey_id: int) -> bool:
        return survey_id in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScoreMatrix)
            and self.num_species == other.num_species
            and self._rows == other._rows
        )


def neighbor_frequency_predict(train: Dataset, test: Dataset, k: int, *, num_species: int | None = None) -> ScoreMatrix:
    """Score species by their frequency among each test point's k nearest trains.

    score(t, s) = (# of t's k nearest training surveys containing s) / k,
    with neighbours resolved deterministically (distance, then survey id).
    When the training set holds fewer than k surveys, all of them vote and
    the denominator shrinks to match.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(train) == 0:
        raise ValueError("training dataset is empty")
    if num_species is None:
        num_species = 1 + max((max(s) for s in train.species if s), default=-1)
    matrix = ScoreMatrix(num_species)
    if len(test) == 0:
        return matrix
    index = GeoIndex.from_dataset(train)
    pos, _ = index.knn_query_many(np.radians(test.lats), np.radians(test.lons), k)
    denom = pos.shape[1]
    for i in range(len(test)):
        counts: Counter[int] = Counter()
        for p in pos[i]:
            counts.update(train.species[p])
        matrix.add_row(int(test.ids[i]), {sp: c / denom for sp, c in counts.items()})
    return matrix


def save_scores(matrix: ScoreMatrix, path: str, catalog: SpeciesCatalog) -> None:
    """Write scores as surveyId,speciesId,score triplets (raw species ids).

    Load after save restores every stored entry exactly; rows holding no
    entries have nothing to serialise and are dropped.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,speciesId,score\n")
        for sid in matrix.survey_ids():
            row = matrix.row(sid)
            for raw, val in sorted((catalog.to_raw(sp), val) for sp, val in row.items()):
                f.write(f"{sid},{raw},{val!r}\n")


def load_scores(path: str, catalog: SpeciesCatalog) -> ScoreMatrix:
    """Read a triplet score file back into a matrix.

    Scores outside [0, 1] and species ids absent from the catalog are
    rejected with the offending location.
    """
    rows: dict[int, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["surveyId", "speciesId", "score"]:
            raise ParseError(f"{path}:1: expected header surveyId,speciesId,score, got {header!r}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{line}: expected 3 fields, got {len(row)}")
            try:
                sid = int(row[0])
                raw = int(row[1])
                val = float(row[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: malformed row: {exc}") from None
            check_ids(path, line, row[0] + row[1], sid, raw)
            if not row[2].isascii() or "_" in row[2]:  # float() also reads "_" separators and non-ASCII digits
                raise ParseError(f"{path}:{line}: malformed row: score must be an ASCII decimal number")
            if raw not in catalog.raw_to_dense:
                raise ParseError(f"{path}:{line}: unknown species id {raw}")
            if not 0.0 <= val <= 1.0:
                raise ParseError(f"{path}:{line}: score {val} for survey {sid}, species {raw} outside [0, 1]")
            rows.setdefault(sid, {})[catalog.to_dense(raw)] = val
    matrix = ScoreMatrix(len(catalog))
    for sid in sorted(rows):
        matrix.add_row(sid, rows[sid])
    return matrix
