"""Per-survey, per-species scores.

Two sources: a neighbour-frequency baseline (the fraction of a test point's
k nearest training surveys containing each species, following the prior that
geographic proximity implies ecological similarity) and score files produced
by external models. Either way the result is a sparse score matrix with
values in [0, 1]; absent entries are zero. The baseline fills the matrix's
CSR arrays from one sparse product (``neighbor_species_counts``) over the
rows of a kNN query, which the neighbour votes may share (``nearest``).
Rows ascend by survey id and species, which the constructor only checks:
``load_scores`` sorts a file once, the baseline calls ``sort_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .geo import GeoIndex
from .ingest import Dataset, Layout, ParseError, RangeError, SpeciesCatalog, check_rows, int_text, join_text, read_table, text_table

# Rows formatted per write in ``save_scores``; one join over the whole matrix costs tens of MB.
_SAVE_CHUNK_ROWS = 256

_SCORE_LAYOUT = Layout(("surveyId", "speciesId", "score"), (np.int64, np.int64, np.float64))


@dataclass(frozen=True)
class PredictConfig:
    """Baseline settings: ``k`` neighbours per test survey."""

    k: int = 10

    def __post_init__(self) -> None:
        if not self.k >= 1:  # written so that NaN fails too
            raise RangeError("k", ">= 1", self.k)


class ScoreMatrix:
    """Sparse survey x species scores in CSR form; stored values in [0, 1].

    Row i holds survey ``ids[i]`` with species ``species[indptr[i]:indptr[i + 1]]`` scored
    ``scores[indptr[i]:indptr[i + 1]]``; ids ascend strictly, and so do each row's species. The arrays are read-only.
    """

    def __init__(self, num_species: int, ids=(), indptr=(0,), species=(), scores=()):
        """Check the arrays once, vectorised, by ``check_rows``' rule; producers order the rows, the constructor sorts nothing."""
        if num_species < 0:
            raise ValueError("num_species must be >= 0")
        self.num_species = int(num_species)
        ids, indptr, species = (np.asarray(a, dtype=np.int64) for a in (ids, indptr, species))
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != species.shape:
            raise ValueError("column lengths disagree")
        check_rows(ids, indptr, species)
        bad = np.flatnonzero((species < 0) | (species >= self.num_species))
        if bad.size:
            raise ValueError(f"species index {species[bad[0]]} out of range [0, {self.num_species})")
        bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
        if bad.size:
            sid = ids[np.searchsorted(indptr, bad[0], side="right") - 1]
            raise ValueError(f"score {scores[bad[0]]} for survey {sid}, species {species[bad[0]]} outside [0, 1]")
        # read-only views: the caller's arrays, such as a dataset's ids, stay writeable
        self.ids, self.indptr, self.species, self.scores = (a.view() for a in (ids, indptr, species, scores))
        for a in (self.ids, self.indptr, self.species, self.scores):
            a.flags.writeable = False

    def row(self, survey_id: int) -> dict[int, float]:
        i = int(np.searchsorted(self.ids, survey_id))
        if i == self.ids.size or self.ids[i] != survey_id:
            raise KeyError(survey_id)
        a, b = self.indptr[i], self.indptr[i + 1]
        return dict(zip(self.species[a:b].tolist(), self.scores[a:b].tolist()))

    def survey_ids(self) -> list[int]:
        return self.ids.tolist()

    def __len__(self) -> int:
        return int(self.ids.size)

    def __eq__(self, other) -> bool:
        same = isinstance(other, ScoreMatrix) and self.num_species == other.num_species
        return same and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in ("ids", "indptr", "species", "scores"))


def nearest(reference: Dataset, lats_deg, lons_deg, k: int, neighbors: np.ndarray | None = None) -> np.ndarray:
    """Positions in ``reference`` of each query point's min(k, n) nearest surveys, nearest first.

    ``neighbors`` may carry the positions of a query at a larger k over the
    same reference and points; its first columns are the answer, as
    ``GeoIndex.knn_query_many`` guarantees. Otherwise one index is built and
    queried.
    """
    if neighbors is None:
        return GeoIndex.from_dataset(reference).knn_query_many(np.radians(lats_deg), np.radians(lons_deg), k)[0]
    if len(neighbors) != np.size(lats_deg) or neighbors.shape[1] < min(k, len(reference)):
        raise ValueError(f"neighbors must have one row per query point and at least {min(k, len(reference))} columns")
    return neighbors[:, :k]


def neighbor_species_counts(reference: Dataset, pos: np.ndarray) -> sparse.csr_matrix:
    """How many of the reference surveys at each row of kNN positions ``pos`` hold each species.

    Returns the counts as a rows x species CSR matrix: a selection matrix
    with a 1 per neighbour of each row times the reference's species CSR.
    """
    (m, kk), n = pos.shape, len(reference)
    select = sparse.csr_matrix((np.ones(pos.size, dtype=np.int32), pos.ravel(), np.arange(m + 1) * kk), shape=(m, n))
    sp_idx = reference.indices
    species = sparse.csr_matrix((np.ones(sp_idx.size, dtype=np.int32), sp_idx, reference.indptr), shape=(n, int(sp_idx.max(initial=-1)) + 1))
    return select @ species


def neighbor_frequency_predict(
    train: Dataset, test: Dataset, k: int, *, num_species: int | None = None, neighbors: np.ndarray | None = None
) -> ScoreMatrix:
    """Score species by their frequency among each test point's k nearest trains.

    score(t, s) = (# of t's k nearest training surveys containing s) / k,
    with neighbours resolved deterministically (distance, then survey id).
    When the training set holds fewer than k surveys, all of them vote and
    the denominator shrinks to match. ``neighbors`` may carry the test
    points' kNN positions over ``train`` at any k' >= k (see ``nearest``).
    """
    if len(train) == 0:
        raise ValueError("training dataset is empty")
    pos = nearest(train, test.lats, test.lons, k, neighbors)
    counts = neighbor_species_counts(train, pos)
    counts.sort_indices()  # scipy leaves a product's rows in any order
    num_species = counts.shape[1] if num_species is None else num_species
    return ScoreMatrix(num_species, test.ids, counts.indptr, counts.indices, counts.data / pos.shape[1])


def save_scores(matrix: ScoreMatrix, path: str, catalog: SpeciesCatalog) -> None:
    """Write scores as surveyId,speciesId,score triplets (raw species ids), ordered by survey then species.

    Load after save restores every stored entry exactly (scores as their
    shortest ``repr``); rows holding no entries have nothing to serialise and
    are dropped.
    """
    raw = join_text(len(catalog), b",", int_text(catalog.dense_to_raw), b",")
    with open(path, "wb") as f:
        f.write(",".join(_SCORE_LAYOUT.header).encode() + b"\n")
        for start in range(0, len(matrix), _SAVE_CHUNK_ROWS):
            ids, ptr = matrix.ids[start : start + _SAVE_CHUNK_ROWS], matrix.indptr[start : start + _SAVE_CHUNK_ROWS + 1]
            entry = slice(ptr[0], ptr[-1])  # species ascend within each row, so their raw ids do too
            bits, inv = np.unique(matrix.scores[entry].view(np.int64), return_inverse=True)  # one repr per bit pattern
            score = text_table([f"{v!r}\n" for v in bits.view(np.float64).tolist()])
            survey = np.repeat(np.arange(ids.size), np.diff(ptr))
            text = join_text(survey.size, *(np.take(t, i, axis=0) for t, i in ((int_text(ids), survey), (raw, matrix.species[entry]), (score, inv))))
            f.write(text[text != 0])


def load_scores(path: str, catalog: SpeciesCatalog) -> ScoreMatrix:
    """Read a triplet score file back into a matrix; a species id absent from the catalog or a score outside [0, 1]
    (the first such row; in one row, the species), then a repeated (survey, species) pair is rejected with its location."""
    sid, raw, score, lines = read_table(path, [_SCORE_LAYOUT])
    dense, known = catalog.lookup(raw)
    bad = np.flatnonzero(~known | ~((score >= 0.0) & (score <= 1.0)))
    if bad.size:
        e = bad[0]
        if not known[e]:
            raise ParseError(f"{path}:{lines[e]}: unknown species id {raw[e]}")
        raise ParseError(f"{path}:{lines[e]}: score {float(score[e])} for survey {sid[e]}, species {raw[e]} outside [0, 1]")
    ids, survey, row_len = np.unique(sid, return_inverse=True, return_counts=True)
    key = survey * len(catalog) + dense  # the (survey id, species) pair as one number
    order = np.argsort(key, kind="stable")  # stable: a repeated pair keeps its file order
    dup = np.flatnonzero(np.diff(key[order]) == 0)
    if dup.size:
        e = order[dup + 1].min()  # the first repeat in the file
        raise ParseError(f"{path}:{lines[e]}: duplicate score for survey {sid[e]}, species {raw[e]}")
    return ScoreMatrix(len(catalog), ids, np.concatenate(([0], np.cumsum(row_len))), dense[order], score[order])
