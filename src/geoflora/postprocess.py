"""Score-to-species decisions and neighbour-vote augmentation.

Threshold Top-K keeps species whose score clears the threshold, ranked by
descending score (ties to the lower species index) and capped at K.
Neighbour voting adds species that appear in more than a configured fraction
of the nearest reference surveys; the in-distribution side votes over raw PA
surveys (5 neighbours, > 80 %), the out-of-distribution side over strictly
merged PO surveys (6 neighbours, > 50 %). The final prediction is the
deduplicated union of both.

On CSR arrays, ``apply_top_k`` and ``grid_search_top_k`` share one ranking kernel,
which ranks only the entries Threshold Top-K can keep: ``apply_top_k`` those at
its threshold, the grid search those at its smallest threshold, once for the
whole grid. Votes threshold ``neighbor_species_counts``.
Top-K picks (rows by score-matrix id), votes and their union (rows by test id,
the order ``write_submission`` writes) are ``RowSets``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import (
    Dataset,
    Layout,
    ParseError,
    RangeError,
    RowSets,
    SpeciesCatalog,
    preview_ids,
    read_table,
    union_rows,
    write_id_lists,
)
from .losses import check_same_surveys, mean_f1
from .predictor import ScoreMatrix, nearest, neighbor_species_counts

# Grid-search defaults for tuning the in-distribution Threshold Top-K on a
# held-out split.
DEFAULT_GRID_THRESHOLDS = tuple(round(0.1 + 0.05 * i, 2) for i in range(17))  # 0.1 .. 0.9
DEFAULT_GRID_KCAPS = tuple(range(5, 51, 5))

_SUBMISSION_LAYOUT = Layout(("surveyId", "predictions"), (np.int64,), ids="list")


@dataclass(frozen=True)
class TopKConfig:
    """Threshold Top-K settings; the defaults are the in-distribution side's."""

    threshold: float = 0.5
    k_cap: int = 25
    fallback_top1: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise RangeError("threshold", "in [0, 1]", self.threshold)
        if self.k_cap < 1:
            raise RangeError("k_cap", ">= 1", self.k_cap)


@dataclass(frozen=True)
class VoteConfig:
    """Neighbour-vote settings; the defaults are the in-distribution side's."""

    vote_neighbors: int = 5
    vote_min_freq: float = 0.8
    vote_inclusive: bool = False

    def __post_init__(self) -> None:
        if self.vote_neighbors < 1:
            raise RangeError("vote_neighbors", ">= 1", self.vote_neighbors)
        if not 0.0 < self.vote_min_freq <= 1.0:
            raise RangeError("vote_min_freq", "in (0, 1]", self.vote_min_freq)


# The out-of-distribution side's settings; the field defaults are the in-distribution side's.
OOD_TOP_K = TopKConfig(threshold=0.475)
OOD_VOTE = VoteConfig(vote_neighbors=6, vote_min_freq=0.5)


def neighbor_vote_many(lats_deg, lons_deg, reference: Dataset, cfg: VoteConfig, *, neighbors: np.ndarray | None = None) -> RowSets:
    """Species frequent among the nearest reference surveys of each query point: row i holds query i's votes.

    A species is voted in when its frequency among the ``vote_neighbors``
    nearest reference surveys exceeds ``vote_min_freq`` (or meets it when
    ``vote_inclusive`` is on). A reference smaller than the neighbour
    count uses every survey it has, shrinking the denominator.
    ``neighbors`` may carry the queries' kNN positions over ``reference`` at any k >= ``vote_neighbors`` (see ``nearest``).
    """
    pos = nearest(reference, lats_deg, lons_deg, cfg.vote_neighbors, neighbors)
    counts = neighbor_species_counts(reference, pos)
    freq = counts.data / pos.shape[1]
    keep = freq >= cfg.vote_min_freq if cfg.vote_inclusive else freq > cfg.vote_min_freq
    return RowSets(np.concatenate(([0], np.cumsum(keep)))[counts.indptr], counts.indices[keep])


def finalize(votes: RowSets, picks: RowSets, rows: np.ndarray) -> RowSets:
    """Each survey's votes united with its Top-K picks; ``picks[j]`` belongs to vote row ``rows[j]``."""
    return union_rows(len(votes), (np.arange(len(votes)), votes), (rows, picks))


def _first_best(matrix: ScoreMatrix) -> np.ndarray:
    """The position of each non-empty row's first best entry: its highest score at its lowest species index."""
    filled = np.flatnonzero(np.diff(matrix.indptr))
    starts = matrix.indptr[filled]
    if not starts.size:
        return starts
    best = np.maximum.reduceat(matrix.scores, starts)  # a row's segment runs to the next non-empty row's start
    at = np.flatnonzero(matrix.scores == np.repeat(best, np.diff(matrix.indptr)[filled]))
    return at[np.searchsorted(at, starts)]


def _ranked(matrix: ScoreMatrix, threshold: float, fallback_top1: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries Threshold Top-K can keep at ``threshold`` or above, ranked: their row pointers, then the row and
    the matrix position of each, by (row, descending score, species). Top-K keeps a prefix of each row.

    They are the entries scoring at least ``threshold`` and, with ``fallback_top1``, each non-empty row's first best
    entry, which is its first ranked entry.
    """
    keep = matrix.scores >= threshold
    if fallback_top1:
        keep[_first_best(matrix)] = True
    at = np.flatnonzero(keep)
    ptr = np.searchsorted(at, matrix.indptr)
    row = np.repeat(np.arange(len(matrix)), np.diff(ptr))
    return ptr, row, at[np.lexsort((-matrix.scores[at], row))]  # stable: equal scores keep the rows' species order


def _kept_counts(row: np.ndarray, score: np.ndarray, ranked_len: np.ndarray, threshold: float, k_cap, fallback_top1: bool) -> np.ndarray:
    """How many ranked entries of each row Threshold Top-K keeps (one result row per cap if ``k_cap`` is a column):
    those clearing the threshold, capped; with ``fallback_top1`` a non-empty row keeps at least its best entry.
    The ranking is ``_ranked``'s at this threshold or a lower one; ``ranked_len`` counts each row's entries in it."""
    cleared = np.bincount(row[score >= threshold], minlength=ranked_len.size)
    return np.minimum(np.minimum(np.maximum(cleared, int(fallback_top1)), ranked_len), k_cap)


def apply_top_k(matrix: ScoreMatrix, cfg: TopKConfig) -> RowSets:
    """Threshold Top-K over every row of a score matrix: row i holds survey ``matrix.ids[i]``'s picks, best first.

    Only the entries it can keep are ranked, so every one of them is kept but for the cap."""
    ptr, row, pos = _ranked(matrix, cfg.threshold, cfg.fallback_top1)
    kept = np.minimum(np.diff(ptr), cfg.k_cap)
    keep = np.arange(row.size) - ptr[row] < kept[row]
    return RowSets(np.concatenate(([0], np.cumsum(kept))), matrix.species[pos[keep]])


def side_predictions(
    matrix: ScoreMatrix, test: Dataset, reference: Dataset, top_k: TopKConfig, vote: VoteConfig, *, neighbors: np.ndarray | None = None
) -> RowSets:
    """Threshold Top-K over the scores united with neighbour votes over ``reference``.

    Row i of the result is survey ``test.ids[i]``. Score rows for other
    surveys are an error; a test survey without a score row gets its votes only.
    ``neighbors`` may carry the test surveys' kNN positions over ``reference`` (see ``neighbor_vote_many``).
    """
    extra = np.setdiff1d(matrix.ids, test.ids)
    if extra.size:
        raise ValueError(f"scores for surveys absent from the test set: {preview_ids(extra.tolist())}")
    votes = neighbor_vote_many(test.lats, test.lons, reference, vote, neighbors=neighbors)
    return finalize(votes, apply_top_k(matrix, top_k), np.searchsorted(test.ids, matrix.ids))


def grid_search_top_k(
    matrix: ScoreMatrix, truth: Dataset, thresholds: Sequence[float] = DEFAULT_GRID_THRESHOLDS,
    k_caps: Sequence[int] = DEFAULT_GRID_KCAPS, *, fallback_top1: bool = False,
) -> tuple[TopKConfig, float]:
    """Pick the (threshold, k_cap) pair maximising samples-averaged F1 against ``truth``'s species rows.

    ``truth`` holds the matrix's survey ids; its species indices beyond the
    matrix's are never predicted but count as true species.
    The grid is scanned in ascending (threshold, k_cap) order and only a
    strict improvement moves the winner, so the result is deterministic.
    The entries any grid point can keep are ranked once (``_ranked`` at the
    smallest threshold), and every point takes prefixes of that ranking: a
    running count of true species within each row gives TP for any prefix
    length. Each point's F1 equals ``samples_f1`` of
    ``apply_top_k``'s rows by survey id bit for bit: both are ``mean_f1`` over
    the surveys in id order.
    """
    thresholds, k_caps = sorted(thresholds), sorted(k_caps)
    grid = [TopKConfig(thr, k_cap, fallback_top1) for thr in thresholds for k_cap in k_caps]
    if not grid:
        raise ValueError("empty grid")
    check_same_surveys(truth.ids.tolist(), matrix.survey_ids())
    n = len(matrix)

    ptr, row, pos = _ranked(matrix, thresholds[0], fallback_top1)
    # an entry is a hit when its (row, species) key is among the truth's keys; the matrix's keys ascend, so each
    # truth key is looked up among them (a truth species beyond the matrix's is never predicted)
    width = matrix.num_species
    keys = np.repeat(np.arange(n) * width, np.diff(matrix.indptr)) + matrix.species
    truth_len = np.diff(truth.indptr)
    truth_keys = (np.repeat(np.arange(n) * width, truth_len) + truth.indices)[truth.indices < width]
    at = np.searchsorted(keys, truth_keys)
    found = at < keys.size
    found[found] = keys[at[found]] == truth_keys[found]
    hit = np.zeros(keys.size, dtype=bool)
    hit[at[found]] = True
    del keys
    hits = np.concatenate(([0], np.cumsum(hit[pos])))
    score = matrix.scores[pos]
    ranked_len, ranked_start = np.diff(ptr), ptr[:-1]
    caps = np.array(k_caps, dtype=np.int64)[:, None]

    f1 = np.empty((len(thresholds), len(k_caps)))  # grid order when flattened
    for j, thr in enumerate(thresholds):
        kept = _kept_counts(row, score, ranked_len, thr, caps, fallback_top1)  # one row per k_cap
        f1[j] = mean_f1(hits[ranked_start + kept] - hits[ranked_start], kept, truth_len)
    best = int(np.argmax(f1))  # first maximum: only a strict improvement moves the winner
    return grid[best], float(f1.flat[best])


def write_submission(ids: np.ndarray, sets: RowSets, path: str, catalog: SpeciesCatalog) -> None:
    """Write surveyId,predictions rows in the given order, survey ``ids[i]`` predicting ``sets[i]`` as raw ids.

    Each row must ascend, as ``union_rows`` makes it, so that its raw ids ascend."""
    write_id_lists(path, ",".join(_SUBMISSION_LAYOUT.header), ids, (), sets, catalog)


def read_submission(path: str) -> dict[int, frozenset[int]]:
    """Read a submission file into per-survey raw-id sets; a survey id seen before is rejected at its first repeat."""
    sid, counts, raw, lines = read_table(path, [_SUBMISSION_LAYOUT])
    order = np.argsort(sid, kind="stable")  # a repeated id keeps its file order
    dup = np.flatnonzero(sid[order[1:]] == sid[order[:-1]])
    if dup.size:
        e = order[dup + 1].min()  # the first repeat in the file
        raise ParseError(f"{path}:{lines[e]}: duplicate survey id {sid[e]}")
    return dict(zip(sid.tolist(), RowSets(np.concatenate(([0], np.cumsum(counts))), raw)))
