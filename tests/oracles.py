"""Independent reference implementations used to check the fast paths.

The spatial oracles are direct O(n) / O(n^2) scans with no index structure.
They reuse the library's haversine function for distance values (so boundary
and tie comparisons are bit-identical); the formula itself is validated
separately against ``reference_haversine_km``, a from-scratch scalar
implementation.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from typing import Mapping

import numpy as np

from geoflora.geo import GeoPoint, haversine_km_arrays
from geoflora.ingest import Dataset, RowSets, SpeciesCatalog
from geoflora.postprocess import TopKConfig
from geoflora.predictor import _SAVE_CHUNK_ROWS, ScoreMatrix
from geoflora.pseudolabel import LAT_KM_PER_DEG, LON_KM_PER_DEG_AT_EQUATOR, MergeConfig, MergeMode


def reference_haversine_km(lat1_deg: float, lon1_deg: float, lat2_deg: float, lon2_deg: float) -> float:
    """Scalar haversine written independently of the library (math module)."""
    r = 6371.0
    p1 = math.radians(lat1_deg)
    p2 = math.radians(lat2_deg)
    dp = p2 - p1
    dl = math.radians(lon2_deg) - math.radians(lon1_deg)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * r * math.asin(min(1.0, math.sqrt(a)))


def brute_radius(ids, lats_deg, lons_deg, center: GeoPoint, radius_km: float) -> list[tuple[int, float]]:
    """Linear scan: every point with haversine <= radius, sorted (d, id)."""
    ids = np.asarray(ids, dtype=np.int64)
    d = haversine_km_arrays(center.lat_rad, center.lon_rad, np.radians(lats_deg), np.radians(lons_deg))
    keep = np.flatnonzero(d <= radius_km)
    order = np.lexsort((ids[keep], d[keep]))
    return [(int(i), float(x)) for i, x in zip(ids[keep][order], d[keep][order])]


def brute_knn(ids, lats_deg, lons_deg, center: GeoPoint, k: int) -> list[tuple[int, float]]:
    """Linear scan: full sort by (d, id), first min(k, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    d = haversine_km_arrays(center.lat_rad, center.lon_rad, np.radians(lats_deg), np.radians(lons_deg))
    order = np.lexsort((ids, d))[: min(k, ids.size)]
    return [(int(ids[o]), float(d[o])) for o in order]


def _neighbor_counts(reference: Dataset, lat_deg: float, lon_deg: float, k: int) -> tuple[Counter, int]:
    """Species counts over the min(k, n) nearest reference surveys (``brute_knn``), and that denominator."""
    near = brute_knn(reference.ids, reference.lats, reference.lons, GeoPoint.from_degrees(lat_deg, lon_deg), k)
    position = {int(sid): i for i, sid in enumerate(reference.ids)}
    counts: Counter = Counter()
    for sid, _ in near:
        counts.update(reference.species[position[sid]])
    return counts, len(near)


def neighbor_frequency_oracle(train: Dataset, test: Dataset, k: int) -> dict[int, dict[int, float]]:
    """Per test survey, count / denominator of each species among its k nearest training surveys."""
    out = {}
    for i, sid in enumerate(test.ids):
        counts, denom = _neighbor_counts(train, float(test.lats[i]), float(test.lons[i]), k)
        out[int(sid)] = {sp: c / denom for sp, c in counts.items()}
    return out


def neighbor_vote_oracle(reference: Dataset, lats_deg, lons_deg, neighbor_count: int, min_frequency: float, strictly_greater: bool) -> list[frozenset[int]]:
    """Per query point, the species whose frequency among its nearest reference surveys clears ``min_frequency``."""
    out = []
    for lat, lon in zip(lats_deg, lons_deg):
        if len(reference) == 0:
            out.append(frozenset())
            continue
        counts, denom = _neighbor_counts(reference, float(lat), float(lon), neighbor_count)
        freq = {sp: c / denom for sp, c in counts.items()}
        out.append(frozenset(sp for sp, f in freq.items() if (f > min_frequency if strictly_greater else f >= min_frequency)))
    return out


def threshold_top_k_oracle(scores: Mapping[int, float], cfg: TopKConfig) -> frozenset[int]:
    """Species whose score clears the threshold, capped at the K best.

    Filtering happens before capping: candidates are everything at or above
    the threshold, ranked by (descending score, ascending species index) and
    truncated to ``k_cap``. With ``fallback_top1`` an otherwise empty
    selection degrades to the single best-scoring species.
    """
    ranked = sorted(((sp, val) for sp, val in scores.items() if val >= cfg.threshold), key=lambda e: (-e[1], e[0]))
    if not ranked and cfg.fallback_top1 and scores:
        best = min(scores.items(), key=lambda e: (-e[1], e[0]))
        return frozenset({best[0]})
    return frozenset(sp for sp, _ in ranked[: cfg.k_cap])


def box_members_oracle(dataset: Dataset, i: int, cfg: MergeConfig) -> np.ndarray:
    """Positions of every survey inside survey i's patch box (pairwise test)."""
    lat0 = dataset.lats[i]
    lon0 = dataset.lons[i]
    dlat_km = np.abs(dataset.lats - lat0) * LAT_KM_PER_DEG
    dl = np.abs(dataset.lons - lon0)
    dl = np.minimum(dl, 360.0 - dl)
    dlon_km = dl * (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lat0)))
    return np.flatnonzero((dlat_km <= cfg.box_half_km) & (dlon_km <= cfg.box_half_km))


def merge_points_oracle(dataset: Dataset, cfg: MergeConfig) -> list[tuple]:
    """Quadratic aggregation reference: box predicate on every pair, no index.

    Returns (survey_id, lat, lon, species, source_ids) tuples in processing
    order.
    """
    n = len(dataset)
    members = [box_members_oracle(dataset, i, cfg) for i in range(n)]

    counts: dict[int, int] = {}
    for s in dataset.species:
        for sp in s:
            counts[sp] = counts.get(sp, 0) + 1

    order = sorted(range(n), key=lambda i: (-len(dataset.species[i]), int(dataset.ids[i])))
    consumed = [False] * n
    out = []
    for i in order:
        if consumed[i]:
            if cfg.mode is MergeMode.STRICT:
                continue
            if cfg.mode is MergeMode.BALANCED and not any(
                counts[sp] < cfg.rare_count_threshold for sp in dataset.species[i]
            ):
                continue
        union: set[int] = set()
        for j in members[i]:
            union.update(dataset.species[j])
            if cfg.mode is not MergeMode.LOOSE:
                consumed[j] = True
        out.append(
            (
                int(dataset.ids[i]),
                float(dataset.lats[i]),
                float(dataset.lons[i]),
                frozenset(union),
                tuple(sorted(int(dataset.ids[j]) for j in members[i])),
            )
        )
    return out


def samples_f1_oracle(truth: dict, predicted: dict) -> float:
    """Set-arithmetic recount of the samples-averaged F1."""
    scores = []
    for sid in sorted(truth):
        t = set(truth[sid])
        q = set(predicted[sid])
        tp = len(t & q)
        fp = len(q - t)
        fn = len(t - q)
        denom = tp + (fp + fn) / 2.0
        scores.append(1.0 if denom == 0 else tp / denom)
    total = 0.0
    for score in scores:  # left to right: from Python 3.12 on, sum() of floats is compensated
        total += score
    return total / len(scores)


def parse_occurrences_oracle(path: str) -> dict[int, tuple[float, float, set[int]]]:
    """Survey id -> (its first row's lat, lon, the union of its raw species ids), row by row with the csv module.

    Reads long and wide files alike (a long row's species field is a one-id list); the file must be valid.
    """
    out: dict[int, tuple[float, float, set[int]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows = csv.reader(f)
        next(rows)
        for row in rows:
            if row:
                survey = out.setdefault(int(row[0]), (float(row[1]), float(row[2]), set()))
                survey[2].update(int(tok) for tok in row[3].split())
    return out


# The writers as one f-string or repr per row; the library formats the same bytes from whole columns.


def write_dataset_oracle(dataset: Dataset, path: str, catalog: SpeciesCatalog) -> None:
    """``ingest.write_dataset``'s file, one f-string per survey."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,lat,lon,speciesIds\n")
        raw, ptr = catalog.dense_to_raw[dataset.indices].tolist(), dataset.indptr.tolist()
        for sid, lat, lon, a, b in zip(dataset.ids.tolist(), dataset.lats.tolist(), dataset.lons.tolist(), ptr, ptr[1:]):
            f.write(f"{sid},{lat:.7f},{lon:.7f},{' '.join(map(str, raw[a:b]))}\n")


def save_scores_oracle(matrix: ScoreMatrix, path: str, catalog: SpeciesCatalog) -> None:
    """``predictor.save_scores``' file, one ``repr`` per distinct score bit pattern and a string join per chunk."""
    raw_txt = np.array([f",{r}," for r in catalog.dense_to_raw.tolist()], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,speciesId,score\n")
        for start in range(0, len(matrix), _SAVE_CHUNK_ROWS):
            ids, ptr = matrix.ids[start : start + _SAVE_CHUNK_ROWS], matrix.indptr[start : start + _SAVE_CHUNK_ROWS + 1]
            row_len = np.diff(ptr)
            entry = slice(ptr[0], ptr[-1])  # species ascend within each row, so their raw ids do too
            bits, inv = np.unique(matrix.scores[entry].view(np.int64), return_inverse=True)  # one repr per bit pattern
            sid_txt = np.repeat(np.array([str(i) for i in ids.tolist()], dtype=object), row_len)
            score_txt = np.array([f"{v!r}\n" for v in bits.view(np.float64).tolist()], dtype=object)[inv]
            f.write("".join(np.column_stack((sid_txt, raw_txt[matrix.species[entry]], score_txt)).ravel().tolist()))


def write_submission_oracle(ids: np.ndarray, sets: RowSets, path: str, catalog: SpeciesCatalog) -> None:
    """``postprocess.write_submission``'s file, one f-string per survey."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,predictions\n")
        raw, ptr = catalog.dense_to_raw[sets.indices].tolist(), sets.indptr.tolist()
        for sid, a, b in zip(np.asarray(ids).tolist(), ptr[:-1], ptr[1:], strict=True):
            f.write(f"{sid},{' '.join(map(str, raw[a:b]))}\n")
