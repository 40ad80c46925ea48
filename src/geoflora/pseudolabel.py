"""Patch-coverage label aggregation over presence-only surveys.

Every survey anchors a 640 m x 640 m ground patch (the footprint of the
satellite tile paired with it). Aggregation walks surveys in descending
species-count order and, for each eligible anchor, unions the species of all
surveys whose coordinates fall inside the anchor's patch box. Because each
constituent lies inside the anchor's patch, the union introduces no positive
label noise.

The patch box is evaluated in locally scaled degree space: latitude
differences at ``LAT_KM_PER_DEG`` (111.4 km/degree), longitude differences
at ``LON_KM_PER_DEG_AT_EQUATOR`` (111.32 km/degree) scaled by cos(anchor
latitude), both compared inclusively against the half-side. Longitude
differences wrap at the antimeridian.

Anchor eligibility is mode dependent:
  loose     every survey anchors a merged record;
  balanced  a survey already absorbed by an earlier anchor is skipped unless
            it contains a rare species (occurrence count below the
            configured threshold), which keeps rare species represented;
  strict    absorbed surveys never anchor again.

Consumption only affects anchor eligibility; constituents are always drawn
from the full dataset, so every survey's species reach at least one output
record under every mode.

``merge_points`` computes this walk as an array program, record for record
equal to running it survey by survey:
  pairs    a band sweep lists every pair (anchor, member) of distinct surveys
           whose anchor's box holds the member: surveys sorted once by the
           int64 key latitude band (one half-side high) << 36 plus longitude on
           a 2**-26 degree grid; one window per band on that grid finds each
           candidate pair once, and one exact box test cuts both directions;
  anchors  rounds over the pairs whose anchor comes earlier in processing
           order decide the anchors; surveys still open after ``_MAX_ROUNDS``
           rounds are walked one by one (loose mode needs no walk);
  unions   each anchor's member row, itself plus its pairs, times the species
           CSR, a boolean sparse product, gives every union at once.
The result, ``MergedSet``, keeps those arrays and builds a ``MergedRecord``
only when one is asked for. ``neighbors_in_patch`` gives one survey's members
by the same box test over the whole dataset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .geo import _finite_extent
from .ingest import Dataset, RangeError, RowSets, SurveyRecord, take_rows

# Degree-to-km scales of the patch box.
LAT_KM_PER_DEG = 111.4
LON_KM_PER_DEG_AT_EQUATOR = 111.32

# Rounds of the anchor walk before it finishes the surveys still open one by one.
_MAX_ROUNDS = 64

# Positions past a window's start that the member sweep probes one by one before a binary search.
_PROBES = 2


class MergeMode(enum.Enum):
    LOOSE = "loose"
    BALANCED = "balanced"
    STRICT = "strict"


@dataclass(frozen=True)
class MergeConfig:
    """Aggregation parameters."""

    mode: MergeMode = MergeMode.BALANCED
    box_half_km: float = 0.32  # half the side of the 640 m patch
    rare_count_threshold: int = 100

    def __post_init__(self) -> None:
        if not self.box_half_km > 0:  # written so that NaN fails too
            raise RangeError("box_half_km", "positive", self.box_half_km)
        if not self.rare_count_threshold >= 1:
            raise RangeError("rare_count_threshold", ">= 1", self.rare_count_threshold)


@dataclass(frozen=True, slots=True)
class MergedRecord:
    """One aggregated survey: the anchor's identity plus the unioned species."""

    survey_id: int
    lat: float
    lon: float
    species: frozenset[int]
    source_ids: tuple[int, ...]


@dataclass(frozen=True)
class MergeReport:
    surveys_in: int
    surveys_out: int
    consumed: int
    species_in: int
    species_out: int
    mean_species_in: float
    mean_species_out: float


def _wrapped_dlon_deg(lon_a, lon_b) -> np.ndarray:
    d = np.abs(np.asarray(lon_a, dtype=np.float64) - np.asarray(lon_b, dtype=np.float64))
    return np.minimum(d, 360.0 - d)


def _padded_deg(deg):
    """A band height or window half-width of the member sweep (degrees), padded so that rounding drops no member.

    The box test passes offsets up to (1 + 3u) times the bound (u = 2**-53). A band index ``floor(lat / h)`` is
    off by at most 90u / h bands, a float window end or a wrapped longitude difference by 2**-45 degrees: the pad of
    1e-7 covers both once ``h`` and ``w`` are at least 2**-20 degrees, a floor that also keeps |band| < 2**27.
    """
    return np.maximum(deg * (1.0 + 1e-7), 2.0**-20)


def _in_box(cfg: MergeConfig, anchor_lats, anchor_lons, lats, lons) -> np.ndarray:
    """The patch-box predicate, elementwise: is each point inside its anchor's box? (degrees)"""
    dlat_km = np.abs(lats - anchor_lats) * LAT_KM_PER_DEG
    dlon_km = _wrapped_dlon_deg(lons, anchor_lons) * (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(anchor_lats)))
    return (dlat_km <= cfg.box_half_km) & (dlon_km <= cfg.box_half_km)


def neighbors_in_patch(dataset: Dataset, primary: SurveyRecord, cfg: MergeConfig, *, index: object = None) -> list[SurveyRecord]:
    """All surveys inside the primary's patch box, sorted by survey id: the merge's box test applied to every survey.

    The primary itself is always a member. ``index``, a prebuilt index that callers may pass, is unused.
    """
    members = np.flatnonzero(_in_box(cfg, primary.lat, primary.lon, dataset.lats, dataset.lons))
    return [dataset.record(p) for p in members]


def _runs(key, start, hi):
    """Position pairs (i, p) for each p from ``start[i]`` on while ``key[p] <= hi[i]``. The runs not empty at their
    start are probed ``_PROBES`` positions on (``key`` ends with a sentinel above every ``hi``); runs still open take
    ``searchsorted``. Positions come in ``start``'s dtype."""
    i = np.flatnonzero(key[start] <= hi)
    start, hi = start[i], hi[i]
    end = start + 1
    for _ in range(_PROBES):
        end += key[end] <= hi
    more = np.flatnonzero(key[end] <= hi)
    end[more] = np.searchsorted(key, hi[more], "right")
    end -= start
    start -= (np.cumsum(end) - end).astype(start.dtype)  # the run's first position, less the pairs before it
    p = np.repeat(start, end)
    p += np.arange(p.size, dtype=p.dtype)
    return np.repeat(i.astype(p.dtype), end), p


def _box_pairs(dataset: Dataset, cfg: MergeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (anchor, member) of distinct surveys where the anchor's box holds the member, as two arrays of
    dataset positions, and the positions of the surveys whose window crosses +-180 degrees.

    Surveys sorted once by the int64 key ``(b << 36) + 2**35 + floor(lon * 2**26)``, band ``b = floor(lat / h)``. A
    band's window ``W``, the ``_padded_deg`` box half-width at its largest |lat|, bounds its surveys' windows ``w``; on
    the grid it is ``ceil(min(W, 360) * 2**26)``, so each grid window holds its float window, and a band pair (b, b + 1)
    takes the larger ``W``. So a pair is a candidate from its earlier survey in key order, whichever box holds the
    other: in its own band from the next position up to ``key + W``, in band b + 1 within ``key + 2**36 -+ W``. Bands
    2**36 apart keep every such window off the other bands' keys, so the clip to +-180 is implicit. Each candidate is
    tested once for |dlat| and wrapped |dlon|, then with both directions' cos scale. Only the surveys within ``W`` of
    +-180, a prefix and a suffix of each band, compute their own ``w``; those whose window crosses +-180 anchor no
    candidate and take bands b - 1 to b + 1 whole. |b| < 2**27, so keys stay below 2**63.
    """
    lats, lons, n = dataset.lats, dataset.lons, len(dataset)
    if np.greater(_finite_extent(lats, lons), (90.0, 180.0)).any():
        raise ValueError("coordinate out of range")
    half, pos = cfg.box_half_km, np.int32 if n < 2**31 else np.int64
    key = np.floor(lats / _padded_deg(half / LAT_KM_PER_DEG)).astype(np.int64) << 36
    key += np.floor(lons * 2.0**26).astype(np.int64) + (1 << 35)
    surv = np.argsort(key).astype(pos)
    key = np.append(key[surv], np.iinfo(np.int64).max)  # the sentinel ends every run
    first = np.flatnonzero(np.diff(key[:-1] >> 36, prepend=(key[:1] >> 36) - 1)).astype(pos)  # each band's first position
    sizes, east = np.diff(first, append=n), ((key[first] >> 36) << 36) + (1 << 35) + (180 << 26)  # east: key of lon 180
    w = _padded_deg(half / (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(np.maximum.reduceat(np.abs(lats[surv]), first)))))
    w = np.ceil(np.minimum(w, 360.0) * 2.0**26).astype(np.int64)
    edge = np.union1d(_runs(key, first, east - (360 << 26) + w)[1], _runs(key, np.searchsorted(key, east - 1 - w).astype(pos), east)[1])
    e = surv[edge]
    far = edge[np.abs(lons[e]) + _padded_deg(half / (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lats[e])))) > 180.0]
    del edge, e, east
    forward = [_runs(key, np.arange(1, n + 1, dtype=pos), key[:-1] + np.repeat(w, sizes))]
    w = np.repeat(np.maximum(w, np.append(w[1:], 0)), sizes)  # W of (b, b + 1); an empty band b + 1 holds nothing
    hi = key[:-1] + (1 << 36)  # band b + 1
    lo = hi - w
    hi += w
    del w
    forward.append(_runs(key, np.searchsorted(key, lo).astype(pos), hi))
    del lo, hi
    band = key[far] >> 36
    p, q = _runs(key, np.searchsorted(key, (band - 1) << 36).astype(pos), ((band + 2) << 36) - 1)
    p, q, far = surv[far[p]], surv[q], surv[far]
    keep = (p != q) & _in_box(cfg, lats[p], lons[p], lats[q], lons[q])
    anchor, member, wraps = [p[keep]], [q[keep]], np.zeros(n, dtype=bool)
    wraps[far] = True
    for p, q in forward:
        p, q = surv[p], surv[q]
        near = np.abs(lats[p] - lats[q]) * LAT_KM_PER_DEG <= half
        p, q = p[near], q[near]
        dlon = _wrapped_dlon_deg(lons[p], lons[q])
        for a, m in ((p, q), (q, p)):
            keep = dlon * (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lats[a]))) <= half
            keep &= ~wraps[a]
            anchor.append(a[keep])
            member.append(m[keep])
    return np.concatenate(anchor), np.concatenate(member), far


def _select_anchors(order: np.ndarray, src: np.ndarray, dst: np.ndarray, rescued: np.ndarray | None) -> np.ndarray:
    """The sequential walk over the box pairs (src holds dst), anchors in processing order: a survey anchors unless
    an earlier anchor's box consumed it; a ``rescued`` survey anchors even when consumed. Each round over the pairs
    "earlier survey -> later member" consumes the open surveys an anchor holds, keeps the pairs between open
    surveys and anchors every open survey no pair reaches; after ``_MAX_ROUNDS`` the rest go one by one."""
    n = order.size
    rank = np.empty(n, dtype=src.dtype)
    rank[order] = np.arange(n, dtype=src.dtype)
    later = rank[src] < rank[dst]
    src, dst = src[later], dst[later]
    del later
    state = np.zeros(n, dtype=np.int8) if rescued is None else rescued.astype(np.int8)  # 0 open, 1 anchor, 2 consumed
    for r in range(_MAX_ROUNDS + 1):
        state[dst[(state[src] == 1) & (state[dst] == 0)]] = 2
        live = (state[src] == 0) & (state[dst] == 0)
        src, dst = src[live], dst[live]
        fresh = state == 0
        if r == _MAX_ROUNDS or not fresh.any():
            break
        fresh[dst] = False
        state[fresh] = 1
    open_ = state == 0
    if open_.any():  # no earlier anchor holds these: walk them in order over the pairs still live
        ptr, cols = np.zeros(n + 1, dtype=np.int64), dst[np.argsort(src, kind="stable")]
        np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
        for i in order[open_[order]].tolist():
            if open_[i]:
                state[i] = 1
                open_[cols[ptr[i] : ptr[i + 1]]] = False
    return order[state[order] == 1]


def _anchor_rows(anchors: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int) -> RowSets:
    """Row k: ``anchors[k]`` and the members of its pairs, ascending. The pairs, sorted by (row, member), are scattered
    past the earlier rows' anchors and, once past their own anchor, past it too; the anchors fill the slots left."""
    row = np.full(n, -1, dtype=src.dtype)
    row[anchors] = np.arange(anchors.size, dtype=src.dtype)
    src = row[src]
    keep = src >= 0
    key = np.sort((src[keep].astype(np.int64) << 32) | dst[keep])
    row, col = key >> 32, key & 0xFFFFFFFF
    indptr = np.zeros(anchors.size + 1, dtype=dst.dtype)
    np.cumsum(np.bincount(row, minlength=anchors.size) + 1, out=indptr[1:])
    at = row + (col > anchors[row]) + np.arange(row.size)
    indices, diagonal = np.empty(indptr[-1], dtype=dst.dtype), np.ones(indptr[-1], dtype=bool)
    indices[at], diagonal[at] = col, False
    indices[diagonal] = anchors
    return RowSets(indptr, indices)


@dataclass(frozen=True, eq=False)
class MergedSet(Sequence[MergedRecord]):
    """The merged records, columnar, in processing order.

    Record k is anchored at ``dataset`` position ``anchors[k]``; CSR row k of
    ``members`` holds the dataset positions inside its box and row k of
    ``unions`` the union of their species, both ascending. ``[k]``, iteration
    and ``len`` give ``MergedRecord`` views.
    """

    dataset: Dataset
    anchors: np.ndarray
    members: RowSets
    unions: RowSets

    def __len__(self) -> int:
        return int(self.anchors.size)

    def __getitem__(self, k) -> MergedRecord:
        ds, a, sources = self.dataset, self.anchors[k], self.dataset.ids[self.members.row(k)]
        return MergedRecord(int(ds.ids[a]), float(ds.lats[a]), float(ds.lons[a]), self.unions[k], tuple(sources.tolist()))


def merge_points(dataset: Dataset, cfg: MergeConfig) -> MergedSet:
    """Aggregate a presence-only dataset into merged records, one per anchor.

    Anchors are processed in descending species-count order, ties broken by
    ascending survey id; output order is processing order. Rarity for the
    balanced mode is judged against the number of surveys of ``dataset``
    containing each species.
    """
    src, dst, _ = _box_pairs(dataset, cfg)
    sp_ptr, sp_idx = dataset.indptr, dataset.indices
    counts = np.diff(sp_ptr)
    top = counts.max(initial=0)  # positions ascend with survey id, so the stable sort breaks count ties by id
    order = np.argsort((top - counts).astype(np.uint16 if top < 2**16 else np.int64), kind="stable")

    if cfg.mode is MergeMode.LOOSE:
        anchors = order
    else:
        rescued = None
        if cfg.mode is MergeMode.BALANCED:  # rescue every survey holding a rare species
            rare_seen = np.zeros(sp_idx.size + 1, dtype=np.int64)
            np.cumsum(np.bincount(sp_idx)[sp_idx] < cfg.rare_count_threshold, out=rare_seen[1:])
            rescued = rare_seen[sp_ptr[1:]] > rare_seen[sp_ptr[:-1]]
        anchors = _select_anchors(order, src, dst, rescued)
    members = _anchor_rows(anchors, src, dst, len(dataset))
    del src, dst, counts

    species = sparse.csr_matrix((np.ones(sp_idx.size, dtype=bool), sp_idx, sp_ptr), shape=(len(dataset), int(sp_idx.max(initial=-1)) + 1))
    unions = sparse.csr_matrix((np.ones(members.indices.size, dtype=bool), members.indices, members.indptr), shape=(anchors.size, len(dataset)))
    unions = unions @ species  # boolean product: each row is the union of its members' species
    unions.sort_indices()
    return MergedSet(dataset, anchors, members, RowSets(unions.indptr, unions.indices))


def merged_to_dataset(merged: MergedSet) -> Dataset:
    """Repackage merged records as a dataset (sorted by survey id): the union rows permuted by anchor."""
    by_id = np.argsort(merged.anchors)  # dataset positions ascend with survey id
    ds, a = merged.dataset, merged.anchors[by_id]
    return Dataset.from_csr(ds.ids[a], ds.lats[a], ds.lons[a], *take_rows(merged.unions.indptr, merged.unions.indices, by_id))


def merge_stats(dataset: Dataset, merged: MergedSet) -> MergeReport:
    """Before/after summary of one aggregation run."""
    n_in, n_out = len(dataset), len(merged)
    return MergeReport(
        surveys_in=n_in,
        surveys_out=n_out,
        consumed=n_in - n_out,
        species_in=np.count_nonzero(np.bincount(dataset.indices)),
        species_out=np.count_nonzero(np.bincount(merged.unions.indices)),
        mean_species_in=dataset.indices.size / n_in if n_in else 0.0,
        mean_species_out=merged.unions.indices.size / n_out if n_out else 0.0,
    )
