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
  members  a band sweep gives every survey's patch members as a CSR matrix
           (row = anchor): surveys sorted once by the int64 key latitude band
           (one half-side high) << 35 plus longitude on a 2**-26 degree grid;
           one forward pass with one window per band pair lists each candidate
           pair once, and the exact box test cuts it in both directions;
  anchors  rounds over the edges from each survey to the members of its box
           later in processing order decide the anchors; surveys still open
           after ``_MAX_ROUNDS`` rounds are walked one by one (loose mode needs
           no walk: every survey anchors);
  unions   the anchors' member rows times the species CSR, a boolean sparse
           product, give every union at once.
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


def _fixed(x, base):
    """``base + floor(clip(x, -180, 180) * 2**26)``: degrees on the sweep's grid above ``base``. Overwrites ``x``."""
    np.clip(x, -180.0, 180.0, out=x)
    x *= 2.0**26
    grid = np.floor(x, out=x).astype(np.int64)
    grid += base
    return grid


def _runs(key, start, hi):
    """Position pairs (i, p) for each p from ``start[i]`` on while ``key[p] <= hi[i]``. Run ends are probed
    ``_PROBES`` positions on (``key`` ends with a sentinel above every ``hi``); runs still open take ``searchsorted``."""
    end = start.copy()
    for _ in range(_PROBES):
        end += key[end] <= hi
    more = np.flatnonzero(key[end] <= hi)
    end[more] = np.searchsorted(key, hi[more], "right")
    end -= start
    i = np.flatnonzero(end)
    start, count = start[i], end[i]
    return np.repeat(i, count), np.arange(count.sum()) + np.repeat(start + count - np.cumsum(count), count)


def _member_matrix(dataset: Dataset, cfg: MergeConfig) -> sparse.csr_matrix:
    """Every survey's patch members as a boolean n x n CSR, row = anchor, columns ascending.

    Surveys sorted once by the int64 key ``base + floor(clip(lon, -180, 180) * 2**26)``: band ``b = floor(lat / h)``
    has ``base = (b << 35) + 2**34``, so its keys fill ``[b << 35, (b + 1) << 35)``. Each band's window half-width
    ``W`` is the largest ``_padded_deg`` window ``w`` of its surveys whose window stays inside +-180 degrees; a band
    pair (b, b + 1) takes the larger ``W`` of the two. ``W`` bounds both surveys' ``w``, so a pair is a candidate from
    its earlier survey in key order whichever box holds the other: in its own band from the next position up to the
    grid point of ``lon + W``, in band b + 1 between those of ``lon - W`` and ``lon + W``. Each candidate pair is
    listed once and box-tested in both directions. Scaling by 2**26 is exact and ``floor`` monotone, so each grid
    window holds the float window, and equal keys are taken or left together. A survey whose window crosses +-180
    degrees anchors no listed pair; it takes bands b - 1 to b + 1 whole. |b| < 2**27, so keys stay below 2**62.
    """
    lats, lons, n = dataset.lats, dataset.lons, len(dataset)
    if np.greater(_finite_extent(lats, lons), (90.0, 180.0)).any():
        raise ValueError("coordinate out of range")
    key = _fixed(lons.copy(), (np.floor(lats / _padded_deg(cfg.box_half_km / LAT_KM_PER_DEG)).astype(np.int64) << 35) + (1 << 34))
    surv = np.argsort(key).astype(np.int32 if n < 2**31 else np.int64)
    key, lon = np.append(key[surv], np.iinfo(np.int64).max), lons[surv]  # the sentinel ends every run
    w = _padded_deg(cfg.box_half_km / (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lats[surv]))))
    wraps = np.abs(lon) + w > 180.0
    w[wraps] = 0.0
    base = key[:-1] >> 35
    first = np.flatnonzero(np.diff(base, prepend=base[:1] - 1))  # each band's first position
    w_band, sizes = np.maximum.reduceat(w, first), np.diff(first, append=n)
    del w, first
    base = (base << 35) + (1 << 34)
    own = _runs(key, np.arange(1, n + 1), _fixed(lon + np.repeat(w_band, sizes), base))
    w = np.repeat(np.maximum(w_band, np.append(w_band[1:], 0.0)), sizes)  # W of (b, b + 1); an empty band b + 1 holds nothing
    base += 1 << 35  # band b + 1
    far = np.flatnonzero(wraps)
    far_lo, far_hi = base[far] - (5 << 34), base[far] + (1 << 34) - 1  # bands b - 1 to b + 1
    start, hi = np.searchsorted(key, _fixed(lon - w, base)), _fixed(lon + w, base)
    del w, base, lon
    forward = [own, _runs(key, start, hi)]
    del start, hi
    p, q = _runs(key, np.searchsorted(key, far_lo), far_hi)
    del key
    p = far[p]
    candidates = [(p, q, p != q)] + [(p, q, ~wraps[p]) for p, q in forward] + [(q, p, ~wraps[q]) for p, q in forward]
    pairs = [np.arange(n, dtype=np.int64) * (n + 1)]  # row * n + col: every survey is in its own box
    for p, q, take in candidates:
        rows, cols = surv[p[take]], surv[q[take]]
        keep = _in_box(cfg, lats[rows], lons[rows], lats[cols], lons[cols])
        pairs.append(rows[keep].astype(np.int64) * n + cols[keep])
    del candidates, forward, rows, cols, keep
    rows, cols = np.divmod(np.sort(np.concatenate(pairs)), n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sparse.csr_matrix((np.ones(cols.size, dtype=bool), cols.astype(surv.dtype), indptr), shape=(n, n))


def _select_anchors(order: np.ndarray, members: sparse.csr_matrix, rescued: np.ndarray | None) -> np.ndarray:
    """The sequential walk, anchors in processing order: a survey anchors unless an earlier anchor's box
    consumed it; a ``rescued`` survey anchors even when consumed. Each round over the edges "earlier
    survey -> later member" consumes the open surveys an anchor holds, keeps the edges between open
    surveys and anchors every open survey no edge reaches; after ``_MAX_ROUNDS`` the rest go one by one."""
    n = order.size
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src, dst = np.repeat(np.arange(n, dtype=members.indices.dtype), np.diff(members.indptr)), members.indices
    later = rank[src] < rank[dst]
    src, dst = src[later], dst[later]
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
    ptr, cols, open_ = members.indptr, members.indices, state == 0
    for i in order[open_[order]].tolist():  # no earlier anchor holds these: walk them in order
        if open_[i]:
            state[i] = 1
            open_[cols[ptr[i] : ptr[i + 1]]] = False
    return order[state[order] == 1]


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
    members = _member_matrix(dataset, cfg)
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
        anchors = _select_anchors(order, members, rescued)

    species = sparse.csr_matrix((np.ones(sp_idx.size, dtype=bool), sp_idx, sp_ptr), shape=(len(dataset), int(sp_idx.max(initial=-1)) + 1))
    members = members[anchors]
    unions = members @ species  # boolean product: each row is the union of its members' species
    unions.sort_indices()
    return MergedSet(dataset, anchors, RowSets(members.indptr, members.indices), RowSets(unions.indptr, unions.indices))


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
