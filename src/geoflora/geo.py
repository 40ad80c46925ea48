"""Great-circle geometry and an exact spatial index over survey coordinates.

Distances are haversine on a 6371 km sphere; the radius is a fixed constant,
never configurable. The index embeds points on the unit sphere and queries a
k-d tree in chord space. Chord length is a strictly monotone function of
great-circle distance, so a chord lookup with a slightly inflated radius
yields a candidate superset which is then re-checked with the exact
haversine distance. Query results therefore match a brute-force scan point
for point while staying fast on millions of entries.

A k-NN query asks the tree for k + 1 chord neighbours. A row whose
(k + 1)-th chord lies beyond its inflated k-th chord by one more inflation
step has no near-tie at the k-th rank: the ball of that inflated radius
would hold exactly its k chord neighbours, so they are its complete
candidate set. Only the other rows gather that ball; every row is then
re-ranked exactly.

The tree is built once, over the points in a spatial order (one argsort of
an int64 key: latitude band first, then longitude), with sliding-midpoint
splits (scipy's ``balanced_tree=False``; Maneewongvatana and Mount, 1999),
which need no median selection. Tree positions are mapped back through that
order where they leave the tree. As every candidate is re-ranked by exact
distance and survey id, neither the tree's shape nor the input's order
changes a result.

Determinism rules, fixed for reproducibility:
  * radius boundaries are inclusive (d <= radius),
  * k-NN ties at equal distance are broken by ascending survey id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

EARTH_RADIUS_KM = 6371.0

# Inflation applied to chord-space radii so rounding in the sphere embedding
# can never drop a qualifying point; candidates are re-checked exactly.
_CHORD_REL = 1e-9
_CHORD_ABS = 1e-12

# The tree is built over points sorted by latitude bands this high, then by longitude: at a million surveys over
# Europe (~1 000 per square degree) a band-high square holds about two leaves, so a leaf's points lie in few runs.
_BAND_DEG = 0.25
# Points per tree leaf: over a million surveys 16 builds ~13 % slower than 32; 48 or 64 save ~5 % of the build and
# move kNN and radius query times by less than their run-to-run spread.
_LEAF_SIZE = 32


@dataclass(frozen=True)
class GeoPoint:
    """A coordinate pair in radians; |lat_rad| <= pi/2, |lon_rad| <= pi."""

    lat_rad: float
    lon_rad: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat_rad) and math.isfinite(self.lon_rad)):
            raise ValueError("non-finite coordinate")
        if abs(self.lat_rad) > math.pi / 2 + 1e-12 or abs(self.lon_rad) > math.pi + 1e-12:
            raise ValueError(f"radian coordinate out of range: ({self.lat_rad}, {self.lon_rad})")

    @classmethod
    def from_degrees(cls, lat: float, lon: float) -> "GeoPoint":
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError("non-finite coordinate")
        if abs(lat) > 90.0 or abs(lon) > 180.0:
            raise ValueError(f"coordinate out of range: ({lat}, {lon})")
        return cls(math.radians(lat), math.radians(lon))


def haversine_km_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorised haversine distance in km; all inputs in radians.

    arcsin(sqrt(h)) loses precision as h approaches 1, so pairs more than a
    quarter circumference apart (h > 0.5) are measured as half the
    circumference minus the distance to the antipode of the second point.
    """
    lat1 = np.asarray(lat1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    half_dlon = (np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)) * 0.5
    s_lat = np.sin((lat2 - lat1) * 0.5)
    s_lon = np.sin(half_dlon)
    cos_cos = np.cos(lat1) * np.cos(lat2)
    h = s_lat * s_lat + cos_cos * s_lon * s_lon
    # minimum/maximum: the same values as np.clip at a lower per-call cost
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(np.maximum(h, 0.0), 1.0)))
    if h.max(initial=0.0) > 0.5:
        s_sum = np.sin((lat1 + lat2) * 0.5)
        c_lon = np.cos(half_dlon)
        h_antipode = s_sum * s_sum + cos_cos * c_lon * c_lon
        d_far = EARTH_RADIUS_KM * (np.pi - 2.0 * np.arcsin(np.sqrt(np.minimum(np.maximum(h_antipode, 0.0), 1.0))))
        d = np.where(h > 0.5, d_far, d)
    return d


def _embed(lat_rad, lon_rad) -> np.ndarray:
    lat_rad = np.atleast_1d(np.asarray(lat_rad, dtype=np.float64))
    lon_rad = np.atleast_1d(np.asarray(lon_rad, dtype=np.float64))
    cp = np.cos(lat_rad)
    return np.column_stack((cp * np.cos(lon_rad), cp * np.sin(lon_rad), np.sin(lat_rad)))


def _inflate(chord):
    """A chord-space bound widened so that rounding in the embedding can never exclude a point at ``chord``."""
    return chord * (1.0 + _CHORD_REL) + _CHORD_ABS


def _chord_radius(radius_km):
    """Inflated chord length on the unit sphere subtending ``radius_km`` of arc; a negative or NaN radius is an error."""
    radius_km = np.asarray(radius_km, dtype=np.float64)
    if not np.all(radius_km >= 0):  # written so that NaN fails too
        raise ValueError("radius_km must be >= 0")
    return _inflate(2.0 * np.sin(np.minimum(radius_km / EARTH_RADIUS_KM, np.pi) * 0.5))


def _finite_extent(lat, lon) -> tuple[float, float]:
    """The largest |lat| and |lon| (0 if empty); a NaN or infinite coordinate is an error."""
    extent = float(np.abs(lat).max(initial=0.0)), float(np.abs(lon).max(initial=0.0))  # NaN if any coordinate is NaN
    if not all(map(math.isfinite, extent)):
        raise ValueError("non-finite coordinate")
    return extent


def _spatial_order(lats_deg, lons_deg) -> np.ndarray:
    """Row positions sorted by latitude band (``_BAND_DEG`` high), then by longitude; int32 below 2**31 rows."""
    # lons + 180 < 2**9, so its 2**-22 degree grid fits below the band in the low 32 bits
    key = (((lats_deg + 90.0) / _BAND_DEG).astype(np.int64) << 32) + ((lons_deg + 180.0) * 2.0**22).astype(np.int64)
    return np.argsort(key).astype(np.int32 if key.size < 2**31 else np.intp)


def _needs_ball(chord_k, chord_next):
    """Rows whose (k + 1)-th chord may tie with the k-th: within two inflation steps of it, or NaN."""
    return ~(chord_next > _inflate(_inflate(chord_k)))


class GeoIndex:
    """Immutable spatial index whose queries reproduce a brute-force haversine scan.

    Built once over (survey_id, lat, lon) triples; read-only afterwards, so a
    single index can be queried from many threads without coordination.
    Every query takes many points at once; the positions it returns are row
    offsets into the arrays the index was built from.
    """

    def __init__(self, survey_ids, lats_deg, lons_deg):
        ids = np.ascontiguousarray(survey_ids, dtype=np.int64)
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != lats.shape or ids.shape != lons.shape:
            raise ValueError("survey_ids, lats_deg and lons_deg must be 1-D and equally long")
        lat_max, lon_max = _finite_extent(lats, lons)
        if lat_max > 90.0 or lon_max > 180.0:
            raise ValueError("coordinate out of range")
        self.survey_ids = ids
        self.lat_rad = np.radians(lats)
        self.lon_rad = np.radians(lons)
        self._order = _spatial_order(lats, lons)  # tree position -> row
        points = _embed(self.lat_rad[self._order], self.lon_rad[self._order])
        self._tree = cKDTree(points, leafsize=_LEAF_SIZE, balanced_tree=False) if ids.size else None

    @classmethod
    def from_dataset(cls, dataset) -> "GeoIndex":
        return cls(dataset.ids, dataset.lats, dataset.lons)

    def __len__(self) -> int:
        return int(self.survey_ids.size)

    def knn_query_many(self, lat_rad, lon_rad, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k-NN for many query points at once.

        Returns (positions, distances_km), each of shape (m, min(k, n)), rows
        sorted by (distance, survey_id); the first j columns of a query at k
        are the query at j <= k, as the re-rank is a total order.

        The tree gives each row its k + 1 chord neighbours (all n when
        k >= n). Near-ties are resolved by gathering every point whose chord
        distance falls within an inflated bound of the k-th neighbour: only
        rows whose (k + 1)-th chord is within that bound plus one more
        inflation step (``_needs_ball``) gather this ball. For the others
        every point beyond the k chord neighbours lies outside the ball, so
        the k chord neighbours are the candidates the ball would hold, and
        they are measured and ordered by (distance, survey id) within their
        row. The balls of the rows that gather one are flattened into one array,
        measured with one haversine call and ordered by one ``lexsort`` on
        (row, distance, survey id), of which each row keeps its first
        min(k, n) entries.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        lat_rad = np.atleast_1d(np.asarray(lat_rad, dtype=np.float64))
        lon_rad = np.atleast_1d(np.asarray(lon_rad, dtype=np.float64))
        _finite_extent(lat_rad, lon_rad)
        m, n = lat_rad.size, len(self)
        kk = min(k, n)
        if kk == 0 or m == 0:
            return np.empty((m, kk), dtype=np.intp), np.empty((m, kk), dtype=np.float64)
        q = _embed(lat_rad, lon_rad)
        width = min(kk + 1, n)
        chord, near = (np.reshape(a, (m, width)) for a in self._tree.query(q, k=width, workers=-1))
        near = self._order[near]
        ball = _needs_ball(chord[:, kk - 1], chord[:, kk]) if width > kk else np.zeros(m, dtype=bool)
        pos, dist = np.empty((m, kk), dtype=np.intp), np.empty((m, kk), dtype=np.float64)
        clear = np.flatnonzero(~ball)
        cand = near[clear, :kk]
        d = haversine_km_arrays(lat_rad[clear, None], lon_rad[clear, None], self.lat_rad[cand], self.lon_rad[cand])
        order = np.lexsort((self.survey_ids[cand], d), axis=-1)
        pos[clear], dist[clear] = np.take_along_axis(cand, order, -1), np.take_along_axis(d, order, -1)
        if ball.any():
            rows = np.flatnonzero(ball)
            offsets, flat = self._ball_candidates(q[rows], _inflate(chord[rows, kk - 1]))
            # the ball holds the kk chord neighbours, so every row has at least kk candidates
            row = np.repeat(rows, np.diff(offsets))
            d = haversine_km_arrays(lat_rad[row], lon_rad[row], self.lat_rad[flat], self.lon_rad[flat])
            order = np.lexsort((self.survey_ids[flat], d, row))
            first = order[(offsets[:-1, None] + np.arange(kk)).ravel()]
            pos[rows], dist[rows] = flat[first].reshape(-1, kk), d[first].reshape(-1, kk)
        return pos, dist

    def _ball_candidates(self, q: np.ndarray, chord_r) -> tuple[np.ndarray, np.ndarray]:
        """Positions within chord distance ``chord_r`` of each embedded query, CSR-style (offsets, positions)."""
        m = q.shape[0]
        lists = self._tree.query_ball_point(q, chord_r, workers=-1, return_sorted=False)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=m), out=offsets[1:])
        flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=int(offsets[-1]))
        return offsets, self._order[flat].astype(np.intp, copy=False)

    def radius_candidates_many(self, lat_rad, lon_rad, radius_km) -> tuple[np.ndarray, np.ndarray]:
        """Candidate positions per query point, CSR-style (offsets, positions).

        Membership is a superset of the exact haversine ball (chord lookup
        with inflation, no re-check); callers apply their own definitive
        filter. ``radius_km`` is a scalar or holds one value per query point.
        """
        lat_rad = np.atleast_1d(np.asarray(lat_rad, dtype=np.float64))
        lon_rad = np.atleast_1d(np.asarray(lon_rad, dtype=np.float64))
        _finite_extent(lat_rad, lon_rad)
        m = lat_rad.size
        r = _chord_radius(radius_km)
        if r.ndim and r.shape != (m,):
            raise ValueError(f"radius_km must be a scalar or hold one value per query point: {r.size} values for {m} points")
        if self._tree is None or m == 0:
            return np.zeros(m + 1, dtype=np.int64), np.empty(0, dtype=np.intp)
        return self._ball_candidates(_embed(lat_rad, lon_rad), r)

    def radius_query_many(self, lat_rad, lon_rad, radius_km) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact inclusive radius memberships for many query points.

        Returns (offsets, positions, distances_km) in CSR layout; the order
        of members within one query's slice is unspecified.
        """
        lat_rad = np.atleast_1d(np.asarray(lat_rad, dtype=np.float64))
        lon_rad = np.atleast_1d(np.asarray(lon_rad, dtype=np.float64))
        m = lat_rad.size
        offsets, flat = self.radius_candidates_many(lat_rad, lon_rad, radius_km)
        if flat.size == 0:
            return offsets, flat, np.empty(0, dtype=np.float64)
        counts = np.diff(offsets)
        src = np.repeat(np.arange(m), counts)
        d = haversine_km_arrays(lat_rad[src], lon_rad[src], self.lat_rad[flat], self.lon_rad[flat])
        rr = np.asarray(radius_km, dtype=np.float64)
        keep = d <= (rr[src] if rr.ndim else rr)
        new_offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=m), out=new_offsets[1:])
        return new_offsets, flat[keep], d[keep]
