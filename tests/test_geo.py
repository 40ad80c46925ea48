import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import haversine, knn_row, radius_row, random_points
from geoflora import geo
from geoflora.geo import _CHORD_ABS, _CHORD_REL, EARTH_RADIUS_KM, GeoIndex, GeoPoint, _needs_ball, haversine_km_arrays
from oracles import brute_knn, brute_radius, reference_haversine_km

LAT = st.floats(min_value=-90.0, max_value=90.0)
LON = st.floats(min_value=-180.0, max_value=180.0)

# Coordinates where k-NN ties and near-ties gather: the four points 0.5 degrees from (0, 0) are equidistant from it,
# +-180 is one meridian, every point at a pole is the same point, and a drawn point may repeat any earlier one.
TIE_POOL = [
    (0.0, 0.0), (0.0, 0.5), (0.0, -0.5), (0.5, 0.0), (-0.5, 0.0), (45.0, 7.0), (45.001, 7.0),
    (0.0, 180.0), (0.0, -180.0), (12.5, 179.9999999), (12.5, -179.9999999),
    (90.0, 0.0), (90.0, 77.0), (-90.0, 180.0), (89.9999999, 10.0), (-89.9999999, -170.0),
]

# Every TIE_POOL point 0.5 degrees from (0, 0) lies on the boundary of this radius around it.
TIE_KM = float(haversine_km_arrays(0.0, 0.0, 0.0, math.radians(0.5)))
RADIUS = st.one_of(st.sampled_from([0.0, TIE_KM]), st.floats(0.0, 20100.0))


@st.composite
def tie_heavy_knn(draw):
    """(ids, lats, lons, query lats, query lons, k, shuffle): points and queries from ``TIE_POOL``, repeats and
    anywhere; n may be 1, and all points may share one coordinate; ids are a permutation, so the tree's order among
    ties is not id order; k is 1, n - 1, n, n + 1 or n + 2; ``shuffle`` is a permutation of the n positions."""
    n = draw(st.integers(1, 24))
    point = st.one_of(st.sampled_from(TIE_POOL), st.tuples(LAT, LON))
    one_site = draw(st.integers(0, 7)) == 0
    coords = []
    for _ in range(n):
        coords.append(draw(st.sampled_from(coords) if coords and (one_site or draw(st.booleans())) else point))
    queries = draw(st.lists(st.one_of(point, st.sampled_from(coords)), min_size=1, max_size=6))
    ids = np.array(draw(st.permutations(range(1, n + 1))), dtype=np.int64)
    k = draw(st.sampled_from(sorted({1, max(n - 1, 1), n, n + 1, n + 2})))
    shuffle = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    (lats, lons), (q_lat, q_lon) = (np.array(c, dtype=np.float64).T for c in (coords, queries))
    return ids, lats, lons, q_lat, q_lon, k, shuffle


def P(lat, lon):
    return GeoPoint.from_degrees(lat, lon)


class TestHaversine:
    def test_identity(self):
        assert haversine(P(45.0, 5.0), P(45.0, 5.0)) == 0.0

    def test_quarter_circumference(self):
        assert haversine(P(0, 0), P(90, 0)) == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, abs=1e-3)

    def test_half_circumference(self):
        assert haversine(P(0, 0), P(0, 180)) == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-3)

    def test_matches_independent_formula(self, rng):
        for _ in range(500):
            a = rng.uniform(-90, 90), rng.uniform(-180, 180)
            b = rng.uniform(-90, 90), rng.uniform(-180, 180)
            expected = reference_haversine_km(a[0], a[1], b[0], b[1])
            assert haversine(P(*a), P(*b)) == pytest.approx(expected, abs=1e-9)

    @given(LAT, LON, LAT, LON)
    def test_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        d1 = haversine(P(lat1, lon1), P(lat2, lon2))
        d2 = haversine(P(lat2, lon2), P(lat1, lon1))
        assert d1 == d2
        assert d1 >= 0.0

    @given(LAT, LON, LAT, LON, LAT, LON)
    @example(0.015625, 180.0, 1.0, 0.0, 0.0, 0.0)  # a and c nearly antipodal
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = P(lat1, lon1), P(lat2, lon2), P(lat3, lon3)
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-9

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            GeoPoint.from_degrees(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint.from_degrees(0.0, float("nan"))


class TestGeoIndex:
    def test_empty_index(self):
        idx = GeoIndex(np.array([], dtype=np.int64), np.array([]), np.array([]))
        assert len(idx) == 0
        assert radius_row(idx, P(0, 0), 100.0) == []
        assert knn_row(idx, P(0, 0), 3) == []
        with pytest.raises(ValueError, match="k must be >= 1"):
            knn_row(idx, P(0, 0), 0)

    def test_radius_zero_hits_colocated_points(self):
        idx = GeoIndex(np.array([5, 3, 9]), np.array([48.0, 48.0, 50.0]), np.array([2.0, 2.0, 2.0]))
        assert radius_row(idx, P(48.0, 2.0), 0.0) == [(3, 0.0), (5, 0.0)]

    def test_radius_boundary_inclusive(self):
        idx = GeoIndex(np.array([1, 2]), np.array([48.0, 48.05]), np.array([2.0, 2.0]))
        d = haversine(P(48.0, 2.0), P(48.05, 2.0))
        hits = radius_row(idx, P(48.0, 2.0), d)
        assert [h[0] for h in hits] == [1, 2]

    def test_radius_examples_near_10km(self):
        # ~5.56 km away is inside a 10 km ball, ~14.9 km is not
        idx = GeoIndex(np.array([1, 2]), np.array([48.05, 48.0]), np.array([2.0, 2.2]))
        hits = radius_row(idx, P(48.0, 2.0), 10.0)
        assert [h[0] for h in hits] == [1]
        assert hits[0][1] == pytest.approx(5.5597, abs=1e-3)
        assert haversine(P(48.0, 2.0), P(48.0, 2.2)) == pytest.approx(14.88, abs=0.01)

    def test_knn_k_at_least_n_returns_all_sorted(self):
        ids, lats, lons = np.array([7, 1, 4]), np.array([10.0, 11.0, 12.0]), np.array([0.0, 0.0, 0.0])
        idx = GeoIndex(ids, lats, lons)
        got = knn_row(idx, P(10.0, 0.0), 10)
        assert [g[0] for g in got] == [7, 1, 4]
        assert got[0][1] == 0.0

    def test_knn_tie_breaks_by_survey_id(self):
        # two points symmetric about the query latitude: identical distance
        idx = GeoIndex(np.array([42, 7]), np.array([47.9, 48.1]), np.array([2.0, 2.0]))
        got = knn_row(idx, P(48.0, 2.0), 1)
        assert got[0][0] == 7

    def test_knn_single_point(self):
        idx = GeoIndex(np.array([3]), np.array([0.0]), np.array([0.0]))
        assert knn_row(idx, P(1.0, 0.0), 1)[0][0] == 3

    def test_validation(self):
        idx = GeoIndex(np.array([1]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            knn_row(idx, P(0, 0), 0)
        with pytest.raises(ValueError):
            radius_row(idx, P(0, 0), -1.0)
        with pytest.raises(ValueError):
            GeoIndex(np.array([1]), np.array([99.0]), np.array([0.0]))

    @pytest.mark.parametrize("lats, lons", [([0.0, math.nan], [0.0, 0.0]), ([0.0, 0.0], [math.nan, 0.0]), ([math.inf], [0.0]), ([0.0], [-math.inf])])
    def test_non_finite_coordinates_are_rejected(self, lats, lons):
        with pytest.raises(ValueError, match="^non-finite coordinate$"):
            GeoIndex(np.arange(len(lats)), np.array(lats), np.array(lons))

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("lat, lon", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, -math.inf)])
    @pytest.mark.parametrize("method, arg", [("knn_query_many", 2), ("radius_query_many", 100.0), ("radius_candidates_many", 100.0)])
    def test_bulk_queries_reject_non_finite_coordinates(self, rng, n, lat, lon, method, arg):
        idx = GeoIndex(*random_points(rng, n))
        with pytest.raises(ValueError, match="^non-finite coordinate$"):
            getattr(idx, method)(np.array([0.2, lat]), np.array([0.3, lon]), arg)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("radius_km", [-1.0, math.nan, np.array([1.0, -1.0]), np.array([1.0, math.nan])])
    @pytest.mark.parametrize("method", ["radius_query_many", "radius_candidates_many"])
    def test_bulk_radius_rejects_negative_or_nan(self, rng, n, radius_km, method):
        idx = GeoIndex(*random_points(rng, n))
        with pytest.raises(ValueError, match="radius_km must be >= 0"):
            getattr(idx, method)(np.radians([10.0, 20.0]), np.radians([5.0, 6.0]), radius_km)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("radii", [[100.0], [100.0, 200.0], [100.0] * 4, [[100.0]] * 3])
    @pytest.mark.parametrize("method", ["radius_query_many", "radius_candidates_many"])
    def test_bulk_radius_rejects_an_array_not_one_per_query(self, rng, n, radii, method):
        idx = GeoIndex(*random_points(rng, n))
        size = np.size(radii)
        with pytest.raises(ValueError, match=f"^radius_km must be a scalar or hold one value per query point: {size} values for 3 points$"):
            getattr(idx, method)(np.radians([10.0, 20.0, 30.0]), np.radians([5.0, 6.0, 7.0]), np.array(radii))

    @pytest.mark.parametrize("radius_km", [-1.0, math.nan])
    def test_single_radius_rejects_negative_or_nan(self, rng, radius_km):
        idx = GeoIndex(*random_points(rng, 3))
        with pytest.raises(ValueError, match="radius_km must be >= 0"):
            radius_row(idx, P(0, 0), radius_km)

    def test_queries_are_pure(self, rng):
        ids, lats, lons = random_points(rng, 200)
        idx = GeoIndex(ids, lats, lons)
        center = P(10.0, 10.0)
        assert radius_row(idx, center, 500.0) == radius_row(idx, center, 500.0)
        assert knn_row(idx, center, 7) == knn_row(idx, center, 7)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 400))
            ids, lats, lons = random_points(rng, n)
            idx = GeoIndex(ids, lats, lons)
            for _ in range(4):
                center = P(rng.uniform(-89, 89), rng.uniform(-180, 180))
                radius = float(rng.uniform(0, 3000))
                assert radius_row(idx, center, radius) == brute_radius(ids, lats, lons, center, radius)
                k = int(rng.integers(1, 12))
                assert knn_row(idx, center, k) == brute_knn(ids, lats, lons, center, k)

    @pytest.mark.parametrize("radius_km", [750.0, np.array(750.0), np.linspace(0.0, 2500.0, 20)])  # a scalar or one per query
    def test_bulk_radius_matches_single(self, rng, radius_km):
        ids, lats, lons = random_points(rng, 300)
        idx = GeoIndex(ids, lats, lons)
        q_lat = rng.uniform(-80, 80, 20)
        q_lon = rng.uniform(-180, 180, 20)
        offsets, pos, dist = idx.radius_query_many(np.radians(q_lat), np.radians(q_lon), radius_km)
        for i, r in enumerate(np.broadcast_to(radius_km, 20)):
            got = sorted(
                (int(ids[p]), float(d))
                for p, d in zip(pos[offsets[i] : offsets[i + 1]], dist[offsets[i] : offsets[i + 1]])
            )
            expected = sorted(brute_radius(ids, lats, lons, P(q_lat[i], q_lon[i]), r))
            assert got == expected

    @given(tie_heavy_knn(), st.lists(RADIUS, min_size=6, max_size=6))
    @example((np.array([2, 1, 3]), np.array([0.0, 0.0, 0.5]), np.array([0.5, -0.5, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 180.0]), 1, np.array([1, 2, 0])), [TIE_KM] * 6)
    def test_radius_matches_brute_force_through_a_shuffle(self, case, radii):
        ids, lats, lons, q_lat, q_lon, _, shuffle = case
        radii = np.array(radii[: q_lat.size])  # one radius per query point
        q = np.radians(q_lat), np.radians(q_lon)
        offsets, pos, dist = GeoIndex(ids, lats, lons).radius_query_many(*q, radii)
        s_offsets, s_pos, s_dist = GeoIndex(ids[shuffle], lats[shuffle], lons[shuffle]).radius_query_many(*q, radii)
        assert pos.dtype == s_pos.dtype == np.intp
        assert np.array_equal(s_offsets, offsets)
        for i in range(q_lat.size):
            row = sorted(zip(pos[offsets[i] : offsets[i + 1]].tolist(), dist[offsets[i] : offsets[i + 1]].tolist()))
            s_row = sorted(zip(shuffle[s_pos[offsets[i] : offsets[i + 1]]].tolist(), s_dist[offsets[i] : offsets[i + 1]].tolist()))
            assert s_row == row
            got = sorted(((int(ids[p]), d) for p, d in row), key=lambda e: (e[1], e[0]))
            assert got == brute_radius(ids, lats, lons, P(q_lat[i], q_lon[i]), radii[i])

    def test_bulk_knn_matches_single(self, rng):
        ids, lats, lons = random_points(rng, 300)
        idx = GeoIndex(ids, lats, lons)
        q_lat = rng.uniform(-80, 80, 15)
        q_lon = rng.uniform(-180, 180, 15)
        pos, dist = idx.knn_query_many(np.radians(q_lat), np.radians(q_lon), 5)
        for i in range(15):
            got = [(int(ids[p]), float(d)) for p, d in zip(pos[i], dist[i])]
            assert got == brute_knn(ids, lats, lons, P(q_lat[i], q_lon[i]), 5)

    @pytest.mark.parametrize("k", [3, 260, 300])
    def test_bulk_knn_mixed_batch_matches_brute_force(self, rng, k):
        # one batch: queries inside 200 co-located points (k = 3 takes the three lowest ids),
        # next to the cluster and far from everything; k = 260 and 300 are at least n
        ids = np.sort(rng.choice(np.arange(1, 5001), 260, replace=False))
        lats = np.concatenate((np.full(200, 45.0), rng.uniform(-80, 80, 60)))
        lons = np.concatenate((np.full(200, 7.0), rng.uniform(-180, 180, 60)))
        order = rng.permutation(260)  # the cluster's ids are not in position order
        ids, lats, lons = ids[order], lats[order], lons[order]
        idx = GeoIndex(ids, lats, lons)
        q_lat = np.concatenate(([45.0, 45.0, 45.001], rng.uniform(-80, 80, 7)))
        q_lon = np.concatenate(([7.0, 7.0, 7.002], rng.uniform(-180, 180, 7)))
        pos, dist = idx.knn_query_many(np.radians(q_lat), np.radians(q_lon), k)
        assert pos.shape == dist.shape == (10, min(k, 260))
        for i in range(10):
            got = [(int(ids[p]), float(d)) for p, d in zip(pos[i], dist[i])]
            assert got == brute_knn(ids, lats, lons, P(q_lat[i], q_lon[i]), k)
        assert [g[0] for g in brute_knn(ids, lats, lons, P(45.0, 7.0), 3)] == sorted(ids[lats == 45.0])[:3]

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_bulk_knn_without_queries_is_empty(self, rng, k):
        idx = GeoIndex(*random_points(rng, 20))
        pos, dist = idx.knn_query_many(np.empty(0), np.empty(0), k)
        assert pos.shape == dist.shape == (0, min(k, 20))
        assert pos.dtype == np.intp and dist.dtype == np.float64


class TestKnnBallSkip:
    """``knn_query_many`` gathers the near-tie ball only for rows that may tie at the k-th neighbour."""

    @given(tie_heavy_knn())
    @example((np.array([9, 8, 7, 6]), np.array([45.0, 45.0, 45.0, -30.0]), np.array([7.0, 7.0, 7.0, 100.0]), np.array([45.0]), np.array([7.0]), 1, np.array([3, 1, 0, 2])))
    @example((np.array([3, 2, 1]), np.array([0.0, 0.0, 0.5]), np.array([0.5, -0.5, 0.0]), np.array([0.0]), np.array([0.0]), 2, np.array([2, 0, 1])))
    @example((np.array([1]), np.array([90.0]), np.array([0.0]), np.array([-90.0, 90.0]), np.array([0.0, 33.0]), 3, np.array([0])))
    @example((np.array([4, 2, 1, 3]), np.full(4, 12.5), np.full(4, 180.0), np.array([12.5, 0.0]), np.array([-180.0, 0.0]), 6, np.array([1, 3, 2, 0])))
    def test_matches_brute_force_on_ties(self, case):
        ids, lats, lons, q_lat, q_lon, k, shuffle = case
        q = np.radians(q_lat), np.radians(q_lon)
        pos, dist = GeoIndex(ids, lats, lons).knn_query_many(*q, k)
        assert pos.shape == dist.shape == (q_lat.size, min(k, ids.size))
        assert pos.dtype == np.intp
        for i in range(q_lat.size):
            got = [(int(ids[p]), float(d)) for p, d in zip(pos[i], dist[i])]
            assert got == brute_knn(ids, lats, lons, P(q_lat[i], q_lon[i]), k)
        # the same points in another order give the same answers through the shuffle: position p there is row shuffle[p]
        s_pos, s_dist = GeoIndex(ids[shuffle], lats[shuffle], lons[shuffle]).knn_query_many(*q, k)
        assert s_pos.dtype == np.intp
        assert np.array_equal(shuffle[s_pos], pos) and np.array_equal(s_dist, dist)

    @given(tie_heavy_knn(), st.integers(0, 3))
    def test_prefix_of_a_larger_query(self, case, extra):
        ids, lats, lons, q_lat, q_lon, k, _ = case
        idx = GeoIndex(ids, lats, lons)
        pos, dist = idx.knn_query_many(np.radians(q_lat), np.radians(q_lon), k)
        wide_pos, wide_dist = idx.knn_query_many(np.radians(q_lat), np.radians(q_lon), k + extra)
        assert np.array_equal(wide_pos[:, :k], pos)
        assert np.array_equal(wide_dist[:, :k], dist)

    def test_only_rows_tied_at_the_kth_neighbour_gather_the_ball(self, monkeypatch):
        # position order is the reverse of id order; three points at (45, 7), one far apart
        idx = GeoIndex(np.array([9, 8, 7, 6]), np.array([45.0, 45.0, 45.0, -30.0]), np.array([7.0, 7.0, 7.0, 100.0]))
        seen, measured = [], []
        ball = GeoIndex._ball_candidates
        monkeypatch.setattr(GeoIndex, "_ball_candidates", lambda self, q, r: seen.append(len(q)) or ball(self, q, r))
        monkeypatch.setattr(geo, "haversine_km_arrays", lambda *a: measured.append(np.size(a[2])) or haversine_km_arrays(*a))
        # at k = 1 only the row on the three co-located points ties; the rows at and near the lone point do not
        q_lat, q_lon = np.array([45.0, -30.0, -20.0]), np.array([7.0, 100.0, 90.0])
        pos, _ = idx.knn_query_many(np.radians(q_lat), np.radians(q_lon), 1)
        assert seen == [1]
        assert idx.survey_ids[pos].tolist() == [[7], [6], [6]]
        seen.clear()
        pos, _ = idx.knn_query_many(np.radians(q_lat[:1]), np.radians(q_lon[:1]), 3)  # its 4th neighbour is far away
        assert seen == [] and idx.survey_ids[pos].tolist() == [[7, 8, 9]]
        assert measured[-1] == 3  # a row clear of ties re-ranks its k chord neighbours only

    @pytest.mark.parametrize(
        "chord_k, chord_next, tied",
        [
            (0.25, 0.25, True),  # equal chords
            (0.0, 0.0, True),
            (0.25, 0.25 * (1 + _CHORD_REL) + _CHORD_ABS, True),  # at the ball's inflated bound
            (0.25, (0.25 * (1 + _CHORD_REL) + _CHORD_ABS) * (1 + _CHORD_REL / 2), True),  # beyond it, within the margin
            (0.0, 1.5 * _CHORD_ABS, True),
            (0.25, 0.25 * (1 + 4 * _CHORD_REL), False),  # clearly beyond the margin
            (0.0, 3 * _CHORD_ABS, False),
            (0.25, math.nan, True),
        ],
    )
    def test_needs_ball_rule(self, chord_k, chord_next, tied):
        assert _needs_ball(np.array([chord_k]), np.array([chord_next])).tolist() == [tied]
