import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geoflora import pseudolabel
from geoflora.ingest import Dataset
from geoflora.pseudolabel import (
    LAT_KM_PER_DEG,
    LON_KM_PER_DEG_AT_EQUATOR,
    MergeConfig,
    MergeMode,
    merge_points,
    merge_stats,
    merged_to_dataset,
    neighbors_in_patch,
)
from oracles import box_members_oracle, merge_points_oracle
from synth import PLACES, clustered_surveys, colocated_surveys, scatter


def cfg(mode=MergeMode.LOOSE, **kw):
    return MergeConfig(mode=mode, **kw)


def record_key(r):
    return (r.survey_id, r.lat, r.lon, r.species, r.source_ids)


PAIR = [(1, 45.0, 5.0, {1, 2}), (2, 45.0005, 5.0, {3})]  # ~55.7 m apart in latitude


@st.composite
def box_edge_surveys(draw):
    """(dataset, half-side): surveys around a few centres (the poles, +-180 degrees, anywhere), each on a centre
    or on its box edges in float (dlat = half / 111.4, dlon = half / (111.32 cos lat)), wrapped at +-180 degrees;
    the largest half-side makes one latitude band span the globe."""
    half = draw(st.sampled_from([0.32, 7.5, 1e-7, 25_000.0]))
    lat = st.one_of(st.sampled_from([-90.0, 90.0, 0.0, -89.9995, 89.99999]), st.floats(-90.0, 90.0))
    lon = st.one_of(st.sampled_from([-180.0, 180.0, -179.9999, 179.99999, 0.0]), st.floats(-180.0, 180.0))
    centres = draw(st.lists(st.tuples(lat, lon), min_size=1, max_size=5))
    coords = []
    for _ in range(draw(st.integers(1, 30))):
        c_lat, c_lon = draw(st.sampled_from(centres))
        on_lat, on_lon = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1), (1, -1)]))
        p_lat = c_lat + on_lat * (half / LAT_KM_PER_DEG)
        p_lon = c_lon + on_lon * (half / (LON_KM_PER_DEG_AT_EQUATOR * math.cos(math.radians(c_lat))))
        if not -180.0 <= p_lon <= 180.0:  # straddles +-180 degrees
            p_lon = math.fmod(p_lon + 180.0, 360.0) + (180.0 if p_lon < -180.0 else -180.0)
        coords.append((min(max(p_lat, -90.0), 90.0), p_lon))
    lats, lons = np.array(coords).T
    return Dataset(np.arange(1, lats.size + 1), lats, lons, [frozenset({i % 3}) for i in range(lats.size)]), half


def window_edge_pair(lon, side, half=0.32):
    """(dataset, half-side): an anchor on the equator at ``lon`` and a survey one ulp inside its box edge on ``side``
    (-1 west, +1 east). At the longitudes used below, that survey shares its 2**-26 degree cell with the sweep's
    padded window end ``lon + side * w``."""
    edge = np.nextafter(lon + side * (half / LON_KM_PER_DEG_AT_EQUATOR), lon)
    return Dataset(np.array([1, 2]), np.zeros(2), np.array([lon, edge]), [frozenset({0}), frozenset({1})]), half


# Run-end probe counts of the member sweep: none (every open run takes the binary search), one, and the default.
PROBES = [0, 1, pseudolabel._PROBES]


@contextlib.contextmanager
def probing(count):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pseudolabel, "_PROBES", count)
        yield


def assert_member_rows_match_oracle(ds, c):
    """Each survey's row rebuilt from the sweep's box pairs (the survey itself plus its members, ascending) against
    the pairwise box test; returns the rows."""
    anchor, member, _ = pseudolabel._box_pairs(ds, c)
    rows = [sorted([i] + member[anchor == i].tolist()) for i in range(len(ds))]
    for i, row in enumerate(rows):
        assert row == box_members_oracle(ds, i, c).tolist()
    return rows


class TestConfig:
    def test_other_validation(self):
        with pytest.raises(ValueError):
            MergeConfig(mode=MergeMode.LOOSE, box_half_km=0.0)
        with pytest.raises(ValueError):
            MergeConfig(mode=MergeMode.LOOSE, rare_count_threshold=0)

    @pytest.mark.parametrize(
        "setting, message",
        [("box_half_km", "box_half_km must be positive, got nan"), ("rare_count_threshold", "rare_count_threshold must be >= 1, got nan")],
    )
    def test_nan_is_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MergeConfig(mode=MergeMode.STRICT, **{setting: float("nan")})


class TestNeighborsInPatch:
    def test_isolated_survey_is_its_own_patch(self):
        ds = make_dataset([(1, 45.0, 5.0, {7})])
        got = neighbors_in_patch(ds, ds.record(0), cfg())
        assert [r.survey_id for r in got] == [1]

    def test_small_latitude_offset_included(self):
        # 0.0005 deg * 111.4 = 0.0557 km <= 0.32
        ds = make_dataset([(1, 45.0, 5.0, {1}), (2, 45.0005, 5.0, {2})])
        got = neighbors_in_patch(ds, ds.record(0), cfg())
        assert [r.survey_id for r in got] == [1, 2]

    def test_larger_latitude_offset_excluded(self):
        # 0.0035 deg * 111.4 = 0.39 km > 0.32
        ds = make_dataset([(1, 45.0, 5.0, {1}), (2, 45.0035, 5.0, {2})])
        got = neighbors_in_patch(ds, ds.record(0), cfg())
        assert [r.survey_id for r in got] == [1]

    def test_longitude_scale_uses_primary_latitude(self):
        # at lat 60 the lon threshold is 0.32 / (111.32 * cos60) ~ 0.00575 deg
        ds = make_dataset([(1, 60.0, 5.0, {1}), (2, 60.0, 5.005, {2}), (3, 60.0, 5.006, {3})])
        got = neighbors_in_patch(ds, ds.record(0), cfg())
        assert [r.survey_id for r in got] == [1, 2]

    def test_matches_pairwise_oracle_near_pole(self, rng):
        lats = rng.uniform(89.2, 89.9, 40)
        lons = rng.uniform(-180.0, 180.0, 40)
        ds = make_dataset([(i + 1, lats[i], lons[i], {i}) for i in range(40)])
        c = cfg()
        for i in range(len(ds)):
            got = [r.survey_id for r in neighbors_in_patch(ds, ds.record(i), c)]
            expected = sorted(int(ds.ids[j]) for j in box_members_oracle(ds, i, c))
            assert got == expected

    @pytest.mark.parametrize("box_half_km", [5000.0, 40000.0])
    def test_matches_pairwise_oracle_for_continental_boxes(self, rng, box_half_km):
        # offsets of a box this wide pass half the globe in latitude or longitude
        lats = rng.uniform(-89.9, 89.9, 60)
        lons = rng.uniform(-180.0, 180.0, 60)
        ds = make_dataset([(i + 1, lats[i], lons[i], {i}) for i in range(60)])
        c = cfg(box_half_km=box_half_km)
        for i in range(len(ds)):
            got = [r.survey_id for r in neighbors_in_patch(ds, ds.record(i), c)]
            assert got == sorted(int(ds.ids[j]) for j in box_members_oracle(ds, i, c))


class TestMergeModes:
    def test_single_survey(self):
        ds = make_dataset([(1, 45.0, 5.0, {7})])
        out = merge_points(ds, cfg(MergeMode.LOOSE))
        assert len(out) == 1
        assert out[0].species == frozenset({7})
        assert out[0].source_ids == (1,)

    def test_loose_keeps_both_with_union(self):
        out = merge_points(make_dataset(PAIR), cfg(MergeMode.LOOSE))
        assert len(out) == 2
        assert all(r.species == frozenset({1, 2, 3}) for r in out)
        assert {r.survey_id for r in out} == {1, 2}

    def test_strict_consumes_the_absorbed_survey(self):
        out = merge_points(make_dataset(PAIR), cfg(MergeMode.STRICT))
        assert len(out) == 1
        assert out[0].survey_id == 1  # two species, processed first
        assert out[0].species == frozenset({1, 2, 3})
        assert out[0].source_ids == (1, 2)

    def test_balanced_keeps_rare_species_surveys_as_primaries(self):
        # species 3 occurs once: rare under any threshold > 1
        out = merge_points(make_dataset(PAIR), cfg(MergeMode.BALANCED, rare_count_threshold=2))
        assert {r.survey_id for r in out} == {1, 2}

    def test_balanced_consumes_common_species_surveys(self):
        # every species common: balanced degenerates to strict
        ds = make_dataset([(1, 45.0, 5.0, {1, 2}), (2, 45.0005, 5.0, {1}), (10, 45.2, 5.0, {1, 2})])
        out = merge_points(ds, cfg(MergeMode.BALANCED, rare_count_threshold=1))
        assert {r.survey_id for r in out} == {1, 10}

    def test_processing_order_by_species_count_then_id(self):
        # 2 has more species than 1, so it anchors first and absorbs 1
        ds = make_dataset([(1, 45.0, 5.0, {5}), (2, 45.0005, 5.0, {6, 7})])
        out = merge_points(ds, cfg(MergeMode.STRICT))
        assert out[0].survey_id == 2
        # equal species counts: lower id anchors first
        ds = make_dataset([(8, 45.0, 5.0, {5}), (3, 45.0005, 5.0, {6})])
        out = merge_points(ds, cfg(MergeMode.STRICT))
        assert out[0].survey_id == 3

    def test_empty_dataset(self):
        ds = make_dataset([])
        assert len(merge_points(ds, cfg(MergeMode.STRICT))) == 0

    def test_merge_is_deterministic(self, rng):
        ds = clustered_surveys(500, 30, rng, clusters=12, sigma_km=0.4)
        a = merge_points(ds, cfg(MergeMode.BALANCED, rare_count_threshold=5))
        b = merge_points(ds, cfg(MergeMode.BALANCED, rare_count_threshold=5))
        assert list(a) == list(b)


class TestProperties:
    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_no_positive_label_noise_and_box_membership(self, rng, mode):
        ds = clustered_surveys(400, 25, rng, clusters=10, sigma_km=0.3)
        c = cfg(mode, rare_count_threshold=3)
        pos_by_id = {int(ds.ids[i]): i for i in range(len(ds))}
        for rec in merge_points(ds, c):
            members = [pos_by_id[sid] for sid in rec.source_ids]
            anchor = pos_by_id[rec.survey_id]
            assert anchor in members
            expected_members = set(box_members_oracle(ds, anchor, c))
            assert set(members) == expected_members
            union = frozenset().union(*(ds.species[m] for m in members))
            assert rec.species == union  # nothing invented, nothing dropped

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_species_coverage_conserved(self, rng, mode):
        # constituents always come from the full dataset, so no species can vanish
        ds = clustered_surveys(600, 40, rng, clusters=8, sigma_km=0.2)
        out = merge_points(ds, cfg(mode, rare_count_threshold=4))
        species_in = set().union(*ds.species)
        species_out = set().union(*(r.species for r in out))
        assert species_out == species_in

    def test_balanced_rare_surveys_all_anchor(self, rng):
        ds = clustered_surveys(300, 30, rng, clusters=6, sigma_km=0.2)
        thr = 3
        counts = ds.species_counts()
        out_ids = {r.survey_id for r in merge_points(ds, cfg(MergeMode.BALANCED, rare_count_threshold=thr))}
        for i in range(len(ds)):
            if any(counts[sp] < thr for sp in ds.species[i]):
                assert int(ds.ids[i]) in out_ids

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_mean_species_never_shrinks(self, rng, mode):
        ds = clustered_surveys(500, 35, rng, clusters=10, sigma_km=0.3)
        out = merge_points(ds, cfg(mode))
        mean_in = np.mean([len(s) for s in ds.species])
        mean_out = np.mean([len(r.species) for r in out])
        assert mean_out >= mean_in

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_merged_dataset_and_stats_match_oracle(self, rng, mode):
        ds = clustered_surveys(400, 25, rng, clusters=8, sigma_km=0.3)
        c = cfg(mode, rare_count_threshold=4)
        want = sorted(merge_points_oracle(ds, c))
        merged = merge_points(ds, c)
        assert merged_to_dataset(merged) == make_dataset([(sid, lat, lon, species) for sid, lat, lon, species, _ in want])
        report = merge_stats(ds, merged)
        assert (report.surveys_in, report.surveys_out, report.consumed) == (len(ds), len(want), len(ds) - len(want))
        assert report.species_in == len(set().union(*ds.species))
        assert report.species_out == len(set().union(*(r[3] for r in want)))
        assert report.mean_species_in == float(np.mean([len(s) for s in ds.species]))
        assert report.mean_species_out == float(np.mean([len(r[3]) for r in want]))

    def test_records_index_as_a_list(self, rng):
        ds = clustered_surveys(200, 15, rng, clusters=5, sigma_km=0.2)
        merged = merge_points(ds, cfg(MergeMode.STRICT))
        records = list(merged)
        assert merged[-1] == records[-1] and merged[np.int64(2)] == records[2]
        with pytest.raises(IndexError):
            merged[len(merged)]

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_matches_quadratic_oracle(self, rng, mode):
        for _ in range(6):
            n = int(rng.integers(2, 300))
            ds = clustered_surveys(n, 20, rng, clusters=max(2, n // 40), sigma_km=0.25)
            c = cfg(mode, rare_count_threshold=4)
            got = [record_key(r) for r in merge_points(ds, c)]
            assert got == merge_points_oracle(ds, c)


class TestMergeRegimes:
    """Shapes where the member sweep and the anchor rounds could part from the sequential walk."""

    @settings(max_examples=300)
    @given(box_edge_surveys())
    @example(window_edge_pair(-42.0, -1))  # a window start below zero, where truncation would round up
    @example(window_edge_pair(42.0, 1))
    @example(window_edge_pair(-179.9971254, -1))  # windows that end just inside +-180 degrees
    @example(window_edge_pair(179.9971254, 1))
    @pytest.mark.parametrize("probes", PROBES)
    def test_member_rows_match_the_pairwise_box_test(self, probes, case):
        ds, half = case
        with probing(probes):
            assert_member_rows_match_oracle(ds, cfg(box_half_km=half))

    def test_member_rows_where_a_band_pair_boxes_differ_in_width(self):
        # Near 80 N a box widens by ~3e-4 of itself per band. The anchor (band b + 1) holds the survey (band b) at
        # the mean of the two half-widths; the narrower box does not. The survey comes first in key order, so the
        # pair is found from it only through the band pair's wider window.
        lat, lat_above = 80.0, 80.0 + 0.9 * (0.32 / LAT_KM_PER_DEG)
        dlon = sum(0.32 / (LON_KM_PER_DEG_AT_EQUATOR * math.cos(math.radians(x))) for x in (lat, lat_above)) / 2
        ds = Dataset(np.array([1, 2]), np.array([lat, lat_above]), np.array([10.0, 10.0 + dlon]), [frozenset({0}), frozenset({1})])
        assert assert_member_rows_match_oracle(ds, cfg()) == [[0], [0, 1]]

    def test_member_rows_of_a_sub_nanometre_box_match_the_pairwise_box_test(self, rng):
        # a box this small would need more latitude bands than int64 sweep keys can count, were there no floor
        lats, lons = rng.uniform(-90.0, 90.0, 2000), rng.uniform(-180.0, 180.0, 2000)
        src, dst = rng.integers(0, 2000, 600), rng.integers(0, 2000, 600)
        lats[dst], lons[dst] = lats[src], np.nextafter(lons[src], rng.choice([-np.inf, 0.0, np.inf], 600))
        ds = Dataset(np.arange(1, 2001), lats, lons, [frozenset({1})] * 2000)
        assert sum(map(len, assert_member_rows_match_oracle(ds, cfg(box_half_km=1e-12)))) > 2000

    @pytest.mark.parametrize("lat, lon", [(math.nan, 0.0), (0.0, math.inf), (90.5, 0.0), (0.0, -180.5)])
    def test_coordinates_are_checked(self, lat, lon):
        ds = make_dataset([(1, 10.0, 10.0, {1}), (2, lat, lon, {2})])
        with pytest.raises(ValueError, match="^(non-finite coordinate|coordinate out of range)$"):
            merge_points(ds, cfg(MergeMode.STRICT))

    @pytest.mark.parametrize("mode", list(MergeMode))
    @pytest.mark.parametrize("cap", [0, 5, pseudolabel._MAX_ROUNDS])
    def test_chain_longer_than_the_round_cap_matches_oracle(self, monkeypatch, mode, cap):
        # Boxes 300 m apart on the equator, across +-180 degrees: each holds its two neighbours, so each anchor
        # consumes its successor and each round anchors one survey per run of the chain. Strict anchors every
        # other survey, more than the default cap of rounds; at cap 0 the survey-by-survey walk decides every
        # survey. Balanced rescues every 40th survey (a species of its own) in the middle of the chain.
        n = 3 * pseudolabel._MAX_ROUNDS
        monkeypatch.setattr(pseudolabel, "_MAX_ROUNDS", cap)
        lons = 179.8 + np.arange(n) * (0.3 / 111.32)
        lons[lons > 180.0] -= 360.0
        ds = Dataset(np.arange(1, n + 1), np.zeros(n), lons, [frozenset({i if i % 40 == 20 else 0}) for i in range(n)])
        c = cfg(mode, rare_count_threshold=2)
        want = merge_points_oracle(ds, c)
        if mode is MergeMode.STRICT:
            assert [r[0] for r in want] == list(range(1, n + 1, 2)) and len(want) > cap
        assert [record_key(r) for r in merge_points(ds, c)] == want

    def test_transect_anchors_every_other_survey(self):
        # 300 m apart on the equator: each box holds the two neighbours (300 m) but not the next (600 m);
        # equal species counts keep id order, so each anchor consumes its successor
        n = 20_000
        lons = -20.0 + np.arange(n) * (0.3 / 111.32)
        ds = Dataset(np.arange(1, n + 1), np.zeros(n), lons, [frozenset({i % 50}) for i in range(n)])
        out = merge_points(ds, cfg(MergeMode.STRICT))
        assert [r.survey_id for r in out] == list(range(1, n + 1, 2))
        for r in out:
            expected = tuple(sid for sid in (r.survey_id - 1, r.survey_id, r.survey_id + 1) if 1 <= sid <= n)
            assert r.source_ids == expected
            assert r.species == frozenset((sid - 1) % 50 for sid in expected)

    @pytest.mark.parametrize("mode", list(MergeMode))
    @pytest.mark.parametrize("probes", PROBES)
    def test_dense_clusters_with_duplicates_and_ties_match_oracle(self, monkeypatch, rng, mode, probes):
        monkeypatch.setattr(pseudolabel, "_PROBES", probes)
        ds = clustered_surveys(2000, 200, rng, clusters=3, sigma_km=0.2, mean_extra_species=0.3)
        lats, lons = ds.lats.copy(), ds.lons.copy()
        src, dst = rng.integers(0, len(ds), 200), rng.integers(0, len(ds), 200)
        lats[dst], lons[dst] = lats[src], lons[src]
        ds = Dataset(ds.ids, lats, lons, ds.species)
        c = cfg(mode, rare_count_threshold=12)
        assert [record_key(r) for r in merge_points(ds, c)] == merge_points_oracle(ds, c)

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_antimeridian_and_poles_match_oracle(self, rng, mode):
        m = 60
        lats = np.concatenate([rng.uniform(-0.002, 0.002, m), rng.uniform(89.99, 90.0, m), rng.uniform(-90.0, -89.99, m)])
        lons = np.concatenate([rng.choice([-179.9999, 179.9999], m) + rng.uniform(-0.002, 0.002, m), rng.uniform(-180.0, 180.0, 2 * m)])
        lons = np.clip(lons, -180.0, 180.0)
        ds = make_dataset([(i + 1, lats[i], lons[i], {i % 7}) for i in range(3 * m)])
        c = cfg(mode, rare_count_threshold=26)  # species 5 and 6 (25 surveys each) are rare
        assert [record_key(r) for r in merge_points(ds, c)] == merge_points_oracle(ds, c)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        near_pole=st.integers(1, 40),
        near_antimeridian=st.integers(1, 40),
        repeats=st.integers(0, 20),
        box_half_km=st.sampled_from([0.32, 5.0, 50.0]),
        rare=st.sampled_from([2, 20]),
    )
    def test_polar_and_antimeridian_bands_match_oracle(self, seed, near_pole, near_antimeridian, repeats, box_half_km, rare):
        # surveys 0.01-0.1 degrees from either pole (any longitude) or from +-180 degrees (any latitude), where
        # boxes cross +-180 degrees; the sweep must single out exactly the surveys whose own window crosses it
        rng = np.random.default_rng(seed)
        off_pole, off_180 = rng.uniform(0.01, 0.1, near_pole), rng.uniform(0.01, 0.1, near_antimeridian)
        lats = np.concatenate((rng.choice([-1.0, 1.0], near_pole) * (90.0 - off_pole), rng.uniform(-90.0, 90.0, near_antimeridian)))
        lons = np.concatenate((rng.uniform(-180.0, 180.0, near_pole), rng.choice([-1.0, 1.0], near_antimeridian) * (180.0 - off_180)))
        n = lats.size
        src, dst = rng.integers(0, n, repeats), rng.integers(0, n, repeats)
        lats[dst], lons[dst] = lats[src], lons[src]
        species = [frozenset(rng.choice(12, rng.integers(1, 4), replace=False).tolist()) for _ in range(n)]
        ds = Dataset(np.arange(1, n + 1), lats, lons, species)
        w = pseudolabel._padded_deg(box_half_km / (LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lats))))
        _, _, wrapping = pseudolabel._box_pairs(ds, cfg(box_half_km=box_half_km))
        assert sorted(wrapping.tolist()) == np.flatnonzero(np.abs(lons) + w > 180.0).tolist()
        for mode in MergeMode:
            c = cfg(mode, box_half_km=box_half_km, rare_count_threshold=rare)
            merged = merge_points(ds, c)
            assert [record_key(r) for r in merged] == merge_points_oracle(ds, c)
            assert merged.members.indptr.dtype == merged.members.indices.dtype == np.int32
            assert merged.unions.indptr.dtype == merged.unions.indices.dtype == np.int32

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(1, 4),
        distinct=st.integers(0, 40),
        place=st.sampled_from(PLACES),
        box_half_km=st.sampled_from([0.32, 5.0]),
        rare=st.sampled_from([2, 20]),
    )
    @pytest.mark.parametrize("probes", PROBES)
    def test_colocated_surveys_match_oracle(self, probes, seed, groups, distinct, place, box_half_km, rare):
        # many surveys at one coordinate, as presence-only surveys that share a satellite patch
        ds = colocated_surveys(groups, distinct, np.random.default_rng(seed), place=place)
        with probing(probes):
            for mode in MergeMode:
                c = cfg(mode, box_half_km=box_half_km, rare_count_threshold=rare)
                assert [record_key(r) for r in merge_points(ds, c)] == merge_points_oracle(ds, c)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        knots=st.integers(1, 4),
        n=st.integers(1, 150),
        repeats=st.integers(0, 40),
        box_half_km=st.sampled_from([0.32, 5.0]),
        rare=st.sampled_from([2, 20]),
    )
    def test_dense_knots_match_oracle(self, seed, knots, n, repeats, box_half_km, rare):
        # surveys scattered about one box side around a few sites, some on exactly the coordinates of others
        rng = np.random.default_rng(seed)
        lats, lons = scatter(rng, rng.uniform(-80.0, 80.0, knots), rng.uniform(-180.0, 180.0, knots), n, box_half_km)
        src, dst = rng.integers(0, n, repeats), rng.integers(0, n, repeats)
        lats[dst], lons[dst] = lats[src], lons[src]
        species = [frozenset(rng.choice(12, rng.integers(1, 4), replace=False).tolist()) for _ in range(n)]
        ds = Dataset(np.arange(1, n + 1), lats, np.clip(lons, -180.0, 180.0), species)
        for mode in MergeMode:
            c = cfg(mode, box_half_km=box_half_km, rare_count_threshold=rare)
            assert [record_key(r) for r in merge_points(ds, c)] == merge_points_oracle(ds, c)

    @pytest.mark.parametrize("mode", list(MergeMode))
    @pytest.mark.parametrize("box_half_km", [5000.0, 40000.0])
    def test_continental_boxes_match_oracle(self, rng, mode, box_half_km):
        lats = rng.uniform(-89.9, 89.9, 60)
        lons = rng.uniform(-180.0, 180.0, 60)
        ds = make_dataset([(i + 1, lats[i], lons[i], {i % 9, 10 + i % 4}) for i in range(60)])
        c = cfg(mode, box_half_km=box_half_km, rare_count_threshold=7)
        assert [record_key(r) for r in merge_points(ds, c)] == merge_points_oracle(ds, c)


class TestStatsAndRepackaging:
    def test_no_merging_means_zero_consumed(self):
        ds = make_dataset([(1, 10.0, 10.0, {1}), (2, 20.0, 20.0, {2})])
        out = merge_points(ds, cfg(MergeMode.STRICT))
        report = merge_stats(ds, out)
        assert report.consumed == 0
        assert report.surveys_in == report.surveys_out == 2

    def test_strict_pair_consumes_one(self):
        ds = make_dataset(PAIR)
        report = merge_stats(ds, merge_points(ds, cfg(MergeMode.STRICT)))
        assert (report.surveys_in, report.surveys_out, report.consumed) == (2, 1, 1)
        assert report.species_in == report.species_out == 3

    def test_loose_preserves_survey_count(self, rng):
        ds = clustered_surveys(200, 15, rng, clusters=5, sigma_km=0.2)
        report = merge_stats(ds, merge_points(ds, cfg(MergeMode.LOOSE)))
        assert report.surveys_out == report.surveys_in

    def test_merged_to_dataset_sorted(self):
        out = merge_points(make_dataset(PAIR), cfg(MergeMode.LOOSE))
        ds = merged_to_dataset(out)
        assert list(ds.ids) == [1, 2]
