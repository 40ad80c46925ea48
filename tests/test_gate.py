import math

import numpy as np
import pytest

from conftest import haversine, make_dataset, row_sets
from geoflora.gate import Gate, Side, assign, moe_merge, write_assignments
from geoflora.geo import GeoPoint
from synth import uniform_surveys


def coords_only(rows):
    return make_dataset([(sid, lat, lon, set()) for sid, lat, lon in rows])


class TestAssign:
    def test_coincident_point_is_in_distribution(self):
        test = coords_only([(1, 48.0, 2.0)])
        pa = make_dataset([(10, 48.0, 2.0, {0})])
        (a,) = assign(test, pa)
        assert a.side is Side.IN_DISTRIBUTION and a.nearest_pa_km == 0.0

    def test_boundary_examples_around_10km(self):
        test = coords_only([(1, 48.05, 2.0), (2, 48.0, 2.2)])  # ~5.56 km and ~14.9 km from the PA point
        pa = make_dataset([(10, 48.0, 2.0, {0})])
        a1, a2 = assign(test, pa)
        assert a1.side is Side.IN_DISTRIBUTION
        assert a1.nearest_pa_km == pytest.approx(5.5597, abs=1e-3)
        assert a2.side is Side.OUT_OF_DISTRIBUTION
        assert a2.nearest_pa_km == pytest.approx(14.88, abs=0.01)

    def test_exact_boundary_is_inclusive(self):
        test = coords_only([(1, 48.05, 2.0)])
        pa = make_dataset([(10, 48.0, 2.0, {0})])
        d = haversine(GeoPoint.from_degrees(48.05, 2.0), GeoPoint.from_degrees(48.0, 2.0))
        (a,) = assign(test, pa, gate_radius_km=d)
        assert a.side is Side.IN_DISTRIBUTION

    def test_empty_pa_routes_everything_ood(self, tmp_path):
        test = coords_only([(1, 0.0, 0.0), (2, 10.0, 10.0)])
        pa = make_dataset([])
        got = assign(test, pa)
        assert all(a.side is Side.OUT_OF_DISTRIBUTION and math.isinf(a.nearest_pa_km) for a in got)
        write_assignments(got, str(tmp_path / "gate.csv"))
        assert (tmp_path / "gate.csv").read_text() == "surveyId,side,nearestPaKm\n1,out_of_distribution,inf\n2,out_of_distribution,inf\n"

    def test_nan_radius_is_rejected(self):
        test = coords_only([(1, 48.0, 2.0)])
        pa = make_dataset([(10, 48.0, 2.0, {0})])
        with pytest.raises(ValueError, match="gate_radius_km must be >= 0"):
            assign(test, pa, math.nan)

    def test_matches_brute_force_nearest(self, rng):
        for _ in range(20):
            test = uniform_surveys(int(rng.integers(1, 40)), 5, rng, mean_extra_species=0)
            pa = uniform_surveys(int(rng.integers(1, 60)), 5, rng, id_start=1000)
            radius = float(rng.uniform(50, 1500))
            got = assign(test, pa, radius)
            for i, a in enumerate(got):
                dists = [
                    haversine(
                        GeoPoint.from_degrees(test.lats[i], test.lons[i]),
                        GeoPoint.from_degrees(pa.lats[j], pa.lons[j]),
                    )
                    for j in range(len(pa))
                ]
                nearest = min(dists)
                assert a.nearest_pa_km == nearest
                assert a.side is (Side.IN_DISTRIBUTION if nearest <= radius else Side.OUT_OF_DISTRIBUTION)

    def test_partition_is_disjoint_and_exhaustive(self, rng):
        test = uniform_surveys(100, 5, rng, mean_extra_species=0)
        pa = uniform_surveys(50, 5, rng, id_start=1000)
        got = assign(test, pa, 200.0)
        assert [a.survey_id for a in got] == list(test.ids)

    def test_growing_pa_never_flips_in_to_ood(self, rng):
        test = uniform_surveys(50, 5, rng, mean_extra_species=0)
        pa_small = uniform_surveys(20, 5, rng, id_start=1000)
        pa_big = make_dataset(
            [(int(pa_small.ids[i]), pa_small.lats[i], pa_small.lons[i], set(pa_small.species[i])) for i in range(len(pa_small))]
            + [(5000 + i, rng.uniform(36, 60), rng.uniform(-10, 30), {0}) for i in range(30)]
        )
        before = assign(test, pa_small, 300.0)
        after = assign(test, pa_big, 300.0)
        for b, a in zip(before, after):
            assert a.nearest_pa_km <= b.nearest_pa_km
            if b.side is Side.IN_DISTRIBUTION:
                assert a.side is Side.IN_DISTRIBUTION


class TestMoeMerge:
    def test_all_in_distribution_passthrough(self):
        gate = Gate(np.array([1, 2]), np.array([1.0, 2.0]), np.array([True, True]))
        in_preds = [frozenset({5}), frozenset({6, 7})]
        assert list(moe_merge(gate, row_sets(in_preds), row_sets([]))) == in_preds

    def test_disjoint_halves_routed(self):
        gate = Gate(np.array([1, 2]), np.array([1.0, 99.0]), np.array([True, False]))
        got = moe_merge(gate, row_sets([{5}]), row_sets([{9}]))
        assert list(got) == [frozenset({5}), frozenset({9})]

    def test_random_routing_matches_table_lookup(self, rng):
        gate = Gate(np.arange(1, 101), rng.uniform(0, 20, 100), rng.random(100) < 0.5)
        in_preds, ood_preds = {}, {}
        for sid in range(1, 101):
            in_preds[sid] = frozenset(rng.choice(30, 3, replace=False).tolist())
            ood_preds[sid] = frozenset(rng.choice(30, 3, replace=False).tolist())
        # each expert predicts its own side's surveys only, in gate order
        got = moe_merge(
            gate,
            row_sets(in_preds[a.survey_id] for a in gate if a.side is Side.IN_DISTRIBUTION),
            row_sets(ood_preds[a.survey_id] for a in gate if a.side is Side.OUT_OF_DISTRIBUTION),
        )
        for a, row in zip(gate, got, strict=True):
            expected = in_preds[a.survey_id] if a.side is Side.IN_DISTRIBUTION else ood_preds[a.survey_id]
            assert row == expected
