import math
import re

import numpy as np
import pytest

from conftest import make_dataset
from geoflora.gate import GateAssignment, RoutingError, Side, assign, moe_merge, read_assignments, write_assignments
from geoflora.geo import GeoPoint, haversine_km
from geoflora.ingest import ParseError
from geoflora.synth import uniform_surveys


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
        d = haversine_km(GeoPoint.from_degrees(48.05, 2.0), GeoPoint.from_degrees(48.0, 2.0))
        (a,) = assign(test, pa, gate_radius_km=d)
        assert a.side is Side.IN_DISTRIBUTION

    def test_empty_pa_routes_everything_ood(self):
        test = coords_only([(1, 0.0, 0.0), (2, 10.0, 10.0)])
        pa = make_dataset([])
        got = assign(test, pa)
        assert all(a.side is Side.OUT_OF_DISTRIBUTION and math.isinf(a.nearest_pa_km) for a in got)

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
                    haversine_km(
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
        assignments = [GateAssignment(1, Side.IN_DISTRIBUTION, 1.0), GateAssignment(2, Side.IN_DISTRIBUTION, 2.0)]
        in_preds = {1: frozenset({5}), 2: frozenset({6, 7})}
        assert moe_merge(assignments, in_preds, {}) == in_preds

    def test_disjoint_halves_routed(self):
        assignments = [GateAssignment(1, Side.IN_DISTRIBUTION, 1.0), GateAssignment(2, Side.OUT_OF_DISTRIBUTION, 99.0)]
        got = moe_merge(assignments, {1: frozenset({5})}, {2: frozenset({9})})
        assert got == {1: frozenset({5}), 2: frozenset({9})}

    def test_random_routing_matches_table_lookup(self, rng):
        assignments = []
        in_preds, ood_preds = {}, {}
        for sid in range(1, 101):
            side = Side.IN_DISTRIBUTION if rng.random() < 0.5 else Side.OUT_OF_DISTRIBUTION
            assignments.append(GateAssignment(sid, side, float(rng.uniform(0, 20))))
            in_preds[sid] = frozenset(rng.choice(30, 3, replace=False).tolist())
            ood_preds[sid] = frozenset(rng.choice(30, 3, replace=False).tolist())
        got = moe_merge(assignments, in_preds, ood_preds)
        for a in assignments:
            expected = in_preds[a.survey_id] if a.side is Side.IN_DISTRIBUTION else ood_preds[a.survey_id]
            assert got[a.survey_id] == expected

    def test_missing_survey_error_names_it(self):
        assignments = [GateAssignment(123, Side.OUT_OF_DISTRIBUTION, 50.0)]
        with pytest.raises(RoutingError, match="123"):
            moe_merge(assignments, {123: frozenset()}, {})


def test_assignment_csv_round_trip(tmp_path, rng):
    test = uniform_surveys(20, 5, rng, mean_extra_species=0)
    pa = uniform_surveys(10, 5, rng, id_start=1000)
    original = assign(test, pa, 100.0)
    path = str(tmp_path / "gate.csv")
    write_assignments(original, path)
    assert read_assignments(path) == original


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,in_distribution", "expected 3 fields, got 2"),
        ("1,inside,3.0", "malformed row: 'inside' is not a valid Side"),
        ("x1,in_distribution,3.0", "malformed row: invalid literal for int"),
        ("1_0,in_distribution,nan", "malformed row: ids must be ASCII digits"),
        ("1,in_distribution,nan", r"malformed row: nearestPaKm must be >= 0 or inf, got nan$"),
        ("1,in_distribution,-0.5", r"malformed row: nearestPaKm must be >= 0 or inf, got -0.5$"),
        ("1,in_distribution,-inf", r"malformed row: nearestPaKm must be >= 0 or inf, got -inf$"),
        ("99999999999999999999,in_distribution,1.0", "survey or species id outside the 64-bit integer range"),
    ],
)
def test_bad_assignment_row_names_its_location(tmp_path, row, reason):
    path = tmp_path / "gate.csv"
    path.write_text(f"surveyId,side,nearestPaKm\n2,out_of_distribution,inf\n{row}\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: {reason}"):
        read_assignments(str(path))


def test_assignment_csv_round_trip_with_infinity(tmp_path):
    original = [GateAssignment(1, Side.OUT_OF_DISTRIBUTION, math.inf)]
    path = str(tmp_path / "gate.csv")
    write_assignments(original, path)
    assert read_assignments(path) == original
