import numpy as np
import pytest

from conftest import make_dataset, query_coordinates, random_surveys, score_matrix
from geoflora.geo import GeoIndex
from geoflora.ingest import Dataset, ParseError, SpeciesCatalog
from geoflora.predictor import ScoreMatrix, load_scores, neighbor_frequency_predict, save_scores
from oracles import neighbor_frequency_oracle
from synth import uniform_surveys


def query_points(rows):
    return make_dataset([(sid, lat, lon, set()) for sid, lat, lon in rows])


class TestNeighborFrequency:
    def test_k1_copies_nearest_survey(self):
        train = make_dataset([(1, 0.0, 0.0, {3, 5}), (2, 50.0, 50.0, {6})])
        test = query_points([(100, 0.1, 0.1)])
        m = neighbor_frequency_predict(train, test, 1)
        assert m.row(100) == {3: 1.0, 5: 1.0}

    def test_fraction_of_neighbors(self):
        train = make_dataset(
            [(1, 0.0, 0.0, {7}), (2, 0.01, 0.0, {7}), (3, 0.02, 0.0, {7}), (4, 0.03, 0.0, {8})]
        )
        test = query_points([(100, 0.0, 0.001)])
        m = neighbor_frequency_predict(train, test, 4)
        assert m.row(100) == {7: 0.75, 8: 0.25}

    def test_equidistant_tie_resolved_by_survey_id(self):
        train = make_dataset([(5, 1.0, 0.0, {1}), (2, -1.0, 0.0, {9})])
        test = query_points([(100, 0.0, 0.0)])
        m = neighbor_frequency_predict(train, test, 1)
        assert m.row(100) == {9: 1.0}  # id 2 wins the tie

    def test_scores_are_multiples_of_one_over_k(self, rng):
        train = uniform_surveys(60, 20, rng, mean_extra_species=1.0)
        test = query_points([(1000 + i, rng.uniform(36, 60), rng.uniform(-10, 30)) for i in range(15)])
        k = 7
        m = neighbor_frequency_predict(train, test, k)
        for sid in m.survey_ids():
            for val in m.row(sid).values():
                assert round(val * k) == pytest.approx(val * k, abs=1e-12)
                assert 0 < round(val * k) <= k

    def test_far_away_train_point_changes_nothing(self, rng):
        train = uniform_surveys(40, 10, rng, bbox=(40, 42, 0, 2))
        test = query_points([(900 + i, rng.uniform(40, 42), rng.uniform(0, 2)) for i in range(10)])
        k = 5
        base = neighbor_frequency_predict(train, test, k)
        far = make_dataset(
            [(int(train.ids[i]), train.lats[i], train.lons[i], set(train.species[i])) for i in range(len(train))]
            + [(99999, -40.0, 150.0, {0, 1, 2})]
        )
        assert neighbor_frequency_predict(far, test, k) == base

    def test_train_smaller_than_k_uses_all(self):
        train = make_dataset([(1, 0.0, 0.0, {3}), (2, 0.01, 0.0, {3, 4})])
        test = query_points([(100, 0.0, 0.0)])
        m = neighbor_frequency_predict(train, test, 10)
        assert m.row(100) == {3: 1.0, 4: 0.5}

    def test_validation(self):
        train = make_dataset([(1, 0.0, 0.0, {3})])
        test = query_points([(100, 0.0, 0.0)])
        with pytest.raises(ValueError):
            neighbor_frequency_predict(train, test, 0)
        with pytest.raises(ValueError):
            neighbor_frequency_predict(make_dataset([]), test, 1)


    @pytest.mark.parametrize("k", [1, 3, 10, 500])
    def test_scores_equal_the_oracle_bit_for_bit(self, rng, k):
        # k = 500 exceeds every training set; co-located surveys tie in distance
        for _ in range(6):
            train = random_surveys(rng, int(rng.integers(1, 150)), 12)
            lats, lons = query_coordinates(rng, train, 40)
            test = Dataset(np.arange(1, 41, dtype=np.int64), lats, lons, [frozenset()] * 40)
            m = neighbor_frequency_predict(train, test, k, num_species=12)
            assert m.survey_ids() == test.ids.tolist()
            assert {sid: m.row(sid) for sid in m.survey_ids()} == neighbor_frequency_oracle(train, test, k)
            # the first k columns of a wider query, as the pipeline shares one query between scores and votes
            wide, _ = GeoIndex.from_dataset(train).knn_query_many(np.radians(lats), np.radians(lons), k + 3)
            assert neighbor_frequency_predict(train, test, k, num_species=12, neighbors=wide) == m

    def test_too_few_neighbor_columns_are_rejected(self):
        train = make_dataset([(1, 0.0, 0.0, {3}), (2, 1.0, 0.0, {4}), (3, 2.0, 0.0, {5})])
        test = query_points([(100, 0.0, 0.0)])
        with pytest.raises(ValueError, match="at least 3 columns"):
            neighbor_frequency_predict(train, test, 5, neighbors=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="one row per query point"):
            neighbor_frequency_predict(train, test, 1, neighbors=np.array([[0], [1]]))

    def test_training_surveys_without_species_give_empty_rows(self):
        train = make_dataset([(1, 0.0, 0.0, set()), (2, 0.01, 0.0, {4})])
        m = neighbor_frequency_predict(train, query_points([(100, 0.0, 0.0), (101, 5.0, 5.0)]), 1, num_species=5)
        assert m.row(100) == {} and m.row(101) == {4: 1.0}


class TestScoreMatrix:
    def test_row_validation(self):
        assert score_matrix(10, {1: {0: 0.5}}).row(1) == {0: 0.5}
        with pytest.raises(ValueError, match="survey ids must be unique"):
            score_matrix(10, [(1, {0: 0.5}), (1, {})])
        with pytest.raises(ValueError, match="outside"):
            score_matrix(10, {1: {0: 0.5}, 2: {0: 1.2}})
        with pytest.raises(ValueError, match="out of range"):
            score_matrix(10, {1: {0: 0.5}, 3: {10: 0.5}})

    def test_array_constructor_checks_the_order_and_sorts_nothing(self):
        ids = np.array([2, 9])
        m = ScoreMatrix(5, ids, [0, 1, 3], [0, 1, 4], [1.0, 0.25, 0.5])
        assert m.survey_ids() == [2, 9] and list(m.row(9).items()) == [(1, 0.25), (4, 0.5)]
        assert m == score_matrix(5, {9: {4: 0.5, 1: 0.25}, 2: {0: 1.0}}) and len(m) == 2
        with pytest.raises(ValueError, match="survey ids must be unique and sorted ascending"):
            ScoreMatrix(5, [9, 2], [0, 2, 3], [1, 4, 0], [0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="each survey's species indices must ascend strictly"):
            ScoreMatrix(5, [2, 9], [0, 1, 3], [0, 4, 1], [1.0, 0.5, 0.25])
        with pytest.raises(KeyError):
            m.row(3)
        with pytest.raises(ValueError):
            m.scores[0] = 0.0  # the arrays are read-only
        assert ids.flags.writeable  # the caller's own arrays stay as they were

    def test_array_constructor_rejects_a_repeated_species_in_a_row(self):
        with pytest.raises(ValueError, match="each survey's species indices must ascend strictly"):
            ScoreMatrix(5, [9], [0, 2], [4, 4], [0.5, 0.25])
        with pytest.raises(ValueError, match="column lengths disagree"):
            ScoreMatrix(5, [9], [0, 3], [4, 4], [0.5, 0.25])
        with pytest.raises(ValueError, match="column lengths disagree"):
            ScoreMatrix(5, [9], [0, 2], [3, 4], [0.5])

    def test_round_trip_empty(self, tmp_path):
        catalog = SpeciesCatalog(np.arange(5, dtype=np.int64))
        m = ScoreMatrix(5)
        path = str(tmp_path / "scores.csv")
        save_scores(m, path, catalog)
        assert load_scores(path, catalog) == m

    def test_round_trip_random_sparse(self, rng, tmp_path):
        catalog = SpeciesCatalog(np.arange(50, dtype=np.int64) * 7 + 3)
        rows = {}
        for sid in range(1, 101):
            cols = rng.choice(50, size=rng.integers(1, 12), replace=False)
            rows[sid] = {int(c): float(rng.random()) for c in cols}
        m = score_matrix(50, rows)
        path = str(tmp_path / "scores.csv")
        save_scores(m, path, catalog)
        assert load_scores(path, catalog) == m

    def test_rows_without_entries_vanish_in_files(self, tmp_path):
        # the triplet format cannot express an entryless row
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        m = score_matrix(1, {1: {}, 2: {0: 0.25}})
        path = str(tmp_path / "scores.csv")
        save_scores(m, path, catalog)
        loaded = load_scores(path, catalog)
        assert loaded.survey_ids() == [2]
        assert loaded.row(2) == m.row(2)

    def test_load_rejects_out_of_bounds_score(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,1.2\n")
        with pytest.raises(ParseError, match=":2.*1.2"):
            load_scores(str(path), catalog)

    def test_load_rejects_survey_id_beyond_int64(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n99999999999999999999,7,0.5\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: survey or species id outside the 64-bit"):
            load_scores(str(path), catalog)

    @pytest.mark.parametrize("row", ["1_000,7,0.5", "1,٧,0.5", "+1,7,0.5"])
    def test_load_rejects_ids_other_than_ascii_digits(self, tmp_path, row):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text(f"surveyId,speciesId,score\n1,7,0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"scores\.csv:3: malformed row"):
            load_scores(str(path), catalog)

    @pytest.mark.parametrize("score", ["0_5", "0.٥", "٠.5"])
    def test_load_rejects_scores_other_than_ascii_numbers(self, tmp_path, score):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text(f"surveyId,speciesId,score\n1,7,0.5\n2,7,{score}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"scores\.csv:3: malformed row: score must be an ASCII"):
            load_scores(str(path), catalog)

    def test_load_rejects_bytes_that_are_not_utf8_at_their_line(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_bytes(b"surveyId,speciesId,score\n1,7,0.5\n2,7,0.\xb5\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: not valid UTF-8$"):
            load_scores(str(path), catalog)

    def test_load_keeps_signs_and_exponents_in_scores(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,5e-01\n2,7,+1E+00\n")
        matrix = load_scores(str(path), catalog)
        assert matrix.row(1) == {0: 0.5} and matrix.row(2) == {0: 1.0}

    def test_load_rejects_a_repeated_survey_species_pair(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7, 9], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n2,7,0.1\n1,9,0.2\n\n2,9,0.3\n1,7,0.9\n2,7,0.4\n")
        with pytest.raises(ParseError, match=r"scores\.csv:7: duplicate score for survey 1, species 7$"):
            load_scores(str(path), catalog)

    def test_load_rejects_unknown_species(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,8,0.5\n")
        with pytest.raises(ParseError, match="unknown species id 8"):
            load_scores(str(path), catalog)

    def test_load_reports_the_first_bad_row_and_a_rows_species_first(self, tmp_path):
        catalog = SpeciesCatalog(np.array([7], dtype=np.int64))
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n2,7,1.5\n3,8,0.5\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: score 1\.5 for survey 2, species 7 outside \[0, 1\]$"):
            load_scores(str(path), catalog)
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n3,8,0.5\n2,7,1.5\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: unknown species id 8$"):
            load_scores(str(path), catalog)
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n3,8,1.5\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: unknown species id 8$"):
            load_scores(str(path), catalog)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            load_scores(str(path), SpeciesCatalog(np.array([], dtype=np.int64)))

