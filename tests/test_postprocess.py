import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_dataset, query_coordinates, random_surveys, row_sets, score_matrix
from geoflora.geo import GeoIndex
from geoflora.ingest import Dataset, ParseError, SpeciesCatalog, union_rows
from geoflora.losses import samples_f1
from geoflora.postprocess import (
    OOD_VOTE,
    TopKConfig,
    VoteConfig,
    apply_top_k,
    finalize,
    grid_search_top_k,
    neighbor_vote_many,
    read_submission,
    side_predictions,
    write_submission,
)
from geoflora.predictor import ScoreMatrix
from oracles import neighbor_vote_oracle, threshold_top_k_oracle

SCORES = {0: 0.9, 1: 0.6, 2: 0.4}  # A, B, C

score_dicts = st.dictionaries(st.integers(0, 20), st.floats(0.0, 1.0), max_size=12)

# few distinct values, so scores tie with each other and with grid thresholds
tied_scores = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


# nine scores in ten below every one of low_thresholds, so most entries are ones Threshold Top-K cannot keep
low_scores = st.tuples(st.integers(0, 9), st.sampled_from([0.0, 0.1, 0.2]) | st.floats(0.0, 0.3, exclude_max=True), tied_scores).map(
    lambda t: t[2] if t[0] == 0 else t[1]
)
low_thresholds = st.sampled_from([0.3, 0.5, 0.75, 1.0]) | st.floats(0.3, 1.0)


@st.composite
def scored_surveys(draw, scores=tied_scores):
    """A score matrix (empty rows allowed) and a truth set per row (empty allowed)."""
    num_species = draw(st.integers(1, 8))
    rows = draw(
        st.dictionaries(
            st.integers(0, 100),
            st.dictionaries(st.integers(0, num_species - 1), scores, max_size=num_species),
            min_size=1,
            max_size=24,
        )
    )
    matrix = score_matrix(num_species, rows)
    truth = {sid: draw(st.frozensets(st.integers(0, num_species + 1), max_size=4)) for sid in rows}
    return matrix, truth


def top_k_by_id(matrix, cfg):
    """``apply_top_k``'s rows keyed by the matrix's survey ids."""
    return dict(zip(matrix.survey_ids(), apply_top_k(matrix, cfg), strict=True))


def top_k_row(scores, cfg):
    """``apply_top_k`` on a one-row score matrix holding ``scores`` (species below 32)."""
    return apply_top_k(score_matrix(32, {1: scores}), cfg)[0]


def surveys_and(thresholds):
    """``scored_surveys()`` with what ``thresholds(tied_scores)`` draws, or ``scored_surveys(low_scores)`` with what
    ``thresholds(low_thresholds)`` draws, where most entries fall below every threshold."""
    return st.tuples(scored_surveys(), thresholds(tied_scores)) | st.tuples(scored_surveys(low_scores), thresholds(low_thresholds))


def truth_dataset(truth):
    """The truth mapping as the ``Dataset`` that ``grid_search_top_k`` reads; coordinates are unused."""
    return make_dataset([(sid, 0.0, 0.0, species) for sid, species in truth.items()])


def assert_same_rows(got, expected):
    """Two ``RowSets`` with the same arrays: the same rows, each in the same order."""
    assert got.indptr.tolist() == expected.indptr.tolist() and got.indices.tolist() == expected.indices.tolist()
    assert got.indptr.dtype == expected.indptr.dtype and got.indices.dtype == expected.indices.dtype


def reference_grid_search(matrix, truth, thresholds, k_caps, fallback_top1):
    """Every grid point scored by ``apply_top_k`` + ``samples_f1``; first strict maximum wins."""
    best_cfg, best_f1 = None, -1.0
    for thr in sorted(thresholds):
        for k_cap in sorted(k_caps):
            cfg = TopKConfig(thr, k_cap, fallback_top1)
            f1 = samples_f1(truth, top_k_by_id(matrix, cfg))
            if f1 > best_f1:
                best_cfg, best_f1 = cfg, f1
    return best_cfg, best_f1


class TestThresholdTopK:
    def test_threshold_then_cap(self):
        assert top_k_row(SCORES, TopKConfig(0.5, 2)) == {0, 1}

    def test_nothing_clears_threshold(self):
        assert top_k_row(SCORES, TopKConfig(0.95, 3)) == frozenset()

    def test_fallback_emits_single_best(self):
        assert top_k_row(SCORES, TopKConfig(0.95, 3, fallback_top1=True)) == {0}

    def test_fallback_with_empty_row_stays_empty(self):
        assert top_k_row({}, TopKConfig(0.5, 3, fallback_top1=True)) == frozenset()

    def test_score_ties_prefer_lower_species_index(self):
        scores = {5: 0.8, 3: 0.8, 9: 0.8}
        assert top_k_row(scores, TopKConfig(0.5, 2)) == {3, 5}

    def test_boundary_score_included(self):
        assert top_k_row({4: 0.5}, TopKConfig(0.5, 1)) == {4}

    @given(score_dicts, st.floats(0.0, 1.0), st.integers(1, 8))
    def test_members_clear_threshold_and_cap(self, scores, threshold, k_cap):
        got = top_k_row(scores, TopKConfig(threshold, k_cap))
        assert len(got) <= k_cap
        assert all(scores[sp] >= threshold for sp in got)

    @given(score_dicts, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 8))
    def test_antitone_in_threshold(self, scores, t1, t2, k_cap):
        lo, hi = min(t1, t2), max(t1, t2)
        assert top_k_row(scores, TopKConfig(hi, k_cap)) <= top_k_row(scores, TopKConfig(lo, k_cap))

    @given(surveys_and(lambda scores: scores), st.integers(1, 6), st.booleans())
    def test_apply_top_k_equals_the_oracle_per_row(self, drawn, k_cap, fallback_top1):
        (matrix, _), threshold = drawn
        cfg = TopKConfig(threshold, k_cap, fallback_top1)
        assert top_k_by_id(matrix, cfg) == {sid: threshold_top_k_oracle(matrix.row(sid), cfg) for sid in matrix.survey_ids()}

    @pytest.mark.parametrize("fallback_top1", [False, True])
    def test_apply_top_k_equals_the_oracle_on_random_matrices(self, rng, fallback_top1):
        for _ in range(10):
            n, num_species = int(rng.integers(1, 300)), int(rng.integers(1, 40))
            row_len = rng.integers(0, num_species + 1, n)  # empty rows included
            species = np.concatenate([np.sort(rng.choice(num_species, r, replace=False)) for r in row_len] + [np.empty(0, np.int64)])
            scores = rng.integers(0, 5, species.size) / 4  # few distinct values: ties within rows and with thresholds
            matrix = ScoreMatrix(num_species, np.sort(rng.permutation(10 * n)[:n]), np.concatenate(([0], np.cumsum(row_len))), species, scores)
            for threshold in (0.0, 0.5, 0.6, 1.0):
                cfg = TopKConfig(threshold, int(rng.integers(1, 8)), fallback_top1)
                assert top_k_by_id(matrix, cfg) == {sid: threshold_top_k_oracle(matrix.row(sid), cfg) for sid in matrix.survey_ids()}

    @pytest.mark.parametrize("threshold", [0.5, 0.2])
    def test_fallback_keeps_the_lowest_species_of_a_best_score_tied_below_the_threshold(self, threshold):
        """Species 1 comes first but scores less; 3, 7 and 9 tie for the best score. At 0.2 they all clear the threshold."""
        matrix = score_matrix(12, {1: {9: 0.2, 1: 0.1, 7: 0.2, 3: 0.2}, 2: {}, 3: {11: 0.05, 2: 0.0}, 4: {5: 0.9, 4: 0.2}})
        cfg = TopKConfig(threshold, 2, fallback_top1=True)
        expected = {1: {3}, 2: set(), 3: {11}, 4: {5}} if threshold == 0.5 else {1: {3, 7}, 2: set(), 3: {11}, 4: {5, 4}}
        assert top_k_by_id(matrix, cfg) == {sid: threshold_top_k_oracle(matrix.row(sid), cfg) for sid in matrix.survey_ids()} == expected
        truth = {1: frozenset({3}), 2: frozenset(), 3: frozenset({2}), 4: frozenset({5})}
        got = grid_search_top_k(matrix, truth_dataset(truth), [threshold, 0.95], [1, 2], fallback_top1=True)
        assert got == reference_grid_search(matrix, truth, [threshold, 0.95], [1, 2], True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopKConfig(1.5, 3)
        with pytest.raises(ValueError):
            TopKConfig(0.5, 0)


def reference_dataset(species_lists, start_lat=0.0):
    # stacked along latitude, ~1.1 km apart, so proximity order equals list order
    return make_dataset(
        [(i + 1, start_lat + 0.01 * i, 0.0, set(sp)) for i, sp in enumerate(species_lists)]
    )


def vote_at_origin(reference, cfg):
    """``neighbor_vote_many``'s row for one query point at (0, 0)."""
    return neighbor_vote_many([0.0], [0.0], reference, cfg)[0]


class TestNeighborVote:
    def test_majority_of_six(self):
        ref = reference_dataset([{7}, {7}, {7}, {7}, {8}, {8}])
        assert vote_at_origin(ref, OOD_VOTE) == {7}  # 4/6 > 0.5; 2/6 fails

    def test_exact_half_excluded_when_strict(self):
        ref = reference_dataset([{7}, {7}, {7}, {8}, {8}, {8}])
        assert vote_at_origin(ref, OOD_VOTE) == frozenset()

    def test_exact_half_included_when_inclusive(self):
        ref = reference_dataset([{7}, {7}, {7}, {8}, {8}, {8}])
        got = vote_at_origin(ref, VoteConfig(6, 0.5, vote_inclusive=True))
        assert got == {7, 8}

    def test_unanimous_five_clears_eighty_percent(self):
        ref = reference_dataset([{3}, {3}, {3}, {3}, {3}, {9}])
        assert vote_at_origin(ref, VoteConfig()) == {3}

    def test_four_of_five_fails_strict_eighty_percent(self):
        ref = reference_dataset([{3}, {3}, {3}, {3}, {9}, {9}])
        assert vote_at_origin(ref, VoteConfig()) == frozenset()
        got = vote_at_origin(ref, VoteConfig(5, 0.8, vote_inclusive=True))
        assert got == {3}

    def test_small_reference_shrinks_denominator(self):
        ref = reference_dataset([{7}, {7}, {8}])
        assert vote_at_origin(ref, VoteConfig(6, 0.5)) == {7}  # 2/3 > 0.5

    def test_empty_reference_votes_nothing(self):
        assert vote_at_origin(make_dataset([]), OOD_VOTE) == frozenset()

    @pytest.mark.parametrize("strictly_greater", [True, False])
    @pytest.mark.parametrize("neighbor_count", [1, 4, 6, 300])
    def test_bulk_votes_equal_the_oracle(self, rng, neighbor_count, strictly_greater):
        # 300 neighbours exceed every reference; co-located surveys tie in distance; 0.5 of 4 or 6 ties the threshold
        for size in (0, 1, 5, 60, 150):
            reference = random_surveys(rng, size, 8)
            lats, lons = query_coordinates(rng, reference, 30)
            wide, _ = GeoIndex.from_dataset(reference).knn_query_many(np.radians(lats), np.radians(lons), neighbor_count + 4)
            for min_frequency in (0.25, 0.5, 1.0):
                cfg = VoteConfig(neighbor_count, min_frequency, vote_inclusive=not strictly_greater)
                got = neighbor_vote_many(lats, lons, reference, cfg)
                assert list(got) == neighbor_vote_oracle(reference, lats, lons, neighbor_count, min_frequency, strictly_greater)
                # the first columns of a wider query, as the pipeline shares one query between scores and votes
                assert list(neighbor_vote_many(lats, lons, reference, cfg, neighbors=wide)) == list(got)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VoteConfig(0, 0.5)
        with pytest.raises(ValueError):
            VoteConfig(5, 0.0)


class TestFinalize:
    def test_empty_votes_passthrough(self):
        assert list(finalize(row_sets([set()]), row_sets([{2, 3}]), [0])) == [frozenset({2, 3})]

    def test_disjoint_union(self):
        assert list(finalize(row_sets([{3}]), row_sets([{1, 2}]), [0])) == [frozenset({1, 2, 3})]

    def test_overlap_deduplicates(self):
        got = finalize(row_sets([{2, 3}]), row_sets([{1, 2}]), [0])
        assert got.row(0).tolist() == [1, 2, 3]

    @given(
        st.lists(st.frozensets(st.integers(0, 10), max_size=5), max_size=6),
        st.dictionaries(st.integers(0, 5), st.frozensets(st.integers(0, 10), max_size=5), max_size=4),
        st.integers(0, 10),
    )
    def test_adding_votes_never_removes_predictions(self, votes, picks, extra):
        picks = {row: sp for row, sp in picks.items() if row < len(votes)}  # picks go to vote rows
        base = finalize(row_sets(votes), row_sets(picks.values()), list(picks))
        bigger = finalize(row_sets(v | {extra} for v in votes), row_sets(picks.values()), list(picks))
        assert len(base) == len(bigger) == len(votes)
        for row, species in enumerate(base):
            assert species == votes[row] | picks.get(row, frozenset())
            assert species <= bigger[row]  # monotone per survey


class TestSidePredictions:
    @pytest.mark.parametrize("reference_size", [0, 3, 40])
    def test_rows_equal_top_k_united_with_votes(self, rng, reference_size):
        # a reference of 0 or 3 surveys is smaller than most neighbour counts drawn below
        for _ in range(8):
            num_species = int(rng.integers(4, 12))  # random_surveys draws up to 4 species per survey
            reference = random_surveys(rng, reference_size, num_species)
            m = int(rng.integers(0, 30))
            lats, lons = query_coordinates(rng, reference, m)
            ids = np.sort(rng.choice(np.arange(1, 10 * m + 2), m, replace=False))
            test = Dataset(ids, lats, lons, [frozenset()] * m)
            scored = np.sort(rng.permutation(ids)[: int(rng.integers(0, m + 1))])  # some test surveys get no score row
            row_len = rng.integers(0, num_species + 1, scored.size)  # empty rows included
            species = np.concatenate([np.sort(rng.choice(num_species, r, replace=False)) for r in row_len] + [np.empty(0, np.int64)])
            scores = rng.integers(0, 5, species.size) / 4  # ties within rows and with the thresholds
            matrix = ScoreMatrix(num_species, scored, np.concatenate(([0], np.cumsum(row_len))), species, scores)
            top_k = TopKConfig(float(rng.choice([0.0, 0.5, 0.6])), int(rng.integers(1, 5)), bool(rng.integers(2)))
            vote = VoteConfig(int(rng.integers(1, 8)), float(rng.choice([0.25, 0.5, 1.0])), bool(rng.integers(2)))
            got = side_predictions(matrix, test, reference, top_k, vote)
            scored_ids = set(scored.tolist())
            votes = neighbor_vote_oracle(reference, test.lats, test.lons, vote.vote_neighbors, vote.vote_min_freq, not vote.vote_inclusive)
            expected = [
                (threshold_top_k_oracle(matrix.row(sid), top_k) if sid in scored_ids else frozenset()) | votes[i]
                for i, sid in enumerate(test.ids.tolist())
            ]
            assert list(got) == expected
            assert all(np.all(np.diff(got.row(i)) > 0) for i in range(m))  # ascending, as write_submission needs

    def test_score_row_outside_the_test_set_is_an_error(self):
        test = make_dataset([(1, 0.0, 0.0, set())])
        matrix = score_matrix(2, {1: {0: 0.9}, 7: {1: 0.9}})
        with pytest.raises(ValueError, match=re.escape("scores for surveys absent from the test set: [7]")):
            side_predictions(matrix, test, reference_dataset([{0}]), TopKConfig(), VoteConfig())


class TestGridSearch:
    def test_picks_the_obvious_optimum(self):
        m = score_matrix(4, {1: {0: 0.9, 1: 0.7, 2: 0.3}, 2: {0: 0.8, 3: 0.6}})
        truth = {1: frozenset({0, 1}), 2: frozenset({0, 3})}
        cfg, f1 = grid_search_top_k(m, truth_dataset(truth), thresholds=(0.2, 0.5, 0.8), k_caps=(1, 2))
        assert f1 == 1.0
        assert (cfg.threshold, cfg.k_cap) == (0.2, 2)  # first perfect combination in scan order

    @given(
        surveys_and(lambda scores: st.lists(scores, min_size=1, max_size=5)),
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_matches_per_point_reference(self, drawn, k_caps, fallback_top1):
        (matrix, truth), thresholds = drawn
        got = grid_search_top_k(matrix, truth_dataset(truth), thresholds, k_caps, fallback_top1=fallback_top1)
        assert got == reference_grid_search(matrix, truth, thresholds, k_caps, fallback_top1)  # F1 bit-equal
        for thr in thresholds[:2]:
            for k_cap in k_caps[:2]:
                cfg = TopKConfig(thr, k_cap, fallback_top1)
                one_point = grid_search_top_k(matrix, truth_dataset(truth), [thr], [k_cap], fallback_top1=fallback_top1)
                assert one_point == (cfg, samples_f1(truth, top_k_by_id(matrix, cfg)))

    def test_f1_adds_surveys_in_id_order(self):
        # 15 per-survey F1 values whose pairwise total (numpy.sum) differs from the sequential one
        rows, truth = {}, {}
        for sid, (kept, first_true) in enumerate(zip("123123332111322", "011032230202233"), start=1):
            rows[sid] = {sp: 0.9 for sp in range(int(kept))}
            truth[sid] = frozenset(range(int(first_true), 4))
        m = score_matrix(4, rows)
        cfg = TopKConfig(0.5, 3)
        assert grid_search_top_k(m, truth_dataset(truth), [0.5], [3]) == (cfg, samples_f1(truth, top_k_by_id(m, cfg)))

    def test_id_mismatch_raises_the_samples_f1_message(self):
        m = score_matrix(2, {1: {0: 0.9}, 2: {1: 0.9}})
        truth = {1: frozenset({0}), 3: frozenset()}
        with pytest.raises(ValueError) as expected:
            samples_f1(truth, top_k_by_id(m, TopKConfig(0.5, 1)))
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            grid_search_top_k(m, truth_dataset(truth), thresholds=(0.5,), k_caps=(1,))
        with pytest.raises(ValueError, match="no surveys to score"):
            grid_search_top_k(ScoreMatrix(2), truth_dataset({}), thresholds=(0.5,), k_caps=(1,))

    @pytest.mark.parametrize("thresholds, k_caps", [((), (1, 2)), ((0.5,), ()), ((), ())])
    def test_empty_grid_raises(self, thresholds, k_caps):
        m = score_matrix(1, {1: {0: 0.9}})
        with pytest.raises(ValueError, match="empty grid"):
            grid_search_top_k(m, truth_dataset({1: frozenset({0})}), thresholds, k_caps)

    def test_out_of_range_grid_threshold_raises(self):
        m = score_matrix(1, {1: {0: 0.9}})
        with pytest.raises(ValueError, match=re.escape("threshold must be in [0, 1], got 1.5")):
            grid_search_top_k(m, truth_dataset({1: frozenset({0})}), thresholds=(0.5, 1.5), k_caps=(1,))

    def test_returns_a_python_float(self):
        m = score_matrix(2, {1: {0: 0.9, 1: 0.6}})
        _, f1 = grid_search_top_k(m, truth_dataset({1: frozenset({0})}), thresholds=(0.5,), k_caps=(1, 2))
        assert type(f1) is float and f1 == 1.0

    def test_apply_top_k_covers_all_rows(self):
        m = score_matrix(3, {5: {0: 1.0}, 2: {}})
        assert top_k_by_id(m, TopKConfig(0.5, 2)) == {2: frozenset(), 5: frozenset({0})}


class TestSubmissionIO:
    def test_round_trip_and_raw_id_order(self, tmp_path):
        catalog = SpeciesCatalog(np.array([100, 205, 309], dtype=np.int64))
        ids = np.array([3, 7, 10])
        preds = union_rows(3, (np.array([1, 2]), row_sets([[2, 0], [1]])))  # unordered input, ascending rows
        path = str(tmp_path / "sub.csv")
        write_submission(ids, preds, path, catalog)
        text = (tmp_path / "sub.csv").read_text()
        assert text == "surveyId,predictions\n3,\n7,100 309\n10,205\n"
        assert read_submission(path) == {3: frozenset(), 7: frozenset({100, 309}), 10: frozenset({205})}
        with pytest.raises(ValueError):
            write_submission(ids[:2], preds, path, catalog)  # one id per row

    def test_read_rejects_duplicates(self, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_text("surveyId,predictions\n1,5\n1,6\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_submission(str(path))

    def test_read_rejects_bytes_that_are_not_utf8_at_their_line(self, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_bytes(b"surveyId,predictions\n1,5\n2,5 \x80\n")
        with pytest.raises(ParseError, match=r"sub\.csv:3: not valid UTF-8$"):
            read_submission(str(path))

    def test_read_reports_the_first_repeated_survey_in_file_order(self, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_text("surveyId,predictions\n9,5\n1,5\n\n1,6\n9,7\n")
        with pytest.raises(ParseError, match=r"sub\.csv:5: duplicate survey id 1$"):
            read_submission(str(path))

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("abc,5", "malformed row"),
            ("99999999999999999999,5", "survey or species id outside the 64-bit"),
            ("2,5 x", "malformed row"),
            ("2,5 9223372036854775808", "survey or species id outside the 64-bit"),
            ("1_000,5", "malformed row"),
            ("2,5 ٣", "malformed row"),
        ],
    )
    def test_read_rejects_bad_ids_with_line(self, tmp_path, row, reason):
        path = tmp_path / "sub.csv"
        path.write_text(f"surveyId,predictions\n1,5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"sub\.csv:3: {reason}"):
            read_submission(str(path))
