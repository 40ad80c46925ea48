import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURES, make_dataset, row_sets, score_matrix
from oracles import parse_occurrences_oracle, save_scores_oracle, write_dataset_oracle, write_submission_oracle
from geoflora import ingest, predictor
from geoflora.ingest import (
    _SURVEY_LAYOUTS,
    Dataset,
    DatasetKind,
    ParseError,
    SpeciesCatalog,
    _row_pass,
    decode_species,
    parse_occurrences,
    read_table,
    reindex_dataset,
    union_rows,
    write_dataset,
)
from geoflora.pipeline import OUTPUTS
from geoflora.postprocess import _SUBMISSION_LAYOUT, read_submission, write_submission
from geoflora.predictor import _SCORE_LAYOUT, ScoreMatrix, load_scores, save_scores


def row_pass(path, layouts):
    """What the row pass makes of the file at ``path``."""
    return _row_pass(str(path), layouts, path.read_bytes())


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParsing:
    def test_long_rows_group_by_survey(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0,5.0,7", "1,45.0,5.0,9"])
        ds, catalog = parse_occurrences(path)
        assert len(ds) == 1
        rec = ds.record(0)
        assert rec.survey_id == 1 and rec.lat == 45.0 and rec.lon == 5.0
        assert {catalog.dense_to_raw[d] for d in rec.species} == {7, 9}

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId"])
        ds, catalog = parse_occurrences(path)
        assert len(ds) == 0 and len(catalog) == 0

    def test_wide_format_equivalent_to_long(self, tmp_path):
        long_path = write_lines(
            tmp_path, "long.csv", ["surveyId,lat,lon,speciesId", "2,1.0,2.0,30", "2,1.0,2.0,10", "5,3.0,4.0,10"]
        )
        wide_path = write_lines(
            tmp_path, "wide.csv", ["surveyId,lat,lon,speciesIds", "2,1.0,2.0,30 10", "5,3.0,4.0,10"]
        )
        assert parse_occurrences(long_path) == parse_occurrences(wide_path)

    def test_format_autodetl_and_mismatch(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesIds", "1,0.0,0.0,4 4 5"])
        ds, _ = parse_occurrences(path)
        assert len(ds.record(0).species) == 2  # duplicate species collapse

    def test_unrecognised_header(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["id,latitude,longitude,species", "1,0,0,2"])
        with pytest.raises(ParseError, match=":1"):
            parse_occurrences(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0,5.0,7", "2,oops,5.0,7"])
        with pytest.raises(ParseError, match=":3"):
            parse_occurrences(path)

    def test_survey_id_beyond_int64_reports_line(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0,5.0,1", "99999999999999999999,45.0,5.0,1"])
        with pytest.raises(ParseError, match=r"a\.csv:3: survey or species id outside the 64-bit"):
            parse_occurrences(path)

    def test_species_id_beyond_int64_reports_line(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesIds", "1,45.0,5.0,3 -9223372036854775809"])
        with pytest.raises(ParseError, match=r"a\.csv:2: survey or species id outside the 64-bit"):
            parse_occurrences(path)

    @pytest.mark.parametrize(
        "header, row",
        [
            ("surveyId,lat,lon,speciesId", "1_000,45.0,5.0,7"),
            ("surveyId,lat,lon,speciesId", "1,45.0,5.0,٣"),
            ("surveyId,lat,lon,speciesIds", "1,45.0,5.0,3 +4"),
            ("surveyId,lat,lon,speciesIds", "1,45.0,5.0,3 4_0"),
        ],
    )
    def test_ids_other_than_ascii_digits_are_malformed(self, tmp_path, header, row):
        path = write_lines(tmp_path, "a.csv", [header, "2,45.0,5.0,7", row])
        with pytest.raises(ParseError, match=r"a\.csv:3: malformed row"):
            parse_occurrences(path)

    @pytest.mark.parametrize("row, column", [("1,4_5.0,5.0,7", "lat"), ("1,45.0,٥.0,7", "lon"), ("1,45.0,5.0٠,7", "lon")])
    def test_coordinates_other_than_ascii_numbers_are_malformed(self, tmp_path, row, column):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "2,45.0,5.0,7", row])
        with pytest.raises(ParseError, match=rf"a\.csv:3: malformed row: {column} must be an ASCII decimal number$"):
            parse_occurrences(path)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\xfesurveyId,lat,lon,speciesId\n1,45.0,5.0,7\n", 1),
            (b"surveyId,lat,lon,speciesId\n1,45.0,5.0,7\n\n2,45.0,5.0,\xe97\n", 4),
            (b"\xef\xbb\xbfsurveyId,lat,lon,speciesId\n1,45.0,5.0,\xc3\n", 2),
            (b"surveyId,lat,lon,speciesId\r1,45.0,5.0,7\r2,45.0,5.0,\xe97\r", 3),  # the csv reader ends lines at a lone "\r"
            (b"surveyId,lat,lon,speciesId\r\n1,45.0,5.0,7\r\n\r\n2,45.0,5.0,\xe97\r\n", 4),
        ],
    )
    def test_bytes_that_are_not_utf8_name_the_line_of_the_first(self, tmp_path, data, line):
        path = tmp_path / "a.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"a\.csv:{line}: not valid UTF-8$"):
            parse_occurrences(str(path))
        with pytest.raises(ParseError, match=rf"a\.csv:{line}: not valid UTF-8$"):
            row_pass(path, _SURVEY_LAYOUTS)

    def test_coordinates_keep_signs_and_exponents(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,4.5e+01,+5.0,7", "2,-4.5E1,-5e-1,7"])
        ds, _ = parse_occurrences(path)
        assert ds.lats.tolist() == [45.0, -45.0] and ds.lons.tolist() == [5.0, -0.5]

    def test_int64_extremes_are_accepted(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesIds", "9223372036854775807,45.0,5.0,-9223372036854775808"])
        ds, catalog = parse_occurrences(path)
        assert int(ds.ids[0]) == 2**63 - 1 and catalog.dense_to_raw[0] == -(2**63)

    def test_ids_spanning_the_int64_range_are_accepted(self, tmp_path):
        rows = ["surveyId,lat,lon,speciesIds", "9223372036854775807,45.0,5.0,5", "-9223372036854775808,45.0,5.0,-9223372036854775808 5"]
        ds, catalog = parse_occurrences(write_lines(tmp_path, "a.csv", rows))
        assert ds.ids.tolist() == [-(2**63), 2**63 - 1] and catalog.dense_to_raw.tolist() == [-(2**63), 5]

    @pytest.mark.parametrize("body, line", [("1,45.0,5.0\n", 2), ('1,"45.0\n",5.0,7\n2,45.0,5.0\n', 4)])  # a row's first line
    def test_wrong_field_count_reports_line(self, tmp_path, body, line):
        path = tmp_path / "a.csv"
        path.write_text("surveyId,lat,lon,speciesId\n" + body)
        with pytest.raises(ParseError, match=rf"a\.csv:{line}: expected 4 fields, got 3$"):
            parse_occurrences(str(path))

    def test_conflicting_coordinates_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0,5.0,7", "1,45.00001,5.0,9"]
        )
        with pytest.raises(ParseError, match="conflicting"):
            parse_occurrences(path)

    def test_tiny_coordinate_jitter_tolerated(self, tmp_path):
        path = write_lines(
            tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0000000,5.0,7", "1,45.0000005,5.0,9"]
        )
        ds, _ = parse_occurrences(path)
        assert len(ds) == 1 and len(ds.record(0).species) == 2

    def test_out_of_range_coordinates_rejected(self, tmp_path):
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,95.0,5.0,7"])
        with pytest.raises(ParseError, match="out of range"):
            parse_occurrences(path)
        path = write_lines(tmp_path, "b.csv", ["surveyId,lat,lon,speciesId", "1,45.0,inf,7"])
        with pytest.raises(ParseError, match="non-finite"):
            parse_occurrences(path)

    def test_kind_checks(self, tmp_path):
        test_path = write_lines(tmp_path, "t.csv", ["surveyId,lat,lon,speciesIds", "1,0.0,0.0,", "2,1.0,1.0,"])
        ds, _ = parse_occurrences(test_path, kind=DatasetKind.TEST)
        assert all(not s for s in ds.species)
        bad_test = write_lines(tmp_path, "bad.csv", ["surveyId,lat,lon,speciesIds", "1,0.0,0.0,5"])
        with pytest.raises(ParseError, match="must not carry species"):
            parse_occurrences(bad_test, kind=DatasetKind.TEST)
        with pytest.raises(ParseError, match="carries no species"):
            parse_occurrences(test_path, kind=DatasetKind.PA_TRAIN)

    def test_parse_is_deterministic(self, tmp_path):
        path = write_lines(
            tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "9,1.0,1.0,3", "2,0.0,0.0,5", "9,1.0,1.0,1"]
        )
        assert parse_occurrences(path) == parse_occurrences(path)

    @given(st.permutations(list(range(6))))
    def test_row_order_never_matters(self, tmp_path_factory, perm):
        rows = ["4,1.0,1.0,3", "4,1.0,1.0,5", "2,0.5,0.5,3", "7,2.0,2.0,9", "7,2.0,2.0,3", "1,3.0,3.0,11"]
        tmp = tmp_path_factory.mktemp("perm")
        base = write_lines(tmp, "base.csv", ["surveyId,lat,lon,speciesId"] + rows)
        shuffled = write_lines(tmp, "shuf.csv", ["surveyId,lat,lon,speciesId"] + [rows[i] for i in perm])
        assert parse_occurrences(base) == parse_occurrences(shuffled)


def blank_lines(draw, faults: bool) -> list[str]:
    """None or one empty line; with ``faults`` the line may hold a space, a row of one field."""
    return [draw(st.sampled_from(["", " "] if faults else [""]))] * draw(st.integers(0, 1))


def padded(draw, text: str) -> str:
    """``text`` with or without a space on either side, as ``int`` and ``float`` accept it."""
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def id_field(draw, value: int, faults: bool = False):
    """``value`` written as an id field: plain or with leading zeros, ``-0`` for 0; with ``faults`` at times ``1.0``,
    ``1e3``, a misplaced ``-`` or an id just outside int64, which ``int`` or the int64 range reject, or with a comma,
    which adds a field."""
    sign, digits = ("-", str(-value)) if value < 0 else ("", str(value))
    text = draw(st.sampled_from([sign + digits, sign + "00" + digits] + (["-0"] if value == 0 else [])))
    if faults and draw(st.integers(0, 9)) == 0:
        beyond = [str(2**63), str(2**63 + 1), str(-(2**63) - 1), str(-(2**63) - 2)]
        text = draw(st.sampled_from([f"{value}.0", "1e3", f"{value},0", "-", "5-", "--1"] + beyond))
    return padded(draw, text)


@st.composite
def number_field(draw, value: float, faults: bool = False, plus: bool = False):
    """``value`` written so that ``float`` reads it back exactly: its repr or 17 digits with an exponent (``e``,
    ``E``, with ``plus`` also ``e+``), ``-0`` for 0; with ``faults`` at times ``1e999``, which reads as infinity."""
    exp = f"{value:.16e}"
    forms = [repr(value), exp.replace("e+", "e"), exp.replace("e+", "e").upper()] + [exp] * plus + ["-0"] * (value == 0)
    text = draw(st.sampled_from(forms))
    if faults and draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(["1e999", "-1e999"]))
    return padded(draw, text)


@st.composite
def survey_files(draw, faults: bool = False):
    """A long or wide survey file's lines and, or not, an explicit catalog covering its species.

    Surveys repeat over rows, the rows come in id order or shuffled, coordinates of a
    survey's later rows jitter by under 1e-6 degrees and blank lines fall in between.
    Fields are written as ``id_field`` and ``number_field`` write them; with ``faults``, half the files hold faults.
    """
    wide, plus, faults = draw(st.booleans()), draw(st.booleans()), faults and draw(st.booleans())
    ids = st.integers(-5, 5) | st.sampled_from([-(2**63), 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    rows = []
    for sid in draw(st.lists(ids, max_size=8, unique=True)):
        lat, lon = draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))
        for repeat in range(draw(st.integers(1, 3))):
            jitter = st.floats(-4e-7, 4e-7) if repeat else st.just(0.0)
            row_lat, row_lon = min(max(lat + draw(jitter), -90.0), 90.0), min(max(lon + draw(jitter), -180.0), 180.0)
            species = draw(st.lists(st.sampled_from(pool), max_size=4) if wide else st.lists(st.sampled_from(pool), min_size=1, max_size=1))
            fields = [draw(id_field(sid, faults)), draw(number_field(row_lat, faults, plus)), draw(number_field(row_lon, faults, plus))]
            rows.append((sid, ",".join(fields) + "," + " ".join(draw(id_field(sp, faults)) for sp in species)))
    rows = draw(st.permutations(rows) | st.just(sorted(rows, key=lambda r: r[0])))
    lines = ["surveyId,lat,lon,speciesIds" if wide else "surveyId,lat,lon,speciesId"]
    for _, row in rows:
        lines += blank_lines(draw, faults) + [row]
    catalog = None
    if draw(st.booleans()):
        catalog = SpeciesCatalog(np.unique(pool + draw(st.lists(ids, max_size=3))))
    return lines, catalog


class TestAgainstOracle:
    @given(survey_files())
    def test_parse_matches_the_row_by_row_oracle(self, tmp_path_factory, drawn):
        lines, catalog = drawn
        path = write_lines(tmp_path_factory.mktemp("oracle"), "a.csv", lines)
        ds, got_catalog = parse_occurrences(path, catalog=catalog)
        species = decode_species(ds, got_catalog)
        got = {sid: (lat, lon, species[sid]) for sid, lat, lon in zip(ds.ids.tolist(), ds.lats.tolist(), ds.lons.tolist())}
        expected = parse_occurrences_oracle(path)
        assert got == expected
        if catalog is None:
            assert got_catalog.dense_to_raw.tolist() == sorted(set().union(*(s for _, _, s in expected.values())))
        else:
            assert got_catalog is catalog

    def test_conflict_names_the_first_conflicting_line_and_the_surveys_first_line(self, tmp_path):
        rows = ["1,10.0,20.0,5", "2,0.0,0.0,5", "1,10.0000004,20.0,6", "3,1.0,1.0,5", "1,10.5,20.0,7", "0,0.0,0.0,5", "0,3.0,0.0,5"]
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId"] + rows)
        message = r"a\.csv:6: survey 1 has conflicting coordinates \(10\.5, 20\.0\) vs \(10\.0, 20\.0\) at line 2$"
        with pytest.raises(ParseError, match=message):
            parse_occurrences(path)

    def test_survey_with_two_unknown_species_names_the_smaller(self, tmp_path):
        catalog = SpeciesCatalog(np.array([5, 7], dtype=np.int64))
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesIds", "8,0.0,0.0,96", "4,0.0,0.0,99 5 98"])
        with pytest.raises(ParseError, match=r": survey 4 references species 98 not present in the catalog$"):
            parse_occurrences(path, catalog=catalog)


@st.composite
def score_files(draw):
    """A score file's lines and a catalog of its species: ids and scores written as ``id_field`` and ``number_field``
    write them, in half the files with faults, a (survey, species) pair at times repeated and blank lines in between."""
    ids = st.integers(-5, 5) | st.integers(-(2**63), 2**63 - 1)
    plus, faults = draw(st.booleans()), draw(st.booleans())
    pool = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    lines = ["surveyId,speciesId,score"]
    for sid in draw(st.lists(ids, max_size=6)):
        for raw in draw(st.lists(st.sampled_from(pool), max_size=3)):
            fields = [draw(id_field(sid, faults)), draw(id_field(raw, faults)), draw(number_field(draw(st.floats(0.0, 1.0)), faults, plus))]
            lines += blank_lines(draw, faults) + [",".join(fields)]
    return lines, SpeciesCatalog(np.unique(pool))


@st.composite
def submission_files(draw):
    """A submission file's lines: id lists written as ``id_field`` writes them, in half the files with faults, a survey
    at times repeated."""
    ids = st.integers(-5, 5) | st.integers(-(2**63), 2**63 - 1)
    faults = draw(st.booleans())
    lines = ["surveyId,predictions"]
    for sid in draw(st.lists(ids, max_size=6)):
        species = draw(st.lists(ids, max_size=4))
        lines += blank_lines(draw, faults) + [draw(id_field(sid, faults)) + "," + " ".join(draw(id_field(sp, faults)) for sp in species)]
    return lines


@st.composite
def file_bytes(draw, lines):
    """``lines`` as a file's bytes: LF (three times in four) or CRLF line endings, a UTF-8 BOM or none, a last line
    ending or none."""
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


def outcome(read):
    """What ``read()`` returns, or the text of the ``ParseError`` it raises."""
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_same_arrays(got, expected):
    """Equal outcomes of two readers: the same error text, or arrays of the same dtypes and bits."""
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
    else:
        assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in expected]


def row_pass_only():
    """Within this context every file goes to its format's row pass."""
    return mock.patch.object(ingest, "_bulk_table", return_value=None)


class TestBulkReader:
    """``read_table`` returns what the row pass returns, or raises its error, on files valid or not."""

    @given(st.data())
    def test_survey_files_read_as_the_row_pass_reads_them(self, tmp_path_factory, data):
        lines, catalog = data.draw(survey_files(faults=True))
        path = tmp_path_factory.mktemp("bulk") / "a.csv"
        path.write_bytes(data.draw(file_bytes(lines)))
        assert_same_arrays(outcome(lambda: read_table(str(path), _SURVEY_LAYOUTS)), outcome(lambda: row_pass(path, _SURVEY_LAYOUTS)))
        got = outcome(lambda: parse_occurrences(str(path), catalog=catalog))
        with row_pass_only():
            assert got == outcome(lambda: parse_occurrences(str(path), catalog=catalog))

    @given(st.data())
    def test_score_files_read_as_the_row_pass_reads_them(self, tmp_path_factory, data):
        lines, catalog = data.draw(score_files())
        path = tmp_path_factory.mktemp("bulk") / "scores.csv"
        path.write_bytes(data.draw(file_bytes(lines)))
        assert_same_arrays(outcome(lambda: read_table(str(path), [_SCORE_LAYOUT])), outcome(lambda: row_pass(path, [_SCORE_LAYOUT])))
        got = outcome(lambda: load_scores(str(path), catalog))
        with row_pass_only():
            assert got == outcome(lambda: load_scores(str(path), catalog))

    @given(st.data())
    def test_submission_files_read_as_the_row_pass_reads_them(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("bulk") / "sub.csv"
        path.write_bytes(data.draw(file_bytes(data.draw(submission_files()))))
        assert_same_arrays(outcome(lambda: read_table(str(path), [_SUBMISSION_LAYOUT])), outcome(lambda: row_pass(path, [_SUBMISSION_LAYOUT])))
        got = outcome(lambda: read_submission(str(path)))
        with row_pass_only():
            assert got == outcome(lambda: read_submission(str(path)))

    @pytest.mark.parametrize("token", ["-", "5-", "--1", "-5-", "1-2", "007", "-0", str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), str(2**64)])
    @pytest.mark.parametrize(
        "layouts, row",
        [
            (_SURVEY_LAYOUTS, "1,45.0,5.0,3 {} 4"),  # id lists
            (_SURVEY_LAYOUTS, "1,45.0,5.0,{}"),
            ([_SUBMISSION_LAYOUT], "1,{}"),
            ([_SUBMISSION_LAYOUT], "1,3 {}"),
            (_SURVEY_LAYOUTS[:1], "{},45.0,5.0,7"),  # flat id columns
            (_SURVEY_LAYOUTS[:1], "1,45.0,5.0,{}"),
            ([_SCORE_LAYOUT], "{},7,0.5"),
            ([_SCORE_LAYOUT], "1,{},0.5"),
            ([_SUBMISSION_LAYOUT], "{},3 4"),
        ],
    )
    def test_an_id_numpy_could_misread_reads_as_the_row_pass_reads_it(self, tmp_path, layouts, row, token):
        path = tmp_path / "a.csv"
        header = ",".join(layouts[-1].header)
        path.write_text(f"{header}\n" + row.replace("{}", "2") + "\n" + row.replace("{}", token) + "\n")
        assert_same_arrays(outcome(lambda: read_table(str(path), layouts)), outcome(lambda: row_pass(path, layouts)))

    @pytest.mark.parametrize(
        "layouts, text",
        [
            (_SURVEY_LAYOUTS, "surveyId,lat,lon,speciesId\n1,+45.0,+5e+00,7\n2,4.5E+1,-5.0,+9e0\n"),  # "+9e0" is no id
            (_SURVEY_LAYOUTS, "surveyId,lat,lon,speciesId\n1,+45.0,+5e+00,7\n2,4.5E+1,-5.0,9\n"),
            (_SURVEY_LAYOUTS, "surveyId,lat,lon,speciesIds\n1, +4.5e+01,+0,7 9\n\n2,-1.0,+.5,\n"),
            (_SURVEY_LAYOUTS, "surveyId,lat,lon,speciesIds\r\n1,+45.0,5.0,7\r\n2,45.0,+5.0,8"),
            ([_SCORE_LAYOUT], "surveyId,speciesId,score\n1,7,+0.5\n1,9,5e+-1\n"),  # "5e+-1" is no number
            ([_SCORE_LAYOUT], "surveyId,speciesId,score\n1,7,+0.5\n1,9,+5E-1 \n2,7,1e+0\n"),
        ],
    )
    def test_a_plus_sign_in_a_float_column_reads_in_bulk(self, tmp_path, monkeypatch, layouts, text):
        """The bulk pass reads what the row pass reads; a file numpy rejects goes to the row pass, and only such a file."""
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        expected = outcome(lambda: row_pass(path, layouts))
        if isinstance(expected, tuple):
            monkeypatch.setattr(ingest, "_row_pass", lambda *args: pytest.fail("a valid file reached the row pass"))
        assert_same_arrays(outcome(lambda: read_table(str(path), layouts)), expected)

    @pytest.mark.parametrize(
        "layouts, rows",
        [
            (_SURVEY_LAYOUTS, ["surveyId,lat,lon,speciesId", "+1,45.0,5.0,7"]),
            (_SURVEY_LAYOUTS, ["surveyId,lat,lon,speciesId", "1,+45.0,5.0,+7"]),
            (_SURVEY_LAYOUTS, ["surveyId,lat,lon,speciesIds", "+1,45.0,5.0,7 9"]),
            (_SURVEY_LAYOUTS, ["surveyId,lat,lon,speciesIds", "1,+45.0,+5.0,7 +9"]),
            (_SURVEY_LAYOUTS, ["surveyId,lat,lon,speciesIds", "1,45.0,5.0,+7"]),
            ([_SCORE_LAYOUT], ["surveyId,speciesId,score", "+1,7,0.5"]),
            ([_SCORE_LAYOUT], ["surveyId,speciesId,score", "1,+7,+0.5"]),
            ([_SUBMISSION_LAYOUT], ["surveyId,predictions", "+1,3 4"]),
            ([_SUBMISSION_LAYOUT], ["surveyId,predictions", "1,3 +4"]),
            ([_SUBMISSION_LAYOUT], ["surveyId,predictions", "1,+3"]),
        ],
    )
    def test_a_plus_sign_in_an_id_is_malformed_at_its_line(self, tmp_path, layouts, rows):
        """``int`` reads "+5", but an id is ASCII digits with an optional minus sign; numpy would read it, so the file
        goes to the row pass."""
        path = tmp_path / "a.csv"
        row = rows[1].replace("+", "")
        path.write_text("\n".join([rows[0], row, rows[1]]) + "\n")
        with pytest.raises(ParseError, match=r"a\.csv:3: malformed row: ids must be ASCII digits with an optional minus sign$"):
            read_table(str(path), layouts)
        assert outcome(lambda: read_table(str(path), layouts)) == outcome(lambda: row_pass(path, layouts))

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,0.5,0.5,7\n2,1e999,0.5,7\n", 3),  # parses to inf, caught after the read
            ("1,0.5,0.5,7\n\n2,0.5,-1e999,7\n", 4),
            ('1,"0.5\n",0.5,7\n2,nan,0.5,7\n', 4),  # the line a row starts on, though a quoted field held a line break
        ],
    )
    def test_an_infinite_coordinate_is_non_finite_at_its_line(self, tmp_path, body, line):
        path = tmp_path / "a.csv"
        path.write_text("surveyId,lat,lon,speciesId\n" + body)
        with pytest.raises(ParseError, match=rf"a\.csv:{line}: non-finite coordinate$"):
            parse_occurrences(str(path))

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (parse_occurrences, "surveyId,lat,lon,speciesIds\n1,0.5,0.5,4\n2,0.5,0.5,4,0 5", "expected 4 fields, got 5"),
            (read_submission, "surveyId,predictions\n1,4\n2,4,0 5", "expected 2 fields, got 3"),
            (read_submission, "surveyId,predictions\n1,4\n,5 6\n", "malformed row: invalid literal for int\\(\\) with base 10: ''"),
        ],
    )
    def test_a_last_row_the_bulk_pass_cannot_cut_reaches_the_row_pass(self, tmp_path, read, text, message):
        path = tmp_path / "a.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"a\.csv:3: {message}$"):
            read(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    @pytest.mark.parametrize(
        "read, text",
        [
            (parse_occurrences, "surveyId,lat,lon,speciesId\n1,45.0,5.0,7\n2,46.0,5.0,7\n"),  # long, in bulk
            (parse_occurrences, "surveyId,lat,lon,speciesIds\n1,45.0,5.0,7 9\n2,46.0,5.0,7\n"),  # wide, in bulk
            (parse_occurrences, 'surveyId,lat,lon,speciesId\n1,"45.0",5.0,7\n'),  # quoted: the row pass
            (lambda path: load_scores(path, SpeciesCatalog([7, 9])), "surveyId,speciesId,score\n1,7,0.5\n1,9,0.25\n"),
        ],
    )
    def test_a_pipe_is_read_once_and_as_a_regular_file(self, tmp_path, read, text):
        """A second open of a FIFO waits for a writer that never comes; after 20 s one comes, writes nothing and ends
        the read, which then fails."""
        (tmp_path / "copy.csv").write_text(text)
        fifo = str(tmp_path / "pipe.csv")
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as f:
                f.write(text)

        got = []
        threads = [threading.Thread(target=write, daemon=True), threading.Thread(target=lambda: got.append(outcome(lambda: read(fifo))), daemon=True)]
        for thread in threads:
            thread.start()
        threads[1].join(timeout=20)
        reopened = threads[1].is_alive()
        if reopened:
            open(fifo, "w").close()
            threads[1].join()
        assert not reopened, "the reader opened the pipe a second time"
        assert got == [read(str(tmp_path / "copy.csv"))]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_the_pipeline_reads_each_named_pipe_once(self, tmp_path):
        """``geoflora pipeline`` on three FIFOs writes the golden files, ``manifest.json`` included: a second open of
        an input would wait for a writer that never comes, until the subprocess times out and is killed."""
        names = {"pa": "pa_train.csv", "po": "po_train.csv", "test": "test.csv"}
        for name in names.values():
            os.mkfifo(tmp_path / name)

        def feed(name):
            with open(tmp_path / name, "wb") as f:
                f.write((Path(FIXTURES) / name).read_bytes())

        writers = [threading.Thread(target=feed, args=(name,), daemon=True) for name in names.values()]
        for writer in writers:
            writer.start()
        src = str(Path(ingest.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [a for flag, name in names.items() for a in (f"--{flag}", str(tmp_path / name))]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "geoflora.cli", "pipeline", *argv, "--outdir", str(tmp_path / "run")],
                capture_output=True, env=env, timeout=60,
            )
        finally:
            for writer, name in zip(writers, names.values()):
                writer.join(timeout=10)
                if writer.is_alive():  # the pipeline never opened this pipe: read it here, so its writer ends
                    with open(tmp_path / name, "rb") as f:
                        f.read()
                    writer.join(timeout=10)
        assert not any(writer.is_alive() for writer in writers)
        assert done.returncode == 0, done.stderr
        for name in (*OUTPUTS, "manifest.json"):
            assert (tmp_path / "run" / name).read_bytes() == (Path(FIXTURES) / "golden" / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["scores.gz", "scores.csv.bz2", "scores.xz", "scores.lzma"])
    def test_a_text_file_named_like_an_archive_reads_as_text(self, tmp_path, name):
        """numpy's loadtxt would decompress a path with such a suffix; the bytes already read are plain text."""
        for path in (tmp_path / "scores.csv", tmp_path / name):
            path.write_text("surveyId,speciesId,score\n1,7,0.5\n2,9,0.25\n")
        assert_same_arrays(read_table(str(tmp_path / name), [_SCORE_LAYOUT]), read_table(str(tmp_path / "scores.csv"), [_SCORE_LAYOUT]))

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symbolic links on this platform")
    def test_a_path_through_a_symlink_and_dotdot_reads_the_file_the_kernel_opens(self, tmp_path, monkeypatch):
        """``link/../a.csv`` is ``real/a.csv`` when ``link`` points to ``real/sub``; as text it would be ``./a.csv``."""
        (tmp_path / "real" / "sub").mkdir(parents=True)
        os.symlink(tmp_path / "real" / "sub", tmp_path / "link")
        (tmp_path / "a.csv").write_text("surveyId,speciesId,score\n1,7,0.5\n")
        (tmp_path / "real" / "a.csv").write_text("surveyId,speciesId,score\n2,9,0.25\n")
        monkeypatch.chdir(tmp_path)
        assert_same_arrays(read_table("link/../a.csv", [_SCORE_LAYOUT]), row_pass(tmp_path / "real" / "a.csv", [_SCORE_LAYOUT]))

    @pytest.mark.parametrize("change", ["rewrite", "remove"])
    def test_a_file_changed_before_numpy_reads_it_again_reads_as_first_read(self, tmp_path, monkeypatch, change):
        """The values come from the bytes read and checked first, whatever numpy then finds at the path."""
        path = tmp_path / "scores.csv"
        path.write_text("surveyId,speciesId,score\n1,7,0.5\n2,9,0.25\n")
        expected = row_pass(path, [_SCORE_LAYOUT])
        loadtxt = ingest._loadtxt

        def change_then_read(source, *args, **kwargs):
            if isinstance(source, str):
                if change == "rewrite":  # same size, a later write
                    stamp = os.stat(source).st_mtime_ns
                    path.write_text("surveyId,speciesId,score\n3,7,0.1\n4,9,0.75\n")
                    os.utime(source, ns=(stamp + 10**9, stamp + 10**9))
                else:
                    path.unlink()
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(ingest, "_loadtxt", change_then_read)
        assert_same_arrays(read_table(str(path), [_SCORE_LAYOUT]), expected)

    def test_clean_benchmark_sized_files_never_reach_the_row_pass(self, tmp_path, monkeypatch, rng):
        def refuse(path, *args):
            raise AssertionError(f"{path} was read by the row pass")

        monkeypatch.setattr(ingest, "_row_pass", refuse)
        # the sizes of the benchmark's pipeline inputs: 20 k wide surveys of ~10 species, a long file of 138 k rows
        n, num_species = 20_000, 5_000
        catalog = SpeciesCatalog(np.arange(num_species, dtype=np.int64) * 7 + 11)
        lats, lons = np.round(rng.uniform(-90, 90, n), 7), np.round(rng.uniform(-180, 180, n), 7)
        counts = rng.integers(1, 20, n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        picks = np.unique(np.repeat(np.arange(n), counts) * num_species + rng.integers(0, num_species, indptr[-1]))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(picks // num_species, minlength=n))))
        pa = Dataset.from_csr(np.arange(1, n + 1), lats, lons, indptr, picks % num_species)
        write_dataset(pa, str(tmp_path / "pa.csv"), catalog)
        assert parse_occurrences(str(tmp_path / "pa.csv"), kind=DatasetKind.PA_TRAIN, catalog=catalog) == (pa, catalog)
        test = Dataset.from_csr(pa.ids, lats, lons, np.zeros(n + 1, dtype=np.int64), [])
        write_dataset(test, str(tmp_path / "test.csv"), catalog)
        assert parse_occurrences(str(tmp_path / "test.csv"), kind=DatasetKind.TEST)[0] == test

        rows = rng.integers(0, n, 138_000)
        long_lines = [f"{pa.ids[r]},{lats[r]:.7f},{lons[r]:.7f},{catalog.dense_to_raw[pa.indices[pa.indptr[r]]]}" for r in rows.tolist()]
        (tmp_path / "po.csv").write_text("surveyId,lat,lon,speciesId\n" + "\n".join(long_lines) + "\n")
        po, _ = parse_occurrences(str(tmp_path / "po.csv"), kind=DatasetKind.PO_TRAIN, catalog=catalog)
        assert po.ids.tolist() == np.unique(pa.ids[rows]).tolist()

        scores = ScoreMatrix(num_species, pa.ids, pa.indptr, pa.indices, rng.integers(1, 11, pa.indices.size) / 10)
        save_scores(scores, str(tmp_path / "scores.csv"), catalog)
        assert load_scores(str(tmp_path / "scores.csv"), catalog) == scores
        write_submission(pa.ids, pa.species, str(tmp_path / "sub.csv"), catalog)
        assert read_submission(str(tmp_path / "sub.csv")) == decode_species(pa, catalog)

        # with "\r\n" line ends each file reads in bulk as well, to the same arrays
        survey, scores, sub = _SURVEY_LAYOUTS, [_SCORE_LAYOUT], [_SUBMISSION_LAYOUT]
        for name, layouts in [("pa.csv", survey), ("test.csv", survey), ("po.csv", survey), ("scores.csv", scores), ("sub.csv", sub)]:
            crlf = tmp_path / f"crlf_{name}"
            crlf.write_bytes((tmp_path / name).read_bytes().replace(b"\n", b"\r\n"))
            assert_same_arrays(read_table(str(crlf), layouts), read_table(str(tmp_path / name), layouts))


class TestCatalog:
    def test_inverse_mapping_and_counts(self, tmp_path):
        path = write_lines(
            tmp_path,
            "a.csv",
            ["surveyId,lat,lon,speciesId", "1,0.0,0.0,50", "1,0.0,0.0,20", "2,1.0,1.0,50", "3,2.0,2.0,20"],
        )
        ds, catalog = parse_occurrences(path)
        dense, known = catalog.lookup([20, 50])
        assert known.all() and [catalog.dense_to_raw[d] for d in dense] == [20, 50]

    def test_explicit_catalog_is_reused_and_strict(self, tmp_path):
        catalog = SpeciesCatalog(np.array([5, 7], dtype=np.int64))
        path = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,0.0,0.0,7"])
        ds, same = parse_occurrences(path, catalog=catalog)
        assert same is catalog
        assert ds.record(0).species == frozenset(catalog.lookup([7])[0].tolist())
        bad = write_lines(tmp_path, "b.csv", ["surveyId,lat,lon,speciesId", "1,0.0,0.0,99"])
        with pytest.raises(ParseError, match="99"):
            parse_occurrences(bad, catalog=catalog)

    def test_missing_species_names_its_survey(self, tmp_path):
        catalog = SpeciesCatalog(np.array([5, 7], dtype=np.int64))
        rows = ["surveyId,lat,lon,speciesIds", "1,0.0,0.0,", "2,0.0,0.0,7", "3,0.0,0.0,", "4,0.0,0.0,5 99", "6,0.0,0.0,98"]
        path = write_lines(tmp_path, "a.csv", rows)
        with pytest.raises(ParseError, match=r": survey 4 references species 99 not present in the catalog$"):
            parse_occurrences(path, catalog=catalog)
        with pytest.raises(ParseError, match=r": survey 1 references species 5 not present in the catalog$"):
            parse_occurrences(write_lines(tmp_path, "b.csv", rows[:2] + ["1,0.0,0.0,5"]), catalog=SpeciesCatalog([]))

    def test_union_and_reindex(self, tmp_path):
        p1 = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,0.0,0.0,30", "2,1.0,1.0,10"])
        p2 = write_lines(tmp_path, "b.csv", ["surveyId,lat,lon,speciesId", "3,0.0,0.0,20", "4,1.0,1.0,30"])
        d1, c1 = parse_occurrences(p1)
        d2, c2 = parse_occurrences(p2)
        union = SpeciesCatalog.union([c1, c2])
        assert [union.dense_to_raw[i] for i in range(len(union))] == [10, 20, 30]
        r1 = reindex_dataset(d1, c1, union)
        r2 = reindex_dataset(d2, c2, union)
        assert decode_species(r1, union) == decode_species(d1, c1)
        assert decode_species(r2, union) == decode_species(d2, c2)
        assert r1.indices.tolist() == [2, 0] and r2.indices.tolist() == [1, 2]
        with pytest.raises(KeyError):
            reindex_dataset(d1, c1, c2)  # raw id 10 is not in c2

    def test_duplicate_raw_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpeciesCatalog(np.array([3, 3], dtype=np.int64))

    @pytest.mark.parametrize("raws", [[5, 3], [1, 9, 4], [-1, 2, 2, 7]])
    def test_raw_ids_must_ascend(self, raws):
        with pytest.raises(ValueError, match="ascending"):
            SpeciesCatalog(np.array(raws, dtype=np.int64))

    def test_lookup_knows_exactly_the_catalog_ids(self, rng):
        raws = np.unique(rng.integers(-(2**62), 2**62, size=300))  # no affine map from dense to raw
        catalog = SpeciesCatalog(raws)
        dense, known = catalog.lookup(raws)
        assert dense.tolist() == list(range(raws.size)) and known.all()
        extremes = [-(2**63), 2**63 - 1]
        absent = np.setdiff1d(np.concatenate((rng.integers(-(2**62), 2**62, size=300), raws - 1, raws + 1, extremes)), raws)
        assert set(extremes) <= set(absent.tolist())
        assert not catalog.lookup(absent)[1].any()
        assert not SpeciesCatalog([]).lookup(absent)[1].any()

    def test_union_is_the_sorted_union(self, rng):
        sets = [np.unique(rng.integers(-50, 50, size=rng.integers(0, 30))) for _ in range(4)]
        catalogs = [SpeciesCatalog(s) for s in sets]
        expected = sorted(set().union(*(s.tolist() for s in sets)))
        assert SpeciesCatalog.union(catalogs).dense_to_raw.tolist() == expected
        assert SpeciesCatalog.union(catalogs[:1]) == catalogs[0]
        assert SpeciesCatalog.union([SpeciesCatalog([])]) == SpeciesCatalog([])


def sort_path_only():
    """Within this context no catalog is built with a table, and a file without a catalog gets one by the sort."""
    return mock.patch.object(ingest, "_TABLE_IDS", 0)


# species ids around the table's bound and at the int64 limits, and small ones that repeat
TABLE_EDGES = [-1, 0, ingest._TABLE_IDS - 1, ingest._TABLE_IDS, -(2**63), 2**63 - 1]
raw_species_ids = st.integers(0, 12) | st.sampled_from(TABLE_EDGES) | st.integers(-(2**63), 2**63 - 1)


class TestCatalogTable:
    """A catalog of ids in [0, ``_TABLE_IDS``) looks ids up through its table and a file parsed without a catalog
    counts its ids; both give what the sort path gives."""

    @given(st.lists(st.integers(0, 12) | st.sampled_from(TABLE_EDGES), max_size=8), st.lists(raw_species_ids, max_size=12))
    @example([0, 5, ingest._TABLE_IDS - 1], [ingest._TABLE_IDS - 1, ingest._TABLE_IDS, -1, 0, 5, 5, 4, -(2**63), 2**63 - 1])
    @example([0], [])
    def test_lookup_equals_the_sort_path(self, catalog_ids, raw):
        dense_to_raw = np.unique(np.array(catalog_ids, dtype=np.int64))
        table = SpeciesCatalog(dense_to_raw)
        with sort_path_only():
            searched = SpeciesCatalog(dense_to_raw)
        assert (table._table is not None) == bool(catalog_ids and min(catalog_ids) >= 0 and max(catalog_ids) < ingest._TABLE_IDS)
        assert searched._table is None and table == searched
        dense, known = table.lookup(raw)
        expected_dense, expected_known = searched.lookup(raw)
        assert known.tolist() == expected_known.tolist() == [r in catalog_ids for r in raw]
        assert dense[known].tolist() == expected_dense[expected_known].tolist()
        assert dense.dtype == expected_dense.dtype == np.int64

    @given(st.data())
    def test_parse_equals_the_sort_path(self, tmp_path_factory, data):
        """The same dataset and catalog, or the same error: the first survey by id with a species missing from a given
        catalog names its smallest such raw id."""
        survey_ids = data.draw(st.lists(st.integers(-5, 5), max_size=5, unique=True))
        rows = [f"{sid},0.0,0.0," + " ".join(map(str, data.draw(st.lists(raw_species_ids, max_size=4)))) for sid in survey_ids]
        path = tmp_path_factory.mktemp("table") / "a.csv"
        path.write_text("\n".join(["surveyId,lat,lon,speciesIds"] + rows) + "\n")
        catalog_ids = data.draw(st.none() | st.lists(st.integers(0, 12) | st.sampled_from(TABLE_EDGES), max_size=6))

        def parse():
            catalog = None if catalog_ids is None else SpeciesCatalog(np.unique(np.array(catalog_ids, dtype=np.int64)))
            return outcome(lambda: parse_occurrences(str(path), catalog=catalog))

        got = parse()
        with sort_path_only():
            assert got == parse()

    @pytest.mark.parametrize("sort_path", [False, True])
    def test_missing_species_message_is_the_same_on_both_paths(self, tmp_path, sort_path):
        rows = ["surveyId,lat,lon,speciesIds", "8,0.0,0.0,96", f"4,0.0,0.0,99 5 {ingest._TABLE_IDS} -3 98", "6,0.0,0.0,"]
        path = write_lines(tmp_path, "a.csv", rows)
        with mock.patch.object(ingest, "_TABLE_IDS", 0 if sort_path else ingest._TABLE_IDS):
            catalog = SpeciesCatalog([5, 7])
            assert (catalog._table is None) == sort_path
            with pytest.raises(ParseError, match=r"a\.csv: survey 4 references species -3 not present in the catalog$"):
                parse_occurrences(path, catalog=catalog)
            ds, parsed = parse_occurrences(path)
        assert parsed.dense_to_raw.tolist() == [-3, 5, 96, 98, 99, ingest._TABLE_IDS]
        assert decode_species(ds, parsed)[4] == {99, 5, ingest._TABLE_IDS, -3, 98}


class TestRoundTrip:
    def test_small_round_trip(self, tmp_path):
        src = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId", "1,45.0,5.0,7", "1,45.0,5.0,9"])
        ds, catalog = parse_occurrences(src)
        out = str(tmp_path / "out.csv")
        write_dataset(ds, out, catalog)
        ds2, catalog2 = parse_occurrences(out)
        assert ds2 == ds and catalog2 == catalog

    def test_empty_round_trip(self, tmp_path):
        src = write_lines(tmp_path, "a.csv", ["surveyId,lat,lon,speciesId"])
        ds, catalog = parse_occurrences(src)
        out = str(tmp_path / "out.csv")
        write_dataset(ds, out, catalog)
        assert (tmp_path / "out.csv").read_text() == "surveyId,lat,lon,speciesIds\n"
        assert parse_occurrences(out) == (ds, catalog)

    @given(st.lists(st.lists(st.integers(0, 5), max_size=6), max_size=5))
    @example([[3, 3, 1], [2]])
    def test_repeated_species_count_once_and_round_trip(self, tmp_path_factory, rows):
        ids, lats, lons = np.arange(1, len(rows) + 1), np.linspace(-9, 9, len(rows)), np.linspace(9, -9, len(rows))
        ds = Dataset(ids, lats, lons, rows)
        unique = [sorted(set(r)) for r in rows]
        assert ds == Dataset.from_csr(ids, lats, lons, np.cumsum([0] + [len(u) for u in unique]), [x for u in unique for x in u])
        catalog = SpeciesCatalog(np.arange(6) * 10 + 1)
        path = str(tmp_path_factory.mktemp("repeats") / "out.csv")
        write_dataset(ds, path, catalog)
        assert parse_occurrences(path, catalog=catalog)[0] == ds

    def test_10k_random_records_round_trip_exactly(self, rng, tmp_path):
        n = 10_000
        ids = np.sort(rng.choice(np.arange(1, 10 * n, dtype=np.int64), size=n, replace=False))
        lats = np.round(rng.uniform(-90, 90, n), 7)
        lons = np.round(rng.uniform(-180, 180, n), 7)
        species = [frozenset(rng.choice(500, size=rng.integers(0, 8), replace=False).tolist()) for _ in range(n)]
        catalog = SpeciesCatalog(np.arange(500, dtype=np.int64) * 3 + 11)
        ds = Dataset(ids, lats, lons, species)
        out = str(tmp_path / "out.csv")
        write_dataset(ds, out, catalog)
        ds2, _ = parse_occurrences(out, catalog=catalog)
        assert ds2 == ds


def test_real_po_data_groups_to_known_survey_count():
    # only checkable against the real presence-only export
    import os

    path = os.environ.get("GEOFLORA_GLC25_PO_RAW")
    if not path:
        pytest.skip("set GEOFLORA_GLC25_PO_RAW to the long-format PO file to run this check")
    with open(path, encoding="utf-8-sig") as f:
        observation_rows = sum(1 for _ in f) - 1
    ds, _ = parse_occurrences(path)
    assert observation_rows == 5_079_797
    assert len(ds) == 3_845_533


class TestDataset:
    def test_requires_sorted_unique_ids(self):
        with pytest.raises(ValueError, match="sorted"):
            Dataset(np.array([2, 1]), np.zeros(2), np.zeros(2), [frozenset(), frozenset()])
        with pytest.raises(ValueError, match="sorted"):
            Dataset(np.array([1, 1]), np.zeros(2), np.zeros(2), [frozenset(), frozenset()])

    def test_record_views(self):
        ds = make_dataset([(1, 0.0, 0.0, {0}), (2, 1.0, 1.0, {1, 2})])
        recs = [ds.record(i) for i in range(len(ds))]
        assert [r.survey_id for r in recs] == [1, 2]
        assert recs[1].species == frozenset({1, 2})

    def test_species_csr_rows_are_the_sets_ascending(self, rng):
        sets = [frozenset(rng.choice(300, size=rng.integers(0, 8), replace=False).tolist()) for _ in range(200)]
        ds = Dataset(np.arange(1, 201), np.zeros(200), np.zeros(200), sets)
        indptr, indices = ds.indptr, ds.indices
        assert indptr[0] == 0 and indptr.size == 201
        assert [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == [sorted(s) for s in sets]
        counts = np.zeros(300, dtype=np.int64)
        for s in sets:
            counts[list(s)] += 1
        assert np.array_equal(ds.species_counts(300), counts)
        assert np.array_equal(ds.species_counts(), counts[: max(map(max, filter(None, sets))) + 1])

    def test_from_csr_equals_the_set_constructor(self):
        ds = Dataset.from_csr([1, 2, 3, 4], np.zeros(4), np.zeros(4), [0, 2, 2, 3, 5], [1, 4, 0, 2, 3])
        assert ds == make_dataset([(1, 0.0, 0.0, {4, 1}), (2, 0.0, 0.0, set()), (3, 0.0, 0.0, {0}), (4, 0.0, 0.0, {3, 2})])
        assert ds.indices.dtype == np.int64 and ds.indptr.dtype == np.int64

    @pytest.mark.parametrize(
        "build",
        [
            lambda ids, indptr, indices: Dataset.from_csr(ids, np.zeros(len(ids)), np.zeros(len(ids)), indptr, indices),
            lambda ids, indptr, indices: ScoreMatrix(5, ids, indptr, indices, np.full(len(indices), 0.5)),
        ],
        ids=["Dataset", "ScoreMatrix"],
    )
    @pytest.mark.parametrize(
        "ids, indptr, indices, message",
        [
            ([1, 2], [0, 2, 3], [4, 1, 0], "ascend strictly"),  # unsorted row
            ([1, 2], [0, 2, 3], [1, 1, 0], "ascend strictly"),  # repeated entry
            ([1, 2], [0, 0, 2], [2, 2], "ascend strictly"),  # repeated entry after an empty row
            ([2, 1], [0, 1, 2], [0, 1], "unique and sorted ascending"),  # ids out of order
            ([1, 1], [0, 1, 2], [0, 1], "unique and sorted ascending"),  # a repeated id
            ([1, 2], [0, 2], [1, 2], "lengths disagree"),  # one row for two surveys
            ([1, 2], [0, 2, 4], [1, 2, 3], "lengths disagree"),  # pointer past the indices
            ([1, 2], [1, 2, 3], [1, 2, 3], "lengths disagree"),  # first row does not start at 0
            ([1, 2], [0, 3, 2], [1, 2, 3], "lengths disagree"),  # descending pointers
        ],
    )
    def test_from_csr_rejects_bad_rows(self, build, ids, indptr, indices, message):
        """``Dataset.from_csr`` and ``ScoreMatrix`` keep one CSR rule and only check it."""
        with pytest.raises(ValueError, match=message):
            build(ids, indptr, indices)

    def test_set_constructor_checks_lengths(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            Dataset(np.array([1, 2]), np.zeros(2), np.zeros(2), [frozenset()])

    def test_species_view_behaves_as_a_list_of_sets(self):
        sets = [frozenset({3, 1}), frozenset(), frozenset({2})]
        ds = Dataset(np.arange(1, 4), np.zeros(3), np.zeros(3), sets)
        assert len(ds.species) == 3 and list(ds.species) == sets
        assert ds.species[-1] == frozenset({2}) and ds.species[np.int64(0)] == frozenset({1, 3})
        with pytest.raises(IndexError):
            ds.species[3]

    def test_take_gathers_rows(self, rng):
        sets = [frozenset(rng.choice(50, size=rng.integers(0, 5), replace=False).tolist()) for _ in range(100)]
        ds = Dataset(np.arange(1, 101) * 3, rng.uniform(-9, 9, 100), rng.uniform(-9, 9, 100), sets)
        rows = np.sort(rng.choice(100, size=40, replace=False))
        assert ds.take(rows) == Dataset(ds.ids[rows], ds.lats[rows], ds.lons[rows], [sets[i] for i in rows])
        assert len(ds.take(np.arange(0))) == 0


class TestUnionRows:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_equals_set_union(self, rng, n):
        for _ in range(30):
            parts, expected = [], [set() for _ in range(n)]
            for _ in range(int(rng.integers(0, 4))):  # no part at all, too
                # rows may repeat (overlapping sets) or be missed (untouched rows); sets may be empty or repeat items
                rows = rng.integers(0, max(n, 1), int(rng.integers(0, 2 * n + 1)))
                items = [rng.integers(0, 12, int(rng.integers(0, 5))).tolist() for _ in rows]
                parts.append((rows, row_sets(items)))
                for row, sp in zip(rows, items):
                    expected[row] |= set(sp)
            got = union_rows(n, *parts)
            assert [got.row(i).tolist() for i in range(len(got))] == [sorted(sp) for sp in expected]

    def test_empty_parts(self):
        none = (np.empty(0, dtype=np.int64), row_sets([]))
        assert len(union_rows(0)) == 0 and len(union_rows(0, none, none)) == 0  # a test file with only a header
        assert list(union_rows(3, none, (np.array([1]), row_sets([set()])))) == [frozenset()] * 3

    def test_one_row_position_per_set(self):
        with pytest.raises(ValueError, match="one row position per set"):
            union_rows(2, (np.array([0, 1]), row_sets([{1}])))

    @pytest.mark.parametrize("sets", [[[-1]], [[-1, 2], [1]], [[2], [0, -3]]])
    def test_negative_items_are_refused(self, sets):
        """Not dropped or moved to another row: ``Dataset(...)`` builds its rows with ``union_rows``."""
        with pytest.raises(ValueError, match="non-negative"):
            union_rows(len(sets), (np.arange(len(sets)), row_sets(sets)))
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(np.arange(1, len(sets) + 1), np.zeros(len(sets)), np.zeros(len(sets)), sets)


INT64 = st.integers(-5, 5) | st.sampled_from([-(2**63), 2**63 - 1, 0]) | st.integers(-(2**63), 2**63 - 1)
SCORES = st.sampled_from([0.0, -0.0, 1.0, 1e-05, 0.30000000000000004]) | st.floats(0.0, 1.0)


@st.composite
def coordinates(draw, limit: int):
    """A coordinate as the writers may meet it: an edge value, an exact half k/256, a float within a few ulps of
    (j + 0.5)·1e-7 (where x·1e7 may round across the half), any value in range, or one the fast path leaves to
    Python (x·1e7 beyond 2**31, NaN, infinity)."""
    kind = draw(st.sampled_from(["edge", "half", "near half", "any", "wild"]))
    if kind == "edge":
        return draw(st.sampled_from([limit, -limit, 0.0, -0.0, 5e-8, -5e-8, -1e-9, 3.55e-6]))
    if kind == "half":
        return draw(st.integers(-256 * limit, 256 * limit)) / 256
    if kind == "near half":
        x = (draw(st.integers(0, 10**7 * limit - 1)) + 0.5) * 1e-7 * draw(st.sampled_from([1, -1]))
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, toward)
        return x
    if kind == "wild":
        return draw(st.sampled_from([215.0, -1e20, math.nan, math.inf, -math.inf]))
    return draw(st.floats(-limit, limit))


@st.composite
def writer_inputs(draw):
    """A catalog of int64 raw ids; unique int64 survey ids, each with a latitude, a longitude, a species row (empty at
    times) and a score per species; and a chunk size of 1 to 4 (rows for ``save_scores``, text rows for the id-list
    writers), so that chunks end between rows and, for the id lists, a row's entries straddle a chunk's budget."""
    catalog = SpeciesCatalog(np.sort(np.array(draw(st.lists(INT64, min_size=1, max_size=6, unique=True)), dtype=np.int64)))
    ids = draw(st.lists(INT64, max_size=8, unique=True))
    lats = draw(st.lists(coordinates(90), min_size=len(ids), max_size=len(ids)))
    lons = draw(st.lists(coordinates(180), min_size=len(ids), max_size=len(ids)))
    rows = [sorted(draw(st.sets(st.integers(0, len(catalog) - 1)))) for _ in ids]
    scores = draw(st.lists(SCORES, min_size=sum(map(len, rows)), max_size=sum(map(len, rows))))
    return catalog, ids, lats, lons, rows, scores, draw(st.integers(1, 4))


WRITER_EDGES = (
    SpeciesCatalog(np.array([-(2**63), -7, 0, 12, 2**63 - 1])),
    [-(2**63), -1, 0, 5, 2**63 - 1],
    [-1e-9, -0.0, 5e-08, 3.55e-06, 90.0],
    [-180.0, -5e-08, 0.00390625, 215.0, math.nan],
    [[0, 4], [], [1, 2, 3], [], [4]],
    [0.0, -0.0, 1.0, 1e-05, 0.30000000000000004, -0.0],
    2,
)


def written(tmp_path_factory, write, *args) -> bytes:
    """The bytes of the file ``write(*args[:-1], path, args[-1])`` writes; every writer takes the path before the catalog."""
    path = tmp_path_factory.mktemp("writer") / "out.csv"
    write(*args[:-1], str(path), args[-1])
    return path.read_bytes()


class TestWritersMatchOracles:
    """Each writer's file equals, byte for byte, that of its oracle, which formats one row at a time."""

    @given(writer_inputs())
    @example(WRITER_EDGES)
    def test_write_dataset(self, tmp_path_factory, drawn):
        catalog, ids, lats, lons, rows, _, chunk = drawn
        order = np.argsort(ids)
        ds = Dataset(np.array(ids, dtype=np.int64)[order], np.array(lats)[order], np.array(lons)[order], [rows[i] for i in order])
        with mock.patch.object(ingest, "_WRITE_CHUNK", chunk):
            got = written(tmp_path_factory, write_dataset, ds, catalog)
        assert got == written(tmp_path_factory, write_dataset_oracle, ds, catalog)

    @given(writer_inputs())
    @example(WRITER_EDGES)
    def test_save_scores(self, tmp_path_factory, drawn):
        catalog, ids, _, _, rows, scores, chunk = drawn
        entry = iter(scores)
        matrix = score_matrix(len(catalog), [(sid, {d: next(entry) for d in row}) for sid, row in zip(ids, rows)])
        with mock.patch.object(predictor, "_SAVE_CHUNK_ROWS", chunk):
            got = written(tmp_path_factory, save_scores, matrix, catalog)
        assert got == written(tmp_path_factory, save_scores_oracle, matrix, catalog)

    @given(writer_inputs())
    @example(WRITER_EDGES)
    def test_write_submission(self, tmp_path_factory, drawn):
        catalog, ids, _, _, rows, _, chunk = drawn
        ids, sets = np.array(ids, dtype=np.int64), row_sets(rows)
        with mock.patch.object(ingest, "_WRITE_CHUNK", chunk):
            got = written(tmp_path_factory, write_submission, ids, sets, catalog)
        assert got == written(tmp_path_factory, write_submission_oracle, ids, sets, catalog)
        if len(ids):
            with pytest.raises(ValueError):
                write_submission(ids[1:], sets, str(tmp_path_factory.mktemp("writer") / "short.csv"), catalog)
