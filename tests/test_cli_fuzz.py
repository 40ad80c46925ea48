"""Malformed survey, score, submission and config files end in status 1 and one ``error:`` line."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflora.cli import run
from geoflora.pipeline import PipelineConfig

VALID = {
    "pa": "surveyId,lat,lon,speciesIds\n1,45.0,5.0,101 102\n2,45.01,5.0,101\n",
    "po": "surveyId,lat,lon,speciesId\n10,45.0,5.001,101\n11,49.0,24.0,103\n",
    "test": "surveyId,lat,lon,speciesIds\n50,45.0,5.0,\n51,49.0,24.0,\n",
    "scores": "surveyId,speciesId,score\n50,101,1.0\n51,102,0.5\n",
    "submission": "surveyId,predictions\n50,101\n51,101 102\n",
    "truth": "surveyId,lat,lon,speciesIds\n50,45.0,5.0,101\n51,49.0,24.0,102\n",
    "config": "{}\n",
}
# the command that reads each broken file
COMMAND = {"pa": "pipeline", "po": "pipeline", "test": "pipeline", "config": "pipeline", "scores": "postprocess", "submission": "evaluate"}
CSV_KINDS = ["pa", "po", "test", "scores", "submission"]
TYPES = get_type_hints(PipelineConfig)
MODES = ["loose", "balanced", "strict"]


def run_with(command: str, files: dict[str, str]) -> tuple[int, str, str]:
    """Write the files, run ``command`` on them, return (status, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        p = {}
        for kind, text in files.items():
            p[kind] = str(Path(tmp) / (f"{kind}.json" if kind == "config" else f"{kind}.csv"))
            Path(p[kind]).write_text(text, encoding="utf-8")
        argv = {
            "pipeline": ["pipeline", "--pa", p["pa"], "--po", p["po"], "--test", p["test"], "--config", p["config"], "--outdir", f"{tmp}/out"],
            "postprocess": ["postprocess", "--scores", p["scores"], "--test", p["test"], "--reference", p["pa"], "--output", f"{tmp}/sub.csv"],
            "evaluate": ["evaluate", "--truth", p["truth"], "--submission", p["submission"]],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
        return status, out.getvalue(), err.getvalue()


def not_an_id(token: str) -> bool:
    """True unless ``token`` is an int64 in ASCII digits with an optional minus sign (and whitespace)."""
    if not token.isascii() or "_" in token or "+" in token:
        return True
    try:
        value = int(token)
    except ValueError:
        return True
    return not -(2**63) <= value < 2**63


def not_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


# a CSV cell: no delimiter, quote or line break, so the row keeps its shape
cell = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), max_size=12)
bad_id = st.one_of(
    cell.filter(not_an_id),
    st.integers(min_value=2**63).map(str),
    st.integers(max_value=-(2**63) - 1).map(str),
)


@st.composite
def broken_csv(draw) -> tuple[str, str]:
    kind = draw(st.sampled_from(CSV_KINDS))
    lines = VALID[kind].splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    how = draw(st.sampled_from(["id", "extra field", "missing field", "header"]))
    if how == "id":
        lines[row] = ",".join([draw(bad_id), *lines[row].split(",")[1:]])
    elif how == "extra field":
        lines[row] += "," + draw(cell)
    elif how == "missing field":
        lines[row] = lines[row].rsplit(",", 1)[0]
    else:
        lines[0] = draw(cell)
    return kind, "".join(f"{line}\n" for line in lines)


def wrong_value(typ) -> st.SearchStrategy:
    """JSON values that are not of the field type ``typ``."""
    never = st.one_of(
        st.none(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
        st.text(max_size=8).filter(lambda t: t not in MODES),
    )
    if typ is bool:
        return never | st.integers() | st.floats()
    if typ is int:
        return never | st.booleans() | st.floats()
    if typ is float:
        return never | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
    return never | st.booleans() | st.integers()


broken_config = st.one_of(
    st.sampled_from(sorted(TYPES)).flatmap(lambda name: wrong_value(TYPES[name]).map(lambda v: json.dumps({name: v}))),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3)).map(json.dumps),
    st.text(max_size=8).filter(lambda key: key not in TYPES).map(lambda key: json.dumps({key: 1})),
    st.text(max_size=12).filter(not_json),
)


def assert_one_error_line(status: int, err: str) -> None:
    assert status == 1
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["pipeline", "postprocess", "evaluate"])
def test_valid_files_succeed(command):
    status, _, err = run_with(command, VALID)
    assert status == 0 and err == ""


@settings(max_examples=150)
@given(broken_csv())
def test_malformed_csv_is_one_error_line(broken):
    kind, text = broken
    status, _, err = run_with(COMMAND[kind], {**VALID, kind: text})
    assert_one_error_line(status, err)
    assert f"/{kind}.csv:" in err, err


@settings(max_examples=100)
@given(broken_config)
def test_malformed_config_is_one_error_line(text):
    status, out, err = run_with("pipeline", {**VALID, "config": text})
    assert_one_error_line(status, err)
    assert "/config.json: " in err and out == ""
