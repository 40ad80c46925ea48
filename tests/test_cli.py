import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, random_surveys
from geoflora import ingest, pipeline, pseudolabel
from geoflora.cli import build_parser, run
from geoflora.geo import GeoIndex
from geoflora.ingest import Dataset, SpeciesCatalog, parse_occurrences, write_dataset
from geoflora.postprocess import grid_search_top_k, read_submission
from geoflora.predictor import ScoreMatrix, load_scores, save_scores
from geoflora.pseudolabel import MergeConfig

PAIR_WIDE = "surveyId,lat,lon,speciesIds\n1,45.0000000,5.0000000,101 102\n2,45.0005000,5.0000000,103\n"


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text(PAIR_WIDE)
    return str(path)


def test_the_package_root_holds_only_its_version_and_the_one_benchmark_binding():
    """Each name lives in its own module; ``merge_points`` stays at the root because the benchmark's tracer test patches it."""
    import geoflora

    public = {name for name, value in vars(geoflora).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"merge_points"} and geoflora.merge_points is pseudolabel.merge_points
    assert not hasattr(geoflora, "__all__") and geoflora.__version__ == "0.1.0"


class TestBasicCommands:
    def test_ingest_normalises_long_to_wide(self, tmp_path, capsys):
        src = tmp_path / "long.csv"
        src.write_text("surveyId,lat,lon,speciesId\n2,1.0,2.0,30\n2,1.0,2.0,10\n1,0.0,0.0,10\n")
        out = tmp_path / "wide.csv"
        assert run(["ingest", "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text() == "surveyId,lat,lon,speciesIds\n1,0.0000000,0.0000000,10\n2,1.0000000,2.0000000,10 30\n"
        printed = capsys.readouterr().out
        assert "2 surveys" in printed
        assert f"{src}: 2 surveys, 2 species, 3 (survey, species) pairs\n" in printed

    def test_stats_writes_reports(self, pair_file, tmp_path):
        outdir = tmp_path / "stats"
        assert run(["stats", "--input", pair_file, "--outdir", str(outdir)]) == 0
        for name in ("species_per_survey.csv", "occurrences_per_species.csv", "bbox.csv", "summary.json"):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["surveys"] == 2 and summary["singletonSpecies"] == 3

    def test_stats_on_a_header_only_file_is_one_error_line_and_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("surveyId,lat,lon,speciesIds\n")
        outdir = tmp_path / "stats"
        assert run(["stats", "--input", str(empty), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no surveys\n"
        assert not outdir.exists()

    def test_merge_strict_pair(self, pair_file, tmp_path, capsys):
        out = tmp_path / "merged.csv"
        assert run(["merge", "--input", pair_file, "--output", str(out), "--mode", "strict"]) == 0
        merged, catalog = parse_occurrences(str(out))
        assert len(merged) == 1
        assert {catalog.dense_to_raw[d] for d in merged.record(0).species} == {101, 102, 103}
        assert "2 surveys -> 1" in capsys.readouterr().out

    def test_merge_config_file_and_flag_precedence(self, pair_file, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "loose"}))
        out = tmp_path / "merged.csv"
        assert run(["merge", "--input", pair_file, "--output", str(out), "--config", str(config)]) == 0
        merged, _ = parse_occurrences(str(out))
        assert len(merged) == 2  # config file overrode the balanced default
        assert run(["merge", "--input", pair_file, "--output", str(out), "--config", str(config), "--mode", "strict"]) == 0
        merged, _ = parse_occurrences(str(out))
        assert len(merged) == 1  # explicit flag beats the config file

    def test_merge_rejects_unknown_config_key(self, pair_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "loose", "radius": 1.0}))
        status = run(["merge", "--input", pair_file, "--output", str(tmp_path / "m.csv"), "--config", str(config)])
        assert status == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_gate_classifies_by_distance(self, tmp_path):
        pa = tmp_path / "pa.csv"
        pa.write_text("surveyId,lat,lon,speciesIds\n10,48.0000000,2.0000000,7\n")
        test = tmp_path / "test.csv"
        test.write_text("surveyId,lat,lon,speciesIds\n1,48.0500000,2.0000000,\n2,48.0000000,2.2000000,\n")
        out = tmp_path / "gate.csv"
        assert run(["gate", "--test", str(test), "--pa", str(pa), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("1,in_distribution,")
        assert lines[2].startswith("2,out_of_distribution,")

    def test_predict_then_postprocess_then_evaluate(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text(
            "surveyId,lat,lon,speciesIds\n"
            "1,45.0000000,5.0000000,101 102\n"
            "2,45.0100000,5.0000000,101\n"
            "3,45.0200000,5.0000000,101 103\n"
        )
        test = tmp_path / "test.csv"
        test.write_text("surveyId,lat,lon,speciesIds\n50,45.0000000,5.0010000,\n")
        scores = tmp_path / "scores.csv"
        assert run(["predict", "--train", str(train), "--test", str(test), "--k", "3", "--out", str(scores)]) == 0
        sub = tmp_path / "sub.csv"
        assert (
            run(
                [
                    "postprocess", "--scores", str(scores), "--test", str(test),
                    "--reference", str(train), "--threshold", "0.9", "--k-cap", "5",
                    "--vote-neighbors", "3", "--vote-min-freq", "0.5", "--output", str(sub),
                ]
            )
            == 0
        )
        # species 101 is in 3/3 neighbours: predicted and voted; others fall short
        assert read_submission(str(sub)) == {50: frozenset({101})}

        truth = tmp_path / "truth.csv"
        truth.write_text("surveyId,lat,lon,speciesIds\n50,45.0000000,5.0010000,101\n")
        capsys.readouterr()
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub)]) == 0
        assert capsys.readouterr().out.strip() == "1.00000"

    def test_postprocess_grid_search_tunes_threshold(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text(
            "surveyId,lat,lon,speciesIds\n"
            "1,45.0000000,5.0000000,101\n"
            "2,45.0100000,5.0000000,101 102\n"
        )
        test = tmp_path / "test.csv"
        test.write_text("surveyId,lat,lon,speciesIds\n50,45.0000000,5.0000000,\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("surveyId,lat,lon,speciesIds\n50,45.0000000,5.0000000,101\n")
        scores = tmp_path / "scores.csv"
        assert run(["predict", "--train", str(train), "--test", str(test), "--k", "2", "--out", str(scores)]) == 0
        sub = tmp_path / "sub.csv"
        status = run(
            [
                "postprocess", "--scores", str(scores), "--test", str(test),
                "--reference", str(train), "--tune-truth", str(truth),
                "--vote-neighbors", "2", "--vote-min-freq", "0.99", "--output", str(sub),
            ]
        )
        assert status == 0
        # species 101 scores 1.0, species 102 scores 0.5: any threshold above
        # 0.5 separates them, and the scan finds a perfect F1
        assert "F1=1.00000" in capsys.readouterr().out
        assert read_submission(str(sub)) == {50: frozenset({101})}

        truth.write_text("surveyId,lat,lon,speciesIds\n50,45.0000000,5.0000000,101 999\n")
        sub.unlink()
        status = run(
            [
                "postprocess", "--scores", str(scores), "--test", str(test),
                "--reference", str(train), "--tune-truth", str(truth), "--output", str(sub),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: ") and err.count("\n") == 1
        assert "species 999" in err
        assert not sub.exists()

    @pytest.mark.parametrize("fallback", [[], ["--fallback-top1"]])
    def test_tuned_postprocess_equals_the_grid_search_then_top_k_at_its_winner(self, tmp_path, capsys, rng, fallback):
        """``--tune-truth`` writes the bytes and prints the grid line of ``grid_search_top_k`` followed by a run at the
        winning setting; most scores fall below every threshold, so both rankings leave most entries out."""
        reference = random_surveys(rng, 300, 30)
        write_dataset(reference, str(tmp_path / "ref.csv"), SpeciesCatalog(np.arange(30) * 3 + 100))
        catalog = parse_occurrences(str(tmp_path / "ref.csv"))[1]
        n, width = 80, len(catalog)
        ids, lats, lons = np.arange(1, n + 1) * 7, rng.uniform(40.0, 42.0, n), rng.uniform(0.0, 3.0, n)
        write_dataset(Dataset.from_csr(ids, lats, lons, np.zeros(n + 1, dtype=np.int64), []), str(tmp_path / "test.csv"), catalog)
        keys = np.unique(rng.integers(0, n * width, n * 12))  # about 12 entries a row, some rows empty
        row_ptr = np.concatenate(([0], np.cumsum(np.bincount(keys // width, minlength=n))))
        scores = np.where(rng.random(keys.size) < 0.8, rng.integers(0, 4, keys.size) / 16, rng.integers(0, 9, keys.size) / 8)
        save_scores(ScoreMatrix(width, ids, row_ptr, keys % width, scores), str(tmp_path / "scores.csv"), catalog)
        truth_keys = np.unique(rng.integers(0, n * width, n * 3))
        truth_ptr = np.concatenate(([0], np.cumsum(np.bincount(truth_keys // width, minlength=n))))
        write_dataset(Dataset.from_csr(ids, lats, lons, truth_ptr, truth_keys % width), str(tmp_path / "truth.csv"), catalog)

        paths = {name: str(tmp_path / f"{name}.csv") for name in ("ref", "test", "scores", "truth", "tuned", "fixed")}
        argv = ["postprocess", "--scores", paths["scores"], "--test", paths["test"], "--reference", paths["ref"], *fallback]
        thresholds, k_caps = [0.2, 0.3, 0.5, 0.625, 0.9], [1, 2, 3, 5]
        grid = ["--grid-thresholds", *map(str, thresholds), "--grid-kcaps", *map(str, k_caps)]
        capsys.readouterr()
        assert run([*argv, "--tune-truth", paths["truth"], *grid, "--output", paths["tuned"]]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        matrix, truth = load_scores(paths["scores"], catalog), parse_occurrences(paths["truth"], catalog=catalog)[0]
        cfg, f1 = grid_search_top_k(matrix, truth, thresholds, k_caps, fallback_top1=bool(fallback))
        assert printed == f"grid search: threshold={cfg.threshold} k_cap={cfg.k_cap} (F1={f1:.5f})"
        assert run([*argv, "--threshold", str(cfg.threshold), "--k-cap", str(cfg.k_cap), "--output", paths["fixed"]]) == 0
        assert Path(paths["tuned"]).read_bytes() == Path(paths["fixed"]).read_bytes()

    def test_fusion_check_passes(self, capsys):
        assert run(["fusion-check", "--seed", "3"]) == 0
        assert "fusion-check: OK" in capsys.readouterr().out


POSTPROCESS_IN = ["postprocess", "--scores", "IN", "--test", "IN", "--reference", "IN"]


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        status = run(["ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["gate", "--bogus", "1"])
        assert exc.value.code == 2

    def test_schema_violation_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("surveyId,lat,lon,speciesId\n1,999.0,0.0,5\n")
        assert run(["ingest", "--input", str(bad), "--output", str(tmp_path / "o.csv")]) == 1
        assert ":2" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_are_one_error_line_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfes\x00u\x00r\x00")  # UTF-16 with its byte order mark
        assert run(["stats", "--input", str(bad), "--outdir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {bad}:1: not valid UTF-8\n"

    def test_ids_beyond_ascii_digits_are_a_malformed_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("surveyId,lat,lon,speciesId\n1_000,45.0,5.0,\u0663\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert run(["ingest", "--input", str(bad), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: malformed row") and err.count("\n") == 1
        assert not out.exists()

    def test_coordinates_beyond_ascii_numbers_are_a_malformed_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("surveyId,lat,lon,speciesId\n1,4_5.0,\u0665.0,7\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert run(["ingest", "--input", str(bad), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: malformed row: lat must be an ASCII decimal number\n"
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["output", "report-out"])
    def test_merge_into_a_missing_directory_fails_before_any_output(self, tmp_path, capsys, missing):
        paths = {"output": tmp_path / "m.csv", "report-out": tmp_path / "r.json"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        argv = ["merge", "--input", f"{FIXTURES}/po_train.csv"] + [a for name, p in paths.items() for a in (f"--{name}", str(p))]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {paths[missing]}: ") and captured.err.count("\n") == 1
        assert list(tmp_path.rglob("*")) == []

    def test_predict_with_a_header_only_training_file_names_it(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("surveyId,lat,lon,speciesIds\n")
        scores = tmp_path / "scores.csv"
        assert run(["predict", "--train", str(train), "--test", f"{FIXTURES}/test.csv", "--out", str(scores)]) == 1
        assert capsys.readouterr().err == f"error: {train}: training dataset is empty\n"
        assert not scores.exists()

    def test_evaluate_names_the_submission_that_lacks_surveys(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("surveyId,lat,lon,speciesIds\n49,45.0,5.0,101\n50,45.0,5.0,101\n51,45.0,5.0,102\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("surveyId,predictions\n49,101\n")
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub)]) == 1
        assert capsys.readouterr().err == f"error: {sub}: survey id mismatch: missing from predictions [50, 51], unexpected []\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gate", "--test", "IN", "--pa", "IN", "--gate-radius-km", "-1"], "--gate-radius-km: gate_radius_km must be >= 0, got -1.0"),
            (["predict", "--train", "IN", "--test", "IN", "--k", "0"], "--k: k must be >= 1, got 0"),
            ([*POSTPROCESS_IN, "--vote-min-freq", "0"], "--vote-min-freq: vote_min_freq must be in (0, 1], got 0.0"),
            ([*POSTPROCESS_IN, "--tune-truth", "IN", "--grid-kcaps", "5", "0"], "--grid-kcaps: k_cap must be >= 1, got 0"),
            ([*POSTPROCESS_IN, "--threshold", "1.5"], "--threshold: threshold must be in [0, 1], got 1.5"),
            ([*POSTPROCESS_IN, "--k-cap", "0"], "--k-cap: k_cap must be >= 1, got 0"),
            ([*POSTPROCESS_IN, "--vote-neighbors", "0"], "--vote-neighbors: vote_neighbors must be >= 1, got 0"),
            ([*POSTPROCESS_IN, "--tune-truth", "IN", "--grid-thresholds", "1.5"], "--grid-thresholds: threshold must be in [0, 1], got 1.5"),
            (["gate", "--test", "IN", "--pa", "IN", "--gate-radius-km", "nan"], "--gate-radius-km: gate_radius_km must be a finite number, got NaN"),
        ],
    )
    def test_range_error_names_the_flag_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        # every input is missing, so reading one first would fail with another error
        missing = str(tmp_path / "missing.csv")
        output = tmp_path / "out.csv"
        out_flag = "--out" if argv[0] == "predict" else "--output"
        assert run([missing if a == "IN" else a for a in argv] + [out_flag, str(output)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not output.exists()

    @pytest.mark.parametrize("flag", ["--grid-thresholds", "--grid-kcaps"])
    def test_grid_option_without_values_is_a_usage_error(self, flag):
        # argparse rejects the command line before any file is opened
        with pytest.raises(SystemExit) as exc:
            run([*POSTPROCESS_IN, "--tune-truth", "IN", flag, "--output", "OUT"])
        assert exc.value.code == 2


GOLDEN_FILES = ("merged_po.csv", "gate.csv", "scores_in.csv", "scores_ood.csv", "submission.csv", "manifest.json")

# The option sets of the configurable commands and the config-key sets of the two
# that read a config file; the patch box's degree-to-km scales are not settings.
MERGE_KEYS = {"mode", "box_half_km", "rare_count_threshold"}
PIPELINE_KEYS = {
    "merge_mode", "box_half_km", "rare_count_threshold", "gate_radius_km", "predict_k", "in_threshold",
    "in_k_cap", "ood_threshold", "ood_k_cap", "in_vote_neighbors", "in_vote_min_freq", "ood_vote_neighbors",
    "ood_vote_min_freq", "vote_inclusive", "fallback_top1",
}
MERGE_FLAGS = {
    "-h", "--help", "--input", "--output", "--config", "--report-out", "--mode", "--box-half-km", "--rare-count-threshold",
}
GATE_FLAGS = {"-h", "--help", "--test", "--pa", "--output", "--gate-radius-km"}
PREDICT_FLAGS = {"-h", "--help", "--train", "--test", "--out", "--k"}
POSTPROCESS_FLAGS = {
    "-h", "--help", "--scores", "--test", "--reference", "--output", "--tune-truth", "--grid-thresholds", "--grid-kcaps",
    "--threshold", "--k-cap", "--fallback-top1", "--no-fallback-top1",
    "--vote-neighbors", "--vote-min-freq", "--vote-inclusive", "--no-vote-inclusive",
}
PIPELINE_FLAGS = {
    "-h", "--help", "--pa", "--po", "--test", "--outdir", "--config", "--merge-mode", "--box-half-km",
    "--rare-count-threshold", "--gate-radius-km", "--predict-k", "--in-threshold", "--in-k-cap",
    "--ood-threshold", "--ood-k-cap", "--in-vote-neighbors", "--in-vote-min-freq", "--ood-vote-neighbors", "--ood-vote-min-freq",
    "--vote-inclusive", "--no-vote-inclusive", "--fallback-top1", "--no-fallback-top1",
}


def pipeline_argv(outdir, *extra):
    return [
        "pipeline",
        "--pa", f"{FIXTURES}/pa_train.csv",
        "--po", f"{FIXTURES}/po_train.csv",
        "--test", f"{FIXTURES}/test.csv",
        "--outdir", str(outdir),
        *extra,
    ]


@pytest.fixture(params=["bulk", "row_pass"])
def reader(request, monkeypatch):
    """Files read as ``read_table`` reads them, or every file by the row pass."""
    if request.param == "row_pass":
        monkeypatch.setattr(ingest, "_bulk_table", lambda *args: None)
    return request.param


class TestPipeline:
    def test_reproduces_committed_golden(self, tmp_path, reader):
        outdir = tmp_path / "run"
        status = run(
            [
                "pipeline",
                "--pa", f"{FIXTURES}/pa_train.csv",
                "--po", f"{FIXTURES}/po_train.csv",
                "--test", f"{FIXTURES}/test.csv",
                "--outdir", str(outdir),
            ]
        )
        assert status == 0
        for name in ("merged_po.csv", "gate.csv", "scores_in.csv", "scores_ood.csv", "submission.csv", "manifest.json"):
            assert (outdir / name).read_bytes() == (Path(FIXTURES) / "golden" / name).read_bytes(), name

    def test_crlf_inputs_reproduce_the_golden_data_files(self, tmp_path, reader):
        for name in ("pa_train.csv", "po_train.csv", "test.csv"):
            (tmp_path / name).write_bytes((Path(FIXTURES) / name).read_bytes().replace(b"\n", b"\r\n"))
        outdir = tmp_path / "run"
        pipeline.run(tmp_path / "pa_train.csv", tmp_path / "po_train.csv", tmp_path / "test.csv", outdir)
        for name in pipeline.OUTPUTS:  # manifest.json holds the inputs' digests, so it differs
            assert (outdir / name).read_bytes() == (Path(FIXTURES) / "golden" / name).read_bytes(), name

    def test_manifest_records_effective_config(self, tmp_path):
        outdir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"merge_mode": "loose", "predict_k": 5}))
        status = run(
            [
                "pipeline",
                "--pa", f"{FIXTURES}/pa_train.csv",
                "--po", f"{FIXTURES}/po_train.csv",
                "--test", f"{FIXTURES}/test.csv",
                "--outdir", str(outdir),
                "--config", str(config),
                "--predict-k", "7",
            ]
        )
        assert status == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["merge_mode"] == "loose"  # from config file
        assert manifest["config"]["predict_k"] == 7  # flag wins
        assert set(manifest["inputs"]) == {"pa", "po", "test"}
        # the environment record lives beside the manifest, not in it
        assert "versions" not in manifest
        record = json.loads((outdir / "run.json").read_text())
        assert record["versions"] == {"numpy": np.__version__, "python": sys.version.split()[0]}

    def test_subcommands_at_their_defaults_reproduce_the_golden_run(self, tmp_path, reader):
        golden = Path(FIXTURES) / "golden"
        pa, po = f"{FIXTURES}/pa_train.csv", f"{FIXTURES}/po_train.csv"
        merged, gate = tmp_path / "merged_po.csv", tmp_path / "gate.csv"
        assert run(["merge", "--input", po, "--output", str(merged), "--mode", "strict"]) == 0
        assert run(["gate", "--test", f"{FIXTURES}/test.csv", "--pa", pa, "--output", str(gate)]) == 0
        in_ids = {line.split(",")[0] for line in gate.read_text().splitlines()[1:] if line.split(",")[1] == "in_distribution"}
        header, *rows = fixture_lines("test.csv")
        submission_rows = []
        for side, train, settings in (
            ("in", pa, []),
            ("ood", str(merged), ["--threshold", "0.475", "--vote-neighbors", "6", "--vote-min-freq", "0.5"]),
        ):
            side_rows = [r for r in rows if (r.split(",")[0] in in_ids) == (side == "in")]
            test, scores, sub = (tmp_path / f"{name}_{side}.csv" for name in ("test", "scores", "submission"))
            test.write_text("\n".join([header, *side_rows]) + "\n")
            assert run(["predict", "--train", train, "--test", str(test), "--out", str(scores)]) == 0
            argv = ["postprocess", "--scores", str(scores), "--test", str(test), "--reference", train, *settings]
            assert run([*argv, "--output", str(sub)]) == 0
            submission_rows += sub.read_text().splitlines()[1:]
        submission_rows.sort(key=lambda r: int(r.split(",")[0]))
        (tmp_path / "submission.csv").write_text("\n".join(["surveyId,predictions", *submission_rows]) + "\n")
        for name in GOLDEN_FILES[:-1]:
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name

    def test_header_only_po_file_is_one_error_line_naming_it_and_writes_nothing(self, tmp_path, capsys):
        po = tmp_path / "po.csv"
        po.write_text("surveyId,lat,lon,speciesId\n")
        outdir = tmp_path / "run"
        argv = ["pipeline", "--pa", f"{FIXTURES}/pa_train.csv", "--po", str(po), "--test", f"{FIXTURES}/test.csv", "--outdir", str(outdir)]
        assert run(argv) == 1
        n_ood = sum(line.split(",")[1] == "out_of_distribution" for line in fixture_lines("golden/gate.csv")[1:])
        assert capsys.readouterr().err == f"error: {po}: no surveys, but {n_ood} test surveys are out-of-distribution\n"
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_library_run_reproduces_golden_and_cli_output(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        manifest = pipeline.run(
            f"{FIXTURES}/pa_train.csv", f"{FIXTURES}/po_train.csv", f"{FIXTURES}/test.csv", outdir, pipeline.PipelineConfig()
        )
        library_out = capsys.readouterr().out
        for name in GOLDEN_FILES:
            assert (outdir / name).read_bytes() == (Path(FIXTURES) / "golden" / name).read_bytes(), name
        assert manifest == json.loads((outdir / "manifest.json").read_text())
        assert run(pipeline_argv(outdir)) == 0
        assert capsys.readouterr().out == library_out
        assert len(library_out.splitlines()) == 4


    def test_one_index_per_reference_set_and_one_query_per_side(self, tmp_path, monkeypatch):
        calls = {"__init__": 0, "knn_query_many": 0}
        for name in calls:
            method = getattr(GeoIndex, name)

            def counted(*args, _method=method, _name=name, **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(GeoIndex, name, counted)
        pipeline.run(f"{FIXTURES}/pa_train.csv", f"{FIXTURES}/po_train.csv", f"{FIXTURES}/test.csv", tmp_path)
        # PA for the gate and the in-distribution side, merged PO for the other side (the merge builds none);
        # kNN calls: the gate, the in-distribution side, the out-of-distribution side
        assert calls == {"__init__": 2, "knn_query_many": 3}
        for name in GOLDEN_FILES:
            assert (tmp_path / name).read_bytes() == (Path(FIXTURES) / "golden" / name).read_bytes(), name


def command_options(name):
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {opt for action in subparsers[name]._actions for opt in action.option_strings}


class TestConfig:
    def test_options_and_keys_match_the_config_fields(self):
        assert command_options("merge") == MERGE_FLAGS
        assert command_options("pipeline") == PIPELINE_FLAGS
        assert command_options("gate") == GATE_FLAGS
        assert command_options("predict") == PREDICT_FLAGS
        assert command_options("postprocess") == POSTPROCESS_FLAGS
        assert {f.name for f in fields(MergeConfig)} == MERGE_KEYS
        assert {f.name for f in fields(pipeline.PipelineConfig)} == PIPELINE_KEYS
        golden = json.loads((Path(FIXTURES) / "golden" / "manifest.json").read_text())
        assert set(golden["config"]) == PIPELINE_KEYS

    @pytest.mark.parametrize(
        "setting, message",
        [("gate_radius_km", "gate_radius_km must be >= 0, got nan"), ("predict_k", "predict_k must be >= 1, got nan")],
    )
    def test_nan_is_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pipeline.PipelineConfig(**{setting: float("nan")})

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"predict_k": [1]}', "predict_k must be an integer, got [1]"),
            ("null", "expected a JSON object of config keys, got null"),
            ('{"vote_inclusive": "false"}', 'vote_inclusive must be true or false, got "false"'),
            ('{"in_threshold": true}', "in_threshold must be a finite number, got true"),
            ('{"gate_radius_km": NaN}', "gate_radius_km must be a finite number, got NaN"),
            ('{"merge_mode": "tight"}', "merge_mode must be one of ['loose', 'balanced', 'strict']"),
            ('{"predict_k": 1', "not a JSON file"),
            ('{"seed": 0}', "unknown config keys ['seed']"),
            ('{"radius_threshold_km": 0.5}', "unknown config keys ['radius_threshold_km']"),
        ],
    )
    def test_bad_config_value_is_one_error_line_naming_the_file(self, tmp_path, capsys, text, reason):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run(pipeline_argv(tmp_path / "run", "--config", str(config))) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {config}: ") and captured.err.count("\n") == 1
        assert reason in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"predict_k": 0}', "predict_k must be >= 1"),
            ('{"gate_radius_km": -1}', "gate_radius_km must be >= 0"),
            ('{"in_threshold": 1.5}', "threshold must be in [0, 1]"),
            ('{"ood_threshold": 1.5}', "ood_threshold must be in [0, 1], got 1.5"),
            ('{"in_k_cap": 0}', "in_k_cap must be >= 1, got 0"),
            ('{"ood_vote_neighbors": 0}', "ood_vote_neighbors must be >= 1, got 0"),
            ('{"in_vote_min_freq": 0}', "in_vote_min_freq must be in (0, 1], got 0.0"),
            ('{"box_half_km": 0}', "box_half_km must be positive, got 0.0"),
            ('{"rare_count_threshold": 0}', "rare_count_threshold must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_value_fails_before_any_output(self, tmp_path, capsys, text, reason):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        outdir = tmp_path / "run"
        assert run(pipeline_argv(outdir, "--config", str(config))) == 1
        captured = capsys.readouterr()
        key = next(iter(json.loads(text)))  # the message names the key and the file it came from
        assert captured.err.startswith(f"error: {config}: {key} must be ") and captured.err.count("\n") == 1
        assert reason in captured.err and captured.out == ""
        assert not any((outdir / name).exists() for name in pipeline.OUTPUTS)

    def test_out_of_range_flag_names_the_flag(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"in_threshold": 0.5}')
        argv = pipeline_argv(tmp_path / "run", "--config", str(config), "--in-threshold", "1.5")
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: --in-threshold: in_threshold must be in [0, 1], got 1.5\n"

    @pytest.mark.parametrize("from_file", [True, False])
    def test_merge_range_error_names_key_and_origin(self, pair_file, tmp_path, capsys, from_file):
        config = tmp_path / "cfg.json"
        config.write_text('{"box_half_km": -1}' if from_file else "{}")
        flags = [] if from_file else ["--box-half-km", "-1"]
        output = tmp_path / "m.csv"
        status = run(["merge", "--input", pair_file, "--output", str(output), "--config", str(config), *flags])
        assert status == 1 and not output.exists()
        origin = config if from_file else "--box-half-km"
        assert capsys.readouterr().err == f"error: {origin}: box_half_km must be positive, got -1.0\n"

    def test_non_finite_flag_value_is_rejected(self, tmp_path, capsys):
        assert run(pipeline_argv(tmp_path / "run", "--box-half-km", "inf")) == 1
        assert capsys.readouterr().err == "error: --box-half-km: box_half_km must be a finite number, got Infinity\n"

    def test_int_for_float_field_gives_the_default_manifest(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"gate_radius_km": 10}')
        outdir = tmp_path / "run"
        assert run(pipeline_argv(outdir, "--config", str(config))) == 0
        assert (outdir / "manifest.json").read_bytes() == (Path(FIXTURES) / "golden" / "manifest.json").read_bytes()

    def test_merge_builds_its_config_from_the_same_fields(self, pair_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"rare_count_threshold": 1.5}')
        status = run(["merge", "--input", pair_file, "--output", str(tmp_path / "m.csv"), "--config", str(config)])
        assert status == 1
        assert "rare_count_threshold must be an integer, got 1.5" in capsys.readouterr().err


def fixture_lines(name):
    return (Path(FIXTURES) / name).read_text().splitlines()


class TestPostprocessKeying:
    @pytest.fixture
    def five_test_surveys(self, tmp_path):
        test = tmp_path / "test5.csv"
        test.write_text("\n".join(fixture_lines("test.csv")[:6]) + "\n")
        return test

    @pytest.fixture
    def fixture_scores(self, tmp_path):
        scores = tmp_path / "scores.csv"
        argv = ["predict", "--train", f"{FIXTURES}/pa_train.csv", "--test", f"{FIXTURES}/test.csv", "--out", str(scores)]
        assert run(argv) == 0
        return scores

    def postprocess(self, scores, test, output):
        argv = ["postprocess", "--scores", str(scores), "--test", str(test), "--reference", f"{FIXTURES}/pa_train.csv"]
        return run([*argv, "--output", str(output)])

    def test_rejects_scores_for_surveys_outside_the_test_file(self, tmp_path, capsys, five_test_surveys, fixture_scores):
        species = fixture_lines("pa_train.csv")[1].split(",")[3].split()[0]
        with open(fixture_scores, "a") as f:
            f.write(f"999999,{species},0.5\n")
        capsys.readouterr()
        output = tmp_path / "sub.csv"
        assert self.postprocess(fixture_scores, five_test_surveys, output) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fixture_scores}: scores for surveys absent from the test set: [") and err.count("\n") == 1
        assert err.endswith(", ...] (116 in total)\n")
        assert not output.exists()

    def test_repeated_score_row_is_one_error_line(self, tmp_path, capsys, fixture_scores):
        sid, species, _ = fixture_scores.read_text().splitlines()[1].split(",")
        with open(fixture_scores, "a") as f:
            f.write(f"{sid},{species},0.9\n")
        line = len(fixture_scores.read_text().splitlines())
        capsys.readouterr()
        output = tmp_path / "sub.csv"
        assert self.postprocess(fixture_scores, f"{FIXTURES}/test.csv", output) == 1
        assert capsys.readouterr().err == f"error: {fixture_scores}:{line}: duplicate score for survey {sid}, species {species}\n"
        assert not output.exists()

    def test_tuning_on_scores_that_lack_a_truth_survey_names_the_score_file(self, tmp_path, capsys, fixture_scores):
        kept = [line for line in fixture_scores.read_text().splitlines()[1:] if not line.startswith("90001,")]
        fixture_scores.write_text("surveyId,speciesId,score\n" + "".join(f"{line}\n" for line in kept))
        capsys.readouterr()
        output = tmp_path / "sub.csv"
        argv = ["postprocess", "--scores", str(fixture_scores), "--test", f"{FIXTURES}/test.csv", "--reference", f"{FIXTURES}/pa_train.csv"]
        assert run([*argv, "--tune-truth", f"{FIXTURES}/test.csv", "--output", str(output)]) == 1
        assert capsys.readouterr().err == f"error: {fixture_scores}: survey id mismatch: missing from predictions [90001], unexpected []\n"
        assert not output.exists()

    def test_tuning_on_no_surveys_names_the_score_file(self, tmp_path, capsys):
        test, scores, output = tmp_path / "test.csv", tmp_path / "scores.csv", tmp_path / "sub.csv"
        test.write_text("surveyId,lat,lon,speciesIds\n")
        assert run(["predict", "--train", f"{FIXTURES}/pa_train.csv", "--test", str(test), "--out", str(scores)]) == 0
        capsys.readouterr()
        argv = ["postprocess", "--scores", str(scores), "--test", str(test), "--reference", f"{FIXTURES}/pa_train.csv"]
        assert run([*argv, "--tune-truth", str(test), "--output", str(output)]) == 1
        assert capsys.readouterr().err == f"error: {scores}: no surveys to score\n"
        assert not output.exists()

    def test_submission_covers_exactly_the_test_surveys(self, tmp_path, capsys, five_test_surveys, fixture_scores):
        test_ids = [int(line.split(",")[0]) for line in fixture_lines("test.csv")[1:6]]
        kept = [line for line in fixture_scores.read_text().splitlines()[1:] if int(line.split(",")[0]) in test_ids[:3]]
        fixture_scores.write_text("surveyId,speciesId,score\n" + "".join(f"{line}\n" for line in kept))
        capsys.readouterr()
        output = tmp_path / "sub.csv"
        assert self.postprocess(fixture_scores, five_test_surveys, output) == 0
        assert capsys.readouterr().err == f"{fixture_scores}: 2 of 5 test surveys have no score row\n"
        assert sorted(read_submission(str(output))) == sorted(test_ids)
