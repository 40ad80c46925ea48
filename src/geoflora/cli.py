"""Command-line front end of the survey pipeline.

Subcommands: ingest, stats, merge, gate, predict, postprocess, evaluate,
pipeline, fusion-check. ``pipeline`` runs ``geoflora.pipeline.run``, which
writes the routed submission plus a manifest of the effective configuration
and the input/output digests, so a run can be reproduced byte for byte; the
numpy and Python versions go into a separate run record (``run.json``), so
the manifest stays byte-identical everywhere.

Survey files are read in the long or the wide format, whichever their header
names. Every setting of a subcommand is an option generated from a field of
its config dataclass (``--box-half-km`` sets ``MergeConfig.box_half_km``):
``merge`` from ``MergeConfig``, ``gate`` from ``GateConfig``, ``predict`` from
``PredictConfig``, ``postprocess`` from ``TopKConfig`` and ``VoteConfig``, and
``pipeline`` from ``PipelineConfig``. ``merge`` and ``pipeline`` also read a
``--config`` file (a JSON object keyed by field name); precedence is flags >
config file > field defaults. Every value is checked against its field's
type, and its range is checked when the config is built, before any input is
read; either error names the key and the flag or file its value came from.
Failures print one ``error:`` line to stderr and exit with status 1.
"""

from __future__ import annotations

import argparse
import enum
import itertools
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .fusion import ModalityTriple, init_weights, stack_forward, tri_serial_forward
from .gate import GateConfig, assign, write_assignments
from .ingest import (
    DatasetKind,
    ParseError,
    RangeError,
    decode_species,
    parse_occurrences,
    preview_ids,
    write_dataset,
)
from .losses import samples_f1
from .pipeline import PipelineConfig, write_json
from .pipeline import run as run_pipeline
from .postprocess import (
    DEFAULT_GRID_KCAPS,
    DEFAULT_GRID_THRESHOLDS,
    TopKConfig,
    VoteConfig,
    grid_search_top_k,
    read_submission,
    side_predictions,
    write_submission,
)
from .predictor import PredictConfig, load_scores, neighbor_frequency_predict, save_scores
from .pseudolabel import MergeConfig, merge_points, merge_stats, merged_to_dataset
from .stats import bbox_summary, occurrences_per_species_hist, species_per_survey_hist

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number"}


def _typed(value, typ):
    """``value`` as an instance of the field type ``typ``; None when it is not one.

    A float field also takes an integer (stored as a float); a bool is never a number.
    """
    if issubclass(typ, enum.Enum):
        return {m.value: m for m in typ}.get(value) if isinstance(value, str) else None
    if typ is bool:
        return value if isinstance(value, bool) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if typ is int:
        return value if isinstance(value, int) else None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _effective_config(args: argparse.Namespace, cls):
    """An instance of the config dataclass ``cls``: flags > config file > field defaults.

    Each given value, from a flag or the config file, must be of its field's type
    and in its field's range; an error names the field and where its value came from.
    """
    types = get_type_hints(cls)
    given = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{args.config}: not a JSON file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config keys, got {json.dumps(loaded)[:40]}")
        unknown = set(loaded) - set(types)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {preview_ids(unknown)}; known: {sorted(types)}")
        given = {name: (value, args.config) for name, value in loaded.items()}
    for name in types:
        if getattr(args, name) is not None:
            given[name] = (getattr(args, name), "--" + name.replace("_", "-"))
    values = {}
    for name, (value, origin) in given.items():
        values[name] = _typed(value, types[name])
        if values[name] is None:
            typ = types[name]
            expected = _TYPE_NAMES.get(typ) or f"one of {[m.value for m in typ]}"
            raise ValueError(f"{origin}: {name} must be {expected}, got {json.dumps(value)[:40]}")
    try:
        return cls(**values)
    except RangeError as exc:
        raise ValueError(f"{given[exc.field][1]}: {exc}") from None


def _add_config_options(p: argparse.ArgumentParser, *classes, config_file: bool = False) -> None:
    """One option per field of each config class, named after the field; ``config_file`` adds ``--config``."""
    if config_file:
        p.add_argument("--config", default=None, help="JSON config file; keys are the option names with underscores")
    for cls in classes:
        types = get_type_hints(cls)
        for f in fields(cls):
            flag, typ = "--" + f.name.replace("_", "-"), types[f.name]
            shown = f"default: {f.default.value if isinstance(f.default, enum.Enum) else f.default}"
            if typ is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, help=shown)
            elif issubclass(typ, enum.Enum):
                p.add_argument(flag, choices=[m.value for m in typ], default=None, help=shown)
            else:
                p.add_argument(flag, type=typ, default=None, help=shown)


def _parse_file(path: str, kind: str | None = None):
    return parse_occurrences(path, kind=DatasetKind(kind) if kind else None)


def _cmd_ingest(args) -> int:
    dataset, catalog = _parse_file(args.input, args.kind)
    write_dataset(dataset, args.output, catalog)
    print(f"{args.input}: {len(dataset)} surveys, {len(catalog)} species, {dataset.indices.size} (survey, species) pairs")
    print(f"wrote {args.output}")
    return 0


def _write_csv(path: Path, header: str, rows) -> None:
    """A two-column report: the ``header`` line, then one line per (name, value) pair of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(f"{name},{value}\n" for name, value in rows)


def _cmd_stats(args) -> int:
    dataset, catalog = _parse_file(args.input, args.kind)
    if len(dataset) == 0:  # checked before any report is written
        raise ValueError(f"{args.input}: no surveys")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    per_survey = species_per_survey_hist(dataset)
    per_species = occurrences_per_species_hist(dataset, len(catalog))
    box = bbox_summary(dataset)
    _write_csv(outdir / "species_per_survey.csv", "bin,count", per_survey.histogram.items())
    _write_csv(outdir / "occurrences_per_species.csv", "bin,count", per_species.histogram.items())
    bbox_rows = [("surveys", box.surveys)]
    bbox_rows += [(name, getattr(box, name)) for name in ("lat_min", "lat_max", "lon_min", "lon_max")]
    for axis, quantiles in (("lat", box.lat_quantiles), ("lon", box.lon_quantiles)):
        bbox_rows += [(f"{axis}_q{int(q * 100):02d}", v) for q, v in quantiles.items()]
    _write_csv(outdir / "bbox.csv", "field,value", bbox_rows)

    summary = {
        "surveys": per_survey.surveys,
        "speciesPerSurveyMode": per_survey.mode,
        "presentSpecies": per_species.present_species,
        "fractionSpeciesUnder50": per_species.fraction_under_50,
        "singletonSpecies": per_species.singleton_species,
    }
    write_json(outdir / "summary.json", summary)
    print(
        f"{len(dataset)} surveys; species-per-survey mode {per_survey.mode}; "
        f"{per_species.fraction_under_50:.1%} of species under 50 occurrences; "
        f"{per_species.singleton_species} singleton species"
    )
    print(f"wrote histograms under {outdir}")
    return 0


def _cmd_merge(args) -> int:
    for path in filter(None, (args.output, args.report_out)):  # before any input is read or output written
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{path}: no such directory: {Path(path).parent}")
    merge_cfg = _effective_config(args, MergeConfig)
    dataset, catalog = _parse_file(args.input)
    merged = merge_points(dataset, merge_cfg)
    write_dataset(merged_to_dataset(merged), args.output, catalog)
    report = merge_stats(dataset, merged)
    print(
        f"mode={merge_cfg.mode.value}: {report.surveys_in} surveys -> {report.surveys_out} "
        f"({report.consumed} consumed); species {report.species_in} -> {report.species_out}; "
        f"mean species/survey {report.mean_species_in:.3f} -> {report.mean_species_out:.3f}"
    )
    if args.report_out:
        write_json(Path(args.report_out), report.__dict__)
    print(f"wrote {args.output}")
    return 0


def _cmd_gate(args) -> int:
    cfg = _effective_config(args, GateConfig)
    test, _ = _parse_file(args.test, kind="test")
    pa, _ = _parse_file(args.pa)
    gate = assign(test, pa, cfg.gate_radius_km)
    write_assignments(gate, args.output)
    n_in = int(gate.in_mask.sum())
    print(f"{n_in} in-distribution, {len(gate) - n_in} out-of-distribution (radius {cfg.gate_radius_km} km)")
    print(f"wrote {args.output}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _effective_config(args, PredictConfig)
    train, catalog = _parse_file(args.train)
    test, _ = _parse_file(args.test, kind="test")
    if len(train) == 0:
        raise ValueError(f"{args.train}: training dataset is empty")
    matrix = neighbor_frequency_predict(train, test, cfg.k, num_species=len(catalog))
    save_scores(matrix, args.out, catalog)
    print(f"scored {len(matrix)} surveys against {len(train)} training surveys (k={cfg.k})")
    print(f"wrote {args.out}")
    return 0


def _cmd_postprocess(args) -> int:
    top_cfg, vote_cfg = _effective_config(args, TopKConfig), _effective_config(args, VoteConfig)
    if args.tune_truth:
        try:
            for t, k in itertools.product(args.grid_thresholds, args.grid_kcaps):
                TopKConfig(t, k)
        except RangeError as exc:
            flag = "--grid-thresholds" if exc.field == "threshold" else "--grid-kcaps"
            raise ValueError(f"{flag}: {exc}") from None

    reference, catalog = _parse_file(args.reference)
    test, _ = _parse_file(args.test, kind="test")
    matrix = load_scores(args.scores, catalog)
    truth = parse_occurrences(args.tune_truth, catalog=catalog)[0] if args.tune_truth else None
    try:  # the score file holds other surveys than the truth file, or none, or surveys the test file lacks
        if truth is not None:
            top_cfg, best = grid_search_top_k(matrix, truth, args.grid_thresholds, args.grid_kcaps, fallback_top1=top_cfg.fallback_top1)
            print(f"grid search: threshold={top_cfg.threshold} k_cap={top_cfg.k_cap} (F1={best:.5f})")
        final = side_predictions(matrix, test, reference, top_cfg, vote_cfg)
    except ValueError as exc:
        raise ValueError(f"{args.scores}: {exc}") from None
    if len(matrix) < len(test):
        print(f"{args.scores}: {len(test) - len(matrix)} of {len(test)} test surveys have no score row", file=sys.stderr)
    write_submission(test.ids, final, args.output, catalog)
    print(f"wrote {args.output} ({len(final)} surveys)")
    return 0


def _cmd_evaluate(args) -> int:
    truth_ds, truth_catalog = _parse_file(args.truth)
    truth = decode_species(truth_ds, truth_catalog)
    predicted = read_submission(args.submission)
    try:
        f1 = samples_f1(truth, predicted)
    except ValueError as exc:  # the two files hold other surveys, or none
        raise ValueError(f"{args.submission}: {exc}") from None
    print(f"{f1:.5f}")
    return 0


def _cmd_pipeline(args) -> int:
    run_pipeline(args.pa, args.po, args.test, args.outdir, _effective_config(args, PipelineConfig))
    return 0


def _cmd_fusion_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    dims = tuple(args.dims)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"fusion-check {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    weights = init_weights(dims, args.hidden_dim, args.heads, args.seed)
    again = init_weights(dims, args.hidden_dim, args.heads, args.seed)
    check("seeded-init-deterministic", all(np.array_equal(a, b) for a, b in zip(weights.in_proj, again.in_proj)))

    x = ModalityTriple(*(rng.normal(0.0, 1.0, d) for d in dims))
    out1 = tri_serial_forward(x, weights)
    out2 = tri_serial_forward(x, weights)
    check("forward-deterministic", all(np.array_equal(a, b) for a, b in ((out1.a, out2.a), (out1.b, out2.b), (out1.c, out2.c))))
    check("forward-finite", all(np.all(np.isfinite(v)) for v in (out1.a, out1.b, out1.c)))
    check("dims-preserved", out1.dims == x.dims)

    trace: dict = {}
    tri_serial_forward(x, weights, trace=trace)
    sums_ok = all(np.allclose(trace[k].sum(axis=1), 1.0, atol=1e-6) for k in ("attn_a", "attn_b", "attn_c"))
    check("attention-rows-normalised", sums_ok)

    zeroed = replace(weights, out_proj=tuple(np.zeros_like(w) for w in weights.out_proj))
    ident = tri_serial_forward(x, zeroed)
    check("residual-identity", all(np.array_equal(a, b) for a, b in ((ident.a, x.a), (ident.b, x.b), (ident.c, x.c))))

    empty = stack_forward(x, [])
    check("empty-stack-identity", all(np.array_equal(a, b) for a, b in ((empty.a, x.a), (empty.b, x.b), (empty.c, x.c))))

    if failures:
        print(f"fusion-check: FAIL ({', '.join(failures)})")
        return 1
    print("fusion-check: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geoflora", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geoflora {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a survey file and write its normalised wide form")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="write distribution histograms and extent summaries")
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("merge", help="aggregate presence-only surveys by patch coverage")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_config_options(p, MergeConfig, config_file=True)
    p.add_argument("--report-out", default=None, help="optional JSON merge report")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("gate", help="route test surveys by proximity to PA training surveys")
    p.add_argument("--test", required=True)
    p.add_argument("--pa", required=True)
    _add_config_options(p, GateConfig)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("predict", help="neighbour-frequency baseline scores")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_config_options(p, PredictConfig)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("postprocess", help="threshold scores, add neighbour votes, write a submission")
    p.add_argument("--scores", required=True)
    p.add_argument("--test", required=True, help="test survey coordinates")
    p.add_argument("--reference", required=True, help="dataset voted over; also defines the species universe")
    _add_config_options(p, TopKConfig, VoteConfig)
    p.add_argument("--tune-truth", default=None, help="held-out truth file enabling threshold/k grid search")
    p.add_argument("--grid-thresholds", type=float, nargs="+", default=DEFAULT_GRID_THRESHOLDS)
    p.add_argument("--grid-kcaps", type=int, nargs="+", default=DEFAULT_GRID_KCAPS)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("evaluate", help="samples-averaged F1 of a submission against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--submission", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="merge -> gate -> predict -> postprocess -> routed submission")
    p.add_argument("--pa", required=True)
    p.add_argument("--po", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--outdir", required=True)
    _add_config_options(p, PipelineConfig, config_file=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("fusion-check", help="run the fusion block's invariant battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs=3, default=[8, 12, 16], metavar=("DA", "DB", "DC"))
    p.add_argument("--hidden-dim", type=int, default=16)
    p.add_argument("--heads", type=int, default=4)
    p.set_defaults(func=_cmd_fusion_check)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
