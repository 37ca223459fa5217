"""Command-line interface: analyze, diagram, simulate.

``analyze`` reads results plus a manifest and emits the JSON report,
``diagram`` renders a report to SVG, ``simulate`` runs the Monte Carlo
calibration.  Errors print to stderr; data goes to stdout or ``--out``.
Exit codes: 0 success, 2 bad input, 3 unsupported design.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CdranksError, ValidationError, check_alpha, check_int, check_number, check_positive
from .errors import load_json_object

_FORMATS_HELP = """\
input formats:
  long CSV   header exactly: dataset,model,fold,value
             one row per (dataset, model, fold) measurement; fold scores for
             each (dataset, model) pair are averaged into one matrix cell
  wide CSV   header: dataset,<model label>,...,<model label>
             one pre-aggregated row per dataset
  manifest   JSON object:
             {"metric_name": "accuracy",
              "direction": "maximize" | "minimize",
              "alpha": 0.05,
              "models": [{"label": "cart_clickstream",
                          "tags": {"algorithm": "cart",
                                   "feature_set": "clickstream"}}, ...]}
             model order fixes column order; tags are free-form string pairs

numbers, in CSV values and numeric flags alike, are plain or scientific decimal
in ASCII digits: no underscores, locale separators, inf, nan or overflow
"""


def _checked(convert, check, *args):
    """An argparse type: ``check`` the text, converted if ``check_number`` and ``convert`` pass."""

    def parse(text: str):
        try:
            check_number(text)
            value = convert(text)
        except (ValidationError, ValueError):
            value = text
        try:
            return check(value, *args)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_positive_int = _checked(int, check_int, "value", 1)
_nonnegative_int = _checked(int, check_int, "value", 0)
_positive_real = _checked(float, check_positive, "value")
_level = _checked(float, check_alpha)


def _variant(text: str):
    from .procedure import Variant

    try:
        return Variant.parse(text.replace("-", "_"))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _effect(text: str) -> tuple:
    try:
        return tuple(check_number(part) for part in text.split(","))
    except ValidationError:
        message = f"{text!r} is not a comma-separated list of numbers"
        raise argparse.ArgumentTypeError(message) from None


def _read(path: str) -> str:
    """Read a file, or stdin for ``-``, as UTF-8 with newlines untranslated and no leading BOM."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8").removeprefix("\ufeff")
        with open(path, "rb") as f:
            return f.read().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid UTF-8 (byte {exc.start})") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _detect_format(text: str) -> str:
    import csv

    from .ingest import LONG_HEADER, _csv_reader

    try:
        header = next(_csv_reader(text), [])
    except csv.Error:  # the wide parser reports it with its line number
        return "wide"
    return "long" if tuple(f.strip() for f in header) == LONG_HEADER else "wide"


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .ingest import (
        aggregate_folds,
        apply_manifest,
        parse_long_csv,
        parse_manifest,
        parse_wide_csv,
        summarize_by_tag,
    )
    from .procedure import build_report, friedman_test, nemenyi_test
    from .ranks import average_ranks

    if args.input == args.manifest == "-":
        raise ValidationError("stdin ('-') can be given only once: as the input or as --manifest")
    manifest = parse_manifest(_read(args.manifest))
    text = _read(args.input)
    fmt = args.format if args.format != "auto" else _detect_format(text)
    if fmt == "long":
        cells = parse_long_csv(text)
        matrix = aggregate_folds(cells, manifest, drop_incomplete=args.drop_incomplete)
    else:
        matrix = apply_manifest(parse_wide_csv(text, manifest.direction), manifest)

    alpha = args.alpha if args.alpha is not None else manifest.alpha
    ranks = average_ranks(matrix)
    omnibus = friedman_test(matrix, alpha=alpha, variant=args.variant, ranks=ranks)
    posthoc = nemenyi_test(ranks, matrix.n_datasets, alpha=alpha)
    report = build_report(matrix, omnibus, posthoc, ranks)
    if args.summarize_tag is not None:
        report["tag_summaries"] = [
            s.to_dict() for s in summarize_by_tag(ranks, posthoc, manifest, args.summarize_tag)
        ]
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _require(report: dict, key: str, kinds: tuple) -> object:
    if key not in report:
        raise ValidationError(f"report is missing key {key!r}")
    value = report[key]
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        raise ValidationError(f"report key {key!r} has unexpected type {type(value).__name__}")
    return value


def _load_report(text: str) -> dict:
    """Parse and check a report; ``n_datasets`` is checked if present."""
    from .cd import check_average_ranks

    report = load_json_object(text, "report")
    entries = _require(report, "average_ranks", (list,))
    if not entries:
        raise ValidationError("report lists no models")
    for e in entries:
        if not (
            isinstance(e, dict)
            and isinstance(e.get("label"), str)
            and type(e.get("rank")) in (int, float)
        ):
            raise ValidationError("each average_ranks entry needs a label and a rank")
    try:
        check_average_ranks([float(e["rank"]) for e in entries])
    except (ValidationError, OverflowError) as exc:
        raise ValidationError(f"report average_ranks: {exc}") from None
    check_positive(_require(report, "cd", (int, float)), "report cd")
    alpha = check_alpha(_require(report, "alpha", (int, float)))
    p_value = _require(report, "p_value", (int, float))
    if not 0.0 <= p_value <= 1.0:
        raise ValidationError(f"report p_value must lie in [0, 1], got {p_value!r}")
    licensed = _require(report, "posthoc_licensed", (bool,))
    if licensed != (p_value < alpha):
        raise ValidationError(
            f"report posthoc_licensed {licensed} disagrees with p_value {p_value!r} "
            f"and alpha {alpha!r}"
        )
    if "n_datasets" in report:
        check_int(report["n_datasets"], "report n_datasets", 2)
    return report


def _cmd_diagram(args: argparse.Namespace) -> int:
    from .cd import nemenyi_cd
    from .diagram import RenderOptions, layout, render_svg

    report = _load_report(_read(args.report))
    entries = report["average_ranks"]
    labels = [e["label"] for e in entries]
    ranks = [e["rank"] for e in entries]

    cd, alpha = report["cd"], report["alpha"]
    if args.alpha is not None:
        alpha = args.alpha
        n_datasets = check_int(report.get("n_datasets"), "report n_datasets", 2)
        cd = nemenyi_cd(len(ranks), n_datasets, alpha)

    spec = layout(ranks, labels, cd)
    # the licence at any alpha; the reader holds posthoc_licensed to it at the report's own
    licensed = report["p_value"] < alpha
    annotation = None if licensed else f"no significant differences at alpha = {alpha:g}"
    svg = render_svg(spec, RenderOptions(width_px=args.width), annotation=annotation)
    _emit(svg, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import SimConfig, estimate_power, estimate_type1

    effect = args.effect if args.effect is not None else (0.0,) * args.k
    cfg = SimConfig(
        n_datasets=args.n,
        n_models=args.k,
        effect=effect,
        noise_sd=args.noise_sd,
        trials=args.trials,
        seed=args.seed,
        alpha=args.alpha,
    )
    if cfg.is_null:
        estimate = estimate_type1(cfg, workers=args.workers)
    else:
        estimate = estimate_power(cfg, workers=args.workers)
    _emit(json.dumps(estimate.to_dict(), indent=2) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdranks",
        description="Rank-based comparison of models over many datasets: "
        "omnibus test, critical-difference post-hoc, diagram rendering, "
        "and Monte Carlo calibration.",
        epilog=_FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="run the test procedure on a results file and emit the JSON report",
        epilog=_FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    analyze.add_argument("input", help="results CSV (long or wide; '-' for stdin)")
    analyze.add_argument("--manifest", required=True, help="manifest JSON path ('-' for stdin)")
    analyze.add_argument(
        "--alpha",
        type=_level,
        default=None,
        help="significance level (default: the manifest's alpha)",
    )
    analyze.add_argument(
        "--variant",
        type=_variant,
        default="friedman",
        metavar="{friedman,iman-davenport}",
        help="omnibus statistic form (default: friedman)",
    )
    analyze.add_argument(
        "--format",
        choices=("auto", "long", "wide"),
        default="auto",
        help="input layout; auto detects long by its exact 4-column header",
    )
    analyze.add_argument(
        "--drop-incomplete",
        action="store_true",
        help="drop datasets missing any (dataset, model) pair instead of failing",
    )
    analyze.add_argument(
        "--summarize-tag",
        metavar="KEY",
        default=None,
        help="add per-value rank summaries for this manifest tag key",
    )
    analyze.add_argument("--out", default=None, help="write report here instead of stdout")
    analyze.set_defaults(func=_cmd_analyze)

    diagram = sub.add_parser(
        "diagram",
        help="render an analyze report to a critical-difference SVG",
    )
    diagram.add_argument("report", help="report JSON path ('-' for stdin)")
    diagram.add_argument("--out", default=None, help="write SVG here instead of stdout")
    diagram.add_argument(
        "--width", type=_positive_int, default=800, help="SVG width in pixels (default: 800)"
    )
    diagram.add_argument(
        "--alpha",
        type=_level,
        default=None,
        help="recompute the critical difference at this level instead of the report's",
    )
    diagram.set_defaults(func=_cmd_diagram)

    simulate = sub.add_parser(
        "simulate",
        help="Monte Carlo calibration of the test procedure",
    )
    simulate.add_argument("--n", type=_positive_int, required=True, help="datasets per trial")
    simulate.add_argument("--k", type=_positive_int, required=True, help="models per trial")
    simulate.add_argument("--alpha", type=_level, default=0.05, help="significance level")
    simulate.add_argument(
        "--trials", type=_positive_int, default=1000, help="number of trials (default: 1000)"
    )
    simulate.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="generator seed (default: 0)"
    )
    simulate.add_argument(
        "--effect",
        type=_effect,
        default=None,
        metavar="E1,E2,...",
        help="per-model mean offsets; all zeros (the default) estimates the Type-I rate",
    )
    simulate.add_argument(
        "--noise-sd", type=_positive_real, default=1.0, help="noise standard deviation (default: 1.0)"
    )
    simulate.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel worker processes, at most the CPU count; the output does not depend on it",
    )
    simulate.add_argument("--out", default=None, help="write JSON here instead of stdout")
    simulate.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: "list | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CdranksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CdranksError) else 2


if __name__ == "__main__":
    sys.exit(main())
