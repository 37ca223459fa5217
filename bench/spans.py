"""The traced in-process replica of each CLI command.

Each replica calls the package's public functions in the order the CLI calls
them and writes the same bytes the CLI writes, so its spans time the code
path the end-to-end runs measure.  A span is recorded around each call into
a layer (a module of the package); spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from cdranks import (
    RenderOptions,
    SimConfig,
    Variant,
    aggregate_folds,
    apply_manifest,
    average_ranks,
    build_report,
    chi_square_sf,
    estimate_power,
    estimate_type1,
    friedman_statistic,
    friedman_test,
    generate_matrix,
    layout,
    nemenyi_cd,
    nemenyi_test,
    pairwise_significance,
    parse_long_csv,
    parse_manifest,
    parse_wide_csv,
    render_svg,
    summarize_by_tag,
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    run_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; ``run_id`` groups the spans of one iteration."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Stands in for :class:`Tracer` in the untraced replica runs."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def per_run(spans: list, values: list, key) -> dict:
    """Median over runs of the per-run sum of ``values`` grouped by ``key(span)``."""
    sums = {}
    for s, v in zip(spans, values):
        run = sums.setdefault(key(s), {})
        run[s.run_id] = run.get(s.run_id, 0.0) + v
    return {name: statistics.median(runs.values()) for name, runs in sums.items()}


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def analyze(tr, csv: Path, manifest_path: Path, out: Path, *, long: bool,
            variant: str = "friedman", tag: "str | None" = None) -> None:
    """``cdranks analyze`` as public calls, in the CLI's order."""
    with tr.span("cli.analyze"):
        with tr.span("cli.read"):
            manifest_text = _read(manifest_path)
        with tr.span("ingest.parse_manifest"):
            manifest = parse_manifest(manifest_text)
        with tr.span("cli.read"):
            text = _read(csv)
        if long:
            with tr.span("ingest.parse_long_csv"):
                records = parse_long_csv(text)
            with tr.span("ingest.aggregate_folds"):
                matrix = aggregate_folds(records, manifest, drop_incomplete=False)
        else:
            with tr.span("ingest.parse_wide_csv"):
                wide = parse_wide_csv(text, manifest.direction)
            with tr.span("ingest.apply_manifest"):
                matrix = apply_manifest(wide, manifest)
        alpha = manifest.alpha
        with tr.span("procedure.friedman_test"):
            omnibus = friedman_test(matrix, alpha=alpha, variant=Variant.parse(variant))
        with tr.span("ranks.average_ranks"):
            ranks = average_ranks(matrix)
        with tr.span("procedure.nemenyi_test"):
            posthoc = nemenyi_test(ranks, matrix.n_datasets, alpha=alpha)
        with tr.span("procedure.build_report"):
            report = build_report(matrix, omnibus, posthoc, ranks)
        if tag is not None:
            with tr.span("ingest.summarize_by_tag"):
                report["tag_summaries"] = [
                    s.to_dict() for s in summarize_by_tag(ranks, posthoc, manifest, tag)
                ]
        with tr.span("cli.json_dump"):
            text = json.dumps(report, indent=2) + "\n"
        with tr.span("cli.write"):
            out.write_text(text, encoding="utf-8")


def diagram(tr, report_path: Path, out: Path, width: int = 800) -> None:
    """``cdranks diagram`` as public calls, in the CLI's order."""
    with tr.span("cli.diagram"):
        with tr.span("cli.read"):
            text = _read(report_path)
        with tr.span("cli.json_load"):
            report = json.loads(text)
        entries = report["average_ranks"]
        labels = [e["label"] for e in entries]
        ranks = [float(e["rank"]) for e in entries]
        with tr.span("diagram.layout"):
            spec = layout(ranks, labels, float(report["cd"]))
        annotation = (
            None if report["posthoc_licensed"]
            else f"no significant differences at alpha = {float(report['alpha']):g}"
        )
        with tr.span("diagram.render_svg"):
            svg = render_svg(spec, RenderOptions(width_px=width), annotation=annotation)
        with tr.span("cli.write"):
            out.write_text(svg, encoding="utf-8")


def sim_config(n: int, k: int, effect: tuple, trials: int, seed: int) -> SimConfig:
    return SimConfig(n_datasets=n, n_models=k, effect=effect, noise_sd=1.0,
                     trials=trials, seed=seed, alpha=0.05)


def simulate(tr, cfg: SimConfig, workers: int, out: Path) -> None:
    """``cdranks simulate`` as public calls, in the CLI's order."""
    with tr.span("cli.simulate"):
        if cfg.is_null:
            with tr.span("simulate.estimate_type1"):
                estimate = estimate_type1(cfg, workers=workers)
        else:
            with tr.span("simulate.estimate_power"):
                estimate = estimate_power(cfg, workers=workers)
        with tr.span("cli.json_dump"):
            text = json.dumps(estimate.to_dict(), indent=2) + "\n"
        with tr.span("cli.write"):
            out.write_text(text, encoding="utf-8")


def replay_trials(cfg: SimConfig, trials: int) -> dict:
    """Median per-trial cost in microseconds of each step of the trial loop.

    Replays the simulate module's per-trial sequence through the public
    functions, timing each call on its own.
    """
    k, n = cfg.n_models, cfg.n_datasets
    cd = None if cfg.is_null else nemenyi_cd(k, n, cfg.alpha)
    steps = {"simulate.generate_matrix_us": [], "simulate.average_ranks_us": [],
             "simulate.friedman_statistic_us": [], "distributions.chi_square_sf_us": []}
    if cd is not None:
        steps["simulate.pairwise_significance_us"] = []
    clock = time.perf_counter
    for t in range(trials):
        t0 = clock()
        m = generate_matrix(cfg, t)
        t1 = clock()
        avg = average_ranks(m)
        t2 = clock()
        stat = friedman_statistic(avg, n, k)
        t3 = clock()
        chi_square_sf(stat, k - 1)
        t4 = clock()
        steps["simulate.generate_matrix_us"].append(t1 - t0)
        steps["simulate.average_ranks_us"].append(t2 - t1)
        steps["simulate.friedman_statistic_us"].append(t3 - t2)
        steps["distributions.chi_square_sf_us"].append(t4 - t3)
        if cd is not None:
            t5 = clock()
            pairwise_significance(avg, cd)
            steps["simulate.pairwise_significance_us"].append(clock() - t5)
    return {name: 1e6 * statistics.median(v) for name, v in steps.items()}
