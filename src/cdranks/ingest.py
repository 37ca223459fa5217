"""Result-file ingestion, fold aggregation, and per-tag summaries.

Two input shapes are accepted.  Long CSV carries one row per
(dataset, model, fold) measurement; :func:`parse_long_csv` groups it into
one fold table per (dataset, model) cell and :func:`aggregate_folds` averages
each table.  Wide CSV carries one pre-aggregated row per dataset.
An :class:`ExperimentManifest` names the models, their metadata tags, the
metric direction, and the significance level.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DroppedDatasetsWarning,
    IncompleteDesignError,
    ValidationError,
    check_alpha,
    check_number,
    check_unique,
    load_json_object,
)
from .procedure import NemenyiResult
from .ranks import AverageRanks, Direction, ModelId, PerformanceMatrix

LONG_HEADER = ("dataset", "model", "fold", "value")

# The least number of characters _csv_reader copies into one StringIO.
_SLICE_CHARS = 1 << 16


def _csv_reader(text: str):
    """A csv.reader over ``text``, fed as a chain of line-aligned StringIO slices.

    A StringIO holds up to 4 bytes per character, so one over the whole text
    would hold four times its size.  Each slice ends just after a ``"\n"``,
    which with ``newline=""`` never splits a line or a ``"\r\n"`` pair: the
    reader sees the same lines, rows and ``line_num`` as over one StringIO.
    Text with no later ``"\n"`` (only ``"\r"`` line ends, say) stays one slice.
    """
    cuts = [0]
    while cuts[-1] < len(text):
        cuts.append(text.find("\n", cuts[-1] + _SLICE_CHARS - 1) + 1 or len(text))
    slices = (io.StringIO(text[a:b], newline="") for a, b in itertools.pairwise(cuts))
    return csv.reader(itertools.chain.from_iterable(slices))


def _is_blank(row: Sequence[str]) -> bool:
    return not row or all(cell.strip() == "" for cell in row)


@dataclass(frozen=True)
class ExperimentManifest:
    """Names the compared models and how to read their metric.

    ``models`` fixes the column order of every matrix built from this
    manifest; ``direction`` says whether larger metric values are better.
    """

    metric_name: str
    direction: Direction
    models: tuple
    alpha: float = 0.05

    def __post_init__(self):
        if not isinstance(self.metric_name, str) or not self.metric_name:
            raise ValidationError("metric_name must be a non-empty string")
        object.__setattr__(self, "direction", Direction.parse(self.direction))
        models = tuple(self.models)
        if not models:
            raise ValidationError("manifest must list at least one model")
        check_unique((m.label for m in models), "duplicate model label(s) in manifest")
        object.__setattr__(self, "models", models)
        check_alpha(self.alpha)

    @property
    def labels(self) -> tuple:
        return tuple(m.label for m in self.models)


def parse_manifest(text: str) -> ExperimentManifest:
    """Parse a manifest JSON document.

    Expected shape::

        {"metric_name": "accuracy", "direction": "maximize", "alpha": 0.05,
         "models": [{"label": "cart_clickstream",
                     "tags": {"algorithm": "cart", "feature_set": "clickstream"}}, ...]}

    ``alpha`` defaults to 0.05 and ``tags`` to an empty mapping.
    """
    data = load_json_object(text, "manifest")
    for key in ("metric_name", "direction", "models"):
        if key not in data:
            raise ValidationError(f"manifest is missing required key {key!r}")
    raw_models = data["models"]
    if not isinstance(raw_models, list):
        raise ValidationError("manifest 'models' must be a list")
    models = []
    for i, entry in enumerate(raw_models):
        if not isinstance(entry, dict) or "label" not in entry:
            raise ValidationError(f"manifest model #{i} must be an object with a 'label'")
        models.append(ModelId(label=entry["label"], tags=entry.get("tags", {})))
    return ExperimentManifest(
        metric_name=data["metric_name"],
        direction=data["direction"],
        models=tuple(models),
        alpha=data.get("alpha", 0.05),
    )


def parse_long_csv(text: str) -> dict:
    """Parse long-format CSV: header ``dataset,model,fold,value``.

    Returns the fold table ``{(dataset, model): {fold: value}}``, with cells
    and folds in first-seen row order.  Blank rows are skipped.  Malformed
    rows, duplicate (dataset, model, fold) triples, and non-numeric values
    raise :class:`ValidationError` naming the offending line, the row's last
    physical line.

    Memory beyond ``text`` is the fold table plus one slice of it (see
    :func:`_csv_reader`); each distinct fold id is one shared string.
    """
    reader = _csv_reader(text)
    cells = {}
    get, share = cells.get, {}.setdefault
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError("empty document: expected header 'dataset,model,fold,value'")
        if tuple(h.strip() for h in header) != LONG_HEADER:
            raise ValidationError(
                f"line 1: header must be 'dataset,model,fold,value', got {','.join(header)!r}"
            )
        for row in reader:
            # A 4-field row with a non-empty key and fold is parsed, checked
            # for a duplicate and stored; only a failing row looks up its
            # line number.  Any other row is blank or an error.
            if len(row) == 4:
                dataset, model, fold, raw = row
                key = (dataset.strip(), model.strip())
                fold = fold.strip()
                if key[0] and key[1] and fold:
                    try:
                        value = check_number(raw.strip())
                    except ValidationError as exc:
                        raise ValidationError(f"line {reader.line_num}: {exc}") from None
                    folds = get(key)
                    if folds is None:
                        folds = cells[key] = {}
                    if fold in folds:
                        raise ValidationError(
                            f"line {reader.line_num}: duplicate record for {(*key, fold)!r}"
                        )
                    folds[share(fold, fold)] = value
                    continue
            if _is_blank(row):
                continue
            line = reader.line_num
            if len(row) != 4:
                raise ValidationError(f"line {line}: expected 4 fields, got {len(row)}")
            raise ValidationError(f"line {line}: dataset, model, and fold must be non-empty")
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    return cells


def parse_wide_csv(text: str, direction: "str | Direction" = Direction.MAXIMIZE) -> PerformanceMatrix:
    """Parse wide-format CSV: header ``dataset,<model labels...>``.

    Every data row must carry one value per model column.  Dataset rows are
    sorted lexicographically so the matrix is independent of file row order.
    """
    reader = _csv_reader(text)
    rows = {}
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError("empty document: expected header 'dataset,<model labels...>'")
        fields = [h.strip() for h in header]
        if len(fields) < 2 or fields[0] != "dataset":
            raise ValidationError(
                f"line 1: header must be 'dataset,<model labels...>', got {','.join(header)!r}"
            )
        labels = fields[1:]
        if any(not l for l in labels):
            raise ValidationError("line 1: model column labels must be non-empty")
        check_unique(labels, "line 1: duplicate model column(s)")
        for row in reader:
            line = reader.line_num
            if _is_blank(row):
                continue
            if len(row) != len(fields):
                raise ValidationError(f"line {line}: expected {len(fields)} fields, got {len(row)}")
            dataset = row[0].strip()
            if not dataset:
                raise ValidationError(f"line {line}: dataset id must be non-empty")
            if dataset in rows:
                raise ValidationError(f"line {line}: duplicate dataset id {dataset!r}")
            values = rows[dataset] = []
            for label, cell in zip(labels, row[1:]):
                try:
                    values.append(check_number(cell.strip()))
                except ValidationError as exc:
                    raise ValidationError(f"line {line}, column {label!r}: {exc}") from None
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError("no data rows")

    datasets = tuple(sorted(rows))
    return PerformanceMatrix(
        datasets=datasets,
        models=tuple(ModelId(label) for label in labels),
        values=[rows[d] for d in datasets],
        direction=direction,
    )


def aggregate_folds(
    cells: dict,
    manifest: ExperimentManifest,
    *,
    drop_incomplete: bool = False,
) -> PerformanceMatrix:
    """Average each cell's fold scores into one matrix cell.

    ``cells`` is the fold table :func:`parse_long_csv` returns,
    ``{(dataset, model): {fold: value}}``.  Datasets are ordered
    lexicographically and models per the manifest.  By default the design
    must be complete: every pair needs at least one fold, otherwise
    :class:`IncompleteDesignError` lists every missing pair.  With
    ``drop_incomplete`` the offending datasets are dropped instead and a
    :class:`DroppedDatasetsWarning` names them.
    """
    if not cells:
        raise ValidationError("no fold records to aggregate")
    labels = manifest.labels
    known = set(labels)
    for dataset, model in cells:
        if model not in known:
            raise ValidationError(
                f"record for dataset {dataset!r} names model "
                f"{model!r}, which is not in the manifest"
            )

    datasets = sorted({d for d, _ in cells})
    missing = [(d, l) for d in datasets for l in labels if not cells.get((d, l))]
    if missing:
        if not drop_incomplete:
            raise IncompleteDesignError(missing)
        dropped = {d for d, _ in missing}
        datasets = [d for d in datasets if d not in dropped]
        if not datasets:
            raise ValidationError(
                "every dataset is missing at least one (dataset, model) pair; "
                "nothing remains after dropping incomplete datasets"
            )
        warnings.warn(
            DroppedDatasetsWarning(
                f"dropped {len(dropped)} incomplete dataset(s): {', '.join(sorted(dropped))}"
            ),
            stacklevel=2,
        )

    # fsum / n is statistics.fmean bit for bit, without importing statistics
    mean = {key: math.fsum(folds.values()) / len(folds) for key, folds in cells.items() if folds}
    return PerformanceMatrix(
        datasets=tuple(datasets),
        models=manifest.models,
        values=[[mean[(d, l)] for l in labels] for d in datasets],
        direction=manifest.direction,
    )


def apply_manifest(matrix: PerformanceMatrix, manifest: ExperimentManifest) -> PerformanceMatrix:
    """Reorder a matrix's columns to manifest order and attach model tags.

    The matrix's labels and the manifest's must be equal as sets.
    """
    have = set(matrix.labels)
    want = set(manifest.labels)
    if have != want:
        extra = sorted(have - want)
        absent = sorted(want - have)
        parts = []
        if extra:
            parts.append(f"not in manifest: {', '.join(extra)}")
        if absent:
            parts.append(f"missing from data: {', '.join(absent)}")
        raise ValidationError(f"model labels disagree with manifest ({'; '.join(parts)})")
    col = {label: j for j, label in enumerate(matrix.labels)}
    order = [col[label] for label in manifest.labels]
    return PerformanceMatrix(
        datasets=matrix.datasets,
        models=manifest.models,
        values=[[row[j] for j in order] for row in matrix.values],
        direction=manifest.direction,
    )


@dataclass(frozen=True)
class TagSummary:
    """Rank summary for one value of a tag (e.g. feature_set=clickstream)."""

    tag_value: str
    members: tuple
    mean_rank: float
    best_rank: float
    fully_separated: bool
    separated_from: tuple

    def to_dict(self) -> dict:
        return {
            "tag_value": self.tag_value,
            "members": list(self.members),
            "mean_rank": self.mean_rank,
            "best_rank": self.best_rank,
            "fully_separated": self.fully_separated,
            "separated_from": list(self.separated_from),
        }


def summarize_by_tag(
    ranks: AverageRanks,
    result: NemenyiResult,
    manifest: ExperimentManifest,
    tag_key: str,
) -> list:
    """Summarize average ranks per value of one tag dimension.

    ``ranks`` and ``result`` must be indexed in manifest model order.  A tag
    value counts as separated from another when every cross pair between
    their member models is significant; ``fully_separated`` means separated
    from every other tag value.  Summaries are sorted by (mean rank, tag
    value), best first.
    """
    models = manifest.models
    if len(ranks) != len(models):
        raise ValidationError(f"{len(ranks)} ranks for {len(models)} manifest models")
    groups = {}
    for j, m in enumerate(models):
        if tag_key not in m.tags:
            raise ValidationError(f"model {m.label!r} is missing tag {tag_key!r}")
        groups.setdefault(m.tags[tag_key], []).append(j)

    summaries = []
    for value, idx in groups.items():
        separated = tuple(
            sorted(
                other
                for other, other_idx in groups.items()
                if other != value
                and all(result.significant[i][j] for i in idx for j in other_idx)
            )
        )
        summaries.append(
            TagSummary(
                tag_value=value,
                members=tuple(models[j].label for j in idx),
                mean_rank=math.fsum(ranks[j] for j in idx) / len(idx),
                best_rank=min(ranks[j] for j in idx),
                fully_separated=len(separated) == len(groups) - 1,
                separated_from=separated,
            )
        )
    summaries.sort(key=lambda s: (s.mean_rank, s.tag_value))
    return summaries

