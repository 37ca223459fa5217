"""Result-file ingestion, fold aggregation, and per-tag summaries.

Two input shapes are accepted.  Long CSV carries one row per
(dataset, model, fold) measurement; :func:`parse_long_csv` groups it into
``{dataset: {model: scores}}``, one float array of fold scores per cell, and
:func:`aggregate_folds` averages each cell.  Wide CSV carries one
pre-aggregated row per dataset.
An :class:`ExperimentManifest` names the models, their metadata tags, the
metric direction, and the significance level.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings
from array import array
from collections.abc import Mapping, Sequence

from .errors import (
    DroppedDatasetsWarning,
    IncompleteDesignError,
    ValidationError,
    _Record,
    check_alpha,
    check_number,
    check_unique,
    load_json_object,
)
from .procedure import NemenyiResult
from .ranks import AverageRanks, Direction, ModelId, PerformanceMatrix

LONG_HEADER = ("dataset", "model", "fold", "value")

# The least number of characters _csv_reader copies into one StringIO.
_SLICE_CHARS = 1 << 14
_LINE_END = re.compile(r"\n|\r(?=[^\n])")


def _csv_reader(source):
    """A csv.reader over ``source``, a str or an iterable of str chunks, fed as line-aligned StringIO slices.

    A StringIO holds up to 4 bytes per character, so one over the whole text
    would hold four times its size.  The chunks are regrouped into slices of
    at least _SLICE_CHARS characters, each cut just after the first line end
    past that size: a ``"\n"``, or a ``"\r"`` whose next character, in the same
    chunk, is no ``"\n"``.  With ``newline=""`` that never splits a line or a
    ``"\r\n"`` pair, so the reader sees the same lines, rows and ``line_num`` as
    over one StringIO.  A str is cut into slices of itself, with no other copy.
    """

    def slices(chunks):
        pending, size = [], 0  # the text since the last cut, and its length
        for chunk in chunks:
            start = 0
            while found := _LINE_END.search(chunk, max(start, start + _SLICE_CHARS - 1 - size)):
                pending.append(chunk[start : found.end()])
                yield "".join(pending)
                pending, size, start = [], 0, found.end()
            pending.append(chunk[start:])
            size += len(chunk) - start
        if size:
            yield "".join(pending)

    chunks = (source,) if isinstance(source, str) else source
    return csv.reader(itertools.chain.from_iterable(io.StringIO(s, newline="") for s in slices(chunks)))


def _is_blank(row: Sequence[str]) -> bool:
    return not row or all(cell.strip() == "" for cell in row)


def _header(reader):
    """The first row of ``reader`` that is not blank, or None: the one rule that finds a CSV's header.
    A header whose first field is empty after ``strip`` starts with a row index: a ValidationError."""
    header = next((row for row in reader if not _is_blank(row)), None)
    if header is not None and not header[0].strip():
        raise ValidationError(
            f"line {reader.line_num}: the first column has no name: pandas to_csv and R write.csv write a row "
            "index there; write the file without it (index=False in pandas, row.names=FALSE in R)"
        )
    return header


def _is_long_header(row: Sequence[str]) -> bool:
    return tuple(field.strip() for field in row) == LONG_HEADER


def _detect_format(source) -> tuple:
    """The input layout, "long" if the header (the first row that is not blank) passes parse_long_csv's
    header check, else "wide", and ``source`` again as an iterator of chunks: those read, then the rest.
    A header that ``_header`` refuses is its ValidationError, before either layout is chosen."""
    chunks, head = iter((source,) if isinstance(source, str) else source), []
    try:  # the reader records in head each chunk it takes
        header = _header(_csv_reader(head.append(chunk) or chunk for chunk in chunks)) or []
    except csv.Error:  # the wide parser reports it with its line number
        header = []
    # over iter(head), the chain lets go of the header chunks once it is past them
    return "long" if _is_long_header(header) else "wide", itertools.chain(iter(head), chunks)


class ExperimentManifest(_Record):
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


def parse_long_csv(source) -> dict:
    """Parse long-format CSV, a str or an iterable of str chunks: header ``dataset,model,fold,value``.

    Returns the fold table ``{dataset: {model: scores}}``, datasets and each
    dataset's models in first-seen row order, each cell's scores an ``array('d')``
    in first-seen fold order.  Fold ids only decide duplicates and are not returned.
    Blank rows are skipped, before the header too.  A bad header,
    malformed rows, duplicate (dataset, model, fold) triples, and non-numeric values raise
    :class:`ValidationError` naming the offending line, the row's last physical line.

    Memory beyond a str ``source`` is the fold table plus one slice of it (see
    :func:`_csv_reader`), and chunks are taken as the rows are parsed, so the
    whole text of a chunked ``source`` is never held.  Each distinct dataset,
    model or fold id is one shared string.  While the parse runs, a cell's folds
    index its scores through the first fold index, or through ``own``'s index for
    it once its folds stop being a prefix of that one.
    When a row opens a new cell, the score array of the cell the last row filled is
    trimmed to its size by one copy, as is the last cell's at the end: no more copies
    than cells, and 8 bytes per score cell by cell.
    """
    reader = _csv_reader(source)
    cells, own, share = {}, {}, {}.setdefault  # own: the fold index of each cell off the first
    index = first = {}  # the last row's cell: its fold index,
    held_row, key, scores = {}, (None, None), array("d")  # dataset dict, key and scores (at first a stand-in),
    held_dataset = held_model = None  # and raw dataset and model fields
    try:
        header = _header(reader)
        if header is None:
            raise ValidationError("empty document: expected header 'dataset,model,fold,value'")
        if not _is_long_header(header):
            raise ValidationError(
                f"line {reader.line_num}: header must be 'dataset,model,fold,value', got {','.join(header)!r}"
            )
        for row in reader:
            # A 4-field row with a non-empty key and fold is parsed, checked
            # for a duplicate and stored; only a failing row looks up its
            # line number.  Any other row is blank or an error.
            if len(row) == 4:
                dataset, model, fold, raw = row
                if dataset != held_dataset or model != held_model:  # not the last row's cell
                    d, m = dataset.strip(), model.strip()
                    if fold := d and m and fold:  # "" if an id is empty: blank or an error
                        # a display, as a freed tuple() of a map (resized) would stay on the free list
                        ids = d, m = share(d, d), share(m, m)
                        if (cell := (models := cells.setdefault(d, {})).get(m)) is None:  # a new cell:
                            held_row[key[1]] = scores[:]  # the last row's cell is trimmed to its size,
                            cell = models[m] = array("d")
                            if index is not first:  # and this one starts on that cell's fold index
                                own[ids] = index
                        index = own.get(ids, first)
                        key, held_row, scores, held_dataset, held_model = ids, models, cell, dataset, model
                fold = fold.strip()
                if fold:
                    try:
                        value = check_number(raw.strip())
                    except ValidationError as exc:
                        raise ValidationError(f"line {reader.line_num}: {exc}") from None
                    # The cell's folds are the first n of its fold -> position index.  One below n is
                    # a duplicate; any other goes to n, in place at the index's end, else in a copy.
                    if index.get(fold) != (n := len(scores)):
                        if index.get(fold, n) < n:
                            raise ValidationError(
                                f"line {reader.line_num}: duplicate record for {(*key, fold)!r}"
                            )
                        if len(index) != n:
                            index = own[key] = dict(itertools.islice(index.items(), n))
                        index[share(fold, fold)] = n
                    scores.append(value)
                    continue
            if _is_blank(row):
                continue
            line = reader.line_num
            if len(row) != 4:
                raise ValidationError(f"line {line}: expected 4 fields, got {len(row)}")
            raise ValidationError(f"line {line}: dataset, model, and fold must be non-empty")
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    held_row[key[1]] = scores[:]
    return cells


def parse_wide_csv(source, direction: "str | Direction" = Direction.MAXIMIZE) -> PerformanceMatrix:
    """Parse wide-format CSV, a str or an iterable of str chunks: header ``dataset,<model labels...>``.

    Every data row must carry one value per model column.  Dataset rows are
    sorted lexicographically so the matrix is independent of file row order.
    """
    reader = _csv_reader(source)
    rows = {}
    try:
        header = _header(reader)
        if header is None:
            raise ValidationError("empty document: expected header 'dataset,<model labels...>'")
        fields, line = [h.strip() for h in header], reader.line_num
        if len(fields) < 2 or fields[0] != "dataset":
            raise ValidationError(
                f"line {line}: header must be 'dataset,<model labels...>', got {','.join(header)!r}"
            )
        labels = fields[1:]
        if any(not l for l in labels):
            raise ValidationError(f"line {line}: model column labels must be non-empty")
        check_unique(labels, f"line {line}: duplicate model column(s)")
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
    cells: Mapping,
    manifest: ExperimentManifest,
    *,
    drop_incomplete: bool = False,
) -> PerformanceMatrix:
    """Average each cell's fold scores into one matrix cell.

    ``cells`` is the fold table :func:`parse_long_csv` returns, or any
    ``{dataset: {model: scores}}`` mapping whose scores are a sequence of
    numbers; a cell that is a mapping raises :class:`ValidationError`.  Datasets
    are ordered lexicographically and models per the manifest.  By default the design
    must be complete: every pair needs at least one fold, otherwise
    :class:`IncompleteDesignError` lists every missing pair.  With
    ``drop_incomplete`` the offending datasets are dropped instead and a
    :class:`DroppedDatasetsWarning` names them.  Only cells that enter the
    matrix are averaged, as it is built, so beyond ``cells`` only the matrix is held;
    the first in matrix order whose scores have no finite mean raises :class:`ValidationError`.
    """
    if not cells:
        raise ValidationError("no fold records to aggregate")
    labels = manifest.labels
    known = set(labels)
    for dataset, models in cells.items():
        for model in models:
            if model not in known:
                raise ValidationError(
                    f"record for dataset {dataset!r} names model "
                    f"{model!r}, which is not in the manifest"
                )

    datasets = sorted(cells)
    missing = [(d, l) for d in datasets for l in labels if not cells[d].get(l)]
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

    def means(d) -> list:  # dataset d's row, each cell averaged as the matrix takes it
        row, models = [], cells[d]
        for l in labels:
            # a {fold: value} mapping would have fsum average its fold ids; the type test spares the
            # parse's arrays an ABC check, a quarter of this function's time
            if type(scores := models[l]) is not array and isinstance(scores, Mapping):
                raise ValidationError(f"dataset {d!r}, model {l!r}: fold scores must be a sequence, not a mapping")
            try:  # fsum / n is statistics.fmean bit for bit, without importing statistics
                row.append(math.fsum(scores) / len(scores))
            # a sum past the float range, inf + -inf, or a score that is no number
            except (OverflowError, ValueError, TypeError):
                raise ValidationError(f"dataset {d!r}, model {l!r}: fold scores have no finite mean") from None
        return row

    return PerformanceMatrix(tuple(datasets), manifest.models, map(means, datasets), manifest.direction)


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
        values=([row[j] for j in order] for row in matrix.rows()),
        direction=manifest.direction,
    )


class TagSummary(_Record):
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

