"""CSV parsing, fold aggregation, manifest handling, tag summaries."""

import gc
import json
import math
import re
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from long_csv_oracle import parse_long_csv as oracle_parse_long_csv

from cdranks import (
    Direction,
    DroppedDatasetsWarning,
    ExperimentManifest,
    IncompleteDesignError,
    ModelId,
    NemenyiResult,
    ValidationError,
    aggregate_folds,
    apply_manifest,
    indistinguishable_groups,
    pairwise_significance,
    parse_long_csv,
    parse_manifest,
    parse_wide_csv,
    summarize_by_tag,
)
from cdranks import ingest
from cdranks.ingest import LONG_HEADER, _detect_format

FIXTURES = Path(__file__).parent / "fixtures"


def manifest_of(*labels, direction="maximize", alpha=0.05, tags=None):
    return ExperimentManifest(
        metric_name="accuracy",
        direction=direction,
        models=tuple(ModelId(l, (tags or {}).get(l, {})) for l in labels),
        alpha=alpha,
    )


# Numbers in non-ASCII digits (Arabic-Indic, fullwidth) that float() would accept.
NON_ASCII_NUMBERS = ["\u0660.\u0667", "\uff11.\uff15", "\u0663e2"]


def long_csv(*rows):
    return "dataset,model,fold,value\n" + "\n".join(rows) + "\n"


class TestParseLongCsv:
    def test_single_record(self):
        cells = parse_long_csv(long_csv("courseA,adaboost_click,3,0.912"))
        assert cells == {"courseA": {"adaboost_click": array("d", [0.912])}} and type(cells) is dict

    def test_header_only_gives_empty_table(self):
        assert parse_long_csv("dataset,model,fold,value\n") == {}

    def test_blank_lines_and_crlf_tolerated(self):
        text = "dataset,model,fold,value\r\n\r\nd1,m1,0,0.5\r\n\r\n"
        assert parse_long_csv(text) == {"d1": {"m1": array("d", [0.5])}}

    def test_a_cell_holds_only_its_own_folds(self):
        # d2 starts on d1's fold index, whose second fold is not d2's
        cells = parse_long_csv(long_csv("d1,m,0,0.5", "d1,m,1,0.25", "d2,m,0,0.75"))
        assert _ordered(cells) == [("d1", [("m", [0.5, 0.25])]), ("d2", [("m", [0.75])])]

    def test_whitespace_stripped(self):
        cells = parse_long_csv(long_csv(" d1 , m1 , 0 , 0.5 "))
        assert cells == {"d1": {"m1": array("d", [0.5])}}

    def test_empty_document(self):
        with pytest.raises(ValidationError, match="header"):
            parse_long_csv("")

    def test_wrong_header(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_long_csv("dataset,model,value\nd1,m1,0.5\n")

    def test_wrong_field_count(self):
        with pytest.raises(ValidationError, match="line 2: expected 4 fields"):
            parse_long_csv("dataset,model,fold,value\nd1,m1,0.5\n")

    def test_empty_key_field(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_long_csv(long_csv("d1,,0,0.5"))

    def test_duplicate_triple(self):
        with pytest.raises(ValidationError, match="line 4: duplicate record for \\('d1', 'm1', '0'\\)"):
            parse_long_csv(long_csv("d1,m1,0,0.5", "d1,m2,0,0.5", "d1,m1,0,0.6"))

    def test_same_pair_different_folds_ok(self):
        cells = parse_long_csv(long_csv("d1,m1,0,0.5", "d2,m1,0,0.7", "d1,m1,1,0.6"))
        assert _ordered(cells) == [("d1", [("m1", [0.5, 0.6])]), ("d2", [("m1", [0.7])])]

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", 1.0), ("1.", 1.0), (".5", 0.5), ("1e-3", 0.001), ("+0.5", 0.5), ("-2E+4", -20000.0)],
    )
    def test_accepted_number_forms(self, raw, expected):
        cells = parse_long_csv(long_csv(f"d1,m1,0,{raw}"))
        assert cells["d1"]["m1"].tolist() == [expected]

    @pytest.mark.parametrize(
        "raw", ["NA", "nan", "inf", "-inf", "1_000", "0x10", "", *NON_ASCII_NUMBERS]
    )
    def test_rejected_number_forms(self, raw):
        with pytest.raises(ValidationError, match="line 2") as exc:
            parse_long_csv(long_csv(f"d1,m1,0,{raw}"))
        assert exc.value.exit_code == 2

    def test_overflowing_literal(self):
        with pytest.raises(ValidationError, match="non-finite"):
            parse_long_csv(long_csv("d1,m1,0,1e999"))

    def test_quoted_row_reports_its_last_line(self):
        # the row on lines 3-4 holds a quoted value with a line break in it
        text = long_csv("d1,m1,0,0.5", 'd1,m1,1,"0.\n5"')
        with pytest.raises(ValidationError, match=r"^line 4: non-numeric value '0\.\\n5'$"):
            parse_long_csv(text)
        # a good quoted row on lines 2-3 shifts every later line number
        text = long_csv('"d\r\n1",m1,0,0.5', "d1,m1,0,0.5", "d1,m1,1,x")
        assert _ordered(parse_long_csv(text.replace(",x", ",1"))) == [
            ("d\r\n1", [("m1", [0.5])]), ("d1", [("m1", [0.5, 1.0])])
        ]
        with pytest.raises(ValidationError, match="^line 5: non-numeric value 'x'$"):
            parse_long_csv(text)

    def test_fixture_file(self):
        cells = parse_long_csv(
            long_csv(
                *(
                    f"d{i},m{j},{f},{0.1 * i + 0.01 * j + 0.001 * f!r}"
                    for i in range(2)
                    for j in range(4)
                    for f in range(5)
                )
            )
        )
        assert len(cells) == 2  # datasets
        assert [(d, list(models)) for d, models in cells.items()] == [
            (d, ["m0", "m1", "m2", "m3"]) for d in ("d0", "d1")
        ]
        assert all(len(scores) == 5 for models in cells.values() for scores in models.values())
        assert cells["d1"]["m3"][4] == 0.1 * 1 + 0.01 * 3 + 0.001 * 4


# Every piece below is a fragment the long-CSV parser must treat exactly as
# the original per-row loop did: padding (including Unicode whitespace that
# str.strip removes but csv does not split on), quotes, line breaks inside
# quoted fields, and numbers that are valid, malformed, non-ASCII, or overflow.
_PADDING = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\u2028"])
_KEYS = st.sampled_from(["d1", "d2", "m", "x y", "\u00e9", "0", "1", "", "a\nb", "a\r\nb", 'a"b'])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(
        ["1.", ".5", "+0.5", "-2E+4", "1e999", "-1e999", "nan", "inf", "1_000", "0x10",
         "", "NA", "1 2", *NON_ASCII_NUMBERS, "9" * 131073]
    ),
)


@st.composite
def _field(draw, text):
    body = draw(_PADDING) + draw(text) + draw(_PADDING)
    if draw(st.booleans()):
        return '"' + body.replace('"', '""') + '"'
    return body


_ROWS = st.one_of(
    st.tuples(_field(_KEYS), _field(_KEYS), _field(_KEYS), _field(_NUMBERS)).map(",".join),
    st.lists(st.one_of(_field(_KEYS), _field(_NUMBERS)), max_size=6).map(",".join),
    st.sampled_from(["", "  ", "\t", ",,,", " , , , ", ",,", '""', '"",,,""']),
)
_HEADERS = st.sampled_from(
    ["dataset,model,fold,value"] * 4
    + [" dataset , model ,fold,\tvalue", '"dataset",model,fold,value', "dataset,model,value", ""]
)


@st.composite
def long_csv_texts(draw):
    rows = [draw(_HEADERS), *draw(st.lists(_ROWS, max_size=12))]
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(rows), max_size=len(rows)))
    text = "".join(row + end for row, end in zip(rows, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


# Slice sizes below most line lengths, so nearly every line is a slice of its own.
TINY_SLICES = (1, 3)


def _projected(original):
    """The oracle's fold table ``{(dataset, model): {fold: value}}`` in parse_long_csv's
    shape, ``{dataset: {model: [value, ...]}}``, each level in first-seen order."""
    table = {}
    for (dataset, model), folds in original.items():
        table.setdefault(dataset, {})[model] = list(folds.values())
    return table


def _ordered(table):
    """parse_long_csv's fold table as ordered plain lists, so that a comparison pins every order."""
    return [(d, [(model, scores.tolist()) for model, scores in models.items()]) for d, models in table.items()]


def _outcome(parse, text, slice_chars=None):
    """The fold table or matrix ``parse`` returns, as ordered plain lists, or its error.

    The oracle's table is projected to parse_long_csv's shape first.  With
    ``slice_chars`` the CSV reader is fed slices of at least that many
    characters instead of the default size.
    """
    with pytest.MonkeyPatch.context() as mp:
        if slice_chars is not None:
            mp.setattr("cdranks.ingest._SLICE_CHARS", slice_chars)
        try:
            result = parse(text)
        except ValidationError as exc:
            return type(exc), str(exc)
    if parse is oracle_parse_long_csv:
        return [(dataset, list(models.items())) for dataset, models in _projected(result).items()]
    if isinstance(result, dict):
        return _ordered(result)
    return result.datasets, result.labels, [row.tolist() for row in result.rows()]


class TestLongCsvDifferential:
    @settings(max_examples=400, deadline=None)
    @given(long_csv_texts())
    def test_matches_original_loop(self, text):
        expected = _outcome(oracle_parse_long_csv, text)
        for slice_chars in (None, *TINY_SLICES):
            assert _outcome(parse_long_csv, text, slice_chars) == expected

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["d1,m,0"], "line 2: expected 4 fields, got 3"),
            (["", ",,,", 'd1,"",0,1'], "line 4: dataset, model, and fold must be non-empty"),
            (["d1,m,0,\u0663e2"], "line 2: non-numeric value '\u0663e2'"),
            (["d1,m,0,1e999"], "line 2: value '1e999' overflows to non-finite"),
            (["d1,m,0,1", "d1, m ,\u30000,2"], "line 3: duplicate record for ('d1', 'm', '0')"),
            (["d1,m,0,1", ",,,", "d1,m,0,2"], "line 4: duplicate record for ('d1', 'm', '0')"),
            (["d1,m,0," + "9" * 131073], "line 2: field larger than field limit (131072)"),
        ],
        ids=["field_count", "empty_key", "non_ascii", "overflow", "duplicate", "duplicate_after_blank", "oversized"],
    )
    def test_each_message_matches_original_loop(self, rows, message):
        text = long_csv(*rows)
        assert _outcome(parse_long_csv, text) == (ValidationError, message)
        assert _outcome(oracle_parse_long_csv, text) == (ValidationError, message)


# A few cells, each with a first-seen fold sequence: the same for every cell or
# its own.  Padded ids name the same cell through other raw fields.
_ROW_ORDERS = ("cell_contiguous", "fold_major", "shuffled", "own_fold_order")
_FOLD_IDS = ("0", "1", "2", "f3", "f4", "f5")
_FOLD_SCORES = st.one_of(st.floats(-1e300, 1e300).map(repr), st.sampled_from(["0.5", "0.25", "0.75", "1e308"]))


def _padded(draw, text):
    return draw(st.sampled_from(["", "", " ", "\t"])) + text + draw(st.sampled_from(["", "", " "]))


@st.composite
def fold_table_texts(draw):
    """(long CSV, model labels): a row order from _ROW_ORDERS, blank rows and duplicate rows anywhere."""
    datasets = draw(st.lists(st.sampled_from(["d1", "d2", "d3", "x y", "\u00e9"]), min_size=1, max_size=3, unique=True))
    models = ["m1", "m2", "m3"]  # the least k a matrix takes
    order = draw(st.sampled_from(_ROW_ORDERS))
    cells = draw(st.permutations([(d, m) for d in datasets for m in models]))
    common = draw(st.permutations(_FOLD_IDS))
    folds = {
        cell: (draw(st.permutations(_FOLD_IDS)) if order == "own_fold_order" else common)[
            : draw(st.integers(1, len(_FOLD_IDS)))
        ]
        for cell in cells
    }
    triples = [(*cell, fold) for cell in cells for fold in folds[cell]]
    if order == "fold_major":
        triples = [(*cell, folds[cell][i]) for i in range(len(_FOLD_IDS)) for cell in cells if i < len(folds[cell])]
    elif order == "shuffled":
        triples = draw(st.permutations(triples))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # a duplicate of some row, anywhere
        triples.insert(draw(st.integers(0, len(triples))), draw(st.sampled_from(triples)))
    scores = [draw(_FOLD_SCORES) for _ in triples]
    if draw(st.sampled_from([False] * 5 + [True])):  # one non-numeric score
        scores[draw(st.integers(0, len(scores) - 1))] = "x"
    rows = [",".join([*(_padded(draw, field) for field in triple), score]) for triple, score in zip(triples, scores)]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", ",,,", " , , , "])))
    return long_csv(*rows), models


def _means(cells, models):
    """aggregate_folds' matrix of ``cells`` as exact hex strings, or its error."""
    try:
        matrix = aggregate_folds(cells, manifest_of(*models))
    except ValidationError as exc:
        return str(exc)
    return matrix.datasets, [[value.hex() for value in row.tolist()] for row in matrix.rows()]


class TestFoldTable:
    """The fold table keeps each cell's scores in one array over a fold index
    that cells share; the oracle's plain dicts pin its contents and errors."""

    @settings(max_examples=150, deadline=None)
    @given(fold_table_texts())
    def test_matches_original_loop_in_any_row_order(self, case):
        text, models = case
        expected = _outcome(oracle_parse_long_csv, text)
        assert _outcome(parse_long_csv, text) == expected
        if isinstance(expected, list):
            assert _means(parse_long_csv(text), models) == _means(_projected(oracle_parse_long_csv(text)), models)

    @pytest.mark.parametrize(
        "rows",
        [
            ["d1,m1,0,0.5", "d2,m1,0,0.25", "d1,m2,0,0.75", "d2,m1,1,0.5", "d1,m1,1,0.25"],
            [f"d{d},m{m},{fold},0.5" for fold in range(3) for d in (2, 1) for m in (2, 1, 3)],
        ],
        ids=["interleaved_datasets", "fold_major"],
    )
    def test_cells_iterate_in_first_seen_row_order(self, rows):
        # datasets in the order rows first name them, and each dataset's models in theirs
        text = long_csv(*rows)
        table, fields = parse_long_csv(text), [r.split(",") for r in rows]
        assert list(table) == list(dict.fromkeys(d for d, *_ in fields))
        for d, models in table.items():
            assert list(models) == list(dict.fromkeys(m for e, m, *_ in fields if e == d))
        assert _ordered(table) == _outcome(oracle_parse_long_csv, text)

    def test_cell_on_a_diverged_index_reads_its_own_folds(self):
        # as in walk_then_diverge: each cell walks the last cell's folds, then adds one of its own
        rows = [f"d{c},m,{fold},{c}.5" for c in range(3) for fold in [*range(4), f"own{c}"]]
        rows += ["d3,m,0,3.5", "d0,m,own1,0.25"]  # d3 opens on d2's index; d0, on the first, grows it
        text = long_csv(*rows)
        assert _ordered(parse_long_csv(text)) == _outcome(oracle_parse_long_csv, text) == [
            ("d0", [("m", [0.5] * 5 + [0.25])]), ("d1", [("m", [1.5] * 5)]), ("d2", [("m", [2.5] * 5)]),
            ("d3", [("m", [3.5])]),
        ]
        # one more row, on line 19: a fold is a duplicate only in the cell that has it, whatever index it reads
        for row, duplicate in [("d3,m,own2,0.1", False), ("d3,m,0,0.1", True), ("d1,m,own0,0.1", False),
                               ("d0,m,own1,0.1", True), ("d2,m,own2,0.1", True), ("d0,m,own2,0.1", False)]:
            more = long_csv(*rows, row)
            expected = _outcome(oracle_parse_long_csv, more)
            assert _outcome(parse_long_csv, more) == expected
            message = f"line 19: duplicate record for {tuple(row.split(',')[:3])!r}"
            assert (expected == (ValidationError, message)) is duplicate, (row, expected)

    @pytest.mark.parametrize("pattern", ["walk_then_diverge", "diverge_from_a_long_index"])
    def test_adversarial_row_order_stays_linear(self, pattern):
        if pattern == "walk_then_diverge":
            # each new cell walks the last cell's 199 folds, then adds one of its own
            rows = [f"d{c},m,{fold},0.5" for c in range(100) for fold in [*range(199), f"own{c}"]]
        else:
            # 5000 cells share the first fold of one cell's 10k, then each adds one of its own
            rows = [f"d,m,{fold},0.5" for fold in range(10_000)]
            rows += [f"d{c},m,{fold},0.5" for fold in ("0", "own") for c in range(5000)]
        text = long_csv(*rows)
        plain = long_csv(*(f"d{r // 10},m,{r % 10},0.5" for r in range(len(rows))))

        def fastest(text):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                parse_long_csv(text)
                times.append(time.perf_counter() - start)
            return min(times)

        assert _outcome(parse_long_csv, text) == _outcome(oracle_parse_long_csv, text)
        elapsed, baseline = fastest(text), fastest(plain)
        assert elapsed < 2.0, elapsed
        # a copy that costs more than the n folds it keeps is many times slower than cell-contiguous rows
        assert elapsed < 10 * baseline, (elapsed, baseline)


# Header rows near the long one: its names in any order and case, fields
# missing or added, padding that str.strip removes, quotes (a quote after a
# space is literal), a line end inside quotes, and a data row after the header.
_HEADER_NAMES = st.one_of(
    st.just(LONG_HEADER),
    st.tuples(*(st.sampled_from([name, name, name.upper(), name.title()]) for name in LONG_HEADER)),
    st.permutations(LONG_HEADER),
    st.lists(st.sampled_from([*LONG_HEADER, "Dataset", "VALUE", "x", ""]), max_size=6),
)
_HEADER_FORMS = st.sampled_from(
    ["{}"] * 8 + [" {} ", "\u3000{}\t", "{}\x85", '"{}"', '"\r\n{} "', '" {}\n"', ' "{}"', '"{}"""']
)


@st.composite
def header_texts(draw):
    names = draw(_HEADER_NAMES)
    forms = draw(st.lists(_HEADER_FORMS, min_size=len(names), max_size=len(names)))
    end = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    row = draw(st.sampled_from(["", "d1,m,0,0.5" + end, "d1,0.5"]))
    return ",".join(form.format(name) for form, name in zip(forms, names)) + end + row


INDEX_COLUMN = (
    "line 2: the first column has no name: pandas to_csv and R write.csv write a row index there; "
    "write the file without it (index=False in pandas, row.names=FALSE in R)"
)
_HEADER_REJECTION = re.compile(r"empty document|line \d+: (header must be|the first column has no name)")


def _passes_long_header_check(text):
    try:
        parse_long_csv(text)
    except ValidationError as exc:
        return not _HEADER_REJECTION.match(str(exc))
    return True


def _detected_as_long(text):
    try:
        return _detect_format(text)[0] == "long"
    except ValidationError as exc:  # a row index: the header rule refuses it before any layout is chosen
        assert _HEADER_REJECTION.match(str(exc))
        return False


class TestFormatDetection:
    @settings(max_examples=200, deadline=None)
    @given(header_texts())
    def test_detection_and_long_parser_share_one_header_rule(self, text):
        assert _detected_as_long(text) == _passes_long_header_check(text)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_long_csv, "\n,,,\ndataset,model,value\n", "line 3: header must be 'dataset,model,fold,value', got 'dataset,model,value'"),
            (parse_long_csv, '\n"data\nset",model,fold,value\n', "line 3: header must be 'dataset,model,fold,value', got 'data\\nset,model,fold,value'"),
            (parse_wide_csv, "\r\n \r\nmodel,a\n", "line 3: header must be 'dataset,<model labels...>', got 'model,a'"),
            (parse_wide_csv, "\n\ndataset,a,\n", "line 3: model column labels must be non-empty"),
            (parse_wide_csv, "\ndataset,a,a\n", "line 2: duplicate model column(s): a"),
            (parse_long_csv, "\n ,\n", "empty document: expected header 'dataset,model,fold,value'"),
            (parse_wide_csv, ",,,\r\n", "empty document: expected header 'dataset,<model labels...>'"),
            # a row index as pandas df.to_csv(path) and R write.csv(df, path) write one: a first column headed ''
            (parse_long_csv, "\n,dataset,model,fold,value\n0,d1,a,0,0.5\n", INDEX_COLUMN),
            (parse_long_csv, '\n"","dataset","model","fold","value"\n"1","d1","a","0",0.5\n', INDEX_COLUMN),
            (parse_wide_csv, "\n,dataset,a,b\n0,d1,0.5,0.4\n", INDEX_COLUMN),
            (parse_wide_csv, '\n"","dataset","a","b"\n"1","d1",0.5,0.4\n', INDEX_COLUMN),
            (parse_long_csv, "\n ,dataset,a,b\n0,d1,0.5,0.4\n", INDEX_COLUMN),
        ],
        ids=["long", "long_quoted", "wide", "wide_empty_label", "wide_duplicate", "long_blank_only",
             "wide_blank_only", "long_pandas_index", "long_r_index", "wide_pandas_index", "wide_r_index",
             "wide_index_to_long_parser"],
    )
    def test_header_error_names_the_header_line(self, parse, text, message):
        # the header's last physical line, as for any other row
        assert _outcome(parse, text) == (ValidationError, message)


class TestSlicedReader:
    """The CSV reader is fed line-aligned slices; no cut may change a row,
    a message or a line number."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                long_csv("d1,m,f0,0.5", "d1,m,f1,0.25").replace("\n", "\r\n"),
                [("d1", [("m", [0.5, 0.25])])],
            ),
            (
                long_csv('"d\r\n1",m,f0,0.5', '"d\n1",m,"f\n1",0.25', "d1,m,f0,x"),
                (ValidationError, "line 7: non-numeric value 'x'"),
            ),
            (
                "dataset,model,fold,value\rd1,m,f0,0.5\rd1,m,f0,0.75\r",
                (ValidationError, "line 3: duplicate record for ('d1', 'm', 'f0')"),
            ),
        ],
        ids=["crlf", "quoted_line_breaks", "cr_only"],
    )
    def test_long_csv_at_every_cut(self, text, expected):
        # slice sizes 1 .. len(text) + 1 put a cut right after every "\n",
        # inside quoted fields and after "\r\n" pairs included
        assert _outcome(oracle_parse_long_csv, text) == expected
        for slice_chars in range(1, len(text) + 2):
            assert _outcome(parse_long_csv, text, slice_chars) == expected

    def test_oversized_field_with_carriage_return_line_ends(self):
        text = "dataset,model,fold,value\rd1,m,f0,0.5\rd1,m,f1," + "9" * 131073 + "\r"
        expected = (ValidationError, "line 3: field larger than field limit (131072)")
        assert _outcome(oracle_parse_long_csv, text) == expected
        for slice_chars in (None, *TINY_SLICES):
            assert _outcome(parse_long_csv, text, slice_chars) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                'dataset,b,a,c\r\nd2,0.3,0.2,0.1\r\n"d\n1",0.6,0.5,0.4\r\n',
                (("d\n1", "d2"), ("b", "a", "c"), [[0.6, 0.5, 0.4], [0.3, 0.2, 0.1]]),
            ),
            (
                'dataset,a,b\n"d\n1",1,2\nd2,3,NA\n',
                (ValidationError, "line 4, column 'b': non-numeric value 'NA'"),
            ),
            ("dataset,a,b\rd1,1,2\rd1,3,4\r", (ValidationError, "line 3: duplicate dataset id 'd1'")),
            (
                "dataset,a\nd1,1\nd2," + "9" * 131073 + "\n",
                (ValidationError, "line 3: field larger than field limit (131072)"),
            ),
        ],
        ids=["matrix", "non_numeric", "cr_only", "oversized"],
    )
    def test_wide_csv_with_tiny_slices(self, text, expected):
        for slice_chars in (None, *TINY_SLICES):
            assert _outcome(parse_wide_csv, text, slice_chars) == expected


class TestLongCsvMemory:
    @staticmethod
    def long_text(fold_major=False):
        # 20k rows: 100 datasets x 20 models x 10 folds, shaped like the benchmark's file
        triples = ((d, m, f) for d in range(100) for m in range(20) for f in range(10))
        if fold_major:
            triples = ((d, m, f) for f in range(10) for d in range(100) for m in range(20))
        return long_csv(*(f"ds_{d:03d},model_{m:02d},fold_{f},{0.7 + 1e-6 * (d * 200 + m * 10 + f)!r}"
                          for d, m, f in triples))

    @staticmethod
    def table_bytes_per_cell(text):
        gc.collect()
        tracemalloc.start()
        try:
            cells = parse_long_csv(text)
            table = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n = sum(map(len, cells.values()))
        assert n == 2000
        return table / n

    def test_transient_memory_below_document_size(self):
        # a single io.StringIO over the document holds 4 bytes per character
        text = self.long_text()
        gc.collect()
        tracemalloc.start()
        try:
            cells = parse_long_csv(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, cells.values())) == 2000
        assert peak - retained < len(text)

    def test_table_holds_at_most_194_bytes_per_cell(self):
        # a dict and 10 float objects per cell took about 600; 10 scores in an array's
        # 16 slots, before each cell was trimmed to its size, took 353; a key tuple and
        # a fold-mapping object per cell beside each trimmed array, 296; a list of each
        # cell's dataset beside the per-dataset dicts, 197.5
        assert self.table_bytes_per_cell(self.long_text()) <= 194

    def test_fold_major_table_holds_at_most_250_bytes_per_cell(self):
        # a key tuple and a fold-mapping object per cell beside each array took 352;
        # a list of each cell's dataset beside the per-dataset dicts, 253.4
        assert self.table_bytes_per_cell(self.long_text(fold_major=True)) <= 250

    def test_aggregation_peak_stays_near_the_matrix(self):
        # beside the table only the matrix grows: a dict of every cell's mean and a
        # list-of-lists copy of the matrix took 2.4 times the matrix
        cells = parse_long_csv(self.long_text())
        manifest = manifest_of(*(f"model_{m:02d}" for m in range(20)))
        gc.collect()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            matrix = aggregate_folds(cells, manifest)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.n_datasets == 100
        assert peak - entry <= 1.5 * (held - entry), (peak - entry, held - entry)

    def test_carriage_return_line_ends_are_sliced(self):
        # a slice costs its str and a StringIO of it: 1 + 4 bytes per ASCII character
        text = self.long_text().replace("\n", "\r")
        gc.collect()
        tracemalloc.start()
        try:
            cells = parse_long_csv(text)
            table, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells == parse_long_csv(self.long_text())
        assert peak - table < 2 * 5 * ingest._SLICE_CHARS, (peak, table)

    def test_each_dataset_and_model_id_is_one_shared_string(self):
        keys = [(d, m) for d, models in parse_long_csv(self.long_text()).items() for m in models]
        assert len(keys) == 2000
        assert len({id(d) for d, _ in keys}) == len({d for d, _ in keys}) == 100
        assert len({id(m) for _, m in keys}) == len({m for _, m in keys}) == 20


class TestParseWideCsv:
    def test_small_matrix(self):
        m = parse_wide_csv("dataset,a,b,c\nd2,0.3,0.2,0.1\nd1,0.6,0.5,0.4\n")
        assert m.labels == ("a", "b", "c")
        assert m.datasets == ("d1", "d2")
        assert next(m.rows()).tolist() == [0.6, 0.5, 0.4]
        assert m.direction is Direction.MAXIMIZE

    def test_direction_parameter(self):
        m = parse_wide_csv("dataset,a,b,c\nd1,1,2,3\n", direction="minimize")
        assert m.direction is Direction.MINIMIZE

    @pytest.mark.parametrize("raw", NON_ASCII_NUMBERS)
    def test_rejected_number_forms(self, raw):
        with pytest.raises(ValidationError, match="line 2, column 'b'") as exc:
            parse_wide_csv(f"dataset,a,b\nd1,1,{raw}\n")
        assert exc.value.exit_code == 2

    def test_non_numeric_cell_names_line_and_column(self):
        with pytest.raises(ValidationError, match="line 3, column 'b'"):
            parse_wide_csv("dataset,a,b\nd1,1,2\nd2,3,NA\n")

    def test_ragged_row(self):
        with pytest.raises(ValidationError, match="line 2: expected 3 fields"):
            parse_wide_csv("dataset,a,b\nd1,1\n")

    def test_duplicate_dataset(self):
        with pytest.raises(ValidationError, match="duplicate dataset id 'd1'"):
            parse_wide_csv("dataset,a,b\nd1,1,2\nd1,3,4\n")

    def test_duplicate_column(self):
        with pytest.raises(ValidationError, match="duplicate model column"):
            parse_wide_csv("dataset,a,a\nd1,1,2\n")

    def test_bad_header(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_wide_csv("name,a,b\nd1,1,2\n")

    def test_no_data_rows(self):
        with pytest.raises(ValidationError, match="no data rows"):
            parse_wide_csv("dataset,a,b\n")


class TestRoundTrips:
    def test_wide(self):
        m = parse_wide_csv("dataset,a,b,c\nd1,0.9,0.1234567890123,3e-9\n")
        rows = [",".join(["dataset", *m.labels])]
        rows += [",".join([d, *map(repr, row)]) for d, row in zip(m.datasets, m.rows())]
        again = parse_wide_csv("\n".join(rows) + "\n")
        assert again.labels == m.labels
        assert np.array_equal(again.values, m.values)


class TestParseManifest:
    GOOD = {
        "metric_name": "auc",
        "direction": "maximize",
        "models": [
            {"label": "a", "tags": {"kind": "x"}},
            {"label": "b"},
        ],
    }

    def test_defaults(self):
        man = parse_manifest(json.dumps(self.GOOD))
        assert man.alpha == 0.05
        assert man.labels == ("a", "b")
        assert man.models[0].tags == {"kind": "x"}
        assert man.models[1].tags == {}
        assert man.direction is Direction.MAXIMIZE

    @pytest.mark.parametrize("key", ["metric_name", "direction", "models"])
    def test_missing_required_key(self, key):
        doc = {k: v for k, v in self.GOOD.items() if k != key}
        with pytest.raises(ValidationError, match=f"missing required key {key!r}"):
            parse_manifest(json.dumps(doc))

    def test_invalid_json(self):
        # too many digits for int(), or nesting too deep for the decoder
        for text in ("{", '{"alpha": 1' + "0" * 5000 + "}", "[" * 100_000):
            with pytest.raises(ValidationError, match="not valid JSON"):
                parse_manifest(text)

    def test_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse_manifest("[1, 2]")

    def test_models_must_be_objects_with_labels(self):
        doc = dict(self.GOOD, models=["a"])
        with pytest.raises(ValidationError, match="model #0"):
            parse_manifest(json.dumps(doc))

    def test_tags_must_be_string_maps(self):
        doc = dict(self.GOOD, models=[{"label": "a", "tags": {"k": 3}}])
        with pytest.raises(ValidationError, match="tags"):
            parse_manifest(json.dumps(doc))

    def test_label_outside_xml_char(self):
        doc = dict(self.GOOD, models=[{"label": "a\x01b"}, {"label": "b"}])
        with pytest.raises(ValidationError, match="XML 1.0"):
            parse_manifest(json.dumps(doc))

    def test_duplicate_labels(self):
        doc = dict(self.GOOD, models=[{"label": "a"}, {"label": "a"}])
        with pytest.raises(ValidationError, match="duplicate model label"):
            parse_manifest(json.dumps(doc))

    def test_one_repeat_among_many_labels_is_named_quickly(self):
        # the repeated labels are counted once, not once per label
        models = [ModelId(f"m{i:05d}") for i in range(20_000)] + [ModelId("m00042")]
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            ExperimentManifest("auc", "maximize", models)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "duplicate model label(s) in manifest: m00042"

    def test_alpha_read_and_validated(self):
        doc = dict(self.GOOD, alpha=0.1)
        assert parse_manifest(json.dumps(doc)).alpha == 0.1
        for alpha in (1.5, 10**400):
            doc = dict(self.GOOD, alpha=alpha)
            with pytest.raises(ValidationError, match="alpha"):
                parse_manifest(json.dumps(doc))

    def test_bad_direction(self):
        doc = dict(self.GOOD, direction="upward")
        with pytest.raises(ValidationError, match="direction"):
            parse_manifest(json.dumps(doc))

    def test_fixture_manifest(self):
        man = parse_manifest((FIXTURES / "manifest_31x8.json").read_text())
        assert len(man.models) == 8
        assert man.alpha == 0.05
        assert all("feature_set" in m.tags for m in man.models)


class TestAggregateFolds:
    def test_means_per_cell(self):
        cells = {"d1": {"a": [0.8, 0.9], "b": [0.5], "c": [0.4]}}
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert m.values[0] == pytest.approx(0.85)
        assert m.values[1] == 0.5
        assert m.datasets == ("d1",)

    def test_mean_stays_within_fold_range(self):
        rng = np.random.default_rng(31)
        scores = rng.uniform(0.0, 1.0, size=10)
        cells = {"d1": {"a": scores.tolist(), "b": [0.5], "c": [0.5]}}
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert scores.min() <= m.values[0] <= scores.max()

    def test_record_order_is_irrelevant(self):
        rows = [
            f"d{i},{l},{f},{0.1 * i + 0.01 * f + len(l) * 0.001!r}"
            for i in range(3)
            for l in ("a", "bb", "ccc")
            for f in range(4)
        ]
        man = manifest_of("a", "bb", "ccc")
        forward = aggregate_folds(parse_long_csv(long_csv(*rows)), man)
        backward = aggregate_folds(parse_long_csv(long_csv(*reversed(rows))), man)
        assert np.array_equal(forward.values, backward.values)
        assert forward.datasets == backward.datasets

    def test_manifest_fixes_column_order(self):
        cells = {"d1": {l: [v] for l, v in [("b", 0.2), ("c", 0.3), ("a", 0.1)]}}
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert m.labels == ("a", "b", "c")
        assert next(m.rows()).tolist() == [0.1, 0.2, 0.3]

    def test_unknown_label(self):
        # the error names the first unknown model in dataset first-seen order, then model first-seen
        # order: here d1's, though a d2 row comes first
        cells = parse_long_csv(long_csv("d1,a,0,0.5", "d2,mystery,0,0.5", "d1,other,0,0.5"))
        with pytest.raises(
            ValidationError,
            match="^record for dataset 'd1' names model 'other', which is not in the manifest$",
        ):
            aggregate_folds(cells, manifest_of("a"))

    def test_missing_pair_payload(self):
        cells = {"d1": {"a": [0.1], "b": [0.2], "c": [0.3]}, "d2": {"a": [0.4], "b": [0.5]}}
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert err.value.missing_pairs == (("d2", "c"),)
        assert "d2" in str(err.value) and "c" in str(err.value)
        assert err.value.exit_code == 2
        # a cell without folds is missing too
        cells["d2"]["c"] = []
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert err.value.missing_pairs == (("d2", "c"),)

    def test_drop_incomplete(self):
        cells = {"d1": {"a": [0.1], "b": [0.2], "c": [0.3]}, "d2": {"a": [0.4]}}
        with pytest.warns(DroppedDatasetsWarning, match="dropped 1 incomplete dataset\\(s\\): d2"):
            m = aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)
        assert m.datasets == ("d1",)
        assert next(m.rows()).tolist() == [0.1, 0.2, 0.3]

    def test_drop_half_of_many_datasets_quickly(self):
        # 16,000 datasets, every odd one missing model "c"; the dropped set is built once
        names = [f"d{i:05d}" for i in range(16_000)]
        cells = {d: {"a": [0.1], "b": [0.1]} for d in names}
        for d in names[::2]:
            cells[d]["c"] = [0.2]
        start = time.perf_counter()
        with pytest.warns(DroppedDatasetsWarning) as caught:
            m = aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)
        assert time.perf_counter() - start < 1.0
        assert m.datasets == tuple(names[::2])
        assert str(caught[0].message) == (
            f"dropped 8000 incomplete dataset(s): {', '.join(names[1::2])}"
        )

    def test_drop_everything_fails(self):
        cells = {"d1": {"a": [0.1]}}
        with pytest.raises(ValidationError, match="nothing remains"):
            aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)

    @pytest.mark.parametrize(
        "folds",
        [[1e308, 1e308], [math.inf, -math.inf], ["0.5"], [None]],
        ids=["sum_overflows", "inf_minus_inf", "text_score", "none_score"],
    )
    def test_fold_scores_without_a_finite_mean(self, folds):
        cells = {d: {l: [0.5] for l in "abc"} for d in ("d1", "d2")}
        cells["d2"]["b"] = folds
        message = "^dataset 'd2', model 'b': fold scores have no finite mean$"
        with pytest.raises(ValidationError, match=message):
            aggregate_folds(cells, manifest_of("a", "b", "c"))

    @pytest.mark.parametrize("folds", [{0: 0.9, 1: 0.8}, {"0": 0.9}], ids=["int_fold_ids", "str_fold_ids"])
    def test_a_mapping_cell_is_refused(self, folds):
        # a caller who kept {fold: value} cells: fsum over {0: 0.9, 1: 0.8} would average the fold ids to 0.5
        cells = {d: {l: [0.5] for l in "abc"} for d in ("d1", "d2")}
        cells["d2"]["b"] = folds
        message = "^dataset 'd2', model 'b': fold scores must be a sequence, not a mapping$"
        with pytest.raises(ValidationError, match=message):
            aggregate_folds(cells, manifest_of("a", "b", "c"))

    @pytest.mark.parametrize(
        "folds", [[0.5, 0.25], (0.5, 0.25), array("d", [0.5, 0.25])], ids=["list", "tuple", "array"]
    )
    def test_any_sequence_of_scores_is_a_cell(self, folds):
        cells = {d: {l: [0.375] for l in "abc"} for d in ("d1", "d2")}
        cells["d2"]["b"] = folds
        assert aggregate_folds(cells, manifest_of("a", "b", "c")).values.tolist() == [0.375] * 6
        # an empty one is a missing pair
        cells["d2"]["b"] = folds[:0]
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert err.value.missing_pairs == (("d2", "b"),)

    def test_a_dropped_dataset_is_not_averaged(self):
        # only cells that enter the matrix are averaged, so a dropped dataset's cell may have no mean
        cells = {d: {l: [0.5 + 0.1 * i] for i, l in enumerate("abc")} for d in ("d1", "d3")}
        kept = aggregate_folds(cells, manifest_of("a", "b", "c"))
        cells["d2"] = {"a": [1e308, 1e308]}
        with pytest.warns(DroppedDatasetsWarning, match="dropped 1 incomplete dataset\\(s\\): d2$"):
            m = aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)
        assert m == kept

    @pytest.mark.parametrize(
        "bad, named",
        [([("d2", "a"), ("d1", "c")], ("d1", "c")), ([("d1", "c"), ("d1", "b")], ("d1", "b"))],
        ids=["datasets_sorted", "models_in_manifest_order"],
    )
    def test_first_bad_cell_in_matrix_order_is_named(self, bad, named):
        # cells in file order: the bad ones first, so the order the error follows is the matrix's
        cells = {}
        for d, l in bad:
            cells.setdefault(d, {})[l] = [1e308, 1e308]
        for d in ("d2", "d1"):
            for l in "abc":
                cells.setdefault(d, {}).setdefault(l, [0.5])
        message = f"^dataset '{named[0]}', model '{named[1]}': fold scores have no finite mean$"
        with pytest.raises(ValidationError, match=message):
            aggregate_folds(cells, manifest_of("a", "b", "c"))

    def test_empty_records(self):
        with pytest.raises(ValidationError, match="no fold records"):
            aggregate_folds({}, manifest_of("a"))

    def test_fixture_loads_cleanly(self):
        m = parse_wide_csv((FIXTURES / "results_31x8.csv").read_text())
        man = parse_manifest((FIXTURES / "manifest_31x8.json").read_text())
        out = apply_manifest(m, man)
        assert out.n_datasets == 31 and out.k == 8

    def test_fixture_recast_long_with_one_pair_removed(self):
        m = parse_wide_csv((FIXTURES / "results_31x8.csv").read_text())
        man = parse_manifest((FIXTURES / "manifest_31x8.json").read_text())
        cells = {d: {l: [m.values[i * m.k + j]] for j, l in enumerate(m.labels)} for i, d in enumerate(m.datasets)}
        victim = m.datasets[0], m.labels[0]
        del cells[victim[0]][victim[1]]
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, man)
        assert err.value.missing_pairs == (victim,)


class TestApplyManifest:
    def test_reorders_and_tags(self):
        m = parse_wide_csv("dataset,b,c,a\nd1,0.2,0.3,0.1\n")
        man = manifest_of("a", "b", "c", tags={"a": {"kind": "x"}})
        out = apply_manifest(m, man)
        assert out.labels == ("a", "b", "c")
        assert next(out.rows()).tolist() == [0.1, 0.2, 0.3]
        assert out.models[0].tags == {"kind": "x"}

    def test_direction_taken_from_manifest(self):
        m = parse_wide_csv("dataset,a,b,c\nd1,1,2,3\n")
        out = apply_manifest(m, manifest_of("a", "b", "c", direction="minimize"))
        assert out.direction is Direction.MINIMIZE

    def test_label_mismatch_reports_both_sides(self):
        m = parse_wide_csv("dataset,a,b,zzz\nd1,1,2,3\n")
        with pytest.raises(ValidationError) as err:
            apply_manifest(m, manifest_of("a", "b", "c"))
        msg = str(err.value)
        assert "not in manifest: zzz" in msg
        assert "missing from data: c" in msg


def nemenyi_result_for(ranks, cd):
    return NemenyiResult(
        cd=cd,
        significant=pairwise_significance(ranks, cd),
        groups=indistinguishable_groups(ranks, cd),
    )


class TestSummarizeByTag:
    def test_two_tag_values_fully_separated(self):
        man = manifest_of(
            "c1",
            "c2",
            "f1",
            "f2",
            tags={
                "c1": {"fs": "click"},
                "c2": {"fs": "click"},
                "f1": {"fs": "forum"},
                "f2": {"fs": "forum"},
            },
        )
        ranks = (1.0, 1.5, 3.5, 4.0)
        res = nemenyi_result_for(ranks, cd=1.0)
        out = summarize_by_tag(ranks, res, man, "fs")
        assert [s.tag_value for s in out] == ["click", "forum"]
        click, forum = out
        assert click.members == ("c1", "c2")
        assert click.mean_rank == pytest.approx(1.25)
        assert click.best_rank == 1.0
        assert click.fully_separated and click.separated_from == ("forum",)
        assert forum.fully_separated and forum.separated_from == ("click",)

    def test_not_separated_when_any_cross_pair_overlaps(self):
        man = manifest_of(
            "a", "b", tags={"a": {"fs": "x"}, "b": {"fs": "y"}}
        )
        ranks = (1.2, 1.8)
        out = summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=1.0), man, "fs")
        assert not any(s.fully_separated for s in out)
        assert all(s.separated_from == () for s in out)

    def test_single_tag_value_is_trivially_separated(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}, "b": {"fs": "x"}})
        ranks = (1.0, 2.0)
        out = summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")
        assert len(out) == 1
        assert out[0].fully_separated
        assert out[0].separated_from == ()

    def test_missing_tag_names_model(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}})
        ranks = (1.0, 2.0)
        with pytest.raises(ValidationError, match="model 'b' is missing tag 'fs'"):
            summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")

    def test_length_mismatch(self):
        man = manifest_of("a", "b", "c", tags={l: {"fs": "x"} for l in "abc"})
        ranks = (1.0, 2.0)
        with pytest.raises(ValidationError, match="2 ranks for 3"):
            summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")

    def test_to_dict_shape(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}, "b": {"fs": "x"}})
        ranks = (1.0, 2.0)
        (summary,) = summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")
        d = summary.to_dict()
        assert list(d) == [
            "tag_value",
            "members",
            "mean_rank",
            "best_rank",
            "fully_separated",
            "separated_from",
        ]
        assert d["members"] == ["a", "b"]
