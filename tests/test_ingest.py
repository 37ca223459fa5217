"""CSV parsing, fold aggregation, manifest handling, tag summaries."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from long_csv_oracle import parse_long_csv as oracle_parse_long_csv

from cdranks import (
    AverageRanks,
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
        assert cells == {("courseA", "adaboost_click"): {"3": 0.912}}

    def test_header_only_gives_empty_table(self):
        assert parse_long_csv("dataset,model,fold,value\n") == {}

    def test_blank_lines_and_crlf_tolerated(self):
        text = "dataset,model,fold,value\r\n\r\nd1,m1,0,0.5\r\n\r\n"
        assert parse_long_csv(text) == {("d1", "m1"): {"0": 0.5}}

    def test_whitespace_stripped(self):
        cells = parse_long_csv(long_csv(" d1 , m1 , 0 , 0.5 "))
        assert cells == {("d1", "m1"): {"0": 0.5}}

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
        assert cells == {("d1", "m1"): {"0": 0.5, "1": 0.6}, ("d2", "m1"): {"0": 0.7}}
        assert list(cells) == [("d1", "m1"), ("d2", "m1")]

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", 1.0), ("1.", 1.0), (".5", 0.5), ("1e-3", 0.001), ("+0.5", 0.5), ("-2E+4", -20000.0)],
    )
    def test_accepted_number_forms(self, raw, expected):
        cells = parse_long_csv(long_csv(f"d1,m1,0,{raw}"))
        assert cells[("d1", "m1")]["0"] == expected

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
        assert list(parse_long_csv(text.replace(",x", ",1"))) == [("d\r\n1", "m1"), ("d1", "m1")]
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
        assert len(cells) == 8
        assert all(list(folds) == ["0", "1", "2", "3", "4"] for folds in cells.values())
        assert cells[("d1", "m3")]["4"] == 0.1 * 1 + 0.01 * 3 + 0.001 * 4


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


def _outcome(parse, text, slice_chars=None):
    """The fold table or matrix ``parse`` returns, as plain lists, or its error.

    With ``slice_chars`` the CSV reader is fed slices of at least that many
    characters instead of the default size.
    """
    with pytest.MonkeyPatch.context() as mp:
        if slice_chars is not None:
            mp.setattr("cdranks.ingest._SLICE_CHARS", slice_chars)
        try:
            result = parse(text)
        except ValidationError as exc:
            return type(exc), str(exc)
    if isinstance(result, dict):
        return [(key, list(folds.items())) for key, folds in result.items()]
    return result.datasets, result.labels, [list(row) for row in result.values]


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
            (["d1,m,0," + "9" * 131073], "line 2: field larger than field limit (131072)"),
        ],
        ids=["field_count", "empty_key", "non_ascii", "overflow", "duplicate", "oversized"],
    )
    def test_each_message_matches_original_loop(self, rows, message):
        text = long_csv(*rows)
        assert _outcome(parse_long_csv, text) == (ValidationError, message)
        assert _outcome(oracle_parse_long_csv, text) == (ValidationError, message)


class TestSlicedReader:
    """The CSV reader is fed line-aligned slices; no cut may change a row,
    a message or a line number."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                long_csv("d1,m,f0,0.5", "d1,m,f1,0.25").replace("\n", "\r\n"),
                [(("d1", "m"), [("f0", 0.5), ("f1", 0.25)])],
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
    def long_text():
        # 20k rows: 100 datasets x 20 models x 10 folds, shaped like the benchmark's file
        rows = (
            f"ds_{d:03d},model_{m:02d},fold_{f},{0.7 + 1e-6 * (d * 200 + m * 10 + f)!r}"
            for d in range(100)
            for m in range(20)
            for f in range(10)
        )
        return long_csv(*rows)

    def test_transient_memory_below_document_size(self):
        # a single io.StringIO over the document holds 4 bytes per character
        text = self.long_text()
        tracemalloc.start()
        try:
            cells = parse_long_csv(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 2000
        assert peak - retained < len(text)

    def test_each_fold_id_is_one_shared_string(self):
        cells = parse_long_csv(self.long_text())
        folds = [f for table in cells.values() for f in table]
        assert len(folds) == 20_000
        assert len({id(f) for f in folds}) == len(set(folds)) == 10


class TestParseWideCsv:
    def test_small_matrix(self):
        m = parse_wide_csv("dataset,a,b,c\nd2,0.3,0.2,0.1\nd1,0.6,0.5,0.4\n")
        assert m.labels == ("a", "b", "c")
        assert m.datasets == ("d1", "d2")
        assert list(m.values[0]) == [0.6, 0.5, 0.4]
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
        rows += [",".join([d, *map(repr, row)]) for d, row in zip(m.datasets, m.values)]
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
        cells = {
            ("d1", "a"): {"0": 0.8, "1": 0.9},
            ("d1", "b"): {"0": 0.5},
            ("d1", "c"): {"0": 0.4},
        }
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert m.values[0][0] == pytest.approx(0.85)
        assert m.values[0][1] == 0.5
        assert m.datasets == ("d1",)

    def test_mean_stays_within_fold_range(self):
        rng = np.random.default_rng(31)
        scores = rng.uniform(0.0, 1.0, size=10)
        cells = {("d1", "a"): {str(f): float(v) for f, v in enumerate(scores)}}
        cells.update({("d1", l): {"0": 0.5} for l in ("b", "c")})
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert scores.min() <= m.values[0][0] <= scores.max()

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
        cells = {("d1", l): {"0": v} for l, v in [("b", 0.2), ("c", 0.3), ("a", 0.1)]}
        m = aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert m.labels == ("a", "b", "c")
        assert list(m.values[0]) == [0.1, 0.2, 0.3]

    def test_unknown_label(self):
        # the error names the first row whose model the manifest lacks
        cells = parse_long_csv(long_csv("d1,a,0,0.5", "d2,mystery,0,0.5", "d1,other,0,0.5"))
        with pytest.raises(
            ValidationError,
            match="^record for dataset 'd2' names model 'mystery', which is not in the manifest$",
        ):
            aggregate_folds(cells, manifest_of("a"))

    def test_missing_pair_payload(self):
        cells = {
            ("d1", "a"): {"0": 0.1},
            ("d1", "b"): {"0": 0.2},
            ("d1", "c"): {"0": 0.3},
            ("d2", "a"): {"0": 0.4},
            ("d2", "b"): {"0": 0.5},
        }
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert err.value.missing_pairs == (("d2", "c"),)
        assert "d2" in str(err.value) and "c" in str(err.value)
        assert err.value.exit_code == 2
        # a cell without folds is missing too
        cells[("d2", "c")] = {}
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, manifest_of("a", "b", "c"))
        assert err.value.missing_pairs == (("d2", "c"),)

    def test_drop_incomplete(self):
        cells = {
            ("d1", "a"): {"0": 0.1},
            ("d1", "b"): {"0": 0.2},
            ("d1", "c"): {"0": 0.3},
            ("d2", "a"): {"0": 0.4},
        }
        with pytest.warns(DroppedDatasetsWarning, match="dropped 1 incomplete dataset\\(s\\): d2"):
            m = aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)
        assert m.datasets == ("d1",)
        assert list(m.values[0]) == [0.1, 0.2, 0.3]

    def test_drop_everything_fails(self):
        cells = {("d1", "a"): {"0": 0.1}}
        with pytest.raises(ValidationError, match="nothing remains"):
            aggregate_folds(cells, manifest_of("a", "b", "c"), drop_incomplete=True)

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
        cells = {
            (d, l): {"0": m.values[i][j]}
            for i, d in enumerate(m.datasets)
            for j, l in enumerate(m.labels)
        }
        victim = next(iter(cells))
        del cells[victim]
        with pytest.raises(IncompleteDesignError) as err:
            aggregate_folds(cells, man)
        assert err.value.missing_pairs == (victim,)


class TestApplyManifest:
    def test_reorders_and_tags(self):
        m = parse_wide_csv("dataset,b,c,a\nd1,0.2,0.3,0.1\n")
        man = manifest_of("a", "b", "c", tags={"a": {"kind": "x"}})
        out = apply_manifest(m, man)
        assert out.labels == ("a", "b", "c")
        assert list(out.values[0]) == [0.1, 0.2, 0.3]
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


def nemenyi_result_for(ranks, cd, alpha=0.05):
    return NemenyiResult(
        cd=cd,
        alpha=alpha,
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
        ranks = AverageRanks(np.array([1.0, 1.5, 3.5, 4.0]))
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
        ranks = AverageRanks(np.array([1.2, 1.8]))
        out = summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=1.0), man, "fs")
        assert not any(s.fully_separated for s in out)
        assert all(s.separated_from == () for s in out)

    def test_single_tag_value_is_trivially_separated(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}, "b": {"fs": "x"}})
        ranks = AverageRanks(np.array([1.0, 2.0]))
        out = summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")
        assert len(out) == 1
        assert out[0].fully_separated
        assert out[0].separated_from == ()

    def test_missing_tag_names_model(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}})
        ranks = AverageRanks(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="model 'b' is missing tag 'fs'"):
            summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")

    def test_length_mismatch(self):
        man = manifest_of("a", "b", "c", tags={l: {"fs": "x"} for l in "abc"})
        ranks = AverageRanks(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="2 ranks for 3"):
            summarize_by_tag(ranks, nemenyi_result_for(ranks, cd=0.5), man, "fs")

    def test_to_dict_shape(self):
        man = manifest_of("a", "b", tags={"a": {"fs": "x"}, "b": {"fs": "x"}})
        ranks = AverageRanks(np.array([1.0, 2.0]))
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
