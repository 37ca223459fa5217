"""End-to-end command-line behavior, including exit codes."""

import argparse
import csv
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cdranks
from cdranks import cli, procedure
from cdranks import (
    DegenerateStatisticError,
    DroppedDatasetsWarning,
    ExperimentManifest,
    ModelId,
    PerformanceMatrix,
    SmallSampleWarning,
    average_ranks,
    build_report,
    friedman_test,
    layout,
    nemenyi_test,
    summarize_by_tag,
)
from cdranks.cli import REPORT_KEYS, _build_parser, _load_report, main
from cdranks.ingest import _detect_format

FIXTURES = Path(__file__).parent / "fixtures"
RESULTS = str(FIXTURES / "results_31x8.csv")
MANIFEST = str(FIXTURES / "manifest_31x8.json")
REPORT = str(FIXTURES / "report_31x8.json")


def _goldens(name: str) -> dict:
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def stdin_of(data: bytes):
    """A stand-in for ``sys.stdin`` as Python sets it up on POSIX.

    UTF-8 text over a byte buffer, no newline translation, and undecodable
    bytes smuggled through as lone surrogates, as in the C locale.
    """
    return io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"
    )


# 0xe9 is Latin-1 "e acute"; on its own it is no UTF-8 sequence.
NOT_UTF8 = {
    "input": Path(RESULTS).read_bytes().replace(b"\ncourse_01", b"\n\xe9course_01"),
    "manifest": Path(MANIFEST).read_bytes().replace(b'"accuracy"', b'"accur\xe9cy"'),
    "report": Path(REPORT).read_bytes().replace(b'"label": "', b'"label": "\xe9', 1),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_manifest(tmp_path, *labels, alpha=0.05):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "metric_name": "accuracy",
                "direction": "maximize",
                "alpha": alpha,
                "models": [{"label": l} for l in labels],
            }
        )
    )
    return str(path)


class TestAnalyze:
    def test_fixture_report(self, capsys):
        code, out, err = run(capsys, "analyze", RESULTS, "--manifest", MANIFEST)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["df"] == 7
        assert report["n_datasets"] == 31
        assert abs(report["cd"] - 1.886) <= 0.001
        assert report["reject_null"] and report["posthoc_licensed"]
        assert len(report["average_ranks"]) == 8

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", RESULTS, "--manifest", MANIFEST, "--out", str(out_path)
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["df"] == 7

    def test_constant_scores_accept_null(self, capsys, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text(
            "dataset,a,b,c\n" + "".join(f"d{i:02d},0.5,0.5,0.5\n" for i in range(16))
        )
        code, out, _ = run(
            capsys, "analyze", str(csv), "--manifest", write_manifest(tmp_path, "a", "b", "c")
        )
        assert code == 0
        report = json.loads(out)
        assert report["p_value"] == 1.0
        assert not report["posthoc_licensed"]
        assert report["significant_pairs"] == []

    def test_long_format_autodetected_and_folds_averaged(self, capsys, tmp_path, monkeypatch):
        rows = ["dataset,model,fold,value"]
        for d in ("d1", "d2"):
            for m, base in (("a", 0.9), ("b", 0.6), ("c", 0.3)):
                rows += [f"{d},{m},0,{base}", f"{d},{m},1,{base + 0.1}"]
        csv = tmp_path / "folds.csv"
        csv.write_text("\n".join(rows) + "\n")
        manifest = write_manifest(tmp_path, "a", "b", "c")
        with pytest.warns(UserWarning):
            code, out, _ = run(capsys, "analyze", str(csv), "--manifest", manifest)
        assert code == 0
        report = json.loads(out)
        assert report["n_datasets"] == 2
        assert [e["rank"] for e in report["average_ranks"]] == [1.0, 2.0, 3.0]

        # \r-only line endings; stdin hands them over untranslated
        monkeypatch.setattr("sys.stdin", stdin_of(("\r".join(rows) + "\r").encode()))
        with pytest.warns(UserWarning):
            code, cr_out, _ = run(capsys, "analyze", "-", "--manifest", manifest)
        assert code == 0
        assert cr_out == out

    def test_golden_report_bytes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        argv = ["analyze", RESULTS, "--manifest", MANIFEST, "--summarize-tag", "feature_set"]
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == Path(REPORT).read_bytes()

    def test_each_row_ranked_once(self, capsys, monkeypatch):
        # the omnibus and the post-hoc share one AverageRanks
        import cdranks.ranks

        rows = []
        rank_row = cdranks.ranks.doubled_ranks
        monkeypatch.setattr(
            cdranks.ranks, "doubled_ranks", lambda *args: rows.append(1) or rank_row(*args)
        )
        argv = ["analyze", RESULTS, "--manifest", MANIFEST, "--summarize-tag", "feature_set"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == Path(REPORT).read_text(encoding="utf-8")
        assert len(rows) == json.loads(out)["n_datasets"] == 31

    @pytest.mark.parametrize("name, argv", sorted(_goldens("LONG_GOLDENS").items()))
    def test_long_golden_bytes(self, capsys, tmp_path, name, argv):
        out = tmp_path / name
        with pytest.warns(DroppedDatasetsWarning), pytest.warns(SmallSampleWarning):
            code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (FIXTURES / name).read_bytes()

    def test_long_text_released_before_aggregation(self, capsys, tmp_path, monkeypatch):
        # 20k rows: 100 datasets x 20 models x 10 folds
        text = "dataset,model,fold,value\n" + "".join(
            f"ds_{d:03d},model_{m:02d},fold_{f},{0.7 + 1e-6 * (d * 200 + m * 10 + f)!r}\n"
            for d in range(100)
            for m in range(20)
            for f in range(10)
        )
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        manifest = write_manifest(tmp_path, *(f"model_{m:02d}" for m in range(20)))
        argv = ["analyze", str(path), "--manifest", manifest]
        expected = run(capsys, *argv)  # also loads every module the traced run needs
        # each trace starts with CPython's tuple free lists emptied, so earlier tests do not move its margin
        gc.collect()
        tracemalloc.start()
        try:
            cells = cdranks.ingest.parse_long_csv(text)
            table = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del cells
        entered = []
        aggregate = cdranks.ingest.aggregate_folds

        def recording(*args, **kwargs):
            entered.append(tracemalloc.get_traced_memory()[0])
            return aggregate(*args, **kwargs)

        monkeypatch.setattr(cdranks.ingest, "aggregate_folds", recording)
        gc.collect()
        tracemalloc.start()
        try:
            got = run(capsys, *argv)
        finally:
            tracemalloc.stop()
        assert got == expected and expected[0] == 0
        # the text is never held whole: beyond the table, at most one slice's worth
        assert entered[0] < table + cdranks.ingest._SLICE_CHARS, (entered[0], table)

    def test_format_detection_honours_every_line_boundary(self):
        # the header row ends where the CSV parsers end it: at "\n" or "\r" only
        header = "dataset,model,fold,value"
        for c in map(chr, range(0x3000)):
            expected = "long" if c in "\n\r" else "wide"
            assert _detect_format(header + c + "x,y")[0] == expected, hex(ord(c))
        # also read in chunks of any size and sliced at that size, as analyze reads a
        # file: a "\r" at the end of a chunk is no cut, since a "\n" may follow
        for end in ("\r", "\n", "\r\n"):
            text = end.join([header, "d1,m,0,0.5", "d1,m,1,0.5", "d1,m,0,0.5", ""])
            for size in range(1, len(text) + 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr("cdranks.ingest._SLICE_CHARS", size)
                    layout, rest = _detect_format(text[i : i + size] for i in range(0, len(text), size))
                    assert layout == "long", (end, size)
                    with pytest.raises(cdranks.ValidationError, match=r"^line 4: duplicate record"):
                        cdranks.parse_long_csv(rest)

    @pytest.mark.parametrize("quoting", ["header", "all"])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_quoted_long_header_is_detected(self, capsys, tmp_path, monkeypatch, quoting, via):
        # R's write.csv quotes the header; pandas with QUOTE_ALL quotes every field
        plain = (FIXTURES / "results_long.csv").read_text(encoding="utf-8")
        header, rest = plain.split("\n", 1)
        if quoting == "all":
            lines = io.StringIO()
            csv.writer(lines, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                csv.reader(io.StringIO(rest)))
            rest = lines.getvalue()
        text = ",".join(f'"{h}"' for h in header.split(",")) + "\n" + rest
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(text, encoding="utf-8")
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
        argv = ["--manifest", str(FIXTURES / "manifest_long.json"), "--drop-incomplete"]
        with pytest.warns(DroppedDatasetsWarning), pytest.warns(SmallSampleWarning):
            expected = run(capsys, "analyze", str(FIXTURES / "results_long.csv"), *argv)
        with pytest.warns(DroppedDatasetsWarning), pytest.warns(SmallSampleWarning):
            got = run(capsys, "analyze", "-" if via == "stdin" else str(quoted), *argv)
        assert expected[0] == 0
        assert got == expected

    def test_layout_comes_from_the_header_alone(self, capsys, tmp_path):
        # no flag picks the layout: a wide file whose models are named model,
        # fold and value reads as long, until a column and its label are renamed
        with pytest.raises(SystemExit) as exc:
            main(["analyze", RESULTS, "--manifest", MANIFEST, "--format", "long"])
        assert exc.value.code == 2 and "unrecognized arguments: --format" in capsys.readouterr().err
        rows = [f"d{i:02d},0.{i},0.5,0.3" for i in range(16)]
        for models in (("model", "fold", "value"), ("model_a", "fold", "value")):
            path = tmp_path / "wide.csv"
            path.write_text("\n".join(["dataset," + ",".join(models), *rows]) + "\n")
            argv = ["analyze", str(path), "--manifest", write_manifest(tmp_path, *models)]
            if models[0] == "model":
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, "")
                assert err == "error: record for dataset 'd00' names model '0.0', which is not in the manifest\n"
            else:
                assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("lead", ["\n", "\r\n", "  \n", ",,,\n"], ids=["lf", "crlf", "spaces", "commas"])
    @pytest.mark.parametrize("layout", ["long", "wide"])
    def test_blank_rows_before_the_header_are_skipped(self, capsys, tmp_path, lead, layout):
        text = long_results() if layout == "long" else Path(RESULTS).read_text(encoding="utf-8")
        plain, led = tmp_path / "plain.csv", tmp_path / "led.csv"
        plain.write_bytes(text.encode())
        led.write_bytes((lead + lead + text).encode())
        expected = run(capsys, "analyze", str(plain), "--manifest", MANIFEST)
        assert expected[0] == 0
        assert run(capsys, "analyze", str(led), "--manifest", MANIFEST) == expected

    @pytest.mark.parametrize(
        "text",
        [
            ",dataset,model,fold,value\n0,d1,a,0,0.5\n",
            '"","dataset","model","fold","value"\n"1","d1","a","0",0.5\n',
            ",dataset,a,b,c\n0,d1,0.5,0.4,0.3\n",
            '"","dataset","a","b","c"\n"1","d1",0.5,0.4,0.3\n',
        ],
        ids=["pandas_long", "r_long", "pandas_wide", "r_wide"],
    )
    def test_row_index_column_exits_2_with_its_own_message(self, capsys, tmp_path, text):
        # as pandas df.to_csv(path) and R write.csv(df, path) write a row index: a first column headed ''
        path = tmp_path / "indexed.csv"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path), "--manifest", write_manifest(tmp_path, *"abc"))
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1: the first column has no name: pandas to_csv and R write.csv write a row index there; "
            "write the file without it (index=False in pandas, row.names=FALSE in R)\n"
        )

    def test_first_cell_without_a_finite_mean_in_matrix_order_is_named(self, capsys, tmp_path):
        # d2's rows come first, and its cell a overflows; so does d1's cell c, which the matrix reaches first
        rows = [f"{d},{m},{f},{'1e308' if (d, m) in (('d2', 'a'), ('d1', 'c')) else 0.5}"
                for d in ("d2", "d1") for m in "abc" for f in range(2)]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["dataset,model,fold,value", *rows]) + "\n")
        code, out, err = run(capsys, "analyze", str(path), "--manifest", write_manifest(tmp_path, *"abc"))
        assert (code, out) == (2, "")
        assert err == "error: dataset 'd1', model 'c': fold scores have no finite mean\n"

    def test_dropped_dataset_without_a_finite_mean_is_not_averaged(self, tmp_path):
        # a real process, so the one warning line is what reaches stderr
        rows = [f"d{i:02d},{m},{f},{0.5 + 0.01 * i + 0.1 * (m == 'b') + 0.01 * f}"
                for i in range(16) for m in "abc" for f in range(2)]
        manifest = write_manifest(tmp_path, *"abc")
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        outcomes = []
        for extra in ([], ["d99,a,0,1e308", "d99,a,1,1e308", "d99,b,0,0.5"]):
            path = tmp_path / "results.csv"
            path.write_text("\n".join(["dataset,model,fold,value", *rows, *extra]) + "\n")
            proc = subprocess.run(
                [sys.executable, "-m", "cdranks.cli", "analyze", str(path), "--manifest", manifest,
                 "--drop-incomplete"],
                capture_output=True, text=True, env=env,
            )
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        assert outcomes[0][0] == 0 and outcomes[0][2] == ""
        assert outcomes[1] == (0, outcomes[0][1], "warning: dropped 1 incomplete dataset(s): d99\n")

    def test_fold_scores_whose_sum_overflows_exit_2(self, capsys, tmp_path):
        # each 1e308 is a number, but two of them pass the float range when averaged
        rows = [f"d{i},{m},{f},1e308" for i in range(3) for m in "abc" for f in range(2)]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["dataset,model,fold,value", *rows]) + "\n")
        code, out, err = run(capsys, "analyze", str(path), "--manifest", write_manifest(tmp_path, *"abc"))
        assert (code, out) == (2, "")
        assert err == "error: dataset 'd0', model 'a': fold scores have no finite mean\n"

    @pytest.mark.parametrize(
        "header, row, line",
        [
            ("dataset,model,fold,value", "d1,a,0,{}", 3),
            ("dataset,a", "d1,{}", 3),
            ("dataset,model,fold,value", 'd1,a,0,"\n{}"', 5),
            ("dataset," + "a" * 131073, "d1,{}", 1),
        ],
        ids=["long", "wide", "long_quoted", "header"],
    )
    def test_oversized_field_exits_2(self, capsys, tmp_path, header, row, line):
        # the csv module rejects fields over 131072 characters; a quoted
        # field spanning lines fails on the line where it overflows, and a
        # header the format detection cannot read is left to the wide parser
        csv = tmp_path / "huge.csv"
        csv.write_text("\n".join([header, row.format("1"), row.format("9" * 131073)]) + "\n")
        code, out, err = run(
            capsys, "analyze", str(csv), "--manifest", write_manifest(tmp_path, "a")
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line}: field larger than field limit")

    @pytest.mark.parametrize("where", ["manifest", "wide_header"])
    def test_label_outside_xml_char_exits_2(self, capsys, tmp_path, where):
        # analyze rejects a label that diagram could not render
        bad = "a\x01b"
        csv = tmp_path / "w.csv"
        csv.write_text(
            f"dataset,{bad},b,c\n" + "".join(f"d{i:02d},0.{i},0.5,0.3\n" for i in range(16))
        )
        labels = (bad if where == "manifest" else "a", "b", "c")
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "analyze", str(csv), "--manifest", write_manifest(tmp_path, *labels),
            "--out", str(out_path),
        )
        assert (code, out, out_path.exists()) == (2, "", False)
        assert "XML 1.0" in err

    # "auto": the layout is detected from the header, past the BOM
    @pytest.mark.parametrize("results", ["long", "wide"], ids=["long-auto", "wide-auto"])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_utf8_bom_is_dropped(self, capsys, tmp_path, monkeypatch, results, via):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        if results == "long":
            rows = ["dataset,model,fold,value"]
            rows += [f"{d},{m},0,{v}" for d in ("d1", "d2") for m, v in zip("abc", (0.9, 0.6, 0.3))]
        else:
            rows = ["dataset,a,b,c"] + [f"{d},0.9,0.6,0.3" for d in ("d1", "d2")]
        text = "\n".join(rows) + "\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        manifest = write_manifest(tmp_path, "a", "b", "c")
        bom_manifest = tmp_path / "bom_manifest.json"
        bom_manifest.write_text(Path(manifest).read_text(), encoding="utf-8-sig")
        argv = ["--manifest", str(bom_manifest)]
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(("\ufeff" + text).encode()))
            source = "-"
        else:
            source = str(bom)
        with pytest.warns(SmallSampleWarning):
            expected = run(capsys, "analyze", str(plain), "--manifest", manifest)
        with pytest.warns(SmallSampleWarning):
            assert run(capsys, "analyze", source, *argv) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("models", ["a", "abc"], ids=["incomplete", "complete"])
    def test_file_and_stdin_read_the_same_text(self, capsys, tmp_path, monkeypatch, models):
        # the quoted ids "d\r\n1" and "d\n1" are two datasets however the bytes arrive
        rows = [f'"d{sep}1",{m},0,0.{j + 3}' for sep in ("\r\n", "\n") for j, m in enumerate(models)]
        data = "\r\n".join(["dataset,model,fold,value", *rows, ""]).encode()
        path = tmp_path / "results.csv"
        path.write_bytes(data)
        manifest = write_manifest(tmp_path, "a", "b", "c")
        monkeypatch.setattr("sys.stdin", stdin_of(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            via_file = run(capsys, "analyze", str(path), "--manifest", manifest)
            via_stdin = run(capsys, "analyze", "-", "--manifest", manifest)
        assert via_file == via_stdin
        assert via_file[0] == (2 if models == "a" else 0)

    def test_missing_pair_exit_code_and_message(self, capsys, tmp_path):
        csv = tmp_path / "gappy.csv"
        csv.write_text(
            "dataset,model,fold,value\n"
            "d1,a,0,0.1\nd1,b,0,0.2\nd1,c,0,0.3\n"
            "d2,a,0,0.4\nd2,b,0,0.5\n"
        )
        code, _, err = run(
            capsys, "analyze", str(csv), "--manifest", write_manifest(tmp_path, "a", "b", "c")
        )
        assert code == 2
        assert "(d2, c)" in err

    def test_drop_incomplete_reduces_n(self, capsys, tmp_path):
        lines = ["dataset,model,fold,value"]
        for i in range(16):
            for m, v in (("a", 0.9), ("b", 0.6), ("c", 0.3)):
                lines.append(f"d{i:02d},{m},0,{v + i * 1e-4}")
        lines.append("d99,a,0,0.5")
        csv = tmp_path / "gappy.csv"
        csv.write_text("\n".join(lines) + "\n")
        manifest = write_manifest(tmp_path, "a", "b", "c")
        with pytest.warns(UserWarning, match="dropped 1"):
            code, out, _ = run(
                capsys, "analyze", str(csv), "--manifest", manifest, "--drop-incomplete"
            )
        assert code == 0
        assert json.loads(out)["n_datasets"] == 16

    def test_warnings_print_one_line_each(self):
        # a real process, so Python's own warning display is what reaches stderr
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "cdranks.cli", "analyze", str(FIXTURES / "results_long.csv"),
             "--manifest", str(FIXTURES / "manifest_long.json"), "--drop-incomplete"],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, json.loads(proc.stdout)["n_datasets"]) == (0, 7)
        assert proc.stderr == (
            "warning: dropped 1 incomplete dataset(s): mooc_e\n"
            "warning: only N=7 datasets: the chi-square approximation to the rank statistic is rough below N=15\n"
        )

    @pytest.mark.parametrize("drop", [True, False], ids=["dropped_datasets", "small_sample"])
    def test_warning_raised_as_error_is_one_error_line(self, tmp_path, drop):
        # under -W error the package's warning is an exception, which main reports as an error
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        if drop:
            args = [str(FIXTURES / "results_long.csv"), "--manifest", str(FIXTURES / "manifest_long.json"),
                    "--drop-incomplete"]
        else:
            csv = tmp_path / "w.csv"
            csv.write_text("dataset,a,b,c\n" + "".join(f"d{i},{i},0.5,0.25\n" for i in range(3)))
            args = [str(csv), "--manifest", write_manifest(tmp_path, *"abc")]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "cdranks.cli", "analyze", *args],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2 if drop else 3, "")
        assert proc.stderr == (
            "error: dropped 1 incomplete dataset(s): mooc_e\n" if drop else
            "error: only N=3 datasets: the chi-square approximation to the rank statistic is rough below N=15\n"
        )

    def test_main_restores_the_warning_format(self, capsys, tmp_path):
        before = warnings.formatwarning
        csv = tmp_path / "w.csv"
        csv.write_text("dataset,a,b,c\n" + "".join(f"d{i},{i},0.5,0.25\n" for i in range(3)))
        with pytest.warns(SmallSampleWarning):
            code, _, _ = run(capsys, "analyze", str(csv), "--manifest", write_manifest(tmp_path, *"abc"))
        assert code == 0 and warnings.formatwarning is before
        assert run(capsys, "diagram", str(tmp_path / "missing.json"))[0] == 2
        assert warnings.formatwarning is before

    def test_alpha_defaults_to_manifest_and_flag_overrides(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path, "a", "b", "c", alpha=0.1)
        csv = tmp_path / "w.csv"
        csv.write_text(
            "dataset,a,b,c\n"
            + "".join(f"d{i:02d},{0.9 + i * 1e-4},{0.6},{0.3}\n" for i in range(16))
        )
        code, out, _ = run(capsys, "analyze", str(csv), "--manifest", manifest)
        assert code == 0 and json.loads(out)["alpha"] == 0.1
        code, out, _ = run(
            capsys, "analyze", str(csv), "--manifest", manifest, "--alpha", "0.05"
        )
        assert code == 0 and json.loads(out)["alpha"] == 0.05

    def test_manifest_alpha_beyond_float_range_exits_2(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path, "a", "b", "c", alpha=10**400)
        code, out, err = run(capsys, "analyze", RESULTS, "--manifest", manifest)
        assert code == 2 and out == ""
        assert err.startswith("error: alpha must lie strictly in (0, 1)")

    def test_iman_davenport_variant(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            RESULTS,
            "--manifest",
            MANIFEST,
            "--variant",
            "iman-davenport",
        )
        assert code == 0
        report = json.loads(out)
        assert report["variant"] == "iman_davenport"
        assert report["df2"] == 7 * 30

    def test_degenerate_statistic_exits_3(self, capsys, tmp_path):
        csv = tmp_path / "consistent.csv"
        csv.write_text(
            "dataset,a,b,c\n" + "".join(f"d{i:02d},3,2,1\n" for i in range(16))
        )
        code, _, err = run(
            capsys,
            "analyze",
            str(csv),
            "--manifest",
            write_manifest(tmp_path, "a", "b", "c"),
            "--variant",
            "iman-davenport",
        )
        assert code == 3
        assert "error:" in err

    def test_summarize_tag(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            RESULTS,
            "--manifest",
            MANIFEST,
            "--summarize-tag",
            "feature_set",
        )
        assert code == 0
        summaries = json.loads(out)["tag_summaries"]
        assert summaries[0]["tag_value"] == "clickstream"
        assert summaries[0]["fully_separated"]

    def test_summarize_unknown_tag_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            RESULTS,
            "--manifest",
            MANIFEST,
            "--summarize-tag",
            "flavor",
        )
        assert code == 2
        assert "missing tag 'flavor'" in err

    @pytest.mark.parametrize("bad", ["input", "manifest"])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_non_utf8_exits_2(self, capsys, tmp_path, monkeypatch, bad, via):
        paths = {"input": RESULTS, "manifest": MANIFEST}
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(NOT_UTF8[bad]))
            paths[bad] = "-"
        else:
            paths[bad] = str(tmp_path / "bad")
            Path(paths[bad]).write_bytes(NOT_UTF8[bad])
        code, out, err = run(capsys, "analyze", paths["input"], "--manifest", paths["manifest"])
        at = NOT_UTF8[bad].index(b"\xe9")
        assert (code, out, err) == (2, "", f"error: {paths[bad]!r} is not valid UTF-8 (byte {at})\n")

    def test_non_utf8_stdin_of_a_real_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "cdranks.cli", "analyze", "-", "--manifest", MANIFEST],
            input=NOT_UTF8["input"], capture_output=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: '-' is not valid UTF-8 (byte ")

    def test_stdin_given_twice_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(Path(MANIFEST).read_bytes()))
        code, out, err = run(capsys, "analyze", "-", "--manifest", "-")
        message = "error: stdin ('-') can be given only once: as the input or as --manifest\n"
        assert (code, out, err) == (2, "", message)
        # nothing was read, so stdin is still whole
        assert sys.stdin.buffer.read() == Path(MANIFEST).read_bytes()

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", stdin_of(Path(RESULTS).read_bytes()))
        code, out, _ = run(capsys, "analyze", "-", "--manifest", MANIFEST)
        assert code == 0
        assert json.loads(out)["n_datasets"] == 31

    def test_nonexistent_input_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.csv", "--manifest", MANIFEST)
        assert code == 2
        assert "error:" in err


def long_results() -> str:
    """RESULTS in the long layout, one fold per cell; analyze reports it as it reports RESULTS."""
    rows = list(csv.reader(io.StringIO(Path(RESULTS).read_text(encoding="utf-8"))))
    models = rows[0][1:]
    cells = [f"{row[0]},{m},0,{v}\n" for row in rows[1:] for m, v in zip(models, row[1:])]
    return "".join(["dataset,model,fold,value\n", *cells])


class TestStreamedInput:
    """analyze decodes its results input as it reads it, cli._READ_BYTES bytes at a time, and
    parses it in line-aligned slices of at least ingest._SLICE_CHARS characters.  Small sizes
    put those boundaries inside a BOM, a character, a quoted header and a "\r\n" pair."""

    SIZES = (1, 2, 3, 5, 8, 13)

    @staticmethod
    def analyze(capsys, monkeypatch, tmp_path, data: bytes, via: str, size: "int | None"):
        """``analyze`` of ``data`` by path or on stdin, read and sliced ``size`` at a time (None: the defaults)."""
        if size is not None:
            monkeypatch.setattr("cdranks.cli._READ_BYTES", size)
            monkeypatch.setattr("cdranks.ingest._SLICE_CHARS", size)
        source = "-"
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(data))
        else:
            source = str(tmp_path / "results.csv")
            Path(source).write_bytes(data)
        return source, run(capsys, "analyze", source, "--manifest", MANIFEST)

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_bom_quoted_header_and_crlf_on_boundaries(self, capsys, monkeypatch, tmp_path, via):
        header, rest = long_results().split("\n", 1)
        text = "\ufeff" + ",".join(f'"{h}"' for h in header.split(",")) + "\n" + rest
        data = text.replace("\n", "\r\n").encode()
        expected = run(capsys, "analyze", RESULTS, "--manifest", MANIFEST)
        assert expected[0] == 0
        for size in (None, *self.SIZES):
            assert self.analyze(capsys, monkeypatch, tmp_path, data, via, size)[1] == expected, size

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_carriage_return_line_ends_on_boundaries(self, capsys, monkeypatch, tmp_path, via):
        # only "\r" line ends, so each slice is cut after a "\r" seen with its next character
        data = long_results().replace("\n", "\r").encode()
        expected = run(capsys, "analyze", RESULTS, "--manifest", MANIFEST)
        assert expected[0] == 0
        for size in (None, *self.SIZES):
            assert self.analyze(capsys, monkeypatch, tmp_path, data, via, size)[1] == expected, size

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_character_split_across_reads(self, capsys, monkeypatch, tmp_path, via):
        # size 1 splits the two bytes of "é" across two reads, as some other size does for any offset
        data = long_results().replace("course_05", "coursé_05").encode()
        _, expected = self.analyze(capsys, monkeypatch, tmp_path, data, via, None)
        assert expected[0] == 0
        for size in self.SIZES:
            assert self.analyze(capsys, monkeypatch, tmp_path, data, via, size)[1] == expected, size

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_bad_byte_past_the_first_slice(self, capsys, monkeypatch, tmp_path, via):
        # the offset counts every byte before it: the BOM, and both bytes of an earlier "é"
        text = "\ufeff" + long_results().replace("course_05", "coursé_05")
        data = text.encode().replace(b"\ncourse_20", b"\n\xe9course_20", 1)
        at = data.index(b"\xe9")
        for size in (None, *self.SIZES):
            source, got = self.analyze(capsys, monkeypatch, tmp_path, data, via, size)
            assert got == (2, "", f"error: {source!r} is not valid UTF-8 (byte {at})\n"), size

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_first_fault_in_file_order(self, capsys, monkeypatch, tmp_path, via):
        # a bad byte is found when the reading reaches it, after the rows read before it
        text = long_results()
        line = text[: text.index("\ncourse_03,")].count("\n") + 2
        text = text.replace("\ncourse_03,", "\ncourse_03,,", 1)
        data = text.encode().replace(b"\ncourse_20", b"\n\xe9course_20", 1)
        for size in self.SIZES:
            got = self.analyze(capsys, monkeypatch, tmp_path, data, via, size)[1]
            assert got == (2, "", f"error: line {line}: expected 4 fields, got 5\n"), size

    def test_parse_failure_closes_the_file(self, capsys, monkeypatch, tmp_path):
        # closed as the error leaves analyze, while its traceback still holds the parser
        opened, closed = [], []
        monkeypatch.setattr(cli, "open", lambda *args: opened.append(open(*args)) or opened[-1], raising=False)
        analyze = cli._cmd_analyze

        def checked(args):
            try:
                return analyze(args)
            except cdranks.ValidationError:
                closed.extend(f.closed for f in opened)
                raise

        monkeypatch.setattr(cli, "_cmd_analyze", checked)
        data = long_results().replace("\ncourse_20,", "\ncourse_20,,", 1).encode()
        code, _, err = self.analyze(capsys, monkeypatch, tmp_path, data, "file", 64)[1]
        assert (code, err.endswith("expected 4 fields, got 5\n")) == (2, True)
        assert len(opened) == 2 and closed == [True, True]


class TestDiagram:
    def test_fixture_renders_golden(self, capsys):
        code, out, err = run(capsys, "diagram", REPORT)
        assert code == 0 and err == ""
        assert out == (FIXTURES / "golden_cd.svg").read_text(encoding="utf-8")

    def test_width_flag(self, capsys):
        code, out, _ = run(capsys, "diagram", REPORT, "--width", "400")
        assert code == 0
        assert 'width="400"' in out

    def test_out_file(self, capsys, tmp_path):
        svg = tmp_path / "d.svg"
        code, out, _ = run(capsys, "diagram", REPORT, "--out", str(svg))
        assert code == 0 and out == ""
        assert svg.read_bytes() == (FIXTURES / "golden_cd.svg").read_bytes()

    @staticmethod
    def marginal_report(**overrides):
        report = {
            "statistic": 5.32,
            "df": 2,
            "p_value": 0.07,
            "alpha": 0.05,
            "reject_null": False,
            "variant": "friedman",
            "cd": 1.5,
            "average_ranks": [
                {"label": "a", "rank": 1.4},
                {"label": "b", "rank": 2.2},
                {"label": "c", "rank": 2.4},
            ],
            "significant_pairs": [],
            "groups": [["a", "b", "c"]],
            "posthoc_licensed": False,
            "n_datasets": 20,
        }
        report.update(overrides)
        return report

    def write_report(self, tmp_path, **overrides):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(self.marginal_report(**overrides)))
        return str(path)

    def test_unlicensed_report_gets_annotation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "diagram", self.write_report(tmp_path))
        assert code == 0
        assert "no significant differences at alpha = 0.05" in out

    def test_alpha_flag_relicenses(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "diagram", self.write_report(tmp_path), "--alpha", "0.1"
        )
        assert code == 0
        assert "no significant differences" not in out

    def test_alpha_flag_needs_n_datasets(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        report = self.marginal_report()
        del report["n_datasets"]
        path.write_text(json.dumps(report))
        # n_datasets is required whether or not --alpha reads it
        for flags in (("--alpha", "0.1"), ()):
            assert run(capsys, "diagram", str(path), *flags) == (
                2, "", "error: report is missing key 'n_datasets'\n"
            )

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        # too many digits for int(), or nesting too deep for the decoder
        for text in ("{nope", '{"cd": 1' + "0" * 5000 + "}", "[" * 100_000):
            path.write_text(text)
            code, _, err = run(capsys, "diagram", str(path))
            assert code == 2
            assert "not valid JSON" in err

    @pytest.mark.parametrize("key", [k for k, kinds in REPORT_KEYS.items() if None not in kinds])
    def test_missing_key_exits_2(self, capsys, tmp_path, key):
        report = self.marginal_report()
        del report[key]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert run(capsys, "diagram", str(path)) == (2, "", f"error: report is missing key {key!r}\n")

    def test_optional_keys_may_be_absent_or_present(self, capsys, tmp_path):
        golden = run(capsys, "diagram", self.write_report(tmp_path))
        assert golden[0] == 0
        extra = {"df2": 38, "tag_summaries": [], "variant": "iman_davenport"}
        assert run(capsys, "diagram", self.write_report(tmp_path, **extra)) == golden

    # one value of each JSON type: each key refuses every type the table does not list for it
    JSON_VALUES = (True, 2, 2.5, "friedman", [], {}, None)

    @pytest.mark.parametrize("key", list(REPORT_KEYS))
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, key):
        for value in self.JSON_VALUES:
            if type(value) in REPORT_KEYS[key]:
                continue
            path = self.write_report(tmp_path, **{key: value})
            expected = f"error: report key {key!r} has unexpected type {type(value).__name__}\n"
            assert run(capsys, "diagram", path) == (2, "", expected), value

    def test_table_types_are_json_types(self):
        # a number is an int or a float; a bool is no int here, nor an int a bool
        assert set(REPORT_KEYS.values()) <= {(int, float), (int,), (bool,), (str,), (list,),
                                             (int, None), (list, None)}
        assert [k for k, kinds in REPORT_KEYS.items() if None in kinds] == ["df2", "tag_summaries"]

    F_DF2 = "df2 must be (k - 1)(N - 1) = 210 for variant 'iman_davenport', got "

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"variant": "bogus"}, "variant must be 'friedman' or 'iman_davenport', got 'bogus'"),
            ({"df": 99}, "df must be k - 1 = 7, got 99"),
            ({"statistic": -5.0}, "statistic must be finite and nonnegative, got -5.0"),
            ({"statistic": float("nan")}, "statistic must be finite and nonnegative, got nan"),
            ({"statistic": float("inf")}, "statistic must be finite and nonnegative, got inf"),
            ({"groups": [["nope"]]}, "groups must list labels from average_ranks"),
            ({"groups": ["cart_full"]}, "groups must list labels from average_ranks"),
            ({"significant_pairs": [["x", "y"]]}, "significant_pairs must list labels from average_ranks"),
            ({"significant_pairs": [[1, 2]]}, "significant_pairs must list labels from average_ranks"),
            ({"significant_pairs": [[["cart_full"], "cart_forum"]]},
             "significant_pairs must list labels from average_ranks"),
            # df2 is the F form's (k - 1)(N - 1) = 7 * 30, and only the F form writes it
            ({"df2": 210}, "df2 must be absent for variant 'friedman', got 210"),
            ({"variant": "iman_davenport"}, F_DF2 + "absent"),
            ({"variant": "iman_davenport", "df2": 38}, F_DF2 + "38"),
            ({"variant": "iman_davenport", "df2": 0}, F_DF2 + "0"),
            ({"variant": "iman_davenport", "df2": -3}, F_DF2 + "-3"),
        ],
        ids=["variant", "df", "statistic_negative", "statistic_nan", "statistic_inf", "group_label",
             "group_not_a_list", "pair_labels", "pair_ints", "pair_list_entry", "df2_friedman",
             "df2_absent", "df2_38", "df2_0", "df2_negative"],
    )
    def test_contradictory_report_exits_2(self, capsys, tmp_path, overrides, message):
        # each value has the right JSON type but disagrees with the rest of the golden report
        path = tmp_path / "r.json"
        path.write_text(json.dumps(json.loads(Path(REPORT).read_text()) | overrides))
        assert run(capsys, "diagram", str(path)) == (2, "", f"error: report {message}\n")

    def test_reader_variants_are_the_variant_values(self):
        assert cli._VARIANTS == tuple(v.value for v in procedure.Variant)

    @pytest.mark.parametrize("p_value", [0.01, 0.07])
    @pytest.mark.parametrize("reject_null", [True, False])
    @pytest.mark.parametrize("posthoc_licensed", [True, False])
    def test_reject_null_and_posthoc_licensed_follow_p_value(
        self, capsys, tmp_path, p_value, reject_null, posthoc_licensed
    ):
        path = self.write_report(
            tmp_path, p_value=p_value, reject_null=reject_null, posthoc_licensed=posthoc_licensed
        )
        code, out, err = run(capsys, "diagram", path)
        if reject_null == posthoc_licensed == (p_value < 0.05):
            assert (code, err) == (0, "") and out.endswith("</svg>\n")
        else:
            assert (code, out, err) == (2, "", "error: report reject_null and posthoc_licensed must "
                                        f"both be p_value {p_value!r} < alpha 0.05\n")

    @pytest.mark.parametrize("variant", ["friedman", "iman-davenport"])
    def test_p_value_exactly_alpha_is_not_licensed(self, capsys, tmp_path, monkeypatch, variant):
        # p == alpha accepts the null: analyze writes it so, and diagram loads and annotates it
        monkeypatch.setattr(procedure, "chi_square_sf", lambda *args: 0.05)
        monkeypatch.setattr(procedure, "f_sf", lambda *args: 0.05)
        path = tmp_path / "report.json"
        argv = ("analyze", RESULTS, "--manifest", MANIFEST, "--variant", variant, "--out", str(path))
        assert run(capsys, *argv) == (0, "", "")
        report = json.loads(path.read_text())
        assert (report["p_value"], report["alpha"]) == (0.05, 0.05)
        assert (report["reject_null"], report["posthoc_licensed"]) == (False, False)
        code, out, err = run(capsys, "diagram", str(path))
        assert (code, err) == (0, "") and "no significant differences at alpha = 0.05" in out
        path.write_text(json.dumps(report | {"reject_null": True, "posthoc_licensed": True}))
        assert run(capsys, "diagram", str(path)) == (2, "", "error: report reject_null and posthoc_licensed "
                                                     "must both be p_value 0.05 < alpha 0.05\n")

    @pytest.mark.parametrize(
        "overrides,flags",
        [
            ({"alpha": 5}, ()),
            ({"alpha": -1}, ()),
            ({"p_value": 7.0}, ()),
            ({"average_ranks": [{"label": "a", "rank": True}, {"label": "b", "rank": 2.2},
                                {"label": "c", "rank": 2.4}]}, ()),
            ({"n_datasets": 0}, ("--alpha", "0.1")),
            ({"average_ranks": [{"label": "a", "rank": 50}, {"label": "b", "rank": 2.2},
                                {"label": "c", "rank": 2.4}]}, ()),
            ({"average_ranks": [{"label": "a", "rank": 0}, {"label": "b", "rank": 2.2},
                                {"label": "c", "rank": 2.4}]}, ()),
            ({"posthoc_licensed": True}, ()),
            ({"average_ranks": [{"label": "a", "rank": 2.5}, {"label": "b", "rank": 2.5},
                                {"label": "c", "rank": 2.5}]}, ()),
            ({"average_ranks": [{"label": "a", "rank": 10**400}, {"label": "b", "rank": 2.2},
                                {"label": "c", "rank": 2.4}]}, ()),
            ({"cd": 10**400}, ()),
            ({"n_datasets": 1}, ()),
            ({"n_datasets": 1}, ("--alpha", "0.1")),
            ({"n_datasets": 20.0}, ()),
        ],
        ids=["alpha_5", "alpha_-1", "p_value_7", "rank_true", "n_datasets_0",
             "rank_50", "rank_0", "posthoc_licensed_true", "rank_sum", "rank_overflow",
             "cd_overflow", "n_datasets_1", "n_datasets_1_alpha", "n_datasets_float"],
    )
    def test_out_of_range_value_exits_2(self, capsys, tmp_path, overrides, flags):
        code, out, err = run(capsys, "diagram", self.write_report(tmp_path, **overrides), *flags)
        assert code == 2 and out == ""
        assert next(iter(overrides)) in err

    def test_n_datasets_beyond_float_range_exits_2(self, capsys, tmp_path):
        # the CD at N = 10**400 underflows to 0.0, which the layout rejects
        path = self.write_report(tmp_path, n_datasets=10**400)
        code, out, err = run(capsys, "diagram", path, "--alpha", "0.1")
        assert (code, out) == (2, "")
        assert err.startswith("error: cd must be a positive real, got 0.0")

    @pytest.mark.parametrize("cd", [1e308, sys.float_info.max])
    def test_cd_past_any_finite_bracket_exits_2(self, capsys, tmp_path, cd):
        # a positive float, but the bracket end x0 + cd * 320 / (k - 1) overflows
        svg = tmp_path / "cd.svg"
        code, out, err = run(
            capsys, "diagram", self.write_report(tmp_path, cd=cd), "--out", str(svg)
        )
        assert (code, out, svg.exists()) == (2, "", False)
        assert err == f"error: cd {cd!r} at width 800 is too large to draw: its x passes the float range\n"

    @pytest.mark.parametrize("lead", ["6", "7", "17"])
    def test_width_near_the_float_range(self, capsys, lead):
        # at k = 8, x0 + (rank - 1)(x1 - x0) / (k - 1) overflows at the last tick from 7e307 on,
        # while the bracket end stays finite
        width = lead + "0" * 307
        code, out, err = run(capsys, "diagram", REPORT, "--width", width)
        if lead == "6":
            assert (code, err) == (0, "") and "inf" not in out
        else:
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("error: cd ")
            assert err.endswith(f" at width {width} is too large to draw: its x passes the float range\n")

    def test_cd_past_any_critical_difference_exits_2(self, capsys, tmp_path):
        # a finite bracket, but no CD of 3 models reaches 4 (k - 1) = 8 rank units
        svg = tmp_path / "cd.svg"
        code, out, err = run(
            capsys, "diagram", self.write_report(tmp_path, cd=1e300), "--out", str(svg)
        )
        assert (code, out, svg.exists()) == (2, "", False)
        assert err == "error: cd 1e+300 is too large to draw: no CD of k=3 models exceeds 4 (k - 1)\n"

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\ud800", "\ufffe"])
    def test_label_outside_xml_char_exits_2(self, capsys, tmp_path, char):
        ranks = [{"label": f"cart{char}click", "rank": 1.4}, {"label": "b", "rank": 2.2},
                 {"label": "c", "rank": 2.4}]
        svg = tmp_path / "cd.svg"
        path = self.write_report(tmp_path, average_ranks=ranks, groups=[[f"cart{char}click", "b", "c"]])
        code, out, err = run(capsys, "diagram", path, "--out", str(svg))
        assert (code, out, svg.exists()) == (2, "", False)
        assert "XML 1.0" in err

    def test_empty_label_exits_2(self, capsys, tmp_path):
        # analyze can never write this label, so diagram must not draw it
        ranks = [{"label": "", "rank": 1.4}, {"label": "b", "rank": 2.2},
                 {"label": "c", "rank": 2.4}]
        path = self.write_report(tmp_path, average_ranks=ranks, groups=[["", "b", "c"]])
        code, out, err = run(capsys, "diagram", path)
        assert (code, out) == (2, "")
        assert err == "error: model label must be a non-empty string\n"

    def test_utf8_bom_report(self, capsys, tmp_path, monkeypatch):
        text = Path(REPORT).read_text(encoding="utf-8")
        golden = (FIXTURES / "golden_cd.svg").read_text(encoding="utf-8")
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8-sig")
        assert run(capsys, "diagram", str(path)) == (0, golden, "")
        monkeypatch.setattr("sys.stdin", stdin_of(("\ufeff" + text).encode()))
        assert run(capsys, "diagram", "-") == (0, golden, "")

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_non_utf8_report_exits_2(self, capsys, tmp_path, monkeypatch, via):
        path = "-"
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(NOT_UTF8["report"]))
        else:
            path = str(tmp_path / "report.json")
            Path(path).write_bytes(NOT_UTF8["report"])
        at = NOT_UTF8["report"].index(b"\xe9")
        expected = (2, "", f"error: {path!r} is not valid UTF-8 (byte {at})\n")
        assert run(capsys, "diagram", path) == expected

    def test_stdin_report(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(Path(REPORT).read_bytes()))
        code, out, _ = run(capsys, "diagram", "-")
        assert code == 0
        assert out == (FIXTURES / "golden_cd.svg").read_text(encoding="utf-8")


class TestReportRoundTrip:
    """Every report the writer builds is one the report reader and the layout accept."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 40),
        k=st.integers(3, 20),
        levels=st.integers(2, 4),
        variant=st.sampled_from(["friedman", "iman_davenport"]),
        alpha=st.sampled_from([0.01, 0.05, 0.10]),
        summarize=st.booleans(),
    )
    def test_written_report_loads_and_lays_out(self, data, n, k, levels, variant, alpha, summarize):
        # few score levels, so ties are common
        values = data.draw(hnp.arrays(float, (n, k), elements=st.integers(0, levels - 1)))
        labels = data.draw(
            st.lists(
                st.text(st.characters(codec="utf-8", exclude_categories=("Cc",)), min_size=1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        assume(not any(c in "\ufffe\uffff" for label in labels for c in label))
        models = tuple(ModelId(l, {"group": f"g{j % 3}"}) for j, l in enumerate(labels))
        manifest = ExperimentManifest("score", "maximize", models, alpha)
        m = PerformanceMatrix(tuple(f"d{i}" for i in range(n)), models, values)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SmallSampleWarning)
                omnibus = friedman_test(m, alpha=alpha, variant=variant)
        except DegenerateStatisticError:
            assume(False)
        ranks = average_ranks(m)
        posthoc = nemenyi_test(ranks, n, alpha=alpha)
        report = build_report(m, omnibus, posthoc, ranks)
        if summarize:
            report["tag_summaries"] = [
                s.to_dict() for s in summarize_by_tag(ranks, posthoc, manifest, "group")
            ]

        optional = {"df2": variant == "iman_davenport", "tag_summaries": summarize}
        assert list(report) == [key for key in REPORT_KEYS if optional.get(key, True)]
        assert [key for key, value in report.items() if type(value) not in REPORT_KEYS[key]] == []
        loaded = _load_report(json.dumps(report))
        assert loaded == report
        entries = loaded["average_ranks"]
        spec = layout([e["rank"] for e in entries], [e["label"] for e in entries], loaded["cd"])
        assert sorted(e.label for e in spec.entries) == sorted(labels)


class TestSimulate:
    def test_null_run_shape(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "10", "--k", "3", "--trials", "20", "--seed", "1"
        )
        assert code == 0
        result = json.loads(out)
        assert set(result) == {"config", "rejection_rate", "ci_low", "ci_high", "trials"}
        assert result["trials"] == 20
        assert result["config"]["effect"] == [0.0, 0.0, 0.0]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ["simulate", "--n", "8", "--k", "4", "--trials", "30", "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_effect_switches_to_power(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--n",
            "10",
            "--k",
            "3",
            "--trials",
            "10",
            "--effect",
            "1.0,0,0",
        )
        assert code == 0
        result = json.loads(out)
        assert "omnibus_rate" in result and "pairwise_detection" in result

    def test_wrong_effect_length_exits_2(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", "10", "--k", "3", "--effect", "1.0,0"
        )
        assert code == 2
        assert "effect" in err

    def test_workers_flag_matches_serial(self, capsys):
        argv = ("simulate", "--n", "8", "--k", "4", "--trials", "24", "--seed", "2")
        _, serial, _ = run(capsys, *argv)
        _, parallel, _ = run(capsys, *argv, "--workers", "3")
        assert serial == parallel

    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize("name, argv", sorted(_goldens("SIMULATE_GOLDENS").items()))
    def test_golden_bytes(self, capsys, tmp_path, name, argv, workers):
        out = tmp_path / name
        assert run(capsys, *argv, "--workers", workers, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == (FIXTURES / name).read_bytes()

    def test_scipy_stats_never_imported(self, tmp_path):
        # scipy is a test-time oracle only; xml.sax.saxutils would pull in
        # urllib.request, http.client and email for one escape call.  Each
        # subcommand runs in a fresh process and loads only its own modules.
        banned = ("scipy", "xml.sax", "urllib.request", "http.client", "email")
        # the value types are not dataclasses, whose import loads inspect, ast and dis; numpy loads inspect
        no_introspection = ("dataclasses", "inspect", "ast", "dis")
        # the critical-difference rule and the layout need no numpy, and diagram runs no statistic
        diagram_bans = banned + ("numpy", "concurrent.futures", "cdranks.ingest", "cdranks.simulate",
                                 "cdranks.procedure", "cdranks.ranks", "cdranks.distributions", "typing",
                                 *no_introspection)
        # ranking, the statistic and both survival functions need no numpy either.  typing is banned
        # only under -S, since a site hook may import it before the script runs.
        analyze_bans = banned + ("numpy", "concurrent.futures", "cdranks.simulate",
                                 "cdranks.diagram", "statistics", "fractions", "decimal", "typing",
                                 *no_introspection)
        long_input = [str(FIXTURES / "results_long.csv"), "--manifest",
                      str(FIXTURES / "manifest_long.json"), "--drop-incomplete"]
        steps = {
            "import": ([], "cdranks", banned + ("numpy", "cdranks.cli")),
            "analyze": (
                ["analyze", RESULTS, "--manifest", MANIFEST, "--out", str(tmp_path / "r.json")],
                "cdranks.ingest",
                analyze_bans,
            ),
            "analyze long": (
                ["analyze", *long_input, "--out", str(tmp_path / "r.json")],
                "cdranks.ingest",
                analyze_bans,
            ),
            "analyze --summarize-tag": (
                ["analyze", *long_input, "--summarize-tag", "feature_set",
                 "--out", str(tmp_path / "r.json")],
                "cdranks.ingest",
                analyze_bans,
            ),
            "analyze --variant iman-davenport": (
                ["analyze", RESULTS, "--manifest", MANIFEST, "--variant", "iman-davenport",
                 "--summarize-tag", "feature_set", "--out", str(tmp_path / "r.json")],
                "cdranks.ingest",
                analyze_bans,
            ),
            "diagram": (
                ["diagram", REPORT, "--out", str(tmp_path / "cd.svg")],
                "cdranks.diagram",
                diagram_bans,
            ),
            # 0.2 was never tabulated, so this step computes the critical value
            "diagram --alpha": (
                ["diagram", REPORT, "--alpha", "0.2", "--out", str(tmp_path / "cd.svg")],
                "cdranks.diagram",
                diagram_bans,
            ),
            "simulate": (
                ["simulate", "--n", "10", "--k", "4", "--trials", "300",
                 "--effect", "0.5,0,0,0", "--out", str(tmp_path / "power.json")],
                "cdranks.simulate",
                # one worker starts no pool
                banned + ("concurrent.futures", "dataclasses"),
            ),
        }
        script = (
            "import json, sys\n"
            "import cdranks\n"
            "code = 0\n"
            "if sys.argv[1:]:\n"
            "    from cdranks.cli import main\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        for name, (argv, needed, absent) in steps.items():
            # analyze and diagram run without site, as the benchmark launches them; numpy lives in site
            no_site = ["-S"] if name.startswith(("analyze", "diagram")) else []
            proc = subprocess.run(
                [sys.executable, *no_site, "-c", script, *argv],
                capture_output=True, text=True, env=env, check=True,
            )
            code, modules = json.loads(proc.stdout)
            loaded = [m for m in modules if any(m == b or m.startswith(b + ".") for b in absent)]
            assert (name, code, needed in modules, loaded) == (name, 0, True, [])

    def test_huge_k_exits_3_before_the_effect_is_built(self, capsys):
        # the default effect, k zeros, is built only after SimConfig has checked k
        message = f"error: N=10, k={2**64} unsupported: the kernel needs N^2 k(k^2-1) < 2^63\n"
        assert run(capsys, "simulate", "--n", "10", "--k", str(2**64)) == (3, "", message)

    @pytest.mark.filterwarnings("ignore::cdranks.SmallSampleWarning")
    def test_unsupported_design_exits_3_as_analyze_does(self, capsys, tmp_path):
        csv = tmp_path / "results.csv"
        for text, labels, message in (
            ("dataset,a,b,c\nd0,0.1,0.2,0.3\n", "abc", "N=1 datasets unsupported: need N >= 2"),
            ("dataset,a,b\nd0,0.1,0.2\nd1,0.2,0.1\nd2,0.3,0.4\n", "ab",
             "k=2 models unsupported: the rank test machinery needs k >= 3"),
        ):
            csv.write_text(text)
            analyzed = run(capsys, "analyze", str(csv), "--manifest",
                           write_manifest(tmp_path, *labels))
            assert analyzed == (3, "", f"error: {message}\n")
            n = str(len(text.splitlines()) - 1)
            assert run(capsys, "simulate", "--n", n, "--k", str(len(labels))) == analyzed

    def test_overflowing_draws_write_only_the_error(self):
        # a real process, so a numpy warning would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(cdranks.__file__).parents[1]))
        argv = [sys.executable, "-m", "cdranks.cli", "simulate", "--n", "31", "--k", "8",
                "--trials", "3", "--noise-sd", "1e308"]
        for effect in ([], ["--effect", "1e308,-1e308,0,0,0,0,0,0"]):
            proc = subprocess.run([*argv, *effect], capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                2, "", "error: performance values must be finite\n"
            )

    def test_zero_trials_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "10", "--k", "3", "--trials", "0"])
        assert exc.value.code == 2


def oracle_cd(k: int, n: int, alpha: float) -> float:
    """The bench oracle's CD: scipy's studentized range quantile over sqrt(2), scaled."""
    from scipy.stats import studentized_range

    q = float(studentized_range.ppf(1.0 - alpha, k, float("inf"))) / 2**0.5
    return q * (k * (k + 1) / (6 * n)) ** 0.5


class TestAnyDesign:
    """Designs past the old 57-entry table: k > 20 and any alpha >= 1e-5."""

    def test_k24_wide_csv_reports_the_oracle_cd(self, capsys, tmp_path):
        labels = [f"{algo}_{features}" for algo in "abcdefgh" for features in ("raw", "pca", "sel")]
        rows = [
            ",".join([f"d{i:02d}", *(f"{(i * 7 + j * 13) % 29 / 29 + j / 100:.4f}"
                                     for j in range(24))])
            for i in range(31)
        ]
        csv = tmp_path / "results.csv"
        csv.write_text("\n".join(["dataset," + ",".join(labels), *rows]) + "\n")
        code, out, err = run(capsys, "analyze", str(csv), "--manifest",
                             write_manifest(tmp_path, *labels))
        report = json.loads(out)
        assert (code, err, len(report["average_ranks"])) == (0, "", 24)
        assert report["cd"] == pytest.approx(oracle_cd(24, 31, 0.05), rel=1e-6)

    def test_analyze_at_alpha_0_2(self, capsys):
        code, out, err = run(capsys, "analyze", RESULTS, "--manifest", MANIFEST, "--alpha", "0.2")
        report = json.loads(out)
        assert (code, err, report["alpha"]) == (0, "", 0.2)
        assert report["cd"] == pytest.approx(oracle_cd(8, 31, 0.2), rel=1e-6)

    def test_diagram_at_alpha_0_2(self, capsys):
        code, out, err = run(capsys, "diagram", REPORT, "--alpha", "0.2")
        assert (code, err) == (0, "") and out.endswith("</svg>\n")
        # a narrower CD bracket than the golden's at the report's own alpha = 0.05
        assert out != (FIXTURES / "golden_cd.svg").read_text(encoding="utf-8")

    def test_simulate_power_at_k24(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "10", "--k", "24", "--trials", "20",
                             "--effect", ",".join(["1.5"] + ["0"] * 23))
        result = json.loads(out)
        assert (code, err, len(result["pairwise_detection"])) == (0, "", 24)
        assert result["cd"] == pytest.approx(oracle_cd(24, 10, 0.05), rel=1e-6)

    @pytest.mark.parametrize("k, alpha", [(1001, "0.05"), (8, "1e-6")])
    def test_power_outside_the_domain_exits_3_and_null_runs(self, capsys, k, alpha):
        argv = ["simulate", "--n", "5", "--k", str(k), "--trials", "3", "--alpha", alpha]
        code, out, err = run(capsys, *argv, "--effect", ",".join(["1"] + ["0"] * (k - 1)))
        assert (code, out) == (3, "")
        assert err == (f"error: k={k}, alpha={float(alpha)!r} is outside 2 <= k <= 1000, "
                       "alpha >= 1e-05, where the critical value is computed\n")
        code, out, err = run(capsys, *argv)
        assert (code, err, json.loads(out)["trials"]) == (0, "", 3)

    def test_power_without_a_cd_builds_no_pool(self, capsys, monkeypatch):
        pools = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda **kw: pools.append(kw))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        code, out, err = run(capsys, "simulate", "--n", "5", "--k", "8", "--trials", "200",
                             "--alpha", "1e-6", "--effect", "1,0,0,0,0,0,0,0", "--workers", "2")
        assert (code, out, pools) == (3, "", [])
        assert err == ("error: k=8, alpha=1e-06 is outside 2 <= k <= 1000, "
                       "alpha >= 1e-05, where the critical value is computed\n")


class TestParser:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.csv", "--manifest", "m.json", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_variant_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.csv", "--manifest", "m.json", "--variant", "anova"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--n", "x"), ("--n", "0"), ("--workers", "1.5"), ("--seed", "-1")]
    )
    def test_bad_integer_value(self, capsys, flag, value):
        argv = {"--n": "10", "--k": "3", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *(item for pair in argv.items() for item in pair)])
        assert exc.value.code == 2
        assert f"argument {flag}: value must be an integer >= " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["analyze", "x.csv", "--manifest", "m.json", "--alpha", "0.0_5"], "--alpha: alpha"),
            (["diagram", "r.json", "--alpha", "0.0_5"], "--alpha: alpha"),
            (["diagram", "r.json", "--width", "8_00"], "--width: value"),
            (["simulate", "--n", "\u0663", "--k", "3"], "--n: value"),
            (["simulate", "--n", "10", "--k", "3", "--alpha", "0.0_5"], "--alpha: alpha"),
            (["simulate", "--n", "10", "--k", "3", "--seed", "1_0"], "--seed: value"),
            (["simulate", "--n", "10", "--k", "3", "--trials", "1e3"], "--trials: value"),
            (["simulate", "--n", "10", "--k", "3", "--noise-sd", "\uff11"], "--noise-sd: value"),
            (["simulate", "--n", "10", "--k", "3", "--noise-sd", "inf"], "--noise-sd: value"),
            (["simulate", "--n", "10", "--k", "3", "--noise-sd", "-1"], "--noise-sd: value"),
            (["simulate", "--n", "10", "--k", "3", "--effect", "1_0,0,\u0663"], "--effect: '1_0"),
            (["simulate", "--n", "10", "--k", "3", "--effect", "1,nan,0"], "--effect: '1,nan"),
        ],
    )
    def test_number_rule_covers_every_numeric_flag(self, capsys, argv, err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {err}" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    @pytest.mark.parametrize("flag", ["--width", "--n", "--k", "--trials", "--seed", "--workers"])
    def test_integer_past_the_float_range_is_named_an_overflow(self, capsys, flag, sign):
        argv = ["diagram", REPORT] if flag == "--width" else ["simulate", "--n", "10", "--k", "3"]
        digits = "1" + "0" * 309
        past_int_limit = "9" * 5000  # int() refuses it: it has more than sys.get_int_max_str_digits() digits
        own = f"value must be an integer >= {int(flag != '--seed')}, got "
        for text, overflows in (
            (sign + digits, True),
            (sign + past_int_limit, True),
            # int() and float() skip this whitespace, so the text is still an integer past the float range
            (" " + sign + past_int_limit + "\n", True),
            # not an int to check_number, so the message stays the flag's own
            (sign + "1_" + digits, False),
            # two signs, or a separator character that str.strip() would remove but int() does not skip
            ("+-" + past_int_limit, False),
            ("\x1c" + past_int_limit, False),
        ):
            message = f"value {text!r} overflows to non-finite" if overflows else own + repr(text)
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"{flag}={text}"])  # a leading - would read as an option
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"cdranks {argv[0]}: error: argument {flag}: {message}"
            ]

    def test_plain_and_scientific_flags_still_accepted(self, capsys):
        code, out, err = run(capsys, "analyze", RESULTS, "--manifest", MANIFEST, "--alpha", "1e-1")
        assert (code, err, json.loads(out)["alpha"]) == (0, "", 0.1)
        code, out, err = run(
            capsys, "simulate", "--n", "10", "--k", "3", "--trials", "5", "--alpha", "1e-1",
            "--effect", "1.0, 0, 0", "--noise-sd", "2.5E0",
        )
        assert (code, err) == (0, "")
        config = json.loads(out)["config"]
        assert (config["alpha"], config["effect"], config["noise_sd"]) == (0.1, [1.0, 0, 0], 2.5)

    def test_no_flag_parses_with_bare_float_or_int(self):
        # a new numeric flag must go through _checked, so the number rule covers it
        parsers, bare = [_build_parser()], []
        for parser in parsers:
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif action.type in (float, int):
                    bare.append(action.option_strings)
        assert (len(parsers), bare) == (4, [])

    def test_bad_alpha_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.csv", "--manifest", "m.json", "--alpha", "1.5"])
        assert exc.value.code == 2


class TestMakeFixtures:
    # every warning fails the test but the two expected categories: a mark
    # higher up takes precedence over the marks below it
    @pytest.mark.filterwarnings("ignore::cdranks.DroppedDatasetsWarning")
    @pytest.mark.filterwarnings("ignore::cdranks.SmallSampleWarning")
    @pytest.mark.filterwarnings("error")
    def test_regenerates_every_golden_byte_for_byte(self, capsys, tmp_path):
        _goldens("main")(tmp_path)
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted([
            "golden_cd.svg", "manifest_31x8.json", "report_31x8.json", "report_long.json",
            "results_31x8.csv", "simulate_null.json", "simulate_power.json",
        ])
        for name in written:
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
