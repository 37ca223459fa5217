"""The package's public surface: every exported name, loaded on first use."""

import ast
import importlib
import itertools
import math
import re
import sys
from pathlib import Path

import pytest
from long_csv_oracle import _parse_value as oracle_parse_value

import cdranks
from cdranks.errors import (
    _NOT_XML_CHAR,
    ValidationError,
    check_int,
    check_label,
    check_number,
    check_positive,
)

EXPORTS = [
    "AverageRanks",
    "CdranksError",
    "DegenerateStatisticError",
    "DiagramBar",
    "DiagramEntry",
    "DiagramSpec",
    "Direction",
    "DroppedDatasetsWarning",
    "ExperimentManifest",
    "FriedmanResult",
    "IncompleteDesignError",
    "ModelId",
    "NemenyiResult",
    "PerformanceMatrix",
    "PowerEstimate",
    "RenderOptions",
    "SimConfig",
    "SmallSampleWarning",
    "TagSummary",
    "Type1Estimate",
    "UnsupportedDesignError",
    "ValidationError",
    "Variant",
    "aggregate_folds",
    "apply_manifest",
    "average_ranks",
    "build_report",
    "chi_square_sf",
    "estimate_power",
    "estimate_type1",
    "f_sf",
    "friedman_statistic",
    "friedman_test",
    "generate_matrix",
    "indistinguishable_groups",
    "layout",
    "nemenyi_cd",
    "nemenyi_test",
    "pairwise_significance",
    "parse_long_csv",
    "parse_manifest",
    "parse_wide_csv",
    "q_alpha",
    "render_svg",
    "summarize_by_tag",
]

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"

# The XML 1.0 Char test written as the complement of the allowed ranges: the
# oracle for errors._NOT_XML_CHAR, which lists the forbidden set instead
# because that class compiles about ten times faster, on every CLI start.
NOT_XML_CHAR_COMPLEMENT = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class TestExports:
    def test_all_is_pinned(self):
        assert cdranks.__all__ == EXPORTS

    def test_every_name_resolves_and_is_listed_by_dir(self):
        for name in EXPORTS:
            module = importlib.import_module(f"cdranks.{cdranks._EXPORTS[name]}")
            assert getattr(cdranks, name) is getattr(module, name)
        assert set(EXPORTS) <= set(dir(cdranks))
        assert "__version__" in dir(cdranks)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="rank_row"):
            cdranks.rank_row
        for gone in ("QTable", "SUPPORTED_ALPHAS", "SUPPORTED_K"):
            assert not hasattr(cdranks, gone)

    def test_star_import(self):
        namespace = {}
        exec("from cdranks import *", namespace)
        assert set(EXPORTS) <= set(namespace)

    def test_bench_names_exported(self):
        tree = ast.parse(SPANS.read_text(encoding="utf-8"))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "cdranks"
            for alias in node.names
        ]
        assert len(imported) == 22
        assert set(imported) <= set(EXPORTS)


class TestCheckInt:
    @pytest.mark.parametrize("value", [1, 5, 2**70])
    def test_accepts(self, value):
        assert check_int(value, "n", 1) == value

    @pytest.mark.parametrize("value", [0, -3, True, 1.0, "2", None])
    def test_rejects(self, value):
        with pytest.raises(ValidationError, match=r"^n must be an integer >= 1, got "):
            check_int(value, "n", 1)



def _number_outcome(parse, text: str):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


def _prefixed_check_number(text: str) -> float:
    try:
        return check_number(text)
    except ValidationError as exc:
        raise ValidationError(f"line 2: {exc}") from None


class TestCheckNumber:
    # Every string of length 1-4 over this alphabet, stripped as the CSV
    # parsers strip a cell: signs, digits, exponents, underscores, spelled-out
    # inf/nan, hex, whitespace float() would strip, and a non-ASCII digit.
    ALPHABET = [*"09.eE+-_ inaINFx", "\t", "\x0b", "\x1c", "\u0663"]
    # longer forms: overflows, and texts float() alone would accept or reject
    EXTRA = ["1e999", "-9E+999", "1" * 400 + ".", ".5e400", "-Infinity", "0x10", "1 2"]

    def test_agrees_with_the_regex_oracle(self):
        texts = [
            "".join(chars).strip()
            for size in range(1, 5)
            for chars in itertools.product(self.ALPHABET, repeat=size)
        ]
        assert len(texts) == 168_420
        for text in texts + self.EXTRA:
            expected = _number_outcome(lambda t: oracle_parse_value(t, "line 2"), text)
            assert _number_outcome(_prefixed_check_number, text) == expected, text


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1, 0.5, 5e-324, sys.float_info.max])
    def test_accepts(self, value):
        assert check_positive(value, "cd") == value

    @pytest.mark.parametrize("value", [0, -1.5, math.nan, math.inf, True, 10**400, "2", None])
    def test_rejects(self, value):
        with pytest.raises(ValidationError, match=r"^cd must be a positive real, got "):
            check_positive(value, "cd")


class TestCheckLabel:
    @pytest.mark.parametrize("label", ["", None, 3, b"a"])
    def test_rejects_non_string_or_empty(self, label):
        with pytest.raises(ValidationError, match="^model label must be a non-empty string$"):
            check_label(label)

    def test_forbidden_set_matches_complement_on_every_code_point(self):
        text = "".join(map(chr, range(0x110000)))
        found = [m.start() for m in _NOT_XML_CHAR.finditer(text)]
        assert found == [m.start() for m in NOT_XML_CHAR_COMPLEMENT.finditer(text)]
        # 29 C0 controls besides tab, LF and CR; 2048 surrogates; U+FFFE and U+FFFF
        assert len(found) == 29 + 2048 + 2
