"""The package's public surface: every exported name, loaded on first use."""

import ast
import importlib
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
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



def _matrix(values):
    """A 3-model PerformanceMatrix over one dataset per row of ``values``."""
    datasets = tuple(f"d{i}" for i in range(len(values)))
    return cdranks.PerformanceMatrix(datasets, tuple(map(cdranks.ModelId, "abc")), values)


def _sim_config(effect):
    return cdranks.SimConfig(n_datasets=10, n_models=3, effect=effect, noise_sd=1.0, trials=10, seed=0)


class TestLibraryInputs:
    """Each kind of input value has one check, and a bad value is a ValidationError.

    Every case below was read silently, or failed with an untyped TypeError,
    ValueError or OverflowError, before each kind had its one check.
    """

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: _matrix(["123", "456"]), "^values must be a 2-dimensional block of reals$"),
            (lambda: _matrix([["1_0", "\u0663", "\uff11"]]), "^values must be a 2-dimensional"),
            (lambda: cdranks.AverageRanks(["1", "2", "3"]), "^need a 1-d vector of at least two"),
            (lambda: _sim_config((10**400, 0, 0)), "^effect must be a vector of reals$"),
            (lambda: _sim_config(("a", 0, 0)), "^effect must be a vector of reals$"),
            (lambda: _sim_config(None), "^effect must be a vector of reals$"),
            (lambda: _sim_config(("1", 0, 0)), "^effect must be a vector of reals$"),
            (lambda: _sim_config((True, 0, 0)), "^effect must be a vector of reals$"),
            (lambda: cdranks.nemenyi_cd(8, "31"), "^n_datasets must be an integer, got '31'$"),
            (lambda: cdranks.nemenyi_cd(8, 31.5), "^n_datasets must be an integer, got 31.5$"),
            (lambda: cdranks.nemenyi_cd(8, np.int64(31)), "^n_datasets must be an integer, got "),
            (lambda: cdranks.friedman_statistic((1.0, 2.0, 3.0), "4", 3), "^n_datasets must be"),
            (lambda: cdranks.friedman_statistic((1.0, 2.0, 3.0), np.int64(4), 3), "^n_datasets"),
            (lambda: cdranks.ModelId("a", {"fs": 1}), "^model 'a': tags must map strings to strings$"),
            (lambda: cdranks.ModelId("a", {"fs": ["x"]}), "^model 'a': tags must map strings"),
            (lambda: cdranks.ModelId("a", [("fs", "x")]), "^model 'a': tags must map strings"),
            (lambda: cdranks.chi_square_sf("1", 3), "^x must be a finite nonnegative real, got '1'$"),
            (lambda: cdranks.f_sf(None, 2, 3), "^x must be a finite nonnegative real, got None$"),
            (lambda: cdranks.chi_square_sf(True, 3), "^x must be a finite nonnegative real, got True$"),
        ],
        ids=["matrix_text_rows", "matrix_text_cells", "ranks_text", "effect_overflow",
             "effect_word", "effect_none", "effect_text", "effect_bool", "cd_text_count",
             "cd_float_count", "cd_numpy_count", "statistic_text_count", "statistic_numpy_count",
             "tag_int", "tag_list", "tags_not_a_mapping", "chi2_text", "f_none", "chi2_bool"],
    )
    def test_bad_value_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()


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


def _unused_imports(source: str) -> list:
    """Sorted names that ``source`` imports and never reads.

    A read is any Name node, so an attribute base (``np`` in ``np.sum``) and
    an unquoted annotation count; a quoted annotation is parsed for its names.
    ``from __future__ import ...`` binds nothing and is exempt.
    """
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


class TestImports:
    def test_no_module_imports_a_name_it_never_uses(self):
        modules = sorted(Path(cdranks.__file__).parent.glob("*.py"))
        assert modules
        unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
        assert {name: names for name, names in unused.items() if names} == {}

    def test_scan_finds_a_leftover_import(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from .distributions import chi_square_sf, f_sf\n"
            "from .ranks import AverageRanks, PerformanceMatrix\n"
            "def g(m: PerformanceMatrix, r: 'AverageRanks | None' = None) -> float:\n"
            "    return np.sum(f_sf(1.0, 2, 3))\n"
        )
        assert _unused_imports(source) == ["chi_square_sf", "os"]
