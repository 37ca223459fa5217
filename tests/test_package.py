"""The package's public surface: every exported name, loaded on first use."""

import ast
import importlib
import itertools
import math
import pickle
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from long_csv_oracle import _parse_value as oracle_parse_value

import cdranks
from cdranks.errors import (
    _NOT_XML_CHAR,
    UnsupportedDesignError,
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


_TAGGED = cdranks.ModelId("a", {"fs": "click"})
_MODELS = (_TAGGED, cdranks.ModelId("b"), cdranks.ModelId("c"))
_MODELS_REPR = "(ModelId(label='a', tags={'fs': 'click'}), ModelId(label='b', tags={}), ModelId(label='c', tags={}))"
_CONFIG = cdranks.SimConfig(5, 3, (0.0, 0.5, 0.0), 1.0, 10, 7)
_CONFIG_REPR = "SimConfig(n_datasets=5, n_models=3, effect=(0.0, 0.5, 0.0), noise_sd=1.0, trials=10, seed=7, alpha=0.05)"
_ENTRY, _BAR = cdranks.DiagramEntry("a", 1.5, "left", 0), cdranks.DiagramBar(1.0, 2.0, 0)
_DETECTION = ((0.0, 0.1, 0.0), (0.1, 0.0, 0.1), (0.0, 0.1, 0.0))

# One instance of each public value type, by position: (type, every field's value, repr).  The reprs
# and the defaults are those the types printed and took as frozen dataclasses.
VALUE_TYPES = [
    ("ModelId", (_TAGGED.label, _TAGGED.tags), "ModelId(label='a', tags={'fs': 'click'})"),
    ("PerformanceMatrix", (("d0", "d1"), _MODELS, ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)), cdranks.Direction.MAXIMIZE),
     f"PerformanceMatrix(datasets=('d0', 'd1'), models={_MODELS_REPR}, values=((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)), "
     "direction=<Direction.MAXIMIZE: 'maximize'>)"),
    ("AverageRanks", ((2, 4, 6),), "AverageRanks(r=(1.0, 2.0, 3.0))"),
    ("FriedmanResult", (4.0, 2, 0.135, 0.05, False, cdranks.Variant.FRIEDMAN, None),
     "FriedmanResult(statistic=4.0, df=2, p_value=0.135, alpha=0.05, reject_null=False, "
     "variant=<Variant.FRIEDMAN: 'friedman'>, df2=None)"),
    ("NemenyiResult", (1.5, ((False, True), (True, False)), ((0,), (1,))),
     "NemenyiResult(cd=1.5, significant=((False, True), (True, False)), groups=((0,), (1,)))"),
    ("ExperimentManifest", ("accuracy", cdranks.Direction.MAXIMIZE, _MODELS, 0.05),
     f"ExperimentManifest(metric_name='accuracy', direction=<Direction.MAXIMIZE: 'maximize'>, models={_MODELS_REPR}, "
     "alpha=0.05)"),
    ("TagSummary", ("click", ("a",), 1.5, 1.0, False, ()),
     "TagSummary(tag_value='click', members=('a',), mean_rank=1.5, best_rank=1.0, fully_separated=False, "
     "separated_from=())"),
    ("RenderOptions", (640,), "RenderOptions(width_px=640)"),
    ("DiagramEntry", ("a", 1.5, "left", 0), "DiagramEntry(label='a', rank=1.5, side='left', row=0)"),
    ("DiagramBar", (1.0, 2.0, 0), "DiagramBar(rank_lo=1.0, rank_hi=2.0, level=0)"),
    ("DiagramSpec", (3, 1.2, (_ENTRY,), (_BAR,)),
     "DiagramSpec(k=3, cd=1.2, entries=(DiagramEntry(label='a', rank=1.5, side='left', row=0),), "
     "bars=(DiagramBar(rank_lo=1.0, rank_hi=2.0, level=0),))"),
    ("SimConfig", (5, 3, (0.0, 0.5, 0.0), 1.0, 10, 7, 0.05), _CONFIG_REPR),
    ("Type1Estimate", (_CONFIG, 1, 0.1, 0.01, 0.4),
     f"Type1Estimate(config={_CONFIG_REPR}, rejections=1, rejection_rate=0.1, ci_low=0.01, ci_high=0.4)"),
    ("PowerEstimate", (_CONFIG, 1.5, 2, 0.2, 0.05, 0.5, _DETECTION),
     f"PowerEstimate(config={_CONFIG_REPR}, cd=1.5, omnibus_rejections=2, omnibus_rate=0.2, ci_low=0.05, "
     f"ci_high=0.5, pairwise_detection={_DETECTION!r})"),
]
DEFAULTS = {
    "ModelId": {"tags": {}},
    "PerformanceMatrix": {"direction": cdranks.Direction.MAXIMIZE},
    "FriedmanResult": {"df2": None},
    "ExperimentManifest": {"alpha": 0.05},
    "RenderOptions": {"width_px": 800},
    "SimConfig": {"alpha": 0.05},
}


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:  # a field holds a dict, as ModelId.tags does
        return TypeError


class TestValueTypes:
    """The frozen value types keep what they had as frozen dataclasses, without ``dataclasses``."""

    def test_every_value_type_is_listed(self):
        classes = {name for name in EXPORTS if isinstance(getattr(cdranks, name), type)}
        records = {name for name in classes if hasattr(getattr(cdranks, name), "_fields")}
        assert sorted(records) == sorted(name for name, _, _ in VALUE_TYPES)
        assert all(len(getattr(cdranks, name)._fields) == len(values) for name, values, _ in VALUE_TYPES)

    @pytest.mark.parametrize("name, values, shown", VALUE_TYPES, ids=[row[0] for row in VALUE_TYPES])
    def test_contract(self, name, values, shown):
        cls = getattr(cdranks, name)
        keywords = dict(zip(cls._fields, values))
        value = cls(*values)
        assert repr(value) == shown
        assert cls(**keywords) == value
        assert _hash_or_type_error(cls(**keywords)) == _hash_or_type_error(value)
        assert _hash_or_type_error(value) == _hash_or_type_error(tuple(keywords.values()))
        assert value.__eq__(tuple(keywords.values())) is NotImplemented and value != object()
        defaults = DEFAULTS.get(name, {})
        assert cls(**{f: v for f, v in keywords.items() if f not in defaults}) == cls(**keywords | defaults)
        for field in cls._fields:
            if field not in defaults:
                with pytest.raises(TypeError, match=rf"^{name}\(\) takes {', '.join(cls._fields)}, each once: "):
                    cls(**{f: v for f, v in keywords.items() if f != field})
        # an extra positional, an unknown keyword, and the first field twice
        for args, extra in (((*values, None), {}), (values, {"bogus": None}), (values[:1], keywords)):
            with pytest.raises(TypeError, match=rf"^{name}\(\) takes {', '.join(cls._fields)}, each once: "):
                cls(*args, **extra)
        for field in (*cls._fields, "bogus"):
            with pytest.raises(AttributeError, match=rf"^{name} is frozen: cannot set or delete {field!r}$"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match=rf"^{name} is frozen: cannot set or delete {field!r}$"):
                delattr(value, field)
        assert repr(value) == shown  # the refused writes changed nothing
        copy = pickle.loads(pickle.dumps(value))
        assert (type(copy), copy, repr(copy)) == (cls, value, shown)

    def test_average_ranks_derives_r_outside_the_fields(self):
        ranks = cdranks.AverageRanks(sums=[2, 4, 6])
        assert (ranks._fields, ranks.sums, ranks.r) == (("sums",), (2, 4, 6), (1.0, 2.0, 3.0))
        with pytest.raises(TypeError, match=r"^AverageRanks\(\) takes sums, each once: got 1 by position and r by"):
            cdranks.AverageRanks((2, 4, 6), r=(1.0, 2.0, 3.0))

    def test_default_tags_are_copied(self):
        first, second = cdranks.ModelId("a"), cdranks.ModelId("b")
        first.tags["k"] = "v"
        assert (second.tags, cdranks.ModelId("c").tags) == ({}, {})


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


def _ids(datasets):
    """A 3-model PerformanceMatrix with the dataset ids ``datasets``."""
    values = [[1.0, 2.0, 3.0]] * len(datasets)
    return cdranks.PerformanceMatrix(datasets, tuple(map(cdranks.ModelId, "abc")), values)


def _sim_config(effect, **overrides):
    fields = dict(n_datasets=10, n_models=3, effect=effect, noise_sd=1.0, trials=10, seed=0)
    return cdranks.SimConfig(**fields | overrides)


_SUMS_MESSAGE = "^average ranks need k >= 2 int rank sums 2S_j in \\[2N, 2Nk\\] totalling N k\\(k\\+1\\)$"


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
            (lambda: cdranks.AverageRanks(["1", "2", "3"]), _SUMS_MESSAGE),
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
            (lambda: cdranks.AverageRanks([np.bool_(True), 2.0, 3.0]), _SUMS_MESSAGE),
            (lambda: cdranks.chi_square_sf(np.bool_(True), 3), "^x must be a finite nonnegative real"),
            (lambda: _sim_config((np.bool_(True), 0, 0)), "^effect must be a vector of reals$"),
            (lambda: _matrix(np.array([[True, False, True]])), "^values must be a 2-dimensional"),
            # ids that reached the uniqueness check unchecked, where they raised a bare TypeError
            (lambda: _ids((1, 1)), r"^duplicate dataset id\(s\): 1$"),
            (lambda: _ids((1, 1, "1", "1")), r"^duplicate dataset id\(s\): 1, 1$"),
            (lambda: _ids(([1], [2])), r"^duplicate dataset id\(s\) cannot be checked: an item is unhashable"),
            (lambda: cdranks.layout([1.0, 2.0, 3.0], [1, 1, "a"], 1.0), "^model label must be a non-empty"),
            (lambda: cdranks.layout([1.0, 2.0, 3.0], [[1], [2], "a"], 1.0), "^model label must be"),
        ],
        ids=["matrix_text_rows", "matrix_text_cells", "ranks_text", "effect_overflow",
             "effect_word", "effect_none", "effect_text", "effect_bool", "cd_text_count",
             "cd_float_count", "cd_numpy_count", "statistic_text_count", "statistic_numpy_count",
             "tag_int", "tag_list", "tags_not_a_mapping", "chi2_text", "f_none", "chi2_bool",
             "ranks_numpy_bool", "chi2_numpy_bool", "effect_numpy_bool", "matrix_numpy_bools",
             "int_ids", "int_and_text_ids", "unhashable_ids", "int_labels", "unhashable_labels"],
    )
    def test_bad_value_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: _sim_config((0, 0, 0), seed=10**5000), ValidationError,
             r"^seed must be an integer in \[0, 18446744073709551616\), got <int of 16610 bits>$"),
            (lambda: cdranks.chi_square_sf(10**5000, 3), ValidationError,
             "^x must be a finite nonnegative real, got <int of 16610 bits>$"),
            (lambda: cdranks.nemenyi_cd(8, -(10**5000)), UnsupportedDesignError,
             "^N=<negative int of 16610 bits> datasets unsupported: need N >= 2$"),
            (lambda: cdranks.friedman_statistic(cdranks.AverageRanks((8, 16, 24)), 4, -(10**5000)),
             UnsupportedDesignError, "^k=<negative int of 16610 bits> models unsupported: the rank test"),
            (lambda: cdranks.Direction.parse([10**5000]), ValidationError,
             "^direction must be .*, got <list holding an int too long to print>$"),
        ],
        ids=["seed", "chi2_x", "cd_n_datasets", "statistic_k", "direction_list"],
    )
    def test_int_past_the_digit_limit_is_shown_by_bit_length(self, call, error, message):
        # repr() of an int past 4300 digits raises ValueError, so a message cannot show it
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("exact", [False, True], ids=["floats", "exact_sums"])
    @pytest.mark.parametrize(
        "n, shown_n", [(10**400, "1" + "0" * 400), (10**5000, "<int of 16610 bits>")],
        ids=["N_1e400", "N_1e5000"],
    )
    def test_count_past_the_float_range_is_an_unsupported_design(self, n, shown_n, exact):
        # once an OverflowError from 2N R_j, or from the statistic's int / int division
        ranks = cdranks.AverageRanks((2 * n, 4 * n, 6 * n)) if exact else (1.0, 2.0, 3.0)
        message = f"^N={shown_n} datasets unsupported: 2Nk passes the float range$"
        with pytest.raises(UnsupportedDesignError, match=message):
            cdranks.friedman_statistic(ranks, n, 3)

    @pytest.mark.parametrize(
        "df, shown_df", [(10**400, "1" + "0" * 400), (10**5000, "<int of 16610 bits>")],
        ids=["df_1e400", "df_1e5000"],
    )
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda df: cdranks.chi_square_sf(3.0, df), "df"),
            (lambda df: cdranks.f_sf(3.0, df, 5), "d1"),
            (lambda df: cdranks.f_sf(3.0, 5, df), "d2"),
        ],
        ids=["chi2_df", "f_d1", "f_d2"],
    )
    def test_df_past_the_float_range_is_an_unsupported_design(self, call, name, df, shown_df):
        # once an OverflowError from df / 2.0 or d1 * x
        message = f"^{name}={shown_df} unsupported: it passes the float range$"
        with pytest.raises(UnsupportedDesignError, match=message):
            call(df)

    @pytest.mark.parametrize("container", [tuple, list], ids=["exact_sums", "exact_sums_list"])
    def test_count_at_the_float_range_edge(self, container):
        # every dataset ranks alike, so chi2 = N(k - 1); 2Nk = 1.5 * 2^1023 fits a float, 3 * 2^1023 does not
        def ranks(n):
            return cdranks.AverageRanks(container((2 * n, 4 * n, 6 * n)))

        assert cdranks.friedman_statistic(ranks(10**307), 10**307, 3) == float(2 * 10**307)
        assert cdranks.friedman_statistic(ranks(2**1021), 2**1021, 3) == 2.0**1022
        with pytest.raises(UnsupportedDesignError, match="2Nk passes the float range$"):
            cdranks.friedman_statistic(ranks(2**1022), 2**1022, 3)


# Ints of every kind a caller may pass: small, past int64 and the float range, numpy and bool.
_INTS = st.one_of(
    st.integers(-3, 1100),
    st.integers(-(10**400), 10**400),
    st.sampled_from([2**53 + 1, 2**63, 10**9, 10**15, 10**308, 10**309, 10**5000, -(10**5000)]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
_REALS = st.one_of(st.floats(), st.floats(0.0, 2e3), st.floats(1e-6, 1.0), _INTS)
_RANKS = st.one_of(
    st.lists(_REALS, max_size=6),
    st.integers(3, 6).flatmap(lambda k: st.permutations([float(j) for j in range(1, k + 1)])),
)
# The sums 2 N r_j of N >= 1 datasets that all rank a permutation r of 1..k alike: valid AverageRanks
_ALIKE = st.tuples(
    st.integers(2, 6).flatmap(lambda k: st.permutations(range(1, k + 1))),
    st.one_of(st.integers(1, 1100), st.integers(1, 10**400), st.sampled_from([2**63, 10**308, 10**5000])),
)
# (ranks, N, k): any draw of each, or such AverageRanks with their own N and k, so the statistic, if any, is N(k - 1)
_STATISTIC_ARGS = st.one_of(
    st.tuples(_RANKS, _INTS, _INTS),
    _ALIKE.map(lambda p: (cdranks.AverageRanks(tuple(2 * p[1] * j for j in p[0])), p[1], len(p[0]))),
)


def _bounded(call, *args):
    """``call(*args)`` returns, or raises a CdranksError, within one second; its value, or None if it raised."""
    start = time.perf_counter()
    try:
        value = call(*args)
    except cdranks.CdranksError:
        value = None
    assert time.perf_counter() - start < 1.0, args
    return value


class TestBoundedTime:
    """Each scalar entry point returns or raises a typed error in bounded time, whatever it is given."""

    @settings(max_examples=60, deadline=None)
    @given(x=_REALS, df=_INTS)
    @example(x=1e8, df=10**8)  # the finite sum of df/2 terms ran for more than 20 s
    def test_chi_square_sf(self, x, df):
        p = _bounded(cdranks.chi_square_sf, x, df)
        assert p is None or 0.0 <= p <= 1.0, (x, df, p)

    @settings(max_examples=60, deadline=None)
    @given(x=_REALS, d1=_INTS, d2=_INTS)
    @example(x=1.0, d1=10**9, d2=10**9)
    @example(x=1.0, d1=10**308, d2=10**308)  # lgamma(d/2) raised a bare OverflowError
    @example(x=3.0, d1=5, d2=10**20)  # -0.304: the fraction cancelled at d2 >> d1
    @example(x=0.001, d1=2, d2=10**30)  # 2.0e267
    @example(x=3.8e-05, d1=6, d2=10**64)  # 1.5e224: the flip test rounded both sides to 1
    @example(x=5e-324, d1=1, d2=1)  # a subnormal ratio d1 x / d2
    @example(x=1e-310, d1=3, d2=7)
    def test_f_sf(self, x, d1, d2):
        p = _bounded(cdranks.f_sf, x, d1, d2)
        assert p is None or 0.0 <= p <= 1.0, (x, d1, d2, p)

    @settings(max_examples=60, deadline=None)
    @given(args=_STATISTIC_ARGS)
    @example(args=([1.0, 2.0, 3.0], 10**300, 3))
    @example(args=([0.0, 0.0, 0.0, 1e308], 2, 4))  # round(2N R_j) raised a bare OverflowError
    @example(args=(cdranks.AverageRanks((2 * 10**300, 4 * 10**300, 6 * 10**300)), 10**300, 3))
    def test_friedman_statistic(self, args):
        statistic = _bounded(cdranks.friedman_statistic, *args)
        ranks, n, k = args
        if statistic is not None:
            assert isinstance(ranks, cdranks.AverageRanks) and statistic == float(n * (k - 1)), args

    @settings(max_examples=60, deadline=None)
    @given(sums=st.one_of(
        st.lists(_INTS, max_size=6),
        st.lists(_INTS, max_size=6).map(tuple),
        _ALIKE.map(lambda p: [2 * p[1] * j for j in p[0]]),
        _ALIKE.map(lambda p: tuple(2 * p[1] * j for j in p[0])),
    ))
    @example(sums=(2 * 10**5000, 4 * 10**5000, 6 * 10**5000))  # repr of the sums raised ValueError
    @example(sums=[10**5000, -(10**5000), 12])
    @example(sums=(True, False))
    def test_average_ranks(self, sums):
        start = time.perf_counter()
        try:
            ranks = cdranks.AverageRanks(sums)
        except ValidationError:
            ranks = None
        assert time.perf_counter() - start < 1.0, sums
        if ranks is not None:
            n = sum(ranks.sums) // (len(sums) * (len(sums) + 1))
            assert ranks.sums == tuple(sums) and ranks.r == tuple(s / (2 * n) for s in sums)
            assert repr(ranks) == f"AverageRanks(r={ranks.r!r})"

    @settings(max_examples=60, deadline=None)
    @given(k=_INTS, n=_INTS, alpha=_REALS)
    @example(k=1000, n=2, alpha=1e-5)
    def test_nemenyi_cd(self, k, n, alpha):
        _bounded(cdranks.nemenyi_cd, k, n, alpha)

    @settings(max_examples=60, deadline=None)
    @given(k=_INTS, alpha=_REALS)
    def test_q_alpha(self, k, alpha):
        _bounded(cdranks.q_alpha, k, alpha)

    @settings(max_examples=60, deadline=None)
    @given(n=_INTS, k=_INTS, effect=st.one_of(_RANKS, _REALS, st.none()), noise_sd=_REALS, trials=_INTS,
           seed=_INTS, alpha=_REALS)
    def test_sim_config(self, n, k, effect, noise_sd, trials, seed, alpha):
        _bounded(cdranks.SimConfig, n, k, effect, noise_sd, trials, seed, alpha)


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
        # the package's modules, and the tests with the scripts beside them
        folders = (Path(cdranks.__file__).parent, Path(__file__).parent)
        modules = [p for folder in folders for p in sorted(folder.glob("*.py"))]
        assert {p.parent for p in modules} == set(folders)
        unused = {f"{p.parent.name}/{p.name}": _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
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
