"""Rank-based comparison of models measured over many datasets.

Workflow: build a :class:`PerformanceMatrix` (directly, from CSV, or by
aggregating fold scores), run :func:`friedman_test` for the omnibus
decision, then :func:`nemenyi_test` for pairwise critical-difference
comparisons, and render the result with :func:`layout` + :func:`render_svg`.
:mod:`cdranks.simulate` checks the procedure's error rates by Monte Carlo.

Each public name is imported from its submodule on first access (PEP 562),
so ``import cdranks`` loads no submodule and each CLI subcommand loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule, listed once per name.
_EXPORTS = {
    name: module
    for module, names in {
        "cd": "SUPPORTED_ALPHAS SUPPORTED_K indistinguishable_groups nemenyi_cd q_alpha",
        "diagram": "CDBracket DiagramBar DiagramEntry DiagramSpec RenderOptions layout render_svg",
        "distributions": "chi_square_sf f_sf",
        "errors": "CdranksError DegenerateStatisticError DroppedDatasetsWarning "
        "IncompleteDesignError SmallSampleWarning UnsupportedDesignError ValidationError",
        "ingest": "ExperimentManifest TagSummary aggregate_folds apply_manifest "
        "parse_long_csv parse_manifest parse_wide_csv summarize_by_tag",
        "procedure": "FriedmanResult NemenyiResult Variant build_report friedman_statistic "
        "friedman_test nemenyi_test pairwise_significance",
        "ranks": "AverageRanks Direction ModelId PerformanceMatrix average_ranks",
        "simulate": "PowerEstimate SimConfig Type1Estimate estimate_power estimate_type1 "
        "generate_matrix",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
