"""Rank-based comparison of models measured over many datasets.

Workflow: build a :class:`PerformanceMatrix` (directly, from CSV, or by
aggregating fold scores), run :func:`friedman_test` for the omnibus
decision, then :func:`nemenyi_test` for pairwise critical-difference
comparisons, and render the result with :func:`layout` + :func:`render_svg`.
:mod:`cdranks.simulate` checks the procedure's error rates by Monte Carlo.
"""

from .diagram import (
    CDBracket,
    DiagramBar,
    DiagramEntry,
    DiagramSpec,
    RenderOptions,
    layout,
    render_svg,
)
from .distributions import (
    SUPPORTED_ALPHAS,
    SUPPORTED_K,
    QTable,
    chi_square_sf,
    f_sf,
    q_alpha,
    q_table,
)
from .errors import (
    CdranksError,
    DegenerateStatisticError,
    DroppedDatasetsWarning,
    IncompleteDesignError,
    SmallSampleWarning,
    UnsupportedDesignError,
    ValidationError,
)
from .ingest import (
    ExperimentManifest,
    TagSummary,
    aggregate_folds,
    apply_manifest,
    matrix_to_wide_csv,
    parse_long_csv,
    parse_manifest,
    parse_wide_csv,
    summarize_by_tag,
)
from .procedure import (
    FriedmanResult,
    NemenyiResult,
    Variant,
    build_report,
    friedman_statistic,
    friedman_test,
    indistinguishable_groups,
    nemenyi_cd,
    nemenyi_test,
    pairwise_significance,
)
from .ranks import (
    AverageRanks,
    Direction,
    ModelId,
    PerformanceMatrix,
    RankMatrix,
    average_ranks,
    rank_matrix,
    rank_row,
)
from .simulate import (
    PowerEstimate,
    SimConfig,
    Type1Estimate,
    estimate_power,
    estimate_type1,
    generate_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AverageRanks",
    "CDBracket",
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
    "QTable",
    "RankMatrix",
    "RenderOptions",
    "SUPPORTED_ALPHAS",
    "SUPPORTED_K",
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
    "matrix_to_wide_csv",
    "nemenyi_cd",
    "nemenyi_test",
    "pairwise_significance",
    "parse_long_csv",
    "parse_manifest",
    "parse_wide_csv",
    "q_alpha",
    "q_table",
    "rank_matrix",
    "rank_row",
    "render_svg",
    "summarize_by_tag",
]
