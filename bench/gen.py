"""Seeded input generators for the benchmark workloads.

Each generator returns the exact bytes the CLI will read plus the values the
harness oracle needs.  The same seed always gives byte-identical files: the
values come from numpy's PCG64 stream and are written with ``repr``, which
round-trips every double exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

WIDE_DATASETS = 31
# Two algorithms x four feature sets, as in the paper's running example.  The
# clickstream models sit well above the rest, so the omnibus test rejects and
# the diagram has both separated models and an indistinguishable band.
WIDE_MODELS = (
    ("cart_clickstream", "cart", "clickstream", 0.930),
    ("adaboost_clickstream", "adaboost", "clickstream", 0.910),
    ("cart_assignment", "cart", "assignment", 0.7125),
    ("adaboost_assignment", "adaboost", "assignment", 0.7115),
    ("cart_forum", "cart", "forum", 0.7110),
    ("adaboost_forum", "adaboost", "forum", 0.7100),
    ("cart_full", "cart", "full", 0.7130),
    ("adaboost_full", "adaboost", "full", 0.7120),
)
WIDE_NOISE_SD = 0.01
SUMMARIZE_TAG = "feature_set"

LONG_DATASETS = 1000
LONG_MODELS = 20
LONG_FOLDS = 10
# Discrete datasets hold accuracies on a 50-example test fold, so each fold
# score is a multiple of 1/50 and most aggregated rows carry ties.
DISCRETE_TEST_SIZE = 50
LONG_NOISE_SD = 0.05


@dataclass(frozen=True)
class Inputs:
    """One workload's input files and the matrix the oracle ranks.

    ``matrix`` is N x k in manifest column order, larger is better, holding
    the fold means exactly as the program must aggregate them.
    """

    csv: str
    manifest: str
    labels: tuple
    matrix: np.ndarray

    def digests(self) -> dict:
        return {"csv_sha256": sha256(self.csv), "manifest_sha256": sha256(self.manifest)}


def sha256(text: "str | bytes") -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _manifest(models: list) -> str:
    doc = {"metric_name": "accuracy", "direction": "maximize", "alpha": 0.05, "models": models}
    return json.dumps(doc, indent=2) + "\n"


def wide_inputs(seed: int) -> Inputs:
    """31 datasets x 8 models of continuous, tie-free scores, plus a tagged manifest.

    Column and row order in the CSV are shuffled by the seed, so the program
    must reorder columns to the manifest and sort datasets itself.
    """
    rng = np.random.default_rng([seed, 1])
    means = np.array([m[3] for m in WIDE_MODELS])
    values = means + WIDE_NOISE_SD * rng.standard_normal((WIDE_DATASETS, len(WIDE_MODELS)))
    for row in values:
        if len(set(row.tolist())) != len(row):
            raise RuntimeError(f"seed {seed} drew a tied row; tie-free input is required")
    datasets = [f"course_{i + 1:02d}" for i in range(WIDE_DATASETS)]
    cols = rng.permutation(len(WIDE_MODELS))
    rows = rng.permutation(WIDE_DATASETS)

    lines = ["dataset," + ",".join(WIDE_MODELS[j][0] for j in cols)]
    for i in rows:
        lines.append(datasets[i] + "," + ",".join(repr(float(values[i, j])) for j in cols))
    manifest = _manifest(
        [{"label": label, "tags": {"algorithm": algo, SUMMARIZE_TAG: feat}}
         for label, algo, feat, _ in WIDE_MODELS]
    )
    return Inputs(
        csv="\n".join(lines) + "\n",
        manifest=manifest,
        labels=tuple(m[0] for m in WIDE_MODELS),
        matrix=values,
    )


def long_inputs(seed: int) -> Inputs:
    """1000 datasets x 20 models x 10 folds in long CSV (200k rows).

    Even-numbered datasets hold continuous scores; odd-numbered ones hold
    discrete accuracies (multiples of 1/50).  Rows are written dataset by
    dataset, model by model, fold by fold.
    """
    rng = np.random.default_rng([seed, 2])
    n, k, f = LONG_DATASETS, LONG_MODELS, LONG_FOLDS
    means = 0.70 + 0.004 * np.arange(k)
    continuous = means[:, None] + LONG_NOISE_SD * rng.standard_normal((n, k, f))
    counts = rng.binomial(DISCRETE_TEST_SIZE, np.broadcast_to(means[:, None], (n, k, f)))
    discrete = counts / DISCRETE_TEST_SIZE
    is_discrete = (np.arange(n) % 2 == 1)[:, None, None]
    folds = np.where(is_discrete, discrete, continuous)

    labels = tuple(f"model_{j + 1:02d}" for j in range(k))
    datasets = [f"ds_{i + 1:04d}" for i in range(n)]
    fold_ids = [f"f{q}" for q in range(f)]
    text = folds.tolist()
    lines = ["dataset,model,fold,value"]
    for i, d in enumerate(datasets):
        for j, label in enumerate(labels):
            prefix = f"{d},{label},"
            lines.extend(prefix + fold_ids[q] + "," + repr(v) for q, v in enumerate(text[i][j]))
    matrix = np.array([[math.fsum(cell) / f for cell in row] for row in text])
    manifest = _manifest([{"label": label} for label in labels])
    return Inputs(csv="\n".join(lines) + "\n", manifest=manifest, labels=labels, matrix=matrix)
