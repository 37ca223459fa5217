"""Whole reports on messy long CSVs, checked against the benchmark's independent oracle.

Hypothesis draws long CSVs with unequal fold counts, discrete and tied scores,
incomplete datasets, shuffled rows, blank rows (before the header too), CRLF and CR
line ends, a BOM and quoted fields.
Each runs through ``cli.main analyze`` as a user would run it, and the report
is checked key by key by ``bench/oracle.check_report`` (numpy and scipy only,
never cdranks), on fold means taken as ``math.fsum(xs) / len(xs)``.  The
oracle skips the statistic on tied rows; this test checks it there too.
"""

import contextlib
import functools
import importlib.util
import io
import json
import math
import random
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cdranks import DroppedDatasetsWarning, SmallSampleWarning
from cdranks.cli import main

_spec = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# one scipy quantile takes a few ms, and a run of examples asks for few (k, alpha) pairs
_cached_q_alpha = functools.lru_cache(maxsize=None)(oracle.q_alpha)

ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.25)
STEPS = (None, 2, 10, 50)  # continuous scores, or scores rounded to 1/2, 1/10, 1/50


@st.composite
def messy_runs(draw):
    """A long CSV's text, its manifest, the analyze flags, the N x k fold-mean matrix (larger
    better, manifest order) of the datasets that stay, the labels, their tags, the summarized
    tag key, and whether a dataset is dropped.

    Hypothesis draws the design; a seeded generator draws the many scores and the row order,
    which is faster by far than a hypothesis draw per score.
    """
    n, k = draw(st.integers(2, 40)), draw(st.integers(3, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    comma = draw(st.booleans())  # labels that only a quoted CSV field can hold
    # manifest order is not label order, so ties in average rank must be broken by label
    labels = rng.sample([f"m,{j}" if comma else f"m{j}" for j in range(k)], k)
    width = draw(st.integers(1, k))  # two tag keys, crossed as far as k allows
    tags = [{"algorithm": f"a{j // width}", "feature_set": f"f{j % width}"} for j in range(k)]
    step = draw(st.sampled_from(STEPS))
    p_tied, p_missing = draw(st.sampled_from([0.0, 0.2, 1.0])), draw(st.sampled_from([0.0, 0.1, 0.5]))
    # model effects in noise SDs: none, or large enough that pairs and groups split
    spread = draw(st.sampled_from([0.0, 0.5, 2.0]))
    effects = [rng.gauss(0.0, spread) for _ in range(k)]

    def score(j):
        x = effects[j] + rng.gauss(0.0, 1.0)
        return x if step is None else round(x * step) / step

    rows, means, complete = [], [], []
    for i in range(n):
        tied = rng.random() < p_tied  # every fold of every model alike
        constant = score(0)
        # at most two of k >= 3 models, so the dataset still appears and must be dropped
        missing = set(rng.sample(range(k), rng.randint(1, 2))) if rng.random() < p_missing else set()
        row = []
        for j in range(k):
            folds = rng.randint(1, 5)
            scores = [constant if tied else score(j) for _ in range(folds)]
            row.append(math.fsum(scores) / folds)
            if j not in missing:
                rows += [(f"d{i:02d}", labels[j], str(f), repr(s)) for f, s in enumerate(scores)]
        means.append(row)
        complete.append(not missing)

    rng.shuffle(rows)
    quote = draw(st.booleans())
    lines = [",".join(f'"{x}"' if quote or "," in x else x for x in row)
             for row in [("dataset", "model", "fold", "value"), *rows]]
    # blank rows anywhere after the header, and 0-2 before it
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        lines.insert(rng.randint(1, len(lines)), rng.choice(["", ",,,"]))
    lines[:0] = [rng.choice(["", ",,,", "  "]) for _ in range(draw(st.integers(0, 2)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + end

    direction = draw(st.sampled_from(["maximize", "minimize"]))
    alpha = draw(st.sampled_from(ALPHAS))
    manifest = {"metric_name": "score", "direction": direction, "alpha": 0.05,
                "models": [{"label": l, "tags": t} for l, t in zip(labels, tags)]}
    variant = draw(st.sampled_from(["friedman", "iman-davenport"]))
    tag = draw(st.sampled_from([None, "algorithm", "feature_set"]))
    flags = ["--alpha", repr(alpha), "--variant", variant]
    if tag is not None:
        flags += ["--summarize-tag", tag]
    if not all(complete):
        flags.append("--drop-incomplete")

    kept = np.array([r for r, ok in zip(means, complete) if ok], dtype=float).reshape(-1, k)
    if direction == "minimize":
        kept = -kept
    return text, manifest, flags, kept, labels, tags, tag, not all(complete)


def _uncorrected_chi_square(matrix: np.ndarray) -> float:
    """scipy's tie-corrected Friedman chi-square times its tie factor 1 - D / (N(k^3 - k))."""
    n, k = matrix.shape
    d = sum(int((c ** 3 - c).sum()) for c in (np.unique(row, return_counts=True)[1] for row in matrix))
    if d == n * (k ** 3 - k):  # every row tied throughout: all ranks equal, and scipy divides by 0
        return 0.0
    return float(stats.friedmanchisquare(*matrix.T).statistic) * (1 - d / (n * (k ** 3 - k)))


def _degenerate(matrix: np.ndarray) -> bool:
    """Every dataset ranks the models alike, without ties: the F form's denominator is 0."""
    ranks = stats.rankdata(-matrix, axis=1)
    return all(len(set(row)) == len(row) for row in matrix.tolist()) and bool((ranks == ranks[0]).all())


def _analyze(text: str, manifest: dict, flags: list) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        results, manifest_path = Path(tmp) / "results.csv", Path(tmp) / "manifest.json"
        results.write_bytes(text.encode("utf-8"))
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["analyze", str(results), "--manifest", str(manifest_path), *flags])
    return code, out.getvalue(), err.getvalue(), {w.category for w in caught}


@settings(max_examples=120, deadline=None)
@given(run=messy_runs())
def test_report_matches_independent_oracle(run):
    text, manifest, flags, matrix, labels, tags, tag, dropped = run
    variant = flags[flags.index("--variant") + 1].replace("-", "_")
    alpha = float(flags[flags.index("--alpha") + 1])
    n, k = matrix.shape
    code, out, err, categories = _analyze(text, manifest, flags)

    if n < 2 or variant == "iman_davenport" and _degenerate(matrix):
        # nothing left after the drop (2), one dataset left (3), or a zero F denominator (3)
        assert code in (2, 3) and out == ""
        assert err.splitlines()[-1].startswith("error: ")
        return
    assert (code, err) == (0, "")
    expected_warnings = {SmallSampleWarning} if n < 15 else set()
    assert categories == expected_warnings | ({DroppedDatasetsWarning} if dropped else set())

    report = json.loads(out)
    summarized = None if tag is None else {l: t[tag] for l, t in zip(labels, tags)}
    with mock.patch.object(oracle, "q_alpha", _cached_q_alpha):
        problems = oracle.check_report(
            report, matrix, tuple(labels), variant=variant, alpha=alpha, tags=summarized
        )
    assert problems == []
    # The oracle leaves the statistic unchecked on tied rows: today's form is the uncorrected one.
    # An F is compared as the chi-square it came from, chi2 = N(k-1) F / (N-1 + F), which is
    # well conditioned.  scipy subtracts 3N(k+1) from a term near it, so its own error is a few
    # ulps of 3N(k+1).
    stat = report["statistic"]
    chi2 = n * (k - 1) * stat / (n - 1 + stat) if variant == "iman_davenport" else stat
    expected = _uncorrected_chi_square(matrix)
    assert math.isclose(chi2, expected, rel_tol=1e-12, abs_tol=1e-12 * 3 * n * (k + 1))
