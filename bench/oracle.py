"""Output checks for the benchmark, computed independently of cdranks.

Every check returns a list of problems; an empty list means the output is
correct.  The oracles use numpy and scipy only, never the package under
test, so a bug in cdranks cannot hide by also being in the reference.

On inputs with ties the Friedman statistic itself is not checked: whether it
carries the tie correction is the program's choice, and the benchmark must
not freeze either form.  Its p-value must still match the reported df.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import stats

RANK_TOL = 1e-9
STAT_RTOL = 1e-9
P_RTOL = 1e-8
# The program serves q_alpha from a table rounded to six decimals.
CD_RTOL = 1e-6
# Two independent binomial estimates of one rate must agree to this many
# standard errors of their difference.
RATE_Z = 5.0


def average_ranks(matrix: np.ndarray) -> np.ndarray:
    """Column means of per-row mid-ranks, rank 1 = largest value."""
    return stats.rankdata(-matrix, axis=1, method="average").mean(axis=0)


def tied_rows(matrix: np.ndarray) -> int:
    s = np.sort(matrix, axis=1)
    return int(np.any(s[:, 1:] == s[:, :-1], axis=1).sum())


def q_alpha(k: int, alpha: float) -> float:
    """(1 - alpha) quantile of the infinite-df studentized range over sqrt(2)."""
    return float(stats.studentized_range.ppf(1.0 - alpha, k, np.inf)) / math.sqrt(2.0)


def critical_difference(k: int, n: int, alpha: float) -> float:
    return q_alpha(k, alpha) * math.sqrt(k * (k + 1) / (6.0 * n))


def significant_pairs(ranks: dict, cd: float) -> set:
    labels = sorted(ranks)
    return {
        frozenset((a, b))
        for i, a in enumerate(labels)
        for b in labels[i + 1:]
        if abs(ranks[a] - ranks[b]) >= cd
    }


def groups(ranks: dict, cd: float) -> set:
    """Maximal runs of rank-sorted models whose spread stays below the CD."""
    order = sorted(ranks, key=lambda label: ranks[label])
    runs = []
    for start in range(len(order)):
        end = start
        while end + 1 < len(order) and ranks[order[end + 1]] - ranks[order[start]] < cd:
            end += 1
        runs.append((start, end))
    maximal = [
        (s, e) for s, e in runs
        if not any(s2 <= s and e <= e2 and (s2, e2) != (s, e) for s2, e2 in runs)
    ]
    return {frozenset(order[s:e + 1]) for s, e in maximal}


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def check_report(
    report: dict,
    matrix: np.ndarray,
    labels: tuple,
    *,
    variant: str,
    alpha: float,
    tags: "dict | None" = None,
) -> list:
    """Check an ``analyze`` report against the input matrix.

    ``matrix`` is N x k in ``labels`` order with larger values better.
    ``tags`` maps each label to its value of the summarized tag, when the
    report was asked for tag summaries.
    """
    problems = []
    n, k = matrix.shape
    entries = report.get("average_ranks", [])
    got = {e.get("label"): e.get("rank") for e in entries}
    if sorted(got) != sorted(labels) or len(entries) != k:
        return [f"report lists models {sorted(got)}, expected {sorted(labels)}"]
    expected = dict(zip(labels, average_ranks(matrix).tolist()))
    for label in labels:
        if not _close(got[label], expected[label], 0.0, RANK_TOL):
            problems.append(f"rank of {label}: {got[label]!r}, expected {expected[label]!r}")
    order = [e["label"] for e in entries]
    if order != sorted(order, key=lambda label: (got[label], label)):
        problems.append("average_ranks are not listed best rank first")
    if report.get("n_datasets") != n:
        problems.append(f"n_datasets {report.get('n_datasets')!r}, expected {n}")
    if report.get("alpha") != alpha:
        problems.append(f"alpha {report.get('alpha')!r}, expected {alpha}")
    if report.get("variant") != variant:
        problems.append(f"variant {report.get('variant')!r}, expected {variant}")

    stat, df, p = report.get("statistic"), report.get("df"), report.get("p_value")
    if df != k - 1:
        return problems + [f"df {df!r}, expected {k - 1}"]
    if variant == "iman_davenport":
        df2 = (k - 1) * (n - 1)
        if report.get("df2") != df2:
            return problems + [f"df2 {report.get('df2')!r}, expected {df2}"]
        p_expected = float(stats.f.sf(stat, df, df2))
    else:
        p_expected = float(stats.chi2.sf(stat, df))
    if not _close(p, p_expected, P_RTOL, 1e-300):
        problems.append(f"p_value {p!r} is not the survival function at {stat!r}: {p_expected!r}")
    if tied_rows(matrix) == 0:
        chi2 = float(stats.friedmanchisquare(*matrix.T).statistic)
        if variant == "iman_davenport":
            chi2 = (n - 1) * chi2 / (n * (k - 1) - chi2)
        if not _close(stat, chi2, STAT_RTOL):
            problems.append(f"statistic {stat!r}, expected {chi2!r}")
    reject = p < alpha
    if report.get("reject_null") is not reject or report.get("posthoc_licensed") is not reject:
        problems.append("reject_null / posthoc_licensed disagree with p_value < alpha")

    cd = report.get("cd")
    cd_expected = critical_difference(k, n, alpha)
    if not _close(cd, cd_expected, CD_RTOL):
        problems.append(f"cd {cd!r}, expected {cd_expected!r}")
    pairs = {frozenset(p) for p in report.get("significant_pairs", [])}
    if pairs != significant_pairs(got, cd):
        problems.append("significant_pairs do not follow from the ranks and the CD")
    if {frozenset(g) for g in report.get("groups", [])} != groups(got, cd):
        problems.append("groups do not follow from the ranks and the CD")
    if tags is not None:
        problems += _check_tag_summaries(report.get("tag_summaries"), got, pairs, tags)
    return problems


def _check_tag_summaries(summaries, ranks: dict, pairs: set, tags: dict) -> list:
    if not isinstance(summaries, list):
        return ["report has no tag_summaries"]
    members = {}
    for label, value in tags.items():
        members.setdefault(value, []).append(label)

    def separated(a, b):
        return all(frozenset((x, y)) in pairs for x in members[a] for y in members[b])

    problems = []
    if sorted(s.get("tag_value") for s in summaries) != sorted(members):
        return [f"tag_summaries cover {[s.get('tag_value') for s in summaries]}"]
    for s in summaries:
        value = s["tag_value"]
        mine = [ranks[label] for label in members[value]]
        others = sorted(o for o in members if o != value and separated(value, o))
        if sorted(s.get("members", [])) != sorted(members[value]):
            problems.append(f"tag {value}: members {s.get('members')}")
        if not _close(s.get("mean_rank"), math.fsum(mine) / len(mine), 1e-12):
            problems.append(f"tag {value}: mean_rank {s.get('mean_rank')!r}")
        if s.get("best_rank") != min(mine):
            problems.append(f"tag {value}: best_rank {s.get('best_rank')!r}")
        if s.get("separated_from") != others:
            problems.append(f"tag {value}: separated_from {s.get('separated_from')}")
        if s.get("fully_separated") is not (len(others) == len(members) - 1):
            problems.append(f"tag {value}: fully_separated {s.get('fully_separated')!r}")
    order = [(s["mean_rank"], s["tag_value"]) for s in summaries]
    if order != sorted(order):
        problems.append("tag_summaries are not sorted best mean rank first")
    return problems


def check_svg(svg: bytes, report: dict) -> list:
    """Check the diagram's structure against the report it was drawn from."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    counts = {}
    label_texts = []
    annotated = False
    for el in root.iter():
        cls = el.get("class")
        counts[cls] = counts.get(cls, 0) + 1
        if cls == "label":
            label_texts.append(el.text or "")
        annotated |= cls == "annotation"
    labels = [e["label"] for e in report["average_ranks"]]
    k = len(labels)
    ranks = {e["label"]: e["rank"] for e in report["average_ranks"]}
    bars = sum(1 for g in groups(ranks, report["cd"]) if len(g) > 1)
    problems = []
    for cls, want in (("axis", 1), ("cd-bracket", 1), ("cd-label", 1), ("tick", k),
                      ("stem", k), ("label", k), ("bar", bars)):
        if counts.get(cls, 0) != want:
            problems.append(f"SVG has {counts.get(cls, 0)} '{cls}' elements, expected {want}")
    for label in labels:
        if not any(t.startswith(label + " (") for t in label_texts):
            problems.append(f"SVG does not label model {label}")
    if annotated == bool(report["posthoc_licensed"]):
        problems.append("SVG annotation disagrees with posthoc_licensed")
    return problems


def reference_rates(n: int, k: int, effect: tuple, trials: int, alpha: float, seed: int):
    """The harness's own Monte Carlo of the procedure: omnibus and pairwise rates.

    It draws from a different stream than the program, so the two estimates
    agree only statistically.
    """
    rng = np.random.default_rng([seed, 3])
    x = np.asarray(effect) + rng.standard_normal((trials, n, k))
    r = stats.rankdata(-x, axis=2).mean(axis=1)
    chi2 = 12.0 * n / (k * (k + 1.0)) * ((r - (k + 1) / 2.0) ** 2).sum(axis=1)
    omnibus = float((stats.chi2.sf(chi2, k - 1) < alpha).mean())
    cd = critical_difference(k, n, alpha)
    pairwise = (np.abs(r[:, :, None] - r[:, None, :]) >= cd).mean(axis=0)
    return omnibus, pairwise


def _rates_agree(a: float, b: float, trials: int) -> bool:
    pooled = (a + b) / 2.0
    se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
    return abs(a - b) <= RATE_Z * se if se > 0 else a == b


def _wilson(rate: float, trials: int) -> tuple:
    z = float(stats.norm.ppf(0.975))
    denom = 1.0 + z * z / trials
    center = (rate + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(rate * (1.0 - rate) / trials + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


def check_simulate(out: dict, *, n: int, k: int, effect: tuple, trials: int,
                   alpha: float, seed: int) -> list:
    """Check ``simulate`` JSON against its config and the harness's own Monte Carlo."""
    problems = []
    cfg = out.get("config", {})
    want = {"n_datasets": n, "n_models": k, "effect": list(effect), "noise_sd": 1.0,
            "trials": trials, "seed": seed, "alpha": alpha}
    if cfg != want or out.get("trials") != trials:
        return [f"simulate config {cfg!r}, expected {want!r}"]
    null = all(e == 0 for e in effect)
    rate = out.get("rejection_rate" if null else "omnibus_rate")
    if not isinstance(rate, float) or not 0.0 <= rate <= 1.0:
        return [f"rejection rate {rate!r} is not a proportion"]
    if abs(rate * trials - round(rate * trials)) > 1e-6:
        problems.append(f"rejection rate {rate!r} is not a count over {trials} trials")
    lo, hi = _wilson(rate, trials)
    if not (_close(out.get("ci_low"), lo, 1e-9, 1e-12) and _close(out.get("ci_high"), hi, 1e-9, 1e-12)):
        problems.append("ci_low/ci_high are not the 95% Wilson interval of the rate")
    ref_rate, ref_pairs = reference_rates(n, k, effect, trials, alpha, seed)
    if not _rates_agree(rate, ref_rate, trials):
        problems.append(f"rejection rate {rate} disagrees with the reference {ref_rate}")
    if not null:
        if not _close(out.get("cd"), critical_difference(k, n, alpha), CD_RTOL):
            problems.append(f"cd {out.get('cd')!r} is not q_alpha * sqrt(k(k+1)/6N)")
        det = np.asarray(out.get("pairwise_detection"), dtype=float)
        if det.shape != (k, k) or np.any(np.diag(det) != 0) or np.any(det != det.T):
            problems.append("pairwise_detection is not a symmetric k x k matrix with zero diagonal")
        else:
            for a in range(k):
                for b in range(a + 1, k):
                    if not _rates_agree(float(det[a, b]), float(ref_pairs[a, b]), trials):
                        problems.append(
                            f"pair ({a}, {b}) detection {det[a, b]} disagrees with "
                            f"the reference {ref_pairs[a, b]}"
                        )
    return problems


def load_json(data: bytes) -> "tuple[dict | None, list]":
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, ["output is not a JSON object"]
    return doc, []
