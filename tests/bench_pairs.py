"""Alternating parent/change pairs of the benchmark, summarised into one ``BENCH_<n>.json``.

Not a test module; run it from the repository root:

    python3 tests/bench_pairs.py --parent HEAD --seeds 1 2 3 --out BENCH_<n>.json
    python3 tests/bench_pairs.py --parent HEAD~1 --seeds 7 --seconds 5 --workdir /tmp/pairs

It exports the parent commit's tree with ``git archive`` and copies the
working tree's files (tracked and untracked, not ignored) for the change.
For each seed it runs ``bench/run.py --workload all --seconds S --seed N`` in
both trees, one after the other, the parent first on even pairs and the
change first on odd ones, and reads each side's
``bench/results/<workload>-seed<N>-trace0.json``.  The output file holds the
parent commit, the machine the bench records, each pair's end-to-end metrics,
``correct``, ``failed``, ``outputs_sha256`` and ``src_lines`` per side and
workload, and a summary per workload and metric: both medians, the parent's
quartiles, and in how many pairs the change was lower.  The bench itself is
run as it stands; nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analyze", "simulate")
METRICS = ("setup_s", "cli_p50_s", "peak_rss_mb")  # BENCHMARK.json's end-to-end metrics, each lower-better


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export_parent(ref: str, dest: Path) -> str:
    """Write ``ref``'s tree into ``dest`` with ``git archive``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").strip()
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy every tracked or untracked, not ignored, file that exists into ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def read_side(tree: Path, seed: int) -> dict:
    """{workload: what one side's results file says}, from ``tree``'s bench/results."""
    side = {}
    for workload in WORKLOADS:
        result = json.loads((tree / "bench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
        side[workload] = {
            **{metric: result["metrics"][metric] for metric in METRICS},
            "correct": not result["problems"],
            "failed": result["failed"],
            "outputs_sha256": result["outputs_sha256"],
            "src_lines": result["metadata"]["src_lines"],
        }
    return side


def run_side(tree: Path, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", "all", "--seconds", repr(seconds), "--seed", str(seed)]
    print(f"seed {seed}: {tree.name}", file=sys.stderr, flush=True)
    subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL, check=True)
    return read_side(tree, seed)


def summarise(pairs: list) -> dict:
    """Per workload and metric: both medians, the parent's q1 and q3, and how often the change was lower.

    Quartiles are ``statistics.quantiles(..., method="inclusive")``; with one pair both are its value.
    """
    summary = {}
    for workload in WORKLOADS:
        rows = {}
        for metric in METRICS:
            parent = [pair["parent"][workload][metric] for pair in pairs]
            change = [pair["change"][workload][metric] for pair in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
            rows[metric] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_q1": q1,
                "parent_q3": q3,
                "change_lower_in": sum(c < p for p, c in zip(parent, change)),
                "of": len(pairs),
            }
        sides = [pair[side][workload] for pair in pairs for side in ("parent", "change")]
        rows["outputs_equal_in"] = sum(
            pair["parent"][workload]["outputs_sha256"] == pair["change"][workload]["outputs_sha256"] for pair in pairs
        )
        rows["all_correct"] = all(s["correct"] and s["failed"] == 0 for s in sides)
        summary[workload] = rows
    return summary


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent commit (default HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workdir", type=Path, help="where the two trees go (default: a temporary folder)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        parent_tree, change_tree = work / "parent", work / "change"
        for tree in (parent_tree, change_tree):
            shutil.rmtree(tree, ignore_errors=True)
        commit = export_parent(args.parent, parent_tree)
        copy_working_tree(change_tree)
        pairs, machine = [], None
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(parent_tree if side == "parent" else change_tree, seed, args.seconds)
            pairs.append(pair)
            if machine is None:
                meta = json.loads((parent_tree / "bench" / "results" / f"analyze-seed{seed}-trace0.json").read_text())
                machine = {key: meta["metadata"][key] for key in ("nproc", "python", "numpy", "scipy")}
            record = {
                "parent": commit,
                "command": f"bench/run.py --workload all --seconds {args.seconds:g} --seed <seed>",
                "machine": machine,
                "pairs": pairs,
                "summary": summarise(pairs),
            }
            # rewritten after every pair, so a cut run keeps the pairs it finished
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
