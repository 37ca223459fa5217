"""The omnibus test's error rates, estimated through the CLI over a grid of designs.

Not a test module; run it from the repository root:

    PYTHONPATH=src python3 tests/calibration.py

Each row of ``GRID`` runs ``cli.main(["simulate", "--n", N, "--k", k, "--trials",
TRIALS, "--seed", SEED, *flags])`` in-process, and the runner prints one markdown
table with the rejection rate, its 95% Wilson interval and the trials of each
row. Every row uses 20000 trials at seed 1. The README's calibration section is
this table, and ``tests/test_simulate.py`` reruns it and compares the bytes.
A study with more flags adds them to its rows of the grid.
"""

from __future__ import annotations

import contextlib
import io
import json

from cdranks import cli

TRIALS, SEED = 20000, 1  # the README's table
# (N datasets, k models, extra simulate flags): the chi-square form's null rate at alpha = 0.05
GRID = (
    (5, 4, ()),
    (10, 6, ()),
    (14, 5, ()),
    (31, 8, ()),
    (50, 10, ()),
)


def estimate(n: int, k: int, flags: tuple) -> dict:
    """The JSON that ``cdranks simulate`` prints for one design."""
    argv = ["simulate", "--n", str(n), "--k", str(k), "--trials", str(TRIALS), "--seed", str(SEED), *flags]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        if cli.main(argv) != 0:
            raise RuntimeError(f"simulate failed: {argv}")
    return json.loads(out.getvalue())


def table() -> str:
    """The markdown table of every ``GRID`` row's rate, its 95% Wilson interval and the trials."""
    lines = ["| N | k | flags | rate | 95% Wilson interval | trials |", "| -: | -: | --- | -: | :-: | -: |"]
    for n, k, flags in GRID:
        study = estimate(n, k, flags)
        rate = 100 * study["rejection_rate"]
        interval = f"{100 * study['ci_low']:.2f}–{100 * study['ci_high']:.2f}%"
        lines.append(f"| {n} | {k} | {' '.join(flags) or '—'} | {rate:.2f}% | {interval} | {study['trials']} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(table(), end="")
