"""Regenerate the bundled 31x8 fixture, its golden SVG and the simulate goldens.

Run from the repository root::

    python3 tests/fixtures/make_fixtures.py

``main(out_dir)`` writes the same seven files into another directory, which
is how the test suite checks that the checked-in goldens are what this
script makes.

Two algorithms x four feature sets over 31 courses.  The clickstream models
are planted far above the rest (their rank gap to every other model exceeds
the critical difference at alpha = 0.05), while the remaining six stay in
one indistinguishable band, so the diagram carries exactly two bars.

The simulate goldens pin the exact JSON bytes of one Type-I study and one
power study at fixed seeds; ``SIMULATE_GOLDENS`` maps each file to the
``cdranks`` arguments that produce it.

The long golden pins the ``analyze`` report of ``results_long.csv``, a
long-format file in shuffled row order with CRLF line endings, blank and
whitespace-only rows, padded and quoted fields, 2 to 5 folds per cell, two
tied cells, and one incomplete dataset that ``--drop-incomplete`` removes.
That file and ``manifest_long.json`` are kept as checked in; this script
only rewrites the report.  ``LONG_GOLDENS`` maps it to its arguments.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cdranks import average_ranks, cli, nemenyi_cd, parse_wide_csv
from cdranks.ranks import doubled_ranks

HERE = Path(__file__).parent
SEED = 20260815

MODELS = [
    ("cart_clickstream", "cart", "clickstream", 0.930),
    ("adaboost_clickstream", "adaboost", "clickstream", 0.910),
    ("cart_assignment", "cart", "assignment", 0.7125),
    ("adaboost_assignment", "adaboost", "assignment", 0.7115),
    ("cart_forum", "cart", "forum", 0.7110),
    ("adaboost_forum", "adaboost", "forum", 0.7100),
    ("cart_full", "cart", "full", 0.7130),
    ("adaboost_full", "adaboost", "full", 0.7120),
]
N_DATASETS = 31
NOISE_SD = 0.01

SIMULATE_GOLDENS = {
    "simulate_null.json": [
        "simulate", "--n", "31", "--k", "8", "--trials", "4000", "--seed", "20261017",
    ],
    "simulate_power.json": [
        "simulate", "--n", "24", "--k", "6", "--trials", "3000", "--seed", "515",
        "--effect", "0.8,0.4,0.2,0,0,0", "--alpha", "0.1",
    ],
}

LONG_GOLDENS = {
    "report_long.json": [
        "analyze", str(HERE / "results_long.csv"),
        "--manifest", str(HERE / "manifest_long.json"),
        "--drop-incomplete", "--summarize-tag", "feature_set",
    ],
}


def build_csv() -> str:
    rng = np.random.default_rng(SEED)
    means = np.array([m[3] for m in MODELS])
    values = np.round(means + NOISE_SD * rng.standard_normal((N_DATASETS, len(MODELS))), 4)
    lines = ["dataset," + ",".join(m[0] for m in MODELS)]
    for i in range(N_DATASETS):
        lines.append(f"course_{i + 1:02d}," + ",".join(f"{v:.4f}" for v in values[i]))
    return "\n".join(lines) + "\n"


def check_planted_structure(csv_text: str) -> None:
    matrix = parse_wide_csv(csv_text)
    doubled = [doubled_ranks(row.tolist(), "maximize") for row in matrix.rows()]
    avg = average_ranks(matrix).r
    cd = nemenyi_cd(len(MODELS), N_DATASETS, 0.05)
    click, rest = avg[:2], avg[2:]
    # doubled ranks: rank 2 is 4
    assert all(max(row[:2]) <= 4 for row in doubled), "clickstream models must rank top-2 everywhere"
    assert min(rest) - max(click) >= cd, "planted cross-tag gap must exceed the CD"
    assert max(rest) - min(rest) < cd, "the six remaining models must form one band"
    assert max(click) - min(click) < cd, "the clickstream pair must form one band"


def main(out_dir: Path = HERE) -> None:
    out_dir = Path(out_dir)
    csv_text = build_csv()
    check_planted_structure(csv_text)
    (out_dir / "results_31x8.csv").write_text(csv_text, encoding="utf-8")

    manifest = {
        "metric_name": "accuracy",
        "direction": "maximize",
        "alpha": 0.05,
        "models": [
            {"label": label, "tags": {"algorithm": algo, "feature_set": feats}}
            for label, algo, feats, _ in MODELS
        ],
    }
    (out_dir / "manifest_31x8.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )

    report_path = out_dir / "report_31x8.json"
    rc = cli.main(
        [
            "analyze",
            str(out_dir / "results_31x8.csv"),
            "--manifest",
            str(out_dir / "manifest_31x8.json"),
            "--summarize-tag",
            "feature_set",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0, f"analyze failed with exit code {rc}"
    rc = cli.main(["diagram", str(report_path), "--out", str(out_dir / "golden_cd.svg")])
    assert rc == 0, f"diagram failed with exit code {rc}"
    for name, argv in {**SIMULATE_GOLDENS, **LONG_GOLDENS}.items():
        rc = cli.main([*argv, "--out", str(out_dir / name)])
        assert rc == 0, f"{name}: {argv[0]} failed with exit code {rc}"
    print("fixtures written to", out_dir)


if __name__ == "__main__":
    main()
