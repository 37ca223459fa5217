"""Performance matrices and their conversion to per-dataset ranks.

A :class:`PerformanceMatrix` holds one metric value per (dataset, model)
cell.  Ranking happens within each dataset row (rank 1 = best, ties get
mid-ranks), and :func:`average_ranks` averages those rows into the per-model
average ranks that the omnibus test consumes.  Mid-ranks are integers or
halves, so a row is ranked in doubled ranks, which are ints: column sums are
exact, and each average rank is one correctly rounded int / int division.
The module needs only the standard library.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum

from .errors import ValidationError, _Record, check_choice, check_label, check_models, check_reals, check_unique


class Direction(str, Enum):
    """Whether larger or smaller metric values are better."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"

    @classmethod
    def parse(cls, value: "str | Direction") -> "Direction":
        return check_choice(cls, value, "direction")


class ModelId(_Record):
    """A compared model: a display label plus free-form metadata tags.

    Tags encode the dimensions varied across models, e.g.
    ``{"feature_set": "clickstream", "algorithm": "adaboost"}``, so that
    results can later be summarized per tag value.  Tags map strings to strings.
    """

    label: str
    tags: Mapping[str, str] = {}  # never stored: __post_init__ stores a copy

    def __post_init__(self):
        check_label(self.label)
        if not isinstance(self.tags, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.tags.items()
        ):
            raise ValidationError(f"model {self.label!r}: tags must map strings to strings")
        object.__setattr__(self, "tags", dict(self.tags))


class PerformanceMatrix(_Record):
    """An N x k block of metric values: one row per dataset, one column per model.

    Invariants enforced at construction: at least one dataset row, at least
    three model columns, every cell finite, unique dataset ids and model
    labels.  ``values`` may be any N x k nested sequence of reals, a numpy
    array included; it is stored as a tuple of row tuples of floats, so
    instances are immutable and safe to share across threads.
    """

    datasets: tuple
    models: tuple
    values: tuple
    direction: Direction = Direction.MAXIMIZE

    def __post_init__(self):
        datasets = tuple(self.datasets)
        models = tuple(self.models)
        message = "values must be a 2-dimensional block of reals"
        try:
            values = tuple(check_reals(row, message) for row in self.values)
        except TypeError:  # values is not iterable
            values = None
        if values is None or len(set(map(len, values))) > 1:
            raise ValidationError(message)
        direction = Direction.parse(self.direction)

        n = len(values)
        if len(datasets) != n:
            raise ValidationError(f"{len(datasets)} dataset ids for {n} rows")
        if n < 1:
            raise ValidationError("at least one dataset row is required")
        k = len(values[0])
        if len(models) != k:
            raise ValidationError(f"{len(models)} models for {k} columns")
        check_models(k)
        check_unique(datasets, "duplicate dataset id(s)")
        labels = [m.label for m in models]
        check_unique(labels, "duplicate model label(s)")
        for i, row in enumerate(values):
            if not all(map(math.isfinite, row)):
                j = next(j for j, v in enumerate(row) if not math.isfinite(v))
                raise ValidationError(
                    f"non-finite value at dataset {datasets[i]!r}, model {labels[j]!r}"
                )

        object.__setattr__(self, "datasets", datasets)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "direction", direction)

    @property
    def n_datasets(self) -> int:
        return len(self.values)

    @property
    def k(self) -> int:
        return len(self.models)

    @property
    def labels(self) -> tuple:
        return tuple(m.label for m in self.models)


class AverageRanks(_Record):
    """The exact doubled rank sums 2S_j of k models over N datasets, and ``r``: each 2S_j / (2N), rounded once.

    Equality reads ``sums``, the one field; the repr shows ``r``, as a sum may pass repr's int-digit limit.
    """

    sums: tuple

    def __post_init__(self):
        sums = tuple(self.sums) if isinstance(self.sums, (tuple, list)) else ()
        k = len(sums)  # N is the total over k(k+1); bools and numpy ints are no ints here
        n, rest = divmod(sum(sums), k * (k + 1)) if k >= 2 and all(type(s) is int for s in sums) else (0, 1)
        if rest or n < 1 or not all(2 * n <= s <= 2 * n * k for s in sums):
            raise ValidationError("average ranks need k >= 2 int rank sums 2S_j in [2N, 2Nk] totalling N k(k+1)")
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "r", tuple(s / (2 * n) for s in sums))

    def __repr__(self) -> str:
        return f"AverageRanks(r={self.r!r})"

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, j: int) -> float:
        return self.r[j]


def doubled_ranks(row, direction: "str | Direction") -> list:
    """Twice the mid-ranks of one row, as ints (rank 1 = best).

    The values in sorted positions i..j (0-based) that tie share the
    mid-rank (i + j)/2 + 1, so they get the int i + j + 2.  Equal to
    ``simulate.doubled_midranks`` of the row, negated under ``maximize``.
    """
    descending = Direction.parse(direction) is Direction.MAXIMIZE
    order = sorted(range(len(row)), key=row.__getitem__, reverse=descending)
    out = [0] * len(row)
    first = 0
    for pos, j in enumerate(order):
        if pos + 1 == len(order) or row[order[pos + 1]] != row[j]:
            for tied in order[first : pos + 1]:
                out[tied] = first + pos + 2
            first = pos + 1
    return out


def average_ranks(m: PerformanceMatrix) -> AverageRanks:
    """Average the per-dataset ranks into one rank per model (lower = better).

    The exact doubled rank sums are counted here; AverageRanks divides each by 2N.
    """
    rows = (doubled_ranks(row, m.direction) for row in m.values)
    return AverageRanks(tuple(map(sum, zip(*rows))))
