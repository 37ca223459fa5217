"""Test oracle: the original per-row long-CSV parser.

``cdranks.ingest.parse_long_csv`` records well-formed rows on a fast path and
sends every other row through the full checks.  This is the straightforward
loop it replaced, kept verbatim but for two rules added since: blank rows
before the header are skipped, and a bad header is named by its own line;
a header whose first field is empty starts with a row index and gets its
own message.  So a differential test can demand the same fold table or the
same error message for any input.  It is not part of the package and is imported only
by the test suite.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import Iterator, Sequence

from cdranks import ValidationError

LONG_HEADER = ("dataset", "model", "fold", "value")

# Plain decimal or scientific notation in ASCII digits only; inf/nan,
# underscores, locale separators and non-ASCII digits (which float() would
# accept) are rejected.
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _parse_value(text: str, where: str) -> float:
    if not _NUMBER_RE.fullmatch(text):
        raise ValidationError(f"{where}: non-numeric value {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"{where}: value {text!r} overflows to non-finite")
    return value


def _rows(text: str) -> Iterator[tuple]:
    """Yield ``(line number, fields)`` per CSV row, blank rows included.

    The line number is that of the row's last physical line.  Errors from
    the csv module, such as a field over its size limit, become
    :class:`ValidationError` naming the line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None


def _is_blank(row: Sequence[str]) -> bool:
    return not row or all(cell.strip() == "" for cell in row)


def parse_long_csv(text: str) -> dict:
    """Parse long-format CSV: header ``dataset,model,fold,value``.

    Returns the fold table ``{(dataset, model): {fold: value}}``, with cells
    and folds in first-seen row order.  Blank rows are skipped, before the
    header too.  A bad header, malformed rows, duplicate (dataset, model,
    fold) triples, and non-numeric values raise :class:`ValidationError`
    naming the offending line.
    """
    reader = _rows(text)
    line, header = next(((line, row) for line, row in reader if not _is_blank(row)), (0, None))
    if header is None:
        raise ValidationError("empty document: expected header 'dataset,model,fold,value'")
    if not header[0].strip():
        raise ValidationError(
            f"line {line}: the first column has no name: pandas to_csv and R write.csv write a row index "
            "there; write the file without it (index=False in pandas, row.names=FALSE in R)"
        )
    if tuple(h.strip() for h in header) != LONG_HEADER:
        raise ValidationError(
            f"line {line}: header must be 'dataset,model,fold,value', got {','.join(header)!r}"
        )
    cells = {}
    for line, row in reader:
        if _is_blank(row):
            continue
        if len(row) != 4:
            raise ValidationError(f"line {line}: expected 4 fields, got {len(row)}")
        dataset, model, fold, raw = (cell.strip() for cell in row)
        if not dataset or not model or not fold:
            raise ValidationError(f"line {line}: dataset, model, and fold must be non-empty")
        value = _parse_value(raw, f"line {line}")
        folds = cells.setdefault((dataset, model), {})
        if fold in folds:
            raise ValidationError(f"line {line}: duplicate record for {(dataset, model, fold)!r}")
        folds[fold] = value
    return cells
