"""Exception hierarchy for the package, and the input checks shared by modules.

Each class carries the CLI exit code it maps onto, so shell callers can tell
bad input (2) from an unsupported statistical design (3).
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter


class CdranksError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(CdranksError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class IncompleteDesignError(ValidationError):
    """One or more (dataset, model) pairs have no measurement."""

    def __init__(self, missing_pairs):
        self.missing_pairs = tuple(tuple(p) for p in sorted(missing_pairs))
        listing = ", ".join(f"({d}, {m})" for d, m in self.missing_pairs)
        super().__init__(
            f"incomplete design: {len(self.missing_pairs)} missing "
            f"(dataset, model) pair(s): {listing}"
        )


class UnsupportedDesignError(CdranksError):
    """The procedure does not cover this design: k < 3, N < 2, a degenerate
    statistic, or a critical value outside ``cd.q_alpha``'s accurate domain."""

    exit_code = 3


class DegenerateStatisticError(UnsupportedDesignError):
    """A test statistic is undefined for this data.

    The F-form correction divides by N*(k-1) - chi2, which is zero exactly
    when the rankings are perfectly consistent across all datasets.
    """


class SmallSampleWarning(UserWarning):
    """The chi-square approximation is rough for small dataset counts."""


class DroppedDatasetsWarning(UserWarning):
    """Datasets were dropped because they were missing measurements."""


# Anything outside the XML 1.0 Char production, lone surrogates included.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def check_label(label) -> str:
    """Return ``label`` if it is a non-empty string that XML 1.0 can hold; else ValidationError."""
    if not isinstance(label, str) or not label:
        raise ValidationError("model label must be a non-empty string")
    if _NOT_XML_CHAR.search(label):
        raise ValidationError(f"label {label!r} holds a character that XML 1.0 forbids")
    return label


def check_unique(items, what: str) -> None:
    """Raise ValidationError ``"<what>: <repeated items, sorted>"`` if any item occurs twice."""
    items = list(items)
    if len(set(items)) != len(items):
        dupes = sorted(x for x, count in Counter(items).items() if count > 1)
        raise ValidationError(f"{what}: {', '.join(dupes)}")


def check_choice(enum_cls, value, name: str):
    """Return ``value`` as a member of the str Enum ``enum_cls``; else ValidationError."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        choices = " or ".join(repr(m.value) for m in enum_cls)
        raise ValidationError(f"{name} must be {choices}, got {value!r}") from None


def check_alpha(alpha: float) -> float:
    """Return ``alpha`` if it is a float strictly inside (0, 1); else ValidationError."""
    if not (isinstance(alpha, float) and 0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return alpha


def check_number(text: str) -> float:
    """The one rule for text to number: ASCII, no ``_``, and ``float()`` gives a finite value."""
    try:
        value = float(text) if text.isascii() and "_" not in text else math.nan
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    if math.isinf(value) and not text.lstrip("+-").isalpha():  # 1e999, not a spelled-out inf
        raise ValidationError(f"value {text!r} overflows to non-finite")
    raise ValidationError(f"non-numeric value {text!r}")


def check_reals(values, message: str) -> tuple:
    """The one rule for a vector of reals: neither it nor an entry is text, no entry is a bool,
    and ``float()`` takes every entry.  Returns the floats; else ValidationError(message).
    """
    try:
        # Text is one text entry, which the entry rule refuses.  A list, not a tuple: CPython
        # keeps up to 2000 freed tuples of each length <= 20, so tuple copies would hold memory.
        entries = [values] if isinstance(values, (str, bytes)) else list(values)
        if not any(issubclass(t, (str, bytes, bool)) for t in set(map(type, entries))):
            return tuple(map(float, entries))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(message)


def load_json_object(text: str, what: str) -> dict:
    """Parse ``text`` as a JSON object; else ValidationError naming the document ``what``."""
    try:
        data = json.loads(text)
    # JSONDecodeError, an int past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return data


def check_positive(value, name: str):
    """Return ``value`` if it is a real (see check_reals) in (0, max float]; else ValidationError."""
    message = f"{name} must be a positive real, got {value!r}"
    if not 0.0 < check_reals((value,), message)[0] <= sys.float_info.max:
        raise ValidationError(message)
    return value


def check_int(value: int, name: str, lo: "int | None" = None, hi: "int | None" = None) -> int:
    """Return ``value`` if it is an int, not a bool, with (lo <=) value (< hi); else ValidationError."""
    if not (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (lo is None or lo <= value)
        and (hi is None or value < hi)
    ):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_models(k: int) -> int:
    """Return the int ``k`` if the rank tests cover k >= 3 models; else UnsupportedDesignError."""
    if check_int(k, "n_models") < 3:
        raise UnsupportedDesignError(f"k={k} models unsupported: the rank test machinery needs k >= 3")
    return k


def check_datasets(n_datasets: int) -> int:
    """Return the int ``n_datasets`` if the tests cover N >= 2 datasets; else UnsupportedDesignError."""
    if check_int(n_datasets, "n_datasets") < 2:
        raise UnsupportedDesignError(f"N={n_datasets} datasets unsupported: need N >= 2")
    return n_datasets
