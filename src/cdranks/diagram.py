"""Critical Difference diagrams: layout resolution and SVG rendering.

A diagram is a number line spanning ranks 1..k with one labelled stem per
model, a bracket showing the critical difference, and one bold bar per
multi-member indistinguishable group.  :func:`layout` resolves all geometry
in rank units; :func:`render_svg` maps it to pixels.  Rendering is a pure
function of its inputs, so identical calls produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cd import indistinguishable_groups, rank_list
from .errors import ValidationError, check_int, check_label, check_unique


# Fixed pixel geometry and label precision of every rendered diagram.
_ROW_HEIGHT_PX = 22
_FONT_SIZE_PX = 12
_RANK_DECIMALS = 3


@dataclass(frozen=True)
class RenderOptions:
    """The one pixel-level setting of :func:`render_svg`: the document width."""

    width_px: int = 800

    def __post_init__(self):
        check_int(self.width_px, "width_px", 1)


@dataclass(frozen=True)
class DiagramEntry:
    label: str
    rank: float
    side: str  # "left" | "right"
    row: int


@dataclass(frozen=True)
class DiagramBar:
    rank_lo: float
    rank_hi: float
    level: int


@dataclass(frozen=True)
class DiagramSpec:
    """Resolved geometry in rank units: ticks at 1..k, a CD bracket from rank 1 to 1 + cd."""

    k: int
    cd: float
    entries: tuple
    bars: tuple


def _assign_bar_levels(spans: Sequence) -> list:
    """Greedy level assignment: first free level, scanning bars by rank_lo.

    Two bars conflict when their closed intervals intersect, including a
    shared endpoint, so touching bars never sit on one line.
    """
    bars = []
    level_high = []  # rank_hi of the last bar placed on each level
    for lo, hi in sorted(spans):
        level = 0
        while level < len(level_high) and level_high[level] >= lo:
            level += 1
        if level == len(level_high):
            level_high.append(hi)
        else:
            level_high[level] = hi
        bars.append(DiagramBar(rank_lo=lo, rank_hi=hi, level=level))
    return bars


def layout(ranks, labels: Sequence[str], cd: float) -> DiagramSpec:
    """Resolve diagram geometry for the given average ranks.

    The axis spans [1, k].  Models are sorted by rank; the better half
    (ceil(k/2) entries) goes on the left side, best at the top row, and the
    remaining models go on the right with the worst at the top row.  Bars
    come from the indistinguishable groups at the given critical difference;
    single-member groups draw no bar.  ``ranks`` may be AverageRanks, a
    sequence or a 1-d array of finite ranks; anything else is a ValidationError.
    """
    r = rank_list(ranks)
    k = len(r)
    if len(labels) != k:
        raise ValidationError(f"{len(labels)} labels for {k} ranks")
    check_unique(labels, "duplicate label(s)")
    for label in labels:
        check_label(label)

    order = sorted(range(k), key=lambda j: (r[j], labels[j]))
    left_count = (k + 1) // 2
    entries = []
    for pos, j in enumerate(order):
        if pos < left_count:
            side, row = "left", pos
        else:
            side, row = "right", k - 1 - pos
        entries.append(DiagramEntry(label=labels[j], rank=r[j], side=side, row=row))

    spans = [
        (min(r[j] for j in g), max(r[j] for j in g))
        for g in indistinguishable_groups(r, cd)
        if len(g) > 1
    ]

    return DiagramSpec(
        k=k,
        cd=float(cd),
        entries=tuple(entries),
        bars=tuple(_assign_bar_levels(spans)),
    )


def _escape(text: str) -> str:
    """Escape text for an XML element body; ``&`` goes first so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(v: float) -> str:
    return f"{v:.2f}"


def render_svg(
    spec: DiagramSpec,
    opts: RenderOptions = RenderOptions(),
    *,
    annotation: str | None = None,
) -> str:
    """Render a resolved diagram to an SVG 1.1 document (UTF-8 text).

    Element classes are stable so documents can be inspected structurally:
    one ``axis`` line, one ``tick`` per rank position, one ``cd-bracket``
    path with its ``cd-label`` text, one ``stem`` path and ``label`` text
    per model, and one ``bar`` line per multi-member group.  An optional
    ``annotation`` line is stamped under the diagram.  Fewer than two ranks,
    a CD whose bracket would end at no finite x, and a CD past 4 (k - 1),
    which no critical difference of k models reaches, are ValidationErrors.
    """
    check_int(spec.k, "k", 2)
    w = opts.width_px
    fs = _FONT_SIZE_PX
    gutter = round(0.30 * w)
    x0, x1 = float(gutter), float(w - gutter)
    span = spec.k - 1

    def x_at(rank: float) -> float:
        return x0 + (rank - 1.0) * (x1 - x0) / span

    pad = 8
    bar_gap = 6
    y_cd_text = pad + fs
    y_bracket = y_cd_text + 6
    y_tick_label = y_bracket + 4 + fs
    y_axis = y_tick_label + 6
    bars_top = y_axis + bar_gap
    n_levels = 1 + max((b.level for b in spec.bars), default=-1)
    labels_top = bars_top + n_levels * bar_gap + 10
    n_rows = 1 + max((e.row for e in spec.entries), default=-1)
    height = labels_top + n_rows * _ROW_HEIGHT_PX + pad
    if annotation is not None:
        height += fs + pad

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{height}" viewBox="0 0 {w} {height}" '
        f'font-family="sans-serif" font-size="{fs}">'
    )

    bx0, bx1 = x_at(1.0), x_at(1.0 + spec.cd)
    if not math.isfinite(bx1):
        raise ValidationError(f"cd {spec.cd!r} is too large to draw: its bracket ends at x = {bx1}")
    # nemenyi_cd(k, 2, 1e-5), the largest CD analyze can report, is at most 3.12 (k - 1)
    if spec.cd > 4 * span:
        raise ValidationError(
            f"cd {spec.cd!r} is too large to draw: no CD of k={spec.k} models exceeds 4 (k - 1)"
        )
    out.append(
        f'<path class="cd-bracket" fill="none" stroke="black" '
        f'd="M {_px(bx0)} {_px(y_bracket + 4)} L {_px(bx0)} {_px(y_bracket)} '
        f'L {_px(bx1)} {_px(y_bracket)} L {_px(bx1)} {_px(y_bracket + 4)}"/>'
    )
    out.append(
        f'<text class="cd-label" x="{_px((bx0 + bx1) / 2)}" y="{_px(y_cd_text)}" '
        f'text-anchor="middle">CD</text>'
    )

    out.append(
        f'<line class="axis" stroke="black" x1="{_px(x0)}" y1="{_px(y_axis)}" '
        f'x2="{_px(x1)}" y2="{_px(y_axis)}"/>'
    )
    for t in range(1, spec.k + 1):
        tx = x_at(t)
        out.append(
            f'<line class="tick" stroke="black" x1="{_px(tx)}" y1="{_px(y_axis)}" '
            f'x2="{_px(tx)}" y2="{_px(y_axis - 5)}"/>'
        )
        out.append(
            f'<text class="tick-label" x="{_px(tx)}" y="{_px(y_tick_label)}" '
            f'text-anchor="middle">{t}</text>'
        )

    for bar in spec.bars:
        by = bars_top + bar.level * bar_gap
        out.append(
            f'<line class="bar" stroke="black" stroke-width="4" '
            f'x1="{_px(x_at(bar.rank_lo))}" y1="{_px(by)}" '
            f'x2="{_px(x_at(bar.rank_hi))}" y2="{_px(by)}"/>'
        )

    for e in spec.entries:
        sx = x_at(e.rank)
        ry = labels_top + e.row * _ROW_HEIGHT_PX
        if e.side == "left":
            gx, tx, anchor = x0 - 4, x0 - 8, "end"
        else:
            gx, tx, anchor = x1 + 4, x1 + 8, "start"
        out.append(
            f'<path class="stem" fill="none" stroke="black" '
            f'd="M {_px(sx)} {_px(y_axis)} L {_px(sx)} {_px(ry)} L {_px(gx)} {_px(ry)}"/>'
        )
        text = f"{e.label} ({e.rank:.{_RANK_DECIMALS}f})"
        out.append(
            f'<text class="label" x="{_px(tx)}" y="{_px(ry + 0.35 * fs)}" '
            f'text-anchor="{anchor}">{_escape(text)}</text>'
        )

    if annotation is not None:
        out.append(
            f'<text class="annotation" x="{_px(w / 2)}" y="{_px(height - pad)}" '
            f'text-anchor="middle" font-style="italic">{_escape(annotation)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
