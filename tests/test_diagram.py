"""Layout geometry and SVG rendering."""

import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdranks import (AverageRanks, DiagramSpec, RenderOptions, ValidationError, layout, nemenyi_cd,
                     render_svg)
from cdranks.diagram import _escape


def spec_for(ranks, labels=None, cd=1.0):
    labels = labels or [f"m{j}" for j in range(len(ranks))]
    return layout(ranks, labels, cd)


def parse(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    by_class = {}
    for el in root.iter():
        cls = el.get("class")
        if cls:
            by_class.setdefault(cls, []).append(el)
    return root, ns, by_class


class TestRenderOptions:
    def test_defaults(self):
        # the width is the one setting; the rest of the geometry is fixed
        assert RenderOptions._fields == ("width_px",)
        assert RenderOptions().width_px == 800

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width_px": 0},
            {"width_px": -5},
            {"width_px": 1.0},
            {"width_px": "800"},
            {"width_px": None},
            {"width_px": True},
            {"width_px": -(10**400)},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValidationError):
            RenderOptions(**kwargs)


class TestLayout:
    def test_two_models(self):
        spec = spec_for([1.0, 2.0], cd=0.5)
        sides = [e.side for e in spec.entries]
        assert sides == ["left", "right"]
        assert spec.bars == ()
        assert (spec.k, spec.cd) == (2, 0.5)

    def test_worked_example_bars(self):
        spec = spec_for([1.5, 2.0, 3.9, 4.6], cd=1.0)
        spans = [(b.rank_lo, b.rank_hi) for b in spec.bars]
        assert spans == [(1.5, 2.0), (3.9, 4.6)]

    def test_overlapping_bars_get_distinct_levels(self):
        spec = spec_for([1.0, 1.8, 2.5], cd=1.0)
        spans = [(b.rank_lo, b.rank_hi, b.level) for b in spec.bars]
        assert spans == [(1.0, 1.8, 0), (1.8, 2.5, 1)]

    def test_disjoint_bars_share_level_zero(self):
        spec = spec_for([1.0, 1.4, 3.0, 3.4], cd=0.5)
        assert [b.level for b in spec.bars] == [0, 0]

    def test_entries_sorted_by_rank(self):
        spec = spec_for([3.2, 1.1, 2.4], ["c", "a", "b"])
        assert [e.label for e in spec.entries] == ["a", "b", "c"]
        assert [e.rank for e in spec.entries] == [1.1, 2.4, 3.2]

    def test_rank_ties_broken_by_label(self):
        spec = spec_for([2.0, 2.0], ["z", "a"])
        assert [e.label for e in spec.entries] == ["a", "z"]

    def test_side_split_and_rows_for_odd_k(self):
        spec = spec_for([1.0, 2.0, 3.0, 4.0, 5.0], cd=0.1)
        sides = [e.side for e in spec.entries]
        rows = [e.row for e in spec.entries]
        assert sides == ["left", "left", "left", "right", "right"]
        assert rows == [0, 1, 2, 1, 0]

    def test_cd_bracket(self):
        # the spec holds k and the CD; render_svg derives the axis and the bracket
        spec = spec_for([1.0, 2.0, 3.0], cd=1.25)
        assert (spec.k, spec.cd) == (3, 1.25) and type(spec.cd) is float
        assert spec._fields == ("k", "cd", "entries", "bars")

    def test_singleton_groups_have_no_bar(self):
        spec = spec_for([1.0, 3.0, 5.0], cd=1.0)
        assert spec.bars == ()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            spec_for([1.0, 2.0], ["a", "a"])

    def test_label_outside_xml_char_rejected(self):
        with pytest.raises(ValidationError, match="XML 1.0"):
            spec_for([1.0, 2.0], ["a", "cart\x01click"])

    def test_same_spec_for_every_rank_container(self):
        r = [1.25, 1.75, 3.5, 3.5]
        expected = spec_for(r)
        assert expected.bars and all(type(e.rank) is float for e in expected.entries)
        for ranks in (AverageRanks((5, 7, 14, 14)), tuple(r), np.array(r)):  # sums 2N r at N = 2
            spec = spec_for(ranks)
            assert spec == expected
            assert all(type(e.rank) is float for e in spec.entries)

    @pytest.mark.parametrize(
        "ranks",
        [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0], [2.0]]), [1.0, float("nan")],
         [1.0, float("inf")], [1.0, None], "12", np.array(1.5)],
        ids=["2d", "column", "nan", "inf", "none", "str", "0d"],
    )
    def test_rejects_non_vector_or_nonfinite_ranks(self, ranks):
        with pytest.raises(ValidationError):
            layout(ranks, ["a", "b"], 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            spec_for([1.0, 2.0], ["a", "b", "c"])

    def test_bad_cd_rejected(self):
        with pytest.raises(ValidationError):
            spec_for([1.0, 2.0], cd=0.0)
        with pytest.raises(ValidationError):
            spec_for([1.0, 2.0], cd=float("nan"))
        with pytest.raises(ValidationError):
            spec_for([1.0, 2.0], cd=10**400)


class TestRenderSvg:
    def test_is_valid_xml_with_expected_element_counts(self):
        spec = spec_for([1.5, 2.0, 3.9, 4.6], cd=1.0)
        root, ns, by_class = parse(render_svg(spec))
        assert root.tag == f"{ns}svg"
        assert len(by_class["axis"]) == 1
        assert len(by_class["tick"]) == 4
        assert len(by_class["tick-label"]) == 4
        assert len(by_class["stem"]) == 4
        assert len(by_class["label"]) == 4
        assert len(by_class["bar"]) == 2
        assert len(by_class["cd-bracket"]) == 1
        assert len(by_class["cd-label"]) == 1

    def test_no_bars_renders_no_bar_elements(self):
        spec = spec_for([1.0, 3.0], cd=0.5)
        _, _, by_class = parse(render_svg(spec))
        assert "bar" not in by_class

    def test_byte_determinism(self):
        spec = spec_for([1.5, 2.0, 3.9, 4.6], cd=1.0)
        assert render_svg(spec) == render_svg(spec)

    def test_width_option_controls_root_attribute(self):
        spec = spec_for([1.0, 2.0], cd=0.5)
        root, _, _ = parse(render_svg(spec, RenderOptions(width_px=400)))
        assert root.get("width") == "400"

    def test_labels_show_rank_at_requested_precision(self):
        spec = spec_for([1.5, 2.25], ["a", "b"], cd=0.5)
        _, _, by_class = parse(render_svg(spec))
        texts = [el.text for el in by_class["label"]]
        assert "a (1.500)" in texts and "b (2.250)" in texts

    def test_label_text_is_escaped(self):
        spec = spec_for([1.0, 2.0], ["a<b>&c", "plain"])
        text = render_svg(spec)
        assert "a&lt;b&gt;&amp;c" in text
        ET.fromstring(text)

    @given(st.text(alphabet=st.sampled_from("&<>;amplgt# a\"'"), max_size=12))
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)

    def test_annotation_rendering(self):
        spec = spec_for([1.0, 2.0], cd=3.0)
        _, _, by_class = parse(render_svg(spec, annotation="nothing to see"))
        notes = by_class["annotation"]
        assert len(notes) == 1 and notes[0].text == "nothing to see"
        _, _, by_class = parse(render_svg(spec))
        assert "annotation" not in by_class

    # the largest CD that analyze or diagram --alpha computes, at N = 2 and alpha = 1e-5:
    # 3.12 (k - 1) at k = 2, 2.32 (k - 1) at k = 3, below 2 (k - 1) from k = 4 on
    @pytest.mark.parametrize("k", [2, 3, 8, 24, 1000])
    def test_every_computed_cd_draws(self, k):
        cd = nemenyi_cd(k, 2, 1e-5)
        spec = spec_for([float(j) for j in range(1, k + 1)], cd=cd)
        _, _, by_class = parse(render_svg(spec))
        assert len(by_class["cd-bracket"]) == 1 and len(by_class["label"]) == k

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_cd_past_4_k_minus_1_rejected(self, k):
        ranks = [float(j) for j in range(1, k + 1)]
        render_svg(spec_for(ranks, cd=4.0 * (k - 1)))
        with pytest.raises(ValidationError, match=f"^cd 1e[+]300 is too large to draw: no CD of k={k} "):
            render_svg(spec_for(ranks, cd=1e300))
        with pytest.raises(ValidationError, match="no CD of"):
            render_svg(spec_for(ranks, cd=math.nextafter(4.0 * (k - 1), math.inf)))

    @pytest.mark.parametrize("k", [1, 0, -1, 2.0, True])
    def test_spec_below_two_ranks_rejected(self, k):
        # no coordinate is computed: x = x0 + (rank - 1) (x1 - x0) / (k - 1) needs k >= 2
        spec = DiagramSpec(k=k, cd=1.0, entries=(), bars=())
        with pytest.raises(ValidationError, match="^k must be an integer >= 2, got "):
            render_svg(spec)

    def test_axis_direction_best_rank_leftmost(self):
        spec = spec_for([1.0, 2.0, 3.0], cd=0.5)
        _, _, by_class = parse(render_svg(spec))
        xs = [float(el.get("x1")) for el in by_class["tick"]]
        labels = [el.text for el in by_class["tick-label"]]
        assert labels == ["1", "2", "3"]
        assert xs == sorted(xs)

    def test_bar_extent_matches_rank_span(self):
        spec = spec_for([1.0, 1.8, 2.5], cd=1.0)
        root, _, by_class = parse(render_svg(spec))
        width = int(root.get("width"))
        gutter = round(0.30 * width)
        plot = width - 2 * gutter
        labels = [el.text for el in by_class["tick-label"]]
        xs = [float(el.get("x1")) for el in by_class["tick"]]
        ticks = dict(zip(labels, xs))
        scale = ticks["2"] - ticks["1"]
        # axis covers the full rank scale [1, k]
        assert scale == pytest.approx(plot / 2.0, abs=0.01)
        bar = by_class["bar"][0]
        assert float(bar.get("x2")) - float(bar.get("x1")) == pytest.approx(
            0.8 * scale, abs=0.5
        )
        assert bar.get("stroke-width") == "4"

    @pytest.mark.parametrize("width", [1, 400, 800])
    @pytest.mark.parametrize("k", [2, 3, 8, 20])
    def test_bracket_and_ticks_in_pixels(self, k, width):
        # the axis runs from x0 to x1 over ranks 1..k; the bracket covers 1..1 + cd
        cd = nemenyi_cd(k, 31, 0.05)
        _, _, by_class = parse(
            render_svg(spec_for(list(range(1, k + 1)), cd=cd), RenderOptions(width_px=width))
        )
        x0 = round(0.30 * width)
        x1 = width - x0
        step = (x1 - x0) / (k - 1)

        def at(written, want):
            return abs(float(written) - want) <= 0.005 + 1e-9

        axis = by_class["axis"][0]
        assert at(axis.get("x1"), x0) and at(axis.get("x2"), x1)
        d = by_class["cd-bracket"][0].get("d").split()  # M a y L a y L b y L b y
        assert d[::3] == ["M", "L", "L", "L"]
        assert d[1] == d[4] and d[7] == d[10]
        assert at(d[1], x0) and at(d[7], x0 + cd * step)
        ticks = by_class["tick"]
        assert [el.text for el in by_class["tick-label"]] == [str(i) for i in range(1, k + 1)]
        for i, tick in enumerate(ticks, start=1):
            assert tick.get("x1") == tick.get("x2")
            assert at(tick.get("x1"), x0 + (i - 1) * step)

    def test_coordinates_rounded_to_hundredths(self):
        spec = spec_for([1.0, 2.0, 3.0], ["a", "b", "c"], cd=1.5)
        _, _, by_class = parse(render_svg(spec))
        for el in by_class["tick"] + by_class.get("bar", []):
            for attr in ("x1", "x2", "y1", "y2"):
                v = el.get(attr)
                assert v is not None
                whole, _, frac = v.partition(".")
                assert len(frac) <= 2
