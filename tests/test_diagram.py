"""Layout geometry and SVG rendering."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdranks import AverageRanks, RenderOptions, ValidationError, layout, render_svg
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
        opts = RenderOptions()
        assert opts.width_px == 800
        assert opts.decimals_for_rank == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width_px": 0},
            {"width_px": -5},
            {"row_height_px": 0},
            {"font_size_px": 0},
            {"decimals_for_rank": -1},
            {"width_px": True},
            {"decimals_for_rank": True},
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
        assert spec.axis_min == 1.0 and spec.axis_max == 2.0

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
        spec = spec_for([1.0, 2.0, 3.0], cd=1.25)
        assert spec.cd_bracket.start == 1.0
        assert spec.cd_bracket.length == 1.25

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
        for ranks in (AverageRanks(r), tuple(r), np.array(r)):
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
        _, _, by_class = parse(
            render_svg(spec, RenderOptions(decimals_for_rank=1))
        )
        assert "a (1.5)" in [el.text for el in by_class["label"]]

    def test_label_text_is_escaped(self):
        spec = spec_for([1.0, 2.0], ["a<b>&c", "plain"])
        text = render_svg(spec)
        assert "a&lt;b&gt;&amp;c" in text
        ET.fromstring(text)

    @given(st.text(alphabet=st.sampled_from("&<>;amplgt# a\"'"), max_size=12))
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)

    def test_annotation_rendering(self):
        spec = spec_for([1.0, 2.0], cd=5.0)
        _, _, by_class = parse(render_svg(spec, annotation="nothing to see"))
        notes = by_class["annotation"]
        assert len(notes) == 1 and notes[0].text == "nothing to see"
        _, _, by_class = parse(render_svg(spec))
        assert "annotation" not in by_class

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

    def test_coordinates_rounded_to_hundredths(self):
        spec = spec_for([1.0, 2.0, 3.0], ["a", "b", "c"], cd=1.5)
        _, _, by_class = parse(render_svg(spec))
        for el in by_class["tick"] + by_class.get("bar", []):
            for attr in ("x1", "x2", "y1", "y2"):
                v = el.get(attr)
                assert v is not None
                whole, _, frac = v.partition(".")
                assert len(frac) <= 2
