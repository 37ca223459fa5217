"""Matrix construction, per-row ranking, and average ranks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from cdranks import (
    AverageRanks,
    Direction,
    ModelId,
    PerformanceMatrix,
    UnsupportedDesignError,
    ValidationError,
    average_ranks,
)
from cdranks.cd import check_average_ranks
from cdranks.ranks import doubled_ranks
from cdranks.simulate import doubled_midranks
from stacked_ranks import check_rank_vectors, midranks, stacked_average_ranks


def matrix(values, direction="maximize"):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return PerformanceMatrix(
        datasets=tuple(f"d{i}" for i in range(n)),
        models=tuple(ModelId(f"m{j}") for j in range(k)),
        values=values,
        direction=direction,
    )


def ranks_of_row(values, direction):
    """Ranks of one dataset row: the average ranks of a one-row block."""
    return stacked_average_ranks([values], direction)


class TestRankRow:
    def test_strictly_ordered(self):
        assert ranks_of_row([0.9, 0.8, 0.7], "maximize").tolist() == [1, 2, 3]
        assert ranks_of_row([0.9, 0.8, 0.7], "minimize").tolist() == [3, 2, 1]

    def test_midrank_tie(self):
        assert ranks_of_row([0.9, 0.8, 0.9], "maximize").tolist() == [1.5, 3, 1.5]

    def test_full_tie(self):
        assert ranks_of_row([0.5, 0.5, 0.5], "maximize").tolist() == [2, 2, 2]

    def test_too_short(self):
        with pytest.raises(ValidationError):
            ranks_of_row([0.5], "maximize")

    def test_bad_direction(self):
        with pytest.raises(ValidationError):
            ranks_of_row([0.5, 0.6], "upwards")

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    def test_minimize_equals_maximize_of_negated(self, values):
        left = ranks_of_row(values, Direction.MINIMIZE)
        right = ranks_of_row([-v for v in values], Direction.MAXIMIZE)
        assert left.tolist() == right.tolist()

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=8))
    def test_row_sum_exact(self, values):
        k = len(values)
        assert ranks_of_row([float(v) for v in values], "maximize").sum() == k * (k + 1) / 2


# Value families that exercise the tie handling: continuous draws (ties
# rare), discrete scores in {0, 1, 2} (ties everywhere), rounded reals,
# signed zeros (equal, though their bits differ), and constant blocks where
# every row is one tie.
_ELEMENTS = {
    "continuous": st.floats(-1e6, 1e6, allow_nan=False),
    "scores": st.integers(0, 2).map(float),
    "rounded": st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    "signed_zeros": st.sampled_from([0.0, -0.0]),
}


@st.composite
def midrank_inputs(draw):
    # (k,), (N, k) and (T, N, k) blocks, k up to 20
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=9))
    shape = lead + (draw(st.integers(1, 20)),)
    kind = draw(st.sampled_from(sorted(_ELEMENTS) + ["all_equal"]))
    if kind == "all_equal":
        return np.full(shape, draw(_ELEMENTS["rounded"]))
    return draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS[kind]))


class TestMidranks:
    @given(midrank_inputs())
    def test_equals_scipy_rankdata_average(self, a):
        got = midranks(a)
        want = rankdata(a, method="average", axis=-1)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == a.shape
        assert np.array_equal(got, want)
        # the integer core under it: twice the mid-ranks, in int8 for k <= 63
        doubled = doubled_midranks(a)
        assert doubled.dtype == np.int8
        assert np.array_equal(doubled, (2 * want).astype(np.int64))

    @pytest.mark.parametrize("k, dtype", [(63, np.int8), (64, np.int16)])
    def test_doubled_core_dtype_holds_2k(self, k, dtype):
        # 2k = 126 fits int8 and 128 does not; all-tied rows hit k + 1 and
        # untied rows reach the extremes 2 and 2k
        rng = np.random.default_rng(k)
        a = np.stack([rng.standard_normal(k), np.zeros(k), rng.integers(0, 3, k) * 1.0])
        got = doubled_midranks(a)
        assert got.dtype == dtype
        assert np.array_equal(got, (2 * rankdata(a, axis=-1)).astype(np.int64))
        assert got[0].min() == 2 and got[0].max() == 2 * k

    def test_ties_share_mean_position(self):
        assert midranks([2.0, 1.0, 2.0, 2.0, 0.0]).tolist() == [4, 2, 4, 4, 1]

    def test_rows_ranked_independently(self):
        a = np.array([[[3.0, 1.0, 2.0], [5.0, 5.0, 5.0]]])
        assert midranks(a).tolist() == [[[3, 1, 2], [2, 2, 2]]]


@st.composite
def rank_rows(draw):
    kind = draw(st.sampled_from(sorted(_ELEMENTS)))
    return draw(st.lists(_ELEMENTS[kind], min_size=1, max_size=12))


class TestDoubledRanks:
    """The pure-Python row rule that ``analyze`` runs, against the kernel's and SciPy's."""

    @given(rank_rows())
    def test_equals_midranks_and_scipy(self, row):
        want = (2 * rankdata(row, method="average")).tolist()
        assert (2 * midranks(row)).tolist() == want
        assert doubled_ranks(row, Direction.MINIMIZE) == want
        assert doubled_ranks(row, Direction.MAXIMIZE) == (2 * midranks([-v for v in row])).tolist()
        assert all(type(v) is int for v in doubled_ranks(row, Direction.MAXIMIZE))

    def test_ties_share_their_mean_position(self):
        assert doubled_ranks([0.9, 0.8, 0.9, 0.7], "maximize") == [3, 6, 3, 8]
        assert doubled_ranks([0.0, -0.0, 1.0], "minimize") == [3, 3, 6]


class TestStackedAverageRanks:
    def test_matches_per_matrix_average_ranks(self):
        rng = np.random.default_rng(8)
        blocks = np.round(rng.standard_normal((5, 7, 4)), 1)
        for direction in ("maximize", "minimize"):
            stacked = stacked_average_ranks(blocks, direction)
            for block, avg in zip(blocks, stacked):
                assert np.array_equal(average_ranks(matrix(block, direction)).r, avg)

    def test_nonfinite_rejected(self):
        blocks = np.zeros((2, 3, 3))
        blocks[1, 2, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            stacked_average_ranks(blocks, "maximize")


class TestPerformanceMatrix:
    def test_two_models_rejected(self):
        with pytest.raises(UnsupportedDesignError):
            matrix([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError):
            matrix(np.empty((0, 3)))

    def test_one_row_allowed(self):
        m = matrix([[1.0, 2.0, 3.0]])
        assert m.n_datasets == 1 and m.k == 3

    def test_duplicate_dataset_ids(self):
        with pytest.raises(ValidationError, match="duplicate dataset"):
            PerformanceMatrix(
                datasets=("d", "d"),
                models=tuple(ModelId(f"m{j}") for j in range(3)),
                values=np.ones((2, 3)),
            )

    def test_duplicate_model_labels(self):
        with pytest.raises(ValidationError, match="duplicate model"):
            PerformanceMatrix(
                datasets=("d0", "d1"),
                models=(ModelId("m"), ModelId("m"), ModelId("x")),
                values=np.ones((2, 3)),
            )

    def test_nonfinite_cell_named(self):
        values = np.ones((2, 3))
        values[1, 2] = np.inf
        with pytest.raises(ValidationError, match=r"'d1'.*'m2'"):
            matrix(values)

    def test_shape_mismatches(self):
        with pytest.raises(ValidationError):
            PerformanceMatrix(
                datasets=("d0",),
                models=tuple(ModelId(f"m{j}") for j in range(3)),
                values=np.ones((2, 3)),
            )
        with pytest.raises(ValidationError, match="2-dimensional"):
            PerformanceMatrix(
                datasets=("d0",),
                models=tuple(ModelId(f"m{j}") for j in range(3)),
                values=np.ones(3),
            )

    def test_values_read_only(self):
        m = matrix([[1.0, 2.0, 3.0]])
        with pytest.raises(TypeError):
            m.values[0][0] = 9.0

    def test_labels_property(self):
        assert matrix([[1.0, 2.0, 3.0]]).labels == ("m0", "m1", "m2")


class TestModelId:
    def test_empty_label(self):
        with pytest.raises(ValidationError):
            ModelId("")

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\ud800", "\ufffe"])
    def test_label_outside_xml_char(self, char):
        with pytest.raises(ValidationError, match="XML 1.0"):
            ModelId(f"cart{char}click")

    def test_tags_copied(self):
        tags = {"feature_set": "forum"}
        m = ModelId("m", tags)
        tags["feature_set"] = "other"
        assert m.tags == {"feature_set": "forum"}


class TestRankTypes:
    def test_average_ranks_sum_enforced(self):
        # one rule: a tuple or list of k >= 2 ints in [2N, 2Nk] that total N k(k+1) for an int N >= 1
        for sums in [(2, 4, 7), (0, 6, 6), (2, 2, 8), (2,), (), [-2, 6, 8], (10**5000, 2, -(10**5000) + 10),
                     (2, 4, 6.0), (2, True, 9), np.array([2, 4, 6]), (2, np.int64(4), 6), {2: 2, 4: 4, 6: 6}, None]:
            with pytest.raises(ValidationError, match=r"^average ranks need k >= 2 int rank sums 2S_j in \[2N, 2Nk\]"):
                AverageRanks(sums)

    @pytest.mark.parametrize(
        "r",
        [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.5, 2.0, 3.9, 4.6], [0.0, 3.0, 3.0], [1.0, 2.0, 4.0],
         [1.0, float("nan"), 5.0], [1.0, float("inf"), 2.0], [1.0, 2.0 + 1e-9, 3.0],
         [1.0, 2.0 + 1e-8, 3.0], [1.0, 1.0]],
    )
    def test_vector_check_matches_stacked_check(self, r):
        def outcome(check, *args):
            try:
                check(*args)
            except ValidationError as exc:
                return str(exc)

        stacked = outcome(check_rank_vectors, np.array(r), "average rank")
        # one vector: the same message, less the stacked check's row number
        assert outcome(check_average_ranks, r) == (stacked and stacked.removeprefix("row 0 "))

    def test_sum_message_names_no_row(self):
        with pytest.raises(ValidationError) as exc:
            check_average_ranks([1.0, 1.0, 1.0])
        assert str(exc.value) == "average rank sum 3.0 != k(k+1)/2 = 6.0"

    @pytest.mark.parametrize("r", ["123", b"123"])
    def test_average_ranks_reject_text(self, r):
        # text is no sequence of sums, not even of its characters' codes
        with pytest.raises(ValidationError, match="^average ranks need k >= 2 int rank sums"):
            AverageRanks(r)

    def test_average_ranks_indexing(self):
        r = AverageRanks([6, 12, 18])
        assert len(r) == 3 and r.sums == (6, 12, 18)
        assert r[2] == 3.0


@st.composite
def performance_blocks(draw):
    """Tied blocks from integers(0, 3) or untied standard normals, N in 1..20, k in 3..8."""
    shape = (draw(st.integers(1, 20)), draw(st.integers(3, 8)))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3))).astype(float)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)


class TestAverageRanks:
    @given(performance_blocks(), st.sampled_from(["maximize", "minimize"]))
    def test_sums_are_the_exact_doubled_rank_sums(self, values, direction):
        ranks = average_ranks(matrix(values, direction))
        sign = -1 if direction == "maximize" else 1
        want = (2 * rankdata(sign * values, axis=1)).sum(axis=0)
        assert ranks.sums == tuple(want.tolist())
        assert all(type(s) is int for s in ranks.sums)
        assert ranks.r == tuple(s / (2 * len(values)) for s in ranks.sums)

    def test_equality_reads_the_sums_and_repr_the_ranks(self):
        ranks = average_ranks(matrix([[3.0, 2.0, 1.0], [1.0, 3.0, 2.0]]))
        assert ranks.sums == (8, 6, 10) and ranks.r == (2.0, 1.5, 2.5)
        same = AverageRanks([8, 6, 10])
        assert ranks == same and hash(ranks) == hash(same)
        # the same average ranks over N = 1 instead of N = 2
        assert AverageRanks((4, 3, 5)).r == ranks.r and AverageRanks((4, 3, 5)) != ranks
        assert repr(ranks) == "AverageRanks(r=(2.0, 1.5, 2.5))"

    def test_identical_rows(self):
        m = matrix([[3.0, 2.0, 1.0]] * 3)
        assert average_ranks(m).r == (1, 2, 3)

    def test_opposed_rows_average_out(self):
        m = matrix([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        assert average_ranks(m).r == (2, 2, 2)

    def test_sum_conservation(self):
        rng = np.random.default_rng(5)
        m = matrix(rng.standard_normal((6, 4)))
        assert sum(average_ranks(m).r) == 10

    def test_direction_respected(self):
        up = matrix([[1.0, 2.0, 3.0]] * 2, direction="maximize")
        down = matrix([[1.0, 2.0, 3.0]] * 2, direction="minimize")
        assert average_ranks(up).r == (3, 2, 1)
        assert average_ranks(down).r == (1, 2, 3)
