import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_loop import float_recurrence
from ucbfw.simplex import OccupationState, check_simplex


def make_state(counts):
    """A one-seed block holding `counts`."""
    occ = OccupationState(len(counts), seeds=1)
    occ.counts[0] = counts
    occ.t = sum(counts)
    return occ


def one_row(occ):
    return occ.proportions()[0].tolist()


def test_apply_increments_count_and_round():
    occ = make_state((1, 0))
    occ.apply(1)
    assert occ.counts.tolist() == [[1, 1]]
    assert occ.t == 2
    assert one_row(occ) == [0.5, 0.5]


def test_apply_leaves_other_counts_untouched():
    occ = make_state((3, 1))
    occ.apply(0)
    assert occ.counts.tolist() == [[4, 1]]
    assert occ.t == 5
    assert one_row(occ) == [0.8, 0.2]


def test_apply_takes_one_action_per_seed():
    occ = OccupationState(3, seeds=4)
    occ.apply(np.array([0, 2, 2, 1]))
    occ.apply(np.array([0, 0, 2, 1]))
    assert occ.counts.tolist() == [[2, 0, 0], [1, 0, 1], [0, 0, 2], [0, 2, 0]]
    assert occ.proportions().tolist() == [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1], [0, 1, 0]]


def test_update_matches_incremental_recurrence():
    # one step of the float recurrence from p_4 = (0.75, 0.25)
    p4 = [0.75, 0.25]
    t = 4
    e0 = [1.0, 0.0]
    p5 = [p + (e - p) / (t + 1) for p, e in zip(p4, e0)]
    occ = make_state((3, 1))
    occ.apply(0)
    assert one_row(occ) == pytest.approx(p5, abs=1e-15)
    assert one_row(occ) == [0.8, 0.2]


def test_proportions_examples():
    assert one_row(make_state((4, 1))) == [0.8, 0.2]
    assert one_row(make_state((0, 7))) == [0.0, 1.0]
    assert one_row(make_state((1, 1, 1))) == pytest.approx([1 / 3] * 3)


def test_proportions_undefined_before_first_action():
    with pytest.raises(ValueError):
        OccupationState(2, seeds=1).proportions()


def test_needs_at_least_two_actions():
    with pytest.raises(ValueError):
        OccupationState(1, seeds=1)


def test_check_simplex_accepts_valid_point():
    assert check_simplex((0.25, 0.75)) == (0.25, 0.75)


def test_check_simplex_names_negative_coordinate():
    with pytest.raises(ValueError, match="coordinate 1"):
        check_simplex((1.5, -0.5))


def test_check_simplex_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        check_simplex((0.3, 0.3))


def test_check_simplex_rejects_nan():
    # comparisons with NaN are false, so both tests are written to fail on it
    for coords in ((math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="coordinate"):
            check_simplex(coords)
    with pytest.raises(ValueError, match="sum"):
        check_simplex((0.5, 0.5), tol=math.nan)


def test_float_recurrence_rejects_empty():
    with pytest.raises(ValueError):
        float_recurrence([], 2)


@st.composite
def block_runs(draw):
    """A block's seed count, its actions (one a round: a plain int or one
    per seed), the rounds read and what is read there, and the round whose
    counts get two columns swapped, with whether `proportions` is read
    just before the swap (None: no swap)."""
    seeds = draw(st.integers(1, 3))
    # the length drawn first, so runs past LOG_ROUNDS are common
    t_max = draw(st.integers(1, 400))
    per_seed = draw(arrays(np.intp, (t_max, seeds), elements=st.integers(0, 3)))
    plain = draw(arrays(bool, t_max))
    actions = [int(a[0]) if p else a for a, p in zip(per_seed, plain)]
    reads = draw(st.dictionaries(st.integers(1, t_max), st.sampled_from(["counts", "proportions"])))
    swap = draw(st.none() | st.tuples(st.integers(1, t_max), st.booleans()))
    return seeds, actions, reads, swap


@given(block_runs())
# p = (2/3, 1/3, 0, 0) read after actions 0, 0, 1, then counts swapped to (1, 2, 0, 0)
@example((1, [0, 0, 1], {}, (3, True)))
def test_counts_are_exact_for_any_action_sequence(run):
    # A block under plain-int and per-seed actions, read at drawn rounds:
    # runs past LOG_ROUNDS fill the log, and a read after unread rounds
    # folds them in.  A write through `counts` (swapping two columns) may
    # come while rows are pending, or just after a `proportions` read,
    # and must land on the folded counts and show in the next proportions.
    seeds, actions, reads, swap = run
    swap_t, read_first = swap or (None, False)
    t_max = len(actions)
    occ = OccupationState(4, seeds=seeds)
    tally = np.zeros((seeds, 4), dtype=np.int64)
    for t, a in enumerate(actions, start=1):
        occ.apply(a)
        tally[np.arange(seeds), a] += 1
        if t == swap_t:
            if read_first:
                assert occ.proportions().tolist() == (tally / t).tolist()
            occ.counts[:, [0, 1]] = tally[:, [1, 0]]
            tally[:, [0, 1]] = tally[:, [1, 0]]
            assert occ.proportions().tolist() == (tally / t).tolist()
        if reads.get(t) == "counts":
            assert occ.counts.tolist() == tally.tolist()
        elif reads.get(t) == "proportions":
            assert occ.proportions().tolist() == (tally / t).tolist()
    assert occ.t == t_max
    assert occ.counts.tolist() == tally.tolist()
    assert occ.counts.sum(axis=1).tolist() == [t_max] * seeds
    p = occ.proportions()
    assert (p >= 0.0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=2000))
def test_float_recurrence_tracks_integer_counts(actions):
    occ = OccupationState(3, seeds=1)
    for a in actions:
        occ.apply(a)
    folded = float_recurrence(actions, 3)
    exact = one_row(occ)
    assert max(abs(a - b) for a, b in zip(folded, exact)) <= 1e-9


def test_float_recurrence_long_run_agreement():
    rng = np.random.default_rng(515)
    actions = [int(a) for a in rng.integers(0, 4, size=100_000)]
    occ = OccupationState(4, seeds=1)
    for a in actions:
        occ.apply(a)
    folded = float_recurrence(actions, 4)
    exact = one_row(occ)
    assert max(abs(a - b) for a, b in zip(folded, exact)) <= 1e-9
