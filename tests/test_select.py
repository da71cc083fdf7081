import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sosci import select_abs_max, select_top_k
from sosci.select import abs_max_index, selected_entries, top_k_indices

# values from a small integer set, so blocks are full of ties (and of |y| ties
# across signs)
_TIED = st.integers(-3, 3).map(float)
# the tied integers plus the values comparisons treat specially
_EDGE = st.one_of(_TIED, st.sampled_from([-0.0, np.inf, -np.inf, np.nan]))
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_top_k_basic():
    assert select_top_k([1.0, 3.0, 2.0], 2) == (1, 2)


def test_top_k_all():
    assert select_top_k([0.4, -1.0, 0.2], 3) == (0, 2, 1)


def test_top_k_single():
    assert select_top_k([5.0, 7.0, 6.0], 1) == (1,)


def test_top_k_ties_break_by_index():
    assert select_top_k([2.0, 2.0, 2.0, 1.0], 2) == (0, 1)


def test_top_k_invariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.standard_normal(12)
        k = int(rng.integers(1, 12))
        base = select_top_k(y, k)
        scaled = select_top_k(3.0 * y + 1.0, k)
        warped = select_top_k(np.exp(y), k)
        assert base == scaled == warped


def test_top_k_unchanged_by_appending_smaller_values():
    y = [4.0, 9.0, 7.0]
    before = select_top_k(y, 2)
    after = select_top_k(y + [-100.0, 0.0], 2)
    assert before == after


def test_top_k_errors():
    with pytest.raises(ValueError):
        select_top_k([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        select_top_k([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        select_top_k([1.0, np.nan], 1)
    with pytest.raises(ValueError):
        select_top_k([[1.0, 2.0]], 1)
    with pytest.raises(ValueError):
        select_top_k([], 1)


def test_abs_max_basic():
    assert select_abs_max([2.9, 2.5]) == 0
    assert select_abs_max([-3.1, 2.5]) == 0
    assert select_abs_max([0.4, -0.9]) == 1


def test_abs_max_tie_prefers_first():
    assert select_abs_max([2.0, -2.0]) == 0
    assert select_abs_max([-1.5, 1.5]) == 0


def test_abs_max_errors():
    with pytest.raises(ValueError):
        select_abs_max([1.0])
    with pytest.raises(ValueError):
        select_abs_max([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        select_abs_max([np.inf, 1.0])


@_PROPERTY
@given(st.data())
def test_top_k_indices_rows_match_select_top_k(data):
    reps, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    y = data.draw(arrays(np.float64, (reps, m), elements=_TIED))
    k = data.draw(st.integers(1, m))
    block = top_k_indices(y, k)
    assert block.shape == (reps, k)
    for row, chosen in zip(y, block):
        assert set(chosen) == set(select_top_k(row, k))


@_PROPERTY
@given(st.data())
def test_top_k_indices_rows_match_stable_argsort(data):
    reps, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))
    y = data.draw(arrays(np.float64, (reps, m), elements=_TIED))
    k = data.draw(st.sampled_from([m, data.draw(st.integers(1, m))]))
    block = top_k_indices(y, k)
    assert block.shape == (reps, k)
    for row, chosen in zip(y, block):
        assert len(set(chosen)) == k
        assert set(chosen) == set(np.argsort(-row, kind="stable")[:k])


def test_top_k_indices_ranks_nan_below_every_number():
    assert top_k_indices(np.array([[np.nan, 1.0, 2.0]]), 1).tolist() == [[2]]
    assert top_k_indices(np.array([np.nan, -np.inf, np.nan]), 2).tolist() == [0, 1]


@_PROPERTY
@given(st.data())
def test_top_k_indices_edge_rows_match_stable_argsort(data):
    reps, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))
    y = data.draw(arrays(np.float64, (reps, m), elements=_EDGE))
    k = data.draw(st.sampled_from([m, data.draw(st.integers(1, m))]))
    block = top_k_indices(y, k)
    assert block.shape == (reps, k)
    for row, chosen in zip(y, block):
        assert chosen.tolist() == sorted(np.argsort(-row, kind="stable")[:k].tolist())


@_PROPERTY
@given(st.data())
def test_selected_entries_locate_each_rules_pick(data):
    reps, m = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 10))
    y = data.draw(arrays(np.float64, (reps, m), elements=_EDGE))
    k = data.draw(st.integers(1, m))
    for rule, k_rule, pick, y_rule in (
            ("top_k", k, top_k_indices(y, k), y),
            ("abs_max", 1, abs_max_index(y[:, :2])[:, None], y[:, :2])):
        flat, cols = selected_entries(y_rule, rule, k_rule)
        assert cols.tolist() == pick.tolist()
        assert flat.tolist() == (np.arange(reps)[:, None] * y_rule.shape[1] + cols).tolist()


@_PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(2)), elements=_TIED))
def test_abs_max_index_rows_match_select_abs_max(y):
    block = abs_max_index(y)
    assert block.shape == (y.shape[0],)
    for row, chosen in zip(y, block):
        assert chosen == select_abs_max(row)
