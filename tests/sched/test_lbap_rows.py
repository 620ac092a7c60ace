"""Fed-LBAP and OLAR on class rows: solving over the distinct cost rows
plus a user → row map must give exactly the per-user expansion's
answer, and Fed-LBAP must match the replaced greedy kernel
(``tests.oracles.fed_lbap_greedy``) with exact ``==``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sched.lbap import fed_lbap, feasible_at_threshold
from repro.sched.olar import olar_assign
from tests.oracles import fed_lbap_greedy


@st.composite
def class_instances(draw):
    """Tie-heavy integer class rows, a user → row map and a budget.

    An extra row no user references is appended; it is negative and
    decreasing, so the solve fails if it checks or searches it.
    """
    n_rows = draw(st.integers(1, 5))
    s = draw(st.integers(1, 7))
    n = draw(st.integers(1, 14))
    steps = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=s, max_size=s),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    matrix = np.cumsum(np.array(steps, dtype=np.float64), axis=1)
    matrix = np.vstack([matrix, -np.arange(1.0, s + 1)])
    row_of = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    )
    caps = draw(
        st.none()
        | st.lists(st.integers(0, s + 1), min_size=n, max_size=n).map(
            np.array
        )
    )
    room = n * s if caps is None else int(np.minimum(caps, s).sum())
    assume(room >= 1)
    total = draw(st.integers(1, room))
    return matrix, row_of, caps, total


@settings(max_examples=300, deadline=None)
@given(inst=class_instances())
def test_class_rows_match_expansion_and_greedy(inst):
    matrix, row_of, caps, total = inst
    by_row, c_row = fed_lbap(matrix, total, caps, rows=row_of)
    dense, c_dense = fed_lbap(matrix[row_of], total, caps)
    greedy, c_greedy = fed_lbap_greedy(matrix[row_of], total, caps)
    assert by_row.tolist() == dense.tolist() == greedy.tolist()
    assert c_row == c_dense == c_greedy


@settings(max_examples=100, deadline=None)
@given(inst=class_instances())
def test_olar_class_rows_match_expansion(inst):
    matrix, row_of, caps, total = inst
    s = matrix.shape[1]
    caps = np.full(len(row_of), s) if caps is None else np.minimum(caps, s)
    by_row = olar_assign(matrix, total, caps, rows=row_of)
    dense = olar_assign(matrix[row_of], total, caps)
    assert by_row.tolist() == dense.tolist()


def test_rows_within_the_property1_tolerance():
    """Rows may dip by up to 1e-9; the solve runs on their running
    maximum, so it equals the greedy kernel on those rows and never
    realises a cost above ``c*``."""
    rng = np.random.default_rng(7)
    dented_instances = 0
    for _ in range(400):
        n, s = int(rng.integers(1, 8)), int(rng.integers(2, 7))
        cost = np.cumsum(rng.integers(0, 3, size=(n, s)), axis=1)
        cost = 1.0 + cost.astype(np.float64)
        dent = rng.random((n, s)) < 0.3
        dent[:, 0] = False
        cost[dent] -= 5e-10
        dented_instances += bool((np.diff(cost, axis=1) < 0).any())
        caps = rng.integers(0, s + 1, size=n) if rng.random() < 0.5 else None
        room = n * s if caps is None else int(caps.sum())
        if room == 0:
            continue
        total = int(rng.integers(1, room + 1))
        counts, c_star = fed_lbap(cost, total, caps)
        expected, c_expected = fed_lbap_greedy(
            np.maximum.accumulate(cost, axis=1), total, caps
        )
        assert counts.tolist() == expected.tolist()
        assert c_star == c_expected
        active = np.flatnonzero(counts)
        assert cost[active, counts[active] - 1].max() <= c_star
    assert dented_instances > 100


def test_unreferenced_rows_are_not_validated():
    cost = np.array([[1.0, 2.0], [np.nan, -1.0], [1.0, 3.0]])
    counts, c_star = fed_lbap(cost, 3, rows=np.array([2, 0, 2]))
    assert counts.sum() == 3
    assert c_star == 1.0
    with pytest.raises(ValueError, match="NaN"):
        fed_lbap(cost, 3, rows=np.array([1, 0]))


def test_rows_validation():
    cost = np.array([[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match="index"):
        fed_lbap(cost, 2, rows=np.array([0, 2]))
    with pytest.raises(ValueError, match="index"):
        fed_lbap(cost, 2, rows=np.array([-1, 0]))
    with pytest.raises(ValueError, match="1-D integer"):
        fed_lbap(cost, 2, rows=np.array([[0, 1]]))
    with pytest.raises(ValueError, match="1-D integer"):
        fed_lbap(cost, 2, rows=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="at least one user"):
        fed_lbap(cost, 2, rows=np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="capacities length"):
        fed_lbap(cost, 2, np.array([1, 1]), rows=np.array([0, 1, 1]))


def test_feasibility_gathers_rows():
    cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    feasible, counts = feasible_at_threshold(
        cost, 2.0, 5, np.array([9, 1, 9]), rows=np.array([0, 0, 1])
    )
    assert counts.tolist() == [2, 1, 1]
    assert not feasible
