"""The group inverse (``physical._distinct_keys``) against ``np.unique``.

One id column is grouped by a dense remap over its id range, several
columns (and a column whose range is far wider than its row count) by
``np.unique``; either way the keys must be the sorted distinct rows and
``keys[inverse]`` the input, with unbound (-1) and computed (<= -2) ids
in the columns.
"""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from repro.sparql.physical import _DENSE_RANGE, _compress, _distinct_keys, Batch

# Store ids, unbound and computed terms, and ids far past any dense range.
_IDS = st.one_of(
    st.integers(0, 40),
    st.sampled_from([-1, -2, -3, -17]),
    st.integers(10**6, 10**12),
)


def _assert_matches_unique(columns: list[np.ndarray]) -> None:
    keys, inverse = _distinct_keys(columns)
    stacked = np.stack(columns, axis=1).reshape(len(columns[0]), len(columns))
    expected, expected_inverse = np.unique(stacked, axis=0, return_inverse=True)
    assert keys.shape == expected.shape and keys.dtype == np.int64
    assert np.array_equal(keys, expected)
    assert np.array_equal(inverse, expected_inverse.reshape(-1))
    assert inverse.shape == (len(columns[0]),)
    assert np.array_equal(keys[inverse], stacked)


@seed(3911)
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(_IDS, min_size=3, max_size=3), max_size=60),
    width=st.integers(1, 3),
)
def test_distinct_keys_agree_with_np_unique(rows, width):
    """Single and multi-column inputs, empty and one-row ones included."""
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), 3)[:, :width]
    _assert_matches_unique([np.ascontiguousarray(matrix[:, at]) for at in range(width)])


@seed(3912)
@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(st.integers(-5, 300), min_size=1, max_size=400),
    spread=st.sampled_from([1, 7, 10**5]),
)
def test_one_column_dense_and_sparse(ids, spread):
    """A spread of 1 keeps the column on the dense remap, 7 puts it on
    either side depending on its row count, and 10**5 makes its range far
    wider than its rows, so ``np.unique`` runs (unless all ids are one)."""
    column = np.array(ids, dtype=np.int64) * spread
    _assert_matches_unique([column])


def test_the_fallback_starts_one_id_past_the_dense_range(monkeypatch):
    """A range of ``_DENSE_RANGE`` times the rows plus 1,024 ids is remapped
    without a sort; one id wider goes through ``np.unique``."""
    rows = 51
    low = np.arange(rows - 1, dtype=np.int64) - 3
    widest = _DENSE_RANGE * rows + 1024
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    for extra, sorted_ in ((0, 0), (1, 1)):
        column = np.concatenate([low, [low[0] + widest - 1 + extra]])
        sorts.clear()
        keys, inverse = _distinct_keys([column])
        assert len(sorts) == sorted_
        assert np.array_equal(keys[inverse, 0], column)
    monkeypatch.undo()
    for column in (np.empty(0, dtype=np.int64), np.array([-2])):
        _assert_matches_unique([column])


@seed(3913)
@settings(max_examples=60, deadline=None)
@given(
    mask=st.lists(st.booleans(), max_size=700),
    columns=st.integers(1, 3),
)
def test_compress_keeps_masked_rows_in_order(mask, columns):
    """Below and above the gather crossover alike."""
    count = len(mask)
    batch = Batch({f"v{at}": np.arange(count, dtype=np.int64) * (at + 1) - 1
                   for at in range(columns)}, count)
    kept = _compress(batch, np.array(mask, dtype=bool))
    assert kept.count == sum(mask)
    for name, column in batch.columns.items():
        assert np.array_equal(kept.columns[name], column[np.array(mask, dtype=bool)])
