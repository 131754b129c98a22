import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerocontrol import PatternMatrix
from zerocontrol.patterns import DuplicateEntryWarning
from conftest import random_pattern


def test_basic_construction():
    p = PatternMatrix(2, 3, frozenset({(1, 1), (2, 3)}))
    assert p.shape == (2, 3)
    assert not p.is_square
    assert p.sorted_entries() == [(1, 1), (2, 3)]


def test_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="row 3 out of range"):
        PatternMatrix(2, 2, frozenset({(3, 1)}))
    with pytest.raises(ValueError, match="column 5 out of range"):
        PatternMatrix(2, 2, frozenset({(1, 5)}))
    with pytest.raises(ValueError, match="column 0 out of range"):
        PatternMatrix(2, 2, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match="negative dimensions"):
        PatternMatrix(-1, 2)


@pytest.mark.parametrize("make, args", [
    (PatternMatrix, (2, 2, {(1.7, 1)})),  # was silently {(1, 1)}
    (PatternMatrix, (2, 2, {(1, 2.0)})),
    (PatternMatrix, (2.5, 2)),  # was accepted
    (PatternMatrix, (2, 2.0)),
    (PatternMatrix.from_entries, (2, 2, [(1.7, 1)])),
])
def test_sizes_and_indices_must_be_integers(make, args):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make(*args)


def test_numpy_integers_are_stored_as_plain_ints():
    p = PatternMatrix(np.int64(2), np.int32(3), {(np.int64(1), np.uint8(3))})
    assert p == PatternMatrix(2, 3, {(1, 3)})
    assert repr(p) == "PatternMatrix(n_rows=2, n_cols=3, nonzeros=frozenset({(1, 3)}))"
    assert {type(k) for k in (p.n_rows, p.n_cols, *next(iter(p.nonzeros)))} == {int}


def test_from_rows_matches_grid():
    p = PatternMatrix.from_rows([[1, 0], [0, 1]])
    assert p == PatternMatrix.identity(2)
    with pytest.raises(ValueError, match="row 2 has 3 cells"):
        PatternMatrix.from_rows([[1, 0], [0, 1, 1]])


def test_from_entries_warns_on_duplicates():
    with pytest.warns(DuplicateEntryWarning):
        p = PatternMatrix.from_entries(2, 2, [(1, 1), (1, 1)], warn_duplicates=True)
    assert p.nonzeros == frozenset({(1, 1)})


def test_with_and_without_entry():
    p = PatternMatrix.zeros(2, 2).with_entry(1, 2)
    assert (1, 2) in p.nonzeros
    assert p.without_entry(1, 2) == PatternMatrix.zeros(2, 2)


def test_hstack_shifts_columns():
    a = PatternMatrix(2, 2, frozenset({(1, 1)}))
    b = PatternMatrix(2, 1, frozenset({(2, 1)}))
    stacked = a.hstack(b)
    assert stacked.shape == (2, 3)
    assert stacked.nonzeros == frozenset({(1, 1), (2, 3)})
    with pytest.raises(ValueError, match="cannot stack"):
        a.hstack(PatternMatrix(3, 1))


def test_hstack_equals_the_validating_construction():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n, m_a, m_b = (int(k) for k in rng.integers(0, 9, size=3))
        a = random_pattern(rng, n, m_a, float(rng.uniform(0, 0.7)))
        b = random_pattern(rng, n, m_b, float(rng.uniform(0, 0.7)))
        shifted = {(i, j + m_a) for i, j in b.nonzeros}
        reference = PatternMatrix(n, m_a + m_b, a.nonzeros | shifted)
        stacked = a.hstack(b)
        assert stacked == reference
        for got, want in zip(stacked._coords, reference._coords):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_submatrix_reindexes():
    p = PatternMatrix.from_rows([[1, 0, 1], [0, 0, 0], [0, 1, 0]])
    sub = p.submatrix([1, 3], [2, 3])
    assert sub.shape == (2, 2)
    assert sub.nonzeros == frozenset({(1, 2), (2, 1)})


def test_reindex_requires_permutation():
    p = PatternMatrix.identity(3)
    with pytest.raises(ValueError, match="not a permutation"):
        p.reindex([1, 1, 2])
    with pytest.raises(ValueError, match="^col_order is not a permutation of the column indices$"):
        p.reindex([1, 2, 3], [3, 2, 4])


def test_to_dense_round_trip():
    p = PatternMatrix.from_rows([[1, 0], [1, 1]])
    dense = p.to_dense()
    assert dense.dtype == bool
    assert PatternMatrix.from_rows(dense.tolist()) == p


@st.composite
def patterns(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    entries = draw(
        st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=n * m)
    )
    return PatternMatrix(n, m, entries)


@given(patterns())
def test_reindex_round_trips(p):
    rng = np.random.default_rng(0)
    rows = list(rng.permutation(np.arange(1, p.n_rows + 1)))
    cols = list(rng.permutation(np.arange(1, p.n_cols + 1)))
    permuted = p.reindex(rows, cols)
    inverse_rows = [rows.index(i) + 1 for i in range(1, p.n_rows + 1)]
    inverse_cols = [cols.index(j) + 1 for j in range(1, p.n_cols + 1)]
    assert permuted.reindex(inverse_rows, inverse_cols) == p
    assert len(permuted.nonzeros) == len(p.nonzeros)
