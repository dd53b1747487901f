"""Exact GF(2) matrix arithmetic: construction, product, rank, rref, kernel.

The rank tests lean on an independent oracle: the row span of a GF(2) matrix
is a vector space, so its cardinality is 2^rank, and the span can be built by
brute-force XOR closure without any row reduction.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow import MatrixGF2, kernel_dim, multiply, rank, rref
from msflow.gf2 import row_reduce


def span_rank(m: MatrixGF2) -> int:
    """Rank via the cardinality of the XOR closure of the rows."""
    zero = (0,) * m.cols
    span = {zero}
    for i in range(m.rows):
        row = tuple(int(m[i, j]) for j in range(m.cols))
        span |= {tuple(a ^ b for a, b in zip(v, row)) for v in span}
    size = len(span)
    assert size & (size - 1) == 0, "row span size must be a power of two"
    return size.bit_length() - 1


def random_matrix(rng: random.Random, rows: int, cols: int) -> MatrixGF2:
    if rows == 0 or cols == 0:
        return MatrixGF2.zeros(rows, cols)
    return MatrixGF2([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# construction


def test_entries_and_shape():
    m = MatrixGF2([[1, 0], [0, 1], [1, 1]])
    assert m.shape == (3, 2)
    assert m.rows == 3 and m.cols == 2
    assert m[2, 0] == 1 and m[0, 1] == 0
    assert m.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert m[1, -1] == 1 and m[-1, -2] == 1
    for key in [(0, 2), (3, 0), (0, -3)]:
        with pytest.raises(IndexError):
            m[key]


def test_rejects_non_bit_entries():
    with pytest.raises(ValueError):
        MatrixGF2([[0, 2]])
    with pytest.raises(ValueError):
        MatrixGF2([[0.5]])


@pytest.mark.parametrize(
    "data",
    [
        [[1, 0], [1]],  # ragged
        [[1], [0, 1]],  # ragged the other way
        [[1.0]],  # float, even when integral
        [["1"]],  # string entries
        ["10"],  # string rows
        "10",
        [1, 0],  # one-dimensional
        [[[1]]],  # three-dimensional
        5,  # not a sequence at all
        [[None]],
    ],
)
def test_constructor_rejects_non_matrix_data(data):
    with pytest.raises(ValueError):
        MatrixGF2(data)


def test_empty_matrices_are_valid_with_rank_zero():
    for shape in [(0, 0), (0, 4), (4, 0)]:
        m = MatrixGF2.zeros(*shape)
        assert m.shape == shape
        assert rank(m) == 0


def test_equality_and_hash():
    a = MatrixGF2([[1, 0], [1, 1]])
    b = MatrixGF2(((True, False), (True, True)))  # any __index__ entries
    c = MatrixGF2([[1, 0], [0, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != [[1, 0], [1, 1]]


def test_values_are_immutable():
    m = MatrixGF2([[1, 0], [0, 1]])
    entries = m.tolist()
    entries[0][0] = 0  # mutating the copy must not touch the matrix
    assert m[0, 0] == 1
    with pytest.raises(TypeError):
        m[0, 0] = 0


# ---------------------------------------------------------------------------
# multiply


def test_multiply_hand_checked_product():
    a = MatrixGF2([[0, 0, 0], [0, 1, 1], [1, 1, 1]])
    b = MatrixGF2([[1, 1], [1, 1], [1, 1]])
    assert multiply(a, b).tolist() == [[0, 0], [0, 0], [1, 1]]


def test_multiply_identity_is_neutral():
    rng = random.Random(7)
    m = random_matrix(rng, 3, 3)
    assert multiply(MatrixGF2.identity(3), m) == m
    assert multiply(m, MatrixGF2.identity(3)) == m


def test_multiply_ones_cancel_mod_2():
    a = MatrixGF2([[1, 1], [1, 1]])
    b = MatrixGF2([[1], [1]])
    assert multiply(a, b).tolist() == [[0], [0]]


def test_multiply_shape_mismatch_names_both_shapes():
    a = MatrixGF2.zeros(2, 3)
    b = MatrixGF2.zeros(4, 2)
    with pytest.raises(ValueError) as exc:
        multiply(a, b)
    assert "2x3" in str(exc.value) and "4x2" in str(exc.value)


def test_multiply_with_empty_inner_dimension_is_zero():
    a = MatrixGF2.zeros(2, 0)
    b = MatrixGF2.zeros(0, 3)
    assert multiply(a, b) == MatrixGF2.zeros(2, 3)


def test_multiply_is_associative_on_random_triples():
    rng = random.Random(2024)
    for _ in range(50):
        p, q, r, s = (rng.randint(0, 4) for _ in range(4))
        a, b, c = random_matrix(rng, p, q), random_matrix(rng, q, r), random_matrix(rng, r, s)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# ---------------------------------------------------------------------------
# rank / rref / kernel_dim


def test_rank_of_four_by_three_boundary_is_two():
    m = MatrixGF2([[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]])
    assert rank(m) == 2


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5), (4, 4)])
def test_rank_of_zero_matrix_is_zero(shape):
    assert rank(MatrixGF2.zeros(*shape)) == 0


def test_rank_of_repeated_rows_is_one():
    m = MatrixGF2([[1, 1], [1, 1], [1, 1]])
    assert rank(m) == 1
    assert span_rank(m) == 1


def test_rref_examples():
    assert rref(MatrixGF2([[1, 1], [1, 1]])).tolist() == [[1, 1], [0, 0]]
    assert rref(MatrixGF2.identity(3)) == MatrixGF2.identity(3)
    assert rref(MatrixGF2([[0, 1], [1, 0]])) == MatrixGF2.identity(2)


def test_rref_preserves_rank_and_is_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        r = rref(m)
        assert rank(r) == rank(m)
        assert rref(r) == r


def test_row_reduce_reports_pivot_columns():
    m = MatrixGF2([[0, 1, 1], [0, 1, 0], [0, 0, 1]])
    reduced, pivots = row_reduce(m)
    assert pivots == (1, 2)
    assert rank(m) == len(pivots)
    assert reduced.tolist() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_kernel_dim_examples():
    assert kernel_dim(MatrixGF2([[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]])) == 1
    assert kernel_dim(MatrixGF2.zeros(3, 5)) == 5
    assert kernel_dim(MatrixGF2.identity(4)) == 0


# ---------------------------------------------------------------------------
# oracle equivalence and rank inequalities


def test_rank_matches_span_oracle_exhaustively_on_small_shapes():
    """Every bit pattern on every shape with at most 12 entries."""
    for rows in range(0, 5):
        for cols in range(0, 5):
            cells = rows * cols
            if cells > 12:
                continue
            for bits in range(2**cells):
                flat = [(bits >> i) & 1 for i in range(cells)]
                m = MatrixGF2([flat[r * cols : (r + 1) * cols] for r in range(rows)])
                assert rank(m) == span_rank(m)


def test_rank_matches_span_oracle_sampled_on_larger_shapes():
    """Seeded samples on every shape up to 5x5 too big to enumerate."""
    rng = random.Random(20240917)
    for rows in range(1, 6):
        for cols in range(1, 6):
            if rows * cols <= 12:
                continue
            for _ in range(120):
                m = random_matrix(rng, rows, cols)
                assert rank(m) == span_rank(m)


def test_rank_bounds():
    rng = random.Random(99)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert rank(m) <= min(m.rows, m.cols)


def test_rank_of_product_bounded_by_factor_ranks():
    rng = random.Random(1234)
    for _ in range(60):
        p, q, r = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = random_matrix(rng, p, q), random_matrix(rng, q, r)
        assert rank(multiply(a, b)) <= min(rank(a), rank(b))


# ---------------------------------------------------------------------------
# properties against textbook definitions, at widths past one machine word


@st.composite
def bit_lists(draw, rows: int, cols: int) -> list[list[int]]:
    """A rows x cols 0/1 table, drawn one row-sized integer at a time."""
    words = draw(st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows))
    return [[(w >> j) & 1 for j in range(cols)] for w in words]


def as_matrix(entries: list[list[int]], cols: int) -> MatrixGF2:
    return MatrixGF2(entries) if entries else MatrixGF2.zeros(0, cols)


def textbook_product(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    return [[sum(row[k] * b[k][j] for k in range(len(b))) % 2 for j in range(cols)] for row in a]


def textbook_rref(entries: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Column-by-column Gauss-Jordan elimination on lists of 0/1 entries."""
    rows = [list(r) for r in entries]
    pivots: list[int] = []
    for col in range(cols):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[r0], rows[pivot] = rows[pivot], rows[r0]
        for r in range(len(rows)):
            if r != r0 and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[r0])]
        pivots.append(col)
    return rows, pivots


SMALL = st.integers(0, 6)
PRODUCT_SHAPES = st.one_of(st.tuples(SMALL, SMALL, SMALL), st.sampled_from([(3, 70, 130), (70, 130, 3), (2, 64, 65)]))
RANK_SHAPES = st.one_of(st.tuples(SMALL, SMALL), st.sampled_from([(3, 70), (70, 130), (65, 64), (130, 70)]))


@settings(max_examples=80, deadline=None)
@given(st.data(), PRODUCT_SHAPES)
def test_multiply_is_the_textbook_sum_mod_2(data, shape):
    p, q, r = shape
    a, b = data.draw(bit_lists(p, q)), data.draw(bit_lists(q, r))
    assert multiply(as_matrix(a, q), as_matrix(b, r)).tolist() == textbook_product(a, b, r)


@settings(max_examples=80, deadline=None)
@given(st.data(), RANK_SHAPES)
def test_rank_and_rref_match_gauss_jordan_elimination(data, shape):
    rows, cols = shape
    entries = data.draw(bit_lists(rows, cols))
    m = as_matrix(entries, cols)
    expected, pivots = textbook_rref(entries, cols)
    assert rank(m) == len(pivots)
    assert row_reduce(m) == (as_matrix(expected, cols), tuple(pivots))
    transposed = [[row[j] for row in entries] for j in range(cols)]
    assert rank(as_matrix(transposed, rows)) == rank(m)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_rank_matches_span_oracle(data, shape):
    rows, cols = shape
    m = as_matrix(data.draw(bit_lists(rows, cols)), cols)
    assert rank(m) == span_rank(m)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.tuples(st.integers(0, 6), st.integers(0, 70)))
def test_from_ones_and_nonzero_entries_agree_with_entries(data, shape):
    rows, cols = shape
    entries = data.draw(bit_lists(rows, cols))
    m = as_matrix(entries, cols)
    ones = [(i, j) for i in range(rows) for j in range(cols) if entries[i][j]]
    assert m.nonzero_entries() == ones
    assert MatrixGF2.from_ones(rows, cols, ones) == m
    assert all(m[i, j] == entries[i][j] for i in range(rows) for j in range(cols))


def test_from_ones_rejects_positions_outside_the_shape():
    with pytest.raises(ValueError):
        MatrixGF2.from_ones(2, 3, [(0, 3)])
    with pytest.raises(ValueError):
        MatrixGF2.from_ones(2, 3, [(2, 0)])
