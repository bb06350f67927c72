import random

import pytest

from abellab.field import ONE, ZERO, rational
from abellab.linalg import kernel_basis, rank, rref, solve, span_rref


def mat(rows):
    return [[rational(e) for e in r] for r in rows]


def mul_vector(M, v):
    out = []
    for row in M:
        acc = ZERO
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def is_zero_vec(v):
    return all(not x for x in v)


def test_rank_one_kernel():
    M = mat([[1, 1], [2, 2]])
    basis = kernel_basis(M, 2)
    assert len(basis) == 1
    assert is_zero_vec(mul_vector(M, basis[0]))
    # the kernel is spanned by (1, -1)
    v = basis[0]
    assert v[0] == -v[1]


def test_identity_kernel_empty():
    M = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(M, 3) == []


def test_single_row_kernel_matches_hand_elimination():
    M = mat([[1, 2, 3]])
    basis = kernel_basis(M, 3)
    assert len(basis) == 2
    assert basis[0] == [rational(-2), ONE, ZERO]
    assert basis[1] == [rational(-3), ZERO, ONE]


def test_kernel_plus_rank_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        basis = kernel_basis(M, m)
        for v in basis:
            assert is_zero_vec(mul_vector(M, v))
        # independent rank: count pivots of the transpose reduction
        t_rows = [[M[i][j] for i in range(n)] for j in range(m)]
        _, pivots = rref(t_rows)
        assert len(basis) + len(pivots) == m
        assert rank(M) == len(pivots)


def test_solve_consistent_and_inconsistent():
    M = mat([[1, 2], [3, 4]])
    x = solve(M, [rational(5), rational(11)], 2)
    assert mul_vector(M, x) == [rational(5), rational(11)]
    M2 = mat([[1, 1], [2, 2]])
    assert solve(M2, [rational(1), rational(3)], 2) is None


def test_span_rref_is_canonical():
    a = [[rational(1), rational(2), rational(0)], [rational(0), rational(0), rational(1)]]
    b = [[rational(2), rational(4), rational(2)], [rational(0), rational(0), rational(-3)]]
    assert span_rref(a) == span_rref(b)


def test_span_rref_drops_zero_rows():
    assert span_rref([]) == []
    assert span_rref([[0, 0]]) == []
    mixed = [[0, 0, 0], [2, 4, 0], [0, 0, 0], [1, 2, 3], [0, 0, 0]]
    assert span_rref(mixed) == [[ONE, rational(2), ZERO], [ZERO, ZERO, ONE]]


def test_entry_count_validation():
    ragged = [[ONE, ZERO], [ONE]]
    with pytest.raises(ValueError):
        kernel_basis(ragged, 2)
    with pytest.raises(ValueError):
        solve(ragged, [ONE, ONE], 2)
    with pytest.raises(ValueError):
        solve(mat([[1, 2]]), [ONE, ONE], 2)


def test_empty_row_list_keeps_the_column_count():
    assert kernel_basis([], 3) == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert solve([], [], 2) == [ZERO, ZERO]
    assert rank([]) == 0


def test_integer_rows_stay_exact():
    assert kernel_basis([[2, 1]], 2) == [[rational(-1, 2), ONE]]
    assert solve([[3, 0], [0, 2]], [1, 1], 2) == [rational(1, 3), rational(1, 2)]
    assert rank([[2, 4], [1, 2]]) == 1
