"""Exact dense linear algebra over the scalar field.

Everything here is plain Gaussian elimination with field divisions and
first-nonzero pivoting: deterministic, exact, and fast enough for the
matrix sizes this package ever builds (tens of rows/columns).  A matrix is
a plain list of rows (ints and Fractions are lifted to Scalars); where a
row list can be empty, the column count is passed alongside it.
"""

from __future__ import annotations

from .field import ONE, ZERO, Scalar


def _check_width(rows, ncols: int):
    if any(len(r) != ncols for r in rows):
        raise ValueError("every row must have %d entries" % ncols)


def rref(rows):
    """Reduced row echelon form of a list-of-rows; returns (rows, pivot_cols).

    Pivot choice is the first nonzero entry of the first unfinished row,
    which makes every downstream basis deterministic.
    """
    rows = [[Scalar.coerce(e) for e in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    # drop all-zero rows
    rows = [row for row in rows if any(row)]
    return rows, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def echelon_kernel(echelon, pivots, ncols: int):
    """Kernel basis read off a reduced echelon form with ``ncols`` columns:
    one vector per free column, with a 1 in the free slot and the negated
    pivot-column entries above."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            if echelon[r][f]:
                v[pc] = -echelon[r][f]
        basis.append(v)
    return basis


def kernel_basis(rows, ncols: int):
    """Exact basis of the right null space {v : M v = 0} of the rows.

    dim(kernel) = ncols - rank.
    """
    _check_width(rows, ncols)
    return echelon_kernel(*rref(rows), ncols)


def solve(rows, b, ncols: int):
    """One exact solution of M x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    _check_width(rows, ncols)
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    echelon, pivots = rref([list(r) + [bi] for r, bi in zip(rows, b)])
    if ncols in pivots:  # pivot in the augmented column: 0 = 1
        return None
    x = [ZERO] * ncols
    for row, pc in zip(echelon, pivots):
        x[pc] = row[ncols]
    return x


def span_rref(vectors):
    """Canonical (RREF) basis of the span of the given coefficient vectors.

    Two subspaces are equal exactly when their span_rref outputs are equal,
    which is how subspace comparisons are done throughout.
    """
    return rref(vectors)[0]
