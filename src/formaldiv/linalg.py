"""Exact sparse linear algebra over the rationals.

Used by the specialization checks for the oracle relations (a kernel) and
for deciding whether those relations are spanned (the pivots of one rref).
A matrix is given by its rows, each a {column: Fraction} dict that holds
no zeros.  Elimination runs on integer rows, each kept free of a common
factor, and touches only their nonzero entries.
"""

from fractions import Fraction
from math import gcd, lcm


def rref(rows) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of the sparse rows: its nonzero rows in
    pivot order and their pivot columns.

    Rows are taken one at a time, cleared at the pivot columns found so far,
    and pivot on their lowest column; the earlier rows are then cleared at
    that column.  So the pivot rows end as the unique reduced echelon basis
    of the row space, up to the scale that dividing by the pivot removes.
    """
    done = {}  # pivot column -> its integer row
    for row in rows:
        if not row:
            continue
        d = lcm(*(v.denominator for v in row.values()))
        row = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
        for c in [c for c in row if c in done]:
            _clear(row, c, done[c])
        if not row:
            continue
        p = min(row)
        for other in done.values():
            if p in other:
                _clear(other, p, row)
        done[p] = row
    pivots = sorted(done)
    return [{k: Fraction(v, done[p][p]) for k, v in done[p].items()} for p in pivots], pivots


def _clear(row: dict, c: int, pivot_row: dict) -> None:
    # row <- (a * row - b * pivot_row) / g in place, with the least a, b that
    # zero column c and g the gcd of the entries that are left
    g = gcd(pivot_row[c], row[c])
    a, b = pivot_row[c] // g, row[c] // g
    for k in row:
        row[k] *= a
    for k, v in pivot_row.items():
        s = row.get(k, 0) - b * v
        if s:
            row[k] = s
        else:
            del row[k]
    g = gcd(*row.values())
    for k in row:
        row[k] //= g


def kernel_basis(rows, ncols: int) -> list[dict]:
    """Basis of the null space of the matrix with ncols columns, one sparse
    vector per free column, in column order."""
    reduced, pivots = rref(rows)
    basis = {free: {free: Fraction(1)} for free in range(ncols) if free not in pivots}
    for row, pc in zip(reduced, pivots):
        for k, v in row.items():
            if k != pc:
                basis[k][pc] = -v
    return [dict(sorted(vec.items())) for vec in basis.values()]
