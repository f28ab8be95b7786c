"""The element elimination that the package's integer ``rref`` replaced,
kept as the independent reference of the differential tests: one row
operation at a time on ``Fraction`` or ``Fp`` entries."""

import numpy as np

from hopfcross.fields import Field


def rref(m: np.ndarray, fld: Field):
    """Reduced row echelon form.

    Args:
        m: matrix, shape (r, c).
        fld: field descriptor of the entries.

    Returns:
        (R, pivots, rank) where R is the RREF matrix (same shape), pivots
        the tuple of pivot column indices in increasing order, and
        rank == len(pivots).  Pivot entries are 1 and are the only nonzero
        entries of their columns.
    """
    r, c = m.shape
    R = np.array(m, dtype=object)
    pivots = []
    row = 0
    for col in range(c):
        # find a nonzero entry at or below `row` in this column
        sel = None
        for i in range(row, r):
            if R[i, col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != row:
            R[[row, sel]] = R[[sel, row]]
        piv = R[row, col]
        if piv != fld.one():
            R[row] = [x / piv for x in R[row]]
        for i in range(r):
            if i != row and R[i, col] != 0:
                f = R[i, col]
                R[i] = [x - f * y for x, y in zip(R[i], R[row])]
        pivots.append(col)
        row += 1
        if row == r:
            break
    return R, tuple(pivots), len(pivots)

