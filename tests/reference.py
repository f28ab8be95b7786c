"""The element arithmetic that the package's integer kernels replaced,
kept as the independent reference of the differential tests, and the
scalar strings in which tests edit the entries of a tensor.

An element is a ``Fraction`` over QQ and an int in 0..p-1 over F_p, so
that equal elements compare equal; ``rref`` eliminates on them one row
operation at a time, dividing over F_p by ``pow(x, -1, p)``."""

from fractions import Fraction

import numpy as np

from hopfcross.fields import Field
from hopfcross.linalg import Exact, arr, to_strings


def elements(t: Exact) -> np.ndarray:
    """The entries of the Exact ``t`` as an array of elements."""
    if t.fld.p is None:
        vals = [Fraction(n, t.den) for n in t.ints.reshape(-1)]
    else:
        vals = t.ints.reshape(-1).tolist()
    return np.array(vals, dtype=object).reshape(t.shape)


def reduce(values, fld: Field):
    """Object-array arithmetic on elements brought back to elements: the
    residues mod p over F_p, unchanged over QQ."""
    return np.asarray(values if fld.p is None else values % fld.p,
                      dtype=object)


def exact(fld: Field, values) -> Exact:
    """The Exact of an array of elements, built from their scalar
    strings."""
    values = np.asarray(values, dtype=object)
    strings = [fld.format(Fraction(x).numerator, Fraction(x).denominator)
               for x in values.reshape(-1)]
    return arr(fld, np.array(strings, dtype=object).reshape(values.shape))


def rref(m: np.ndarray, fld: Field):
    """Reduced row echelon form.

    Args:
        m: matrix of elements, shape (r, c).
        fld: field descriptor of the entries.

    Returns:
        (R, pivots, rank) where R is the RREF matrix (same shape), pivots
        the tuple of pivot column indices in increasing order, and
        rank == len(pivots).  Pivot entries are 1 and are the only nonzero
        entries of their columns.
    """
    p = fld.p
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
        if piv != 1:
            if p is None:
                R[row] = [x / piv for x in R[row]]
            else:
                R[row] = [x * pow(piv, -1, p) % p for x in R[row]]
        for i in range(r):
            if i != row and R[i, col] != 0:
                f = R[i, col]
                R[i] = reduce(np.array(
                    [x - f * y for x, y in zip(R[i], R[row])],
                    dtype=object), fld)
        pivots.append(col)
        row += 1
        if row == r:
            break
    return R, tuple(pivots), len(pivots)


def strings(t: Exact) -> np.ndarray:
    """The canonical scalar strings of ``t`` as an object array of its
    shape, in which a test may edit entries before ``arr`` reads them."""
    return np.array(to_strings(t), dtype=object).reshape(t.shape)


def integers(t: Exact) -> np.ndarray:
    """The entries of ``t``, a tensor of integers (over QQ) or residues,
    as a writable array of ints for a test to edit and give to ``arr``."""
    if t.den != 1:
        raise ValueError(f"entries over the denominator {t.den}")
    return np.array(t.ints)
