"""ReportBuilder.compare: one violation per differing index tuple, with
both sides of the output vector, in row-major order; and the integer
verdicts (compare, eqarr, is_zero, coords_in_many) against the entrywise
element reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from hopfcross.checks import ReportBuilder, Violation
from hopfcross.fields import Field, FieldMismatchError
from hopfcross.linalg import (arr, contract, coords_in_many, eqarr, is_zero,
                              span, to_strings, zeros)

QQ = Field.rationals()


def compared(lhs, rhs):
    rb = ReportBuilder("t")
    rb.compare("same", lhs, rhs)
    return rb.build()


def test_compare_names_first_middle_and_last_index():
    lhs = arr(QQ, [[[i, j] for j in range(4)] for i in range(3)])
    rhs = to_strings(lhs)
    for (i, j), k in (((0, 0), 1), ((1, 2), 0), ((2, 3), 1)):
        rhs[i][j][k] = "1/2"
    rep = compared(lhs, arr(QQ, rhs))
    assert rep.identities == ("same",)
    assert rep.violations == (
        Violation("same", (0, 0), ("0", "0"), ("0", "1/2")),
        Violation("same", (1, 2), ("1", "2"), ("1/2", "2")),
        Violation("same", (2, 3), ("2", "3"), ("2", "1/2")),
    )
    assert all(type(i) is int for v in rep.violations for i in v.index)
    assert compared(lhs, arr(QQ, to_strings(lhs))).passed


def test_compare_one_dimensional_sides():
    lhs, rhs = arr(QQ, [1, 2, 3]), arr(QQ, [1, 2, 4])
    assert compared(lhs, rhs).violations == (
        Violation("same", (), ("1", "2", "3"), ("1", "2", "4")),)
    assert compared(lhs, arr(QQ, [1, 2, 3])).passed


def test_compare_zero_extent_leading_axis():
    rep = compared(zeros(QQ, (0, 2)), zeros(QQ, (0, 2)))
    assert rep.identities == ("same",) and rep.passed
    rep = compared(zeros(QQ, (2, 0, 3)), zeros(QQ, (2, 0, 3)))
    assert rep.identities == ("same",) and rep.passed


# -- the integer verdicts against the entrywise element reference ----------

F_P = Field.prime(10007)
FIELDS = [QQ, F_P, Field.prime(2**61 - 1)]


def entries(fld):
    """Scalar strings of ``fld`` that collide often: small fractions over
    QQ, small residues, -1 and a large residue over F_p."""
    if fld.p is None:
        return st.builds("{}/{}".format, st.integers(-3, 3),
                         st.integers(1, 4))
    return st.sampled_from([0, 1, 2, -1, 2**40 + 3]).map(str)


@st.composite
def tables(draw, fld, shape):
    return np.array(draw(st.lists(entries(fld), min_size=math.prod(shape),
                                  max_size=math.prod(shape))),
                    dtype=object).reshape(shape)


@st.composite
def held(draw, fld, values):
    """The scalar-string array ``values`` as an Exact of them, or as a
    view of an Exact that also holds a slab of other entries, whose
    denominator it keeps."""
    if draw(st.booleans()):
        return arr(fld, values)
    other = draw(tables(fld, values.shape))
    return arr(fld, np.stack([other, values]))[1]


@st.composite
def table_pairs(draw):
    """A field, a (lead..., n) table and a second one that differs from it
    at a few random entries, each held as :func:`held` draws it."""
    fld = draw(st.sampled_from(FIELDS))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2))) + (
        draw(st.integers(1, 3)),)
    lhs = draw(tables(fld, shape))
    rhs = lhs.copy()
    for _ in range(draw(st.integers(0, 3)) if lhs.size else 0):
        idx = tuple(draw(st.integers(0, n - 1)) for n in shape)
        rhs[idx] = draw(entries(fld))
    return fld, lhs, rhs, draw(held(fld, lhs)), draw(held(fld, rhs))


def reference_violations(fld, lhs, rhs):
    """compare's violations, found entry by entry with element equality
    on the elements of the scalar strings ``lhs`` and ``rhs``, each side
    formatted back from its elements."""
    lhs, rhs = elements(fld, lhs), elements(fld, rhs)
    return [Violation("t", idx, strings(fld, lhs[idx]),
                      strings(fld, rhs[idx]))
            for idx in np.ndindex(*lhs.shape[:-1])
            if not all(x == y for x, y in zip(lhs[idx], rhs[idx]))]


def elements(fld, values):
    """The elements of an array of scalar strings, read one at a time:
    by ``Fraction`` over QQ, as ints mod p over F_p."""
    read = Fraction if fld.p is None else (
        lambda s: int(s.partition(" mod ")[0]) % fld.p)
    return np.array([read(s) for s in values.reshape(-1)],
                    dtype=object).reshape(values.shape)


def strings(fld, values):
    """The canonical strings of a vector of elements."""
    return tuple(to_strings(reference.exact(fld, values)))


def verdict_case(fld, lhs, rhs, held_lhs, held_rhs):
    return (fld, np.array(lhs, dtype=object), np.array(rhs, dtype=object),
            held_lhs, held_rhs)


@given(table_pairs())
# equal values held over the different denominators 2 and 6 (a view of
# an Exact that also holds thirds): the cross-multiplying comparison
@example(verdict_case(QQ, [["1/2", "1"]], [["1/2", "1"]],
                      arr(QQ, [["1/2", "1"]]),
                      arr(QQ, [[["1/3", "0"]], [["1/2", "1"]]])[1]))
# equal denominators and exactly one differing row, which is named
@example(verdict_case(QQ, [["1/2", "1"], ["0", "1/2"]],
                      [["1/2", "1"], ["1/2", "1/2"]],
                      arr(QQ, [["1/2", "1"], ["0", "1/2"]]),
                      arr(QQ, [["1/2", "1"], ["1/2", "1/2"]])))
@example(verdict_case(F_P, [["1", "2"], ["0", "-1"]],
                      [["1", "2"], ["0", "1"]],
                      arr(F_P, [["1", "2"], ["0", "-1"]]),
                      arr(F_P, [["1", "2"], ["0", "1"]])))
@settings(max_examples=300, deadline=None)
def test_integer_verdicts_match_the_element_reference(case):
    fld, lhs, rhs, held_lhs, held_rhs = case
    rb = ReportBuilder("r")
    rb.compare("t", held_lhs, held_rhs)
    got = rb.build().violations
    assert list(got) == reference_violations(fld, lhs, rhs)
    assert all(type(x) is str for v in got for x in v.lhs + v.rhs)
    lhs, rhs = elements(fld, lhs), elements(fld, rhs)
    same = all(x == y for x, y in zip(lhs.reshape(-1), rhs.reshape(-1)))
    assert eqarr(held_lhs, held_rhs) is same
    assert is_zero(held_lhs) is all(x == 0 for x in lhs.reshape(-1))


@st.composite
def memberships(draw):
    """A field, the span of 0-2 random rows of F^n and a table of vectors:
    combinations of the rows, some moved off the span."""
    fld = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    sub = span(arr(fld, draw(tables(fld, (draw(st.integers(0, 2)), n)))), n)
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    combos = arr(fld, draw(tables(fld, (math.prod(lead), sub.dim))))
    vs = np.array(to_strings(contract("ki,ij->kj", combos, sub.rows)),
                  dtype=object).reshape(lead + (n,))
    if vs.size:
        for _ in range(draw(st.integers(0, 3))):
            idx = tuple(draw(st.integers(0, k - 1)) for k in vs.shape)
            vs[idx] = draw(entries(fld))
    return fld, sub, vs, draw(held(fld, vs))


def reference_coords(sub, vs):
    """(coords, misses) of coords_in_many for the elements ``vs``,
    rebuilt entry by entry."""
    fld = sub.rows.fld
    coords = vs[..., list(sub.pivots)]
    rows = reference.elements(sub.rows)
    misses = []
    for idx in np.ndindex(*vs.shape[:-1]):
        rebuilt = [reference.reduce(sum(
            (c * row[j] for c, row in zip(coords[idx], rows)), 0), fld)
            for j in range(sub.ambient_dim)]
        if not all(x == y for x, y in zip(rebuilt, vs[idx])):
            misses.append(idx)
    return coords, tuple(misses)


@given(memberships())
@settings(max_examples=200, deadline=None)
def test_integer_membership_matches_the_element_reference(case):
    fld, sub, vs, held_vs = case
    coords, misses = coords_in_many(sub, held_vs)
    vs = elements(fld, vs)
    want_coords, want_misses = reference_coords(sub, vs)
    assert misses == want_misses
    assert coords.shape == want_coords.shape
    assert all(x == y for x, y in zip(reference.elements(coords).reshape(-1),
                                      want_coords.reshape(-1)))
    rb = ReportBuilder("r")
    rb.require_inside("t", held_vs, sub, "inside")
    assert list(rb.build().violations) == [
        Violation("t", idx, strings(fld, vs[idx]), ("inside",))
        for idx in misses]


@pytest.mark.parametrize("other", [Field.prime(5), Field.prime(7)])
@pytest.mark.parametrize("exact", [False, True], ids=["array", "Exact"])
def test_a_verdict_across_two_fields_raises(other, exact):
    # QQ against F_5 and F_5 against F_7 as Exact tensors: each verdict,
    # and the contraction itself, refuses instead of reading a
    # difference.  An integer array is no operand: it is a TypeError
    fld = QQ if other.p == 5 else Field.prime(5)
    lhs, rhs = arr(fld, [[1, 2], [0, 1]]), arr(other, [[1, 2], [0, 1]])
    error = FieldMismatchError
    if not exact:
        rhs, error = rhs.ints, TypeError
    with pytest.raises(error):
        ReportBuilder("r").compare("t", lhs, rhs)
    with pytest.raises(error):
        eqarr(lhs, rhs)
    with pytest.raises(error):
        coords_in_many(span(lhs, 2), rhs)
    with pytest.raises(error):
        ReportBuilder("r").require_inside("t", rhs, span(lhs, 2), "in")
    with pytest.raises(error):
        contract("ij,jk->ik", lhs, rhs)
    with pytest.raises(error):
        contract("ij,jk->ik", rhs, lhs)
