"""ReportBuilder.compare: one violation per differing index tuple, with
both sides of the output vector, in row-major order."""

from hopfcross.checks import ReportBuilder, Violation
from hopfcross.fields import Field
from hopfcross.linalg import Exact, arr, zeros

QQ = Field.rationals()


def compared(lhs, rhs):
    rb = ReportBuilder("t")
    rb.compare("same", lhs, rhs)
    return rb.build()


def test_compare_names_first_middle_and_last_index():
    lhs = arr(QQ, [[[i, j] for j in range(4)] for i in range(3)])
    rhs = lhs.copy()
    for idx, k in (((0, 0), 1), ((1, 2), 0), ((2, 3), 1)):
        rhs[idx + (k,)] = QQ.coerce("1/2")
    rep = compared(Exact(lhs, QQ), rhs)
    assert rep.identities == ("same",)
    assert rep.violations == (
        Violation("same", (0, 0), (0, 0), (0, QQ.coerce("1/2"))),
        Violation("same", (1, 2), (1, 2), (QQ.coerce("1/2"), 2)),
        Violation("same", (2, 3), (2, 3), (2, QQ.coerce("1/2"))),
    )
    assert all(type(i) is int for v in rep.violations for i in v.index)
    assert compared(lhs, lhs.copy()).passed


def test_compare_one_dimensional_sides():
    lhs, rhs = arr(QQ, [1, 2, 3]), arr(QQ, [1, 2, 4])
    assert compared(lhs, rhs).violations == (
        Violation("same", (), (1, 2, 3), (1, 2, 4)),)
    assert compared(lhs, lhs.copy()).passed


def test_compare_zero_extent_leading_axis():
    rep = compared(zeros(QQ, (0, 2)), zeros(QQ, (0, 2)))
    assert rep.identities == ("same",) and rep.passed
    rep = compared(zeros(QQ, (2, 0, 3)), zeros(QQ, (2, 0, 3)))
    assert rep.identities == ("same",) and rep.passed
