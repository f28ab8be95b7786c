"""Exact linear algebra on Exact tensors.

Canonical RREF is the backbone of everything downstream (subspace
equality, solving, quotients), so the properties here are checked both
on pinned examples and with randomized inputs.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopfcross
import reference
from hopfcross import linalg
from hopfcross.crossed import build_partial_crossed
from hopfcross.fields import Field, FieldMismatchError
from hopfcross.fixtures import c3_partial, sym3_table
from hopfcross.linalg import (Exact, arr, concat, contract, coords_in_many,
                              coords_or_raise, eqarr, identity, is_zero,
                              kernel, kron, quotient, rank, rref, solve,
                              span, to_strings, zeros)
from hopfcross.separability import centralizer

QQ = Field.rationals()
F5 = Field.prime(5)
F10007 = Field.prime(10007)
F_MERSENNE61 = Field.prime(2**61 - 1)

# small rational matrices for the property tests
scalars = st.integers(min_value=-6, max_value=6)
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(scalars, min_size=m, max_size=m),
            min_size=n, max_size=n)))


def test_arr_coerces_entries():
    a = arr(QQ, [["1/2", 1], [0, "-3"]])
    assert isinstance(a, Exact) and a.fld == QQ
    # one entry is a 0-d Exact over the tensor's denominator
    assert a[0, 0] == arr(QQ, "1/2") and a[0, 0].shape == ()
    assert (a[1, 1].ints, a[1, 1].den) == (-6, 2)
    assert to_strings(a) == [["1/2", "1"], ["0", "-3"]]
    assert to_strings(a[1, 1]) == "-3"


def test_identity_and_zeros():
    assert eqarr(identity(QQ, 2), arr(QQ, [[1, 0], [0, 1]]))
    assert is_zero(zeros(F5, (2, 3)))


def test_rref_pins_leading_ones():
    R, pivots, rk = rref(arr(QQ, [[2, 4], [1, 2]]))
    assert eqarr(R, arr(QQ, [[1, 2], [0, 0]]))
    assert pivots == (0,)
    assert rk == 1


def test_rank_examples():
    assert rank(arr(QQ, [[1, 0], [1, 0]])) == 1
    assert rank(identity(F5, 3)) == 3
    # 5 == 0 in F5 but not in QQ
    m = [[5, 0], [0, 1]]
    assert rank(arr(QQ, m)) == 2
    assert rank(arr(F5, m)) == 1


def test_solve_unique():
    m = arr(QQ, [[1, 1], [0, 2]])
    x = solve(m, arr(QQ, [3, 4]))
    assert eqarr(x, arr(QQ, [1, 2]))


def test_solve_inconsistent_returns_none():
    m = arr(QQ, [[1, 1], [2, 2]])
    assert solve(m, arr(QQ, [1, 3])) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    m = arr(QQ, [[1, 1]])
    x = solve(m, arr(QQ, [5]))
    assert eqarr(x, arr(QQ, [5, 0]))


@pytest.mark.parametrize("fld", [QQ, Field.prime(7)])
def test_matrix_rhs_solve_matches_column_solves(fld):
    # rank 2 with a free variable; the columns of b are m @ y for a few y,
    # one of them with an entry that is a multiple of 7
    m = arr(fld, [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 4, 0]])
    ys = arr(fld, [[1, 0, 0], [0, 1, 0], ["1/2", 7, 3], [0, 0, 0]])
    b = contract("ij,kj->ik", m, ys)
    x = solve(m, b)
    assert x.shape == (3, 4)
    for k in range(4):
        assert eqarr(x[:, k], solve(m, b[:, k]))
        assert eqarr(contract("ij,j->i", m, x[:, k]), b[:, k])
    # one column is the 1-D case
    assert eqarr(solve(m, b[:, :1]).reshape(3), solve(m, b[:, 0]))
    # one inconsistent column makes the whole system inconsistent
    bad = concat([b.transpose(1, 0), arr(fld, [[1, 0, 0, 0]])]).transpose(1, 0)
    assert solve(m, bad[:, 4]) is None
    assert solve(m, bad) is None
    assert solve(m, bad[:, [4, 0]]) is None
    with pytest.raises(ValueError):
        solve(m, zeros(fld, (3, 2)))
    # no equations: every column is solved by zero
    assert eqarr(solve(zeros(fld, (0, 2)), zeros(fld, (0,))),
                 zeros(fld, (2,)))
    assert eqarr(solve(zeros(fld, (0, 2)), zeros(fld, (0, 3))),
                 zeros(fld, (2, 3)))


def test_kernel_basis_annihilates():
    m = arr(QQ, [[1, 2, 3], [0, 1, 1]])
    k = kernel(m).rows
    assert k.shape[0] == 1
    assert is_zero(contract("ij,kj->ki", m, k))


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel(identity(QQ, 3)).rows.shape == (0, 3)


def test_a_kernel_is_read_with_one_echelon_pass_of_its_null_vectors(
        monkeypatch):
    # kernel eliminates the matrix and then its null vectors, once each;
    # the callers that read a kernel as a subspace take it as it is, so
    # the integrals of kS3 cost the same two eliminations, not three
    shapes = []
    original = linalg.rref

    def counting(m):
        shapes.append(m.shape)
        return original(m)

    monkeypatch.setattr(linalg, "rref", counting)
    m = arr(QQ, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]])
    k = kernel(m)
    assert shapes == [(3, 4), (2, 4)]
    assert k.dim == 2 and is_zero(contract("ij,kj->ki", m, k.rows))
    shapes.clear()
    integrals = hopfcross.left_integrals(
        hopfcross.group_algebra(QQ, sym3_table()))
    assert shapes == [(36, 6), (1, 6)] and integrals.dim == 1
    cp = build_partial_crossed(c3_partial())
    for read in (lambda: cp.coinvariant_space, lambda: centralizer(cp)):
        shapes.clear()
        read()
        assert len(shapes) == 2, shapes


def test_span_canonical_under_scaling_and_order():
    a = span(arr(QQ, [[2, 0], [0, 3]]), 2)
    b = span(arr(QQ, [[0, 1], [1, 0]]), 2)
    assert a == b
    assert eqarr(a.rows, identity(QQ, 2))


def test_span_drops_dependent_rows():
    s = span(arr(QQ, [[1, 0], [1, 0]]), 2)
    assert s.dim == 1
    assert coords_in_many(s, arr(QQ, [[7, 0], [0, 1]]))[1] == ((1,),)


def test_coords_in():
    s = span(arr(QQ, [[1, 1]]), 2)
    # one vector: its coordinates, or the empty index when it is outside
    c, misses = coords_in_many(s, arr(QQ, [2, 2]))
    assert eqarr(c, arr(QQ, [2])) and misses == ()
    assert coords_in_many(s, arr(QQ, [1, 0]))[1] == ((),)


def test_quotient_identifies_coordinates():
    # relations x = y in a 2-dim space: the class of [a, b] is a + b
    q = quotient(2, arr(QQ, [[1, -1]]))
    assert q.dim == 1
    assert eqarr(q.project(arr(QQ, [2, 5])), arr(QQ, [7]))
    assert eqarr(q.project(arr(QQ, [1, 0])), arr(QQ, [1]))


def test_quotient_lift_then_project_round_trips():
    q = quotient(3, arr(QQ, [[1, -1, 0]]))
    for v in ([1, 0], [0, 1], [2, -3]):
        v = arr(QQ, v)
        assert eqarr(q.project(q.lift(v)), v)


def test_quotient_kills_relations():
    q = quotient(2, arr(QQ, [[1, -1]]))
    assert is_zero(q.project(arr(QQ, [1, -1])))


def test_kron():
    v = arr(QQ, [1, 2])
    w = arr(QQ, [3, 4])
    assert eqarr(kron(v, w), arr(QQ, [3, 4, 6, 8]))


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(rows):
    m = arr(QQ, rows)
    R, piv, rk = rref(m)
    R2, piv2, rk2 = rref(R)
    assert eqarr(R, R2) and piv == piv2 and rk == rk2


@given(matrices, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_span_is_order_invariant(rows, rng):
    m = arr(QQ, rows)
    perm = list(range(m.shape[0]))
    rng.shuffle(perm)
    assert span(m, m.shape[1]) == span(m[perm], m.shape[1])


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_solve_solution_satisfies_system(rows):
    m = arr(QQ, rows)
    b = contract("ij,j->i", m, arr(QQ, list(range(1, m.shape[1] + 1))))
    x = solve(m, b)
    assert x is not None
    assert eqarr(contract("ij,j->i", m, x), b)


# ---------------------------------------------------------------------------
# the integer elimination against the element reference


@st.composite
def systems(draw):
    """A field, an r x c Exact matrix over it (r 0-5, c 1-5, with many
    zeros so that ranks often drop) and a right-hand side of shape (r,)
    or (r, k): drawn at random, so often inconsistent, or m @ y."""
    fld = draw(st.sampled_from([QQ, F5, F_MERSENNE61]))
    r, c = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    if fld.p is None:
        entry = st.builds("{}/{}".format, st.integers(-4, 4),
                          st.integers(1, 3))
    else:
        entry = st.integers(-4, 4) | st.integers(0, fld.p - 1)
    entries = st.just(0) | entry

    def matrix(*shape):
        vals = [draw(entries) for _ in range(math.prod(shape))]
        return arr(fld, np.array(vals, dtype=object).reshape(shape))

    m = matrix(r, c)
    cols = draw(st.sampled_from([(), (1,), (2,)]))
    if draw(st.booleans()):
        b = matrix(r, *cols)
    else:
        spec = "ij,jk->ik" if cols else "ij,j->i"
        b = contract(spec, m, matrix(c, *cols))
    return fld, m, b


def reference_solve(m, b, fld):
    """solve by the element rref of [m | b], for element arrays m and b:
    the pivot entries of the solution, free variables zero, or None when
    b is inconsistent."""
    r, c = m.shape
    rhs = b.reshape(r, math.prod(b.shape[1:]))
    R, pivots, rk = reference.rref(np.concatenate([m, rhs], axis=1), fld)
    if rk and pivots[-1] >= c:
        return None
    x = np.zeros((c, rhs.shape[1]), dtype=object)
    x[list(pivots)] = R[:rk, c:]
    return x.reshape((c,) + b.shape[1:])


def reference_kernel(m, fld):
    """The kernel of the element array m as the element rref of the null
    vectors of rref(m)."""
    c = m.shape[1]
    R, pivots, rk = reference.rref(m, fld)
    free = [j for j in range(c) if j not in pivots]
    null = np.zeros((len(free), c), dtype=object)
    for n, f in enumerate(free):
        null[n, f] = 1
        null[n, list(pivots)] = reference.reduce(-R[:rk, f], fld)
    K, _, dim = reference.rref(null, fld)
    return K[:dim]


def element_case(fld, rows, rhs):
    return fld, arr(fld, rows), arr(fld, rhs)


@given(systems())
# a row swap, then an all-zero column skipped, in a rank-deficient
# matrix: the case that breaks elimination by the previous pivot
@example(element_case(QQ, [[0, 0, 3, 1], [2, 0, 1, 4], [4, 0, 5, 9]],
                      [1, 2, 3]))
@example(element_case(F5, [[0, 0, 3, 1], [2, 0, 1, 4], [4, 0, 5, 9]],
                      [[1, 0], [2, 0], [4, 1]]))
@example(element_case(F_MERSENNE61, [[0, 0, 3], [0, 2, 1], [0, 4, 2]],
                      [0, 1, 2]))
# a zero matrix, and a matrix with no rows
@example(element_case(QQ, [[0, 0], [0, 0]], [0, 1]))
@example((F5, zeros(F5, (0, 3)), zeros(F5, (0, 2))))
# a single row
@example(element_case(QQ, [[0, "3/2", -6]], ["1/2"]))
# 5 == 0 in F5, so the rank drops against QQ
@example(element_case(F5, [[5, 0], [0, 1]], [1, 1]))
@example(element_case(QQ, [[5, 0], [0, 1]], [1, 1]))
# the pivot steps that change nothing and are skipped: a 1x1 matrix; an
# identity (no swap, no elimination, every lead 1); a pivot column that
# is already clean; a pivot that needs a swap; leads that are not 1
@example(element_case(QQ, [[-3]], [2]))
@example(element_case(F5, [[3]], [[2, 4]]))
@example(element_case(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3]))
@example(element_case(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [4, 0, 2]))
@example(element_case(QQ, [[1, 4, 0], [0, 0, 1]], [2, "1/3"]))
@example(element_case(F5, [[1, 4, 0], [0, 0, 1]], [[2, 1], [3, 0]]))
@example(element_case(QQ, [[0, 2, 1], [3, 0, 1]], [1, 0]))
@example(element_case(F5, [[0, 2, 1], [3, 0, 1]], [1, 0]))
@example(element_case(QQ, [[-2, 1], [0, -3]], [1, -1]))
@example(element_case(F5, [[2, 1], [0, 3]], [1, 4]))
@settings(max_examples=200, deadline=None)
def test_elimination_matches_the_element_reference(case):
    fld, m, b = case
    c = m.shape[1]
    want_r, want_pivots, want_rank = reference.rref(reference.elements(m),
                                                    fld)
    want_r = reference.exact(fld, want_r)
    got_r, pivots, rk = rref(m)
    assert isinstance(got_r, Exact) and got_r.shape == m.shape
    assert eqarr(got_r, want_r) and (pivots, rk) == (want_pivots, want_rank)
    if fld.p is None:
        assert got_r.den > 0 and math.gcd(got_r.den, *got_r.ints.flat) == 1
    sub = span(m, c)
    assert eqarr(sub.rows, want_r[:want_rank]) and sub.pivots == want_pivots
    assert rank(m) == want_rank
    assert eqarr(kernel(m).rows, reference.exact(
        fld, reference_kernel(reference.elements(m), fld)))
    want_x = reference_solve(reference.elements(m), reference.elements(b),
                             fld)
    x = solve(m, b)
    assert (x is None) == (want_x is None)
    assert x is None or isinstance(x, Exact) and eqarr(
        x, reference.exact(fld, want_x))


# ---------------------------------------------------------------------------
# the contraction kernel against the reference object einsum


@st.composite
def contractions(draw):
    """A field, a 1-4 operand spec over axes a-e of extent 0-3 (repeated
    axes and rank-0 operands included), its operands and an output that
    keeps any subset of the axes, possibly none.  Each operand is an
    Exact, built by arr from scalars drawn at random."""
    fld = draw(st.sampled_from([QQ, F5, F10007, F_MERSENNE61]))
    extent = {ch: draw(st.integers(0, 3)) for ch in "abcde"}
    terms = draw(st.lists(st.text("abcde", max_size=3), min_size=1,
                          max_size=4))
    used = sorted(set("".join(terms)))
    output = "".join(draw(st.permutations(used))[:draw(
        st.integers(0, len(used)))])
    big = st.integers(-10**18, 10**18)
    ops = []
    for term in terms:
        shape = tuple(extent[ch] for ch in term)
        size = int(np.prod(shape, dtype=int))
        if fld.p is None:
            vals = [f"{draw(big)}/{draw(st.integers(1, 10**18))}"
                    for _ in range(size)]
        else:
            vals = [draw(big) for _ in range(size)]
        ops.append(arr(fld, np.array(vals, dtype=object).reshape(shape)))
    return fld, ",".join(terms) + "->" + output, ops


@given(contractions())
@example((F_MERSENNE61, "ab,bc->ac",
          [zeros(F_MERSENNE61, (2, 0)), zeros(F_MERSENNE61, (0, 3))]))
@example((QQ, "ab,ba->", [arr(QQ, [["1/3", 10**18], ["-7/2", 5]]),
                          arr(QQ, [["2/9", 1], [f"1/{10**18}", "-1/6"]])]))
# two scalars and an operand with an empty axis: every step of the
# path must keep the extra axis, and the empty sum is zero
@example((QQ, ",,d->", [arr(QQ, "-5/3"), arr(QQ, "7/2"), zeros(QQ, (0,))]))
# a 0-d output whose terms overflow int64 many times over
@example((F_MERSENNE61, "ab,ab->",
          [arr(F_MERSENNE61, [[-1, 2**60], [3, -2**59]]),
           arr(F_MERSENNE61, [[-1, -2**60 + 7], [2**61, 5]])]))
# outputs whose content divides out: 2/3 * 3 = 2 over the scale 3, and
# [2/3, 1/2] * [3, 4] = [2, 2] over the scale 6
@example((QQ, "i,i->", [arr(QQ, ["2/3"]), arr(QQ, [3])]))
@example((QQ, "i,i->i", [arr(QQ, ["2/3", "1/2"]), arr(QQ, [3, 4])]))
@settings(max_examples=300, deadline=None)
def test_contract_matches_reference_einsum(case):
    fld, spec, ops = case
    got = contract(spec, *ops)
    want = reference.reduce(np.asarray(np.einsum(
        spec, *map(reference.elements, ops)), dtype=object), fld)
    assert isinstance(got, Exact) and got.fld == fld
    assert got.shape == want.shape and got.ints.dtype == object
    ints = got.ints.reshape(-1).tolist()
    assert all(type(v) is int for v in ints) and type(got.den) is int
    # the canonical form
    if fld.p is None:
        assert got.den > 0 and math.gcd(got.den, *ints) == 1
    else:
        assert got.den == 1 and all(0 <= v < fld.p for v in ints)
    elements = reference.elements(got).reshape(-1)
    assert all(x == y for x, y in zip(elements, want.reshape(-1)))


def test_exact_holds_integers_over_one_common_denominator():
    src = np.array([["1/2", 3], ["-1/3", 0]], dtype=object)
    t = arr(QQ, src)
    src[0, 0] = 0
    assert t.den == 6 and t.ints.tolist() == [[3, 18], [-2, 0]]
    assert t.shape == (2, 2) and eqarr(t, arr(QQ, [["1/2", 3], ["-1/3", 0]]))
    assert not t.ints.flags.writeable and not t[0].ints.flags.writeable
    # ints and unreduced quotients give the same canonical integers, and
    # the canonical strings read back to them
    assert t == arr(QQ, [["2/4", "9/3"], ["-2/6", "0/5"]])
    assert t.ints.tolist() == arr(QQ, to_strings(t)).ints.tolist()
    # plain ints are read as their residues, in canonical form
    r = arr(F5, [-1, 12])
    assert r.den == 1 and r.ints.tolist() == [4, 2]
    assert to_strings(r) == ["4 mod 5", "2 mod 5"]
    with pytest.raises(ValueError, match="rational context"):
        arr(QQ, to_strings(r))
    with pytest.raises(ValueError, match="modulus 5"):
        arr(Field.prime(7), to_strings(r))
    with pytest.raises(FieldMismatchError):
        contract("i,i->", r, arr(Field.prime(7), [1, 2]))
    with pytest.raises(FieldMismatchError):
        t == arr(F5, [[1, 2], [3, 4]])
    assert t != t.transpose(1, 0) and t != t.reshape(4)


def test_contract_of_disconnected_operands_is_exact():
    # each operand sums to a scalar that fits in int64 while the product
    # does not
    x = arr(QQ, [2**40, 1])
    assert contract("i,j->", x, x).ints == (2**40 + 1) ** 2
    y = arr(F5, [2**62, 1])
    assert contract("i,j,k->", y, y, y).ints == (2**62 + 1) ** 3 % 5


def test_contract_rejects_operands_that_do_not_fit_the_spec():
    m = identity(QQ, 2)
    with pytest.raises(ValueError, match="operands"):
        contract("ij,jk->ik", m)
    with pytest.raises(ValueError, match="axes"):
        contract("ijk,jk->i", m, m)
    with pytest.raises(ValueError, match="->"):
        contract("ij,jk", m, m)


def test_contract_rejects_entries_outside_the_field():
    with pytest.raises(FieldMismatchError):
        contract("i,i->", arr(QQ, [1]), arr(F5, [1]))
    with pytest.raises(FieldMismatchError):
        contract("i,i->", arr(F5, [1]), arr(Field.prime(7), [1]))
    with pytest.raises(FieldMismatchError, match="GF.5. and GF.7."):
        contract("i,ij->j", arr(F5, [1]), arr(Field.prime(7), [[1, 2]]))
    # the difference, concat and the solvers read the field from their
    # operands
    with pytest.raises(FieldMismatchError):
        arr(QQ, [1]) - arr(F5, [1])
    with pytest.raises(FieldMismatchError, match="concat"):
        concat([arr(QQ, [[1]]), arr(F5, [[1]])])
    with pytest.raises(FieldMismatchError):
        solve(arr(QQ, [[1]]), arr(F5, [1]))


def test_contract_rejects_an_operand_that_is_not_an_exact():
    # plain ints and scalar strings are input to arr, not operands
    f7 = Field.prime(7)
    for op in (np.array([3, -1], dtype=object), [3, -1],
               to_strings(arr(f7, [3, -1]))):
        with pytest.raises(TypeError, match="operand 0 is a .*not an Exact"):
            contract("i,i->", op, arr(f7, [2, 2]))
    with pytest.raises(TypeError, match="operand 1"):
        contract("i,i->i", arr(f7, [2, 2]), np.array([0.5, 2], dtype=object))
    with pytest.raises(TypeError):
        rank(identity(f7, 2).ints)
    got = contract("i,i->i", arr(f7, [3, -1]), arr(f7, [2, 2]))
    assert got.ints.tolist() == [6, 5]
    assert eqarr(got, arr(f7, [6, -2]))


F7 = Field.prime(7)
M2, V2, T3 = identity(QQ, 2), arr(QQ, [1, 2]), zeros(QQ, (2, 2, 2))
A5, A7 = arr(F5, [1]), arr(F7, [1])


def bad_call(name, spec, bad, good, error, message):
    """A malformed contraction: its operands ``bad``, valid operands
    ``good`` for the same spec (None when the spec can have none), and
    the error it raises."""
    return pytest.param(spec, bad, good, error, message, id=name)


# A call wrong in two ways raises the first error in the order: no '->'
# output, operand count, operand type, field, axes.
NO_ARROW = "contraction spec 'ij,jk' has no '->' output"
BAD_CONTRACTIONS = [
    bad_call("no-arrow", "ij,jk", (M2, M2), None, ValueError, NO_ARROW),
    bad_call("no-arrow-not-exact", "ij", ("x",), None, ValueError,
             "contraction spec 'ij' has no '->' output"),
    bad_call("no-arrow-two-fields", "ij,jk", (arr(F5, [[1]]), arr(F7, [[1]])),
             None, ValueError, NO_ARROW),
    bad_call("count", "ij,jk->ik", (M2,), (M2, M2), ValueError,
             "contraction spec 'ij,jk->ik' names 2 operands, got 1"),
    bad_call("count-two-fields", "i,i,i->", (A5, A7), (V2, V2, V2),
             ValueError, "contraction spec 'i,i,i->' names 3 operands, "
             "got 2"),
    bad_call("axes", "ijk,jk->i", (M2, M2), (T3, M2), ValueError,
             "contraction spec 'ijk,jk->i' gives operand 0 3 axes, "
             "got shape (2, 2)"),
    bad_call("list", "i,i->", ([3, -1], V2), (V2, V2), TypeError,
             "contraction 'i,i->': operand 0 is a list, not an Exact"),
    bad_call("ndarray", "i,i->", (V2, M2.ints[0]), (V2, V2), TypeError,
             "contraction 'i,i->': operand 1 is a ndarray, not an Exact"),
    bad_call("axes-not-exact-1", "ijk,jk->i", (M2, "x"), (T3, M2),
             TypeError, "contraction 'ijk,jk->i': operand 1 is a str, "
             "not an Exact"),
    bad_call("axes-not-exact-0", "ijk,jk->i", (M2.ints, M2), (T3, M2),
             TypeError, "contraction 'ijk,jk->i': operand 0 is a ndarray, "
             "not an Exact"),
    bad_call("two-fields", "i,i->", (A5, A7), (V2, V2), FieldMismatchError,
             "contraction 'i,i->' mixes GF(5) and GF(7)"),
    bad_call("two-fields-sorted", "ij,j->i", (arr(F7, [[1]]), A5), (M2, V2),
             FieldMismatchError, "contraction 'ij,j->i' mixes GF(5) and "
             "GF(7)"),
    bad_call("axes-two-fields", "ijk,jk->i", (arr(F5, [[1]]), arr(QQ, [[1]])),
             (T3, M2), FieldMismatchError,
             "contraction 'ijk,jk->i' mixes GF(5) and QQ"),
    bad_call("two-fields-not-exact", "i,i,i->", (V2, arr(F5, [1, 2]), "x"),
             (V2, V2, V2), TypeError,
             "contraction 'i,i,i->': operand 2 is a str, not an Exact"),
]


@pytest.mark.parametrize("spec, bad, good, error, message",
                         BAD_CONTRACTIONS)
def test_a_bad_contraction_raises_its_first_error_on_every_call(
        spec, bad, good, error, message):
    exact = "^" + re.escape(message) + "$"
    with pytest.raises(error, match=exact):
        contract(spec, *bad)
    if good is not None:
        # a valid call plans the spec for its shapes; the bad call
        # still raises
        contract(spec, *good)
    with pytest.raises(error, match=exact):
        contract(spec, *bad)
    assert type(pytest.raises(error, contract, spec, *bad).value) is error


def test_equal_fields_need_not_be_one_object():
    f7, other = Field.prime(7), Field.prime(7)
    assert f7 is not other
    got = contract("i,i->i", arr(f7, [3, 4]), arr(other, [2, 2]))
    assert got.fld == f7 and got.ints.tolist() == [6, 1]
    assert concat([arr(f7, [[1]]), arr(other, [[5]])]).ints.tolist() == \
        [[1], [5]]


@pytest.mark.parametrize("fld", [QQ, F7])
def test_exact_views_keep_field_and_denominator_and_stay_read_only(fld):
    t = arr(fld, [["1/2", 3, 0], ["-1/3", 0, 5]])
    views = {"reshape": t.reshape(3, 2), "transpose": t.transpose(1, 0),
             "row": t[1], "column": t[:, 2], "rows": t[[1, 0]],
             "copying reshape": t.transpose().reshape(-1)}
    for name, view in views.items():
        assert (view.fld, view.den) == (t.fld, t.den), name
        assert not view.ints.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            view.ints[(0,) * view.ints.ndim] = 1
    # numpy gives a view for these; fancy indexing and a reshape of the
    # transpose copy
    for name in ("reshape", "transpose", "row", "column"):
        assert np.shares_memory(views[name].ints, t.ints), name
    for name in ("rows", "copying reshape"):
        assert not np.shares_memory(views[name].ints, t.ints), name
    assert eqarr(views["copying reshape"],
                 arr(fld, ["1/2", "-1/3", 3, 0, 0, 5]))
    assert eqarr(views["rows"], arr(fld, [["-1/3", 0, 5], ["1/2", 3, 0]]))
    # one entry is a 0-d Exact over the same field and denominator
    entry = t[1, 0]
    assert isinstance(entry, Exact) and entry.shape == ()
    assert (entry.fld, entry.den) == (t.fld, t.den)
    assert isinstance(entry.ints, np.ndarray)
    assert not entry.ints.flags.writeable
    assert eqarr(entry, arr(fld, "-1/3"))
    assert to_strings(entry) == to_strings(arr(fld, "-1/3"))


def test_shape_errors_are_explicit():
    with pytest.raises(ValueError):
        solve(identity(QQ, 2), arr(QQ, [1, 2, 3]))
    with pytest.raises(ValueError):
        span(identity(QQ, 2), 3)
    with pytest.raises(ValueError):
        coords_in_many(span(identity(QQ, 2), 2), arr(QQ, [1, 2, 3]))


def test_only_linalg_calls_einsum():
    pkg = Path(hopfcross.__file__).parent
    offenders = [f"{path.name}:{n}"
                 for path in sorted(pkg.glob("*.py"))
                 if path.name != "linalg.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\beinsum\(", line)]
    assert offenders == []


@st.composite
def membership_cases(draw):
    """A field, a subspace of F^n (n = 0 to 4) spanned by 0-3 random rows
    (so possibly zero-dimensional), and a stack of 0-6 vectors mixing
    members, zero vectors, non-members and random vectors."""
    fld = draw(st.sampled_from([QQ, Field.prime(7)]))
    n = draw(st.integers(0, 4))
    vec = st.lists(scalars, min_size=n, max_size=n)
    gens = draw(st.lists(vec, max_size=3))
    sub = span(arr(fld, gens).reshape(len(gens), n), n)
    free = [j for j in range(n) if j not in sub.pivots]
    kinds = ["member", "zero", "random"] + (["outside"] if free else [])
    vs = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if kind == "zero":
            vs.append(zeros(fld, (n,)))
            continue
        v = arr(fld, draw(vec))
        if kind != "random":
            # a combination of the basis rows, plus a unit vector at a
            # non-pivot column, which is never a member, for "outside"
            v = contract("i,ij->j", v[:sub.dim], sub.rows)
            if kind == "outside":
                v = v - arr(fld, np.eye(n, dtype=object)[
                    draw(st.sampled_from(free))])
        vs.append(v)
    return sub, concat([v.reshape(1, n) for v in vs]) if vs else zeros(
        fld, (0, n))


@given(membership_cases())
@example((span(zeros(QQ, (0, 0)), 0), zeros(QQ, (3, 0))))
@settings(max_examples=200, deadline=None)
def test_coords_in_many_matches_membership_by_rank(case):
    sub, vs = case
    fld, n, count = sub.rows.fld, sub.ambient_dim, vs.shape[0]
    coords, misses = coords_in_many(sub, vs)
    assert coords.shape == (count, sub.dim)
    want = tuple((k,) for k in range(count)
                 if span(concat([sub.rows, vs[k:k + 1]]), n).dim != sub.dim)
    assert misses == want
    for k in range(count):
        v = vs[k]
        if (k,) not in misses:
            rebuilt = np.zeros(n, dtype=object)
            for c, row in zip(reference.elements(coords[k]),
                              reference.elements(sub.rows)):
                rebuilt = reference.reduce(rebuilt + c * row, fld)
            assert eqarr(reference.exact(fld, rebuilt), v)
            assert eqarr(coords_in_many(sub, v)[0], coords[k])
        else:
            assert coords_in_many(sub, v)[1] == ((),)


@pytest.mark.parametrize("fld", [QQ, Field.prime(7)])
def test_coords_in_many_names_non_members_at_every_position(fld):
    sub = span(arr(fld, [[1, 2, 0], [0, 1, 1]]), 3)
    member, outside = [1, 3, 1], [0, 0, 1]
    vs = arr(fld, [outside, member, outside, [0, 0, 0], outside])
    coords, misses = coords_in_many(sub, vs)
    assert misses == ((0,), (2,), (4,))
    assert eqarr(coords[1], arr(fld, [1, 3])) and is_zero(coords[3])
    empty = span(zeros(fld, (0, 3)), 3)
    assert empty.dim == 0
    assert coords_in_many(empty, vs)[1] == ((0,), (1,), (2,), (4,))
    assert coords_in_many(sub, zeros(fld, (0, 3)))[1] == ()


def test_coords_in_many_names_misses_in_loop_order():
    # a (2, 3) table of vectors: the misses come in the order of the
    # nested loop "for a in range(2): for b in range(3)", which is the
    # order in which per-vector loops reported them
    sub = span(arr(QQ, [[1, 0, 0], [0, 1, 0]]), 3)
    inside, outside = [5, "1/2", 0], [0, 0, 3]
    table = arr(QQ, [[inside, inside, outside], [outside, inside, outside]])
    coords, misses = coords_in_many(sub, table)
    assert misses == ((0, 2), (1, 0), (1, 2))
    assert coords.shape == (2, 3, 2)
    assert eqarr(coords[1, 1], arr(QQ, [5, "1/2"]))
    with pytest.raises(ValueError):
        coords_in_many(sub, arr(QQ, [[1, 2]]))
    # a single vector has the empty index
    assert coords_in_many(sub, arr(QQ, outside))[1] == ((),)
    coords, misses = coords_in_many(sub, arr(QQ, inside))
    assert misses == () and eqarr(coords, arr(QQ, [5, "1/2"]))
    # three leading axes: row-major order
    cube = arr(QQ, [[[inside, outside], [outside, inside]],
                    [[inside, inside], [inside, outside]]])
    coords, misses = coords_in_many(sub, cube)
    assert misses == ((0, 0, 1), (0, 1, 0), (1, 1, 1))
    assert coords.shape == (2, 2, 2, 2)
    # a leading axis of extent zero holds no vector
    coords, misses = coords_in_many(sub, zeros(QQ, (2, 0, 3)))
    assert misses == () and coords.shape == (2, 0, 2)
    # the indices are Python ints, so a violation index serialises
    for table in (table, cube):
        misses = coords_in_many(sub, table)[1]
        assert all(type(i) is int for index in misses for i in index)
        assert json.loads(json.dumps(misses)) == [list(m) for m in misses]


class Outside(Exception):
    pass


@pytest.mark.parametrize("fld", [QQ, Field.prime(7)])
def test_coords_or_raise_names_the_first_miss_or_returns_the_coordinates(
        fld):
    sub = span(arr(fld, [[1, 0, 0], [0, 1, 0]]), 3)
    inside, outside = [5, "1/2", 0], [0, 0, 3]
    table = arr(fld, [[inside, inside, outside], [outside, inside, outside]])
    # the first miss of a stack in row-major order, with the caller's
    # exception class and message
    with pytest.raises(Outside) as info:
        coords_or_raise(sub, table, Outside, "vector ({}, {}) is outside")
    assert str(info.value) == "vector (0, 2) is outside"
    # extra index parts are dropped by a message that names fewer
    with pytest.raises(Outside) as info:
        coords_or_raise(sub, table, Outside, "row {} is outside")
    assert str(info.value) == "row 0 is outside"
    # a single vector has no index to name
    with pytest.raises(Outside) as info:
        coords_or_raise(sub, arr(fld, outside), Outside,
                        "the vector is outside")
    assert str(info.value) == "the vector is outside"
    members = arr(fld, [[inside, inside], [[0, 0, 0], inside]])
    coords = coords_or_raise(sub, members, Outside, "never {} {}")
    assert coords.shape == (2, 2, 2)
    assert eqarr(coords, coords_in_many(sub, members)[0])
    assert eqarr(coords_or_raise(sub, arr(fld, inside), Outside, "never"),
                 coords_in_many(sub, arr(fld, inside))[0])


def test_contract_plans_each_spec_and_shapes_once(monkeypatch):
    searches = []
    search = np.einsum_path

    def counting(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counting)
    linalg._plan.cache_clear()
    square, wide = identity(QQ, 2), arr(QQ, [[1, 2, 3], [4, 5, "1/6"]])
    first = contract("ij,jk->ik", square, wide)
    again = contract("ij,jk->ik", square, wide)
    assert len(searches) == 1 and eqarr(first, again) and eqarr(first, wide)
    contract("ij,jk->ik", wide.transpose(), wide)
    assert len(searches) == 2
    contract("ij,jk->ik", square, wide)
    contract("ij,jk->ki", square, wide)
    assert len(searches) == 3
