"""Hopf algebra construction and axiom verification.

Expected values below were computed independently by hand or by direct
convolution in the group ring and then frozen.
"""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopfcross.checks import ReportBuilder
from hopfcross.crossed import build_partial_crossed
from hopfcross.errors import NonGroupTable
from hopfcross.fields import Field, FieldMismatchError
from hopfcross.fixtures import (c3_partial, cyclic_table, group_tables_up_to_6,
                                product_field_algebra, sym3_table)
from hopfcross.hopf import (AlgebraData, CoalgebraData, HopfAlgebraData,
                            centrality, convolution, convolution_algebra,
                            convolution_inverse, convolution_unit, dual_hopf,
                            group_algebra, inverse_equations,
                            is_cocommutative, left_integrals,
                            split, verify_algebra, verify_coalgebra,
                            verify_hopf)
from hopfcross.linalg import (Exact, arr, concat, eqarr, identity, to_strings,
                              zeros)
from hopfcross.partial import GlobalTwistedAction, TwistedPartialAction
from hopfcross.separability import CleftData, default_cleft

QQ = Field.rationals()
F5 = Field.prime(5)


@pytest.mark.parametrize("name,table", group_tables_up_to_6().items())
def test_group_algebras_satisfy_all_axioms(name, table):
    rep = verify_hopf(group_algebra(QQ, table))
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("name", ["C3", "S3"])
def test_group_algebras_over_prime_field(name):
    rep = verify_hopf(group_algebra(F5, group_tables_up_to_6()[name]))
    assert rep.passed, rep.summary()


def test_corrupted_counit_is_caught():
    h = group_algebra(QQ, [[0, 1], [1, 0]])
    bad = dataclasses.replace(h.coalgebra, counit=arr(QQ, [1, 2]))
    rep = verify_coalgebra(bad)
    assert not rep.passed
    assert not rep.identity_passed("counit_left")


def test_identity_is_not_an_antipode_on_cyclic3():
    h = group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    bad = dataclasses.replace(h, antipode=identity(QQ, 3))
    rep = verify_hopf(bad)
    assert not rep.identity_passed("antipode_left")
    assert not rep.identity_passed("antipode_right")
    # everything that does not involve the antipode still holds
    assert rep.identity_passed("comult_multiplicative")


def test_antipode_is_group_inverse():
    h = group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    # g -> g^2 and g^2 -> g
    assert eqarr(h.antipode, arr(QQ, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_dual_hopf_passes_axioms():
    for table in ([[0, 1], [1, 0]], sym3_table()):
        rep = verify_hopf(dual_hopf(group_algebra(QQ, table)))
        assert rep.passed, rep.summary()


def test_dual_of_group_algebra_multiplies_pointwise():
    d = dual_hopf(group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
    for i in range(3):
        for j in range(3):
            expect = arr(QQ, [int(i == j == k) for k in range(3)])
            assert eqarr(d.mult[i, j], expect)


def test_cocommutativity():
    assert is_cocommutative(group_algebra(QQ, sym3_table()).coalgebra)
    assert is_cocommutative(dual_hopf(group_algebra(QQ, [[0, 1], [1, 0]])).coalgebra)
    # the dual of a nonabelian group algebra is the first genuinely
    # non-cocommutative input in the corpus
    assert not is_cocommutative(dual_hopf(group_algebra(QQ, sym3_table())).coalgebra)


def test_convolution_unit_is_neutral():
    h = group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    a = product_field_algebra(QQ, 2)
    f = arr(QQ, [[1, 1], [2, 3], ["1/2", 5]])
    e = convolution_unit(h.coalgebra, a)
    assert eqarr(convolution(f, e, h.coalgebra, a), f)
    assert eqarr(convolution(e, f, h.coalgebra, a), f)


def test_convolution_is_associative():
    h = group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    a = product_field_algebra(QQ, 2)
    f = arr(QQ, [[1, 0], [2, 1], [0, 3]])
    g = arr(QQ, [[1, 1], [0, 2], [5, 0]])
    k = arr(QQ, [[2, 1], [1, 1], [1, 4]])
    left = convolution(convolution(f, g, h.coalgebra, a), k, h.coalgebra, a)
    right = convolution(f, convolution(g, k, h.coalgebra, a), h.coalgebra, a)
    assert eqarr(left, right)


def test_convolution_inverse_of_grouplike_weights():
    h = group_algebra(QQ, [[0, 1], [1, 0]])
    a = product_field_algebra(QQ, 1)
    f = arr(QQ, [[1], [3]])
    inv = convolution_inverse(f, h.coalgebra, a)
    assert eqarr(inv, arr(QQ, [["1"], ["1/3"]]))
    # round trip back to the unit
    e = convolution_unit(h.coalgebra, a)
    assert eqarr(convolution(f, inv, h.coalgebra, a), e)


def test_convolution_inverse_absent_when_a_weight_vanishes():
    h = group_algebra(QQ, [[0, 1], [1, 0]])
    a = product_field_algebra(QQ, 1)
    f = arr(QQ, [[1], [0]])
    assert convolution_inverse(f, h.coalgebra, a) is None


def _random_map(fld, shape, seed):
    rng = random.Random(seed)
    return arr(fld, [[rng.randint(-3, 3) for _ in range(shape[1])]
                     for _ in range(shape[0])])


@pytest.mark.parametrize("fld", [QQ, Field.prime(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("dual", [False, True], ids=["C3", "kS3"])
def test_inverse_equations_columns_are_convolutions(fld, dual):
    # column (k, b) of each block is the block applied to the spanning map
    # E_(k,b); k^{S3} is not cocommutative and kS3 is not commutative, so
    # a wrong leg order on either side shows
    c = (dual_hopf(group_algebra(fld, sym3_table())) if dual
         else group_algebra(fld, cyclic_table(3))).coalgebra
    a = group_algebra(fld, sym3_table()).algebra
    shape, n = (c.dim, a.dim), c.dim * a.dim
    f, e = _random_map(fld, shape, 1), _random_map(fld, shape, 2)
    rows, rhs = inverse_equations(f, e, c, a)
    assert rows.shape == (4 * n, n)
    blocks = rows.reshape(4, n, n)
    for k, b in np.ndindex(*shape):
        col = k * a.dim + b
        E = identity(fld, n)[col].reshape(shape)
        assert eqarr(blocks[0][:, col], convolution(f, E, c, a).reshape(n))
        assert eqarr(blocks[1][:, col], convolution(E, f, c, a).reshape(n))
        assert eqarr(blocks[2][:, col],
                     (E - convolution(e, E, c, a)).reshape(n))
        assert eqarr(blocks[3][:, col],
                     (E - convolution(E, e, c, a)).reshape(n))
    assert eqarr(rhs, concat([e.reshape(n), e.reshape(n),
                              zeros(fld, (2 * n,))]))


def test_ideal_blocks_vanish_at_the_convolution_unit():
    # the two ideal blocks of convolution_inverse are zero on every Hopf
    # fixture, so adding them leaves the plain inverse unchanged
    hopfs = [group_algebra(QQ, t) for t in group_tables_up_to_6().values()]
    hopfs += [group_algebra(F5, sym3_table()),
              dual_hopf(group_algebra(QQ, sym3_table()))]
    for h in hopfs:
        for a in (h.algebra, product_field_algebra(h.fld, 2)):
            n = h.dim * a.dim
            f = _random_map(h.fld, (h.dim, a.dim), n)
            rows, rhs = inverse_equations(
                f, convolution_unit(h.coalgebra, a), h.coalgebra, a)
            assert eqarr(rows[2 * n:], zeros(h.fld, (2 * n, n)))
            assert eqarr(rhs[2 * n:], zeros(h.fld, (2 * n,)))


def test_centrality_check_converts_nothing():
    # the coproduct, the product, the unit translates f and each spanning
    # map E_(i,j), a slice of the Exact identity, are Exact tensors, and
    # the Exact tables are compared on integers
    tpa = c3_partial()
    c, a = tpa.hopf.coalgebra, tpa.alg
    assert isinstance(c.comult, Exact) and isinstance(a.mult, Exact)
    f = tpa.unit_translates
    assert all(isinstance(t, Exact) for t in centrality(f, c, a))
    assert eqarr(*centrality(f, c, a))


def central_violations_by_map(f, c, a):
    """Centrality of f in Hom(C, A), one spanning map E_(i,j) at a time:
    the reference for the stacked tables of ``centrality``.  Lists
    (index, lhs, rhs) with index (i, j, x) wherever f * E_(i,j) and
    E_(i,j) * f differ at the C-basis element x."""
    out = []
    eye = identity(a.fld, c.dim * a.dim)
    for i in range(c.dim):
        for j in range(a.dim):
            e = eye[i * a.dim + j].reshape(c.dim, a.dim)
            lhs = convolution(f, e, c, a)
            rhs = convolution(e, f, c, a)
            for x in range(c.dim):
                if lhs[x] != rhs[x]:
                    out.append(((i, j, x), tuple(to_strings(lhs[x])),
                                tuple(to_strings(rhs[x]))))
    return out


@pytest.mark.parametrize("fld", [QQ, Field.prime(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("dual", [False, True], ids=["C3", "kS3-dual"])
def test_centrality_tables_match_the_per_map_loop(fld, dual):
    # maps into the non-commutative kS3 from the cocommutative kC3 and
    # from the non-cocommutative k^{S3}: a compare of the two tables
    # lists the violations of the reference loop, in its order
    a = group_algebra(fld, sym3_table()).algebra
    c = (dual_hopf(group_algebra(fld, sym3_table())).coalgebra if dual
         else group_algebra(fld, cyclic_table(3)).coalgebra)
    rng = random.Random(f"{fld.name}:{dual}")
    f = arr(fld, [[rng.randint(-3, 3) for _ in range(a.dim)]
                  for _ in range(c.dim)])
    rb = ReportBuilder("centrality")
    rb.compare("central", *centrality(f, c, a))
    rb.compare("unit_central", *centrality(convolution_unit(c, a), c, a))
    rep = rb.build()
    expected = central_violations_by_map(f, c, a)
    assert [(v.index, v.lhs, v.rhs) for v in rep.violations] == expected
    assert expected and rep.identity_passed("unit_central")


@pytest.mark.parametrize("name,table", group_tables_up_to_6().items())
def test_left_integrals_are_the_group_sum(name, table):
    li = left_integrals(group_algebra(QQ, table))
    assert li.dim == 1
    assert eqarr(li.rows, arr(QQ, [[1] * len(table)]))


def test_left_integrals_over_prime_field():
    li = left_integrals(group_algebra(F5, sym3_table()))
    assert li.dim == 1
    assert eqarr(li.rows, arr(F5, [[1] * 6]))


def test_group_algebra_rejects_non_group_table():
    with pytest.raises(NonGroupTable):
        group_algebra(QQ, [[0, 1], [1, 1]])


def test_convolution_algebra_is_pointwise_on_a_group_algebra():
    c = group_algebra(QQ, cyclic_table(3)).coalgebra
    ca = convolution_algebra(c, product_field_algebra(QQ, 1))
    assert verify_algebra(ca).passed
    assert ca.dim == 3
    assert eqarr(ca.unit, arr(QQ, [1, 1, 1]))
    x = arr(QQ, [1, 2, 3])
    y = arr(QQ, [4, 5, 6])
    assert eqarr(ca.mul(x, y), arr(QQ, [4, 10, 18]))


def test_convolution_algebra_matches_convolution_of_maps():
    # k^{S3} is not cocommutative and kS3 is not commutative, so a wrong
    # leg order in either structure tensor shows
    c = dual_hopf(group_algebra(QQ, sym3_table())).coalgebra
    a = group_algebra(QQ, sym3_table()).algebra
    ca = convolution_algebra(c, a)
    assert ca.dim == 36
    assert eqarr(ca.unit, convolution_unit(c, a).reshape(36))
    maps = [arr(QQ, [[(3 * s + 5 * i + k) % 7 - 3 for i in range(6)]
                     for s in range(6)])
            for k in range(3)]
    for f in maps:
        for g in maps:
            want = convolution(f, g, c, a).reshape(36)
            got = ca.mul(f.reshape(36), g.reshape(36))
            assert eqarr(got, want)
    # the sample maps do not all commute, so the check has teeth
    f, g = maps[0], maps[1]
    assert not eqarr(convolution(f, g, c, a), convolution(g, f, c, a))


def test_wrong_shapes_raise_value_error():
    h = group_algebra(QQ, [[0, 1], [1, 0]])
    a = product_field_algebra(QQ, 3)
    bad = zeros(QQ, (2, 2, 2))
    cases = [
        lambda: AlgebraData(bad, a.unit),
        lambda: AlgebraData(a.mult, zeros(QQ, (2,))),
        lambda: AlgebraData(zeros(QQ, ()), zeros(QQ, ())),
        lambda: AlgebraData(a.unit, a.unit),
        lambda: CoalgebraData(bad, zeros(QQ, (3,))),
        lambda: CoalgebraData(h.comult, zeros(QQ, (3,))),
        lambda: HopfAlgebraData(a, h.coalgebra, h.antipode),
        lambda: HopfAlgebraData(h.algebra, h.coalgebra, identity(QQ, 3)),
        lambda: TwistedPartialAction(h, a, bad, zeros(QQ, (2, 2, 3))),
        lambda: TwistedPartialAction(h, a, zeros(QQ, (2, 3, 3)), bad),
        lambda: GlobalTwistedAction(h, a, bad, zeros(QQ, (2, 2, 3))),
        lambda: GlobalTwistedAction(h, a, zeros(QQ, (2, 3, 3)), bad),
        lambda: split(h.coalgebra, 0),
        lambda: convolution(zeros(QQ, (2, 3)), zeros(QQ, (2, 3)),
                            h.coalgebra, h.algebra),
        lambda: convolution(zeros(QQ, (3, 2)), zeros(QQ, (3, 2)),
                            h.coalgebra, h.algebra),
    ]
    for make in cases:
        with pytest.raises(ValueError):
            make()


def _cleft_over_qq_with_action_over_f5():
    t = c3_partial()
    cd = default_cleft(t, build_partial_crossed(t))
    return CleftData(cd.cp, cd.gamma, cd.gamma_prime, c3_partial(F5))


@pytest.mark.parametrize("name,make", [
    pytest.param("HopfAlgebraData", lambda: HopfAlgebraData(
        group_algebra(QQ, cyclic_table(3)).algebra,
        group_algebra(F5, cyclic_table(3)).coalgebra,
        group_algebra(QQ, cyclic_table(3)).antipode), id="hopf"),
    pytest.param("TwistedPartialAction", lambda: TwistedPartialAction(
        c3_partial().hopf, c3_partial(F5).alg, c3_partial().action,
        c3_partial().cocycle), id="partial"),
    pytest.param("GlobalTwistedAction", lambda: GlobalTwistedAction(
        c3_partial().hopf, c3_partial(F5).alg, c3_partial().action,
        c3_partial().cocycle), id="global"),
    pytest.param("CleftData", _cleft_over_qq_with_action_over_f5,
                 id="cleft"),
])
def test_structures_over_two_fields_are_refused_at_construction(name, make):
    # every tensor a structure holds, its components' included, lies
    # over one field: a mix is refused before any contraction runs
    with pytest.raises(FieldMismatchError, match=f"{name} mixes"):
        make()


def test_shape_check_survives_optimized_mode():
    # assert statements vanish under python -O; the checks must not
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from hopfcross.checks import CheckReport, ReportBuilder\n"
            "from hopfcross.fields import Field\n"
            "from hopfcross.hopf import AlgebraData\n"
            "from hopfcross.linalg import zeros\n"
            "QQ = Field.rationals()\n"
            "for bad in (\n"
            "        lambda: AlgebraData(zeros(QQ, (2, 2, 3)),\n"
            "                            zeros(QQ, (2,))),\n"
            "        lambda: ReportBuilder('t').compare(\n"
            "            'x', zeros(QQ, (2, 3)), zeros(QQ, (3, 2))),\n"
            "        lambda: CheckReport('t', ('x',)).identity_passed('y')):\n"
            "    try:\n"
            "        bad()\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "ValueError: mult has shape (2, 2, 3), expected (2, 2, 2)",
        "ValueError: x: shape mismatch (2, 3) vs (3, 2)",
        "ValueError: 'y' was not checked in 't'",
    ]
