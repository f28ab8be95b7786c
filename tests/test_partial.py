"""Twisted partial actions: axioms, symmetry, corner restriction.

The three-element-group action on a two-block base is the main worked
fixture; its cocycle inverse and corner restrictions were computed by
hand and pinned here.
"""

import dataclasses

import numpy as np
import pytest

import reference
from hopfcross.errors import NotCentralIdempotent
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_partial, cocycle_pair, cyclic_table,
                                degenerate_swap, product_field_algebra,
                                sym3_table, trivial_hopf, trivial_partial)
from hopfcross.hopf import AlgebraData, dual_hopf, group_algebra
from hopfcross.linalg import arr, eqarr, identity, zeros
from hopfcross.partial import (GlobalTwistedAction, TwistedPartialAction,
                               central_idempotent_report, induce_partial,
                               is_trivial_cocycle, verify_absorption,
                               verify_crossed_conditions, verify_global,
                               verify_symmetric, verify_twisted_partial,
                               verify_unit_translate_map)

QQ = Field.rationals()
F5 = Field.prime(5)


def all_axiom_reports(tpa):
    return [verify_twisted_partial(tpa), verify_absorption(tpa),
            verify_crossed_conditions(tpa)]


FIXTURES = {
    "three_element_group": c3_partial(),
    "square_root_pair": cocycle_pair(1),
    "square_root_pair_lam5": cocycle_pair(5),
    "square_root_pair_mod5": cocycle_pair(3, F5),
    "trivial": trivial_partial(),
    "degenerate_swap": degenerate_swap(),
    "degenerate_swap_mod5": degenerate_swap(F5),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_satisfies_all_axioms(name):
    for rep in all_axiom_reports(FIXTURES[name]):
        assert rep.passed, f"{name}: {rep.summary()}"


def shift_global(fld=QQ):
    """The regular shift of a three element group on three blocks,
    untwisted."""
    h = group_algebra(fld, cyclic_table(3))
    b = product_field_algebra(fld, 3)
    act = [[[int(k == (i + g) % 3) for k in range(3)] for i in range(3)]
           for g in range(3)]
    u = np.broadcast_to(reference.strings(b.unit), (3, 3, 3))
    return GlobalTwistedAction(h, b, arr(fld, act), arr(fld, u))


def test_shift_global_passes():
    assert verify_global(shift_global()).passed


def test_global_with_bad_twist_fails_cocycle_identity():
    g = shift_global()
    u = reference.strings(g.twist)
    u[1, 1] = [1, 0, 0]
    rep = verify_global(dataclasses.replace(g, twist=arr(QQ, u)))
    assert not rep.identity_passed("twist_cocycle_identity")
    assert rep.identity_passed("action_multiplicative")


def test_global_scalar_twist_passes():
    # on a one-block base any nonzero constant twist is a coboundary
    h = group_algebra(QQ, [[0, 1], [1, 0]])
    b = product_field_algebra(QQ, 1)
    act = arr(QQ, [[[1]], [[1]]])
    u = arr(QQ, [[[1], [1]], [[1], [7]]])
    assert verify_global(GlobalTwistedAction(h, b, act, u)).passed


def test_constant_cocycle_breaks_partial_axioms():
    tpa = c3_partial()
    u = arr(QQ, np.broadcast_to(reference.strings(tpa.alg.unit), (3, 3, 2)))
    rep = verify_twisted_partial(dataclasses.replace(tpa, cocycle=u))
    assert not rep.identity_passed("cocycle_right_absorption")
    assert not rep.identity_passed("twisted_module")


def test_denormalized_cocycle_breaks_crossed_conditions():
    tpa = c3_partial()
    u = reference.strings(tpa.cocycle)
    u[0, 1] = [1, 1]
    rep = verify_crossed_conditions(
        dataclasses.replace(tpa, cocycle=arr(QQ, u)))
    assert not rep.identity_passed("cocycle_normalized_left")
    assert not rep.identity_passed("cocycle_identity")


def test_trivial_cocycle_detection():
    # the main fixture's cocycle is exactly the product of unit
    # translates, which is what makes it globalizable
    assert is_trivial_cocycle(trivial_partial())
    assert is_trivial_cocycle(degenerate_swap())
    assert is_trivial_cocycle(c3_partial())
    assert is_trivial_cocycle(cocycle_pair(1))
    assert not is_trivial_cocycle(cocycle_pair(5))


def test_unit_translates_of_main_fixture():
    e = c3_partial().unit_translates
    assert eqarr(e, arr(QQ, [[1, 1], [0, 1], [1, 0]]))


def test_unit_translate_map_of_pair():
    tpa = cocycle_pair(1)
    assert verify_unit_translate_map(tpa).passed
    assert eqarr(tpa.unit_translates, arr(QQ, [[1], [1]]))


def test_unit_translate_map_flags_noncentral_range():
    # over a non-cocommutative Hopf algebra an indicator translate map
    # fails to be central in the convolution algebra
    ds3 = dual_hopf(group_algebra(QQ, sym3_table()))
    b = product_field_algebra(QQ, 1)
    act = arr(QQ, [[[int(i == 1)]] for i in range(6)])
    tpa = TwistedPartialAction(ds3, b, act, zeros(QQ, (6, 6, 1)))
    rep = verify_unit_translate_map(tpa)
    assert not rep.identity_passed("central_in_convolution")
    assert rep.violations


def test_broken_action_fails_translate_factorization():
    src = c3_partial()
    act = reference.strings(src.action)
    act[2] = [[1, 0], [0, 0]]
    res = verify_symmetric(dataclasses.replace(src, action=arr(QQ, act)))
    assert not res.report.passed
    assert not res.report.identity_passed("unit_action_factorizes")


def test_symmetric_inverse_of_main_fixture_is_itself():
    res = verify_symmetric(c3_partial())
    assert res.report.passed
    assert eqarr(res.inverse, c3_partial().cocycle)


def test_symmetric_inverse_mod5():
    res = verify_symmetric(cocycle_pair(3, F5))
    assert res.report.passed
    # omega(g, g) = 3, so the inverse weight is 3^-1 = 2 mod 5
    assert res.inverse[1, 1, 0] == arr(F5, 2)


def test_symmetric_inverse_rational_pair():
    res = verify_symmetric(cocycle_pair(5))
    assert res.report.passed
    assert res.inverse[1, 1, 0] == arr(QQ, "1/5")


def test_corner_restriction_recovers_main_fixture():
    g = shift_global()
    e = arr(QQ, [1, 1, 0])
    ind = induce_partial(g, e)
    src = c3_partial()
    assert eqarr(ind.tpa.action, src.action)
    assert eqarr(ind.tpa.cocycle, src.cocycle)
    assert verify_twisted_partial(ind.tpa).passed


def test_corner_restriction_rejects_noncentral_idempotent():
    with pytest.raises(NotCentralIdempotent):
        induce_partial(shift_global(), arr(QQ, [1, 2, 0]))


def test_corner_is_spanned_by_products_with_the_idempotent():
    # Q x Q on the basis (1, u) with u idempotent: e * b_j is u for both
    # basis elements, so the matrix of e * b_j is not symmetric and its
    # columns span (1, 1), not the corner
    b = AlgebraData(arr(QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]),
                    arr(QQ, [1, 0]))
    glob = GlobalTwistedAction(trivial_hopf(), b,
                               identity(QQ, 2).reshape(1, 2, 2),
                               b.unit.reshape(1, 1, 2))
    ind = induce_partial(glob, arr(QQ, [0, 1]))
    assert eqarr(ind.carrier.rows, arr(QQ, [[0, 1]]))
    assert ind.tpa.alg.dim == 1
    assert eqarr(ind.tpa.action, arr(QQ, [[[1]]]))


def test_central_idempotent_report():
    b = product_field_algebra(QQ, 2)
    assert central_idempotent_report(b, arr(QQ, [1, 0])).passed
    rep = central_idempotent_report(b, arr(QQ, [1, 2]))
    assert not rep.identity_passed("idempotent")


def test_unit_acts_trivially_identity_name():
    rep = verify_twisted_partial(c3_partial())
    assert rep.identity_passed("unit_acts_trivially")
    assert rep.identity_passed("action_multiplicative")
