"""Gauge transformations: weak inverses, conjugated data, composition,
and the induced isomorphism of crossed products.

The square-root pair is small enough that every gauged quantity can be
predicted in closed form: gauging by v(g) = mu multiplies the cocycle
weight by mu^2, and the induced isomorphism rescales the odd generator
by mu.
"""

import dataclasses

import pytest

import reference
from hopfcross.crossed import build_partial_crossed
from hopfcross.errors import CompositeNotGauge
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_gauge, c3_partial, cocycle_pair,
                                degenerate_swap, pair_gauge, trivial_partial)
from hopfcross.gauge import (GaugePair, gauge_crossed_iso, gauge_transform,
                             verify_equisatisfiability,
                             verify_gauge_composition, weak_conv_inverse)
from hopfcross.linalg import arr, eqarr, identity, rank, zeros
from hopfcross.partial import verify_crossed_conditions, verify_twisted_partial

QQ = Field.rationals()
F5 = Field.prime(5)


def crossed_iso(pair, tpa):
    """gauge_crossed_iso between the crossed products of tpa gauged by
    pair and of tpa."""
    return gauge_crossed_iso(pair, build_partial_crossed(tpa),
                             build_partial_crossed(gauge_transform(pair, tpa)))


def test_weak_inverse_of_grouplike_gauge():
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(3), tpa)
    assert pair is not None
    assert pair.fully_invertible
    assert eqarr(pair.v_inv, arr(QQ, [[1], ["1/3"]]))


def test_weak_inverse_requires_normalization():
    # v(1) must be the unit of the base
    tpa = cocycle_pair(2)
    bad = arr(QQ, [[2], [3]])
    assert weak_conv_inverse(bad, tpa) is None


def test_weak_inverse_absent_for_degenerate_gauge():
    tpa = cocycle_pair(2)
    assert weak_conv_inverse(arr(QQ, [[1], [0]]), tpa) is None


def test_gauged_cocycle_weight():
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(3), tpa)
    gt = gauge_transform(pair, tpa)
    # mu^2 * lam = 9 * 2
    assert gt.cocycle[1, 1, 0] == arr(QQ, 18)
    assert verify_twisted_partial(gt).passed
    assert verify_crossed_conditions(gt).passed


@pytest.mark.parametrize("lam,mu,expect", [(5, 7, 245), (2, 2, 8), (1, 4, 16)])
def test_gauged_weight_scales_by_square(lam, mu, expect):
    tpa = cocycle_pair(lam)
    pair = weak_conv_inverse(pair_gauge(mu), tpa)
    gt = gauge_transform(pair, tpa)
    assert gt.cocycle[1, 1, 0] == arr(QQ, expect)


def test_gauged_weight_mod5():
    tpa = cocycle_pair(2, F5)
    pair = weak_conv_inverse(pair_gauge(3, F5), tpa)
    gt = gauge_transform(pair, tpa)
    assert gt.cocycle[1, 1, 0] == arr(F5, 18)


def test_identity_gauge_changes_nothing():
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(1), tpa)
    gt = gauge_transform(pair, tpa)
    assert eqarr(gt.action, tpa.action)
    assert eqarr(gt.cocycle, tpa.cocycle)
    phi, rep = crossed_iso(pair, tpa)
    assert rep.passed
    assert eqarr(phi, identity(QQ, 2))


def test_crossed_iso_rescales_odd_generator():
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(3), tpa)
    phi, rep = crossed_iso(pair, tpa)
    assert rep.passed, rep.summary()
    assert eqarr(phi, arr(QQ, [[1, 0], [0, 3]]))


def test_mismatched_gauge_iso_violations_are_pinned():
    # the map induced by mu = 3 into the crossed product gauged by mu = 5
    # lands in the span but scales the cocycle weight by 9, not 25
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(3), tpa)
    other = gauge_transform(weak_conv_inverse(pair_gauge(5), tpa), tpa)
    phi, rep = gauge_crossed_iso(pair, build_partial_crossed(tpa),
                                 build_partial_crossed(other))
    assert eqarr(phi, arr(QQ, [[1, 0], [0, 3]]))
    assert [(v.identity, v.index, v.lhs, v.rhs) for v in rep.violations
            if v.identity == "multiplicative"] == [
        ("multiplicative", (1, 1), ("50", "0"), ("18", "0")),
    ]
    assert rep.notes == ("the same formula read from the original crossed "
                         "product is not multiplicative; only the stated "
                         "direction is",)


def matrix_corner_maps(tpa):
    """The crossed product of the partial action of k^{S3} on its matrix
    corner, the unit translates e(h) = h . 1 and a map f that is not a
    gauge.  k^{S3} is not cocommutative, and the ambient map
    a (x) h |-> a f(h_1) (x) h_2 leaves the crossed span, while that of
    e lands, since the span is that of a (h_1 . 1) (x) h_2."""
    junk = arr(QQ, [[i] * 4 for i in range(6)])
    return build_partial_crossed(tpa), tpa.unit_translates, junk


@pytest.mark.parametrize("ks3_partial", [4], indirect=True, ids=["corner4"])
def test_map_outside_the_target_span_is_reported(ks3_partial):
    cp, e, junk = matrix_corner_maps(ks3_partial)
    phi, rep = gauge_crossed_iso(GaugePair(junk, e, False), cp, cp)
    assert eqarr(phi, zeros(QQ, (16, 16)))
    assert rep.to_dict() == {
        "title": "gauge isomorphism of crossed products", "passed": False,
        "identities": ["lands_in_target_span"], "notes": [],
        "violations": [{"identity": "lands_in_target_span", "index": [],
                        "lhs": [], "rhs": []}]}


@pytest.mark.parametrize("ks3_partial", [4], indirect=True, ids=["corner4"])
def test_inverse_outside_the_source_span_is_reported(ks3_partial):
    cp, e, junk = matrix_corner_maps(ks3_partial)
    phi, rep = gauge_crossed_iso(GaugePair(e, junk, False), cp, cp)
    assert rank(phi) == 16
    assert rep.to_dict() == {
        "title": "gauge isomorphism of crossed products", "passed": False,
        "identities": ["lands_in_target_span", "multiplicative", "unital",
                       "bijective", "inverse_lands_in_source_span"],
        "notes": [],
        "violations": [{"identity": "inverse_lands_in_source_span",
                        "index": [], "lhs": [], "rhs": []}]}


def test_gauge_composition_on_pair():
    tpa = cocycle_pair(2)
    outer = weak_conv_inverse(pair_gauge(2), tpa)
    inner = weak_conv_inverse(pair_gauge(3), tpa)
    rep = verify_gauge_composition(outer, inner, tpa)
    assert rep.passed, rep.summary()
    # composite weight: (2 * 3)^2 * 2
    comp = weak_conv_inverse(pair_gauge(6), tpa)
    gauged = gauge_transform(comp, tpa)
    assert gauged.cocycle[1, 1, 0] == arr(QQ, 72)


def test_composition_rejects_non_gauge_product():
    tpa = cocycle_pair(2)
    inner = weak_conv_inverse(pair_gauge(3), tpa)
    # fabricated pair whose map kills the odd component: the
    # convolution product with anything then has no weak inverse
    fake = GaugePair(v=arr(QQ, [[1], [0]]), v_inv=arr(QQ, [[1], [0]]),
                     fully_invertible=False)
    with pytest.raises(CompositeNotGauge):
        verify_gauge_composition(fake, inner, tpa)


def _assert_unit_translate_gauge_is_identity(tpa, fully_invertible):
    # e itself is a gauge; it is self inverse and conjugating by it
    # leaves both the action and the cocycle untouched
    e = tpa.unit_translates
    pair = weak_conv_inverse(e, tpa)
    assert pair is not None
    assert pair.fully_invertible is fully_invertible
    assert eqarr(pair.v_inv, e)
    gt = gauge_transform(pair, tpa)
    assert eqarr(gt.action, tpa.action)
    assert eqarr(gt.cocycle, tpa.cocycle)


def test_unit_translate_gauge_fixes_main_fixture():
    _assert_unit_translate_gauge_is_identity(c3_partial(), False)


# the pair is fully invertible exactly when e is the convolution unit
# h |-> eps(h) 1
@pytest.mark.parametrize("make, fully_invertible", [
    (lambda: c3_partial(F5), False),
    (lambda: cocycle_pair(3), True),
    (lambda: cocycle_pair(0), True),
    (degenerate_swap, False),
    (trivial_partial, True),
], ids=["c3_partial_mod5", "cocycle_pair3", "cocycle_pair0",
        "degenerate_swap", "trivial_partial"])
def test_unit_translate_gauge_is_the_identity(make, fully_invertible):
    _assert_unit_translate_gauge_is_identity(make(), fully_invertible)


def test_unit_translate_gauge_fixes_dual_group_algebra_corners(ks3_partial):
    _assert_unit_translate_gauge_is_identity(ks3_partial, False)


def test_two_parameter_gauge_on_main_fixture():
    tpa = c3_partial()
    v = c3_gauge(2, 5)
    pair = weak_conv_inverse(v, tpa)
    assert pair is not None
    assert not pair.fully_invertible
    assert eqarr(pair.v_inv, arr(QQ, [[1, 1], [0, "1/2"], ["1/5", 0]]))
    gt = gauge_transform(pair, tpa)
    assert verify_twisted_partial(gt).passed
    assert verify_crossed_conditions(gt).passed
    phi, rep = crossed_iso(pair, tpa)
    assert rep.passed, rep.summary()


def test_equisatisfiability_on_valid_data():
    tpa = cocycle_pair(2)
    pair = weak_conv_inverse(pair_gauge(3), tpa)
    rep = verify_equisatisfiability(tpa, gauge_transform(pair, tpa))
    assert rep.passed


def test_equisatisfiability_on_corrupted_data():
    # break normalization of the cocycle; both the original and the
    # gauged data must then fail the same conditions
    tpa = cocycle_pair(2)
    coc = reference.integers(tpa.cocycle)
    coc[0, 1] = [5]
    broken = dataclasses.replace(tpa, cocycle=arr(QQ, coc))
    pair = weak_conv_inverse(pair_gauge(3), broken)
    rep = verify_equisatisfiability(broken, gauge_transform(pair, broken))
    assert rep.passed, rep.summary()
    before = verify_crossed_conditions(broken)
    assert not before.identity_passed("cocycle_identity")
    assert not before.identity_passed("cocycle_normalized_left")
