"""Cleft sections, centralizers and separability elements.

The main fixture is the honest stress case: its canonical map is not
surjective and the candidate separability element collapses to the
embedded centre element rather than the unit.  Those failures are
pinned exactly, not skipped.
"""

from importlib import resources

import numpy as np
import pytest

import reference
from hopfcross import cli
from hopfcross.crossed import balanced_tensor_square, build_partial_crossed
from hopfcross.errors import (NormalizationFailed, NotCentral,
                              NotCocommutative, NotIntegral)
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_partial, cocycle_pair, product_field_algebra,
                                sym3_table, trivial_hopf)
from hopfcross.hopf import AlgebraData, dual_hopf, group_algebra
from hopfcross.linalg import (QuotientSpace, arr, concat, contract, eqarr,
                              identity)
from hopfcross.partial import TwistedPartialAction
from hopfcross.separability import (BalancedTensorElement, CleftData,
                                    centralizer, check_separable_extension,
                                    default_cleft, separability_idempotent,
                                    verify_centralizer_identity,
                                    verify_partially_cleft)
from hopfcross.specfile import load_spec

QQ = Field.rationals()
F2 = Field.prime(2)


def cleft(tpa):
    return default_cleft(tpa, build_partial_crossed(tpa))


def collapse(cp, lift):
    """Multiply the two legs of a lifted tensor."""
    d = cp.dim
    return contract("p,pk->k", lift, cp.algebra.mult.reshape(d * d, d))


def matrix_algebra_2x2():
    mult = np.zeros((4, 4, 4), dtype=object)
    for a in range(2):
        for b in range(2):
            for d in range(2):
                mult[2 * a + b, 2 * b + d, 2 * a + d] = 1
    return AlgebraData(arr(QQ, mult), arr(QQ, [1, 0, 0, 1]))


def trivial_action_on(alg):
    th = trivial_hopf()
    act = identity(QQ, alg.dim).reshape(1, alg.dim, alg.dim)
    coc = alg.unit.reshape(1, 1, alg.dim)
    return TwistedPartialAction(th, alg, act, coc)


def test_default_sections_of_main_fixture():
    cd = cleft(c3_partial())
    assert eqarr(cd.gamma, arr(QQ, [[1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]))
    assert eqarr(cd.gamma_prime,
                 arr(QQ, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))


def test_cleft_reports_pass():
    for tpa in (c3_partial(), cocycle_pair(1), cocycle_pair(5)):
        rep = verify_partially_cleft(cleft(tpa))
        assert rep.passed, rep.summary()


def test_doctored_section_fails_unit_value():
    cd = cleft(cocycle_pair(1))
    g = reference.strings(cd.gamma)
    g[0] = [1, 1]
    rep = verify_partially_cleft(CleftData(cd.cp, arr(QQ, g), cd.gamma_prime,
                                           cd.tpa))
    assert not rep.identity_passed("unit_value")


def test_section_product_outside_the_base_is_pinned():
    # with gamma(h_1), gamma(h_2) moved off the section, gamma * gamma'
    # leaves the embedded base at h_1 and h_2, and centrality is skipped
    cd = cleft(c3_partial())
    g = reference.strings(cd.gamma)
    g[1], g[2] = [1, 1, 0, 0], [0, 1, 1, 0]
    rep = verify_partially_cleft(CleftData(cd.cp, arr(QQ, g), cd.gamma_prime,
                                           cd.tpa))
    assert [v for v in rep.to_dict()["violations"]
            if v["identity"] == "product_valued_in_base"] == [
        {"identity": "product_valued_in_base", "index": [1],
         "lhs": ["0", "1", "0", "0"], "rhs": ["inside the embedded base"]},
        {"identity": "product_valued_in_base", "index": [2],
         "lhs": ["1", "0", "0", "1"], "rhs": ["inside the embedded base"]},
    ]
    assert "product_convolution_central" not in rep.identities
    assert rep.notes == ("centrality of the section product was skipped "
                         "because the product does not land in the "
                         "embedded base",)


def test_centralizer_of_main_fixture():
    cen = centralizer(build_partial_crossed(c3_partial()))
    assert cen.dim == 2
    assert eqarr(cen.rows, arr(QQ, [[1, 0, 0, 0], [0, 0, 1, 0]]))


def test_centralizer_of_commutative_crossed_product_is_everything():
    cen = centralizer(build_partial_crossed(cocycle_pair(1)))
    assert cen.dim == 2
    assert cen.dim == cen.ambient_dim


def test_centralizer_of_matrix_algebra_is_the_scalars():
    cd = cleft(trivial_action_on(matrix_algebra_2x2()))
    cen = centralizer(cd.cp)
    assert cen.dim == 1
    assert eqarr(cen.rows, arr(QQ, [[1, 0, 0, 1]]))


def test_centralizer_identity_holds_for_pair():
    cd = cleft(cocycle_pair(1))
    rep = verify_centralizer_identity(cd, arr(QQ, ["1/2", 0]))
    assert rep.passed, rep.summary()


def test_centralizer_identity_fails_on_main_fixture():
    # the first equality of the conjugation law genuinely fails here;
    # the witnesses are the two non-unit group directions
    cd = cleft(c3_partial())
    rep = verify_centralizer_identity(cd, arr(QQ, ["1/2", 0, "1/2", 0]))
    assert rep.identity_passed("conjugation_equals_action")
    viols = [v for v in rep.violations
             if v.identity == "conjugation_equals_swapped"]
    assert [v.index for v in viols] == [(1,), (2,)]
    assert all(v.lhs == ("0", "0", "0", "0") for v in viols)
    assert viols[0].rhs == ("1/2", "0", "0", "0")
    assert viols[1].rhs == ("0", "0", "1/2", "0")


def test_centralizer_identity_rejects_noncentral_element():
    cd = cleft(c3_partial())
    with pytest.raises(NotCentral):
        verify_centralizer_identity(cd, arr(QQ, [0, 1, 0, 0]))


def dual_s3_trivial_cleft():
    ds3 = dual_hopf(group_algebra(QQ, sym3_table()))
    b = product_field_algebra(QQ, 1)
    act = ds3.counit.reshape(6, 1, 1)
    coc = contract("i,j->ij", ds3.counit, ds3.counit).reshape(6, 6, 1)
    return cleft(TwistedPartialAction(ds3, b, act, coc))


def test_centralizer_identity_requires_cocommutativity():
    with pytest.raises(NotCocommutative):
        verify_centralizer_identity(dual_s3_trivial_cleft(), arr(QQ, [1]))


def test_separability_element_of_pair():
    cd = cleft(cocycle_pair(1))
    elem, rep, _ = separability_idempotent(cd, arr(QQ, [1, 1]),
                                           arr(QQ, ["1/2"]))
    assert rep.passed, rep.summary()
    # e = (1/2)(1 (x) 1) + (1/2)(x (x) x) on the ordered pair basis
    assert eqarr(elem.coordinates, arr(QQ, ["1/2", 0, 0, "1/2"]))
    assert eqarr(elem.lift, arr(QQ, ["1/2", 0, 0, "1/2"]))
    assert rep.identity_passed("canonical_map_bijective")
    assert eqarr(collapse(cd.cp, elem.lift), cd.cp.algebra.unit)


def test_separability_element_of_main_fixture_fails_honestly():
    cd = cleft(c3_partial())
    elem, rep, conditions = separability_idempotent(
        cd, arr(QQ, [1, 1, 1]), arr(QQ, ["1/2", "1/2"]))
    # the separability conditions come back as the report rep absorbed
    assert conditions == check_separable_extension(cd, elem)
    assert eqarr(elem.coordinates,
                 arr(QQ, ["1/2", 0, 0, 0, "1/2", 0, 0, 0]))
    assert eqarr(elem.lift, arr(QQ, [
        "1/2", 0, "1/2", 0, 0, 0, 0, 0,
        "1/2", 0, "1/2", 0, 0, 0, 0, 0]))
    verdicts = {n: rep.identity_passed(n) for n in rep.identities}
    assert verdicts == {
        "normalization": True,
        "canonical_map_bijective": False,
        "lift_projects_to_coordinates": True,
        "two_sided_translation": False,
        "multiplication_collapse": False,
        "collapse_idempotent": False,
    }
    # the element collapses to the embedded centre element, not the unit
    collapsed = collapse(cd.cp, elem.lift)
    assert eqarr(collapsed, arr(QQ, ["1/2", 0, "1/2", 0]))
    assert eqarr(collapsed,
                 contract("i,ij->j", arr(QQ, ["1/2", "1/2"]), cd.cp.iota))


def test_separability_requires_integral():
    cd = cleft(cocycle_pair(1))
    for t in ([1, 0], [0, 0]):
        with pytest.raises(NotIntegral):
            separability_idempotent(cd, arr(QQ, t), arr(QQ, ["1/2"]))


def test_separability_requires_central_element():
    # every base element of the main fixture embeds centrally, so the
    # matrix algebra provides the counterexample: an off-diagonal unit
    cd = cleft(trivial_action_on(matrix_algebra_2x2()))
    with pytest.raises(NotCentral):
        separability_idempotent(cd, arr(QQ, [1]), arr(QQ, [0, 1, 0, 0]))
    # while the identity matrix is fine and even separates
    elem, rep, _ = separability_idempotent(cd, arr(QQ, [1]),
                                           arr(QQ, [1, 0, 0, 1]))
    assert rep.passed
    assert eqarr(elem.coordinates, arr(QQ, [1, 0, 0, 1]))


def test_separability_requires_cocommutativity():
    with pytest.raises(NotCocommutative):
        separability_idempotent(dual_s3_trivial_cleft(),
                                arr(QQ, [1, 0, 0, 0, 0, 0]), arr(QQ, [1]))


def test_separability_normalization_fails_mod_two():
    # the group sum cannot be scaled to a normalized integral when the
    # order of the group vanishes in the field
    cd = cleft(cocycle_pair(1, F2))
    with pytest.raises(NormalizationFailed) as info:
        separability_idempotent(cd, arr(F2, [1, 1]), arr(F2, [1]))
    # the collapsed element is named by its scalar strings
    assert str(info.value) == ("the integral does not collapse the element "
                               "to the unit: got (0 mod 2)")


def test_extension_check_on_handmade_elements():
    cd = cleft(cocycle_pair(1))
    q = balanced_tensor_square(cd.cp)

    def failing(lift):
        lift = arr(QQ, lift)
        el = BalancedTensorElement(coordinates=q.project(lift), lift=lift)
        rep = check_separable_extension(cd, el)
        return [n for n in rep.identities if not rep.identity_passed(n)]

    # gamma' (x) gamma of the two generators translates correctly but
    # does not collapse to the unit
    assert failing([1, 0, 0, 1]) == ["multiplication_collapse",
                                     "collapse_idempotent"]
    # the unit pair collapses but fails the translation law
    assert failing([1, 0, 0, 0]) == ["two_sided_translation"]
    assert failing([0, 0, 0, 0]) == ["multiplication_collapse"]


def test_extension_check_ignores_choice_of_lift():
    cd = cleft(c3_partial())
    elem, base_rep, _ = separability_idempotent(cd, arr(QQ, [1, 1, 1]),
                                                arr(QQ, ["1/2", "1/2"]))
    q = balanced_tensor_square(cd.cp)
    # the lift plus 7 times a relation
    pert = contract("k,kj->j", arr(QQ, [1, 7]), concat(
        [elem.lift.reshape(1, -1), q.relations.rows[:1]]))
    moved = BalancedTensorElement(coordinates=q.project(pert), lift=pert)
    assert eqarr(moved.coordinates, elem.coordinates)
    rep = check_separable_extension(cd, moved)
    for name in base_rep.identities:
        if name in rep.identities:
            assert rep.identity_passed(name) == base_rep.identity_passed(name)


def test_a_separability_run_projects_the_lift_once(monkeypatch):
    # the element's coordinates are row 0 of the one batched projection
    # the separability conditions read, so a run projects the lift to the
    # balanced tensor square once; an element handed in from outside is
    # still projected by the check itself
    projected = []
    project = QuotientSpace.project

    def counting(self, v):
        projected.append(v.shape)
        return project(self, v)

    monkeypatch.setattr(QuotientSpace, "project", counting)
    path = resources.files("hopfcross") / "data" / "f_coc_1.json"
    report = cli.run("separability", load_spec(path))
    assert report["passed"] and projected == [(6, 4)]
    cd = cleft(cocycle_pair(1))
    projected.clear()
    elem, _, conditions = separability_idempotent(cd, arr(QQ, [1, 1]),
                                                  arr(QQ, ["1/2"]))
    assert projected == [(6, 4)]
    assert conditions.identity_passed("lift_projects_to_coordinates")
    assert check_separable_extension(cd, elem) == conditions
    assert projected == [(6, 4)] * 2
