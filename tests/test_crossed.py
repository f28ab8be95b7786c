"""Crossed products: structure constants, coaction, coinvariants and
the canonical Galois-type map.

The full multiplication table of the main fixture's crossed product was
worked out by hand in the ambient tensor square and is pinned below.
"""

import dataclasses

import numpy as np
import pytest

import reference
from hopfcross import crossed
from hopfcross.errors import (ClosureViolation, CoinvariantsMismatch,
                              PreconditionError)
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_partial, cocycle_pair, cyclic_table,
                                degenerate_swap, product_field_algebra,
                                trivial_partial)
from hopfcross.crossed import (balanced_tensor_square, build_global_crossed,
                               build_partial_crossed, canonical_map,
                               verify_assoc_unital, verify_coaction,
                               verify_coinvariants_are_base, verify_comodule,
                               verify_crossed)
from hopfcross.hopf import group_algebra
from hopfcross.linalg import (arr, concat, contract, eqarr, identity, kron,
                              span)
from hopfcross.partial import GlobalTwistedAction, TwistedPartialAction

QQ = Field.rationals()
F5 = Field.prime(5)


def basis_vec(cp, i):
    return identity(cp.fld, cp.dim)[i]


def test_main_fixture_dimension_and_basis():
    cp = build_partial_crossed(c3_partial())
    assert cp.dim == 4
    # echelon basis of the span of a (x) (h . 1)h inside A (x) H,
    # ambient column index = base index * 3 + group power
    expect = arr(QQ, [
        [1, 0, 0, 0, 0, 0],   # u1 (x) 1
        [0, 0, 1, 0, 0, 0],   # u1 (x) g^2
        [0, 0, 0, 1, 0, 0],   # u2 (x) 1
        [0, 0, 0, 0, 1, 0],   # u2 (x) g
    ])
    assert eqarr(cp.basis.rows, expect)


def test_main_fixture_multiplication_table():
    cp = build_partial_crossed(c3_partial())
    nonzero = {
        (0, 0): 0, (0, 1): 1, (1, 2): 1, (1, 3): 0,
        (2, 2): 2, (2, 3): 3, (3, 0): 3, (3, 1): 2,
    }
    for i in range(4):
        for j in range(4):
            got = cp.algebra.mul(basis_vec(cp, i), basis_vec(cp, j))
            want = arr(QQ, [int(nonzero.get((i, j)) == k) for k in range(4)])
            assert eqarr(got, want), f"product {i} * {j}"
    assert eqarr(cp.algebra.unit, arr(QQ, [1, 0, 1, 0]))


@pytest.mark.parametrize("tpa,dim", [
    (c3_partial(), 4),
    (cocycle_pair(1), 2),
    (cocycle_pair(5), 2),
    (trivial_partial(), 1),
    (degenerate_swap(), 1),
    (c3_partial(F5), 4),
])
def test_crossed_dimensions_and_axioms(tpa, dim):
    cp = build_partial_crossed(tpa)
    assert cp.dim == dim
    assert verify_assoc_unital(cp).passed
    assert verify_crossed(cp).passed
    assert verify_coaction(cp).passed


def test_square_root_presentation():
    # base field extended by a square root of lam: x * x = lam * 1
    cp = build_partial_crossed(cocycle_pair(5))
    one, x = basis_vec(cp, 0), basis_vec(cp, 1)
    assert eqarr(cp.algebra.mul(x, x), arr(QQ, [5, 0]))
    assert eqarr(cp.algebra.mul(one, x), x)


def trivial_global(swap_generator=False):
    """C3 acting trivially on k x k with the trivial twist; with
    ``swap_generator`` the generator swaps the two factors instead,
    which breaks the twisted module identity."""
    h = group_algebra(QQ, cyclic_table(3))
    b = product_field_algebra(QQ, 2)
    act = np.array([np.eye(2, dtype=object)] * 3)
    if swap_generator:
        act[1] = [[0, 1], [1, 0]]
    u = np.broadcast_to(reference.strings(b.unit), (3, 3, 2))
    return GlobalTwistedAction(h, b, arr(QQ, act), arr(QQ, u))


def test_global_crossed_with_trivial_data_is_tensor_product():
    h, b = group_algebra(QQ, cyclic_table(3)), product_field_algebra(QQ, 2)
    cp = build_global_crossed(trivial_global())
    assert cp.dim == 6
    for i in range(2):
        for hh in range(3):
            for j in range(2):
                for ll in range(3):
                    got = cp.algebra.mult[i * 3 + hh, j * 3 + ll]
                    assert eqarr(got, kron(b.mult[i, j], h.mult[hh, ll]))


def test_base_embedding_is_unital_and_injective():
    cp = build_partial_crossed(c3_partial())
    rep = verify_crossed(cp)
    assert rep.identity_passed("base_embedding_multiplicative")
    assert rep.identity_passed("base_embedding_unital")
    assert rep.identity_passed("base_embedding_injective")
    assert eqarr(contract("i,ij->j", c3_partial().alg.unit, cp.iota),
                 cp.algebra.unit)


def test_corrupted_base_embedding_violations_are_pinned():
    cp = build_partial_crossed(c3_partial())
    iota = reference.strings(cp.iota)
    iota[0] = [0, 1, 1, 0]
    rep = verify_crossed(dataclasses.replace(cp, iota=arr(QQ, iota)))
    assert [(v.index, v.lhs, v.rhs) for v in rep.violations
            if v.identity == "base_embedding_multiplicative"] == [
        ((0, 1), ("0", "0", "0", "0"), ("0", "1", "1", "0")),
        ((1, 0), ("0", "0", "0", "0"), ("0", "0", "1", "0")),
    ]


def test_to_ambient_of_basis_vectors():
    cp = build_partial_crossed(c3_partial())
    for i in range(cp.dim):
        assert eqarr(contract("i,ij->j", basis_vec(cp, i), cp.basis.rows),
                     cp.basis.rows[i])


@pytest.mark.parametrize("tpa,coin_dim", [
    (c3_partial(), 2),
    (cocycle_pair(1), 1),
    (degenerate_swap(), 1),
])
def test_coinvariants_are_the_embedded_base(tpa, coin_dim):
    cp = build_partial_crossed(tpa)
    coin = cp.coinvariant_space
    assert coin.dim == coin_dim
    assert coin == cp.base_space
    assert verify_coinvariants_are_base(cp).passed


def test_comodule_coaction_bundle():
    cp = build_partial_crossed(c3_partial())
    assert cp.coaction.shape == (4, 12)
    assert cp.coinvariant_space.dim == 2
    rep = verify_comodule(cp)
    assert rep.passed
    # one report under the coaction's title, covering both checks
    coaction = verify_coaction(cp)
    coinvariants = verify_coinvariants_are_base(cp)
    assert rep.title == coaction.title
    assert rep.identities == coaction.identities + coinvariants.identities


def test_balanced_tensor_square_dims():
    assert balanced_tensor_square(build_partial_crossed(c3_partial())).dim == 8
    assert balanced_tensor_square(build_partial_crossed(cocycle_pair(1))).dim == 4
    assert balanced_tensor_square(build_partial_crossed(degenerate_swap())).dim == 1


@pytest.mark.parametrize("tpa", [c3_partial(), cocycle_pair(1),
                                 degenerate_swap()],
                         ids=["c3", "pair1", "swap"])
def test_balanced_relations_match_the_per_triple_products(tpa):
    # reference: x iota(a) (x) y - x (x) iota(a) y built one basis triple
    # at a time with the crossed-product multiplication
    cp = build_partial_crossed(tpa)
    d = cp.dim
    mul = cp.algebra.mul
    ref = [kron(mul(basis_vec(cp, x), cp.iota[a]), basis_vec(cp, y))
           - kron(basis_vec(cp, x), mul(cp.iota[a], basis_vec(cp, y)))
           for x in range(d) for a in range(cp.base.dim) for y in range(d)]
    got = balanced_tensor_square(cp).relations
    assert got == span(concat([r.reshape(1, -1) for r in ref]), d * d)


def test_canonical_map_bijective_for_square_root_pair():
    res = canonical_map(build_partial_crossed(cocycle_pair(1)))
    assert res.balanced
    assert (res.quotient_dim, res.target_dim, res.rank) == (4, 4, 4)
    assert res.bijective


def test_canonical_map_injective_not_surjective_for_main_fixture():
    res = canonical_map(build_partial_crossed(c3_partial()))
    assert res.balanced
    assert (res.quotient_dim, res.target_dim, res.rank) == (8, 12, 8)
    assert res.injective and not res.surjective


def test_canonical_map_degenerate_case():
    res = canonical_map(build_partial_crossed(degenerate_swap()))
    assert (res.quotient_dim, res.target_dim, res.rank) == (1, 2, 1)
    assert res.injective and not res.surjective


def test_canonical_map_rejects_doctored_coaction():
    cp = build_partial_crossed(cocycle_pair(1))
    # pretend every element is coinvariant
    fake = concat([kron(basis_vec(cp, r), cp.hopf.unit).reshape(1, 4)
                   for r in range(2)])
    doctored = dataclasses.replace(cp, coaction=fake)
    with pytest.raises(CoinvariantsMismatch):
        canonical_map(doctored)


def test_closure_error_names_the_first_product_in_loop_order():
    # Broken data whose crossed-basis products leave the span at (1, 3)
    # and (3, 0).  The error names (1, 3), the first pair of the loop
    # "for s: for u:" that the table was once filled by; the message
    # text is pinned because it reaches stderr.
    t = c3_partial()
    action, cocycle = reference.integers(t.action), reference.integers(t.cocycle)
    action[0, 0, 0] -= 1
    action[1, 1, 0] -= 1
    cocycle[1, 1, 1] += 2
    broken = TwistedPartialAction(t.hopf, t.alg, arr(QQ, action),
                                  arr(QQ, cocycle))
    with pytest.raises(ClosureViolation) as info:
        crossed._build(broken, broken.cocycle)
    assert str(info.value) == \
        "product of crossed basis elements 1 and 3 leaves the span"


def test_builders_refuse_data_that_fails_their_conditions():
    # both builders check the reports the action holds; the message text
    # is pinned because it reaches the report of a skipped CLI stage
    t = cocycle_pair(2)
    cocycle = reference.integers(t.cocycle)
    cocycle[0, 1, 0] = 5
    with pytest.raises(PreconditionError) as info:
        build_partial_crossed(dataclasses.replace(t, cocycle=arr(QQ, cocycle)))
    assert str(info.value) == (
        "input fails the crossed product conditions: "
        "twisted partial action: FAIL (5 violations)")
    with pytest.raises(PreconditionError) as info:
        build_global_crossed(trivial_global(swap_generator=True))
    assert str(info.value) == (
        "input fails the global twisted action axioms: "
        "global twisted action: FAIL (6 violations)")


def test_builder_counts_an_identity_both_reports_check_once():
    # the axioms and the crossed-product conditions both check the twisted
    # module identity; its 4 violations count once in the 14, not twice
    t = c3_partial()
    action = reference.integers(t.action)
    action[0, 0, 0] += 1
    broken = dataclasses.replace(t, action=arr(QQ, action))
    shared = [[v for v in rep.violations if v.identity == "twisted_module"]
              for rep in (broken.axioms_report, broken.conditions_report)]
    assert len(shared[0]) == 4 and shared[0] == shared[1]
    assert (len(broken.axioms_report.violations)
            + len(broken.conditions_report.violations)) == 18
    with pytest.raises(PreconditionError) as info:
        build_partial_crossed(broken)
    assert str(info.value) == (
        "input fails the crossed product conditions: "
        "twisted partial action: FAIL (14 violations)")
