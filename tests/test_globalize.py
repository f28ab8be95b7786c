"""Enveloping actions: construction, verification, and the exact
round trip back through the corner restriction.

The enveloping algebra of the main fixture is three orthogonal
idempotents permuted cyclically; its multiplication table and the
embedding matrix are pinned from a hand computation.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import reference
from hopfcross import cli
from hopfcross.errors import HopfcrossError, PreconditionError
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_partial, cocycle_pair, cyclic_table,
                                degenerate_swap, product_field_algebra,
                                sym3_table)
from hopfcross.globalize import (EnvelopingAction, globalize_group_partial,
                                 verify_enveloping, verify_induced_matches)
from hopfcross.hopf import AlgebraData, dual_hopf, group_algebra
from hopfcross.linalg import (arr, contract, eqarr, identity, span,
                              to_strings, zeros)
from hopfcross.partial import (GlobalTwistedAction, TwistedPartialAction,
                               induce_partial, verify_symmetric)
from hopfcross.specfile import SpecFile

QQ = Field.rationals()
F5 = Field.prime(5)


def test_main_fixture_enveloping_structure(c3_env):
    env = c3_env
    # ambient = functions from the group to the base, carrier = the
    # span of the translated embeddings, glob.alg = that span as an
    # algebra in its own right
    assert env.carrier.ambient_dim == 6
    assert env.carrier.dim == 3
    assert env.glob.alg.dim == 3
    # three orthogonal idempotents summing to the unit
    b = env.glob.alg
    for i in range(3):
        for j in range(3):
            e_i = identity(QQ, 3)[i]
            e_j = identity(QQ, 3)[j]
            expect = e_i if i == j else zeros(QQ, (3,))
            assert eqarr(b.mul(e_i, e_j), expect)
    assert eqarr(b.unit, arr(QQ, [1, 1, 1]))
    # the group acts by cyclically shifting the idempotents
    for g in range(3):
        m = arr(QQ, [[int(k == (i + g) % 3) for k in range(3)]
                     for i in range(3)])
        assert eqarr(env.glob.action[g], m)
    assert eqarr(env.theta, arr(QQ, [[1, 0, 0], [0, 1, 0]]))
    assert eqarr(env.theta_one, arr(QQ, [1, 1, 0]))


def test_main_fixture_carrier_inside_function_space(c3_env):
    # ambient functions G -> A, column index g * dim(A) + a
    expect = arr(QQ, [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ])
    assert eqarr(c3_env.carrier.rows, expect)


def test_main_fixture_enveloping_passes(c3_env):
    assert verify_enveloping(c3_env).passed
    assert verify_induced_matches(c3_env).passed


def test_round_trip_recovers_source_exactly(c3_env):
    ind = induce_partial(c3_env.glob, c3_env.theta_one)
    src = c3_partial()
    assert eqarr(ind.tpa.action, src.action)
    assert eqarr(ind.tpa.cocycle, src.cocycle)


def test_degenerate_swap_globalizes_to_two_blocks():
    env = globalize_group_partial(degenerate_swap())
    assert env.glob.alg.dim == 2
    assert eqarr(env.theta, arr(QQ, [[1, 0]]))
    assert eqarr(env.glob.action[1], arr(QQ, [[0, 1], [1, 0]]))
    assert verify_enveloping(env).passed
    assert verify_induced_matches(env).passed


def test_globalization_over_prime_field():
    env = globalize_group_partial(c3_partial(F5))
    assert env.glob.alg.dim == 3
    assert verify_enveloping(env).passed
    assert verify_induced_matches(env).passed


def test_already_global_data_is_its_own_envelope():
    h = group_algebra(QQ, cyclic_table(3))
    b = product_field_algebra(QQ, 3)
    act = arr(QQ, [[[int(k == (i + g) % 3) for k in range(3)]
                    for i in range(3)] for g in range(3)])
    u = arr(QQ, np.broadcast_to(reference.strings(b.unit), (3, 3, 3)))
    glob = GlobalTwistedAction(h, b, act, u)
    src = induce_partial(glob, b.unit).tpa
    env = EnvelopingAction(source=src,
                           carrier=span(identity(QQ, 3), 3),
                           glob=glob, theta=identity(QQ, 3))
    assert verify_enveloping(env).passed
    assert verify_induced_matches(env).passed


def swapped_pair_env(fld):
    """Swap the first two blocks of a three block algebra and embed into
    the swapped pair only: the orbit of the image never reaches the
    third block, so the translates span 2 of the 3 dimensions."""
    h = group_algebra(fld, [[0, 1], [1, 0]])
    b = product_field_algebra(fld, 3)
    act = arr(fld, [np.eye(3, dtype=object),
                    [[0, 1, 0], [1, 0, 0], [0, 0, 1]]])
    u = arr(fld, np.ones((2, 2, 3), dtype=object))
    glob = GlobalTwistedAction(h, b, act, u)
    src = induce_partial(glob, arr(fld, [1, 0, 0])).tpa
    return EnvelopingAction(source=src,
                            carrier=span(identity(fld, 3), 3),
                            glob=glob, theta=arr(fld, [[1, 0, 0]]))


def test_embedding_that_misses_translates_is_rejected():
    rep = verify_enveloping(swapped_pair_env(QQ))
    assert not rep.identity_passed("translates_span")
    assert rep.identity_passed("action_intertwines")


@pytest.mark.parametrize("fld", [QQ, Field.prime(2)], ids=["QQ", "F2"])
def test_a_failing_count_prints_as_an_integer(fld):
    # a rank against a dimension is a count, not a field scalar: over
    # F_2 the rank 2 against 3 is not "0 mod 2" against "1 mod 2"
    rep = verify_enveloping(swapped_pair_env(fld))
    assert [v for v in rep.to_dict()["violations"]
            if v["identity"] == "translates_span"] == [
        {"identity": "translates_span", "index": [], "lhs": ["2"],
         "rhs": ["3"]}]


def rejected(env):
    try:
        if not verify_enveloping(env).passed:
            return True
        return not verify_induced_matches(env).passed
    except HopfcrossError:
        return True


def entry_mutants(t):
    """(index, new entry, mutant) for each copy of ``t`` with one entry v
    set to 0, 1 or v + 1, where that changes it."""
    for idx in np.ndindex(t.shape):
        v, den = t.ints[idx], t.den
        for nv in {0, den, v + den} - {v}:
            mut = reference.strings(t)
            mut[idx] = t.fld.format(nv, den)
            yield idx, mut[idx], arr(t.fld, mut)


def test_every_theta_mutation_is_rejected(c3_env):
    env = c3_env
    for idx, nv, th in entry_mutants(env.theta):
        assert rejected(dataclasses.replace(env, theta=th)), \
            f"theta mutant at {idx} -> {nv} not caught"


def test_corrupted_theta_multiplicativity_violations_are_pinned(c3_env):
    th = reference.strings(c3_env.theta)
    th[0] = [1, 1, 0]
    rep = verify_enveloping(dataclasses.replace(c3_env, theta=arr(QQ, th)))
    assert [(v.index, v.lhs, v.rhs) for v in rep.violations
            if v.identity == "embedding_multiplicative"] == [
        ((0, 1), ("0", "0", "0"), ("0", "1", "0")),
        ((1, 0), ("0", "0", "0"), ("0", "1", "0")),
    ]


def test_embedding_outside_the_corner_is_reported_at_its_first_row(c3_env):
    # theta(1) and so the corner are kept, but both rows of theta leave
    # the corner: the report names the first, with the row as lhs, and
    # stops before comparing the induced action
    th = arr(QQ, [[1, 0, 1], [0, 1, -1]])
    env = dataclasses.replace(c3_env, theta=th)
    assert eqarr(env.theta_one, c3_env.theta_one) and env.corner_report.passed
    assert verify_induced_matches(env).to_dict() == {
        "title": "induced partial action", "passed": False,
        "identities": ["embedding_lands_in_corner"], "notes": [],
        "violations": [{"identity": "embedding_lands_in_corner",
                        "index": [0], "lhs": ["1", "0", "1"],
                        "rhs": ["in corner"]}]}


def test_every_degenerate_twist_and_action_mutation_is_rejected():
    env = globalize_group_partial(degenerate_swap())
    for field in ("twist", "action"):
        for idx, nv, t2 in entry_mutants(getattr(env.glob, field)):
            mut = dataclasses.replace(env, glob=dataclasses.replace(
                env.glob, **{field: t2}))
            assert rejected(mut), f"{field} mutant at {idx} -> {nv} not caught"


def test_nontrivial_cocycle_is_out_of_scope():
    with pytest.raises(PreconditionError):
        globalize_group_partial(cocycle_pair(5))


def test_counit_action_of_dual_group_algebra_globalizes():
    # k^{S3} acting on Q through its counit: theta(1) is the counit, and
    # every translate of it is a multiple of it
    ds3 = dual_hopf(group_algebra(QQ, sym3_table()))
    b1 = product_field_algebra(QQ, 1)
    eps = ds3.counit
    act = eps.reshape(6, 1, 1)
    coc = contract("i,j->ij", eps, eps).reshape(6, 6, 1)
    env = globalize_group_partial(TwistedPartialAction(ds3, b1, act, coc))
    assert env.carrier.ambient_dim == 6
    assert env.glob.alg.dim == 1
    assert verify_enveloping(env).passed
    assert verify_induced_matches(env).passed


def test_dual_group_algebra_corners_globalize(ks3_corner):
    env = ks3_corner
    assert env.carrier.ambient_dim == 6 * env.source.alg.dim
    assert env.glob.alg.dim == 6
    assert verify_enveloping(env).passed
    assert verify_induced_matches(env).passed


def test_dual_group_algebra_corners_stay_asymmetric(ks3_corner):
    # an open finding: the corners are induced from a global action with
    # trivial twist, yet f1 and f2 are not central in Hom(H (x) H, A)
    res = verify_symmetric(ks3_corner.source)
    assert res.inverse is not None      # the solver finds one all the same
    counts = Counter(v.identity for v in res.report.violations)
    assert counts == {2: {"product_factor_central": 144},
                      4: {"unit_factor_central": 144,
                          "product_factor_central": 360}}[
        ks3_corner.source.alg.dim]


def test_dual_group_algebra_corners_have_the_inverse_the_flag_denies(
        ks3_partial):
    # the other half of the open finding above: the solver finds a
    # two-sided corner inverse of the cocycle, yet the verify command
    # reports none, because its flag is the whole symmetry verdict
    tpa = ks3_partial
    doc = cli.run("verify", SpecFile(tpa.fld, tpa.hopf, tpa.alg, tpa.action,
                                     tpa.cocycle))
    sym, = [c for c in doc["checks"]
            if c["title"] == "symmetric twisted partial action"]
    failed = {v["identity"] for v in sym["violations"]}
    assert {"inverse_exists", "left_inverse", "right_inverse"} <= (
        set(sym["identities"]) - failed)
    assert doc["derived"]["cocycle_inverse_exists"] is False


def upper_triangular():
    """The upper-triangular 2x2 matrices on the basis E11, E12, E22."""
    mult = np.zeros((3, 3, 3), dtype=object)
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        mult[i, j, k] = 1
    return AlgebraData(arr(QQ, mult), arr(QQ, [1, 0, 1]))


def test_noncentral_unit_translate_is_reported():
    # C2 acting by a |-> E11 a E11 with the trivial cocycle: g . 1 = E11
    # is not central, so neither verifier may raise; each names the
    # failures.  (The data also fail the twisted module identity.)
    a = upper_triangular()
    act = arr(QQ, [to_strings(identity(QQ, 3)),
                   [[1, 0, 0], [0, 0, 0], [0, 0, 0]]])
    one, e11 = to_strings(a.unit), [1, 0, 0]
    coc = arr(QQ, [[one, e11], [e11, e11]])
    env = globalize_group_partial(
        TwistedPartialAction(group_algebra(QQ, [[0, 1], [1, 0]]), a, act, coc))
    assert env.glob.alg.dim == 5
    assert eqarr(env.theta_one, arr(QQ, [1, 0, 1, 0, 0]))
    where = lambda rep: [(v.identity, v.index) for v in rep.violations]
    assert where(verify_enveloping(env)) == [
        ("action_intertwines", (1, 1)), ("corner_central", (3,)),
        ("image_right_ideal", (0, 3))]
    rep = verify_induced_matches(env)
    assert rep.identities == ("corner_idempotent", "corner_central")
    assert where(rep) == [("corner_central", (3,))]
    assert rep.violations[0].lhs == ("0", "0", "0", "1", "0")
