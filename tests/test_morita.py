"""The connecting context between a partial crossed product and the
crossed product of its envelope: embedding, bimodules, pairings.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import reference
from hopfcross.crossed import build_global_crossed, build_partial_crossed
from hopfcross.fields import Field
from hopfcross.fixtures import cyclic_table, degenerate_swap, product_field_algebra
from hopfcross.globalize import EnvelopingAction, globalize_group_partial
from hopfcross.hopf import group_algebra
from hopfcross.linalg import arr, eqarr, identity, rank, span
from hopfcross.morita import (morita_context, phi_embed,
                              verify_module_structures, verify_morita_pairings)
from hopfcross.partial import GlobalTwistedAction, induce_partial

QQ = Field.rationals()

# Both reports, as to_dict output, of the C3 context with one entry of
# S's multiplication table raised by 1, keyed by that entry.
NONASSOCIATIVE = json.loads(
    (Path(__file__).parent / "morita_nonassociative.json").read_text(
        encoding="utf-8"))
SIX = ("m_actions_compatible", "n_actions_compatible",
       "sigma_balanced_over_embedded", "tau_balanced_over_ring",
       "mixed_associativity_ring_side", "mixed_associativity_embedded_side")


def context(env):
    return morita_context(env, build_partial_crossed(env.source),
                          build_global_crossed(env.glob))


def test_main_fixture_context_dimensions(c3_env):
    ctx = context(c3_env)
    assert ctx.partial_cp.dim == 4
    assert ctx.global_cp.dim == 9
    assert ctx.bimodule_m.dim == 6
    assert ctx.bimodule_n.dim == 6
    assert rank(ctx.phi) == 4
    assert ctx.phi_report.passed


def test_main_fixture_modules_and_pairings(c3_env):
    ctx = context(c3_env)
    assert verify_module_structures(ctx).passed
    res = verify_morita_pairings(ctx)
    assert res.report.passed
    assert (res.sigma_rank, res.tau_rank) == (9, 4)
    assert res.sigma_surjective and res.tau_surjective


def test_degenerate_context():
    ctx = context(globalize_group_partial(degenerate_swap()))
    assert ctx.partial_cp.dim == 1
    assert ctx.global_cp.dim == 4
    assert ctx.bimodule_m.dim == 2
    assert ctx.bimodule_n.dim == 2
    assert verify_module_structures(ctx).passed
    res = verify_morita_pairings(ctx)
    assert res.report.passed
    # even in the degenerate case both pairings are onto
    assert (res.sigma_rank, res.tau_rank) == (4, 1)
    assert res.sigma_surjective and res.tau_surjective


def test_dual_group_algebra_corner_contexts(ks3_corner):
    ctx = context(ks3_corner)
    assert verify_module_structures(ctx).passed
    res = verify_morita_pairings(ctx)
    assert res.report.passed
    got = (res.sigma_rank, res.tau_rank, ctx.partial_cp.dim, ctx.global_cp.dim)
    assert got == {2: (36, 4, 4, 36),
                   4: (36, 16, 16, 36)}[ks3_corner.source.alg.dim]


def test_self_enveloping_context_is_the_identity():
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
    ctx = context(env)
    assert eqarr(ctx.phi, identity(QQ, 9))
    assert ctx.bimodule_m.dim == 9
    assert ctx.bimodule_n.dim == 9
    assert verify_module_structures(ctx).passed
    res = verify_morita_pairings(ctx)
    assert res.report.passed
    assert (res.sigma_rank, res.tau_rank) == (9, 9)
    assert res.sigma_surjective and res.tau_surjective


def test_corrupted_embedding_breaks_multiplicativity(c3_env):
    th = reference.strings(c3_env.theta)
    th[0] = [1, 1, 0]
    env = dataclasses.replace(c3_env, theta=arr(QQ, th))
    _, _, rep = phi_embed(env, build_partial_crossed(env.source),
                          build_global_crossed(env.glob))
    assert not rep.identity_passed("multiplicative")
    assert not rep.identity_passed("unit_maps_to_idempotent")
    assert rep.identity_passed("lands_in_global_span")


def test_embedding_outside_the_global_span_zeroes_the_rows_past_the_miss(
        c3_env):
    # the partial basis rows go to the unit vectors 0, 2, 3 and 4 of the
    # global crossed product; cut its span down to those of rows 0 and 2,
    # and row 1 is the first miss: the report stops there, and every row
    # from it on is zero, row 2 too, though it lands
    r = build_partial_crossed(c3_env.source)
    s = build_global_crossed(c3_env.glob)
    cut = dataclasses.replace(s, basis=span(identity(QQ, 9)[[0, 3]], 9))
    phi, image, rep = phi_embed(c3_env, r, cut)
    assert eqarr(phi, arr(QQ, [[1, 0], [0, 0], [0, 0], [0, 0]]))
    assert eqarr(image.rows, arr(QQ, [[1, 0]]))
    assert rep.to_dict() == {
        "title": "crossed product embedding", "passed": False,
        "identities": ["lands_in_global_span"], "notes": [],
        "violations": [{"identity": "lands_in_global_span", "index": [1],
                        "lhs": [], "rhs": []}]}


def test_non_ideal_bimodule_fails_closure(c3_env):
    ctx = context(c3_env)
    v = identity(QQ, 9)[:1]
    doctored = dataclasses.replace(ctx, bimodule_m=span(v, 9))
    rep = verify_module_structures(doctored)
    assert not rep.identity_passed("m_closed_right_ring")
    assert not rep.identity_passed("m_closed_left_embedded")
    # the untouched bimodule is still fine
    assert rep.identity_passed("n_closed_left_ring")


@pytest.mark.parametrize("entry,counts", [
    ((1, 2, 0), (2, 4, 0, 8, 3, 5)),
    ((2, 2, 0), (8, 8, 8, 8, 8, 8)),
], ids=["sigma_holds", "all_six_fail"])
def test_nonassociative_global_product_fails_only_the_six(c3_env, entry,
                                                          counts):
    # the bimodules and the embedding are kept; only S's table changes,
    # so closure and the unit laws still hold and each violation is a
    # failure of (xy)z = x(yz) on one of the six families
    ctx = context(c3_env)
    s = ctx.global_cp
    mult = reference.integers(s.algebra.mult)
    mult[entry] += 1
    broken = dataclasses.replace(ctx, global_cp=dataclasses.replace(
        s, algebra=dataclasses.replace(s.algebra, mult=arr(QQ, mult))))
    reports = {"module_structures": verify_module_structures(broken),
               "pairings": verify_morita_pairings(broken).report}
    found = [v.identity for rep in reports.values() for v in rep.violations]
    assert tuple(map(found.count, SIX)) == counts
    assert len(found) == sum(counts)
    assert {name: rep.to_dict() for name, rep in reports.items()} == \
        NONASSOCIATIVE["%d,%d,%d" % entry]
