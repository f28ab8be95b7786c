"""Enveloping (global) actions for partial actions of group algebras.

Given a partial action of a group algebra whose cocycle is the trivial
one, the corresponding global action lives inside the algebra of
A-valued functions on the group: the base algebra embeds as
theta(a)(g) = g . a, the group translates functions by right
multiplication of the argument, and the enveloping algebra is the span
of all translates of the image.  The original partial action is
recovered on the corner cut out by theta(1).

The construction requires each e_g = g . 1 to be a central idempotent
with g . A = e_g A; these are checked up front.  The finished
construction is not verified here: ``verify_enveloping(env)`` does that
and lists every violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import CheckReport, ReportBuilder
from .errors import NotCentralIdempotent, PreconditionError
from .hopf import AlgebraData, HopfAlgebraData, function_algebra
from .linalg import (SubspaceBasis, contract, coords_in_many, rank, solve,
                     span, zeros)
from .partial import (GlobalTwistedAction, TwistedPartialAction,
                      central_idempotent_report, corner_twist, induce_partial,
                      is_trivial_cocycle, unit_translates)


def _group_table(h: HopfAlgebraData):
    """Recover the group index table from a group algebra, or raise
    PreconditionError if the basis is not group-like."""
    n = h.dim
    mult, comult = h.mult.elements, h.comult.elements
    table = []
    for i in range(n):
        if h.counit.elements[i] != h.fld.one():
            raise PreconditionError(f"basis element {i} is not group-like (counit)")
        for a in range(n):
            for b in range(n):
                expected = h.fld.one() if (a == i and b == i) else h.fld.zero()
                if comult[i, a, b] != expected:
                    raise PreconditionError(
                        f"basis element {i} is not group-like (coproduct)")
    for i in range(n):
        row = []
        for j in range(n):
            hits = [k for k in range(n) if mult[i, j, k] != 0]
            if len(hits) != 1 or mult[i, j, hits[0]] != h.fld.one():
                raise PreconditionError(
                    f"product of basis elements {i} and {j} is not a basis element")
            row.append(hits[0])
        table.append(row)
    return table


@dataclass(frozen=True)
class EnvelopingAction:
    """A global twisted action enveloping a partial one.

    Attributes:
        source: the partial action that was globalized.
        ambient: the function algebra the enveloping algebra lives in.
        carrier: the enveloping algebra as a subspace of the ambient.
        glob: the global action in carrier coordinates.
        theta: matrix of the embedding of the base algebra, in carrier
            coordinates.
    """

    source: TwistedPartialAction
    ambient: AlgebraData
    carrier: SubspaceBasis
    glob: GlobalTwistedAction
    theta: np.ndarray

    @property
    def theta_one(self):
        return self.source.alg.unit.elements @ self.theta


def globalize_group_partial(tpa: TwistedPartialAction) -> EnvelopingAction:
    """Build the enveloping action of a group-algebra partial action
    with trivial cocycle.

    Raises PreconditionError when the Hopf algebra is not a group
    algebra or the cocycle is not the trivial one, and
    NotCentralIdempotent when some g . 1 fails to be a central
    idempotent with g . A = (g . 1) A.
    """
    h, a = tpa.hopf, tpa.alg
    fld = a.fld
    table = _group_table(h)
    if not is_trivial_cocycle(tpa):
        raise PreconditionError(
            "globalization is implemented for trivial cocycles only")
    ng, na = h.dim, a.dim
    e = unit_translates(tpa)
    for g in range(ng):
        rep = central_idempotent_report(a, e[g])
        if not rep.passed:
            raise NotCentralIdempotent(
                f"group element {g} does not act by a central idempotent: "
                + rep.summary())
        acted = span(tpa.action.elements[g], na, fld)
        corner = span(contract("j,ijk->ik", e[g], a.mult, fld=fld), na, fld)
        if acted != corner:
            raise NotCentralIdempotent(
                f"the image of the action of group element {g} is not the "
                f"corner of its idempotent")

    ambient = function_algebra(a, ng)
    nf = ambient.dim

    theta_amb = zeros(fld, (na, nf))
    for i in range(na):
        for g in range(ng):
            theta_amb[i, g * na:(g + 1) * na] = tpa.action.elements[g, i]

    ident = next(c for c in range(ng) if all(table[c][j] == j for j in range(ng)))
    inv = [next(k for k in range(ng) if table[g][k] == ident) for g in range(ng)]

    # translation action on the ambient function algebra:
    # (h > f)(g) = f(g h), so the delta function at point s moves to s h^{-1}
    act_amb = zeros(fld, (ng, nf, nf))
    for g in range(ng):
        for s in range(ng):
            t = table[s][inv[g]]
            for j in range(na):
                act_amb[g, s * na + j, t * na + j] = fld.one()

    trans = contract("ib,gbc->gic", theta_amb, act_amb,
                     fld=fld).reshape(ng * na, nf)
    carrier = span(trans, nf, fld)
    nb = carrier.dim
    rows = carrier.rows

    def in_carrier(vecs, what):
        """Carrier coordinates of the vectors on the last axis of vecs;
        ``what`` names the first one outside, by its leading index."""
        coords, misses = coords_in_many(carrier, vecs)
        if misses:
            raise PreconditionError(
                f"{what.format(*misses[0])} left the enveloping span")
        return coords

    mult_b = in_carrier(contract("ia,jb,abc->ijc", rows, rows, ambient.mult,
                                 fld=fld),
                        "product of span elements {}, {}")

    # the unit of the enveloping algebra: solve for a two-sided identity
    # of the span; it need not be the unit of the ambient function algebra
    eqs = zeros(fld, (2 * nb * nb, nb))
    rhs = zeros(fld, (2 * nb * nb,))
    r = 0
    for t in range(nb):
        for k in range(nb):
            for s in range(nb):
                eqs[r, s] = mult_b[s, t, k]
            rhs[r] = fld.one() if k == t else fld.zero()
            r += 1
    for t in range(nb):
        for k in range(nb):
            for s in range(nb):
                eqs[r, s] = mult_b[t, s, k]
            rhs[r] = fld.one() if k == t else fld.zero()
            r += 1
    unit_b = solve(eqs, rhs, fld)
    if unit_b is None:
        raise PreconditionError("the enveloping span has no two-sided unit")
    alg_b = AlgebraData(fld, nb, mult_b, unit_b)

    act_b = in_carrier(contract("ia,gab->gib", rows, act_amb, fld=fld),
                       "translate of span element {1}")

    twist = zeros(fld, (ng, ng, nb))
    for p in range(ng):
        for q in range(ng):
            twist[p, q] = unit_b
    glob = GlobalTwistedAction(h, alg_b, act_b, twist)

    theta = in_carrier(theta_amb, "embedded base element {}")

    return EnvelopingAction(tpa, ambient, carrier, glob, theta)


def verify_enveloping(env: EnvelopingAction) -> CheckReport:
    """Everything that makes the global action an enveloping action of
    its source: the global axioms; injectivity and multiplicativity of
    the embedding; the image being an ideal; the corner idempotent being
    central; the action intertwining through the corner; the translates
    spanning; and compatibility of the twist with the partial cocycle.
    """
    rb = ReportBuilder("enveloping action")
    rb.absorb(env.glob.axioms_report, "global.")
    tpa = env.source
    b = env.glob.alg
    fld = b.fld
    na, nb, ng = tpa.alg.dim, b.dim, tpa.hopf.dim
    th = env.theta

    rk = rank(th, fld)
    rb.require("embedding_injective", rk == na, lhs=(rk,), rhs=(na,))
    lhs = contract("ijm,mB->ijB", tpa.alg.mult, th, fld=fld)
    rhs = contract("iB,jC,BCD->ijD", th, th, b.mult, fld=fld)
    rb.compare("embedding_multiplicative", lhs, rhs)

    image = span(th, nb, fld)
    # b_i theta(a_j) at (i, j) and theta(a_j) b_i at (j, i)
    rb.require_inside("image_left_ideal",
                      contract("jb,ibc->ijc", th, b.mult, fld=fld), image,
                      "in image")
    rb.require_inside("image_right_ideal",
                      contract("ja,aic->jic", th, b.mult, fld=fld), image,
                      "in image")

    one = env.theta_one
    rb.absorb(central_idempotent_report(b, one), "corner_")

    lhs = contract("gjm,mB->gjB", tpa.action, th, fld=fld)
    rhs = contract("jC,gCD,E,EDB->gjB", th, env.glob.action, one, b.mult,
                   fld=fld)
    rb.compare("action_intertwines", lhs, rhs)

    trans = contract("iB,gBC->giC", th, env.glob.action,
                     fld=fld).reshape(ng * na, nb)
    rk = rank(trans, fld)
    rb.require("translates_span", rk == nb, lhs=(rk,), rhs=(nb,))

    # the partial cocycle must match the twist cut down to the corner:
    # theta(a w(p, q)) = theta(a) u~(p, q) with u~ the corner twist of
    # theta(1).  When theta(1) is the unit of B this is the plain
    # statement theta(a w(p, q)) = theta(a) u(p, q).
    w = tpa.cocycle
    ut = corner_twist(env.glob, one)
    lhs = contract("pqz,izm,mB->ipqB", w, tpa.alg.mult, th, fld=fld)
    rhs = contract("iB,pqC,BCD->ipqD", th, ut, b.mult, fld=fld)
    rb.compare("twist_compatible_right", lhs, rhs)
    lhs = contract("pqz,zim,mB->ipqB", w, tpa.alg.mult, th, fld=fld)
    rhs = contract("pqC,iB,CBD->ipqD", ut, th, b.mult, fld=fld)
    rb.compare("twist_compatible_left", lhs, rhs)
    return rb.build()


def verify_induced_matches(env: EnvelopingAction) -> CheckReport:
    """Induce a partial action back from the global one on the corner of
    theta(1) and compare it, through theta, with the original."""
    rb = ReportBuilder("induced partial action")
    ind = induce_partial(env.glob, env.theta_one)
    tpa = env.source
    fld = tpa.fld
    na = tpa.alg.dim
    lmat, misses = coords_in_many(ind.carrier, env.theta)
    if misses:
        i, = misses[0]
        rb.require("embedding_lands_in_corner", False, index=(i,),
                   lhs=tuple(env.theta[i]), rhs=("in corner",))
        return rb.build()
    rb.require("embedding_lands_in_corner", True)
    rb.require("corner_dimension_matches", ind.carrier.dim == na,
               lhs=(ind.carrier.dim,), rhs=(na,))
    lhs = contract("gjm,mC->gjC", tpa.action, lmat, fld=fld)
    rhs = contract("jC,gCD->gjD", lmat, ind.tpa.action, fld=fld)
    rb.compare("induced_action_matches", lhs, rhs)
    lhs = contract("pqm,mC->pqC", tpa.cocycle, lmat, fld=fld)
    rb.compare("induced_cocycle_matches", lhs, ind.tpa.cocycle)
    return rb.build()
