"""Enveloping (global) actions for partial actions of Hopf algebras.

Given a partial action of a finite-dimensional Hopf algebra H on A whose
cocycle is the trivial one, the enveloping action lives inside the
convolution algebra Hom(H, A) (Alves-Batista, "Enveloping actions for
partial Hopf actions", Comm. Algebra 38 (2010)): the base algebra embeds
as theta(a)(h) = h . a, H acts by (h > f)(k) = f(k h), the enveloping
algebra is the span of all translates of the image, and the twist is
the trivial one.  For a group algebra, Hom(H, A) is the algebra of
A-valued functions on the group and the action translates the argument.
The original partial action is recovered on the corner cut out by
theta(1).

Only the trivial cocycle and the closure of the span are required up
front.  The finished construction is not verified here:
``verify_enveloping(env)`` does that and lists every violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import CheckReport, ReportBuilder
from .errors import PreconditionError
from .hopf import AlgebraData, convolution_algebra, multiplicativity
from .linalg import (Exact, SubspaceBasis, concat, contract, coords_in_many,
                     coords_or_raise, identity, rank, restricted_product,
                     solve, span, to_strings)
from .partial import (GlobalTwistedAction, TwistedPartialAction, _induce,
                      central_idempotent_report, corner_twist,
                      is_trivial_cocycle)


@dataclass(frozen=True)
class EnvelopingAction:
    """A global twisted action enveloping a partial one.

    Attributes:
        source: the partial action that was globalized.
        carrier: the enveloping algebra as a subspace of the convolution
            algebra Hom(H, A) it lives in, of dimension
            ``carrier.ambient_dim``.
        glob: the global action in carrier coordinates.
        theta: Exact matrix of the embedding of the base algebra, in
            carrier coordinates.

    theta(1), its central-idempotent report and its corner twist are
    each computed once, on first use.
    """

    source: TwistedPartialAction
    carrier: SubspaceBasis
    glob: GlobalTwistedAction
    theta: Exact

    @cached_property
    def theta_one(self) -> Exact:
        return contract("i,ij->j", self.source.alg.unit, self.theta)

    @cached_property
    def corner_report(self) -> CheckReport:
        return central_idempotent_report(self.glob.alg, self.theta_one)

    @cached_property
    def corner_twist(self) -> Exact:
        return corner_twist(self.glob, self.theta_one)


def globalize_group_partial(tpa: TwistedPartialAction) -> EnvelopingAction:
    """Build the enveloping action of a partial Hopf action with trivial
    cocycle.  Any finite-dimensional Hopf algebra is accepted; the name
    dates from when only group algebras were, and stays for its callers.

    Raises PreconditionError when the cocycle is not the trivial one, or
    when the span of the translates is not a unital algebra closed under
    the action.
    """
    h, a = tpa.hopf, tpa.alg
    if not is_trivial_cocycle(tpa):
        raise PreconditionError(
            "globalization is implemented for trivial cocycles only")
    nh, na = h.dim, a.dim
    ambient = convolution_algebra(h.coalgebra, a)
    nf = ambient.dim

    # theta(a_i) = sum over s of delta_s (x) (h_s . a_i)
    theta_amb = tpa.action.transpose(1, 0, 2).reshape(na, nf)
    # (h_g > f)(h_u) = f(h_u h_g), so delta_s (x) a_i moves to the sum
    # over u of mult[u, g, s] delta_u (x) a_i
    act_amb = contract("ugs,ij->gsiuj", h.mult,
                       identity(a.fld, na)).reshape(nh, nf, nf)

    trans = contract("ib,gbc->gic", theta_amb, act_amb).reshape(nh * na, nf)
    carrier = span(trans, nf)
    nb = carrier.dim
    mult_b = restricted_product(
        carrier, ambient.mult, PreconditionError,
        "product of span elements {}, {} left the enveloping span")

    # the unit of the enveloping algebra: solve u b_t = b_t = b_t u for
    # every t; it need not be the unit of the ambient convolution algebra
    eqs = concat([mult_b.transpose(1, 2, 0),
                  mult_b.transpose(0, 2, 1)]).reshape(2 * nb * nb, nb)
    eye = identity(a.fld, nb).reshape(nb * nb)
    unit_b = solve(eqs, concat([eye, eye]))
    if unit_b is None:
        raise PreconditionError("the enveloping span has no two-sided unit")
    alg_b = AlgebraData(mult_b, unit_b)

    act_b = coords_or_raise(
        carrier, contract("ia,gab->gib", carrier.rows, act_amb),
        PreconditionError,
        "translate of span element {1} left the enveloping span")
    twist = contract("p,q,k->pqk", h.counit, h.counit, unit_b)
    glob = GlobalTwistedAction(h, alg_b, act_b, twist)

    theta = coords_or_raise(carrier, theta_amb, PreconditionError,
                            "embedded base element {} left the enveloping span")

    return EnvelopingAction(tpa, carrier, glob, theta)


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
    na, nb, ng = tpa.alg.dim, b.dim, tpa.hopf.dim
    th = env.theta

    image = span(th, nb)
    rb.require("embedding_injective", image.dim == na, lhs=(image.dim,),
               rhs=(na,))
    rb.compare("embedding_multiplicative",
               *multiplicativity(th, tpa.alg, b))

    # b_i theta(a_j) at (i, j) and theta(a_j) b_i at (j, i)
    rb.require_inside("image_left_ideal",
                      contract("jb,ibc->ijc", th, b.mult), image,
                      "in image")
    rb.require_inside("image_right_ideal",
                      contract("ja,aic->jic", th, b.mult), image,
                      "in image")

    one = env.theta_one
    rb.absorb(env.corner_report, "corner_")

    lhs = contract("gjm,mB->gjB", tpa.action, th)
    rhs = contract("jC,gCD,E,EDB->gjB", th, env.glob.action, one, b.mult)
    rb.compare("action_intertwines", lhs, rhs)

    trans = contract("iB,gBC->giC", th, env.glob.action).reshape(ng * na, nb)
    rk = rank(trans)
    rb.require("translates_span", rk == nb, lhs=(rk,), rhs=(nb,))

    # the partial cocycle must match the twist cut down to the corner:
    # theta(a w(p, q)) = theta(a) u~(p, q) with u~ the corner twist of
    # theta(1).  When theta(1) is the unit of B this is the plain
    # statement theta(a w(p, q)) = theta(a) u(p, q).
    w = tpa.cocycle
    ut = env.corner_twist
    lhs = contract("pqz,izm,mB->ipqB", w, tpa.alg.mult, th)
    rhs = contract("iB,pqC,BCD->ipqD", th, ut, b.mult)
    rb.compare("twist_compatible_right", lhs, rhs)
    lhs = contract("pqz,zim,mB->ipqB", w, tpa.alg.mult, th)
    rhs = contract("pqC,iB,CBD->ipqD", ut, th, b.mult)
    rb.compare("twist_compatible_left", lhs, rhs)
    return rb.build()


def verify_induced_matches(env: EnvelopingAction) -> CheckReport:
    """Induce a partial action back from the global one on the corner of
    theta(1) and compare it, through theta, with the original."""
    rb = ReportBuilder("induced partial action")
    # a corner is induced only from a central idempotent; report a
    # failure instead, as verify_enveloping does
    if not env.corner_report.passed:
        rb.absorb(env.corner_report, "corner_")
        return rb.build()
    ind = _induce(env.glob, env.theta_one, env.corner_twist, True)
    tpa = env.source
    na = tpa.alg.dim
    lmat, misses = coords_in_many(ind.carrier, env.theta)
    if misses:
        i, = misses[0]
        rb.require("embedding_lands_in_corner", False, index=(i,),
                   lhs=to_strings(env.theta[i]), rhs=("in corner",))
        return rb.build()
    rb.require("embedding_lands_in_corner", True)
    rb.require("corner_dimension_matches", ind.carrier.dim == na,
               lhs=(ind.carrier.dim,), rhs=(na,))
    lhs = contract("gjm,mC->gjC", tpa.action, lmat)
    rhs = contract("jC,gCD->gjD", lmat, ind.tpa.action)
    rb.compare("induced_action_matches", lhs, rhs)
    lhs = contract("pqm,mC->pqC", tpa.cocycle, lmat)
    rb.compare("induced_cocycle_matches", lhs, ind.tpa.cocycle)
    return rb.build()
