"""Gauge transformations of twisted partial actions.

A gauge is a map v: H -> A with v(1) = 1 that is invertible inside the
ideal of the convolution algebra Hom(H, A) whose local unit is
e(h) = h . 1.  Conjugating the action and cocycle by such a v gives a
new twisted partial action with the same crossed-product theory, and
the two crossed products are isomorphic.

A map and its weak inverse are stored together in a GaugePair; the
``fully_invertible`` flag records the special case where the inverse is
a true convolution inverse (against the counit unit), which happens
exactly when e itself is the counit unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import CheckReport, ReportBuilder
from .crossed import CrossedProductAlgebra
from .errors import CompositeNotGauge
from .hopf import (convolution, convolution_unit, inverse_equations,
                   multiplicativity, split)
from .linalg import (Exact, concat, contract, coords_in_many, eqarr, identity,
                     rank, solve, zeros)
from .partial import TwistedPartialAction


@dataclass(frozen=True)
class GaugePair:
    """A gauge map v together with its weak convolution inverse."""

    v: Exact                # (dim H, dim A)
    v_inv: Exact
    fully_invertible: bool


def weak_conv_inverse(v: Exact,
                      tpa: TwistedPartialAction) -> GaugePair | None:
    """Solve for the weak convolution inverse of v relative to the
    corner with local unit e(h) = h . 1: an u with v * u = u * v = e,
    u = u * e = e * u, and u(1) = 1.

    Returns the GaugePair, or None when v(1) is not the unit of A or no
    such u exists.  The solution, when it exists, is unique, so the
    deterministic solver returns the canonical one.
    """
    h, a = tpa.hopf, tpa.alg
    nh, na = h.dim, a.dim
    if not eqarr(contract("i,ij->j", h.unit, v), a.unit):
        return None
    rows, rhs = inverse_equations(v, tpa.unit_translates, h.coalgebra, a)
    at_one = contract("l,kb->klb", h.unit,
                      identity(a.fld, na)).reshape(na, nh * na)
    x = solve(concat([rows, at_one]), concat([rhs, a.unit]))
    if x is None:
        return None
    u = x.reshape(nh, na)
    cu = convolution_unit(h.coalgebra, a)
    fully = (eqarr(convolution(v, u, h.coalgebra, a), cu)
             and eqarr(convolution(u, v, h.coalgebra, a), cu))
    return GaugePair(v, u, fully)


def gauge_action(pair: GaugePair, tpa: TwistedPartialAction) -> Exact:
    """The conjugated action h . a = v(h_1)(h_2 . a)v'(h_3)."""
    h, a = tpa.hopf, tpa.alg
    return contract("ipqr,px,qay,xyA,rw,Awk->iak",
                    h.coalgebra.split3, pair.v, tpa.action, a.mult,
                    pair.v_inv, a.mult)


def gauge_cocycle(pair: GaugePair, tpa: TwistedPartialAction) -> Exact:
    """The conjugated cocycle
    w(h, g) = v(h_1)(h_2 . v(g_1)) w(h_3, g_2) v'(h_4 g_3)."""
    h, a = tpa.hopf, tpa.alg
    return contract("ipqrs,jabc,px,aA,qAy,xyB,rbz,BzC,sct,tw,CwD->ijD",
                    split(h.coalgebra, 4), h.coalgebra.split3, pair.v,
                    pair.v, tpa.action, a.mult, tpa.cocycle, a.mult, h.mult,
                    pair.v_inv, a.mult)


def gauge_transform(pair: GaugePair, tpa: TwistedPartialAction) -> TwistedPartialAction:
    return TwistedPartialAction(tpa.hopf, tpa.alg,
                                gauge_action(pair, tpa),
                                gauge_cocycle(pair, tpa))


def verify_gauge_composition(outer: GaugePair, inner: GaugePair,
                             tpa: TwistedPartialAction) -> CheckReport:
    """Gauging by ``inner`` and then by ``outer`` is the same as gauging
    once by the convolution product outer * inner, whose weak inverse is
    inner' * outer'.

    Raises CompositeNotGauge when the convolution product fails to be a
    gauge for the action (its candidate inverse does not satisfy the
    weak-inverse equations).  Otherwise reports the comparison of the
    two-step and one-step transforms.
    """
    h, a = tpa.hopf, tpa.alg
    comp = convolution(outer.v, inner.v, h.coalgebra, a)
    cand = convolution(inner.v_inv, outer.v_inv, h.coalgebra, a)
    pair = weak_conv_inverse(comp, tpa)
    if pair is None:
        raise CompositeNotGauge(
            "the convolution product of the two gauges has no weak inverse")
    rb = ReportBuilder("gauge composition")
    rb.compare("composite_inverse_is_swapped_product", pair.v_inv, cand)
    step = gauge_transform(inner, tpa)
    two = gauge_transform(outer, step)
    one = gauge_transform(pair, tpa)
    rb.compare("composite_action_matches", one.action, two.action)
    rb.compare("composite_cocycle_matches", one.cocycle, two.cocycle)
    return rb.build()


def gauge_crossed_iso(pair: GaugePair, cp: CrossedProductAlgebra,
                      cpv: CrossedProductAlgebra):
    """The isomorphism from the crossed product ``cpv`` of the action
    gauged by ``pair`` to the crossed product ``cp`` of the original,
    class of a (x) h |-> class of a v(h_1) (x) h_2.

    Returns (matrix, report).  The report checks multiplicativity, unit
    preservation, bijectivity, and that the companion map built from the
    weak inverse is a two-sided inverse.  A note records the verdict on
    the same formula read in the opposite direction, which fails in
    general.
    """
    h, a = cp.hopf, cp.base
    nh, na = h.dim, a.dim
    rb = ReportBuilder("gauge isomorphism of crossed products")

    def ambient(f):
        """a (x) h |-> a f(h_1) (x) h_2 on all of A (x) H."""
        return contract("pqt,qx,ixm->ipmt", h.comult, f,
                        a.mult).reshape(na * nh, na * nh)

    def induced(src, dst, amb):
        mat, misses = coords_in_many(
            dst.basis, contract("xa,ab->xb", src.basis.rows, amb))
        return None if misses else mat

    amb_v = ambient(pair.v)
    phi = induced(cpv, cp, amb_v)
    if phi is None:
        rb.require("lands_in_target_span", False)
        return zeros(a.fld, (cpv.dim, cp.dim)), rb.build()
    rb.require("lands_in_target_span", True)
    rb.compare("multiplicative",
               *multiplicativity(phi, cpv.algebra, cp.algebra))
    one = contract("i,ij->j", cpv.algebra.unit, phi)
    rb.compare("unital", one.reshape(1, -1), cp.algebra.unit.reshape(1, -1))
    rk = rank(phi)
    rb.require("bijective", cpv.dim == cp.dim and rk == cp.dim,
               lhs=(rk,), rhs=(cp.dim,))
    psi = induced(cp, cpv, ambient(pair.v_inv))
    if psi is None:
        rb.require("inverse_lands_in_source_span", False)
    else:
        for name, f, g in (("inverse_after_map", phi, psi),
                           ("map_after_inverse", psi, phi)):
            rb.compare(name, contract("ij,jk->ik", f, g),
                       identity(a.fld, f.shape[0]))

    fwd = induced(cp, cpv, amb_v)
    if fwd is None:
        rb.note("the same formula read from the original crossed product "
                "does not even land in the gauged one")
    elif not eqarr(*multiplicativity(fwd, cp.algebra, cpv.algebra)):
        rb.note("the same formula read from the original crossed product "
                "is not multiplicative; only the stated direction is")
    return phi, rb.build()


def verify_equisatisfiability(tpa: TwistedPartialAction,
                              gauged: TwistedPartialAction) -> CheckReport:
    """The crossed-product conditions hold for the original data exactly
    when they hold for the gauged data ``gauged``, identity by identity,
    read from the conditions report each action holds."""
    before, after = tpa.conditions_report, gauged.conditions_report
    rb = ReportBuilder("gauge equisatisfiability")
    for name in ("cocycle_normalized_left", "cocycle_normalized_right",
                 "twisted_module", "cocycle_identity"):
        rb.require(f"{name}_agrees",
                   before.identity_passed(name) == after.identity_passed(name),
                   lhs=(before.identity_passed(name),),
                   rhs=(after.identity_passed(name),))
    return rb.build()
