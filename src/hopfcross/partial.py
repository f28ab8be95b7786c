"""Twisted partial actions of a Hopf algebra on a unital algebra, their
global counterparts, and the passage from a global action to the partial
action it induces on a central idempotent corner.

A twisted partial action is stored as two tensors over the base field:

* ``action[i, j, k]``: coefficient of ``a_k`` in ``h_i . a_j``;
* ``cocycle[i, j, :]``: the algebra element ``w(h_i, h_j)``.

Both are stored as :class:`~hopfcross.linalg.Exact` tensors, as are the
action and twist of a global action.  Each action holds the reports of
its defining verifiers and the unit translates h . 1; a partial action
also holds the two sides of the twisted module identity, the nested
unit action h . (l . 1) and the product unit action
(h_1 . 1)((h_2 l) . 1).  Each is computed once on first use: the
tensors are read-only, so nothing held ever goes stale.

The verifiers never assume anything; each identity is expanded on all
basis tuples and failures are listed per tuple.  Centrality in a
convolution algebra, which the symmetry check and the unit translate
map ask for, is read from :func:`hopfcross.hopf.centrality`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import CheckReport, ReportBuilder
from .errors import ClosureViolation, NotCentralIdempotent, PreconditionError
from .hopf import (AlgebraData, HopfAlgebraData, centrality, convolution,
                   inverse_equations)
from .linalg import (Exact, SubspaceBasis, check_tensors, contract,
                     coords_or_raise, eqarr, identity, restricted_product,
                     solve, span)


class _Action:
    """What a partial and a global action share: the field and the unit
    translates."""

    @property
    def fld(self):
        return self.alg.fld

    @cached_property
    def unit_translates(self) -> Exact:
        """The matrix of h |-> h . 1, one row per Hopf basis element (for
        global data, counit multiples of the unit when the axioms hold)."""
        return contract("ija,j->ia", self.action, self.alg.unit)


@dataclass(frozen=True)
class TwistedPartialAction(_Action):
    hopf: HopfAlgebraData
    alg: AlgebraData
    action: Exact             # (dim H, dim A, dim A)
    cocycle: Exact            # (dim H, dim H, dim A)

    def __post_init__(self):
        nh, na = self.hopf.dim, self.alg.dim
        check_tensors(self, self.hopf.mult, self.alg.mult,
                      action=(nh, na, na), cocycle=(nh, nh, na))

    @cached_property
    def axioms_report(self) -> CheckReport:
        return verify_twisted_partial(self)

    @cached_property
    def conditions_report(self) -> CheckReport:
        return verify_crossed_conditions(self)

    @cached_property
    def twisted_module_sides(self) -> tuple[Exact, Exact]:
        """(h_1 . (l_1 . a)) w(h_2, l_2) and w(h_1, l_1)((h_2 l_2) . a) at
        [h, l, a]: the twisted module identity."""
        return _twisted_module_sides(self.hopf, self.action, self.cocycle,
                                     self.alg.mult)

    @cached_property
    def nested_unit_action(self) -> Exact:
        """h . (l . 1) at [h, l]."""
        return contract("jx,ixk->ijk", self.unit_translates, self.action)

    @cached_property
    def product_unit_action(self) -> Exact:
        """(h_1 . 1)((h_2 l) . 1) at [h, l]."""
        h, e = self.hopf, self.unit_translates
        return contract("ipq,py,qjt,tz,yzk->ijk", h.comult, e, h.mult, e,
                        self.alg.mult)


@dataclass(frozen=True)
class GlobalTwistedAction(_Action):
    """An everywhere-defined twisted action: the Hopf algebra measures the
    whole algebra and the twist is a plain convolution cocycle."""

    hopf: HopfAlgebraData
    alg: AlgebraData
    action: Exact             # (dim H, dim B, dim B)
    twist: Exact              # (dim H, dim H, dim B)

    def __post_init__(self):
        nh, nb = self.hopf.dim, self.alg.dim
        check_tensors(self, self.hopf.mult, self.alg.mult,
                      action=(nh, nb, nb), twist=(nh, nh, nb))

    @cached_property
    def axioms_report(self) -> CheckReport:
        return verify_global(self)


def verify_unit_translate_map(tpa) -> CheckReport:
    """Whether the map h |-> h . 1, held as ``tpa.unit_translates``, is
    central in the convolution algebra Hom(H, A), a standing assumption
    of the gauge theory."""
    rb = ReportBuilder("unit translate map")
    rb.compare("central_in_convolution",
               *centrality(tpa.unit_translates, tpa.hopf.coalgebra, tpa.alg))
    return rb.build()


# ---------------------------------------------------------------------------
# shared identity kernels


def _action_axioms(rb, hopf, alg, action):
    """Record the two axioms every action here shares: the Hopf unit acts
    as the identity, and the action splits over products through the
    coproduct."""
    rb.compare("unit_acts_trivially",
               contract("i,ijk->jk", hopf.unit, action),
               identity(alg.fld, alg.dim))
    lhs = contract("abm,imk->iabk", alg.mult, action)
    rhs = contract("ipq,pax,qby,xyk->iabk", hopf.comult, action, action,
                   alg.mult)
    rb.compare("action_multiplicative", lhs, rhs)


def _twisted_module_sides(hopf, action, cocycle, mult_a):
    lhs = contract("ipq,jrs,rax,pxy,qsz,yzk->ijak",
                   hopf.comult, hopf.comult, action, action, cocycle, mult_a)
    rhs = contract("ipq,jrs,pry,qst,taz,yzk->ijak",
                   hopf.comult, hopf.comult, cocycle, hopf.mult, action,
                   mult_a)
    return lhs, rhs


def _cocycle_identity_sides(hopf, action, cocycle, mult_a):
    lhs = contract("ipq,jrs,nuv,rux,pxy,svt,qtz,yzk->ijnk",
                   hopf.comult, hopf.comult, hopf.comult,
                   cocycle, action, hopf.mult, cocycle, mult_a)
    rhs = contract("ipq,jrs,pry,qst,tnz,yzk->ijnk",
                   hopf.comult, hopf.comult, cocycle, hopf.mult, cocycle,
                   mult_a)
    return lhs, rhs


# ---------------------------------------------------------------------------
# partial-side verifiers


def verify_twisted_partial(tpa: TwistedPartialAction) -> CheckReport:
    """The defining axioms of a twisted partial action.

    Checked per basis tuple: the Hopf unit acts as the identity, the
    action splits over products through the coproduct, the twisted
    module identity, and absorption of the cocycle by its own right
    translate.
    """
    rb = ReportBuilder("twisted partial action")
    h, a = tpa.hopf, tpa.alg
    _action_axioms(rb, h, a, tpa.action)
    lhs, rhs = tpa.twisted_module_sides
    rb.compare("twisted_module", lhs, rhs)
    # w(h_1, l_1)((h_2 l_2) . 1): the right side at a = 1
    rb.compare("cocycle_right_absorption", tpa.cocycle,
               contract("ijak,a->ijk", rhs, a.unit))
    return rb.build()


def verify_absorption(tpa: TwistedPartialAction) -> CheckReport:
    """Two consequences of the axioms, checked directly: the cocycle
    absorbs a nested action on the unit from the left, and absorbs a
    plain action on the unit from the left."""
    rb = ReportBuilder("cocycle absorption")
    h, a = tpa.hopf, tpa.alg
    # (h_1 . (l_1 . 1)) w(h_2, l_2): the twisted module left side at a = 1
    rb.compare("absorption_nested", tpa.cocycle,
               contract("ijak,a->ijk", tpa.twisted_module_sides[0], a.unit))
    rhs = contract("ipq,py,qjz,yzk->ijk", h.comult, tpa.unit_translates,
                   tpa.cocycle, a.mult)
    rb.compare("absorption_left", tpa.cocycle, rhs)
    return rb.build()


def verify_crossed_conditions(tpa: TwistedPartialAction) -> CheckReport:
    """The conditions under which the crossed product is associative and
    unital: cocycle normalization, the twisted module identity, and the
    partial 2-cocycle identity."""
    rb = ReportBuilder("crossed product conditions")
    h, a = tpa.hopf, tpa.alg
    e = tpa.unit_translates
    rb.compare("cocycle_normalized_left",
               contract("i,ijk->jk", h.unit, tpa.cocycle), e)
    rb.compare("cocycle_normalized_right",
               contract("j,ijk->ik", h.unit, tpa.cocycle), e)
    rb.compare("twisted_module", *tpa.twisted_module_sides)
    lhs, rhs = _cocycle_identity_sides(h, tpa.action, tpa.cocycle, a.mult)
    rb.compare("cocycle_identity", lhs, rhs)
    return rb.build()


def is_trivial_cocycle(tpa: TwistedPartialAction) -> bool:
    """Whether the cocycle is the one induced by the action alone, in
    both equivalent phrasings: w(h, l) = h . (l . 1) and
    w(h, l) = (h_1 . 1)((h_2 l) . 1)."""
    return (eqarr(tpa.cocycle, tpa.nested_unit_action)
            and eqarr(tpa.cocycle, tpa.product_unit_action))


# ---------------------------------------------------------------------------
# global-side verifier and induction


def verify_global(g: GlobalTwistedAction) -> CheckReport:
    """Axioms of a global twisted action: unit action, multiplicativity,
    preservation of the unit, twist normalization, the module
    compatibility, and the 2-cocycle identity for the twist."""
    rb = ReportBuilder("global twisted action")
    h, b = g.hopf, g.alg
    _action_axioms(rb, h, b, g.action)
    eps_unit = contract("i,a->ia", h.counit, b.unit)
    rb.compare("unit_preserved", g.unit_translates, eps_unit)
    rb.compare("twist_normalized_left",
               contract("i,ijk->jk", h.unit, g.twist), eps_unit)
    rb.compare("twist_normalized_right",
               contract("j,ijk->ik", h.unit, g.twist), eps_unit)
    lhs, rhs = _twisted_module_sides(h, g.action, g.twist, b.mult)
    rb.compare("twisted_module", lhs, rhs)
    lhs, rhs = _cocycle_identity_sides(h, g.action, g.twist, b.mult)
    rb.compare("twist_cocycle_identity", lhs, rhs)
    return rb.build()


def central_idempotent_report(alg: AlgebraData, e: Exact) -> CheckReport:
    rb = ReportBuilder("central idempotent")
    rb.compare("idempotent", alg.mul(e, e).reshape(1, -1), e.reshape(1, -1))
    lhs = contract("x,xjk->jk", e, alg.mult)
    rhs = contract("x,jxk->jk", e, alg.mult)
    rb.compare("central", lhs, rhs)
    return rb.build()


def corner_twist(g: GlobalTwistedAction, e: Exact) -> Exact:
    """The twist the corner of e inherits from a global twisted action:
    (h_1 . e) u(h_2, l_1) ((h_3 l_2) . e) with h . b = e (h > b),
    returned in ambient coordinates as a (dim H, dim H, dim B) tensor.
    """
    b = g.alg
    ea = contract("pjb,j->pb", g.action, e)
    ea = contract("x,pb,xbc->pc", e, ea, b.mult)
    return contract("ipqr,juv,rvt,py,quz,yzw,tx,wxc->ijc",
                    g.hopf.coalgebra.split3, g.hopf.comult, g.hopf.mult,
                    ea, g.twist, b.mult, ea, b.mult)


@dataclass(frozen=True)
class InducedPartialAction:
    """A partial action cut out of a global one by a central idempotent.

    ``carrier`` embeds the corner subalgebra back into the ambient
    algebra; ``tpa`` is the induced twisted partial action on it.
    """

    tpa: TwistedPartialAction
    carrier: SubspaceBasis


def induce_partial(g: GlobalTwistedAction, e: Exact,
                   check: bool = True) -> InducedPartialAction:
    """Restrict a global twisted action to the corner of a central
    idempotent e: the corner algebra is eB, the partial action is
    h . a = e (h > a), and the partial cocycle is
    (h_1 . e) u(h_2, l_1) ((h_3 l_2) . e).

    Raises NotCentralIdempotent if e is not a central idempotent, and
    ClosureViolation if some induced value escapes the corner (which
    cannot happen when the global axioms hold).  With ``check`` the
    result is also run through verify_twisted_partial.
    """
    cr = central_idempotent_report(g.alg, e)
    if not cr.passed:
        raise NotCentralIdempotent(
            "corner generator is not a central idempotent: " + cr.summary())
    return _induce(g, e, corner_twist(g, e), check)


def _induce(g, e, twist, check):
    """induce_partial past its guard, with the corner twist of e given."""
    b = g.alg
    rows = contract("i,ijk->jk", e, b.mult)  # row j = e * b_j
    carrier = span(rows, b.dim)
    sect = carrier.rows

    def corner_coords(vecs, what):
        """Corner coordinates of the vectors on the last axis of vecs;
        ``what`` names the first one outside, by its leading index."""
        return coords_or_raise(carrier, vecs, ClosureViolation,
                               what + " is not inside the corner subalgebra")

    unit_a = corner_coords(e, "the idempotent itself")
    mult_a = restricted_product(
        carrier, b.mult, ClosureViolation,
        "product of corner basis {}, {} is not inside the corner subalgebra")
    alg_a = AlgebraData(mult_a, unit_a)

    # e (h_p > corner basis j)
    acted = contract("x,jb,pbc,xcd->pjd", e, sect, g.action, b.mult)
    action_a = corner_coords(acted, "induced action at ({}, {})")
    cocycle_a = corner_coords(twist, "induced cocycle at ({}, {})")
    tpa = TwistedPartialAction(g.hopf, alg_a, action_a, cocycle_a)
    if check and not tpa.axioms_report.passed:
        raise PreconditionError("induced data fails the partial axioms: "
                                + tpa.axioms_report.summary())
    return InducedPartialAction(tpa, carrier)


# ---------------------------------------------------------------------------
# symmetry: convolution invertibility of the cocycle inside its corner


@dataclass(frozen=True)
class CocycleInverse:
    inverse: Exact | None         # (dim H, dim H, dim A), None if unsolved
    report: CheckReport


def verify_symmetric(tpa: TwistedPartialAction) -> CocycleInverse:
    """Symmetry of a twisted partial action: the cocycle must be
    convolution-invertible inside the corner ideal of Hom(H (x) H, A)
    whose local unit is f1 * f2, where f1(h, k) = (h . 1) eps(k) and
    f2(h, k) = (hk) . 1.

    Checks, in order: centrality of f1 and f2 against the spanning set
    of the convolution algebra; the factorization
    h . (k . 1) = (h_1 . 1)((h_2 k) . 1); then solves for an inverse w'
    with w * w' = w' * w = f1 * f2 and the ideal-membership constraints
    w' = (f1 * f2) * w' = w' * (f1 * f2) stacked into the same linear
    system.  The input is not assumed to satisfy any axiom.
    """
    h, a = tpa.hopf, tpa.alg
    nh, na = h.dim, a.dim
    c2 = h.coalgebra.tensor_square
    n2 = nh * nh
    e = tpa.unit_translates
    rb = ReportBuilder("symmetric twisted partial action")

    f1 = contract("iy,j->ijy", e, h.counit).reshape(n2, na)
    f2 = contract("ijt,ty->ijy", h.mult, e).reshape(n2, na)
    rb.compare("unit_factor_central", *centrality(f1, c2, a))
    rb.compare("product_factor_central", *centrality(f2, c2, a))

    rb.compare("unit_action_factorizes", tpa.nested_unit_action,
               tpa.product_unit_action)

    corner = convolution(f1, f2, c2, a)
    w = tpa.cocycle.reshape(n2, na)
    x = solve(*inverse_equations(w, corner, c2, a))
    if x is None:
        rb.require("inverse_exists", False,
                   lhs=("no solution",), rhs=("two-sided corner inverse",))
        return CocycleInverse(None, rb.build())
    rb.require("inverse_exists", True)
    wp = x.reshape(n2, na)
    rb.compare("left_inverse", convolution(w, wp, c2, a), corner)
    rb.compare("right_inverse", convolution(wp, w, c2, a), corner)
    rb.compare("ideal_member_left", convolution(corner, wp, c2, a), wp)
    rb.compare("ideal_member_right", convolution(wp, corner, c2, a), wp)
    return CocycleInverse(wp.reshape(nh, nh, na), rb.build())
