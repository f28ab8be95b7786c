"""Partially cleft sections, centralizer identities, and separability
idempotents for crossed products.

A cleft datum is a pair of convolution maps gamma, gamma': H -> R into
a crossed product, where gamma is colinear for the coaction, gamma' is
colinear for the flipped coaction through the antipode, and their
convolution product lands in the embedded base.  The default datum
sends h to the class of (h_1 . 1) (x) h_2 and composes with the
antipode for gamma'.

From a cleft datum, a left integral t and a suitable central c, the
separability element of the extension is

    sum  gamma'(u_1) iota(c) iota(S(u_2) . 1) (x) gamma(u_3),  u = S(t),

read in the balanced tensor square of R over the embedded base.  The
code builds it exactly and checks the two separability conditions on
basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import CheckReport, ReportBuilder
from .crossed import CrossedProductAlgebra, require_coinvariants_are_base
from .errors import (NormalizationFailed, NotCentral, NotCocommutative,
                     NotIntegral, PreconditionError)
from .hopf import centrality, is_cocommutative, left_integrals
from .linalg import (Exact, check_tensors, concat, contract, coords_or_raise,
                     eqarr, is_zero, kernel, solve, to_strings)
from .partial import TwistedPartialAction


@dataclass(frozen=True)
class CleftData:
    """A crossed product with a section/cosection pair.

    ``tpa`` is the twisted partial action that ``cp`` is the crossed
    product of: the centralizer and separability formulas quantify over
    terms like S(h) . 1 that cannot be recovered from the maps alone,
    and read the action and its unit translates from it.  The two maps
    are stored as Exact, so ``cleft_report``, verify_partially_cleft of
    the datum, is computed once and kept.
    """

    cp: CrossedProductAlgebra
    gamma: Exact               # (dim H, dim R)
    gamma_prime: Exact
    tpa: TwistedPartialAction

    def __post_init__(self):
        shape = (self.cp.hopf.dim, self.cp.dim)
        check_tensors(self, self.cp.iota, self.tpa.action, gamma=shape,
                      gamma_prime=shape)

    @cached_property
    def cleft_report(self) -> CheckReport:
        return verify_partially_cleft(self)


def default_cleft(tpa: TwistedPartialAction,
                  cp: CrossedProductAlgebra) -> CleftData:
    """The unit section gamma(h) = class of (h_1 . 1) (x) h_2 into the
    crossed product cp of tpa, with gamma' = gamma after the
    antipode."""
    h, a = tpa.hopf, tpa.alg
    amb = contract("jpq,px->jxq", h.comult,
                   tpa.unit_translates).reshape(h.dim, a.dim * h.dim)
    gamma = coords_or_raise(cp.basis, amb, ValueError,
                            "unit section of basis element {} left the span")
    return CleftData(cp, gamma,
                     contract("ij,jk->ik", h.antipode, gamma), tpa)


def _conv_product(cd: CleftData) -> Exact:
    """(gamma * gamma')(h) on the Hopf basis, valued in the crossed
    product."""
    h = cd.cp.hopf
    return contract("ipq,pk,qm,kms->is", h.comult, cd.gamma, cd.gamma_prime,
                    cd.cp.algebra.mult)


def verify_partially_cleft(cd: CleftData) -> CheckReport:
    """The defining conditions of a partially cleft extension.

    Raises CoinvariantsMismatch when the coinvariants of the coaction
    are not the embedded base, since the notion is only about such
    extensions.  Then checks the value at 1, colinearity of the section,
    antipode-twisted colinearity of the cosection, that gamma * gamma'
    lands in the embedded base, centrality of its two-argument extension
    in the convolution algebra, and commutation with the base.
    """
    cp = cd.cp
    h = cp.hopf
    require_coinvariants_are_base(cp)
    rb = ReportBuilder("partially cleft extension")
    rb.compare("unit_value",
               contract("i,ij->j", h.unit, cd.gamma).reshape(1, -1),
               cp.algebra.unit.reshape(1, -1))
    d, nh = cp.dim, h.dim
    co = cp.coaction.reshape(d, d, nh)
    lhs = contract("jm,mks->jks", cd.gamma, co)
    rhs = contract("jpq,pk->jkq", h.comult, cd.gamma)
    rb.compare("section_colinear", lhs, rhs)
    lhs = contract("jm,mks->jks", cd.gamma_prime, co)
    rhs = contract("jpq,qk,ps->jks", h.comult, cd.gamma_prime, h.antipode)
    rb.compare("cosection_colinear", lhs, rhs)
    q = _conv_product(cd)
    rb.require_inside("product_valued_in_base", q, cp.base_space,
                      "inside the embedded base")
    qa = solve(cp.iota.transpose(), q.transpose())     # (dim A, dim H)
    if qa is not None:
        # centrality lives in the convolution algebra of maps into the
        # base, so the product is pulled back through the embedding
        q2 = contract("ijt,yt->ijy", h.mult, qa).reshape(nh * nh, cp.base.dim)
        rb.compare("product_convolution_central",
                   *centrality(q2, h.coalgebra.tensor_square, cp.base))
    else:
        rb.note("centrality of the section product was skipped because the "
                "product does not land in the embedded base")
    lhs = contract("is,at,stu->iau", q, cp.iota, cp.algebra.mult)
    rhs = contract("is,at,tsu->iau", q, cp.iota, cp.algebra.mult)
    rb.compare("product_commutes_with_base", lhs, rhs)
    return rb.build()


def centralizer(cp: CrossedProductAlgebra):
    """The centralizer of the embedded base inside the crossed product,
    as a subspace in crossed-product coordinates."""
    d, na = cp.dim, cp.base.dim
    mult = cp.algebra.mult
    diff = mult - mult.transpose(1, 0, 2)
    m = contract("aj,ijk->aki", cp.iota, diff).reshape(na * d, d)
    return kernel(m)


def verify_centralizer_identity(cd: CleftData, c) -> CheckReport:
    """For cocommutative H and c centralizing the base, conjugating c by
    the cosection/section pair

        sum gamma'(h_1) c iota(S(h_2) . 1) gamma(h_3)

    equals the antipode-swapped conjugation
    sum gamma(S(h_2)) c gamma'(S(h_1)), and when c lies in the base it
    also equals iota(S(h) . c).

    Raises NotCocommutative or NotCentral when the hypotheses fail.
    """
    cp = cd.cp
    h = cp.hopf
    if not is_cocommutative(h.coalgebra):
        raise NotCocommutative("the coproduct is not cocommutative")
    coords_or_raise(centralizer(cp), c, NotCentral,
                    "the element does not centralize the embedded base")
    iota_es = contract("ij,jk,kl->il", h.antipode, cd.tpa.unit_translates,
                       cp.iota)
    mult = cp.algebra.mult
    t1 = contract("pa,b,abm->pm", cd.gamma_prime, c, mult)
    t2 = contract("pm,qc,mcn->pqn", t1, iota_es, mult)
    t3 = contract("pqn,rd,ndk->pqrk", t2, cd.gamma, mult)
    e1 = contract("ipqr,pqrk->ik", h.coalgebra.split3, t3)
    gs = contract("ij,jk->ik", h.antipode, cd.gamma)
    gps = contract("ij,jk->ik", h.antipode, cd.gamma_prime)
    t = contract("qa,b,abm->qm", gs, c, mult)
    e2 = contract("ipq,qm,pd,mdk->ik", h.comult, t, gps, mult)
    rb = ReportBuilder("centralizer conjugation")
    rb.compare("conjugation_equals_swapped", e1, e2)
    c_a = solve(cp.iota.transpose(), c)
    if c_a is None:
        rb.note("the element is outside the embedded base, so the comparison "
                "with the measured value does not apply")
    else:
        acted = contract("ij,b,jba->ia", h.antipode, c_a, cd.tpa.action)
        rb.compare("conjugation_equals_action", e2,
                   contract("ia,ab->ib", acted, cp.iota))
    return rb.build()


@dataclass(frozen=True)
class BalancedTensorElement:
    """An element of the balanced tensor square of a crossed product
    over its base, kept both as quotient coordinates and as a lift on
    the plain tensor square (row-major pair indexing)."""

    coordinates: Exact
    lift: Exact


def separability_idempotent(cd: CleftData, t, c):
    """The candidate separability element built from a left integral t
    and a base element c, as an element of the balanced tensor square.

    Preconditions, each raising its own error: the coproduct must be
    cocommutative, the cleft data must pass its own verification, t must
    be a nonzero left integral, c must be central in the base algebra,
    and t . c = sum t_i (h_i . c) must be the base unit.

    Returns (element, report, conditions): ``conditions`` is
    check_separable_extension of the element, the two separability
    conditions; ``report`` absorbs it and adds the normalization and
    whether the canonical Galois map of the crossed product is
    bijective, which the separability theory presumes and which can
    genuinely fail.
    """
    cp = cd.cp
    h = cp.hopf
    if not is_cocommutative(h.coalgebra):
        raise NotCocommutative("the coproduct is not cocommutative")
    if not cd.cleft_report.passed:
        raise PreconditionError("the section pair is not partially cleft: "
                                + cd.cleft_report.summary())
    not_integral = "the chosen element is not a nonzero left integral"
    if is_zero(t):
        raise NotIntegral(not_integral)
    coords_or_raise(left_integrals(h), t, NotIntegral, not_integral)
    a = cp.base
    if not eqarr(contract("b,bjk->jk", c, a.mult),
                 contract("b,jbk->jk", c, a.mult)):
        raise NotCentral("the chosen element is not central in the base")
    normalized = contract("i,b,iba->a", t, c, cd.tpa.action)
    if not eqarr(normalized, a.unit):
        raise NormalizationFailed(
            f"the integral does not collapse the element to the unit: got "
            f"({', '.join(to_strings(normalized))})")

    u = contract("i,ij->j", t, h.antipode)
    w = contract("i,ipqr->pqr", u, h.coalgebra.split3)
    iota_es = contract("ij,jk,kl->il", h.antipode, cd.tpa.unit_translates,
                       cp.iota)
    iota_c = contract("i,ij->j", c, cp.iota)
    mult = cp.algebra.mult
    first = contract("pa,b,abm,qc,mcn->pqn", cd.gamma_prime, iota_c, mult,
                     iota_es, mult)
    d = cp.dim
    lift = contract("pqr,pqy,rz->yz", w, first, cd.gamma).reshape(d * d)
    proj = _project_translates(cd, lift)
    elem = BalancedTensorElement(proj[0], lift)

    rb = ReportBuilder("separability element construction")
    rb.require("normalization", True)
    res = cp.canonical
    rb.require("canonical_map_bijective", res.bijective,
               lhs=(res.quotient_dim, res.rank), rhs=(res.target_dim,))
    conditions = _separability_conditions(cd, elem, proj)
    rb.absorb(conditions, "")
    return elem, rb.build(), conditions


def check_separable_extension(cd: CleftData,
                              elem: BalancedTensorElement) -> CheckReport:
    """The two separability conditions for an element of the balanced
    tensor square: it commutes with every ring element across the two
    legs, and multiplication collapses it to the unit.  A third derived
    identity checks idempotency under the factorwise product."""
    return _separability_conditions(cd, elem,
                                    _project_translates(cd, elem.lift))


def _project_translates(cd: CleftData, lift: Exact) -> Exact:
    """The quotient classes of every tensor the separability conditions
    read, by one projection: the lift at 0, its translates by the ring
    basis from the left at 1..d and from the right at d+1..2d, and its
    factorwise square at 2d + 1."""
    cp = cd.cp
    d = cp.dim
    lift = lift.reshape(d, d)
    mult = cp.algebra.mult
    left = contract("ab,xac->xcb", lift, mult)
    right = contract("ab,bxc->xac", lift, mult)
    squared = contract("yz,ab,yac,bzd->cd", lift, lift, mult, mult)
    return cp.balanced_square.project(concat(
        [lift.reshape(1, -1), left.reshape(d, d * d),
         right.reshape(d, d * d), squared.reshape(1, d * d)]))


def _separability_conditions(cd: CleftData, elem: BalancedTensorElement,
                             proj: Exact) -> CheckReport:
    """:func:`check_separable_extension` of ``elem``, reading the
    projections of :func:`_project_translates` of its lift."""
    cp = cd.cp
    d = cp.dim
    rb = ReportBuilder("separability conditions")
    coords = elem.coordinates.reshape(1, -1)
    rb.compare("lift_projects_to_coordinates", proj[:1], coords)
    rb.compare("two_sided_translation", proj[1:d + 1], proj[d + 1:2 * d + 1])
    collapsed = contract("ab,abc->c", elem.lift.reshape(d, d),
                         cp.algebra.mult)
    rb.compare("multiplication_collapse", collapsed.reshape(1, -1),
               cp.algebra.unit.reshape(1, -1))
    rb.compare("collapse_idempotent", proj[2 * d + 1:], coords)
    return rb.build()
