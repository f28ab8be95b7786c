"""Partial crossed products.

Inside the full tensor square A (x) H carrying the twisted product

    (a (x) h)(b (x) l) = a (h_1 . b) w(h_2, l_1) (x) h_3 l_2

the crossed product is the span of the elements a (h_1 . 1) (x) h_2.
This module builds that span, the structure constants of the product on
it, the natural right coaction of H, its coinvariants, the embedding of
the base algebra, and the canonical Galois-type map on the balanced
tensor square.  The two builders always check their input first, from
the verifier reports the action holds, and raise PreconditionError
when those fail.

Basis bookkeeping: the ambient space A (x) H is indexed row-major, so
the pair (i, p) sits at position i * dim(H) + p and a pure tensor is a
Kronecker product of coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import CheckReport, ReportBuilder
from .errors import ClosureViolation, CoinvariantsMismatch, PreconditionError
from .hopf import (AlgebraData, HopfAlgebraData, multiplicativity,
                   verify_algebra)
from .linalg import (Exact, QuotientSpace, SubspaceBasis, contract,
                     coords_or_raise, identity, is_zero, kernel, kron,
                     quotient, rank, restricted_product, span)
from .partial import GlobalTwistedAction, TwistedPartialAction


def ambient_product_tensor(hopf: HopfAlgebraData, alg: AlgebraData,
                           action: Exact, cocycle: Exact) -> Exact:
    """Structure tensor of the twisted product on all of A (x) H."""
    na, nh = alg.dim, hopf.dim
    t = contract("pabc,qde,ajx,ixy,bdz,yzw,cet->ipjqwt",
                 hopf.coalgebra.split3, hopf.comult, action, alg.mult,
                 cocycle, alg.mult, hopf.mult)
    n = na * nh
    return t.reshape(n, n, n)


@dataclass(frozen=True)
class CrossedProductAlgebra:
    """A crossed product presented on an echelon basis of its span.

    Attributes:
        hopf, base: the inputs.
        basis: the span of the generators inside A (x) H.
        algebra: structure constants of the product on that basis.
        iota: Exact matrix of the base-algebra embedding a |-> a (x) 1.
        coaction: Exact matrix of x |-> x_(0) (x) x_(1), shaped
            (dim, dim * dim H) with column index k * dim(H) + s.

    The check of the table, the coinvariants, the base image, the
    balanced tensor square and the canonical map are pure functions of
    these fields; the properties below compute each once and keep it.
    """

    hopf: HopfAlgebraData
    base: AlgebraData
    basis: SubspaceBasis
    algebra: AlgebraData
    iota: Exact
    coaction: Exact

    @property
    def fld(self):
        return self.algebra.fld

    @property
    def dim(self):
        return self.algebra.dim

    @cached_property
    def algebra_report(self) -> CheckReport:
        return verify_algebra(self.algebra)

    @cached_property
    def coinvariant_space(self) -> SubspaceBasis:
        """The x with coaction x (x) 1, in the crossed product's basis."""
        d, nh = self.dim, self.hopf.dim
        m = self.coaction.reshape(d, d, nh) - contract(
            "rk,s->rks", identity(self.fld, d), self.hopf.unit)
        return kernel(m.reshape(d, d * nh).transpose())

    @cached_property
    def base_space(self) -> SubspaceBasis:
        return span(self.iota, self.dim)

    @cached_property
    def balanced_square(self) -> QuotientSpace:
        return balanced_tensor_square(self)

    @cached_property
    def canonical(self) -> CanonicalMapResult:
        return canonical_map(self)


def _build(t: TwistedPartialAction | GlobalTwistedAction,
           cocycle: Exact) -> CrossedProductAlgebra:
    """The crossed product of the action t with its cocycle or twist."""
    hopf, alg = t.hopf, t.alg
    na, nh = alg.dim, hopf.dim
    n = na * nh
    gens = contract("jpt,px,ixm->ijmt", hopf.comult, t.unit_translates,
                    alg.mult).reshape(na * nh, n)
    basis = span(gens, n)
    d = basis.dim
    amb = ambient_product_tensor(hopf, alg, t.action, cocycle)

    table = restricted_product(
        basis, amb, ClosureViolation,
        "product of crossed basis elements {} and {} leaves the span")
    # a (x) 1 for each base basis element a, and their sum 1 (x) 1
    amb_iota = contract("ik,p->ikp", identity(alg.fld, na),
                        hopf.unit).reshape(na, n)
    unit_c = coords_or_raise(
        basis, contract("i,ij->j", alg.unit, amb_iota),
        ClosureViolation, "the unit of A (x) H is not inside the span")
    algebra = AlgebraData(table, unit_c)
    iota = coords_or_raise(basis, amb_iota, ClosureViolation,
                           "base element {} (x) 1 is not inside the span")

    # apply id (x) comult to each basis element, then express the first
    # two legs on the basis
    trip = contract("rmp,pts->rsmt", basis.rows.reshape(d, na, nh),
                    hopf.comult).reshape(d, nh, n)
    coaction = coords_or_raise(
        basis, trip, ClosureViolation,
        "coaction of basis element {} leaves the span")
    coaction = coaction.transpose(0, 2, 1).reshape(d, d * nh)

    return CrossedProductAlgebra(hopf, alg, basis, algebra, iota, coaction)


def build_partial_crossed(tpa: TwistedPartialAction) -> CrossedProductAlgebra:
    """Build the crossed product of a twisted partial action.  Raises
    PreconditionError unless the action's axioms and crossed-product
    conditions, the two reports it holds, both pass."""
    rep = tpa.axioms_report.merged(tpa.conditions_report)
    if not rep.passed:
        raise PreconditionError(
            "input fails the crossed product conditions: " + rep.summary())
    return _build(tpa, tpa.cocycle)


def build_global_crossed(g: GlobalTwistedAction) -> CrossedProductAlgebra:
    """Crossed product of a global twisted action.  Raises
    PreconditionError unless the axioms report it holds passes; then the
    span is all of B (x) H, so ``basis.rows`` is the identity."""
    if not g.axioms_report.passed:
        raise PreconditionError("input fails the global twisted action "
                                "axioms: " + g.axioms_report.summary())
    return _build(g, g.twist)


def verify_assoc_unital(cp: CrossedProductAlgebra) -> CheckReport:
    """Associativity and both unit laws of the crossed product table
    alone, with no embedding checks."""
    rb = ReportBuilder("crossed product table")
    rb.absorb(cp.algebra_report, "")
    return rb.build()


def verify_crossed(cp: CrossedProductAlgebra) -> CheckReport:
    """Associativity and unitality of the crossed product table, plus
    multiplicativity and unitality of the base embedding."""
    rb = ReportBuilder("crossed product")
    rb.absorb(cp.algebra_report, "")
    rb.compare("base_embedding_multiplicative",
               *multiplicativity(cp.iota, cp.base, cp.algebra))
    one = contract("i,ij->j", cp.base.unit, cp.iota)
    rb.compare("base_embedding_unital", one.reshape(1, -1),
               cp.algebra.unit.reshape(1, -1))
    rk = cp.base_space.dim
    rb.require("base_embedding_injective", rk == cp.base.dim,
               lhs=(rk,), rhs=(cp.base.dim,))
    return rb.build()


def verify_coaction(cp: CrossedProductAlgebra) -> CheckReport:
    """The comodule axioms for the coaction: counit law and
    coassociativity, plus multiplicativity (the product is a comodule
    algebra map) and unit colinearity."""
    rb = ReportBuilder("coaction")
    d, nh = cp.dim, cp.hopf.dim
    co = cp.coaction.reshape(d, d, nh)
    rb.compare("counit_law",
               contract("rks,s->rk", co, cp.hopf.counit),
               identity(cp.fld, d))
    lhs = contract("rks,stu->rktu", co, cp.hopf.comult).reshape(d, d * nh * nh)
    rhs = contract("rms,mkt->rkts", co, co).reshape(d, d * nh * nh)
    rb.compare("coassociativity", rhs, lhs)
    lhs = contract("xym,mks->xyks", cp.algebra.mult, co).reshape(d, d, d * nh)
    rhs = contract("xas,ybt,abk,stu->xyku", co, co, cp.algebra.mult,
                   cp.hopf.mult).reshape(d, d, d * nh)
    rb.compare("coaction_multiplicative", lhs, rhs)
    one = contract("i,ij->j", cp.algebra.unit, cp.coaction)
    rb.compare("unit_coinvariant", one.reshape(1, -1),
               kron(cp.algebra.unit, cp.hopf.unit).reshape(1, -1))
    return rb.build()


def verify_comodule(cp: CrossedProductAlgebra) -> CheckReport:
    """One report covering the comodule axioms of the coaction and
    whether its coinvariants are exactly the embedded base."""
    return verify_coaction(cp).merged(verify_coinvariants_are_base(cp))


def verify_coinvariants_are_base(cp: CrossedProductAlgebra) -> CheckReport:
    rb = ReportBuilder("coinvariants")
    coin, base = cp.coinvariant_space, cp.base_space
    rb.require("coinvariants_equal_base_image", coin == base,
               lhs=(coin.dim,), rhs=(base.dim,))
    if coin != base:
        rb.note("coinvariant subspace differs from the embedded base algebra")
    return rb.build()


def require_coinvariants_are_base(cp: CrossedProductAlgebra):
    """Raise CoinvariantsMismatch unless the coinvariants of the coaction
    are exactly the embedded base algebra."""
    coin, base = cp.coinvariant_space, cp.base_space
    if coin != base:
        raise CoinvariantsMismatch(
            f"coinvariants (dim {coin.dim}) differ from the embedded base "
            f"(dim {base.dim})")


# ---------------------------------------------------------------------------
# balanced tensor square and the canonical map


def balanced_tensor_square(cp: CrossedProductAlgebra) -> QuotientSpace:
    """The quotient of R (x) R by the base-balancing relations
    x iota(a) (x) y - x (x) iota(a) y over all basis triples."""
    d, na = cp.dim, cp.base.dim
    eye, mult = identity(cp.fld, d), cp.algebra.mult
    rels = (contract("ak,xkm,yn->xaymn", cp.iota, mult, eye)
            - contract("xm,ak,kyn->xaymn", eye, cp.iota, mult))
    return quotient(d * d, rels.reshape(d * na * d, d * d))


@dataclass(frozen=True)
class CanonicalMapResult:
    quotient_dim: int
    target_dim: int
    rank: int
    balanced: bool

    @property
    def injective(self):
        return self.rank == self.quotient_dim

    @property
    def surjective(self):
        return self.rank == self.target_dim

    @property
    def bijective(self):
        return self.injective and self.surjective


def canonical_map(cp: CrossedProductAlgebra) -> CanonicalMapResult:
    """The map x (x) y |-> x y_(0) (x) y_(1) from the balanced tensor
    square of the crossed product (``cp.balanced_square``) to
    (crossed product) (x) H.

    Returns the rank statistics of the induced map on the quotient.
    ``balanced`` records whether the ambient map killed every balancing
    relation, which the theory guarantees and the code re-checks.

    Raises CoinvariantsMismatch when the coinvariants of the coaction
    are not exactly the embedded base algebra, since the balanced tensor
    square is only the right source space in that case.
    """
    require_coinvariants_are_base(cp)
    d, nh = cp.dim, cp.hopf.dim
    co = cp.coaction.reshape(d, d, nh)
    camb = contract("yms,xmk->xyks", co,
                    cp.algebra.mult).reshape(d * d, d * nh)
    q = cp.balanced_square
    balanced = is_zero(contract("rx,xy->ry", q.relations.rows, camb))
    return CanonicalMapResult(
        quotient_dim=q.dim,
        target_dim=d * nh,
        rank=rank(contract("qx,xy->qy", q.section, camb)),
        balanced=bool(balanced),
    )
