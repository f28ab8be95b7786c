"""Morita context between a partial crossed product and the crossed
product of its enveloping action.

Write R for the partial crossed product and S for the global one.  The
embedding sends the class of a (x) h to theta(a) (x) h; its image is a
(non-unital in general) subalgebra of S.  The connecting bimodules live
inside S:

* M is the span of theta(a) (x) h, a right S-module and a left R-module
  through the embedding;
* N is the span of (h_1 > theta(a)) (x) h_2 with > the global action, a
  left S-module and a right R-module.

Both pairings are multiplication in S: one lands in S, the other must
land in the embedded copy of R.  Everything below is verified on basis
elements; surjectivity of the pairings is computed and reported but not
folded into pass/fail, since it genuinely fails on some inputs.

Six identities are associativity of S, (xy)z = x(yz), for x, y and z
running over the rows of three of the families M, N, phi(R) and S; each
is one comparison of the two sides that :func:`_associativity` builds.
Associativity of S on basis triples implies them, but costs about
(dim S)^4 exact entries whatever the bimodules, so it is not computed:
on a 2-core machine it took 8.8-10.8 s on a C6 rung and 11.0 s and 8.7 s
on the 2- and 4-dimensional k^{S3} corners, where the six took 8.2 s,
3.4 s and 19.4 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import CheckReport, ReportBuilder
from .crossed import CrossedProductAlgebra
from .globalize import EnvelopingAction
from .hopf import multiplicativity
from .linalg import (Exact, SubspaceBasis, concat, contract, coords_in_many,
                     coords_or_raise, identity, span, zeros)


def phi_embed(env: EnvelopingAction, r: CrossedProductAlgebra,
              s: CrossedProductAlgebra):
    """The algebra map from the partial crossed product ``r`` of
    ``env.source`` into the crossed product ``s`` of ``env.glob`` induced
    by the base embedding, as a matrix on the chosen bases.

    Returns (matrix, image, report): the image is the span of the
    matrix rows; the report checks multiplicativity, preservation of the
    unit, and injectivity.
    """
    nh = env.source.hopf.dim
    # the class of a (x) h goes to theta(a) (x) h
    images = contract("xah,ab->xbh", r.basis.rows.reshape(r.dim, -1, nh),
                      env.theta)
    phi, misses = coords_in_many(s.basis, images.reshape(r.dim, -1))
    rb = ReportBuilder("crossed product embedding")
    if misses:
        x, = misses[0]
        rb.require("lands_in_global_span", False, index=(x,))
        # only the rows before the first miss are kept
        tail = zeros(phi.fld, (phi.shape[0] - x, phi.shape[1]))
        phi = concat([phi[:x], tail])
        return phi, span(phi, s.basis.dim), rb.build()
    rb.require("lands_in_global_span", True)
    rb.compare("multiplicative",
               *multiplicativity(phi, r.algebra, s.algebra))
    # the embedding is not unital: the base unit goes to the corner
    # idempotent tensor the Hopf unit, a local unit on the image
    one = contract("i,ij->j", r.algebra.unit, phi).reshape(1, -1)
    rb.compare("unit_maps_to_idempotent", _prod(s, one, one)[0], one)
    rb.compare("unit_local_left", _prod(s, one, phi)[0], phi)
    rb.compare("unit_local_right", _prod(s, phi, one)[:, 0], phi)
    image = span(phi, s.basis.dim)
    rb.require("injective", image.dim == r.dim, lhs=(image.dim,),
               rhs=(r.dim,))
    return phi, image, rb.build()


def build_M(env: EnvelopingAction, s: CrossedProductAlgebra) -> SubspaceBasis:
    """The span of theta(a) (x) h inside the global crossed product s."""
    nh = env.source.hopf.dim
    amb_rows = contract("ab,hk->ahbk", env.theta, identity(s.fld, nh))
    amb_rows = amb_rows.reshape(-1, s.basis.ambient_dim)
    rows = coords_or_raise(s.basis, amb_rows, ValueError,
                           "generator of the first bimodule {} is outside "
                           "the crossed product span")
    return span(rows, s.dim)


def build_N(env: EnvelopingAction, s: CrossedProductAlgebra) -> SubspaceBasis:
    """The span of (h_1 > theta(a)) (x) h_2 inside the global crossed
    product s, with > the global action."""
    tpa = env.source
    nh, nb = tpa.hopf.dim, env.glob.alg.dim
    amb_rows = contract("iB,pqr,qBC->ipCr", env.theta, tpa.hopf.comult,
                        env.glob.action)
    amb_rows = amb_rows.reshape(tpa.alg.dim * nh, nb * nh)
    rows = coords_or_raise(s.basis, amb_rows, ValueError,
                           "generator of the second bimodule {} is outside "
                           "the crossed product span")
    return span(rows, s.dim)


@dataclass(frozen=True)
class MoritaContextData:
    """The two rings, the connecting matrix, and the two bimodules, all
    expressed on the basis of the global crossed product."""

    env: EnvelopingAction
    partial_cp: CrossedProductAlgebra
    global_cp: CrossedProductAlgebra
    phi: Exact                     # (dim R, dim S)
    phi_image: SubspaceBasis       # the span of the rows of phi
    phi_report: CheckReport
    bimodule_m: SubspaceBasis
    bimodule_n: SubspaceBasis

    @cached_property
    def pair_tables(self) -> tuple:
        """(rm, ms, nr, sn): the row products phi(R) M, M S, N phi(R) and
        S N at (left row, right row, :), which both verifiers read."""
        s, m, n = self.global_cp, self.bimodule_m.rows, self.bimodule_n.rows
        eye = identity(s.fld, s.dim)
        return (_prod(s, self.phi, m), _prod(s, m, eye),
                _prod(s, n, self.phi), _prod(s, eye, n))


def morita_context(env: EnvelopingAction, r: CrossedProductAlgebra,
                   s: CrossedProductAlgebra) -> MoritaContextData:
    """The context between the crossed product r of ``env.source`` and
    the crossed product s of ``env.glob``."""
    return MoritaContextData(env, r, s, *phi_embed(env, r, s),
                             build_M(env, s), build_N(env, s))


def _prod(s: CrossedProductAlgebra, a, b):
    """All pairwise products of the rows of a and b; the last axis is
    the output coordinate."""
    return contract("ai,bj,ijk->abk", a, b, s.algebra.mult)


def _associativity(s: CrossedProductAlgebra, xy, z, x, yz):
    """Both sides of (xy)z = x(yz) for every triple of rows of three
    families x, y and z, from the pair tables xy = _prod(s, x, y) and
    yz = _prod(s, y, z); indexed (x row, y row, z row, coordinate)."""
    mult = s.algebra.mult
    return (contract("abk,cj,kjm->abcm", xy, z, mult),
            contract("ai,bck,ikm->abcm", x, yz, mult))


def verify_module_structures(ctx: MoritaContextData) -> CheckReport:
    """Closure of each bimodule under both ring actions, the unit laws,
    and compatibility of the two actions on each bimodule."""
    rb = ReportBuilder("bimodule structures")
    rb.absorb(ctx.phi_report, "embedding.")
    s = ctx.global_cp
    m, n = ctx.bimodule_m, ctx.bimodule_n
    s_eye = identity(s.fld, s.dim)
    r_img = ctx.phi
    rm, ms, nr, sn = ctx.pair_tables
    for name, table, sub in [("m_closed_right_ring", ms, m),
                             ("m_closed_left_embedded", rm, m),
                             ("n_closed_left_ring", sn, n),
                             ("n_closed_right_embedded", nr, n)]:
        rb.require_inside(name, table, sub, "inside the bimodule")

    # each unit law sums a pair table against the unit of R or of S
    one_r, one_s = ctx.partial_cp.algebra.unit, s.algebra.unit
    for name, spec, one, table, sub in [
            ("m_unit_left_embedded", "x,xbk->bk", one_r, rm, m),
            ("m_unit_right_ring", "x,bxk->bk", one_s, ms, m),
            ("n_unit_left_ring", "x,xbk->bk", one_s, sn, n),
            ("n_unit_right_embedded", "x,bxk->bk", one_r, nr, n)]:
        rb.compare(name, contract(spec, one, table), sub.rows)

    rb.compare("m_actions_compatible",
               *_associativity(s, rm, s_eye, r_img, ms))
    rb.compare("n_actions_compatible",
               *_associativity(s, sn, r_img, s_eye, nr))
    return rb.build()


@dataclass(frozen=True)
class MoritaPairingResult:
    report: CheckReport
    sigma_rank: int
    tau_rank: int
    sigma_surjective: bool
    tau_surjective: bool


def verify_morita_pairings(ctx: MoritaContextData) -> MoritaPairingResult:
    """The two pairings of the context: n (x) m |-> nm into the global
    ring and m (x) n |-> mn into the embedded partial ring.

    Verifies balancedness over the respective rings, that the second
    pairing lands in the embedded copy, and the two mixed associativity
    laws.  Surjectivity of each pairing is computed from the rank of the
    span of basis products and reported without affecting pass/fail.
    """
    rb = ReportBuilder("context pairings")
    s = ctx.global_cp
    m, n = ctx.bimodule_m, ctx.bimodule_n
    phi_image = ctx.phi_image

    mn = _prod(s, m.rows, n.rows)
    nm = _prod(s, n.rows, m.rows)
    rb.require_inside("tau_lands_in_embedded", mn, phi_image,
                      "inside the embedded ring")

    rm, ms, nr, sn = ctx.pair_tables
    rb.compare("sigma_balanced_over_embedded",
               *_associativity(s, nr, m.rows, n.rows, rm))
    rb.compare("tau_balanced_over_ring",
               *_associativity(s, ms, n.rows, m.rows, sn))
    rb.compare("mixed_associativity_ring_side",
               *_associativity(s, nm, n.rows, n.rows, mn))
    rb.compare("mixed_associativity_embedded_side",
               *_associativity(s, mn, m.rows, m.rows, nm))

    sigma_rank = span(nm.reshape(-1, s.dim), s.dim).dim
    tau_rank = span(mn.reshape(-1, s.dim), s.dim).dim
    sigma_surj = sigma_rank == s.dim
    tau_surj = tau_rank == phi_image.dim
    rb.note(f"first pairing spans {sigma_rank} of {s.dim} ring dimensions"
            + (" (surjective)" if sigma_surj else " (not surjective)"))
    rb.note(f"second pairing spans {tau_rank} of {phi_image.dim} embedded "
            "dimensions" + (" (surjective)" if tau_surj else " (not surjective)"))
    return MoritaPairingResult(rb.build(), sigma_rank, tau_rank,
                               sigma_surj, tau_surj)
