"""Finite-dimensional algebras, coalgebras and Hopf algebras by structure
constants, plus the convolution machinery built on them.

Conventions:

* ``mult[i, j, k]`` is the coefficient of basis vector ``e_k`` in
  ``e_i * e_j``; ``unit`` is the coordinate vector of 1.
* ``comult[i, j, k]`` is the coefficient of ``e_j (x) e_k`` in the
  coproduct of ``e_i``; ``counit`` is a plain vector of scalars.
* The antipode and every other linear map are row-convention matrices:
  the image of ``e_i`` is row ``i``.  A map C -> A in the convolution
  algebra Hom(C, A) is a plain ``(dim C, dim A)`` matrix.
* The data classes hold these structure tensors as
  :class:`~hopfcross.linalg.Exact`, read the field and the dimension
  from them, and check the shape of each and that all share one field.
  Every contraction returns an Exact too, so every map built here and
  every table the verifiers compare is an Exact tensor, compared on
  integers.  A coalgebra also holds the two objects derived from it
  that the other modules read, its double coproduct and its tensor
  square, each computed once on first use.

Nothing here assumes the axioms hold: the ``verify_*`` functions check
them instance by instance and report every failing basis tuple.

Two identities the other modules check are owned here, each as a pair
of tables for one ``ReportBuilder.compare``: :func:`centrality` of a map
in Hom(C, A), and :func:`multiplicativity` of a linear map between
algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from string import ascii_letters

import numpy as np

from .checks import CheckReport, ReportBuilder
from .errors import NonGroupTable
from .fields import Field
from .linalg import (Exact, SubspaceBasis, arr, check_shape, check_tensors,
                     concat, contract, eqarr, identity, kernel, kron,
                     solve, zeros)


def _side(t) -> int:
    """The first extent of a structure tensor, 0 when it has none."""
    return (getattr(t, "shape", ()) or (0,))[0]


@dataclass(frozen=True)
class AlgebraData:
    mult: Exact               # (dim, dim, dim)
    unit: Exact               # (dim,)
    labels: tuple = None

    def __post_init__(self):
        n = _side(self.mult)
        check_tensors(self, mult=(n,) * 3, unit=(n,))

    @property
    def fld(self) -> Field:
        return self.mult.fld

    @property
    def dim(self) -> int:
        return self.mult.shape[0]

    def mul(self, x, y):
        return contract("i,j,ijk->k", x, y, self.mult)


@dataclass(frozen=True)
class CoalgebraData:
    comult: Exact             # (dim, dim, dim)
    counit: Exact             # (dim,)

    def __post_init__(self):
        n = _side(self.comult)
        check_tensors(self, comult=(n,) * 3, counit=(n,))

    @property
    def fld(self) -> Field:
        return self.comult.fld

    @property
    def dim(self) -> int:
        return self.comult.shape[0]

    @cached_property
    def split3(self) -> Exact:
        """The double coproduct, :func:`split` with three output legs."""
        return split(self, 3)

    @cached_property
    def tensor_square(self) -> CoalgebraData:
        """The coalgebra C (x) C with the leg-swapped coproduct
        (id (x) tau (x) id)(comult (x) comult) and product counit."""
        n = self.dim
        comult2 = contract("iab,jcd->ijacbd", self.comult,
                           self.comult).reshape(n * n, n * n, n * n)
        counit2 = kron(self.counit, self.counit)
        return CoalgebraData(comult2, counit2)


@dataclass(frozen=True)
class HopfAlgebraData:
    algebra: AlgebraData
    coalgebra: CoalgebraData
    antipode: Exact           # (dim, dim), row convention

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise ValueError(f"algebra of dimension {self.algebra.dim} and "
                             f"coalgebra of dimension {self.coalgebra.dim}")
        check_tensors(self, self.mult, self.comult, antipode=(self.dim,) * 2)

    @property
    def fld(self):
        return self.algebra.fld

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def counit(self):
        return self.coalgebra.counit


# ---------------------------------------------------------------------------
# axiom verifiers


def verify_algebra(a: AlgebraData) -> CheckReport:
    """Associativity and two-sided unit on every basis tuple."""
    rb = ReportBuilder("algebra")
    lhs = contract("ijm,mkl->ijkl", a.mult, a.mult)
    rhs = contract("jkm,iml->ijkl", a.mult, a.mult)
    rb.compare("associativity", lhs, rhs)
    eye = identity(a.fld, a.dim)
    rb.compare("unit_left",
               contract("i,ijk->jk", a.unit, a.mult), eye)
    rb.compare("unit_right",
               contract("j,ijk->ik", a.unit, a.mult), eye)
    return rb.build()


def verify_coalgebra(c: CoalgebraData) -> CheckReport:
    """Coassociativity and the two counit laws on every basis tuple."""
    rb = ReportBuilder("coalgebra")
    lhs = contract("ijz,jxy->ixyz", c.comult, c.comult)
    rhs = contract("ixk,kyz->ixyz", c.comult, c.comult)
    rb.compare("coassociativity", lhs, rhs)
    eye = identity(c.fld, c.dim)
    rb.compare("counit_left",
               contract("ijk,j->ik", c.comult, c.counit), eye)
    rb.compare("counit_right",
               contract("ijk,k->ij", c.comult, c.counit), eye)
    return rb.build()


def verify_hopf(h: HopfAlgebraData) -> CheckReport:
    """Full Hopf check: algebra, coalgebra, bialgebra compatibility,
    antipode identities.  Sub-report names are prefixed accordingly."""
    rb = ReportBuilder("hopf")
    rb.absorb(verify_algebra(h.algebra), "algebra.")
    rb.absorb(verify_coalgebra(h.coalgebra), "coalgebra.")
    n = h.dim
    lhs = contract("ijm,mab->ijab", h.mult, h.comult).reshape(n, n, n * n)
    rhs = contract("ipq,jrs,pra,qsb->ijab", h.comult, h.comult, h.mult,
                   h.mult).reshape(n, n, n * n)
    rb.compare("comult_multiplicative", lhs, rhs)
    rb.compare("comult_unital",
               contract("i,ijk->jk", h.unit, h.comult).reshape(n * n),
               kron(h.unit, h.unit))
    rb.compare("counit_multiplicative",
               contract("ijm,m->ij", h.mult, h.counit),
               h.coalgebra.tensor_square.counit.reshape(n, n))
    rb.compare("counit_unital",
               contract("i,i->", h.unit, h.counit).reshape(1),
               identity(h.fld, 1)[0])
    target = contract("i,l->il", h.counit, h.unit)
    rb.compare("antipode_left",
               contract("ijk,jm,mkl->il", h.comult, h.antipode, h.mult),
               target)
    rb.compare("antipode_right",
               contract("ijk,km,jml->il", h.comult, h.antipode, h.mult),
               target)
    return rb.build()


def is_cocommutative(c: CoalgebraData) -> bool:
    return eqarr(c.comult, c.comult.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# Sweedler splitting


def split(c: CoalgebraData, n: int) -> Exact:
    """Iterated coproduct as a tensor with ``n`` output legs.

    ``split(c, n)[i, a1, ..., an]`` is the coefficient of
    ``e_a1 (x) ... (x) e_an`` in the (n-1)-fold coproduct of ``e_i``.
    ``n = 1`` gives the identity.  Coassociativity (verified elsewhere)
    makes the splitting order irrelevant; we always split the last leg.
    """
    if n < 1:
        raise ValueError(f"split needs at least one output leg, got {n}")
    s = identity(c.fld, c.dim)
    for k in range(1, n):
        keep, last, new = (ascii_letters[:k], ascii_letters[k],
                           ascii_letters[k + 1:k + 3])
        s = contract(f"{keep}{last},{last}{new}->{keep}{new}", s, c.comult)
    return s


# ---------------------------------------------------------------------------
# convolution algebra Hom(C, A)


def convolution(f, g, c: CoalgebraData, a: AlgebraData) -> Exact:
    """(f * g)(x) = f(x_(1)) g(x_(2)) for (dim C, dim A) matrices f, g."""
    check_shape("f", f, (c.dim, a.dim))
    check_shape("g", g, (c.dim, a.dim))
    return contract("ijk,ja,kb,abm->im", c.comult, f, g, a.mult)


def convolution_unit(c: CoalgebraData, a: AlgebraData) -> Exact:
    return contract("i,m->im", c.counit, a.unit)


def convolution_algebra(c: CoalgebraData, a: AlgebraData) -> AlgebraData:
    """The convolution algebra Hom(C, A) of :func:`convolution` on the
    basis delta_s (x) a_i, the map e_s |-> a_i, at index s * a.dim + i;
    its unit is counit (x) 1.  On a group-like coalgebra this is the
    pointwise algebra of A-valued functions on the basis."""
    d = c.dim * a.dim
    mult = contract("ust,ijk->sitjuk", c.comult, a.mult).reshape(d, d, d)
    unit = kron(c.counit, a.unit)
    return AlgebraData(mult, unit)


def inverse_equations(f, e, c: CoalgebraData, a: AlgebraData):
    """The linear system (rows, rhs) over the flattened entries of u for
    an inverse of f in the ideal of Hom(C, A) with local unit e:
    f * u = u * f = e and u = e * u = u * e.

    The row blocks are [L_f, R_f, I - L_e, I - R_e] with L_g u = g * u
    and R_g u = u * g, and the right-hand side is [e, e, 0, 0].  With e
    the convolution unit the last two blocks vanish whenever the counit
    law of C and the unit law of A hold.
    """
    n = c.dim * a.dim

    def left(g):
        return contract("xpk,py,ybm->xmkb", c.comult, g, a.mult).reshape(n, n)

    def right(g):
        return contract("xkr,rz,bzm->xmkb", c.comult, g, a.mult).reshape(n, n)

    eye = identity(a.fld, n)
    rows = concat([left(f), right(f), eye - left(e), eye - right(e)])
    rhs = concat([e.reshape(n), e.reshape(n), zeros(a.fld, (2 * n,))])
    return rows, rhs


def convolution_inverse(f, c: CoalgebraData, a: AlgebraData):
    """Two-sided convolution inverse of f, or None if it does not exist.

    Solves f*g = g*f = counit.unit over the matrix entries of g; the
    deterministic solver makes the result canonical.
    """
    x = solve(*inverse_equations(f, convolution_unit(c, a), c, a))
    return None if x is None else x.reshape(c.dim, a.dim)


def centrality(f, c: CoalgebraData, a: AlgebraData):
    """Both sides of centrality of f in Hom(C, A), stacked over the
    spanning maps E_(i,j): e_i |-> a_j (zero elsewhere), which suffice
    because centrality is linear in the other factor.

    Returns two (dim C, dim A, dim C, dim A) Exact tables: f * E_(i,j)
    and E_(i,j) * f at [i, j].  Compared as a report, each violation is
    indexed (i, j, x): the spanning map and the C-basis element where
    the two sides differ.
    """
    shape = (c.dim, a.dim)
    # E_(i,j) at k = i * dim A + j
    maps = identity(a.fld, c.dim * a.dim).reshape((-1,) + shape)
    lhs = concat([convolution(f, e, c, a) for e in maps])
    rhs = concat([convolution(e, f, c, a) for e in maps])
    return lhs.reshape(shape * 2), rhs.reshape(shape * 2)


def multiplicativity(f, src: AlgebraData, dst: AlgebraData):
    """Both sides of multiplicativity of the linear map f: src -> dst,
    a (dim src, dim dst) matrix: f(x y) and f(x) f(y) at [x, y]."""
    lhs = contract("xym,ms->xys", src.mult, f)
    rhs = contract("xs,yt,stu->xyu", f, f, dst.mult)
    return lhs, rhs


# ---------------------------------------------------------------------------
# integrals and stock constructions


def left_integrals(h: HopfAlgebraData) -> SubspaceBasis:
    """The space of left integrals {t : x t = counit(x) t for all x}."""
    n = h.dim
    eye = identity(h.fld, n)
    m = (h.mult.transpose(0, 2, 1)
         - contract("i,jk->ikj", h.counit, eye))
    return kernel(m.reshape(n * n, n))


def group_algebra(fld: Field, table, labels=None) -> HopfAlgebraData:
    """The Hopf algebra of a finite group given by its index table.

    Args:
        table: table[i][j] = index of the product of elements i and j;
            the inverses are read from it.

    Raises NonGroupTable unless the table is a genuine group: closed,
    associative, with two-sided identity and inverses.
    """
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise NonGroupTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise NonGroupTable(f"table[{i}][{j}] = {v!r} is not an index")
    for i, j, k in iproduct(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise NonGroupTable(f"associativity fails at ({i}, {j}, {k})")
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise NonGroupTable("no two-sided identity element")
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == ident and table[j][i] == ident:
                inv[i] = j
                break
        if inv[i] is None:
            raise NonGroupTable(f"element {i} has no inverse")

    # 0/1 tables: rows of the identity, and g |-> g (x) g
    eye = identity(fld, n)
    comult = arr(fld, [[[int(i == j == k) for k in range(n)]
                        for j in range(n)] for i in range(n)])
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    return HopfAlgebraData(
        AlgebraData(eye[np.array(table)], eye[ident], tuple(labels)),
        CoalgebraData(comult, arr(fld, [1] * n)),
        eye[inv],
    )


def dual_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """The dual Hopf algebra on the dual basis.

    Multiplication of functionals transposes the coproduct and vice
    versa; the antipode transposes.  Duality swaps commutative and
    cocommutative, which is how a non-cocommutative sample (functions on
    a nonabelian group) is produced from a group algebra.
    """
    mult = h.comult.transpose(1, 2, 0)
    comult = h.mult.transpose(2, 0, 1)
    return HopfAlgebraData(
        AlgebraData(mult, h.counit, h.labels),
        CoalgebraData(comult, h.unit),
        h.antipode.transpose(),
    )
