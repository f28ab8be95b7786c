"""Exact dense linear algebra over QQ or F_p.

Every tensor the engine reads, holds or hands out is an :class:`Exact`:
Python ints over one common denominator over QQ, residues over F_p, with
the field they lie over; scalars leave the engine only as the strings
of :func:`to_strings`.
Tensors are born as Exact: parsed files and the builders :func:`arr`
(from scalars), :func:`from_ratios`, :func:`zeros` and :func:`identity`,
the only ones told a field: everything else reads it from the Exact
tensors it is given.  Every tensor product in the package goes through
:func:`contract`, which takes the einsum subscripts and Exact operands
over one field, runs the contraction on their integers and returns an
Exact, reduced once, by the gcd of the scale and all entries over QQ or
mod p over F_p.  An operand that is not an Exact is a TypeError, and two
fields meeting is a FieldMismatchError, there and wherever tensors meet
(:func:`_field`: one pass per call).  What depends only on a tensor's
birth is done once, there: an Exact's integers are made read-only, and
its views share them.  What depends only on a contraction's (spec,
operand shapes) pair is done once per pair, in a fixed-size module cache
(see :func:`_plan`): the checks of the '->' output, the operand count
and each operand's axes, and the greedy path, whose pairwise steps
:func:`contract` runs itself, one plain ``np.einsum`` each.
Every verdict compares those integers (:func:`equal_entries`, and on it
:func:`eqarr`, :func:`is_zero`, ``ReportBuilder.compare`` and the
membership test of :func:`coords_in_many`): a passing verdict over one
denominator is one integer comparison per entry, and only a failing
one is located and formatted.  :func:`rref` eliminates on those
integers too, skipping every pivot step that would change nothing, and
:func:`span`, :func:`solve`, :func:`rank`, :func:`kernel` and
:func:`quotient` take and return Exact tensors through it.  Every subspace is represented by its reduced row echelon
basis, so equal subspaces have identical representations and all reports
built on top of them are reproducible byte for byte.
:func:`coords_in_many` expresses a whole stack of vectors, or one
vector, on such a basis with one contraction, and
:func:`coords_or_raise` raises the caller's error, naming the first
non-member, where every vector must be a member.

Conventions fixed here and used everywhere else:

* ``solve(m, b)`` solves ``m @ x = b`` (column convention, free variables
  pinned to zero -- the solver is deterministic); ``b`` may be a matrix
  whose columns are solved together, with one elimination.
* A linear map ``f`` with domain dimension ``d`` and codomain dimension
  ``c`` is stored as a ``(d, c)`` matrix applied on the right:
  ``f(v) = v @ mat`` (row convention).
* ``kron(v, w)`` indexes the tensor product row-major:
  ``(i, j) -> i * len(w) + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .fields import Field, FieldMismatchError

# Contraction order for every ``np.einsum`` in :func:`contract`: a greedy
# pairwise path with no cap on the size of intermediates.  numpy's
# default greedy setting refuses any pairwise step whose intermediate is
# larger than the largest operand and contracts the rest in one naive
# loop, one exact multiplication per term of the full index space; the
# exhaustive path search costs exponential time in the operand count.
# Only the association order changes, so results stay exact.
EINSUM_PATH = ("greedy", 2**62)


class Exact:
    """An immutable exact tensor over ``fld``: what :func:`contract`
    returns, and the stored form of every structure tensor.

    ``ints`` is a read-only object array of Python ints: over QQ the
    numerators over the one common denominator ``den``, over F_p the
    residues in 0..p-1 with ``den`` 1.  ``reshape``, ``transpose`` and
    indexing give views over the same ``den``, a 0-d Exact for an index
    that picks one entry; ``a - b`` is an Exact, and ``a == b`` is
    :func:`eqarr`.
    """

    __slots__ = ("fld", "ints", "den")

    def __init__(self, fld: Field, ints: np.ndarray, den: int = 1):
        ints = np.asarray(ints, dtype=object)     # a 0-d result is an int
        ints.setflags(write=False)
        self.fld, self.ints, self.den = fld, ints, den

    @property
    def shape(self) -> tuple:
        return self.ints.shape

    def _view(self, ints: np.ndarray):
        """Part of ``self.ints``, read-only even where numpy copied."""
        ints.setflags(write=False)
        view = object.__new__(Exact)
        view.fld, view.ints, view.den = self.fld, ints, self.den
        return view

    def reshape(self, *shape):
        return self._view(self.ints.reshape(*shape))

    def transpose(self, *axes):
        return self._view(self.ints.transpose(*axes))

    def __getitem__(self, index):
        ints = self.ints[index]
        if isinstance(ints, np.ndarray):
            return self._view(ints)
        return Exact(self.fld, ints, self.den)    # one entry: a 0-d Exact

    def __sub__(self, other):
        _field("a difference", (self, other))
        diff = np.asarray(self.ints * other.den - other.ints * self.den,
                          dtype=object)
        return _canonical(self.fld, diff, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, Exact):
            return NotImplemented
        return eqarr(self, other)


def _canonical(fld: Field, ints: np.ndarray, den: int) -> Exact:
    """``ints`` over ``den`` as a canonical Exact: over QQ divided by the
    gcd of ``den`` and all entries, over F_p (``den`` 1) the residues."""
    if fld.p is not None:
        return Exact(fld, ints % fld.p)
    g = math.gcd(den, *ints.flat)
    return Exact(fld, ints // g if g > 1 else ints, den // g)


def to_strings(t: Exact):
    """The canonical scalar strings of ``t`` (see ``Field.format``), as
    nested lists of its shape: one string for a 0-d tensor."""
    strings = [t.fld.format(n, t.den) for n in t.ints.reshape(-1)]
    return np.array(strings, dtype=object).reshape(t.shape).tolist()


def _field(what: str, tensors) -> Field:
    """The one field of the Exact ``tensors``, compared by identity and
    only then by value.  Raises TypeError, naming ``what``, on a tensor
    that is not an Exact, and FieldMismatchError when two fields meet."""
    fld, mixed = None, False
    for k, t in enumerate(tensors):
        if not isinstance(t, Exact):
            raise TypeError(f"{what}: operand {k} is a {type(t).__name__}, "
                            f"not an Exact")
        mixed |= fld is not None and t.fld is not fld and t.fld != fld
        fld = fld or t.fld
    if mixed:
        fields = sorted({repr(t.fld) for t in tensors})
        raise FieldMismatchError(f"{what} mixes {' and '.join(fields)}")
    return fld


def contract(spec: str, *operands):
    """Exact ``np.einsum(spec, *operands)`` over the operands' field.

    ``spec`` names every axis of every operand and the output explicitly
    (``"ij,jk->ik"``).  Every operand is an :class:`Exact`, all over one
    field.  The contraction runs on their integers (see the module
    docstring), one step of the greedy path ``EINSUM_PATH`` at a time.

    Returns an :class:`Exact` in canonical form (over QQ, ``den`` is the
    lcm of the entries' denominators), 0-d when the output has no axes.
    Raises ValueError when the operands do not match the spec, TypeError
    on an operand that is not an Exact and FieldMismatchError when two
    fields meet.
    """
    fld = getattr(operands[0] if operands else None, "fld", None)
    steps = _plan(spec, tuple([
        op.ints.shape
        if isinstance(op, Exact) and (op.fld is fld or op.fld == fld)
        else None for op in operands]))
    if steps is None:
        _field(f"contraction {spec!r}", operands)     # raises
    ints = [op.ints[..., None] for op in operands]
    for positions, subscripts in steps:
        ints.append(np.einsum(subscripts, *map(ints.pop, positions)))
    scale = math.prod([op.den for op in operands])
    return _canonical(fld, ints[0][..., 0], scale)


@lru_cache(maxsize=1024)
def _plan(spec: str, shapes: tuple):
    """The steps that contract integer operands of ``shapes``, each with
    one extra trailing axis of extent 1, along numpy's greedy path under
    ``EINSUM_PATH``, or None for a shape None: an operand that is not an
    Exact over the first one's field.  ValueError, never cached, when
    ``spec`` has no '->' output or names another number of operands, or
    (all shapes known) gives an operand another number of axes.

    A step (positions, subscripts) pops the operands at ``positions``,
    in that order, contracts them with one plain ``np.einsum`` and
    appends the result, which keeps the axes that a later operand or the
    output names.  The extra axis is never summed, so no step collapses
    to a bare Python int, which numpy would multiply as int64, with
    wraparound.
    """
    inputs, arrow, output = spec.partition("->")
    terms = inputs.split(",")
    if not arrow:
        raise ValueError(f"contraction spec {spec!r} has no '->' output")
    if len(terms) != len(shapes):
        raise ValueError(f"contraction spec {spec!r} names {len(terms)} "
                         f"operands, got {len(shapes)}")
    if None in shapes:
        return None
    for k, (term, shape) in enumerate(zip(terms, shapes)):
        if len(term) != len(shape):
            raise ValueError(f"contraction spec {spec!r} gives operand {k} "
                             f"{len(term)} axes, got shape {shape}")
    extra = next(ch for ch in ascii_letters if ch not in spec)
    terms, output = [t + extra for t in terms], output + extra
    shells = [np.broadcast_to(0, shape + (1,)) for shape in shapes]
    path, _ = np.einsum_path(",".join(terms) + "->" + output, *shells,
                             optimize=EINSUM_PATH)
    steps = []
    for step in path[1:]:
        positions = tuple(sorted(step, reverse=True))
        taken = [terms.pop(i) for i in positions]
        keep = set("".join(terms) + output)
        result = output if not terms else "".join(
            ch for ch in dict.fromkeys("".join(taken)) if ch in keep)
        steps.append((positions, ",".join(taken) + "->" + result))
        terms.append(result)
    return tuple(steps)


def from_ratios(fld: Field, ratios: list, shape: tuple) -> Exact:
    """The canonical Exact over ``fld`` of the scalars n / d, for the
    integer pairs (n, d) of ``ratios`` in row-major order of ``shape``:
    over QQ over the lcm of the d, over F_p (every d 1) the residues."""
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    return _canonical(fld, np.array(ints, dtype=object).reshape(shape), den)


def arr(fld: Field, nested) -> Exact:
    """The Exact over ``fld`` of (nested) scalars: ints or scalar strings
    (see ``Field.parse``)."""
    a = np.array(nested, dtype=object)
    return from_ratios(fld, list(map(fld.parse, a.reshape(-1))), a.shape)


def zeros(fld: Field, shape) -> Exact:
    return Exact(fld, np.zeros(shape, dtype=object))


def identity(fld: Field, n: int) -> Exact:
    return Exact(fld, np.eye(n, dtype=object))


def check_shape(name: str, a: Exact, shape: tuple):
    """Raise ValueError unless the tensor ``a`` has the given shape."""
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")


def check_tensors(obj, *held, **shapes):
    """Check that each named tensor field of ``obj`` is an :class:`Exact`
    of its shape, TypeError or ValueError naming the first that is not,
    and that these and the tensors ``held`` by its components lie over
    one field, FieldMismatchError naming the class otherwise."""
    for name, shape in shapes.items():
        _field(name, [getattr(obj, name)])
        check_shape(name, getattr(obj, name), shape)
    _field(type(obj).__name__, [*held, *(getattr(obj, n) for n in shapes)])


def equal_entries(a: Exact, b: Exact) -> np.ndarray:
    """Entrywise equality of two equally shaped Exact tensors as a bool
    array: on their integers when the two denominators are equal (always
    over F_p), else on the integers cross-multiplied by the other side's
    denominator.  FieldMismatchError unless both lie over one field."""
    _field("a comparison", (a, b))
    if a.den == b.den:
        return np.asarray(a.ints == b.ints)
    return np.asarray(a.ints * b.den == b.ints * a.den)


def eqarr(a: Exact, b: Exact) -> bool:
    """Exact equality of two Exact tensors: False when their shapes
    differ, FieldMismatchError when their fields do."""
    return a.shape == b.shape and bool(equal_entries(a, b).all())


def is_zero(a: Exact) -> bool:
    return not a.ints.any()


def concat(tensors: list) -> Exact:
    """Exact tensors over one field joined along their first axis, over
    their common denominator."""
    fld = _field("concat", tensors)
    den = math.lcm(*(t.den for t in tensors))
    return Exact(fld, np.concatenate(
        [t.ints * (den // t.den) for t in tensors]), den)


def rref(m: Exact):
    """Reduced row echelon form, eliminated on the integers of an Exact.

    The elimination is fraction-free, one vectorized step per pivot:
    every other row is scaled by the pivot and the matching multiple of
    the pivot row is subtracted; over F_p the rows are then reduced mod
    p, over QQ divided by their content (the gcd of their entries), so
    the entries stay small.  At the end each pivot row is divided by its
    pivot, over one common denominator over QQ.  A step that changes
    nothing is skipped: the swap of a pivot already in place, the
    elimination of a column no other row has an entry in, and the final
    scaling when every pivot is 1.

    Args:
        m: matrix, shape (r, c): an Exact.

    Returns:
        (R, pivots, rank) where R is the RREF as an Exact of m's shape,
        zero rows last, pivots the tuple of pivot column indices in
        increasing order, and rank == len(pivots).  Pivot entries are 1
        and are the only nonzero entries of their columns.
    """
    fld = _field("rref", [m])
    R = np.array(m.ints)
    pivots = []
    for col in range(R.shape[1]):
        row = len(pivots)
        nonzero = np.flatnonzero(R[:, col])
        below = nonzero[nonzero >= row]
        if not below.size:
            continue
        if below[0] != row:     # the pivot lies below: swap it up
            R[[row, below[0]]] = R[[below[0], row]]
        rows = nonzero[nonzero != below[0]]
        if rows.size:
            reduced = (R[rows] * R[row, col]
                       - np.multiply.outer(R[rows, col], R[row]))
            if fld.p is not None:
                R[rows] = reduced % fld.p
            else:
                content = np.gcd.reduce(reduced, axis=1)
                R[rows] = reduced // np.maximum(content, 1)[:, None]
        pivots.append(col)
    leads = [R[i, col] for i, col in enumerate(pivots)]
    if fld.p is not None:
        den, scale = 1, [pow(v, -1, fld.p) for v in leads]
    else:
        den = math.lcm(*map(abs, leads))
        scale = [den // v for v in leads]
    if any(v != 1 for v in scale):
        R[:len(pivots)] *= np.array(scale, dtype=object)[:, None]
    return _canonical(fld, R, den), tuple(pivots), len(pivots)


def rank(m: Exact) -> int:
    return rref(m)[2]


def solve(m: Exact, b: Exact):
    """Solve m @ x = b exactly, for ``b`` of shape (r,) or (r, k), by one
    :func:`rref` of the integers of [m | b] over their denominators.

    Returns the Exact solution with all free variables set to zero, of
    shape (c,) or (c, k), or None when any column of b is inconsistent.
    """
    fld = _field("solve", (m, b))
    r, c = m.shape
    if b.shape[:1] != (r,) or len(b.shape) > 2:
        raise ValueError(f"rhs shape {b.shape} does not match {r} rows")
    k = math.prod(b.shape[1:])
    R, pivots, rk = rref(Exact(fld, np.concatenate(
        [m.ints * b.den, b.ints.reshape(r, k) * m.den], axis=1)))
    if rk and pivots[-1] >= c:
        return None
    x = np.zeros((c, k), dtype=object)
    x[list(pivots)] = R.ints[:rk, c:]
    return _canonical(fld, x.reshape((c,) + b.shape[1:]), R.den)


def kernel(m: Exact) -> SubspaceBasis:
    """The right null space {x : m @ x = 0} of an (r, c) Exact, in its
    canonical echelon basis; its dimension may be zero."""
    c = m.shape[1]
    return span(_null_vectors(span(m, c))[1], c)


def _null_vectors(sub: SubspaceBasis):
    """The vectors x with sub.rows @ x = 0, one per non-pivot column f:
    1 at f and -rows[i, f] at the i-th pivot column.  Returns (the
    non-pivot columns, the vectors as the rows of a matrix)."""
    free = [j for j in range(sub.ambient_dim) if j not in sub.pivots]
    rows = sub.rows
    vecs = np.zeros((len(free), sub.ambient_dim), dtype=object)
    vecs[range(len(free)), free] = rows.den
    vecs[:, list(sub.pivots)] = -rows.ints[:, free].T
    return free, _canonical(rows.fld, vecs, rows.den)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of F^ambient_dim.

    Two subspaces are equal iff their ``rows`` matrices are identical.
    """

    rows: Exact               # (dim, ambient_dim), RREF, no zero rows
    pivots: tuple

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]


def span(vectors: Exact, ambient_dim: int) -> SubspaceBasis:
    """Canonical echelon basis of the span of the given row vectors.

    The result is independent of the order and scaling of the inputs.
    """
    if len(vectors.shape) != 2 or vectors.shape[1] != ambient_dim:
        raise ValueError(f"vectors of shape {vectors.shape} do not lie in "
                         f"a space of dimension {ambient_dim}")
    R, pivots, rk = rref(vectors)
    return SubspaceBasis(R[:rk], pivots)


def coords_in_many(sub: SubspaceBasis, vs: Exact):
    """Coordinates in the echelon basis of a stack of vectors.

    ``vs`` holds one vector of the ambient space on its last axis at each
    index of its leading axes.  Returns (coords, misses): ``coords`` is
    an Exact with the leading axes of ``vs`` and the entries at the pivot
    columns on the last axis, which are the coordinates of every member,
    and ``misses`` is the tuple of the leading indices of the
    non-members, in row-major order.  One contraction rebuilds every
    vector from its pivot entries; a vector is a member iff the rebuild
    equals it.
    """
    if vs.shape[-1:] != (sub.ambient_dim,):
        raise ValueError(f"vectors of shape {vs.shape} do not lie in a "
                         f"space of dimension {sub.ambient_dim}")
    lead = vs.shape[:-1]
    flat = vs.reshape(math.prod(lead), sub.ambient_dim)
    coords = flat[:, list(sub.pivots)]
    recon = contract("ki,ij->kj", coords, sub.rows)
    missed = np.flatnonzero(~equal_entries(recon, flat).all(axis=1))
    misses = (tuple(zip(*[i.tolist() for i in np.unravel_index(missed, lead)]))
              if lead else ((),) * missed.size)     # one vector: index ()
    return coords.reshape(lead + (sub.dim,)), misses


def coords_or_raise(sub: SubspaceBasis, vs: Exact, error, message: str):
    """The coordinates of :func:`coords_in_many`, or raise
    ``error(message.format(*index))`` for the index of the first
    non-member in row-major order (a single vector has the empty index)."""
    coords, misses = coords_in_many(sub, vs)
    if misses:
        raise error(message.format(*misses[0]))
    return coords


def restricted_product(sub: SubspaceBasis, mult, error, message: str):
    """Structure constants of the product ``mult`` of the ambient space
    restricted to ``sub``: the coordinates of the product of every two
    basis rows at [i, j], or raise as :func:`coords_or_raise` does for
    the first product outside ``sub``."""
    prods = contract("ia,jb,abc->ijc", sub.rows, sub.rows, mult)
    return coords_or_raise(sub, prods, error, message)


@dataclass(frozen=True)
class QuotientSpace:
    """F^ambient_dim modulo the span of the relation vectors.

    ``projection`` (ambient_dim x dim) and ``section`` (dim x ambient_dim)
    are row-convention Exact maps with projection . section = identity; the
    projection kills exactly the relations.  The section picks the
    complement spanned by the standard basis vectors at the non-pivot
    columns of the relation echelon form.
    """

    relations: SubspaceBasis
    projection: Exact
    section: Exact

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    def project(self, v) -> Exact:
        """The image of the vectors on the last axis of ``v``."""
        return _apply(v, self.projection)

    def lift(self, q) -> Exact:
        return _apply(q, self.section)


def _apply(v: Exact, mat: Exact) -> Exact:
    """``v @ mat`` by :func:`contract`, for ``v`` with any leading axes."""
    lead = ascii_letters[:len(v.shape) - 1]
    return contract(f"{lead}Y,YZ->{lead}Z", v, mat)


def quotient(ambient_dim: int, relations: Exact) -> QuotientSpace:
    """Build the quotient of F^ambient_dim by the span of ``relations``."""
    rel = span(relations, ambient_dim)
    free, null = _null_vectors(rel)
    return QuotientSpace(rel, null.transpose(),
                         identity(relations.fld, ambient_dim)[free])


def kron(v: Exact, w: Exact) -> Exact:
    """Tensor product of coordinate vectors, by :func:`contract`: index
    (i, j) -> i * len(w) + j."""
    return contract("i,j->ij", v, w).reshape(-1)
