"""Concrete instances used by the test suite and the bundled sample
files: group tables up to order six, a three-element cyclic partial
action on a pair of orthogonal idempotents, a one-dimensional twisted
action with a free cocycle parameter, and a degenerate action whose
cyclic generator kills everything.

All numeric entries here were computed by hand from the defining
formulas; the tests freeze them as expected values.
"""

from __future__ import annotations

from .fields import Field
from .hopf import AlgebraData, HopfAlgebraData, group_algebra
from .linalg import Exact, arr
from .partial import TwistedPartialAction


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def sym3_table():
    """S3 with elements 0=id, 1=(123), 2=(132), 3=(12), 4=(13), 5=(23),
    composing left to right on points."""
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),
        (1, 0, 2), (2, 1, 0), (0, 2, 1),
    ]
    def compose(p, q):
        return tuple(q[p[i]] for i in range(3))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[compose(p, q)] for q in perms] for p in perms]


def group_tables_up_to_6():
    """Every group of order at most six, as index tables."""
    return {
        "C1": cyclic_table(1),
        "C2": cyclic_table(2),
        "C3": cyclic_table(3),
        "C4": cyclic_table(4),
        "V4": klein_table(),
        "C5": cyclic_table(5),
        "C6": cyclic_table(6),
        "S3": sym3_table(),
    }


def trivial_hopf(fld: Field | None = None) -> HopfAlgebraData:
    fld = fld or Field.rationals()
    return group_algebra(fld, cyclic_table(1), labels=("1",))


def trivial_partial(fld: Field | None = None) -> TwistedPartialAction:
    """One-dimensional Hopf algebra acting on the base field; everything
    degenerates to scalar multiplication."""
    fld = fld or Field.rationals()
    h = trivial_hopf(fld)
    a = product_field_algebra(fld, 1, labels=("1",))
    action = arr(fld, [[[1]]])
    cocycle = arr(fld, [[[1]]])
    return TwistedPartialAction(h, a, action, cocycle)


def product_field_algebra(fld: Field, n: int, labels=None) -> AlgebraData:
    """The split commutative algebra of n orthogonal idempotents."""
    mult = arr(fld, [[[int(i == j == k) for k in range(n)] for j in range(n)]
                     for i in range(n)])
    unit = arr(fld, [1] * n)
    return AlgebraData(mult, unit, tuple(labels) if labels else None)


def c3_partial(fld: Field | None = None) -> TwistedPartialAction:
    """Cyclic group of order three acting partially on two orthogonal
    idempotents u1, u2: the generator g sends u1 to u2 and kills u2,
    its square does the opposite.  The cocycle is the trivial one
    w(h, l) = h . (l . 1), written out explicitly.
    """
    fld = fld or Field.rationals()
    h = group_algebra(fld, cyclic_table(3), labels=("1", "g", "g2"))
    a = product_field_algebra(fld, 2, labels=("u1", "u2"))
    action = arr(fld, [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
    ])
    cocycle = arr(fld, [
        [[1, 1], [0, 1], [1, 0]],
        [[0, 1], [0, 0], [0, 1]],
        [[1, 0], [1, 0], [0, 0]],
    ])
    return TwistedPartialAction(h, a, action, cocycle)


def cocycle_pair(lam, fld: Field | None = None) -> TwistedPartialAction:
    """Order-two group acting trivially on the base field, with the
    two-cocycle sending (g, g) to the parameter and everything else to
    one.  Every nonzero parameter gives a valid twisted action; the
    crossed product is the quadratic algebra x^2 = parameter.  Parameter
    zero also passes ``verify_twisted_partial``, ``verify_absorption``
    and ``verify_crossed_conditions`` (its crossed product k[x]/(x^2) is
    associative and unital), but it is not symmetric:
    ``verify_symmetric`` finds no convolution inverse of the cocycle.
    """
    fld = fld or Field.rationals()
    h = group_algebra(fld, cyclic_table(2), labels=("1", "g"))
    a = product_field_algebra(fld, 1, labels=("1",))
    action = arr(fld, [[[1]], [[1]]])
    cocycle = arr(fld, [[[1], [1]], [[1], [lam]]])
    return TwistedPartialAction(h, a, action, cocycle)


def degenerate_swap(fld: Field | None = None) -> TwistedPartialAction:
    """Order-two group acting on the base field with the generator
    acting as zero.  Globalizes to the swap action on two copies of the
    field; the partial crossed product is one-dimensional.
    """
    fld = fld or Field.rationals()
    h = group_algebra(fld, cyclic_table(2), labels=("1", "g"))
    a = product_field_algebra(fld, 1, labels=("1",))
    action = arr(fld, [[[1]], [[0]]])
    cocycle = arr(fld, [[[1], [0]], [[0], [0]]])
    return TwistedPartialAction(h, a, action, cocycle)


def c3_gauge(alpha, beta, fld: Field | None = None) -> Exact:
    """A gauge transformation for the cyclic fixture: scales the two
    one-dimensional value ideals by nonzero parameters."""
    return arr(fld or Field.rationals(), [[1, 1], [0, alpha], [beta, 0]])


def pair_gauge(mu, fld: Field | None = None) -> Exact:
    """A gauge transformation for the one-dimensional cocycle fixture:
    sends the group generator to a nonzero scalar."""
    return arr(fld or Field.rationals(), [[1], [mu]])
