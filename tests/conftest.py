import numpy as np
import pytest

from hopfcross.crossed import build_partial_crossed
from hopfcross.fields import Field
from hopfcross.fixtures import c3_partial, sym3_table
from hopfcross.globalize import globalize_group_partial
from hopfcross.hopf import dual_hopf, group_algebra
from hopfcross.linalg import arr, contract
from hopfcross.partial import GlobalTwistedAction, induce_partial


@pytest.fixture(scope="session")
def qq():
    return Field.rationals()


@pytest.fixture()
def c3():
    return c3_partial()


@pytest.fixture()
def c3_crossed(c3):
    return build_partial_crossed(c3)


# built once: globalization plus its verification inputs are immutable
@pytest.fixture(scope="session")
def c3_env():
    return globalize_group_partial(c3_partial())


# central idempotents of QS3 on the basis of sym3_table (0-2 even):
# e_triv + e_sign, of corner dimension 2, and its complement, the
# 4-dimensional matrix block
KS3_CORNERS = {2: ["1/3", "1/3", "1/3", 0, 0, 0],
               4: ["2/3", "-1/3", "-1/3", 0, 0, 0]}


@pytest.fixture(scope="session", params=sorted(KS3_CORNERS),
                ids=lambda d: f"corner{d}")
def ks3_partial(request):
    """A partial action of the dual k^{S3} of the group algebra, a
    non-cocommutative Hopf algebra.  k^{S3} acts globally on QS3 by the
    grading delta_g > h = [g = h] h with the trivial twist; the partial
    action is its restriction to a corner."""
    qq = Field.rationals()
    ks3 = group_algebra(qq, sym3_table())
    action = np.zeros((6, 6, 6), dtype=object)
    action[range(6), range(6), range(6)] = 1
    unit = ks3.unit         # also the counit of the dual
    twist = contract("p,q,c->pqc", unit, unit, unit)
    glob = GlobalTwistedAction(dual_hopf(ks3), ks3.algebra, arr(qq, action),
                               twist)
    return induce_partial(glob, arr(qq, KS3_CORNERS[request.param])).tpa


@pytest.fixture(scope="session")
def ks3_corner(ks3_partial):
    """The enveloping action of :func:`ks3_partial`."""
    return globalize_group_partial(ks3_partial)
