"""The closed-form rungs are the partial actions that hopfcross itself
induces from the global translation action at the same points."""

import random

import numpy as np
import pytest

import workloads
from run import DATA
from hopfcross import Field, GlobalTwistedAction, group_algebra, induce_partial
from hopfcross.fixtures import product_field_algebra
from hopfcross.linalg import arr


def translation_action(fld, table):
    """g > delta_s = delta_{s g^-1} on k^G, with the trivial twist."""
    n = len(table)
    inv = [table[g].index(0) for g in range(n)]
    act = [[[int(t == table[s][inv[g]]) for t in range(n)] for s in range(n)]
           for g in range(n)]
    twist = [[[1] * n for _ in range(n)] for _ in range(n)]
    return GlobalTwistedAction(group_algebra(fld, table),
                               product_field_algebra(fld, n),
                               arr(fld, act), arr(fld, twist))


@pytest.mark.parametrize("group", sorted(workloads.GROUPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field_name", ["rational", f"prime:{workloads.PRIME}"])
def test_rung_equals_induced_partial_action(group, seed, field_name):
    fld = Field.from_name(field_name)
    r = workloads.make_rung(group, random.Random(seed), gauge=False)
    idem = [int(s in r.points) for s in range(r.n)]
    tpa = induce_partial(translation_action(fld, r.table), arr(fld, idem),
                         check=False).tpa
    assert np.array_equal(tpa.action, arr(fld, r.action))
    assert np.array_equal(tpa.cocycle, arr(fld, r.cocycle))
    assert np.array_equal(tpa.alg.unit, arr(fld, [1] * r.m))
    delta = [[[int(i == j == k) for k in range(r.m)] for j in range(r.m)]
             for i in range(r.m)]
    assert np.array_equal(tpa.alg.mult, arr(fld, delta))


def test_closed_form_dimensions_match_the_frozen_c3_example():
    # the bundled f_c3 example is C3 on two of its three points
    r = workloads.make_rung("C3", random.Random(0), gauge=False)
    assert r.crossed_dim() == 4
    ans = workloads.rung_report_answer(r)["stages"]
    assert ans["globalize"]["derived"] == {"ambient_dim": 6, "enveloping_dim": 3}
    assert ans["morita"]["derived"] == {"partial_dim": 4, "global_dim": 9}


def test_same_seed_same_files(tmp_path):
    for wl in workloads.WORKLOADS:
        a = workloads.make_inputs(wl, 7, DATA, tmp_path / "a" / wl)
        b = workloads.make_inputs(wl, 7, DATA, tmp_path / "b" / wl)
        assert [i.path.read_bytes() for i in a] == [i.path.read_bytes() for i in b]
        assert [i.expected for i in a] == [i.expected for i in b]


def test_gauge_scalars_come_from_the_pool():
    r = workloads.make_rung("C3", random.Random(3), gauge=True)
    assert r.gauge[0] == r.unit_translates[0]
    for g in range(1, r.n):
        scalars = {v for v, one in zip(r.gauge[g], r.unit_translates[g]) if one}
        assert len(scalars) == 1 and scalars <= set(workloads.GAUGE_POOL)

