"""Acceptance gate.

Seven criteria, each timed and each emitting one verdict line of the
form ``CRITERION n: PASS/FAIL - description`` before asserting.  All
expected values below were computed by independent brute-force oracles
and frozen; arithmetic is exact, so every comparison is equality with
zero tolerance.

Two criteria pin findings about the paper's constructions exactly.
Criterion 1 freezes the five single-entry mutants that no verifier
suite detects: each rewrites the cocycle entry w(g, g) of a pair
fixture, a free parameter, so each survivor is ``cocycle_pair(m)`` for
m in {0, 1, 2, 3}.  Symmetry splits them: the cocycle has a
convolution inverse for m = 1, 2, 3 and none for m = 0.  Criterion 4
pins the degenerate Morita context as strict: the swap globalization
has S = M_2(k), so sigma has rank 4 = dim S and tau rank 1 = dim R.
"""

import dataclasses
import random
import time

import numpy as np
import pytest

import reference

from hopfcross import (Field, HopfcrossError, NormalizationFailed,
                       build_global_crossed, build_partial_crossed,
                       canonical_map, convolution,
                       convolution_inverse, convolution_unit, default_cleft,
                       gauge_crossed_iso, gauge_transform, globalize_group_partial,
                       group_algebra, left_integrals, morita_context,
                       separability_idempotent,
                       verify_absorption, verify_assoc_unital,
                       verify_crossed_conditions, verify_enveloping,
                       verify_equisatisfiability, verify_gauge_composition,
                       verify_induced_matches, verify_module_structures,
                       verify_morita_pairings, verify_symmetric,
                       verify_twisted_partial, weak_conv_inverse)
from hopfcross.fixtures import (c3_gauge, c3_partial, cocycle_pair,
                                degenerate_swap, group_tables_up_to_6,
                                pair_gauge, trivial_partial)
from hopfcross.linalg import arr, eqarr, rank, to_strings, zeros

QQ = Field.rationals()
TIME_LIMIT = 10.0
# (fixture, tensor, index, old value, new value) of the single-entry
# mutants that no verifier suite detects: the w(g, g) entry of the pair
# fixtures takes any scalar
FREE_PARAMETER_SURVIVORS = [
    ("pair(1)", "cocycle", (1, 1, 0), "1", "0"),
    ("pair(1)", "cocycle", (1, 1, 0), "1", "2"),
    ("pair(2)", "cocycle", (1, 1, 0), "2", "0"),
    ("pair(2)", "cocycle", (1, 1, 0), "2", "1"),
    ("pair(2)", "cocycle", (1, 1, 0), "2", "3"),
]


def _verdict(capfd, n, ok, desc):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    # bypass capture so the verdict reaches the terminal even on a pass
    with capfd.disabled():
        print(line, flush=True)


def _fixtures():
    return {
        "c3": c3_partial(),
        "pair(1)": cocycle_pair(1),
        "pair(2)": cocycle_pair(2),
        "swap": degenerate_swap(),
        "point": trivial_partial(),
    }


def _nonzero(rng, fld):
    """A random nonzero scalar of ``fld``: a scalar string over QQ, a
    residue over F_p."""
    if fld.characteristic == 0:
        num = rng.choice([n for n in range(-9, 10) if n])
        return f"{num}/{rng.randint(1, 9)}"
    return rng.randint(1, fld.characteristic - 1)


def test_criterion_1_axioms_and_mutation_coverage(capfd):
    t0 = time.perf_counter()
    fixtures = _fixtures()
    for name, tpa in fixtures.items():
        for fn in (verify_twisted_partial, verify_absorption,
                   verify_crossed_conditions):
            rep = fn(tpa)
            assert rep.passed, f"{name}: {rep.summary()}"

    # cheapest verifier first; a mutant counts as detected as soon as any
    # identity in any of the three suites flips, or construction blows up
    def detected(tpa):
        try:
            for fn in (verify_absorption, verify_crossed_conditions,
                       verify_twisted_partial):
                if not fn(tpa).passed:
                    return True
        except HopfcrossError:
            return True
        return False

    survivors = []
    kept = []
    total = 0
    for name, tpa in fixtures.items():
        fld = tpa.alg.fld
        for attr in ("action", "cocycle"):
            tensor = getattr(tpa, attr)
            for idx in np.ndindex(tensor.shape):
                # 0, 1 and v + 1 for the entry v, over its denominator
                v, den = tensor.ints[idx], tensor.den
                for m in (0, den, v + den):
                    if m == v:
                        continue
                    total += 1
                    mut = reference.strings(tensor)
                    mut[idx] = fld.format(m, den)
                    mutant = dataclasses.replace(tpa,
                                                 **{attr: arr(fld, mut)})
                    if not detected(mutant):
                        survivors.append((name, attr, idx,
                                          fld.format(v, den), mut[idx]))
                        kept.append((mutant, mut[idx]))
    # The survivors are the rewrites of w(g, g) in the pair fixtures.
    # Normalization fixes every other cocycle entry of C2 acting trivially
    # on k, and the axioms hold for any scalar at (g, g), zero included
    # (the crossed product k[x]/(x^2)).  So each survivor is the pair
    # fixture at its new parameter, and symmetry tells them apart: the
    # cocycle is convolution-invertible exactly when the parameter is
    # nonzero.
    is_pair = [eqarr(mutant.cocycle, cocycle_pair(m, mutant.alg.fld).cocycle)
               for mutant, m in kept]
    symmetric = [(m, verify_symmetric(mutant)) for mutant, m in kept]
    split = [res.report.passed if m != "0" else
             res.inverse is None
             and not res.report.identity_passed("inverse_exists")
             for m, res in symmetric]
    elapsed = time.perf_counter() - t0
    ok = (total == 101 and survivors == FREE_PARAMETER_SURVIVORS
          and all(is_pair) and all(split))
    _verdict(capfd, 1, ok, "axiom suites pass on all five fixtures, every "
             "single-entry mutation of the action or cocycle is detected "
             "except the five rewrites of the free parameter w(g, g), and "
             "symmetry holds for those exactly when the parameter is nonzero")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert total == 101
    assert survivors == FREE_PARAMETER_SURVIVORS, (
        f"{len(survivors)} of {total} mutants survive all three verifier "
        f"suites: {survivors}")
    assert all(is_pair), is_pair
    for (m, res), good in zip(symmetric, split):
        assert good, f"w(g, g) = {m}: {res.report.summary()}"


def test_criterion_2_crossed_product_dimensions(capfd):
    t0 = time.perf_counter()
    expected = {"c3": 4, "pair(1)": 2, "pair(2)": 2, "swap": 1, "point": 1}
    dims = {}
    for name, tpa in _fixtures().items():
        cp = build_partial_crossed(tpa)
        dims[name] = cp.dim
        rep = verify_assoc_unital(cp)
        assert rep.passed, f"{name}: {rep.summary()}"
    elapsed = time.perf_counter() - t0
    ok = dims == expected
    _verdict(capfd, 2, ok, "crossed products have dimensions 4, 2, 2, 1, 1 and "
             "every product is associative and unital")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert dims == expected


def test_criterion_3_globalization_round_trip(capfd):
    t0 = time.perf_counter()
    env = globalize_group_partial(c3_partial())
    env_rep = verify_enveloping(env)
    ind_rep = verify_induced_matches(env)
    elapsed = time.perf_counter() - t0
    ok = (env.glob.alg.dim == 3 and env_rep.passed and ind_rep.passed)
    _verdict(capfd, 3, ok, "the enveloping algebra for the c3 fixture has "
             "dimension 3 and the induced structure constants equal the "
             "original ones exactly")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert env.glob.alg.dim == 3
    assert env_rep.passed, env_rep.summary()
    assert ind_rep.passed, ind_rep.summary()
    # the round trip is exact, not merely isomorphic
    assert ind_rep.identity_passed("induced_action_matches")
    assert ind_rep.identity_passed("induced_cocycle_matches")
    assert ind_rep.identity_passed("corner_dimension_matches")


def _context(env):
    return morita_context(env, build_partial_crossed(env.source),
                          build_global_crossed(env.glob))


def test_criterion_4_morita_contexts(capfd):
    t0 = time.perf_counter()
    ctx = _context(globalize_group_partial(c3_partial()))
    mod_rep = verify_module_structures(ctx)
    pairings = verify_morita_pairings(ctx)
    dctx = _context(globalize_group_partial(degenerate_swap()))
    dmod_rep = verify_module_structures(dctx)
    dpairings = verify_morita_pairings(dctx)
    elapsed = time.perf_counter() - t0
    ok = (rank(ctx.phi) == 4 and ctx.phi_report.passed
          and mod_rep.passed and pairings.report.passed
          and pairings.sigma_surjective and pairings.tau_surjective
          and dctx.phi_report.passed and dmod_rep.passed
          and dpairings.report.passed
          and (dctx.global_cp.dim, dctx.partial_cp.dim) == (4, 1)
          and (dpairings.sigma_rank, dpairings.tau_rank) == (4, 1)
          and dpairings.sigma_surjective and dpairings.tau_surjective)
    _verdict(capfd, 4, ok, "Morita data verifies on both globalizations and the "
             "degenerate context is strict: sigma has rank 4 = dim S and tau "
             "rank 1 = dim R")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert rank(ctx.phi) == 4
    assert ctx.phi_report.passed, ctx.phi_report.summary()
    assert mod_rep.passed, mod_rep.summary()
    assert pairings.report.passed, pairings.report.summary()
    assert pairings.sigma_surjective and pairings.tau_surjective
    assert dctx.phi_report.passed and dmod_rep.passed
    assert dpairings.report.passed, dpairings.report.summary()
    # degenerate_swap globalizes to the swap action of C2 on k x k, so
    # S = (k x k) # kC2 is M_2(k), a simple algebra: the image of sigma is
    # a nonzero two-sided ideal of S, hence all of S
    assert (dctx.global_cp.dim, dctx.partial_cp.dim) == (4, 1)
    assert (dpairings.sigma_rank, dpairings.tau_rank) == (4, 1)
    assert dpairings.sigma_surjective and dpairings.tau_surjective


def test_criterion_5_gauge_suite(capfd):
    t0 = time.perf_counter()
    tpa = cocycle_pair(2)
    outer = weak_conv_inverse(pair_gauge(3), tpa)
    assert outer is not None
    gauged = gauge_transform(outer, tpa)
    weight = to_strings(gauged.cocycle[1, 1, 0])
    _, iso_rep = gauge_crossed_iso(outer, build_partial_crossed(tpa),
                                   build_partial_crossed(gauged))
    inner = weak_conv_inverse(pair_gauge(2), tpa)
    assert inner is not None
    comp_rep = verify_gauge_composition(outer, inner, tpa)
    composite = gauge_transform(outer, gauge_transform(inner, tpa))
    composite_weight = to_strings(composite.cocycle[1, 1, 0])

    fields = [QQ, Field.prime(3), Field.prime(5), Field.prime(7)]
    rng = random.Random(20260825)
    agreed = 0
    for i in range(56):
        fld = fields[i % 4]
        sample = cocycle_pair(_nonzero(rng, fld), fld)
        pair = weak_conv_inverse(pair_gauge(_nonzero(rng, fld), fld), sample)
        assert pair is not None
        if verify_equisatisfiability(
                sample, gauge_transform(pair, sample)).passed:
            agreed += 1
    for i in range(20):
        # breaking normalization must break it on both sides of the gauge
        fld = fields[i % 4]
        sample = cocycle_pair(_nonzero(rng, fld), fld)
        coc = sample.cocycle
        bump = np.zeros(coc.shape, dtype=object)
        bump[0, 1, 0] = _nonzero(rng, fld)
        # coc + bump, as Exact tensors subtract
        coc = coc - (zeros(fld, coc.shape) - arr(fld, bump))
        bad = dataclasses.replace(sample, cocycle=coc)
        assert not verify_crossed_conditions(bad).passed
        pair = weak_conv_inverse(pair_gauge(_nonzero(rng, fld), fld), bad)
        assert pair is not None
        if verify_equisatisfiability(
                bad, gauge_transform(pair, bad)).passed:
            agreed += 1
    for i in range(16):
        fld = fields[i % 4]
        sample = degenerate_swap(fld)
        pair = weak_conv_inverse(sample.unit_translates, sample)
        assert pair is not None
        if verify_equisatisfiability(
                sample, gauge_transform(pair, sample)).passed:
            agreed += 1
    for i in range(8):
        sample = c3_partial()
        pair = weak_conv_inverse(
            c3_gauge(_nonzero(rng, QQ), _nonzero(rng, QQ)), sample)
        assert pair is not None
        if verify_equisatisfiability(
                sample, gauge_transform(pair, sample)).passed:
            agreed += 1
    elapsed = time.perf_counter() - t0
    ok = (weight == "18" and iso_rep.passed and comp_rep.passed
          and composite_weight == "72" and agreed == 100)
    _verdict(capfd, 5, ok, "gauged cocycle weights are 18 and 72, the crossed "
             "product isomorphism verifies, and 100 randomized "
             "equisatisfiability verdict pairs agree")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert weight == "18"
    assert iso_rep.passed, iso_rep.summary()
    assert iso_rep.identity_passed("multiplicative")
    assert iso_rep.identity_passed("unital")
    assert iso_rep.identity_passed("bijective")
    assert comp_rep.passed, comp_rep.summary()
    assert composite_weight == "72"
    assert agreed == 100


def test_criterion_6_separability(capfd):
    t0 = time.perf_counter()
    tpa = cocycle_pair(1)
    cp = build_partial_crossed(tpa)
    cd = default_cleft(tpa, cp)
    t = arr(QQ, [1, 1])
    c = arr(QQ, ["1/2"])
    elem, rep, _ = separability_idempotent(cd, t, c)
    res = canonical_map(cp)
    fld2 = Field.prime(2)
    tpa2 = cocycle_pair(1, fld2)
    cd2 = default_cleft(tpa2, build_partial_crossed(tpa2))
    t2 = arr(fld2, [1, 1])
    c2 = arr(fld2, [1])
    with pytest.raises(NormalizationFailed):
        separability_idempotent(cd2, t2, c2)
    elapsed = time.perf_counter() - t0

    half, zero = "1/2", 0
    coords_expected = arr(QQ, [half, zero, zero, half])
    lift_expected = arr(QQ, [half, zero, zero, half])
    ok = (eqarr(elem.coordinates.reshape(-1), coords_expected)
          and eqarr(elem.lift.reshape(-1), lift_expected)
          and rep.passed
          and (res.quotient_dim, res.target_dim, res.rank) == (4, 4, 4)
          and res.bijective)
    _verdict(capfd, 6, ok, "the separability element has coordinates "
             "(1/2, 0, 0, 1/2), collapses to the unit, the canonical map "
             "is a bijective 4x4 matrix, and characteristic 2 fails "
             "normalization")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert eqarr(elem.coordinates.reshape(-1), coords_expected)
    assert eqarr(elem.lift.reshape(-1), lift_expected)
    assert rep.passed, rep.summary()
    for name in ("normalization", "two_sided_translation",
                 "multiplication_collapse", "collapse_idempotent",
                 "canonical_map_bijective", "lift_projects_to_coordinates"):
        assert rep.identity_passed(name), name
    assert (res.quotient_dim, res.target_dim, res.rank) == (4, 4, 4)
    assert res.bijective


def test_criterion_7_integrals_and_convolution_inverses(capfd):
    t0 = time.perf_counter()
    for gname, table in group_tables_up_to_6().items():
        h = group_algebra(QQ, table)
        ints = left_integrals(h)
        ones = arr(QQ, [[1] * h.dim])
        assert ints.dim == 1 and eqarr(ints.rows, ones), gname

    rng = random.Random(1888)
    fixtures = list(_fixtures().values())
    round_trips = 0
    for i in range(100):
        tpa = fixtures[i % len(fixtures)]
        h, a = tpa.hopf, tpa.alg
        fld = a.fld
        inv = None
        for _ in range(1000):
            f = arr(fld, [[rng.randint(-4, 4) for _ in range(a.dim)]
                          for _ in range(h.dim)])
            inv = convolution_inverse(f, h.coalgebra, a)
            if inv is not None:
                break
        assert inv is not None, "no invertible map found in 1000 draws"
        unit = convolution_unit(h.coalgebra, a)
        left = convolution(f, inv, h.coalgebra, a)
        right = convolution(inv, f, h.coalgebra, a)
        back = convolution_inverse(inv, h.coalgebra, a)
        if (eqarr(left, unit) and eqarr(right, unit)
                and back is not None and eqarr(back, f)):
            round_trips += 1
    elapsed = time.perf_counter() - t0
    ok = round_trips == 100
    _verdict(capfd, 7, ok, "left integrals of every group algebra of order at "
             "most 6 are spanned by the sum of the group elements and 100 "
             "random convolution inverses round-trip exactly")
    assert elapsed < TIME_LIMIT, f"took {elapsed:.1f}s"
    assert round_trips == 100
