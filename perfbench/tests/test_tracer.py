"""Tracing observes without changing: identical reports, every call
site rebound, originals restored, self times that add up."""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import hopfcross.cli as cli
import hopfcross.crossed as crossed
import hopfcross.linalg as linalg
import run
import tracer
import workloads


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    ladder = workloads.make_inputs("ladder-qq", 3, run.DATA, out / "ladder")
    mutants = workloads.make_inputs("mutants-fp", 3, run.DATA, out / "m")
    return [i for i in ladder if i.id.startswith("C2")] + [
        i for i in workloads.make_inputs("bundled", 0, run.DATA, out / "b")
        if i.id.startswith(("f_coc_2", "f_coc_1", "degenerate_swap"))] + [
        i for i in mutants if i.id == "C3:action_unit"]


def outputs(inputs):
    got = []
    for inp in inputs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                code = cli.main(list(inp.argv))
            except SystemExit as exc:
                code = exc.code
        got.append((code, buf.getvalue()))
    return got


def test_traced_and_untraced_reports_are_identical(small_inputs):
    plain = outputs(small_inputs)
    t = tracer.Tracer()
    t.install()
    try:
        traced = outputs(small_inputs)
    finally:
        t.uninstall()
    assert traced == plain
    assert any(s[0].startswith("einsum") for s in t.spans)
    # scalar arithmetic is not a layer: no span per field operation
    assert not any(s[0].startswith("fields.Fp") for s in t.spans)


def test_span_cap_drops_spans_but_not_calls(small_inputs, monkeypatch):
    monkeypatch.setattr(tracer, "MAX_SPANS", 50)
    plain = outputs(small_inputs[:1])
    t = tracer.Tracer()
    t.install()
    try:
        traced = outputs(small_inputs[:1])
    finally:
        t.uninstall()
    assert traced == plain
    assert len(t.spans) == 50 and t.counts["trace.dropped_spans"] > 0


def test_imported_names_and_dispatch_table_are_rebound_and_restored():
    originals = (linalg.rref, crossed.span, cli._DISPATCH["verify"],
                 cli.verify_hopf, np.einsum, cli.json)
    t = tracer.Tracer()
    t.install()
    try:
        assert crossed.span is linalg.span            # both rebound
        assert crossed.span.__wrapped__ is originals[1]
        assert cli._DISPATCH["verify"].__wrapped__ is originals[2]
        assert cli.verify_hopf.__wrapped__ is originals[3]
        assert np.einsum.__wrapped__ is originals[4]
    finally:
        t.uninstall()
    assert (linalg.rref, crossed.span, cli._DISPATCH["verify"],
            cli.verify_hopf, np.einsum, cli.json) == originals


def test_layer_self_times_account_for_the_traced_pass(small_inputs):
    t = tracer.Tracer()
    t.install()
    try:
        p = run.run_pass(cli, small_inputs, deadline=float("inf"), trace=t)
    finally:
        t.uninstall()
    spans, counts = t.take()
    m = run.layer_metrics(spans, counts, len(small_inputs), p)
    assert set(m) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert 0.99 < m["trace.accounted_share"] <= 1.0 + 1e-9
    assert m["einsum.calls"] > 0 and m["einsum.terms"] > 0
    assert m["specfile.bytes"] > 0 and m["fields.parse.calls"] > 0
    assert m["globalize.errors"] > 0        # f_coc_2 is refused
    assert m["checks.violations"] > 0       # the mutant is red
    own = tracer.self_times(spans)
    assert min(own) > -1e-6
    assert all(s[4] is not None for s in spans
               if s[0] not in ("bench.pass", "speed.reference"))


def test_reference_samples_come_out_of_the_open_span():
    t = tracer.Tracer()
    with t.span("bench.pass"):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.01:
            pass
        t.external("speed.reference", start, time.perf_counter())
    spans, _ = t.take()
    assert [s[0] for s in spans] == ["bench.pass", "speed.reference"]
    assert spans[1][3] == 0
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(
        (spans[0][2] - spans[0][1]) - (spans[1][2] - spans[1][1]))
    assert own[0] < 0.01 <= own[1]


def test_einsum_terms_is_the_product_of_index_extents():
    a, b = np.zeros((2, 3)), np.zeros((3, 5))
    assert tracer._einsum_terms(("ij,jk->ik", a, b)) == 30
    assert tracer._einsum_terms(("i,i", a[0], a[0])) == 3
