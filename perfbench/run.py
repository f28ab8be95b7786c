"""hopfcross benchmark: time to an exact verdict, and whether it is right.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Run from the root of a source checkout.  The benchmark imports
hopfcross from ``src/`` and drives it only through ``hopfcross.cli.main``,
in process, one input at a time: a closed loop with one client and the
default ``--parallel 1``.  Inputs are written from ``--seed`` (see
``workloads.py``); each output is checked against its known answer.

A run repeats passes over the workload's inputs while the next pass is
expected to end within ``--seconds`` (the first pass always runs) and
reports medians over passes.  Each input has a cap enforced by a
signal timer; an input that reaches it is recorded as a timeout.
End-to-end times are seconds at nominal interpreter speed: the wall
time of the work, less the reference units that ``speed.Probe``
samples in the middle of it, scaled by the speed those samples show
(see ``speed.py``); set-up time is scaled by the speed of the passes.
The detail line keeps the wall times.  With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` one untraced pass is followed by traced passes and the
last line holds the per-layer metrics (spans go to ``perfbench/.work``).
The line before the last holds details: per-input seconds, wrong
verdicts, failures.  ``--out`` appends both, as one JSON line, to a
results file for ``compare.py``.

Exit code 0 after a completed run, 2 when the checkout holds no
hopfcross sources or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "hopfcross" / "data"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# No new input is started after this many seconds of measuring, so a
# run always ends well inside three minutes.
HARD_DEADLINE_S = 140.0
END_TO_END = {
    "pass_s": "s", "slowest_input_s": "s", "decided_share": "share",
    "peak_rss_mb": "MB", "setup_s": "s",
}
STAGE_MODULES = ("hopf", "partial", "crossed", "globalize", "morita",
                 "gauge", "separability")
# Entry points of each stage that the CLI reaches; inclusive seconds.
STAGE_FUNCTIONS = (
    "hopf.verify_algebra", "hopf.verify_hopf",
    "partial.verify_twisted_partial", "partial.verify_absorption",
    "partial.verify_crossed_conditions", "partial.verify_symmetric",
    "partial.verify_global",
    "crossed.build_partial_crossed", "crossed.build_global_crossed",
    "crossed.verify_assoc_unital", "crossed.verify_crossed",
    "crossed.verify_coaction", "crossed.canonical_map",
    "globalize.globalize_group_partial", "globalize.verify_enveloping",
    "globalize.verify_induced_matches", "partial.induce_partial",
    "morita.morita_context", "morita.build_M", "morita.build_N",
    "morita.verify_module_structures", "morita.verify_morita_pairings",
    "gauge.weak_conv_inverse", "gauge.gauge_transform",
    "gauge.verify_equisatisfiability",
    "separability.verify_partially_cleft",
)
PER_LAYER = {
    "einsum.self_s": "s", "einsum.calls": "count", "einsum.terms": "count",
    "linalg.self_s": "s", "linalg.rref.calls": "count",
    "linalg.rref.cells": "count", "linalg.rref.s": "s",
    "linalg.coords_in.calls": "count", "linalg.coords_in.s": "s",
    "linalg.coords_in.hit_ratio": "ratio",
    "crossed.builds_per_input": "count", "globalize.builds_per_input": "count",
    "partial.verify_twisted_partial.per_input": "count",
    "checks.self_s": "s", "checks.tuples": "count",
    "checks.violations": "count", "cli.emit_s": "s",
    "cli.self_s": "s", "specfile.self_s": "s", "specfile.bytes": "count",
    "fields.parse.calls": "count", "fields.format.calls": "count",
    **{f"{m}.{k}": u for m in STAGE_MODULES
       for k, u in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    **{f"{f}.s": "s" for f in STAGE_FUNCTIONS},
    "bench.self_s": "s", "trace.pass_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


class InputTimeout(BaseException):
    """Raised by the signal timer when an input reaches its cap; derives
    from BaseException so that no handler inside hopfcross catches it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


# ---------------------------------------------------------------------------
# set-up


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import hopfcross.cli; "
                 "print(time.perf_counter() - t)")


def _import_seconds():
    """Seconds to import hopfcross in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing hopfcross failed: {proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload, seed, workdir):
    """Import hopfcross and write the inputs SETUP_REPEATS times; return
    the median set-up seconds and the inputs of the last repetition."""
    totals = []
    for i in range(SETUP_REPEATS):
        t_import = _import_seconds()
        out = workdir / f"inputs{i}"
        start = time.perf_counter()
        inputs = workloads.make_inputs(workload, seed, DATA, out)
        totals.append(t_import + time.perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(out)
    return statistics.median(totals), inputs


# ---------------------------------------------------------------------------
# measurement


def run_input(cli, inp, cap_s):
    """Run one input under its cap.  Returns (status, seconds, detail):
    status is ok, wrong, timeout or crash."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, max(cap_s, 1e-3))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(inp.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InputTimeout:
        return "timeout", time.perf_counter() - start, f"cap {cap_s:.1f}s"
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return "crash", time.perf_counter() - start, traceback.format_exc(-3)
    seconds = time.perf_counter() - start
    bad = answers.mismatches(inp.expected, code, out.getvalue(), err.getvalue())
    return ("wrong" if bad else "ok"), seconds, (bad or out.getvalue())


class Pass:
    """One pass over the inputs.  Times are wall seconds less the
    reference units sampled meanwhile; ``refs`` holds the reference
    seconds and units of each input, ``ref_s`` and ``units`` those of
    the whole pass."""

    def __init__(self):
        self.seconds = 0.0
        self.ref_s = 0.0
        self.units = 0
        self.times = {}
        self.refs = {}
        self.status = Counter()
        self.problems = {}
        self.outputs = {}

    def nominal_pass_s(self):
        return speed.at_nominal(self.seconds, self.ref_s, self.units)

    def nominal_input_s(self, input_id):
        """An input's seconds at nominal speed, scaled by its own
        samples, or by the pass's when it ran too briefly to get any."""
        ref_s, units = self.refs[input_id]
        if units == 0:
            ref_s, units = self.ref_s, self.units
        return speed.at_nominal(self.times[input_id], ref_s, units)


def run_pass(cli, inputs, deadline, trace=None):
    """One pass under the speed probe.  When traced, each reference
    sample is a ``speed.reference`` span, so that no layer's self time
    holds reference work."""
    p = Pass()
    probe = speed.Probe(functools.partial(trace.external, "speed.reference")
                        if trace else None)
    start = time.perf_counter()
    ctx = trace.span("bench.pass") if trace else contextlib.nullcontext()
    with probe, ctx:
        for inp in inputs:
            ref0, units0 = probe.ref_s, probe.units
            left = deadline - time.perf_counter()
            if left <= 0:
                status, seconds, detail = "timeout", 0.0, "run deadline"
            elif trace:
                trace.input_id = inp.id
                with trace.span("bench.input"):
                    status, seconds, detail = run_input(cli, inp, min(inp.cap_s, left))
                trace.input_id = None
            else:
                status, seconds, detail = run_input(cli, inp, min(inp.cap_s, left))
            p.refs[inp.id] = (probe.ref_s - ref0, probe.units - units0)
            p.times[inp.id] = seconds - p.refs[inp.id][0]
            p.status[status] += 1
            if status == "ok":
                p.outputs[inp.id] = detail
            else:
                p.problems[inp.id] = [status, detail]
    p.ref_s, p.units = probe.ref_s, probe.units
    p.seconds = time.perf_counter() - start - p.ref_s
    return p


def _more(passes, began, seconds, deadline):
    """Start another pass only if it should end within the time budget,
    so that a run lasts at most ``--seconds`` plus set-up."""
    est = statistics.median(p.seconds + p.ref_s for p in passes)
    now = time.perf_counter()
    return now - began + est <= seconds and now + est < deadline


def _tally(passes):
    status = Counter()
    problems = {}
    for p in passes:
        status.update(p.status)
        problems.update(p.problems)
    attempted = sum(status.values())
    failed = status["wrong"] + status["timeout"] + status["crash"]
    return status, problems, attempted, failed


def end_to_end(passes, inputs, setup_s):
    """The end-to-end metrics.  Set-up runs mostly in child processes
    that the speed probe cannot sample, so its seconds are scaled by the
    speed of the run's passes."""
    largest = [i.id for i in inputs if i.largest]
    status, _, attempted, _ = _tally(passes)
    decided = status["ok"] + status["wrong"]
    ref_s, units = sum(p.ref_s for p in passes), sum(p.units for p in passes)
    return {
        "pass_s": statistics.median(p.nominal_pass_s() for p in passes),
        "slowest_input_s": statistics.median(
            p.nominal_input_s(i) for p in passes for i in largest),
        "decided_share": decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": speed.at_nominal(setup_s, ref_s, units),
    }


def layer_metrics(spans, counts, n_inputs, p):
    """Per-layer numbers of one traced pass ``p``.  Self times are wall
    seconds; ``trace.pass_s`` is at nominal speed, like ``pass_s``."""
    own = tracing.self_times(spans)
    self_s, calls, errors, incl = Counter(), Counter(), Counter(), Counter()
    for s, t in zip(spans, own):
        name = s[0]
        layer = name.split(".", 1)[0]
        self_s[layer] += t
        calls[name] += 1
        incl[name] += s[2] - s[1]
        if layer in STAGE_MODULES:
            calls[layer] += 1
            errors[layer] += not s[5]
    coords = calls["linalg.coords_in"]
    m = {
        "einsum.self_s": self_s["einsum"], "einsum.calls": calls["einsum"],
        "einsum.terms": counts["einsum.terms"],
        "linalg.self_s": self_s["linalg"],
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.cells": counts["linalg.rref.cells"],
        "linalg.rref.s": incl["linalg.rref"],
        "linalg.coords_in.calls": coords,
        "linalg.coords_in.s": incl["linalg.coords_in"],
        "linalg.coords_in.hit_ratio":
            counts["linalg.coords_in.hits"] / coords if coords else 0.0,
        "crossed.builds_per_input":
            (calls["crossed.build_partial_crossed"]
             + calls["crossed.build_global_crossed"]) / n_inputs,
        "globalize.builds_per_input":
            calls["globalize.globalize_group_partial"] / n_inputs,
        "partial.verify_twisted_partial.per_input":
            calls["partial.verify_twisted_partial"] / n_inputs,
        "checks.self_s": self_s["checks"],
        "checks.tuples": counts["checks.tuples"],
        "checks.violations": counts["checks.violations"],
        "cli.emit_s": incl["cli.emit"],
        "cli.self_s": self_s["cli"], "specfile.self_s": self_s["specfile"],
        "specfile.bytes": counts["specfile.bytes"],
        "fields.parse.calls": calls["fields.Field.parse"],
        "fields.format.calls": calls["fields.Field.format"],
        "bench.self_s": self_s["bench"],
        "trace.pass_s": p.nominal_pass_s(),
        "trace.accounted_share": (sum(own) - self_s["speed"]) / p.seconds,
    }
    for mod in STAGE_MODULES:
        m[f"{mod}.self_s"] = self_s[mod]
        m[f"{mod}.calls"] = calls[mod]
        m[f"{mod}.errors"] = errors[mod]
    for fn in STAGE_FUNCTIONS:
        m[f"{fn}.s"] = incl[fn]
    return m


def measure(workload, seed, seconds, trace, workdir):
    setup_s, inputs = set_up(workload, seed, workdir)
    sys.path.insert(0, str(SRC))
    import hopfcross.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "hopfcross").resolve():
        raise RuntimeError(f"imported hopfcross from {cli.__file__}")
    began = time.perf_counter()
    deadline = began + HARD_DEADLINE_S
    passes = [run_pass(cli, inputs, deadline)]
    detail = {}
    differs = set()     # inputs whose traced report differs from the untraced
    if not trace:
        while _more(passes, began, seconds, deadline):
            passes.append(run_pass(cli, inputs, deadline))
        metrics = end_to_end(passes, inputs, setup_s)
    else:
        untraced = passes[0]
        t = tracing.Tracer()
        t.install()
        layers, kept, dropped = [], [], 0
        try:
            while not layers or _more(passes, began, seconds, deadline):
                p = run_pass(cli, inputs, deadline, trace=t)
                spans, counts = t.take()
                dropped += counts["trace.dropped_spans"]
                layers.append(layer_metrics(spans, counts, len(inputs), p))
                differs.update(k for k, v in p.outputs.items()
                               if untraced.outputs.get(k, v) != v)
                passes.append(p)
                kept.extend(spans)
        finally:
            t.uninstall()
        WORK.mkdir(exist_ok=True)
        tracing.write_spans(kept, WORK / f"spans-{workload}-{seed}.jsonl")
        metrics = {k: statistics.median(l[k] for l in layers)
                   for k in layers[0]}
        metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                       - untraced.nominal_pass_s())
        detail["traced_output_differs"] = sorted(differs)
        detail["dropped_spans"] = dropped
    status, problems, attempted, failed = _tally(passes)
    wrong = status["wrong"] + len(differs)
    failed += len(differs)
    detail.update({
        "workload": workload, "seed": seed, "trace": trace,
        "setup_wall_s": setup_s,
        "passes": len(passes), "pass_wall_s": [p.seconds for p in passes],
        "reference_units": [p.units for p in passes],
        "mean_unit_s": [p.ref_s / p.units if p.units else None
                        for p in passes],
        "input_seconds": {i.id: [p.times[i.id] for p in passes] for i in inputs},
        "wrong_verdicts": wrong, "timeouts": status["timeout"],
        "crashes": status["crash"], "failed_share": failed / attempted,
        "problems": problems,
    })
    result = {
        "correct": wrong == 0 and status["crash"] == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="append the detail and result lines to this file")
    args = ap.parse_args(argv)
    if not (SRC / "hopfcross" / "cli.py").is_file():
        print(f"error: no hopfcross sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    try:
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [json.dumps(detail, sort_keys=True), json.dumps(result, sort_keys=True)]
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"detail": detail, "result": result},
                                sort_keys=True) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
