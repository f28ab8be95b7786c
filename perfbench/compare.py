"""Summarise or compare benchmark results files.

    python3 perfbench/compare.py RESULTS.jsonl             # spread per metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl   # diff per metric

A results file holds the lines that ``run.py --out`` appends, one per
run.  Runs are grouped per workload and per mode (end-to-end or traced).

With one file, each metric shows its median, quartiles and spread: the
distance between the first and third quartile as a share of the median.
An end-to-end metric is steady when its spread is below a third of the
bound that BENCHMARK.json fixes for it (set-up time is exempt).

With two files, each metric shows both medians and the change as a
share of the base median, signed so that a positive share is a
worsening.  An end-to-end metric is

* ``worse`` when it worsened by more than its bound;
* ``unresolved`` when the spread of either side is wider than the
  bound, unless every run of the change reads better, or every run
  reads worse, than every run of the base;
* ``better`` when it improved by more than the base's own spread;
* ``same`` otherwise.

Per-layer metrics have no bound and are listed for reading only.  The
exit code is 1 when some metric is worse or some run was not correct.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, mode): {"metrics": {name: [values]}, "runs": [...]}}"""
    groups = defaultdict(lambda: {"metrics": defaultdict(list), "runs": []})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            d, r = rec["detail"], rec["result"]
            g = groups[(d["workload"], "traced" if d["trace"] else "end_to_end")]
            g["runs"].append(r)
            for name, m in r["metrics"].items():
                g["metrics"][name].append(m["value"])
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _correct_line(name, runs):
    bad = sum(not r["correct"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return (f"  {name}: {len(runs)} runs, {bad} not correct, "
            f"{failed}/{attempted} inputs failed")


def summarize(groups, spec):
    ok = True
    for (workload, mode), g in sorted(groups.items()):
        print(f"{workload} [{mode}]")
        print(_correct_line("runs", g["runs"]))
        ok &= all(r["correct"] for r in g["runs"])
        for name, values in sorted(g["metrics"].items()):
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            note = ""
            if mode == "end_to_end" and name in spec:
                bound = spec[name]["bound"]
                steady = name == "setup_s" or s < bound / 3
                note = f"bound {bound:.3f} {'steady' if steady else 'NOT STEADY'}"
            print(f"  {name:44s} n={len(values):2d} median={q2:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={s:.4f} {note}")
    return ok


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    mb, mc = statistics.median(base), statistics.median(change)
    worse_by = sign * (mc - mb) / mb if mb else 0.0
    better_all = all(sign * (c - b) < 0 for c in change for b in base)
    worse_all = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not (better_all or worse_all):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    q1, _, q3 = quartiles(base)
    if -worse_by * mb > (q3 - q1) and worse_by < 0:
        return worse_by, "better"
    return worse_by, "same"


def diff(base, change, spec):
    ok = True
    for key in sorted(set(base) | set(change)):
        workload, mode = key
        print(f"{workload} [{mode}]")
        if key not in base or key not in change:
            print("  only in one file")
            continue
        b, c = base[key], change[key]
        print(_correct_line("base", b["runs"]))
        print(_correct_line("change", c["runs"]))
        ok &= all(r["correct"] for r in c["runs"])
        for name in sorted(set(b["metrics"]) & set(c["metrics"])):
            vb, vc = b["metrics"][name], c["metrics"][name]
            mb, mc = statistics.median(vb), statistics.median(vc)
            if mode == "end_to_end" and name in spec:
                m = spec[name]
                share, word = verdict(vb, vc, m["bound"], m["better"] == "lower")
                ok &= word != "worse"
                print(f"  {name:44s} base={mb:.6g} change={mc:.6g} "
                      f"worse_by={share:+.4f} bound={m['bound']:.3f} {word}")
            else:
                print(f"  {name:44s} base={mb:.6g} change={mc:.6g}")
    return ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = {m["name"]: m
            for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    groups = [load(p) for p in argv]
    ok = summarize(groups[0], spec) if len(groups) == 1 else diff(*groups, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
