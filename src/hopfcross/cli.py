"""Command-line front end.

Each command reads a definition file, dispatches to the owning module,
and emits one report.  JSON reports are fully deterministic (sorted
keys, no timing data) so identical inputs give byte-identical output;
the text format adds a wall-time line at the end.

Exit codes: 0 when every requested check passed, 1 when some check or
domain precondition failed, 2 for unusable input (parse errors, missing
sections, bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .crossed import (build_partial_crossed, canonical_map, comodule_coaction,
                      verify_assoc_unital, verify_crossed)
from .errors import HopfcrossError, SpecFileError
from .fields import Field
from .gauge import (gauge_transform, gauge_crossed_iso, verify_equisatisfiability,
                    weak_conv_inverse)
from .globalize import (globalize_group_partial, verify_enveloping,
                        verify_induced_matches)
from .hopf import verify_algebra, verify_hopf
from .morita import morita_context, verify_module_structures, verify_morita_pairings
from .partial import (verify_absorption, verify_crossed_conditions,
                      verify_symmetric, verify_twisted_partial)
from .separability import (CleftData, check_separable_extension, default_cleft,
                           separability_idempotent, verify_partially_cleft)
from .specfile import _emit, load_spec

COMMANDS = ("verify", "build-crossed", "globalize", "morita", "gauge",
            "separability", "report")


def _assemble(fld, command, reports, derived, errors):
    checks = [r.to_dict(fld) for r in reports]
    passed = all(c["passed"] for c in checks) and not errors
    return {
        "command": command,
        "field": fld.name,
        "checks": checks,
        "derived": derived,
        "errors": errors,
        "passed": passed,
    }


def _cmd_verify(spec):
    tpa = spec.partial_action()
    reports = [
        verify_hopf(tpa.hopf),
        verify_algebra(tpa.alg),
        verify_twisted_partial(tpa),
        verify_absorption(tpa),
        verify_crossed_conditions(tpa),
    ]
    ci = verify_symmetric(tpa)
    reports.append(ci.report)
    derived = {
        "hopf_dim": tpa.hopf.dim,
        "base_dim": tpa.alg.dim,
        "cocycle_inverse_exists": ci.exists,
    }
    return _assemble(spec.fld, "verify", reports, derived, [])


def _cmd_build_crossed(spec):
    tpa = spec.partial_action()
    cp = build_partial_crossed(tpa)
    reports = [
        verify_assoc_unital(cp),
        verify_crossed(cp),
        comodule_coaction(cp)[2],
    ]
    errors = []
    derived = {
        "dim": cp.dim,
        "basis": _emit(spec.fld, cp.basis.rows),
        "multiplication": _emit(spec.fld, cp.algebra.mult),
        "unit": _emit(spec.fld, cp.algebra.unit),
    }
    try:
        res, _, _ = canonical_map(cp)
        derived["canonical_map"] = {
            "quotient_dim": res.quotient_dim,
            "target_dim": res.target_dim,
            "rank": res.rank,
            "injective": res.injective,
            "surjective": res.surjective,
            "bijective": res.bijective,
        }
    except HopfcrossError as exc:
        errors.append({"stage": "canonical_map",
                       "error": type(exc).__name__, "message": str(exc)})
    return _assemble(spec.fld, "build-crossed", reports, derived, errors)


def _cmd_globalize(spec):
    tpa = spec.partial_action()
    env = globalize_group_partial(tpa, check=False)
    reports = [verify_enveloping(env), verify_induced_matches(env)]
    derived = {
        "ambient_dim": env.ambient.dim,
        "enveloping_dim": env.glob.alg.dim,
    }
    return _assemble(spec.fld, "globalize", reports, derived, [])


def _cmd_morita(spec):
    tpa = spec.partial_action()
    env = globalize_group_partial(tpa, check=False)
    ctx = morita_context(env)
    reports = [verify_module_structures(ctx)]
    pr = verify_morita_pairings(ctx)
    reports.append(pr.report)
    derived = {
        "partial_dim": ctx.partial_cp.dim,
        "global_dim": ctx.global_cp.dim,
        "first_bimodule_dim": ctx.bimodule_m.dim,
        "second_bimodule_dim": ctx.bimodule_n.dim,
        "sigma_rank": pr.sigma_rank,
        "tau_rank": pr.tau_rank,
        "sigma_surjective": pr.sigma_surjective,
        "tau_surjective": pr.tau_surjective,
    }
    return _assemble(spec.fld, "morita", reports, derived, [])


def _cmd_gauge(spec):
    tpa = spec.partial_action()
    if spec.gauge is None:
        raise SpecFileError("missing object 'gauge'")
    pair = weak_conv_inverse(spec.gauge, tpa)
    if pair is None:
        report = _assemble(spec.fld, "gauge", [], {}, [{
            "stage": "weak_conv_inverse",
            "error": "NotInvertible",
            "message": "the gauge map has no weak convolution inverse",
        }])
        return report
    gt = gauge_transform(pair, tpa)
    reports = [
        verify_twisted_partial(gt),
        verify_crossed_conditions(gt),
        verify_equisatisfiability(tpa, pair),
    ]
    _, iso_report = gauge_crossed_iso(pair, tpa)
    reports.append(iso_report)
    derived = {"fully_invertible": pair.fully_invertible}
    return _assemble(spec.fld, "gauge", reports, derived, [])


def _cmd_separability(spec):
    tpa = spec.partial_action()
    if spec.integral_t is None:
        raise SpecFileError("missing object 'integral_t'")
    if spec.center_c is None:
        raise SpecFileError("missing object 'center_c'")
    cp = build_partial_crossed(tpa)
    if spec.gamma is not None or spec.gamma_prime is not None:
        if spec.gamma is None or spec.gamma_prime is None:
            raise SpecFileError(
                "gamma and gamma_prime must be supplied together")
        for name, mat in (("gamma", spec.gamma),
                          ("gamma_prime", spec.gamma_prime)):
            if mat.shape[1] != cp.dim:
                raise SpecFileError(
                    f"{name}: expected {cp.dim} columns, got {mat.shape[1]}")
        cd = CleftData(cp, spec.gamma, spec.gamma_prime, tpa.action)
    else:
        cd = default_cleft(tpa, cp)
    reports = [verify_partially_cleft(cd)]
    errors = []
    derived = {"crossed_dim": cp.dim}
    try:
        elem, build_report = separability_idempotent(
            cd, spec.integral_t, spec.center_c)
        reports.append(build_report)
        reports.append(check_separable_extension(cd, elem))
        derived["element_lift"] = [spec.fld.format(x) for x in elem.lift]
        derived["element_coordinates"] = [
            spec.fld.format(x) for x in elem.coordinates]
    except HopfcrossError as exc:
        errors.append({"stage": "separability_idempotent",
                       "error": type(exc).__name__, "message": str(exc)})
    try:
        res, _, _ = canonical_map(cp)
        derived["canonical_map_rank"] = res.rank
        derived["canonical_map_bijective"] = res.bijective
    except HopfcrossError as exc:
        errors.append({"stage": "canonical_map",
                       "error": type(exc).__name__, "message": str(exc)})
    return _assemble(spec.fld, "separability", reports, derived, errors)


_DISPATCH = {
    "verify": _cmd_verify,
    "build-crossed": _cmd_build_crossed,
    "globalize": _cmd_globalize,
    "morita": _cmd_morita,
    "gauge": _cmd_gauge,
    "separability": _cmd_separability,
}


def _cmd_report(spec):
    """Every applicable command in sequence.  Stages whose inputs are
    absent or whose preconditions do not hold are recorded as skipped;
    verdicts of the stages that did run decide the outcome."""
    stages = []
    passed = True
    for name in ("verify", "build-crossed", "globalize", "morita", "gauge",
                 "separability"):
        try:
            sub = _DISPATCH[name](spec)
            stages.append(sub)
            passed = passed and sub["passed"]
        except SpecFileError as exc:
            stages.append({"command": name, "skipped": str(exc)})
        except HopfcrossError as exc:
            stages.append({"command": name, "skipped":
                           f"{type(exc).__name__}: {exc}"})
    return {
        "command": "report",
        "field": spec.fld.name,
        "stages": stages,
        "passed": passed,
    }


def run(command: str, spec) -> dict:
    """Dispatch one command against a parsed definition file and return
    the report dictionary.  SpecFileError means unusable input; other
    domain errors are folded into the report."""
    if command == "report":
        return _cmd_report(spec)
    if command not in _DISPATCH:
        raise SpecFileError(f"unknown command {command!r}")
    try:
        return _DISPATCH[command](spec)
    except SpecFileError:
        raise
    except HopfcrossError as exc:
        return {
            "command": command,
            "field": spec.fld.name,
            "checks": [],
            "derived": {},
            "errors": [{"stage": command, "error": type(exc).__name__,
                        "message": str(exc)}],
            "passed": False,
        }


def _print_text(report, out):
    def one(sub):
        for c in sub.get("checks", ()):
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"  [{mark}] {c['title']}", file=out)
            for v in c["violations"][:5]:
                print(f"         {v['identity']} at {tuple(v['index'])}: "
                      f"{v['lhs']} != {v['rhs']}", file=out)
            more = len(c["violations"]) - 5
            if more > 0:
                print(f"         ... {more} further violations", file=out)
            for n in c["notes"]:
                print(f"         note: {n}", file=out)
        for e in sub.get("errors", ()):
            print(f"  [ERROR] {e['stage']}: {e['error']}: {e['message']}",
                  file=out)
        if sub.get("derived"):
            print(f"  derived: {json.dumps(sub['derived'], sort_keys=True)}",
                  file=out)

    print(f"command: {report['command']} (field {report['field']})", file=out)
    if report["command"] == "report":
        for sub in report["stages"]:
            if "skipped" in sub:
                print(f"stage {sub['command']}: skipped ({sub['skipped']})",
                      file=out)
            else:
                print(f"stage {sub['command']}:", file=out)
                one(sub)
    else:
        one(report)
    print("overall:", "PASS" if report["passed"] else "FAIL", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfcross",
        description="exact verification of twisted partial Hopf actions, "
                    "their crossed products, enveloping actions, and "
                    "separability data")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("specfile", help="path to a JSON definition file")
    parser.add_argument("--field", default=None,
                        help="override the field: rational or prime:<p>")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="accepted for compatibility and ignored; checks "
                             "run one after another")
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        field = Field.from_name(args.field) if args.field else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = load_spec(args.specfile, field)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(args.command, spec)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report, sys.stdout)
        print(f"wall time: {time.monotonic() - start:.3f}s")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
