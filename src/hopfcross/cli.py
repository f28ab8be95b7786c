"""Command-line front end.

Each command reads a definition file, dispatches to the owning module,
and emits one report.  The commands read every derived object from one
Pipeline per ``run`` call, which builds each of them once, and every
verifier report of an action or a cleft datum from the object itself,
which computes it once.  JSON reports are fully deterministic (sorted
keys, no timing data) so identical inputs give byte-identical output;
the text format adds a wall-time line at the end.

Exit codes: 0 when every requested check passed, 1 when some check or
domain precondition failed, 2 for unusable input (parse errors, missing
sections, bad flags); ``report`` on a file without a partial action is
unusable input too, since every stage needs the action.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property

from .crossed import (build_global_crossed, build_partial_crossed,
                      verify_assoc_unital, verify_comodule, verify_crossed)
from .errors import HopfcrossError, SpecFileError
from .fields import Field
from .gauge import (gauge_transform, gauge_crossed_iso, verify_equisatisfiability,
                    weak_conv_inverse)
from .globalize import (globalize_group_partial, verify_enveloping,
                        verify_induced_matches)
from .hopf import verify_algebra, verify_hopf
from .linalg import to_strings
from .morita import (morita_context, verify_module_structures,
                     verify_morita_pairings)
from .partial import verify_absorption, verify_symmetric
from .separability import CleftData, default_cleft, separability_idempotent
from .specfile import load_spec

class Pipeline:
    """Every object the commands read, derived from one parsed spec: the
    partial action and its crossed product, its enveloping action, the
    global crossed product, the Morita context, the gauged action and
    its crossed product, and the cleft data.  Each is built on first use
    and kept for the life of the object, which is one ``run`` call; a
    build that raises keeps nothing, so every stage that needs it meets
    the same error.  The verifier reports of each action are held by the
    action itself."""

    def __init__(self, spec):
        self.spec = spec

    @cached_property
    def tpa(self):
        return self.spec.partial_action()

    @cached_property
    def cp(self):
        return build_partial_crossed(self.tpa)

    @cached_property
    def env(self):
        return globalize_group_partial(self.tpa)

    @cached_property
    def global_cp(self):
        return build_global_crossed(self.env.glob)

    @cached_property
    def morita(self):
        return morita_context(self.env, self.cp, self.global_cp)

    @cached_property
    def gauge_pair(self):
        """The spec's gauge with its weak inverse, or None when the gauge
        has no weak inverse; a spec without a gauge raises SpecFileError."""
        tpa = self.tpa      # a missing action is reported first
        gauge, = self.spec.require("gauge")
        return weak_conv_inverse(gauge, tpa)

    @cached_property
    def gauged(self):
        return gauge_transform(self.gauge_pair, self.tpa)

    @cached_property
    def gauged_cp(self):
        return build_partial_crossed(self.gauged)

    @cached_property
    def cleft(self):
        spec, tpa, cp = self.spec, self.tpa, self.cp
        if spec.gamma is None and spec.gamma_prime is None:
            return default_cleft(tpa, cp)
        if spec.gamma is None or spec.gamma_prime is None:
            raise SpecFileError(
                "gamma and gamma_prime must be supplied together")
        for name, mat in (("gamma", spec.gamma),
                          ("gamma_prime", spec.gamma_prime)):
            if mat.shape[1] != cp.dim:
                raise SpecFileError(
                    f"{name}: expected {cp.dim} columns, got {mat.shape[1]}")
        return CleftData(cp, spec.gamma, spec.gamma_prime, tpa)


def _error(stage, exc):
    return {"stage": stage, "error": type(exc).__name__, "message": str(exc)}


def _assemble(fld, command, reports, derived, errors):
    checks = [r.to_dict() for r in reports]
    passed = all(c["passed"] for c in checks) and not errors
    return {
        "command": command,
        "field": fld.name,
        "checks": checks,
        "derived": derived,
        "errors": errors,
        "passed": passed,
    }


def _cmd_verify(p):
    tpa = p.tpa
    reports = [
        verify_hopf(tpa.hopf),
        verify_algebra(tpa.alg),
        tpa.axioms_report,
        verify_absorption(tpa),
        tpa.conditions_report,
    ]
    ci = verify_symmetric(tpa)
    reports.append(ci.report)
    derived = {
        "hopf_dim": tpa.hopf.dim,
        "base_dim": tpa.alg.dim,
        "cocycle_inverse_exists": ci.report.passed,
    }
    return reports, derived, []


def _cmd_build_crossed(p):
    cp = p.cp
    reports = [
        verify_assoc_unital(cp),
        verify_crossed(cp),
        verify_comodule(cp),
    ]
    errors = []
    derived = {
        "dim": cp.dim,
        "basis": to_strings(cp.basis.rows),
        "multiplication": to_strings(cp.algebra.mult),
        "unit": to_strings(cp.algebra.unit),
    }
    try:
        res = cp.canonical
        derived["canonical_map"] = {
            "quotient_dim": res.quotient_dim,
            "target_dim": res.target_dim,
            "rank": res.rank,
            "injective": res.injective,
            "surjective": res.surjective,
            "bijective": res.bijective,
        }
    except HopfcrossError as exc:
        errors.append(_error("canonical_map", exc))
    return reports, derived, errors


def _cmd_globalize(p):
    env = p.env
    reports = [verify_enveloping(env), verify_induced_matches(env)]
    derived = {
        "ambient_dim": env.carrier.ambient_dim,
        "enveloping_dim": env.glob.alg.dim,
    }
    return reports, derived, []


def _cmd_morita(p):
    ctx = p.morita
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
    return reports, derived, []


def _cmd_gauge(p):
    pair = p.gauge_pair
    if pair is None:
        return [], {}, [{
            "stage": "weak_conv_inverse",
            "error": "NotInvertible",
            "message": "the gauge map has no weak convolution inverse",
        }]
    gauged = p.gauged
    reports = [
        gauged.axioms_report,
        gauged.conditions_report,
        verify_equisatisfiability(p.tpa, gauged),
    ]
    _, iso_report = gauge_crossed_iso(pair, p.cp, p.gauged_cp)
    reports.append(iso_report)
    derived = {"fully_invertible": pair.fully_invertible}
    return reports, derived, []


def _cmd_separability(p):
    p.tpa       # a missing action is reported first
    integral_t, center_c = p.spec.require("integral_t", "center_c")
    cd = p.cleft
    cp = cd.cp
    reports = [cd.cleft_report]
    errors = []
    derived = {"crossed_dim": cp.dim}
    try:
        elem, build_report, conditions = separability_idempotent(
            cd, integral_t, center_c)
        reports += [build_report, conditions]
        derived["element_lift"] = to_strings(elem.lift)
        derived["element_coordinates"] = to_strings(elem.coordinates)
    except HopfcrossError as exc:
        errors.append(_error("separability_idempotent", exc))
    try:
        res = cp.canonical
        derived["canonical_map_rank"] = res.rank
        derived["canonical_map_bijective"] = res.bijective
    except HopfcrossError as exc:
        errors.append(_error("canonical_map", exc))
    return reports, derived, errors


# every command but report, in the order report runs them; each returns
# the (reports, derived, errors) that _assemble makes its report of
_DISPATCH = {
    "verify": _cmd_verify,
    "build-crossed": _cmd_build_crossed,
    "globalize": _cmd_globalize,
    "morita": _cmd_morita,
    "gauge": _cmd_gauge,
    "separability": _cmd_separability,
}
COMMANDS = (*_DISPATCH, "report")


def _cmd_report(p):
    """Every command in sequence, all reading one pipeline.  A file
    without a partial action is unusable input, since every stage needs
    it.  Stages whose other inputs are absent or whose preconditions do
    not hold are recorded as skipped; verdicts of the stages that did
    run decide the outcome."""
    p.tpa       # a missing action is unusable input, not six skips
    stages = []
    for name, cmd in _DISPATCH.items():
        try:
            stages.append(_assemble(p.spec.fld, name, *cmd(p)))
        except SpecFileError as exc:
            stages.append({"command": name, "skipped": str(exc)})
        except HopfcrossError as exc:
            stages.append({"command": name, "skipped":
                           f"{type(exc).__name__}: {exc}"})
    return {
        "command": "report",
        "field": p.spec.fld.name,
        "stages": stages,
        "passed": all(sub.get("passed", True) for sub in stages),
    }


def run(command: str, spec) -> dict:
    """Dispatch one command against a parsed definition file and return
    the report dictionary.  SpecFileError means unusable input; other
    domain errors are folded into the report."""
    if command == "report":
        return _cmd_report(Pipeline(spec))
    if command not in _DISPATCH:
        raise SpecFileError(f"unknown command {command!r}")
    try:
        outcome = _DISPATCH[command](Pipeline(spec))
    except SpecFileError:
        raise
    except HopfcrossError as exc:
        outcome = [], {}, [_error(command, exc)]
    return _assemble(spec.fld, command, *outcome)


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
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        field = Field.from_name(args.field) if args.field else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(args.command, load_spec(args.specfile, field))
    except (OSError, SpecFileError) as exc:
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
