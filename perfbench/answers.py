"""Known-answer checker.

An expectation is a dict with any of these keys; keys of the report
that the expectation does not name are ignored, so fields that later
versions add to the JSON report never count as wrong:

* ``exit``: the exit code of ``hopfcross.cli.main``;
* ``stderr``: a substring of what the command wrote to stderr;
* ``passed``, ``derived``, ``errors``: compared key by key against the
  report (dicts recursively, lists element by element);
* ``stages``: for ``report``, per stage name, the same comparison
  against that stage, where a ``skipped`` value is matched as a prefix;
* ``violation``: an ``identity`` and ``index`` that some check of the
  report must list among its violations.
"""

from __future__ import annotations

import json


def _match(exp, got, path, out, prefix=False):
    if isinstance(exp, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected an object, got {got!r}")
            return
        for key, val in exp.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                _match(val, got[key], f"{path}.{key}", out,
                       prefix=key == "skipped")
    elif isinstance(exp, list):
        if not isinstance(got, list) or len(got) != len(exp):
            out.append(f"{path}: expected {exp!r}, got {got!r}")
            return
        for i, (e, g) in enumerate(zip(exp, got)):
            _match(e, g, f"{path}[{i}]", out)
    elif prefix and isinstance(got, str) and got.startswith(exp):
        return
    elif type(exp) is not type(got) or exp != got:
        out.append(f"{path}: expected {exp!r}, got {got!r}")


def mismatches(expected: dict, exit_code, stdout: str, stderr: str) -> list:
    """Every way the outcome differs from the expectation; empty when
    the verdict, derived values and errors are all as known."""
    out = []
    if "exit" in expected and exit_code != expected["exit"]:
        out.append(f"exit: expected {expected['exit']}, got {exit_code}")
    if "stderr" in expected and expected["stderr"] not in stderr:
        out.append(f"stderr: expected {expected['stderr']!r} in {stderr!r}")
    body = {k: v for k, v in expected.items()
            if k in ("passed", "derived", "errors", "stages", "violation")}
    if not body:
        return out
    try:
        doc = json.loads(stdout)
    except ValueError:
        return out + ["stdout: not a JSON report"]
    for key in ("passed", "derived", "errors"):
        if key in body:
            if key not in doc:
                out.append(f"{key}: missing")
            else:
                _match(body[key], doc[key], key, out)
    if "stages" in body:
        stages = {s.get("command"): s for s in doc.get("stages", ())}
        _match(body["stages"], stages, "stages", out)
    if "violation" in body:
        want = body["violation"]
        found = any(v.get("identity") == want["identity"]
                    and v.get("index") == want["index"]
                    for c in doc.get("checks", ())
                    for v in c.get("violations", ()))
        if not found:
            out.append(f"violation: no {want['identity']} at "
                       f"{tuple(want['index'])}")
    return out
