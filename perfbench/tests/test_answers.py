"""The known-answer checker accepts true outcomes, ignores keys it was
not told about and flags every corrupted expectation."""

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

import answers
import workloads
from hopfcross.cli import main
from run import DATA


def run_cli(path, command):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def c3_build():
    return run_cli(DATA / "f_c3.json", "build-crossed")


def test_true_outcome_has_no_mismatch(c3_build):
    exp = workloads.bundled_answer("f_c3.json", "build-crossed", set())
    assert answers.mismatches(exp, *c3_build) == []


@pytest.mark.parametrize("corrupt", [
    lambda e: e.update(exit=1),
    lambda e: e.update(passed=False),
    lambda e: e["derived"].update(dim=5),
    lambda e: e["derived"]["canonical_map"].update(surjective=True),
    lambda e: e.update(errors=[{"stage": "build-crossed"}]),
    lambda e: e.update(stderr="missing object"),
])
def test_corrupted_expectation_is_flagged(c3_build, corrupt):
    exp = copy.deepcopy(workloads.bundled_answer("f_c3.json", "build-crossed", set()))
    corrupt(exp)
    assert answers.mismatches(exp, *c3_build)


def test_keys_added_to_the_report_are_ignored(c3_build):
    code, out, err = c3_build
    doc = json.loads(out)
    doc["derived"]["new_statistic"] = 1
    doc["timings"] = {"total": 0.5}
    exp = workloads.bundled_answer("f_c3.json", "build-crossed", set())
    assert answers.mismatches(exp, code, json.dumps(doc), err) == []


def test_missing_section_is_an_input_error():
    exp = workloads.bundled_answer("f_c3.json", "gauge", {"hopf"})
    assert answers.mismatches(exp, *run_cli(DATA / "f_c3.json", "gauge")) == []
    exp["stderr"] = "missing object 'integral_t'"
    assert answers.mismatches(exp, *run_cli(DATA / "f_c3.json", "gauge"))


def test_refused_globalization_and_skipped_stages():
    sections = set(json.loads((DATA / "f_coc_2.json").read_text()))
    for cmd in ("globalize", "report"):
        exp = workloads.bundled_answer("f_coc_2.json", cmd, sections)
        got = run_cli(DATA / "f_coc_2.json", cmd)
        assert answers.mismatches(exp, *got) == []
    exp["stages"]["globalize"] = {"skipped": "NotCentralIdempotent"}
    assert answers.mismatches(exp, *got)


@pytest.mark.parametrize("kind", workloads.MUTATIONS)
def test_mutant_must_name_the_forced_violation(tmp_path, kind):
    rng = random.Random(5)
    r = workloads.make_rung("C3", rng, gauge=False)
    action, cocycle, (identity, index) = workloads.mutate(r, kind, rng)
    doc = workloads.spec_document(replace(r, action=action, cocycle=cocycle),
                                  f"prime:{workloads.PRIME}")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    got = run_cli(path, "verify")
    exp = {"exit": 1, "passed": False,
           "violation": {"identity": identity, "index": index}}
    assert answers.mismatches(exp, *got) == []
    exp["violation"] = {"identity": identity, "index": [index[0] + 1]}
    assert answers.mismatches(exp, *got)
    exp["violation"] = {"identity": "no_such_identity", "index": index}
    assert answers.mismatches(exp, *got)
