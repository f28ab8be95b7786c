"""End-to-end runs of the command-line tool through a subprocess:
exit codes, JSON determinism, and the text renderer."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcross
from hopfcross import cli, linalg, separability
from hopfcross.checks import ReportBuilder
from hopfcross.crossed import (balanced_tensor_square, build_global_crossed,
                               build_partial_crossed)
from hopfcross.fields import QQ, Field
from hopfcross.fixtures import c3_gauge, c3_partial
from hopfcross.gauge import (gauge_crossed_iso, gauge_transform,
                             weak_conv_inverse)
from hopfcross.globalize import globalize_group_partial
from hopfcross.hopf import (AlgebraData, CoalgebraData, split,
                            verify_algebra)
from hopfcross.linalg import contract
from hopfcross.morita import morita_context, phi_embed
from hopfcross.partial import verify_crossed_conditions, verify_global
from hopfcross.separability import (CleftData, default_cleft,
                                    verify_partially_cleft)
from hopfcross.specfile import load_spec
from test_specfile import documents

DATA = resources.files("hopfcross") / "data"
BUNDLED = sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))


def run_cli(*args):
    # the child imports the package from where the tests imported it
    env = dict(os.environ, PYTHONPATH=str(Path(hopfcross.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "hopfcross", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def run_json(*args):
    return run_cli(*args, "--format", "json")


def data_path(name):
    return str(DATA / name)


def test_verify_passes_on_main_fixture():
    res = run_json("verify", data_path("f_c3.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["command"] == "verify"
    assert doc["passed"] is True
    assert doc["derived"]["hopf_dim"] == 3
    assert doc["derived"]["base_dim"] == 2
    assert doc["derived"]["cocycle_inverse_exists"] is True


def test_json_output_is_deterministic():
    a = run_json("verify", data_path("f_c3.json"))
    b = run_json("verify", data_path("f_c3.json"))
    assert a.stdout == b.stdout


def test_verify_fails_on_corrupted_action(tmp_path):
    doc = json.loads((DATA / "f_c3.json").read_text())
    doc["action"][2][0][0] = "1"
    doc["action"][2][0][1] = "1"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    res = run_json("verify", str(p))
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["passed"] is False


def test_build_crossed_reports_canonical_statistics():
    res = run_json("build-crossed", data_path("f_c3.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["derived"]["dim"] == 4
    # basis rows live in base-tensor-Hopf coordinates, one row per generator
    assert doc["derived"]["basis"] == [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
    ]
    mult = doc["derived"]["multiplication"]
    assert len(mult) == 4 and all(len(row) == 4 for row in mult)
    assert mult[0][1] == ["0", "1", "0", "0"]
    assert doc["derived"]["unit"] == ["1", "0", "1", "0"]
    cm = doc["derived"]["canonical_map"]
    assert (cm["quotient_dim"], cm["target_dim"], cm["rank"]) == (8, 12, 8)
    assert cm["injective"] and not cm["surjective"]


def test_globalize_dimensions():
    res = run_json("globalize", data_path("f_c3.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["derived"]["ambient_dim"] == 6
    assert doc["derived"]["enveloping_dim"] == 3
    assert doc["passed"] is True


def test_globalize_of_a_zero_action_lists_violations(tmp_path):
    # the unit acts as 0, so the enveloping span is zero-dimensional
    doc = json.loads((DATA / "degenerate_swap.json").read_text())
    doc["action"] = [[["0"]], [["0"]]]
    doc["cocycle"] = [[["0"], ["0"]], [["0"], ["0"]]]
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    res = run_json("globalize", str(p))
    assert res.returncode == 1 and res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["derived"] == {"ambient_dim": 2, "enveloping_dim": 0}
    found = [(c["title"], v["identity"], v["lhs"], v["rhs"])
             for c in doc["checks"] for v in c["violations"]]
    assert found == [
        ("enveloping action", "embedding_injective", ["0"], ["1"]),
        ("induced partial action", "corner_dimension_matches", ["0"], ["1"])]


def test_morita_statistics():
    res = run_json("morita", data_path("f_c3.json"))
    assert res.returncode == 0, res.stderr
    d = json.loads(res.stdout)["derived"]
    assert d["partial_dim"] == 4 and d["global_dim"] == 9
    assert d["first_bimodule_dim"] == 6 and d["second_bimodule_dim"] == 6
    assert d["sigma_rank"] == 9 and d["tau_rank"] == 4
    assert d["sigma_surjective"] and d["tau_surjective"]


def test_gauge_command():
    res = run_json("gauge", data_path("f_coc_2.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["derived"]["fully_invertible"] is True
    assert doc["passed"] is True


def test_gauge_without_gauge_object_is_an_input_error():
    res = run_cli("gauge", data_path("f_c3.json"))
    assert res.returncode == 2
    assert "gauge" in res.stderr


def test_separability_command():
    res = run_json("separability", data_path("f_coc_1.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["derived"]["element_lift"] == ["1/2", "0", "0", "1/2"]
    assert doc["derived"]["canonical_map_bijective"] is True
    assert doc["passed"] is True


def test_separability_domain_error_exits_one(tmp_path):
    doc = json.loads((DATA / "f_coc_1.json").read_text())
    doc["integral_t"] = ["1", "0"]
    p = tmp_path / "notintegral.json"
    p.write_text(json.dumps(doc))
    res = run_json("separability", str(p))
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert any(e["error"] == "NotIntegral" for e in out["errors"])


def test_normalization_failure_names_the_scalar_strings(tmp_path):
    # with c = 1 the integral t = 1 + g collapses c to 2, not to the unit;
    # the message names that element by its scalar strings
    doc = json.loads((DATA / "f_coc_1.json").read_text())
    doc["center_c"] = ["1"]
    p = tmp_path / "unnormalized.json"
    p.write_text(json.dumps(doc))
    res = run_json("separability", str(p))
    assert res.returncode == 1
    errors = json.loads(res.stdout)["errors"]
    assert errors == [{
        "stage": "separability_idempotent", "error": "NormalizationFailed",
        "message": "the integral does not collapse the element to the "
                   "unit: got (2)"}]


def test_report_skips_inapplicable_stages():
    res = run_json("report", data_path("f_c3.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    by_name = {s["command"]: s for s in doc["stages"]}
    assert "skipped" in by_name["gauge"]
    assert "skipped" in by_name["separability"]
    assert by_name["verify"]["passed"] is True
    assert by_name["morita"]["passed"] is True


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("drop, missing", [
    (("hopf", "algebra", "action", "cocycle", "gauge"), "hopf"),
    (("action",), "action")])
def test_report_without_an_action_is_an_input_error(tmp_path, capsys, fmt,
                                                    drop, missing):
    # every stage needs the action, so a report without one has verified
    # nothing and says so as the single commands do
    doc = json.loads((DATA / "f_coc_2.json").read_text())
    for key in drop:
        del doc[key]
    p = tmp_path / "no_action.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["report", str(p), "--format", fmt]) == 2
    assert capsys.readouterr() == ("", f"error: missing object '{missing}'\n")


def test_report_runs_everything_on_the_gauge_fixture():
    a = run_json("report", data_path("f_coc_1.json"))
    assert a.returncode == 0, a.stderr
    doc = json.loads(a.stdout)
    by_name = {s["command"]: s for s in doc["stages"]}
    assert by_name["separability"]["passed"] is True
    b = run_json("report", data_path("f_coc_1.json"))
    assert a.stdout == b.stdout


def _record_calls(monkeypatch, fn, key=lambda args: args[0]):
    """Rebind fn in every hopfcross module that imports it to a wrapper
    that records key(args) of each call, by default the first argument;
    returns that list."""
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(key(args))
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfcross") and vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapper)
    return seen


def test_report_builds_each_derived_object_once(monkeypatch):
    builds = {fn.__name__: _record_calls(monkeypatch, fn)
              for fn in (build_partial_crossed, build_global_crossed,
                         globalize_group_partial)}
    squares = _record_calls(monkeypatch, balanced_tensor_square)
    globals_checked = _record_calls(monkeypatch, verify_global)
    algebras_checked = _record_calls(monkeypatch, verify_algebra)
    doc = cli.run("report", load_spec(data_path("f_coc_1.json")))
    assert doc["passed"] is True
    assert [s["command"] for s in doc["stages"] if "skipped" not in s] == [
        "verify", "build-crossed", "globalize", "morita", "separability"]
    assert {name: len(calls) for name, calls in builds.items()} == {
        "build_partial_crossed": 1, "build_global_crossed": 1,
        "globalize_group_partial": 1}
    assert len(squares) == len({id(cp) for cp in squares}) == 1
    # the enveloping action's global axioms and each algebra's table are
    # checked once, although two stages read each report
    assert len(globals_checked) == 1
    assert len(algebras_checked) == len({id(a) for a in algebras_checked})


def test_report_computes_each_verifier_report_once(monkeypatch):
    # the cleft report and the separability conditions have two readers
    # each, the crossed-product conditions of each action three, yet
    # each is computed once
    cleft = _record_calls(monkeypatch, verify_partially_cleft)
    conditions = _record_calls(monkeypatch,
                               separability._separability_conditions)
    doc = cli.run("report", load_spec(data_path("f_coc_1.json")))
    assert doc["stages"][-1]["command"] == "separability"
    assert doc["stages"][-1]["passed"] is True
    assert (len(cleft), len(conditions)) == (1, 1)

    gauged = _record_calls(monkeypatch, gauge_transform)
    crossed_conditions = _record_calls(monkeypatch, verify_crossed_conditions)
    doc = cli.run("report", load_spec(data_path("f_coc_2.json")))
    assert [s["command"] for s in doc["stages"] if "skipped" not in s] == [
        "verify", "build-crossed", "gauge"]
    assert len(gauged) == 1
    assert len({id(t) for t in crossed_conditions}) == 2
    assert len(crossed_conditions) == 2


# The contractions that build the tensors an action or a coalgebra holds:
# the unit translates h . 1, both sides of the twisted module identity,
# the nested and the product unit action, and the tensor square.
DERIVED_TENSOR_SPECS = (
    "ija,j->ia",
    "ipq,jrs,rax,pxy,qsz,yzk->ijak",
    "ipq,jrs,pry,qst,taz,yzk->ijak",
    "jx,ixk->ijk",
    "ipq,py,qjt,tz,yzk->ijk",
    "iab,jcd->ijacbd",
)


@pytest.mark.parametrize("name", ["f_c3.json", "f_coc_1.json", "f_coc_2.json"])
def test_report_derives_each_tensor_once_per_owner(monkeypatch, name):
    # f_c3 runs up to the Morita stage, f_coc_1 the separability stage and
    # f_coc_2 the gauge stage.  No contraction that builds a derived tensor
    # runs twice on the same operands, and the double coproduct is split
    # once per coalgebra.  The recorded calls keep their operands alive,
    # so no two distinct operands share an id.
    contractions = _record_calls(monkeypatch, contract, key=lambda args: args)
    splits = _record_calls(monkeypatch, split, key=lambda args: args)
    cli.run("report", load_spec(data_path(name)))
    derived = [(args[0], tuple(map(id, args[1:]))) for args in contractions
               if args[0] in DERIVED_TENSOR_SPECS]
    assert {spec for spec, _ in derived} >= {"ija,j->ia", "jx,ixk->ijk"}
    assert len(derived) == len(set(derived))
    doubles = [id(c) for c, n in splits if n == 3]
    assert doubles and len(doubles) == len(set(doubles))


@pytest.mark.parametrize("name", BUNDLED)
def test_no_command_repeats_a_contraction(monkeypatch, capsys, name):
    # every object a command reads is built once, so no contraction runs
    # twice on the same operands within one command.  The recorded calls
    # keep their operands alive, so no two distinct operands share an id.
    contractions = _record_calls(monkeypatch, contract, key=lambda args: args)
    repeated = {}
    for command in cli.COMMANDS:
        contractions.clear()
        cli.main([command, data_path(name), "--format", "json"])
        keys = Counter((args[0], tuple(map(id, args[1:])))
                       for args in contractions)
        repeated[command] = sorted({spec for (spec, _), n in keys.items()
                                    if n > 1})
    assert repeated == {command: [] for command in cli.COMMANDS}


@pytest.mark.parametrize("name", BUNDLED)
def test_no_command_eliminates_a_matrix_twice(monkeypatch, capsys, name):
    # a command that needs a matrix's rank and its span reads the rank off
    # the one span, so no rref runs twice on the same operand within one
    # command.  Each call is named by the linalg function that ran it and
    # that function's caller, and keeps its operand alive.
    def operand_and_caller(args):
        here, caller = sys._getframe(2), sys._getframe(3)
        return args[0], f"{here.f_code.co_name}<-{caller.f_code.co_name}"

    eliminations = _record_calls(monkeypatch, linalg.rref,
                                 key=operand_and_caller)
    repeated = {}
    for command in cli.COMMANDS:
        eliminations.clear()
        cli.main([command, data_path(name), "--format", "json"])
        by_operand = {}
        for m, caller in eliminations:
            by_operand.setdefault(id(m), []).append(caller)
        repeated[command] = sorted(tuple(callers) for callers in
                                   by_operand.values() if len(callers) > 1)
    assert repeated == {command: [] for command in cli.COMMANDS}


def _public_functions():
    """(qualified name, function) for every public function and public
    method defined in a hopfcross module."""
    for info in pkgutil.iter_modules(hopfcross.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"hopfcross.{info.name}")
        for name, obj in vars(mod).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", "") != mod.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        yield f"{info.name}.{name}.{meth}", fn


def test_consumers_take_every_built_object_they_read():
    # one path per derived object: no builder has a switch to skip its
    # precondition check, and no consumer rebuilds a crossed product or
    # an enveloping action that was left out
    params = [(name, p) for name, fn in _public_functions()
              for p in inspect.signature(fn).parameters.values()]
    assert [name for name, p in params if p.name == "check"] == [
        "partial.induce_partial"]
    typed = [(name, p) for name, p in params if re.search(
        r"\b(CrossedProductAlgebra|EnvelopingAction)\b", str(p.annotation))]
    assert len(typed) > 10
    assert [f"{name}({p.name})" for name, p in typed
            if p.default is not p.empty] == []


def test_every_public_function_has_a_caller():
    # a public function or class of the package that is named nowhere
    # outside its own definition and the package's re-export list (not in
    # another module, a test or the benchmark) is dead code
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "hopfcross"
    sources = {p: p.read_text(encoding="utf-8").splitlines()
               for p in sorted([*package.glob("*.py"),
                                *(root / "tests").rglob("*.py"),
                                *(root / "perfbench").rglob("*.py")])
               if p.name != "__init__.py" or p.parent != package}
    uncalled = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for p, lines in sources.items()
                       for n, line in enumerate(lines, 1)
                       if not (p == path and n in own)):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []


def test_no_module_has_an_unused_import():
    # every name an import binds in a package module or a test module is
    # read somewhere in that module; the package's __init__.py is exempt,
    # since its imports are the public re-exports
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "hopfcross"
    unused = []
    for path in sorted([*package.glob("*.py"), *(root / "tests").glob("*.py")]):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).partition(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.parent.name}/{path.name}: {name}"
                       for name in bound if name not in read]
    assert unused == []


def _package_trees():
    """(module name, AST) for every module of the package."""
    package = Path(__file__).resolve().parents[1] / "src" / "hopfcross"
    for path in sorted(package.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _package_nodes():
    """(module file name, node) for every AST node of the package."""
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            yield module + ".py", node


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so bad input is rejected by
    # explicit errors instead
    assert [f"{name}:{node.lineno}" for name, node in _package_nodes()
            if isinstance(node, ast.Assert)] == []


def test_contract_is_the_one_einsum_kernel():
    # every contraction goes through linalg.contract, the one module that
    # calls np.einsum
    calls = [(name, node.lineno) for name, node in _package_nodes()
             if isinstance(node, ast.Call)
             and "einsum" in (getattr(node.func, "attr", None),
                              getattr(node.func, "id", None))]
    assert [c for c in calls if c[0] != "linalg.py"] == []
    assert calls        # the guard sees the kernel's own calls


def _is_product(node):
    """Whether an AST node multiplies tensors outside the kernel: an @
    operator or a call of np.kron, np.dot or np.matmul."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("kron", "dot", "matmul")
            and getattr(node.func.value, "id", None) in ("np", "numpy"))


def test_every_product_goes_through_the_kernel():
    # the engine multiplies tensors only by linalg.contract: no module
    # but linalg.py has an @ operator or calls np.kron, np.dot, np.matmul
    found = [(name, node.lineno) for name, node in _package_nodes()
             if _is_product(node)]
    assert [f for f in found if f[0] != "linalg.py"] == []
    # the guard sees each form
    snippet = "a @ b\na @= b\nnp.kron(a, b)\nnp.dot(a, b)\nnumpy.matmul(a, b)"
    assert sum(map(_is_product, ast.walk(ast.parse(snippet)))) == 5


def test_every_map_the_engine_hands_out_is_exact():
    # one tensor form at every interface: the maps of the C3 fixture's
    # crossed products, enveloping action, Morita context, gauge and
    # cleft datum, and the results of the linalg solvers, are Exact
    tpa = c3_partial()
    cp = build_partial_crossed(tpa)
    env = globalize_group_partial(tpa)
    s = build_global_crossed(env.glob)
    ctx = morita_context(env, cp, s)
    cut = dataclasses.replace(s, basis=linalg.span(s.basis.rows[:1], 9))
    pair = weak_conv_inverse(c3_gauge(2, 5), tpa)
    cpv = build_partial_crossed(gauge_transform(pair, tpa))
    cd = default_cleft(tpa, cp)
    given = CleftData(cp, linalg.arr(QQ, linalg.to_strings(cd.gamma)),
                      linalg.arr(QQ, linalg.to_strings(cd.gamma_prime)), tpa)
    square = cp.balanced_square
    maps = {
        "iota": cp.iota, "coaction": cp.coaction, "theta": env.theta,
        "theta_one": env.theta_one, "corner_twist": env.corner_twist,
        "phi": ctx.phi, "phi_past_a_miss": phi_embed(env, cp, cut)[0],
        "v": pair.v, "v_inv": pair.v_inv,
        "gauge_iso": gauge_crossed_iso(pair, cp, cpv)[0],
        "gauge_iso_reversed": gauge_crossed_iso(pair, cpv, cp)[0],
        "gamma": cd.gamma, "gamma_prime": cd.gamma_prime,
        "given_gamma": given.gamma, "given_gamma_prime": given.gamma_prime,
        "basis_rows": cp.basis.rows, "solve": linalg.solve(
            cp.iota.transpose(), cp.algebra.unit),
        "kernel": linalg.kernel(cp.iota).rows,
        "projection": square.projection, "section": square.section,
        "project": square.project(linalg.identity(QQ, cp.dim ** 2)),
        "lift": square.lift(linalg.identity(QQ, square.dim))}
    assert [name for name, m in maps.items()
            if not isinstance(m, linalg.Exact)] == []


def _names_an_element(node):
    """Whether an AST node names a field-element class (``Fraction``,
    ``Fp``) or reads the ``elements`` of a tensor."""
    if isinstance(node, ast.Name):
        return node.id in ("Fraction", "Fp")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Fraction", "Fp", "elements")
    if isinstance(node, ast.alias):
        return node.name in ("Fraction", "Fp", "fractions")
    return False


def test_no_module_names_a_field_element():
    # a scalar is integers inside the engine and a string where it leaves
    # it: no module of the package names Fraction or Fp, or reads the
    # elements of a tensor
    assert [f"{name}:{getattr(node, 'lineno', '?')}"
            for name, node in _package_nodes()
            if _names_an_element(node)] == []
    assert not hasattr(hopfcross, "Fp")
    for gone in ("zero", "one", "coerce", "ratio"):
        assert not hasattr(Field, gone), gone
    # the guard sees each form
    snippet = ("from fractions import Fraction\nimport fractions\n"
               "Fraction(1, 2)\nfields.Fp(1, 5)\nt.elements\n")
    assert sum(map(_names_an_element, ast.walk(ast.parse(snippet)))) == 5


def test_a_passing_compare_of_exact_tables_builds_no_elements():
    tpa = c3_partial()
    lhs, rhs = tpa.twisted_module_sides
    rb = ReportBuilder("t")
    rb.compare("twisted_module", lhs, rhs)
    # the same values as a view of a larger Exact, whose denominator
    # (a multiple of 7) the view keeps
    sevenths = np.full(lhs.shape, "1/7", dtype=object)
    view = linalg.arr(tpa.fld, np.stack([
        sevenths, np.array(linalg.to_strings(lhs), dtype=object)]))[1]
    rb.compare("over_another_denominator", view, rhs)
    rep = rb.build()
    assert rep.passed and view.den != rhs.den
    # a failing compare records the sides as scalar strings
    rb.compare("against_sevenths", linalg.arr(tpa.fld, sevenths), rhs)
    first = rb.build().violations[0]
    assert first.lhs == ("1/7",) * lhs.shape[-1]
    assert first.rhs == tuple(linalg.to_strings(rhs[first.index]))


@pytest.mark.parametrize("p", [None, 7], ids=["QQ", "F7"])
def test_elimination_builds_no_element(p):
    # span, solve, rank, kernel and quotient eliminate on the integers of
    # their Exact inputs, and take no integer array.  The matrix needs a
    # row swap and skips a zero column.
    fld = Field(p)
    m = linalg.arr(fld, [[0, 0, 3, "1/3"], [2, 0, 1, 4], [4, 0, 5, "25/3"]])
    b = contract("ij,j->i", m, linalg.arr(fld, [1, 1, 1, 1]))
    bad = linalg.arr(fld, [1, 0, 0])
    x = linalg.solve(m, b)
    assert isinstance(x, linalg.Exact) and linalg.eqarr(
        contract("ij,j->i", m, x), b)
    assert linalg.solve(m, bad) is None
    assert linalg.span(m, 4).dim == linalg.rank(m) == 2
    assert linalg.kernel(m).rows.shape == (2, 4)
    assert linalg.quotient(4, m).dim == 2
    with pytest.raises(TypeError):
        linalg.rank(m.ints)
    assert not hasattr(linalg, "_elements")


@pytest.mark.parametrize("name", BUNDLED)
def test_a_cli_run_converts_no_element_array(monkeypatch, capsys, name):
    # tensors are born Exact: the parser reads the integers of each
    # scalar string, and no command hands an element array to arr, the
    # one builder of an Exact from field elements
    converted = _record_calls(monkeypatch, linalg.arr)
    for command in cli.COMMANDS:
        cli.main([command, data_path(name), "--format", "json"])
    assert converted == []
    assert not hasattr(linalg, "_integers")
    assert not hasattr(linalg.Exact, "__array__")


def _passes_a_field(node):
    """Whether an AST node is a contract call with a ``fld=`` keyword."""
    return (isinstance(node, ast.Call)
            and "contract" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))
            and any(k.arg == "fld" for k in node.keywords))


# The functions that are told a field: where a tensor is born (the Exact
# constructor and the builders, the fixtures and the spec-file parser
# among them) and where the report names its field.
FIELD_PARAMETER_ALLOWED = {
    "linalg.Exact.__init__", "linalg._canonical",
    "linalg.from_ratios", "linalg.arr", "linalg.zeros", "linalg.identity",
    "hopf.group_algebra", "fixtures.trivial_hopf", "fixtures.trivial_partial",
    "fixtures.product_field_algebra", "fixtures.c3_partial",
    "fixtures.cocycle_pair", "fixtures.degenerate_swap",
    "fixtures.c3_gauge", "fixtures.pair_gauge", "specfile._tensor",
    "specfile._scalars", "specfile._parse_algebra", "specfile._parse_hopf",
    "cli._assemble"}
STORED_COPIES = {"fld", "dim", "ambient_dim"}
# fields that held a fact another field or object already holds: the
# convolution algebra beside its carrier, the flag beside the symmetry
# report, the rank verdicts beside the rank and the dimensions, and the
# labels the algebra of a Hopf algebra holds
COPIED_FIELDS = {"globalize.EnvelopingAction.ambient",
                 "partial.CocycleInverse.exists",
                 "crossed.CanonicalMapResult.injective",
                 "crossed.CanonicalMapResult.surjective",
                 "hopf.CoalgebraData.labels"}


def _owners(tree):
    """The qualified name of every function and class of a module AST,
    by node: ``Class.method`` for a method, ``outer.inner`` nested."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                names[child] = prefix + child.name
                visit(child, names[child] + ".")
            else:
                visit(child, prefix)
    visit(tree, "")
    return names


def _field_parameters(tree, module):
    """``module.function`` for each function with a parameter ``fld``."""
    return {f"{module}.{name}" for node, name in _owners(tree).items()
            if not isinstance(node, ast.ClassDef)
            and "fld" in [a.arg for a in ast.walk(node.args)
                          if isinstance(a, ast.arg)]}


def _stored_copies(tree, module):
    """``module.Class.name`` for each dataclass field named fld, dim or
    ambient_dim, or named in COPIED_FIELDS."""
    found = set()
    for node, name in _owners(tree).items():
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = {f"{module}.{name}.{item.target.id}": item.target.id
                      for item in node.body
                      if isinstance(item, ast.AnnAssign)}
            found |= {q for q, field in fields.items()
                      if field in STORED_COPIES or q in COPIED_FIELDS}
    return found


def test_the_field_travels_with_the_operands():
    # contract reads the field from its Exact operands: it has no field
    # parameter, and no call in the package passes one
    assert list(inspect.signature(contract).parameters) == [
        "spec", "operands"]
    assert [f"{name}:{node.lineno}" for name, node in _package_nodes()
            if _passes_a_field(node)] == []
    # the guard sees both call forms
    snippet = "contract('i->i', v, fld=f)\nlinalg.contract('i->i', v, fld=f)"
    assert sum(map(_passes_a_field, ast.walk(ast.parse(snippet)))) == 2
    # a field is named only where a tensor is born or a report leaves the
    # engine; everything else reads it from its operands
    told = set().union(*(_field_parameters(tree, module)
                         for module, tree in _package_trees()))
    assert told - FIELD_PARAMETER_ALLOWED == set()
    for fn in (linalg.rref, linalg.rank, linalg.solve, linalg.span,
               linalg.kernel, linalg.quotient, linalg.concat,
               linalg.check_tensors, linalg._field):
        assert "fld" not in inspect.signature(fn).parameters, fn.__name__
    # and no data class stores a field or a dimension beside its tensors,
    # except the spec file, which is where the field is read
    stored = set().union(*(_stored_copies(tree, module)
                           for module, tree in _package_trees()))
    assert stored == {"specfile.SpecFile.fld"}
    for cls in (AlgebraData, CoalgebraData, linalg.SubspaceBasis,
                linalg.QuotientSpace):
        assert STORED_COPIES.isdisjoint(
            f.name for f in dataclasses.fields(cls)), cls.__name__
    # nor a result a copy of what it holds elsewhere; each class is
    # still there, so the guard does not pass by a rename
    for qualified in COPIED_FIELDS:
        module, cls, field = qualified.split(".")
        cls = getattr(importlib.import_module(f"hopfcross.{module}"), cls)
        assert field not in [f.name for f in dataclasses.fields(cls)]
    # the guards see a told function, a told method and stored copies
    snippet = ("def rank(m, fld):\n    pass\n"
               "class Basis:\n    def span(self, v, *, fld=None):\n"
               "        pass\n"
               "@dataclass(frozen=True)\nclass Algebra:\n"
               "    fld: Field\n    dim: int\n    mult: Exact\n"
               "@dataclass(frozen=True)\nclass CocycleInverse:\n"
               "    exists: bool\n    report: CheckReport\n")
    tree = ast.parse(snippet)
    assert _field_parameters(tree, "m") == {"m.rank", "m.Basis.span"}
    assert _stored_copies(tree, "m") == {"m.Algebra.fld", "m.Algebra.dim"}
    assert _stored_copies(tree, "partial") == {
        "partial.Algebra.fld", "partial.Algebra.dim",
        "partial.CocycleInverse.exists"}


def test_missing_file_is_an_input_error():
    res = run_cli("verify", "/nonexistent/path.json")
    assert res.returncode == 2


def test_malformed_file_is_an_input_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    res = run_cli("verify", str(p))
    assert res.returncode == 2
    assert "line 1" in res.stderr


def test_unknown_field_is_an_input_error():
    res = run_cli("verify", data_path("f_c3.json"), "--field", "real")
    assert res.returncode == 2


@pytest.mark.parametrize("value", [5, None, True, 1.5, ["rational"],
                                   {"name": "rational"}])
def test_field_descriptor_that_is_not_a_string_is_an_input_error(
        tmp_path, value):
    doc = json.loads((DATA / "f_c3.json").read_text())
    doc["field"] = value
    p = tmp_path / "field.json"
    p.write_text(json.dumps(doc))
    res = run_cli("verify", str(p))
    assert res.returncode == 2
    assert res.stderr.startswith("error: field:")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def _input_error(capsys, *argv):
    """The one error line of an in-process run that exits 2 with no
    report."""
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


@pytest.mark.parametrize("offset", [0, 40])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, offset):
    # exit 1 means a check failed, so a file that cannot be read as text
    # is unusable input: exit 2, naming the byte
    text = (DATA / "f_c3.json").read_bytes()
    p = tmp_path / "utf16.json"
    p.write_bytes(text[:offset] + b"\xff\xfe" + text[offset:])
    assert _input_error(capsys, "verify", str(p)) == (
        f"error: not UTF-8 text at byte offset {offset}: "
        f"invalid start byte\n")


NONCANONICAL_FIELDS = ["prime:1_0007", "prime:\u0667", "prime:+7",
                       "prime: 7", "prime:07", "prime:7 "]


@pytest.mark.parametrize("name", NONCANONICAL_FIELDS)
def test_a_field_is_named_only_as_the_report_names_it(tmp_path, capsys, name):
    # int() would read each of these as a prime the report then names
    # otherwise; the flag and the file's key both refuse them
    assert _input_error(capsys, "verify", data_path("f_c3.json"),
                        "--field", name) == f"error: bad field name {name!r}\n"
    doc = json.loads((DATA / "f_c3.json").read_text())
    doc["field"] = name
    p = tmp_path / "field.json"
    p.write_text(json.dumps(doc))
    assert _input_error(capsys, "verify", str(p)) == (
        f"error: field: bad field name {name!r}\n")


@pytest.mark.parametrize("section, key", [("hopf", "lables"),
                                          ("hopf", "antipod"),
                                          ("algebra", "comult"),
                                          ("algebra", "antipode")])
def test_an_unknown_key_inside_a_section_is_an_input_error(
        tmp_path, capsys, section, key):
    doc = json.loads((DATA / "f_c3.json").read_text())
    doc[section][key] = doc[section]["unit"]
    p = tmp_path / "key.json"
    p.write_text(json.dumps(doc))
    assert _input_error(capsys, "verify", str(p)) == (
        f"error: {section}: unknown key {key!r}\n")


def _nodes(doc, path=()):
    """The path of every node of a parsed JSON document, the root first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                 st.floats(-4, 4), st.text(max_size=4),
                 st.sampled_from([[], {}, "1/0", "3 mod 7"]))


def check_report_or_input_error(command, text):
    """Run ``command`` on a file holding ``text`` and check that it
    answers with an explicit input error (exit 2, one error line and no
    stdout) or with a JSON report whose verdict is the exit code; a
    traceback propagates and fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "spec.json"
        p.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(p), "--format", "json"])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["passed"] is (code == 0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_one_mutation_of_a_bundled_file_gives_a_report_or_an_input_error(
        data):
    # delete a key or put junk in place of one value, anywhere in a
    # bundled file; every command answers with an explicit input error
    # (exit 2) or with a report whose verdict is the exit code, never
    # with a traceback
    name = data.draw(st.sampled_from(BUNDLED))
    command = data.draw(st.sampled_from(cli.COMMANDS))
    doc = json.loads((DATA / name).read_text())
    top = data.draw(st.booleans())
    path = data.draw(st.sampled_from(
        [q for q in _nodes(doc) if (len(q) == 1) == top and q]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JUNK)
    check_report_or_input_error(command, json.dumps(doc))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(documents().map(json.dumps))
def test_every_command_on_an_arbitrary_file_gives_a_report_or_an_input_error(
        text):
    for command in cli.COMMANDS:
        check_report_or_input_error(command, text)


def test_scalar_with_a_huge_exponent_is_an_input_error(tmp_path, capsys):
    # parsed by Fraction, "1e999999999" would not finish
    doc = json.loads((DATA / "f_c3.json").read_text())
    doc["action"][0][0][0] = "1e999999999"
    p = tmp_path / "exponent.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["verify", str(p)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "bad rational scalar '1e999999999'" in capsys.readouterr().err


def test_parallel_option_is_gone():
    res = run_cli("verify", data_path("f_c3.json"), "--parallel", "2")
    assert res.returncode == 2
    assert "--parallel" in res.stderr
    assert res.stdout == ""


def test_field_override_changes_the_arithmetic():
    res = run_json("verify", data_path("f_c3.json"), "--field", "prime:5")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["field"] == "prime:5"


def test_text_format_mentions_wall_time():
    res = run_cli("verify", data_path("f_c3.json"), "--format", "text")
    assert res.returncode == 0
    assert "wall time" in res.stdout
    assert "PASS" in res.stdout
    # while the json format stays free of timing for reproducibility
    js = run_json("verify", data_path("f_c3.json"))
    assert "wall time" not in js.stdout
