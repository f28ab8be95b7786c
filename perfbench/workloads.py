"""Benchmark inputs and their known answers.

Every input is a definition file plus one CLI command.  The files are
written into a work directory; hopfcross sees nothing but those files.
Known answers never come from the code under test:

* ``bundled`` answers are the values already frozen for the shipped
  example files (tests, README, ROADMAP);
* ladder rungs and prime-field mutants are built in closed form, so
  their answers follow from the construction.

A rung is the regular translation action of a finite group G on the
function algebra k^G, cut to the corner of a set of points P.  With
delta_s the point functions, g > delta_s = delta_{s g^-1}; on the corner
A = span{delta_p : p in P} this gives

* action:   g . delta_p = delta_{p g^-1} when p g^-1 lies in P, else 0;
* cocycle:  w(g, h) = sum of delta_t over t in P with t g and t g h in P
  (the trivial cocycle g . (h . 1));
* g . 1    = sum of delta_t over t in P with t g in P;

so the crossed product has dimension sum_g |P cap P g| and, P being
nonempty, the enveloping algebra is all of k^G (dimension |G|).
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

COMMANDS = ("verify", "build-crossed", "globalize", "morita", "gauge",
            "separability", "report")
BUNDLED_FILES = ("degenerate_swap.json", "f_c3.json", "f_coc_1.json",
                 "f_coc_2.json", "trivial_hopf.json")
PRIME = 10007
# Gauge scalars are drawn from this fixed pool so that the size of the
# rational numbers, and with it the cost of exact arithmetic, does not
# depend on the seed.
GAUGE_POOL = tuple(Fraction(x) for x in
                   ("2", "3", "-2", "-3", "1/2", "1/3", "-1/2", "3/2"))
# Per-input caps are CAP_FACTOR times the input's expected seconds on a
# 2-core x86 box, and never below CAP_FLOOR, so that a timeout means a
# defect and never run-to-run noise.
CAP_FACTOR = 8.0
CAP_FLOOR = 20.0


@dataclass
class Input:
    """One benchmark case: ``argv`` is passed to ``hopfcross.cli.main``."""

    id: str
    command: str
    path: Path
    expected: dict
    est_s: float
    largest: bool = False     # of the workload's largest size

    @property
    def argv(self) -> list:
        return [self.command, str(self.path), "--format", "json"]

    @property
    def cap_s(self) -> float:
        return max(CAP_FLOOR, CAP_FACTOR * self.est_s)


# ---------------------------------------------------------------------------
# groups and rungs


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


GROUPS = {"C2": cyclic_table(2), "C3": cyclic_table(3), "C4": cyclic_table(4),
          "V4": klein_table()}


@dataclass
class Rung:
    """Closed-form partial action of a group on the corner at ``points``.

    Tensors are nested lists of ints or Fractions, indexed as in the
    definition-file format; element 0 of the table is the identity.
    """

    group: str
    table: list
    points: tuple
    action: list
    cocycle: list
    unit_translates: list
    gauge: list | None

    @property
    def n(self):
        return len(self.table)

    @property
    def m(self):
        return len(self.points)

    def crossed_dim(self):
        pts = set(self.points)
        return sum(len(pts & {self.table[p][g] for p in pts})
                   for g in range(self.n))


def make_rung(group: str, rng: random.Random, gauge: bool) -> Rung:
    """The translation action of ``group`` cut to a seeded set of
    ceil(n/2) points, with the trivial cocycle and, when asked, the
    scaling gauge v(g) = lambda_g (g . 1), lambda_1 = 1."""
    table = GROUPS[group]
    n = len(table)
    points = tuple(sorted(rng.sample(range(n), math.ceil(n / 2))))
    pos = {p: i for i, p in enumerate(points)}
    inv = [table[g].index(0) for g in range(n)]
    m = len(points)
    action = [[[int(points[k] == table[points[i]][inv[g]]) for k in range(m)]
               for i in range(m)] for g in range(n)]
    cocycle = [[[int(table[points[k]][g] in pos
                     and table[table[points[k]][g]][h] in pos)
                 for k in range(m)] for h in range(n)] for g in range(n)]
    ones = [[int(table[points[k]][g] in pos) for k in range(m)]
            for g in range(n)]
    v = None
    if gauge:
        lam = [Fraction(1)] + [rng.choice(GAUGE_POOL) for _ in range(n - 1)]
        v = [[lam[g] * ones[g][k] for k in range(m)] for g in range(n)]
    return Rung(group, table, points, action, cocycle, ones, v)


def _strings(x):
    """Scalars as the exact strings of the definition-file format."""
    if isinstance(x, dict):
        return {k: _strings(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strings(v) for v in x]
    if isinstance(x, str):
        return x
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def spec_document(r: Rung, field_name: str) -> dict:
    """The definition file of a rung, written without hopfcross."""
    n, m, t = r.n, r.m, r.table
    inv = [t[g].index(0) for g in range(n)]
    delta = lambda *ix: int(len(set(ix)) == 1)
    doc = {
        "field": field_name,
        "hopf": {
            "mult": [[[int(t[i][j] == k) for k in range(n)] for j in range(n)]
                     for i in range(n)],
            "unit": [delta(i, 0) for i in range(n)],
            "comult": [[[delta(i, j, k) for k in range(n)] for j in range(n)]
                       for i in range(n)],
            "counit": [1] * n,
            "antipode": [[int(inv[i] == j) for j in range(n)]
                         for i in range(n)],
        },
        "algebra": {
            "mult": [[[delta(i, j, k) for k in range(m)] for j in range(m)]
                     for i in range(m)],
            "unit": [1] * m,
        },
        "action": r.action,
        "cocycle": r.cocycle,
    }
    if r.gauge is not None:
        doc["gauge"] = r.gauge
    return _strings(doc)


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# known answers


def rung_report_answer(r: Rung) -> dict:
    """What ``report`` must say about a valid rung with a gauge: five
    green stages, separability skipped for want of an integral."""
    cdim = r.crossed_dim()
    return {"exit": 0, "passed": True, "stages": {
        "verify": {"passed": True, "derived": {
            "hopf_dim": r.n, "base_dim": r.m, "cocycle_inverse_exists": True}},
        "build-crossed": {"passed": True, "derived": {"dim": cdim}},
        "globalize": {"passed": True, "derived": {
            "ambient_dim": r.n * r.m, "enveloping_dim": r.n}},
        "morita": {"passed": True, "derived": {
            "partial_dim": cdim, "global_dim": r.n * r.n}},
        "gauge": {"passed": True, "derived": {
            "fully_invertible": r.m == r.n}},
        "separability": {"skipped": "missing object 'integral_t'"},
    }}


def rung_verify_answer(r: Rung) -> dict:
    return {"exit": 0, "passed": True, "derived": {
        "hopf_dim": r.n, "base_dim": r.m, "cocycle_inverse_exists": True}}


# Sections a command needs beyond the partial action, in the order the
# CLI asks for them; a file without one is unusable input (exit 2).
_NEEDS = {"gauge": ("gauge",), "separability": ("integral_t", "center_c")}
# Values frozen for the shipped examples in tests/test_cli.py,
# tests/test_acceptance.py, README.md and ROADMAP.md.
_FROZEN = {
    ("f_c3.json", "verify"): {"derived": {
        "hopf_dim": 3, "base_dim": 2, "cocycle_inverse_exists": True}},
    ("f_c3.json", "build-crossed"): {"derived": {
        "dim": 4, "canonical_map": {"quotient_dim": 8, "target_dim": 12,
                                    "rank": 8, "injective": True,
                                    "surjective": False}}},
    ("f_c3.json", "globalize"): {"derived": {
        "ambient_dim": 6, "enveloping_dim": 3}},
    ("f_c3.json", "morita"): {"derived": {
        "partial_dim": 4, "global_dim": 9, "first_bimodule_dim": 6,
        "second_bimodule_dim": 6, "sigma_rank": 9, "tau_rank": 4,
        "sigma_surjective": True, "tau_surjective": True}},
    ("f_c3.json", "report"): {"stages": {
        "verify": {"passed": True}, "morita": {"passed": True},
        "gauge": {"skipped": "missing object 'gauge'"},
        "separability": {"skipped": "missing object 'integral_t'"}}},
    ("f_coc_1.json", "separability"): {"derived": {
        "element_lift": ["1/2", "0", "0", "1/2"],
        "canonical_map_bijective": True}},
    ("f_coc_2.json", "gauge"): {"derived": {"fully_invertible": True}},
    ("degenerate_swap.json", "morita"): {"derived": {
        "sigma_rank": 4, "global_dim": 4}},
}
# f_coc_2 has cocycle weight 2, so globalization (trivial cocycles only)
# is refused, as a red verdict for the single commands and as skipped
# stages inside report.
_REFUSED = "PreconditionError"


def bundled_answer(fname: str, command: str, sections) -> dict:
    for need in _NEEDS.get(command, ()):
        if need not in sections:
            return {"exit": 2, "stderr": f"missing object '{need}'"}
    if fname == "f_coc_2.json" and command in ("globalize", "morita"):
        return {"exit": 1, "passed": False,
                "errors": [{"stage": command, "error": _REFUSED}]}
    ans = {"exit": 0, "passed": True}
    if fname == "f_coc_2.json" and command == "report":
        ans["stages"] = {"globalize": {"skipped": _REFUSED},
                         "morita": {"skipped": _REFUSED},
                         "gauge": {"passed": True}}
    ans.update(_FROZEN.get((fname, command), {}))
    return ans


# ---------------------------------------------------------------------------
# workloads

# Expected seconds per input at the seed commit, used only for caps.
_BUNDLED_EST = {("f_c3.json", "verify"): 2.0, ("f_c3.json", "build-crossed"): 1.0,
                ("f_c3.json", "globalize"): 1.0, ("f_c3.json", "morita"): 4.0,
                ("f_c3.json", "report"): 8.0}
_LADDER = (("C2", 0.3), ("C3", 11.0))
_MUTANT_RUNGS = (("C3", 0.5), ("V4", 3.0))
MUTATIONS = ("action_unit", "cocycle_left_unit", "cocycle_right_unit")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("bundled", "ladder-qq", "mutants-fp")


def bundled_inputs(data_dir: Path, out: Path):
    inputs = []
    for fname in BUNDLED_FILES:
        path = out / fname
        shutil.copyfile(data_dir / fname, path)
        sections = set(json.loads(path.read_text(encoding="utf-8")))
        for cmd in COMMANDS:
            inputs.append(Input(
                f"{fname[:-5]}:{cmd}", cmd, path,
                bundled_answer(fname, cmd, sections),
                _BUNDLED_EST.get((fname, cmd), 0.5),
                largest=(fname, cmd) == ("f_c3.json", "report")))
    return inputs


def ladder_inputs(out: Path, rng: random.Random):
    inputs = []
    for group, est in _LADDER:
        r = make_rung(group, rng, gauge=True)
        path = out / f"ladder_{group}.json"
        _write(path, spec_document(r, "rational"))
        inputs.append(Input(f"{group}:report", "report", path,
                            rung_report_answer(r), est,
                            largest=group == _LADDER[-1][0]))
    return inputs


def mutate(r: Rung, kind: str, rng: random.Random):
    """Change one entry of a unit slice by a nonzero residue mod PRIME.

    Returns the mutated (action, cocycle) and the violation it forces:
    the Hopf unit no longer acts as the identity on basis element j, or
    w(1, h_j) resp. w(h_i, 1) no longer equals h . 1.
    """
    action, cocycle = copy.deepcopy(r.action), copy.deepcopy(r.cocycle)
    a = rng.randrange(r.n if kind == "cocycle_right_unit" else r.m)
    b = rng.randrange(r.n if kind == "cocycle_left_unit" else r.m)
    k = rng.randrange(r.m)
    bump = rng.randrange(1, PRIME)
    if kind == "action_unit":
        j, k = a, b
        action[0][j][k] = (action[0][j][k] + bump) % PRIME
        forced = ("unit_acts_trivially", [j])
    elif kind == "cocycle_left_unit":
        cocycle[0][b][k] = (cocycle[0][b][k] + bump) % PRIME
        forced = ("cocycle_normalized_left", [b])
    else:
        cocycle[a][0][k] = (cocycle[a][0][k] + bump) % PRIME
        forced = ("cocycle_normalized_right", [a])
    return action, cocycle, forced


def mutant_inputs(out: Path, rng: random.Random):
    inputs = []
    field_name = f"prime:{PRIME}"
    for group, est in _MUTANT_RUNGS:
        r = make_rung(group, rng, gauge=False)
        path = out / f"valid_{group}.json"
        _write(path, spec_document(r, field_name))
        inputs.append(Input(f"{group}:valid", "verify", path,
                            rung_verify_answer(r), est,
                            largest=group == _MUTANT_RUNGS[-1][0]))
        for kind in MUTATIONS:
            action, cocycle, (identity, index) = mutate(r, kind, rng)
            path = out / f"mutant_{group}_{kind}.json"
            _write(path, spec_document(
                replace(r, action=action, cocycle=cocycle), field_name))
            inputs.append(Input(
                f"{group}:{kind}", "verify", path,
                {"exit": 1, "passed": False,
                 "violation": {"identity": identity, "index": index}},
                est, largest=group == _MUTANT_RUNGS[-1][0]))
    return inputs


def make_inputs(workload: str, seed: int, data_dir: Path, out: Path):
    """Write the workload's files under ``out`` and return its inputs.
    The same seed gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "bundled":
        inputs = bundled_inputs(data_dir, out)
    elif workload == "ladder-qq":
        inputs = ladder_inputs(out, rng)
    elif workload == "mutants-fp":
        inputs = mutant_inputs(out, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
