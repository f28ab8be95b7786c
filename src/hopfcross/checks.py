"""Check reports: the uniform result type of every verifier.

A report carries the names of all identities that were checked and a list
of violations; it passes iff the list is empty.  Each violation pins down
one failing instance: the identity name, the tuple of basis indices at
which it fails, and the two evaluated sides as strings, formatted when
the violation is recorded.  Violations are kept sorted (identity name,
then index tuple) so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SubspaceBasis, coords_in_many, equal_entries, to_strings


@dataclass(frozen=True)
class Violation:
    identity: str
    index: tuple
    lhs: tuple          # of strings
    rhs: tuple

    def sort_key(self):
        return (self.identity, self.index)


@dataclass
class CheckReport:
    title: str
    identities: tuple = ()
    violations: tuple = ()
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def identity_passed(self, name: str) -> bool:
        if name not in self.identities:
            raise ValueError(f"{name!r} was not checked in {self.title!r}")
        return all(v.identity != name for v in self.violations)

    def merged(self, other: "CheckReport") -> "CheckReport":
        """The union of both reports under this one's title, with each
        (identity, index) once: an identity both checked fails at the
        same indices in both."""
        vs = {v.sort_key(): v for v in self.violations + other.violations}
        return CheckReport(
            title=self.title,
            identities=self.identities + tuple(
                n for n in other.identities if n not in self.identities),
            violations=tuple(vs[k] for k in sorted(vs)),
            notes=self.notes + tuple(n for n in other.notes if n not in self.notes),
        )

    def summary(self) -> str:
        mark = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.title}: {mark}"

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "identities": list(self.identities),
            "notes": list(self.notes),
            "violations": [
                {
                    "identity": v.identity,
                    "index": list(v.index),
                    "lhs": list(v.lhs),
                    "rhs": list(v.rhs),
                }
                for v in self.violations
            ],
        }


class ReportBuilder:
    """Accumulates identity checks into one CheckReport."""

    def __init__(self, title: str):
        self.title = title
        self._identities = []
        self._violations = []
        self._notes = []

    def compare(self, identity: str, lhs, rhs):
        """Compare two Exact tensors whose last axis is the output
        coordinate.

        All leading axes are basis indices; every index tuple at which the
        output vectors differ becomes one violation, in row-major order.
        The entries are compared as integers; only when some differ are
        the violating rows searched for and formatted.  FieldMismatchError
        across two fields.
        """
        if np.shape(lhs) != np.shape(rhs):
            raise ValueError(f"{identity}: shape mismatch "
                             f"{np.shape(lhs)} vs {np.shape(rhs)}")
        self._identities.append(identity)
        same = equal_entries(lhs, rhs)
        if same.all():
            return
        for idx in map(tuple, np.argwhere(~same.all(axis=-1)).tolist()):
            self._violations.append(Violation(
                identity, idx, tuple(to_strings(lhs[idx])),
                tuple(to_strings(rhs[idx]))))

    def require(self, identity: str, ok: bool, index=(), lhs=(), rhs=()):
        """Record a single named yes/no check; its sides are counts,
        booleans or words, recorded as their ``str``."""
        self._identities.append(identity)
        if not ok:
            self._violations.append(Violation(
                identity, tuple(index), tuple(map(str, lhs)),
                tuple(map(str, rhs))))

    def require_inside(self, identity: str, table, sub: SubspaceBasis,
                       where: str):
        """Check that every vector on the last axis of ``table`` lies in the
        subspace ``sub``: each one outside is a violation at its index in
        the leading axes, with the vector as lhs and ``where`` as rhs."""
        self._identities.append(identity)
        for index in coords_in_many(sub, table)[1]:
            self._violations.append(Violation(
                identity, index, tuple(to_strings(table[index])), (where,)))

    def note(self, text: str):
        self._notes.append(text)

    def absorb(self, report: CheckReport, prefix: str = ""):
        """Inline another report's results, optionally prefixing identity names."""
        for name in report.identities:
            self._identities.append(prefix + name)
        for v in report.violations:
            self._violations.append(
                Violation(prefix + v.identity, v.index, v.lhs, v.rhs))
        self._notes.extend(report.notes)

    def build(self) -> CheckReport:
        return CheckReport(
            title=self.title,
            identities=tuple(dict.fromkeys(self._identities)),
            violations=tuple(sorted(self._violations, key=Violation.sort_key)),
            notes=tuple(self._notes),
        )
