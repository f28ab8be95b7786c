"""Definition files: a JSON wire format for the objects the command-line
tool works on.

A file holds a field descriptor plus named tensors with all scalars
written as exact strings ("3/2" over the rationals, "2 mod 5" over a
prime field), nested arrays indexed exactly like the in-memory tensors.
The structured sections are

* "hopf": mult/unit/comult/counit/antipode,
* "algebra": mult/unit,

and the plain sections are tensors: "action", "cocycle", "gauge",
"gamma", "gamma_prime", "integral_t", "center_c".  Any other key, at
the top level or inside a structured section, is an input error, and so
is a file that is not UTF-8 text.  Parse failures name the JSON path of
the offending entry.

:func:`serialize_spec` writes the one canonical text of a SpecFile, and
two SpecFiles are equal exactly when their canonical texts are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import SpecFileError
from .fields import Field
from .hopf import AlgebraData, CoalgebraData, HopfAlgebraData
from .linalg import Exact, from_ratios, to_strings
from .partial import TwistedPartialAction

# Each plain section and the axes of its shape: h is dim H, a is dim A
# and * any length.  A section whose shape names h needs a 'hopf'
# section, one that names a an 'algebra' section.  Sections are parsed,
# and their errors reported, in this order.
_SECTIONS = {
    "action": "haa",
    "cocycle": "hha",
    "gauge": "ha",
    "gamma": "h*",
    "gamma_prime": "h*",
    "integral_t": "h",
    "center_c": "a",
}


@dataclass(frozen=True, eq=False)
class SpecFile:
    fld: Field
    hopf: HopfAlgebraData | None = None
    algebra: AlgebraData | None = None
    action: Exact | None = None
    cocycle: Exact | None = None
    gauge: Exact | None = None
    gamma: Exact | None = None
    gamma_prime: Exact | None = None
    integral_t: Exact | None = None
    center_c: Exact | None = None

    def __eq__(self, other):
        if not isinstance(other, SpecFile):
            return NotImplemented
        return serialize_spec(self) == serialize_spec(other)

    def require(self, *names) -> tuple:
        """The named sections in order, or a SpecFileError naming the
        first one the file lacks."""
        for name in names:
            if getattr(self, name) is None:
                raise SpecFileError(f"missing object {name!r}")
        return tuple(getattr(self, name) for name in names)

    def partial_action(self) -> TwistedPartialAction:
        """The twisted partial action the file describes, or a
        SpecFileError naming what is missing."""
        return TwistedPartialAction(
            *self.require("hopf", "algebra", "action", "cocycle"))


def _tensor(fld, node, shape, path) -> Exact:
    """Parse a nested list of scalar strings into an Exact of the given
    shape; any None in the shape accepts whatever length appears at that
    level (reported back through the result)."""
    ratios = []
    return from_ratios(fld, ratios, _scalars(fld, node, shape, path, ratios))


def _scalars(fld, node, shape, path, ratios) -> tuple:
    """Append the integer pairs of the scalars under ``node`` to
    ``ratios`` in row-major order, and return the shape they fill.
    ``path`` is a section name or (enclosing path, index): see :func:`_at`."""
    if not shape:
        try:
            ratios.append(fld.parse(node))
        except (TypeError, ValueError) as exc:
            raise SpecFileError(f"{_at(path)}: {exc}") from None
        return ()
    if not isinstance(node, list):
        raise SpecFileError(f"{_at(path)}: expected a list, got "
                            f"{type(node).__name__}")
    want = shape[0]
    if want is not None and len(node) != want:
        raise SpecFileError(f"{_at(path)}: expected length {want}, "
                            f"got {len(node)}")
    if want is None and not node:
        raise SpecFileError(f"{_at(path)}: empty dimension")
    sub = [_scalars(fld, item, shape[1:], (path, i), ratios)
           for i, item in enumerate(node)]
    for i, item in enumerate(sub):
        if item != sub[0]:
            raise SpecFileError(f"{_at((path, i))}: ragged nesting")
    return (len(node),) + sub[0]


def _at(path) -> str:
    """A :func:`_scalars` path spelled out, as ``hopf.mult[1][0]``."""
    return path if isinstance(path, str) else f"{_at(path[0])}[{path[1]}]"


def _require(obj, key, path):
    if key not in obj:
        raise SpecFileError(f"{path}: missing {key!r}")
    return obj[key]


_ALGEBRA_KEYS = ("mult", "unit")


def _parse_algebra(fld, obj, path, keys=_ALGEBRA_KEYS) -> AlgebraData:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise SpecFileError(f"{path}: unknown key {key!r}")
    mult_node = _require(obj, "mult", path)
    if not isinstance(mult_node, list) or not mult_node:
        raise SpecFileError(f"{path}.mult: expected a nonempty list")
    n = len(mult_node)
    mult = _tensor(fld, mult_node, (n, n, n), f"{path}.mult")
    unit = _tensor(fld, _require(obj, "unit", path), (n,), f"{path}.unit")
    return AlgebraData(mult, unit)


def _parse_hopf(fld, obj, path) -> HopfAlgebraData:
    alg = _parse_algebra(fld, obj, path,
                         _ALGEBRA_KEYS + ("comult", "counit", "antipode"))
    n = alg.dim
    comult = _tensor(fld, _require(obj, "comult", path), (n, n, n),
                     f"{path}.comult")
    counit = _tensor(fld, _require(obj, "counit", path), (n,),
                     f"{path}.counit")
    antipode = _tensor(fld, _require(obj, "antipode", path), (n, n),
                       f"{path}.antipode")
    coalg = CoalgebraData(comult, counit)
    return HopfAlgebraData(alg, coalg, antipode)


def parse_spec(text: str, field: Field | None = None) -> SpecFile:
    """Parse a definition file.  ``field`` overrides the file's own
    descriptor when given."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # a number of more digits than int() reads, or nesting deeper
        # than the decoder's recursion
        raise SpecFileError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected an object")
    if field is not None:
        fld = field
    else:
        if "field" not in doc:
            raise SpecFileError("missing field descriptor")
        try:
            fld = Field.from_name(doc["field"])
        except (TypeError, ValueError) as exc:
            raise SpecFileError(f"field: {exc}") from None

    for key in doc:
        if key not in ("field", "hopf", "algebra", *_SECTIONS):
            raise SpecFileError(f"unknown section {key!r}")

    hopf = _parse_hopf(fld, doc["hopf"], "hopf") if "hopf" in doc else None
    algebra = (_parse_algebra(fld, doc["algebra"], "algebra")
               if "algebra" in doc else None)
    dims = {"h": hopf.dim if hopf else None,
            "a": algebra.dim if algebra else None, "*": None}
    out = {}
    for name, axes in _SECTIONS.items():
        if name not in doc:
            continue
        if "h" in axes and hopf is None:
            raise SpecFileError(f"{name}: requires a 'hopf' section")
        if "a" in axes and algebra is None:
            raise SpecFileError(f"{name}: requires an 'algebra' section")
        out[name] = _tensor(fld, doc[name], tuple(map(dims.get, axes)), name)
    return SpecFile(fld=fld, hopf=hopf, algebra=algebra, **out)


def _emit_algebra(a: AlgebraData) -> dict:
    return {"mult": to_strings(a.mult), "unit": to_strings(a.unit)}


def serialize_spec(spec: SpecFile) -> str:
    """Canonical JSON text; parsing it back gives an equal SpecFile."""
    doc = {"field": spec.fld.name}
    if spec.hopf is not None:
        h = spec.hopf
        doc["hopf"] = _emit_algebra(h.algebra)
        doc["hopf"].update({
            "comult": to_strings(h.comult),
            "counit": to_strings(h.counit),
            "antipode": to_strings(h.antipode),
        })
    if spec.algebra is not None:
        doc["algebra"] = _emit_algebra(spec.algebra)
    for name in _SECTIONS:
        val = getattr(spec, name)
        if val is not None:
            doc[name] = to_strings(val)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_spec(path, field: Field | None = None) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFileError(f"not UTF-8 text at byte offset "
                                f"{exc.start}: {exc.reason}") from None
    return parse_spec(text, field)


def save_spec(spec: SpecFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_spec(spec))
