"""The JSON definition-file format: round trips, bundled data files,
and the error paths of the parser."""

import dataclasses
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from hopfcross.cli import main
from hopfcross.errors import SpecFileError
from hopfcross.fields import Field
from hopfcross.fixtures import (c3_partial, cocycle_pair, degenerate_swap,
                                trivial_hopf)
from hopfcross.linalg import arr, eqarr
from hopfcross.specfile import (SpecFile, load_spec, parse_spec, save_spec,
                                serialize_spec)

QQ = Field.rationals()
F5 = Field.prime(5)


def data_text(name):
    return (resources.files("hopfcross") / "data" / name).read_text()


def spec_from_tpa(tpa, **extra):
    return SpecFile(fld=tpa.fld, hopf=tpa.hopf, algebra=tpa.alg,
                    action=tpa.action, cocycle=tpa.cocycle, **extra)


def test_bundled_main_fixture_matches_in_memory_fixture():
    spec = parse_spec(data_text("f_c3.json"))
    assert spec == spec_from_tpa(c3_partial())
    tpa = spec.partial_action()
    assert tpa.hopf.dim == 3 and tpa.alg.dim == 2


def test_bundled_pair_fixture_carries_integral_and_centre():
    spec = parse_spec(data_text("f_coc_1.json"))
    assert spec.fld == QQ
    assert eqarr(spec.integral_t, arr(QQ, [1, 1]))
    assert eqarr(spec.center_c, arr(QQ, ["1/2"]))
    assert spec == spec_from_tpa(cocycle_pair(1),
                                 integral_t=arr(QQ, [1, 1]),
                                 center_c=arr(QQ, ["1/2"]))


def test_bundled_gauge_fixture():
    spec = parse_spec(data_text("f_coc_2.json"))
    assert eqarr(spec.gauge, arr(QQ, [[1], [3]]))
    assert spec.partial_action().cocycle[1, 1, 0] == arr(QQ, 2)


def test_bundled_degenerate_fixture():
    spec = parse_spec(data_text("degenerate_swap.json"))
    assert spec == spec_from_tpa(degenerate_swap())


@pytest.mark.parametrize("name", ["f_c3.json", "f_coc_1.json", "f_coc_2.json",
                                  "degenerate_swap.json", "trivial_hopf.json"])
def test_bundled_files_round_trip_byte_identical(name):
    text = data_text(name)
    assert serialize_spec(parse_spec(text)) == text


def test_serialize_parse_round_trip_mod5():
    spec = spec_from_tpa(cocycle_pair(3, F5))
    again = parse_spec(serialize_spec(spec))
    assert again == spec
    assert again.fld == F5


def test_save_and_load(tmp_path):
    spec = spec_from_tpa(c3_partial())
    p = tmp_path / "fixture.json"
    save_spec(spec, p)
    assert load_spec(p) == spec


def test_specs_differing_in_one_tensor_entry_are_unequal():
    spec = spec_from_tpa(c3_partial())
    action = reference.integers(spec.action)
    action[1, 0, 1] += 1
    assert spec_from_tpa(c3_partial()) == spec
    assert SpecFile(fld=QQ, hopf=spec.hopf, algebra=spec.algebra,
                    action=arr(QQ, action), cocycle=spec.cocycle) != spec


def test_specs_differing_in_a_label_are_unequal():
    tpa = c3_partial()
    relabelled = dataclasses.replace(
        tpa.hopf, algebra=dataclasses.replace(
            tpa.hopf.algebra, labels=("1", "g", "h")))
    assert spec_from_tpa(dataclasses.replace(tpa, hopf=relabelled)) != \
        spec_from_tpa(tpa)


def test_specs_differing_in_the_field_are_unequal():
    qq, f5 = spec_from_tpa(cocycle_pair(3)), spec_from_tpa(cocycle_pair(3, F5))
    assert qq != f5
    assert parse_spec(serialize_spec(qq), field=F5) == f5


def test_spec_missing_a_section_is_unequal():
    spec = spec_from_tpa(cocycle_pair(1), integral_t=arr(QQ, [1, 1]))
    assert spec != spec_from_tpa(cocycle_pair(1))
    assert spec_from_tpa(cocycle_pair(1)) != spec
    assert SpecFile(fld=QQ, hopf=spec.hopf) != SpecFile(fld=QQ)
    assert spec != "not a spec"


def test_field_override():
    text = data_text("f_coc_1.json")
    spec = parse_spec(text, field=F5)
    assert spec.fld == F5
    assert spec.partial_action().fld == F5


def test_missing_field_descriptor():
    with pytest.raises(SpecFileError, match="missing field descriptor"):
        parse_spec("{}")


def test_malformed_json_reports_position():
    with pytest.raises(SpecFileError, match=r"line 1, column 2"):
        parse_spec("{oops")


def test_unknown_section():
    with pytest.raises(SpecFileError, match="unknown section 'extra'"):
        parse_spec('{"field": "rational", "extra": 1}')


def test_unknown_field_name():
    with pytest.raises(SpecFileError, match="field:"):
        parse_spec('{"field": "octonions"}')


@pytest.mark.parametrize("key", ["global", "global_action", "twist",
                                 "idempotent", "theta"])
def test_keys_no_command_reads_are_unknown_sections(key):
    doc = json.loads(data_text("f_c3.json"))
    doc[key] = [["1"]]
    with pytest.raises(SpecFileError, match=f"^unknown section '{key}'$"):
        parse_spec(json.dumps(doc))


def test_spec_file_holds_the_sections_it_accepts():
    assert [f.name for f in dataclasses.fields(SpecFile)] == [
        "fld", "hopf", "algebra", "action", "cocycle", "gauge", "gamma",
        "gamma_prime", "integral_t", "center_c"]


def test_gamma_requires_hopf_section():
    # gamma has one row per Hopf basis element
    with pytest.raises(SpecFileError,
                       match="^gamma: requires a 'hopf' section$"):
        parse_spec('{"field": "rational", "gamma": [["1"]]}')


def test_section_errors_come_in_table_order():
    # gauge before gamma, although both lack their 'hopf' section
    with pytest.raises(SpecFileError, match="^gauge: requires a 'hopf'"):
        parse_spec('{"field": "rational", "gamma": [["1"]], '
                   '"gauge": [["1"]]}')


def test_action_requires_hopf_section():
    with pytest.raises(SpecFileError, match="action: requires a 'hopf'"):
        parse_spec('{"field": "rational", '
                   '"algebra": {"mult": [[["1"]]], "unit": ["1"]}, '
                   '"action": [[["1"]]]}')


def test_shape_error_names_the_path():
    doc = json.loads(data_text("f_c3.json"))
    doc["action"][1][0] = ["1"]  # drop one column entry
    with pytest.raises(SpecFileError, match=r"action\[1\]\[0\]: expected length 2"):
        parse_spec(json.dumps(doc))


def test_scalar_error_names_the_path():
    doc = json.loads(data_text("f_c3.json"))
    doc["cocycle"][0][0][0] = "one"
    with pytest.raises(SpecFileError, match=r"cocycle\[0\]\[0\]\[0\]"):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("field", [None, "prime:5"])
@pytest.mark.parametrize("flag", [True, False])
def test_json_boolean_scalar_is_an_input_error(tmp_path, capsys, field, flag):
    doc = json.loads(data_text("f_c3.json"))
    doc["cocycle"][0][1][0] = flag
    fld = Field.from_name(field) if field else None
    with pytest.raises(SpecFileError,
                       match=r"cocycle\[0\]\[1\]\[0\]: .*got bool"):
        parse_spec(json.dumps(doc), fld)
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", str(path)] + (["--field", field] if field else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cocycle[0][1][0]: ") and "bool" in err


def test_partial_action_reports_missing_object():
    spec = parse_spec('{"field": "rational"}')
    with pytest.raises(SpecFileError, match="missing object 'hopf'"):
        spec.partial_action()


def test_require_names_the_first_missing_section_in_the_order_asked():
    spec = parse_spec(data_text("f_coc_1.json"))
    assert spec.require("integral_t", "center_c") == (spec.integral_t,
                                                      spec.center_c)
    with pytest.raises(SpecFileError, match="^missing object 'gauge'$"):
        spec.require("integral_t", "gauge", "gamma")


def test_trivial_hopf_data_file():
    spec = parse_spec(data_text("trivial_hopf.json"))
    assert spec.hopf.dim == trivial_hopf().dim == 1


# -- parse_spec on arbitrary JSON ----------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)
FIELDS = st.sampled_from(["rational", "prime:2", "prime:5", "prime:7"])
SCALARS = (st.sampled_from(["1", "-2", "1/2", "3 mod 5", "2/3 mod 7", "0/0"])
           | JSON)


def one_dimensional(field, scalar):
    """A definition file of a one-dimensional Hopf algebra acting on a
    one-dimensional algebra, with every scalar ``scalar``."""
    one = [[[scalar]]]
    return {"field": field,
            "hopf": {"mult": one, "unit": [scalar], "comult": one,
                     "counit": [scalar], "antipode": [[scalar]]},
            "algebra": {"mult": one, "unit": [scalar]},
            "action": one, "cocycle": one}


@st.composite
def documents(draw):
    """Arbitrary JSON, a JSON object of known and unknown sections with
    arbitrary values, or a one-dimensional definition file with random
    scalars, one section of it possibly replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(["json", "sections", "file"]))
    if kind == "json":
        return draw(JSON)
    if kind == "sections":
        keys = st.sampled_from(["field", "hopf", "algebra", "action",
                                "cocycle", "global", "twist", "theta",
                                "idempotent", "gauge", "gamma"]) | st.text()
        return draw(st.dictionaries(keys, JSON, max_size=5))
    doc = one_dimensional(draw(FIELDS), draw(SCALARS))
    doc["hopf"]["unit"] = [draw(SCALARS)]
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON)
    return doc


def scalar_file(scalar, field="rational"):
    return json.dumps(one_dimensional(field, scalar))


@given(documents().map(json.dumps))
# scalars that int(), float() or Fraction() would read, or would take
# unbounded time on, and scalars that are not strings at all
@example(scalar_file("1e999999999"))
@example(scalar_file("1_0"))
@example(scalar_file("\u0663"))
@example(scalar_file("3/0"))
@example(scalar_file("2 mod 7", "prime:5"))
@example(scalar_file("1/5", "prime:5"))
@example(scalar_file(True))
@example(scalar_file(1.5))
# a number of more digits than int() reads, and nesting deeper than the
# JSON decoder recurses
@example('{"field": "rational", "action": 1' + "0" * 5000 + "}")
@example("[" * 100000 + "]" * 100000)
@settings(max_examples=300, deadline=1000)
def test_parse_spec_gives_a_spec_file_or_an_input_error(text):
    try:
        spec = parse_spec(text)
    except SpecFileError as exc:
        assert str(exc)
        return
    assert isinstance(spec, SpecFile)
    assert parse_spec(serialize_spec(spec)) == spec
