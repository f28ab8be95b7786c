"""The JSON definition-file format: round trips, bundled data files,
and the error paths of the parser."""

import dataclasses
import json
from importlib import resources

import pytest

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
    assert spec.partial_action().cocycle.elements[1, 1, 0] == QQ.coerce(2)


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
    action = spec.action.elements.copy()
    action[1, 0, 1] += 1
    assert spec_from_tpa(c3_partial()) == spec
    assert SpecFile(fld=QQ, hopf=spec.hopf, algebra=spec.algebra,
                    action=action, cocycle=spec.cocycle) != spec


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


def test_action_requires_hopf_section():
    with pytest.raises(SpecFileError, match="action: requires a 'hopf'"):
        parse_spec('{"field": "rational", '
                   '"algebra": {"mult": [[["1"]]], "unit": ["1"]}, '
                   '"action": [[["1"]]]}')


def test_orphaned_twist():
    with pytest.raises(SpecFileError, match="twist: requires a 'global'"):
        parse_spec('{"field": "rational", "twist": [[["1"]]]}')


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


def test_global_action_alias_and_top_level_twist():
    swap_alg = {"mult": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
                "unit": ["1", "1"]}
    hopf = {"mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "unit": ["1", "0"],
            "comult": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "counit": ["1", "1"],
            "antipode": [["1", "0"], ["0", "1"]]}
    action = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]
    twist = [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]
    base = {"field": "rational",
            "hopf": hopf,
            "global_action": {"algebra": swap_alg, "action": action},
            "twist": twist}
    spec = parse_spec(json.dumps(base))
    assert spec.glob is not None
    assert eqarr(spec.glob.twist, arr(QQ, twist))
    # inline twist parses to the same object
    inline = {"field": "rational", "hopf": hopf,
              "global": {"algebra": swap_alg, "action": action,
                         "twist": twist}}
    assert parse_spec(json.dumps(inline)) == spec


def test_idempotent_length_checked_against_global_algebra():
    doc = {"field": "rational",
           "hopf": json.loads(data_text("trivial_hopf.json"))["hopf"],
           "global": {"algebra": {"mult": [[["1", "0"], ["0", "0"]],
                                           [["0", "0"], ["0", "1"]]],
                                  "unit": ["1", "1"]},
                      "action": [[["1", "0"], ["0", "1"]]],
                      "twist": [[["1", "1"]]]},
           "idempotent": ["1"]}
    with pytest.raises(SpecFileError, match="idempotent: expected length 2"):
        parse_spec(json.dumps(doc))


def test_partial_action_reports_missing_object():
    spec = parse_spec('{"field": "rational"}')
    with pytest.raises(SpecFileError, match="missing object 'hopf'"):
        spec.partial_action()


def test_trivial_hopf_data_file():
    spec = parse_spec(data_text("trivial_hopf.json"))
    assert spec.hopf.dim == trivial_hopf().dim == 1
