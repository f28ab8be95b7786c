"""Scalars: parsing into integers, formatting, exact arithmetic on
them, and field-mixing rejection."""

import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfcross.fields import Field, FieldMismatchError
from hopfcross.linalg import arr, contract

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


def test_rational_arithmetic_is_exact():
    assert arr(QQ, ["1/3"]) - arr(QQ, ["-1/6"]) == arr(QQ, ["1/2"])
    third = contract("i,i->", arr(QQ, ["1/3", "1/6"]), arr(QQ, [1, 4]))
    assert (third.ints, third.den) == (1, 1)


def test_prime_field_inverse():
    # x * (1 / x) == 1, and a quotient is read as a residue
    x, inv = arr(F5, [2]), arr(F5, ["1/2"])
    assert contract("i,i->", x, inv) == arr(F5, 1)
    assert Field.prime(7).parse("3/2") == (5, 1)


def test_prime_field_division_by_zero():
    for s in ("1/0", "3/10"):
        with pytest.raises(ValueError, match="non-invertible denominator"):
            F5.parse(s)


def test_mixing_distinct_primes_rejected():
    with pytest.raises(FieldMismatchError):
        contract("i,i->", arr(F3, [1]), arr(F5, [1]))


def test_mixing_rational_and_prime_rejected():
    with pytest.raises(FieldMismatchError):
        contract("i,i->", arr(F3, [1]), arr(QQ, ["1/2"]))


def test_int_lifts_into_prime_field():
    assert F5.parse(7) == F5.parse("2 mod 5") == (2, 1)
    assert F5.parse(-1) == (4, 1)
    assert arr(F5, [6, -1, 4]).ints.tolist() == [1, 4, 4]


@pytest.mark.parametrize("s", ["0", "7", "-3", "1/2", "-22/7"])
def test_rational_parse_format_round_trip(s):
    assert QQ.format(*QQ.parse(s)) == s


@pytest.mark.parametrize("s", ["0.5", "1_000", "1e6", "1e999999999", "1/-2",
                               "1 / 2", "/2", "", "inf", "1/0"])
def test_rational_parse_accepts_only_integers_and_quotients(s):
    # Fraction's own parser also reads decimals, underscores and
    # exponents, and takes unbounded time on a large exponent
    with pytest.raises(ValueError, match="bad rational scalar"):
        QQ.parse(s)


def test_rational_format_reduces():
    assert QQ.format(2, 4) == "1/2"
    assert QQ.format(-4, 2) == "-2"
    assert QQ.parse("2/4") == (2, 4)


def test_prime_parse_variants():
    # plain residue, explicit modulus tag, invertible fraction form
    assert F5.parse("7") == (2, 1)
    assert F5.parse("2 mod 5") == (2, 1)
    assert F5.parse("1/2") == (3, 1)


@pytest.mark.parametrize("s", ["1_000", "1_0 mod 5", " 1 / 2 ", "\u0663"])
@pytest.mark.parametrize("fld", [QQ, F5], ids=["QQ", "F5"])
def test_both_fields_reject_what_int_alone_would_read(fld, s):
    # int() reads underscores, spaces around "/" once split, and
    # non-ASCII digits such as the Arabic-Indic three
    with pytest.raises(ValueError, match="scalar"):
        fld.parse(s)


@given(st.text(), st.sampled_from([QQ, F5, Field.prime(2**61 - 1)]))
@example(" -3/4 mod 5", F5)
@example("-3/4 mod 5", QQ)
@example("1/0", QQ)
@example("1/10", F5)
def test_parse_returns_a_ratio_or_raises_value_error(s, fld):
    try:
        n, d = fld.parse(s)
    except ValueError:
        return
    assert type(n) is type(d) is int and d > 0
    if fld.p is not None:
        assert d == 1 and 0 <= n < fld.p
    # the canonical string reads back as the same value
    m, e = fld.parse(fld.format(n, d))
    assert m * d == n * e


def test_prime_parse_rejects_wrong_modulus():
    with pytest.raises(ValueError):
        F5.parse("1 mod 7")


def test_prime_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        F5.parse("1/5")


def test_rational_parse_rejects_mod_syntax():
    with pytest.raises(ValueError):
        QQ.parse("2 mod 5")


def test_prime_format():
    assert F5.format(8, 1) == "3 mod 5"
    assert F5.format(-2, 1) == "3 mod 5"


def test_from_name_round_trip():
    for f in (QQ, F5, Field.prime(2)):
        assert Field.from_name(f.name) == f


def test_from_name_rejects_garbage():
    with pytest.raises(ValueError):
        Field.from_name("real")
    with pytest.raises(ValueError):
        Field.from_name("prime:x")


@given(st.text(alphabet="0123456789+-_ \u0667\uff17", max_size=6))
@example("07")
@example("1_0007")
def test_from_name_reads_a_prime_only_as_name_writes_it(digits):
    name = "prime:" + digits
    try:
        fld = Field.from_name(name)
    except ValueError:
        return
    assert fld.name == name


def test_prime_constructor_requires_prime():
    with pytest.raises(ValueError):
        Field.prime(4)


def test_prime_constructor_decides_large_primes():
    assert Field.prime(2**61 - 1).characteristic == 2**61 - 1
    # a Carmichael number and a strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError):
            Field.prime(n)
    # beyond the bound where the base set is proven exact it refuses
    with pytest.raises(ValueError, match="only decided below"):
        Field.prime(2**89 - 1)


def test_comparing_distinct_primes_rejected():
    with pytest.raises(FieldMismatchError):
        arr(F3, [1]) == arr(F5, [1])


def test_fields_are_values_not_shared_instances():
    # each constructor call is a new descriptor; copying one leaves every
    # other, the module's QQ included, as it was
    assert Field.prime(7) is not Field.prime(7)
    assert Field.rationals() is not QQ
    f7 = copy.deepcopy(Field.prime(7))
    assert f7 == Field.prime(7) and f7.p == 7
    assert QQ.p is None and Field.rationals() == QQ and repr(QQ) == "QQ"
    assert copy.copy(F5) == F5 and F5.p == 5


def test_characteristic():
    assert QQ.characteristic == 0
    assert F5.characteristic == 5


@pytest.mark.parametrize("fld", [QQ, F5], ids=["QQ", "F5"])
def test_parse_rejects_float(fld):
    with pytest.raises(ValueError, match="got float"):
        fld.parse(0.5)
    with pytest.raises(ValueError, match="got float"):
        arr(fld, [0.5])


@pytest.mark.parametrize("fld", [QQ, F5])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_a_scalar(fld, flag):
    # bool is an int subclass, so without a check True would parse as 1
    with pytest.raises(ValueError, match="got bool"):
        fld.parse(flag)
    with pytest.raises(ValueError, match="got bool"):
        arr(fld, [flag])
    assert fld.parse(1) == fld.parse("1") == (1, 1)
