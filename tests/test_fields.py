"""Scalar arithmetic: exactness, parsing, and field-mixing rejection."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfcross.fields import Field, FieldMismatchError, Fp

QQ = Field.rationals()
F5 = Field.prime(5)


def test_rational_arithmetic_is_exact():
    assert QQ.coerce("1/3") + QQ.coerce("1/6") == Fraction(1, 2)


def test_prime_field_inverse():
    x = Fp(2, 5)
    assert x * (F5.one() / x) == F5.one()
    assert Fp(3, 7) / Fp(2, 7) == Fp(5, 7)


def test_prime_field_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fp(1, 5) / Fp(0, 5)


def test_mixing_distinct_primes_rejected():
    with pytest.raises(FieldMismatchError):
        Fp(1, 3) + Fp(1, 5)


def test_mixing_rational_and_prime_rejected():
    with pytest.raises(FieldMismatchError):
        Fp(1, 3) + Fraction(1, 2)


def test_int_lifts_into_prime_field():
    assert Fp(2, 5) + 4 == Fp(1, 5)
    assert 2 * Fp(3, 5) == Fp(1, 5)
    assert 1 - Fp(3, 5) == Fp(3, 5)


@pytest.mark.parametrize("s", ["0", "7", "-3", "1/2", "-22/7"])
def test_rational_parse_format_round_trip(s):
    assert QQ.format(QQ.parse(s)) == s


@pytest.mark.parametrize("s", ["0.5", "1_000", "1e6", "1e999999999", "1/-2",
                               "1 / 2", "/2", "", "inf", "1/0"])
def test_rational_parse_accepts_only_integers_and_quotients(s):
    # Fraction's own parser also reads decimals, underscores and
    # exponents, and takes unbounded time on a large exponent
    with pytest.raises(ValueError, match="bad rational scalar"):
        QQ.parse(s)


def test_rational_format_reduces():
    assert QQ.format(Fraction(2, 4)) == "1/2"
    assert QQ.format(Fraction(-4, 2)) == "-2"


def test_prime_parse_variants():
    # plain residue, explicit modulus tag, invertible fraction form
    assert F5.parse("7") == Fp(2, 5)
    assert F5.parse("2 mod 5") == Fp(2, 5)
    assert F5.parse("1/2") == Fp(3, 5)


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
def test_parse_returns_an_element_or_raises_value_error(s, fld):
    try:
        x = fld.parse(s)
    except ValueError:
        return
    assert type(x) is type(fld.one()) and fld.parse(fld.format(x)) == x


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
    assert F5.format(Fp(8, 5)) == "3 mod 5"


def test_from_name_round_trip():
    for f in (QQ, F5, Field.prime(2)):
        assert Field.from_name(f.name) == f


def test_from_name_rejects_garbage():
    with pytest.raises(ValueError):
        Field.from_name("real")
    with pytest.raises(ValueError):
        Field.from_name("prime:x")


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
        Fp(1, 3) == Fp(1, 5)


def test_characteristic():
    assert QQ.characteristic == 0
    assert F5.characteristic == 5


def test_coerce_rejects_float():
    with pytest.raises(FieldMismatchError):
        QQ.coerce(0.5)
    with pytest.raises(FieldMismatchError):
        F5.coerce(0.5)


@pytest.mark.parametrize("fld", [QQ, F5])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_a_scalar(fld, flag):
    # bool is an int subclass, so without a check True would parse as 1
    with pytest.raises(ValueError, match="got bool"):
        fld.parse(flag)
    with pytest.raises(FieldMismatchError):
        fld.coerce(flag)
    assert fld.parse(1) == fld.coerce(1) == fld.one()


def test_fp_equals_only_its_canonical_residue():
    assert Fp(1, 5) == 1 and 1 == Fp(1, 5)
    assert Fp(1, 5) != 6 and Fp(4, 5) != -1
    assert hash(Fp(1, 5)) == hash(1)
    assert {1: "one"}[Fp(6, 5)] == "one"


@given(st.sampled_from([2, 5, 7, 10007]), st.integers(-30, 30),
       st.integers(-30, 30))
def test_fp_equality_implies_equal_hashes(p, a, b):
    for x, y in ((Fp(a, p), Fp(b, p)), (Fp(a, p), b), (b, Fp(a, p))):
        if x == y:
            assert hash(x) == hash(y)
