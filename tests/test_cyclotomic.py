import random

import pytest

from nichols.cyclotomic import (CycloField, cyclotomic_modulus, field_of,
                                parse_scalar)
from nichols.errors import ConductorMismatch, ScalarParseError

SUPPORTED = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24]


def random_element(field, rng, span=6):
    return field.element([rng.randint(-span, span) for _ in range(field.phi)])


@pytest.mark.parametrize("n,phi", [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2),
                                   (12, 4), (105, 48)])
def test_euler_phi(n, phi):
    assert CycloField(n).phi == phi
    assert len(cyclotomic_modulus(n)) == phi + 1


def test_known_moduli():
    assert cyclotomic_modulus(1) == (-1, 1)
    assert cyclotomic_modulus(2) == (1, 1)
    assert cyclotomic_modulus(3) == (1, 1, 1)
    assert cyclotomic_modulus(4) == (1, 0, 1)
    assert cyclotomic_modulus(6) == (1, -1, 1)
    assert cyclotomic_modulus(12) == (1, 0, -1, 0, 1)


def test_minus_one_at_conductor_two():
    f = CycloField(2)
    assert f.root_of_unity(1) == f.rational(-1)


def test_i_squared_is_minus_one():
    f = CycloField(4)
    i = f.root_of_unity(1)
    assert i * i == f.rational(-1)


def test_phi3_relation():
    f = CycloField(3)
    z = f.root_of_unity(1)
    assert f.one() + z + z * z == f.zero()


@pytest.mark.parametrize("n", SUPPORTED)
def test_primitivity(n):
    f = CycloField(n)
    one = f.one()
    assert f.root_of_unity(0) == one
    z = f.root_of_unity(1)
    assert z ** n == one
    for k in range(1, n):
        assert z ** k != one


@pytest.mark.parametrize("n", SUPPORTED)
def test_field_axioms_random(n):
    rng = random.Random(1000 + n)
    f = CycloField(n)
    for _ in range(25):
        a, b, c = (random_element(f, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a:
            assert a * a.inv() == f.one()
            assert a.inv().inv() == a


def test_root_inverse_is_conjugate_exponent():
    f = CycloField(7)
    for k in range(1, 7):
        assert f.root_of_unity(k).inv() == f.root_of_unity(7 - k)


def test_nontrivial_inverse():
    f = CycloField(5)
    a = f.one() + f.root_of_unity(1)
    assert a * a.inv() == f.one()


def test_canonical_form_idempotent():
    f = CycloField(12)
    a = f.element([1, -2, 3, 0])
    assert f.element(list(a.coeffs)) == a
    assert len(a.coeffs) == f.phi


def test_conductor_mismatch_raises():
    a = CycloField(3).root_of_unity(1)
    b = CycloField(4).root_of_unity(1)
    with pytest.raises(ConductorMismatch):
        a * b


def test_embed_compatible_with_arithmetic():
    f3, f12 = CycloField(3), CycloField(12)
    z3 = f3.root_of_unity(1)
    assert z3.embed(f12) == f12.root_of_unity(4)
    a = f3.element([2, -3])
    b = f3.element([1, 5])
    assert (a * b).embed(f12) == a.embed(f12) * b.embed(f12)
    with pytest.raises(ConductorMismatch):
        f12.root_of_unity(1).embed(f3)


@pytest.mark.parametrize("n", SUPPORTED)
def test_text_round_trip(n):
    rng = random.Random(7 * n)
    f = CycloField(n)
    samples = [f.zero(), f.one(), f.rational(-1), f.root_of_unity(1),
               -f.root_of_unity(min(1, f.phi - 1))]
    samples += [random_element(f, rng) for _ in range(20)]
    for a in samples:
        assert parse_scalar(f, str(a)) == a, str(a)


def test_parse_examples():
    f = CycloField(3)
    half = f.rational(1, 2)
    assert parse_scalar(f, "1/2 - z3^1") == half - f.root_of_unity(1)
    assert parse_scalar(f, "-2/3*z3^2 + 1") == f.one() - f.rational(2, 3) * f.root_of_unity(2)
    assert parse_scalar(f, "0") == f.zero()
    assert parse_scalar(f, "z3") == f.root_of_unity(1)
    # literals with a dividing conductor embed
    f12 = CycloField(12)
    assert parse_scalar(f12, "z3^1") == f12.root_of_unity(4)
    assert parse_scalar(f12, "-1") == f12.rational(-1)
    # the smallest field every literal parses in
    assert field_of(["1/2 - z3^1", "2 z4", "5"]) == f12
    assert field_of(["1", "-1/2"]) == CycloField(1)


def test_parse_rejects_garbage():
    f = CycloField(3)
    # a zero denominator or conductor used to escape as ZeroDivisionError,
    # and a digit run past the interpreter's limit as ValueError
    long_run = "1" * 5000
    for bad in ["", "1 +", "* z3", "z3^1 z3^2", "2 2", "q", "1/0", "z0",
                "z0^1", "2*", "-", "1 ", "2 z3 z3", long_run, "1/" + long_run,
                "z" + long_run, "z3^-" + long_run]:
        with pytest.raises(ScalarParseError):
            parse_scalar(f, bad)
    with pytest.raises(ScalarParseError):
        CycloField(1).parse(long_run)
    with pytest.raises(ScalarParseError):
        field_of(["z" + long_run])
    with pytest.raises(ConductorMismatch):
        parse_scalar(f, "z5^1")


def test_formatting_canonical():
    f = CycloField(3)
    assert str(f.zero()) == "0"
    assert str(f.one()) == "1"
    assert str(f.rational(-1)) == "-1"
    assert str(f.rational(1, 2) - f.root_of_unity(1)) == "1/2 - z3^1"
    assert str(f.rational(2) * f.root_of_unity(1)) == "2*z3^1"


def test_division_and_pow():
    f = CycloField(5)
    z = f.root_of_unity(1)
    assert (z ** -3) * (z ** 3) == f.one()
    assert (f.one() + z) / (f.one() + z) == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()
