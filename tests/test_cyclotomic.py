import operator
import random
from fractions import Fraction

import pytest

from nichols.cyclotomic import (
    CycloField,
    CycloNumber,
    _add_scaled,
    _mul_coeffs,
    _nonzero,
    cyclotomic_modulus,
    field_of,
    mpq,
    parse_scalar,
)
from nichols.errors import ConductorMismatch, ScalarParseError

SUPPORTED = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24]
# the types of a scalar over Q: an integer, or an mpq when not integral
BARE = (int, type(mpq(1).numerator), type(mpq(1, 2)))


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
    assert f.parse("z2") == f.rational(-1)


def test_i_squared_is_minus_one():
    f = CycloField(4)
    i = f.parse("z4")
    assert i * i == f.rational(-1)


def test_phi3_relation():
    f = CycloField(3)
    z = f.parse("z3")
    assert f.one() + z + z * z == f.zero()


@pytest.mark.parametrize("n", SUPPORTED)
def test_primitivity(n):
    f = CycloField(n)
    one = f.one()
    assert f.parse(f"z{n}^0") == one
    z = f.parse(f"z{n}")
    power = one
    for k in range(1, n + 1):
        power = power * z
        assert (power == one) == (k == n), k


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
            assert a * f.inverse(a) == f.one()
            assert f.inverse(f.inverse(a)) == a


def test_root_inverse_is_conjugate_exponent():
    f = CycloField(7)
    for k in range(1, 7):
        assert f.parse(f"z7^{k}").inv() == f.parse(f"z7^{7 - k}")


def test_nontrivial_inverse():
    f = CycloField(5)
    a = f.one() + f.parse("z5")
    assert a * a.inv() == f.one()


def test_canonical_form_idempotent():
    f = CycloField(12)
    a = f.element([1, -2, 3, 0])
    assert f.element(list(a.coeffs)) == a
    assert len(a.coeffs) == f.phi


@pytest.mark.parametrize("n", SUPPORTED)
def test_coefficients_round_trip_through_element(n):
    # the raw form linalg computes on: a coefficient tuple of length phi(N),
    # a 1-tuple of the bare rational over Q; element makes an integral
    # rational left over from arithmetic an int again
    rng = random.Random(2000 + n)
    f = CycloField(n)
    for _ in range(10):
        a = random_element(f, rng) * f.rational(1, rng.randint(1, 4))
        coeffs = f.coefficients(a)
        assert type(coeffs) is tuple and len(coeffs) == f.phi
        back = f.element(coeffs)
        assert back == a and hash(back) == hash(a)
        assert all(type(c) in (BARE[:2] if c.denominator == 1 else BARE[2:])
                   for c in f.coefficients(back))
        if f.phi == 1:
            assert coeffs == (a,) and type(back) in BARE


def test_conductor_mismatch_raises():
    # a CycloNumber meets only scalars of its own field in + and *: one of
    # another field is a ConductorMismatch, a bare rational a TypeError
    f = CycloField(3)
    a = f.parse("z3")
    b = CycloField(4).parse("z4")
    for op in (operator.mul, operator.add):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ConductorMismatch):
                op(x, y)
        for bare in (2, Fraction(1, 2), mpq(1, 2)):
            for x, y in ((a, bare), (bare, a)):
                with pytest.raises(TypeError):
                    op(x, y)
    # == holds only within one field: a rational CycloNumber is unequal to
    # its bare rational, which is its first coefficient
    for value in (2, Fraction(-1, 2)):
        x = f.rational(value)
        assert type(x) is CycloNumber
        assert x != value and value != x
        assert f.coefficients(x) == (value, 0)
    assert a != f.one() and f.one() != 1 and f.one() == f.rational(1)
    assert len({f.rational(2), CycloField(4).rational(2), 2}) == 3


@pytest.mark.parametrize("n", SUPPORTED)
def test_text_round_trip(n):
    rng = random.Random(7 * n)
    f = CycloField(n)
    samples = [f.zero(), f.one(), f.rational(-1), f.parse(f"z{n}"),
               -f.parse(f"z{n}^{min(1, f.phi - 1)}")]
    samples += [random_element(f, rng) for _ in range(20)]
    for a in samples:
        assert parse_scalar(f, str(a)) == a, str(a)


def test_parse_examples():
    # the roots of unity from their coefficients, not through the parser
    f = CycloField(3)
    z = f.element([0, 1])
    half = f.rational(1, 2)
    assert parse_scalar(f, "1/2 - z3^1") == half + -z
    assert parse_scalar(f, "-2/3*z3^2 + 1") == f.one() + -(f.rational(2, 3) * z * z)
    assert parse_scalar(f, "0") == f.zero()
    assert parse_scalar(f, "z3") == z
    # a literal with a dividing conductor names a power of zeta_12
    f12 = CycloField(12)
    z12 = f12.element([0, 1, 0, 0])
    assert parse_scalar(f12, "z3^1") == z12 * z12 * z12 * z12
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
    z = f.element([0, 1])
    assert str(f.rational(1, 2) + -z) == "1/2 - z3^1"
    assert str(f.rational(2) * z) == "2*z3^1"


def test_division_and_pow():
    # division is a * b.inv() and a power a product
    f = CycloField(5)
    z = f.parse("z5")
    cube = z * z * z
    assert cube.inv() * cube == f.one()
    assert cube.inv() == f.parse("z5^-3")
    assert (f.one() + z) * (f.one() + z).inv() == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()


# -- the scalar fast paths: same field object, and conductor one

def same(x, y):
    """Equal coefficients of equal types, in the same field object (over Q
    the scalars are bare rationals, with no field object)."""
    if not isinstance(x, CycloNumber):
        return type(x) is type(y) and x == y
    return (x.field is y.field and x.coeffs == y.coeffs
            and [type(c) for c in x.coeffs] == [type(c) for c in y.coeffs])


def product(x, y):
    """x * y for scalars of one conductor, from the coefficients."""
    if not isinstance(x, CycloNumber):
        return x * y
    return CycloNumber(x.field, _mul_coeffs(x.coeffs, y.coeffs, x.field))


def total(x, y):
    if not isinstance(x, CycloNumber):
        return x + y
    return CycloNumber(x.field,
                       tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


SCALARS = [0, 3, -2, Fraction(-2, 5), Fraction(6, 3)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("s", SCALARS)
def test_products_and_sums_with_rationals(n, s):
    # a rational meets a scalar of the field as field.rational(s), whose
    # coefficients are s and zeros
    f = CycloField(n)
    a = f.element([Fraction(1, 2)] + [-1] * (f.phi - 1))
    lifted = f.rational(s)
    assert f.coefficients(lifted) == (s,) + (0,) * (f.phi - 1)
    for got in (a * lifted, lifted * a):
        assert same(got, product(a, lifted))
    for got in (a + lifted, lifted + a):
        assert same(got, total(a, lifted))


@pytest.mark.parametrize("left,right", [(1, 2), (2, 1)])
def test_conductors_one_and_two_name_one_field(left, right):
    # Q(zeta_1) = Q(zeta_2) = Q, so both fields hand out the same bare
    # rationals, and they mix
    a = CycloField(left).one()
    b = CycloField(right).one()
    assert a == b == 1 and type(a) is type(b) and type(a) in BARE
    half = CycloField(left).rational(1, 2)
    three = CycloField(right).rational(3)
    for x in (a * b, a + b, half * three, half + three, three * three):
        assert type(x) in BARE, type(x)
    assert half * three == CycloField(left).rational(3, 2)
    acc = {0: half}
    _add_scaled(acc, {0: three, 1: b}, a)
    assert acc == {0: mpq(7, 2), 1: 1}


@pytest.mark.parametrize("n", [1, 2])
def test_scalars_over_q_are_bare_rationals(n):
    f = CycloField(n)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    for x, value in ((f.one(), 1), (f.zero(), 0), (f.rational(3), 3),
                     (f.rational(half), half), (f.parse("-2/3"), -2 * third),
                     (f.rational(4, 2), 2), (f.rational(1, 3), third),
                     (f.parse("7"), 7), (f.parse("1/2 - 3"), half - 3),
                     (f.element([5]), 5), (f.element([-half]), -half),
                     (f.parse(f"z{n}^0"), 1), (f.parse(f"z{n}"), 3 - 2 * n),
                     (f.parse(f"z{n}^-1"), 3 - 2 * n)):
        assert type(x) in BARE and x == value, (x, value)


@pytest.mark.parametrize("left,right", [(3, 4), (3, 6)])
def test_conductor_mismatch_survives_the_fast_paths(left, right):
    a = CycloField(left).one()
    b = CycloField(right).one()
    for op in (operator.mul, operator.add):
        with pytest.raises(ConductorMismatch):
            op(a, b)
    with pytest.raises(ConductorMismatch):
        _add_scaled({}, {0: b}, a)
    with pytest.raises(ConductorMismatch):
        _add_scaled({0: a}, {0: b})


def reference_add_scaled(acc, vec, c):
    """acc + c * vec from the coefficients, term by term."""
    out = dict(acc)
    for k, v in vec.items():
        term = v if c is None else product(c, v)
        out[k] = term if k not in out else total(out[k], term)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 12])
@pytest.mark.parametrize("scale", ["none", "same", "twin", "rational"])
def test_add_scaled_and_nonzero_match_the_generic_path(n, scale):
    # twin: scalars of a field fetched again by its conductor, which is the
    # same object; rational: a rational made a scalar of the field
    rng = random.Random(10 * n)
    f = CycloField(n)
    g = CycloField(n)
    assert g is f
    for trial in range(10):
        def number(field):
            return field._make(f.coefficients(random_element(f, rng, span=2)))
        c = {"none": None, "same": number(f), "twin": number(g),
             "rational": f.rational(rng.choice(SCALARS))}[scale]
        # entries from both fetches, some of them zero or cancelling
        acc = {k: number(rng.choice((f, g))) for k in range(0, 8, 2)}
        vec = {k: number(rng.choice((f, g))) for k in range(0, 8, 3)}
        acc[6] = f._make((0,) * f.phi)
        want = reference_add_scaled(acc, vec, c)
        got = dict(acc)
        _add_scaled(got, vec, c)
        assert list(got) == list(want)
        assert all(same(got[k], want[k]) for k in want)
        kept = {k: v for k, v in want.items() if any(f.coefficients(v))}
        assert _nonzero(got) == kept
        assert all(_nonzero(got)[k] is got[k] for k in kept)
