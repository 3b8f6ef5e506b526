import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from nichols.cyclotomic import (
    _INV_MEMO_SIZE,
    _MUL_MEMO_SIZE,
    CycloField,
    CycloNumber,
    _add_scaled,
    _inv,
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
    assert f.element(list(a.num), a.den) == a
    assert len(a.num) == f.phi and a.den == 1
    b = f.element([2, -4, 6, 0], 4)
    assert (b.num, b.den) == ((1, -2, 3, 0), 2)
    assert f.element(list(b.num), b.den) == b


def canonical_raw(field, raw):
    """raw is (num, den): phi(N) ints over a positive int, in lowest terms,
    so that zero is over 1."""
    num, den = raw
    return (type(num) is tuple and len(num) == field.phi
            and all(type(c) is int for c in num + (den,))
            and den > 0 and gcd(den, *num) == 1)


@pytest.mark.parametrize("n", SUPPORTED)
def test_coefficients_round_trip_through_element(n):
    # the raw form linalg computes on: phi(N) integer coefficients over one
    # denominator in lowest terms, ((n,), d) for the bare rational n/d over
    # Q; element makes an integral rational left over from arithmetic an
    # int again
    rng = random.Random(2000 + n)
    f = CycloField(n)
    for _ in range(10):
        a = random_element(f, rng) * f.rational(1, rng.randint(1, 4))
        raw = f.coefficients(a)
        assert canonical_raw(f, raw)
        back = f.element(*raw)
        assert back == a and hash(back) == hash(a)
        assert f.coefficients(back) == raw
        if f.phi == 1:
            assert raw == ((a.numerator,), a.denominator)
            assert type(back) in (BARE[:2] if raw[1] == 1 else BARE[2:])


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
        assert f.coefficients(x) == ((Fraction(value).numerator, 0),
                                     Fraction(value).denominator)
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

def values(field, x):
    """The coefficients of a scalar as Fractions, num[k] / den."""
    num, den = field.coefficients(x)
    return [Fraction(c, den) for c in num]


def schoolbook_mul(a, b, n):
    """The product of two coefficient lists of Fractions in Q(zeta_n):
    every term, then long division by the monic Phi_n; no memo."""
    modulus = cyclotomic_modulus(n)
    phi = len(modulus) - 1
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, phi - 1, -1):
        c = prod[i]
        for j, m in enumerate(modulus):
            prod[i - phi + j] -= c * m
    return prod[:phi]


def schoolbook_inv(a, n):
    """The y with a * y = 1 in Q(zeta_n), by Gauss-Jordan elimination over
    Fractions on the matrix of multiplication by a."""
    phi = len(cyclotomic_modulus(n)) - 1
    cols = [schoolbook_mul(a, [Fraction(int(i == k)) for i in range(phi)], n)
            for k in range(phi)]
    rows = [[cols[k][i] for k in range(phi)] + [Fraction(int(i == 0))]
            for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(phi):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[phi] for row in rows]


def same(x, y):
    """Equal coefficients in canonical form, in the same field object (over
    Q the scalars are bare rationals, with no field object)."""
    if not isinstance(x, CycloNumber):
        return type(x) is type(y) and x == y
    return (x.field is y.field and (x.num, x.den) == (y.num, y.den)
            and canonical_raw(x.field, (x.num, x.den)))


def product(x, y):
    """x * y for scalars of one conductor, by the schoolbook reference."""
    if not isinstance(x, CycloNumber):
        return x * y
    f = x.field
    return f.element(schoolbook_mul(values(f, x), values(f, y), f.conductor))


def total(x, y):
    if not isinstance(x, CycloNumber):
        return x + y
    f = x.field
    return f.element([a + b for a, b in zip(values(f, x), values(f, y))])


SCALARS = [0, 3, -2, Fraction(-2, 5), Fraction(6, 3)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("s", SCALARS)
def test_products_and_sums_with_rationals(n, s):
    # a rational meets a scalar of the field as field.rational(s), whose
    # coefficients are s and zeros
    f = CycloField(n)
    a = f.element([Fraction(1, 2)] + [-1] * (f.phi - 1))
    lifted = f.rational(s)
    s = Fraction(s)
    assert f.coefficients(lifted) == ((s.numerator,) + (0,) * (f.phi - 1),
                                      s.denominator)
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
            return field.element(*f.coefficients(random_element(f, rng,
                                                                span=2)))
        c = {"none": None, "same": number(f), "twin": number(g),
             "rational": f.rational(rng.choice(SCALARS))}[scale]
        # entries from both fetches, some of them zero or cancelling
        acc = {k: number(rng.choice((f, g))) for k in range(0, 8, 2)}
        vec = {k: number(rng.choice((f, g))) for k in range(0, 8, 3)}
        acc[6] = f.element([0] * f.phi)
        want = reference_add_scaled(acc, vec, c)
        got = dict(acc)
        _add_scaled(got, vec, c)
        assert list(got) == list(want)
        assert all(same(got[k], want[k]) for k in want)
        kept = {k: v for k, v in want.items() if any(f.coefficients(v)[0])}
        assert _nonzero(got) == kept
        assert all(_nonzero(got)[k] is got[k] for k in kept)


# -- integers over one denominator, against a memo-free reference

REFERENCE_CONDUCTORS = [3, 4, 5, 8, 12]


def random_fractions(phi, rng):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(phi)]


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_arithmetic_matches_the_fraction_schoolbook_reference(n):
    rng = random.Random(3000 + n)
    f = CycloField(n)
    for _ in range(40):
        ca, cb = random_fractions(f.phi, rng), random_fractions(f.phi, rng)
        a, b = f.element(ca), f.element(cb)
        assert values(f, a) == ca
        results = {"+": (a + b, [x + y for x, y in zip(ca, cb)]),
                   "-": (-a, [-x for x in ca]),
                   "*": (a * b, schoolbook_mul(ca, cb, n))}
        if any(ca):
            results["inv"] = (a.inv(), schoolbook_inv(ca, n))
            assert a * a.inv() == f.one() == a.inv() * a
        for op, (got, want) in results.items():
            assert values(f, got) == want, op
            assert canonical_raw(f, f.coefficients(got)), op


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_equal_values_from_parse_element_and_arithmetic_agree(n):
    # one value built four ways: from its coefficients, from a literal,
    # term by term from zeta_N, and through two inverses
    rng = random.Random(4000 + n)
    f = CycloField(n)
    zeta = f.element([0, 1] + [0] * (f.phi - 2))
    for _ in range(20):
        coeffs = random_fractions(f.phi, rng)
        by_element = f.element(coeffs)
        by_parse = f.parse(" ".join(
            f"{'-' if c < 0 else '+'} {abs(c.numerator)}/{c.denominator}"
            f"*z{n}^{k}" for k, c in enumerate(coeffs)))
        by_arithmetic, power = f.zero(), f.one()
        for c in coeffs:
            by_arithmetic = by_arithmetic + f.rational(c) * power
            power = power * zeta
        built = [by_element, by_parse, by_arithmetic]
        if by_element:
            built.append(by_element.inv().inv())
        for x in built:
            assert x == by_element and hash(x) == hash(by_element)
            assert str(x) == str(by_element)
        assert len(set(built)) == 1


def test_memos_stay_bounded_and_clearing_them_changes_no_answer():
    f = CycloField(12)
    rng = random.Random(5)
    xs = list({f.element(random_fractions(f.phi, rng))
               for _ in range(_INV_MEMO_SIZE + 100)} - {f.zero()})
    assert len(xs) > _INV_MEMO_SIZE
    pairs = [(rng.choice(xs), rng.choice(xs))
             for _ in range(_MUL_MEMO_SIZE + 300)]
    assert len({(a.num, b.num) for a, b in pairs}) > _MUL_MEMO_SIZE
    products = [a * b for a, b in pairs]
    inverses = [x.inv() for x in xs]
    for memo, bound in ((_mul_coeffs, _MUL_MEMO_SIZE), (_inv, _INV_MEMO_SIZE)):
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize <= bound
        memo.cache_clear()
    assert [a * b for a, b in pairs] == products
    assert [x.inv() for x in xs] == inverses
    for (a, b), got in list(zip(pairs, products))[:20]:
        assert values(f, got) == schoolbook_mul(values(f, a), values(f, b), 12)
