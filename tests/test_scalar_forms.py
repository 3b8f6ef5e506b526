"""The canonical scalar form: a rational coefficient is a plain int when it is
integral and an mpq otherwise, every division stays exact, and an integral
mpq left over from rational arithmetic is the same value as the int.  Over
Q the scalar is that bare rational, its own one coefficient."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nichols.cyclotomic import CycloField, mpq, parse_scalar
from nichols.linalg import MODULUS, _rational_reconstruction, eliminate_block
from dense_reference import exact_path

CONDUCTORS = st.sampled_from([1, 3, 4, 8, 12])
COEFF = st.one_of(st.integers(-6, 6),
                  st.fractions(min_value=-6, max_value=6, max_denominator=5))
INTEGRAL = (int, type(mpq(1).numerator))
RATIONAL = type(mpq(1, 2))


def exact(c):
    """An exact rational coefficient: never a float."""
    return isinstance(c, INTEGRAL + (RATIONAL,))


def canonical(c):
    """An int when integral, an mpq otherwise."""
    if not exact(c):
        return False
    return isinstance(c, INTEGRAL) if c.denominator == 1 else \
        isinstance(c, RATIONAL)


@st.composite
def elements(draw, field, nonzero=False):
    coeffs = draw(st.lists(COEFF, min_size=field.phi, max_size=field.phi))
    if nonzero and not any(coeffs):
        coeffs[0] = 1
    return field.element(coeffs)


@st.composite
def element_pairs(draw):
    field = CycloField(draw(CONDUCTORS))
    return field, draw(elements(field)), draw(elements(field, nonzero=True))


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_ring_identities_and_exact_coefficients(pair):
    field, a, b = pair
    inverse, coefficients = field.inverse, field.coefficients
    assert (a * b) * inverse(b) == a
    assert a + (-a) == 0
    for x in (a, b, a + b, a * b, a + (-b), inverse(b), a * inverse(b)):
        assert all(exact(c) for c in coefficients(x)), x
    for x in (a, b, inverse(b)):
        assert all(canonical(c) for c in coefficients(x)), x


@settings(max_examples=200, deadline=None)
@given(CONDUCTORS, st.data())
def test_fraction_coefficients_equal_and_hash_like_ints(n, data):
    field = CycloField(n)
    ints = data.draw(st.lists(st.integers(-6, 6), min_size=field.phi,
                              max_size=field.phi))
    built = field.element([Fraction(c) for c in ints])
    assert all(isinstance(c, INTEGRAL) for c in field.coefficients(built))
    # an integral Fraction left over from rational arithmetic, kept as is
    leftover = field._make(tuple(Fraction(c) for c in ints))
    plain = field.element(ints)
    for x in (built, leftover):
        assert x == plain and hash(x) == hash(plain)
        assert str(x) == str(plain)
    assert {leftover: 1}[plain] == 1


@settings(max_examples=200, deadline=None)
@given(CONDUCTORS, st.data())
def test_parse_scalar_rational_and_field_inv_are_canonical(n, data):
    field = CycloField(n)
    a = data.draw(elements(field))
    parsed = field.parse(str(a))
    assert parsed == a
    assert all(canonical(c) for c in field.coefficients(parsed)), parsed
    p = data.draw(st.integers(-12, 12))
    q = data.draw(st.integers(1, 12))
    for x, value in ((field.rational(p, q), Fraction(p, q)),
                     (field.rational(Fraction(p, q)), Fraction(p, q)),
                     (field.rational(p), p)):
        assert x == value
        assert all(canonical(c) for c in field.coefficients(x)), x
    b = data.draw(elements(field, nonzero=True))
    inv = field.inverse(b)
    assert inv * b == 1
    assert all(canonical(c) for c in field.coefficients(inv)), inv
    # the exact path inverts b on raws, and must write the same scalar
    (_, (_, combo)) = exact_path(field, [{0: b}, {0: field.one()}])
    assert combo == {0: inv}
    assert all(canonical(c) for c in field.coefficients(combo[0])), combo


WHITESPACE = st.sampled_from(["", "", " ", "  ", "\t"])


def zeta(field):
    """zeta_N from its coefficients, not through the parser."""
    if field.phi == 1:
        return field.rational(1 if field.conductor == 1 else -1)
    return field.element([0, 1] + [0] * (field.phi - 2))


@st.composite
def literals(draw):
    """A field, a well-formed scalar literal and its value, computed term by
    term with field arithmetic rather than by any parser."""
    n = draw(CONDUCTORS)
    field = CycloField(n)
    text, value = "", field.zero()
    for i in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=min(i, 1),
                              max_size=3))
        p, q = draw(st.integers(0, 40)), draw(st.integers(1, 9))
        m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        k = draw(st.one_of(st.none(), st.integers(-30, 30)))
        shape = draw(st.sampled_from(["rational", "root", "star", "juxtaposed"]))
        rat = str(p) if q == 1 and draw(st.booleans()) else f"{p}/{q}"
        root = f"z{m}" if k is None else f"z{m}^{k}"
        text += "".join(draw(WHITESPACE) + s for s in signs) + draw(WHITESPACE)
        if shape == "rational":
            text += rat
        elif shape == "root":
            text += root
        else:
            star = "*" if shape == "star" else ""
            text += rat + draw(WHITESPACE) + star + draw(WHITESPACE) + root
        term = field.one() if shape == "root" else field.rational(p, q)
        if shape != "rational":
            # zM^k is zeta_N^(k N/M)
            for _ in range((1 if k is None else k) * (n // m) % n):
                term = term * zeta(field)
        value = value + (-term if signs.count("-") % 2 else term)
    return field, text, value


@settings(max_examples=300, deadline=None)
@given(literals())
def test_parse_scalar_matches_field_arithmetic(case):
    field, text, value = case
    parsed = parse_scalar(field, text)
    assert parsed == value, text
    assert all(canonical(c) for c in field.coefficients(parsed)), parsed


@st.composite
def blocks(draw):
    """A field and a block of sparse vectors over it, many of them dependent."""
    field = CycloField(draw(CONDUCTORS))
    ncols = draw(st.integers(1, 5))
    sparse = st.dictionaries(st.integers(0, ncols - 1), elements(field),
                             max_size=ncols)
    base = draw(st.lists(sparse, min_size=1, max_size=3))
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        acc = {}
        for b in base:
            k = draw(elements(field))
            for c, x in b.items():
                acc[c] = acc.get(c, field.zero()) + k * x
        vectors.append({c: x for c, x in acc.items() if x})
    return field, vectors


def assert_exact_results(field, results):
    for kind, data in results:
        if kind == "combo":
            for x in data.values():
                assert all(exact(c) for c in field.coefficients(x)), data


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_eliminate_block_stays_exact_on_both_paths(block):
    field, vectors = block
    # phi(N) = 1 eliminates mod p, phi(N) > 1 exactly
    results = eliminate_block(field, vectors)
    assert_exact_results(field, results)
    if field.phi == 1:
        exact_results = exact_path(field, vectors)
        assert_exact_results(field, exact_results)
        assert exact_results == results


def test_integral_results_are_ints():
    q1, q12 = CycloField(1), CycloField(12)
    for field, x in ((q1, q1.parse("4/2")), (q1, q1.parse("1/2 + 1/2")),
                     (q1, q1.element([Fraction(6, 3)])), (q1, q1.rational(4, 2)),
                     (q1, q1.inverse(q1.rational(1, 2))),
                     (q12, q12.parse("z12^5").inv())):
        assert all(isinstance(c, INTEGRAL) for c in field.coefficients(x)), x
    for r, value in ((5, 5), (MODULUS - 5, -5)):
        lifted = _rational_reconstruction(r)
        assert lifted == value and isinstance(lifted, INTEGRAL)
    third = _rational_reconstruction(pow(3, -1, MODULUS))
    assert third == Fraction(1, 3) and isinstance(third, RATIONAL)


def test_field_ops_inverse_of_an_int_is_exact():
    q = CycloField(1)
    inv = q.inverse(2)
    assert inv == Fraction(1, 2) and type(inv) is RATIONAL
    # the exact path inverts the raw (2,) through the field
    (_, (_, combo)) = exact_path(q, [{0: 2}, {0: 1}])
    assert combo == {0: inv} and type(combo[0]) is RATIONAL
