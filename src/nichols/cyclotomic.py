"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Over Q (phi(N) = 1, so N = 1 or 2) a scalar is the bare rational itself:
a plain int when integral, an mpq (gmpy2's, or fractions.Fraction)
otherwise.  Divide such scalars through the field (rational), never with
'/', which makes a float of two ints.  For phi(N) > 1 a scalar is a
CycloNumber: a polynomial in zeta_N, kept reduced mod the N-th cyclotomic
polynomial, held as integers over one denominator: num, an int tuple of
length phi(N), and den, a positive int, in lowest terms (zero is over 1).
So its arithmetic builds no rational objects.  The same (num, den) pair is
the raw form linalg computes on, through the private pair helpers here.
The same few products and inverses recur, so the integer product and the
inverse are memoized, keyed by their field, each in a memo of fixed size.  A
CycloNumber meets only CycloNumbers of its own field in + and *: one of
another field raises ConductorMismatch, and anything else (a bare rational
too) is a TypeError; likewise it equals only CycloNumbers of its own
field.  There is one CycloField object per
conductor; a literal zM^k names a root of unity of any field whose
conductor M divides.  An integral mpq left over from rational arithmetic
is harmless: it equals and hashes like the int.  Every division goes
through mpq or an exact integer division, so there is no floating point
anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

try:
    from gmpy2 import mpq
except ImportError:  # pragma: no cover - gmpy2 is an accelerator, not required
    mpq = Fraction

from .errors import ConductorMismatch, ScalarParseError, _require

# the bounds, in entries, of the memos of integer products and of inverses
_MUL_MEMO_SIZE = 1024
_INV_MEMO_SIZE = 256


def _q(x):
    """The canonical form of a rational: a plain int when integral."""
    return x.numerator if x.denominator == 1 else x


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # num / den for integer polynomials, den monic, remainder known to be zero
    num = list(num)
    dd = len(den) - 1
    _require(den[dd] == 1)
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    _require(all(x == 0 for x in num[:dd]), "non-exact cyclotomic division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_modulus(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first, monic."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_div_exact(poly, cyclotomic_modulus(d))
    return tuple(poly)


class CycloField:
    """The field Q(zeta_N) with its canonical reduction data."""

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, conductor: int):
        conductor = int(conductor)
        if conductor < 1:
            raise ScalarParseError("conductor must be a positive integer",
                                   conductor=conductor)
        inst = cls._instances.get(conductor)
        if inst is None:
            inst = super().__new__(cls)
            inst.conductor = conductor
            inst.modulus = cyclotomic_modulus(conductor)
            inst.phi = len(inst.modulus) - 1
            inst._zero = None
            inst._one = None
            cls._instances[conductor] = inst
        return inst

    def __repr__(self):
        return f"CycloField({self.conductor})"

    def _make(self, num, den=1):
        """The scalar num/den, for an int tuple num of length phi in lowest
        terms with a positive int den: the bare rational over Q."""
        if self.phi == 1:
            return num[0] if den == 1 else mpq(num[0], den)
        return CycloNumber(self, num, den)

    def zero(self):
        if self._zero is None:
            self._zero = self._make((0,) * self.phi)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = self._make((1,) + (0,) * (self.phi - 1))
        return self._one

    def rational(self, p, q=1):
        return self.element([mpq(p) / mpq(q)] + [0] * (self.phi - 1))

    def element(self, coeffs, den=1):
        """The scalar sum(coeffs[k] zeta^k) / den, for rational coeffs and
        a positive int den, in canonical form: element(*coefficients(x))
        is x."""
        if len(coeffs) != self.phi:
            raise ScalarParseError(
                f"coefficient vector must have length {self.phi}",
                got=len(coeffs))
        if any(type(c) is not int for c in coeffs):
            coeffs = [mpq(c) for c in coeffs]
            common = lcm(*(c.denominator for c in coeffs))
            coeffs = [int(c.numerator * (common // c.denominator))
                      for c in coeffs]
            den *= common
        return self._make(*_lowest(tuple(coeffs), den))

    def coefficients(self, x) -> tuple:
        """The raw form of a scalar of this field, which element(*raw)
        turns back into the scalar: the pair (num, den) with x = num/den,
        ((x,), 1) for an integer x over Q."""
        if self.phi == 1:
            return (x.numerator,), x.denominator
        return x.num, x.den

    def inverse(self, x):
        """x^-1 for a nonzero scalar of this field."""
        return _q(mpq(1) / x) if self.phi == 1 else x.inv()

    def parse(self, text: str):
        return parse_scalar(self, text)


def _reduce(vec, field: CycloField):
    """Reduce a coefficient list mod Phi_N; returns a tuple of length phi."""
    mod = field.modulus
    phi = field.phi
    if len(vec) < phi:
        vec = list(vec) + [0] * (phi - len(vec))
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - phi
            for j in range(phi):
                mj = mod[j]
                if mj:
                    vec[base + j] -= c * mj
    return tuple(vec[:phi])


# -- the pair helpers: a raw is (num, den), an int tuple over a positive
# int in lowest terms, and each helper returns one in that form

def _lowest(num, den):
    """num/den in lowest terms, for a nonzero int den of either sign: zero
    comes out over 1."""
    if den == 1:
        return num, 1
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return num, den
    return tuple(c // g for c in num), den // g


def _add(na, da, nb, db):
    """na/da + nb/db."""
    if da == db:
        num = tuple(x + y for x, y in zip(na, nb))
        return (num, 1) if da == 1 else _lowest(num, da)
    return _lowest(tuple(x * db + y * da for x, y in zip(na, nb)), da * db)


@lru_cache(maxsize=_MUL_MEMO_SIZE)
def _mul_coeffs(a, b, field: CycloField):
    """The product of two int coefficient tuples of one field, reduced mod
    Phi_N."""
    prod = [0] * (2 * field.phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce(prod, field)


def _mul(na, da, nb, db, field: CycloField):
    """(na/da) * (nb/db) in field."""
    num, den = _mul_coeffs(na, nb, field), da * db
    return (num, 1) if den == 1 else _lowest(num, den)


@lru_cache(maxsize=_INV_MEMO_SIZE)
def _inv(num, den, field: CycloField):
    """(num/den)^-1 in field, for num nonzero: den times the product of the
    other Galois conjugates sigma_a(num), a in (Z/N)^* with a != 1, over the
    norm of num, which is a nonzero integer."""
    if not any(num):
        raise ZeroDivisionError("inverse of zero")
    if not any(num[1:]):
        return _lowest((den,) + num[1:], num[0])
    n = field.conductor
    prod = (1,) + (0,) * (field.phi - 1)
    for a in range(2, n):
        if gcd(a, n) == 1:
            conj = [0] * n
            for k, c in enumerate(num):
                conj[a * k % n] += c
            prod = _mul_coeffs(prod, _reduce(conj, field), field)
    norm = _mul_coeffs(num, prod, field)[0]
    return _lowest(tuple(den * c for c in prod), norm)


class CycloNumber:
    """Immutable element num/den of Q(zeta_N) in canonical form."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    def __bool__(self):
        return any(self.num)

    # -- ring structure

    def _foreign(self, other):
        """The answer to self + other or self * other when other is not a
        scalar of self's field: a scalar of another field is a fault, and
        any other operand is not a scalar at all."""
        if isinstance(other, CycloNumber):
            raise ConductorMismatch(
                "operands live in different cyclotomic fields",
                left=self.field.conductor, right=other.field.conductor)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not CycloNumber or other.field is not self.field:
            return self._foreign(other)
        return CycloNumber(self.field,
                           *_add(self.num, self.den, other.num, other.den))

    def __neg__(self):
        return CycloNumber(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if type(other) is not CycloNumber or other.field is not self.field:
            return self._foreign(other)
        return CycloNumber(self.field, *_mul(self.num, self.den, other.num,
                                             other.den, self.field))

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse; ZeroDivisionError for zero."""
        return CycloNumber(self.field, *_inv(self.num, self.den, self.field))

    # -- equality and display

    def __eq__(self, other):
        if type(other) is not CycloNumber or other.field is not self.field:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # the hash of the tuple of coefficient values num[k]/den
        if self.den == 1:
            return hash(self.num)
        return hash(tuple(mpq(c, self.den) for c in self.num))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        n, den = self.field.conductor, self.den
        terms = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            g = gcd(c, den)
            c = str(c // g) if g == den else f"{c // g}/{den // g}"
            if k == 0:
                terms.append(c)
            elif c == "1":
                terms.append(f"z{n}^{k}")
            elif c == "-1":
                terms.append(f"-z{n}^{k}")
            else:
                terms.append(f"{c}*z{n}^{k}")
        return _signed_sum(terms)


def _signed_sum(terms) -> str:
    """The sum of terms, each a string; a term's leading '-' becomes the
    ' - ' that joins it, and no terms make '0'."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _add_scaled(acc: dict, vec: dict, c=None) -> None:
    """acc += c * vec on sparse {key: scalar} dicts (c None: acc += vec).

    Zero entries may appear in acc; _nonzero drops them.
    """
    if c is None:
        for k, v in vec.items():
            cur = acc.get(k)
            acc[k] = v if cur is None else cur + v
        return
    for k, v in vec.items():
        cur = acc.get(k)
        term = c * v
        acc[k] = term if cur is None else cur + term


def _nonzero(vec: dict) -> dict:
    """vec without its zero entries."""
    return {k: v for k, v in vec.items() if v}


# The scalar-literal grammar.  A literal is a sum of terms, and every term
# after the first starts with one or more signs.  A term is a rational p or
# p/q, a root of unity zM or zM^k, or a rational then a root with an optional
# '*' between them.  Whitespace may come before any token.
_ROOT = re.compile(r"z(?P<conductor>\d+)(?:\^(?P<exp>-?\d+))?")
_TERM = re.compile(
    r"\s*(?P<signs>(?:[+-]\s*)*)"
    r"(?:(?P<p>\d+)(?:/(?P<q>\d+))?)?"
    r"(?:(?(p)\s*\*?\s*)" + _ROOT.pattern + ")?")  # '*' only after a rational


def _digits(m, group: str) -> int:
    """The integer that group of match m spells."""
    try:
        return int(m[group])
    except ValueError:  # more digits than the interpreter converts
        raise ScalarParseError("digit run too long in scalar literal",
                               at=m.start(group)) from None


def parse_scalar(field: CycloField, text: str):
    """Parse a scalar literal, e.g. '1/2 - z3^1', '-2*z12^5' or '--2 z4'.

    A root zM^k with M dividing the field's conductor N is zeta_N^(kN/M);
    any other M raises ConductorMismatch.  Of several faults the leftmost
    is reported.
    """
    n = field.conductor
    vec = [0] * n  # vec[e] is the coefficient of zeta_N^e
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if pos and not m["signs"]:
            raise ScalarParseError("expected '+' or '-' before the next term "
                                   "of a scalar literal", text=text, at=pos)
        if m["p"] is None and m["conductor"] is None:
            raise ScalarParseError("expected a rational or a root of unity "
                                   "in a scalar literal", text=text, at=m.end())
        coeff = 1 if m["p"] is None else _digits(m, "p")
        if m["q"] is not None:
            denominator = _digits(m, "q")
            if not denominator:
                raise ScalarParseError("zero denominator in scalar literal",
                                       text=text, at=m.start("q"))
            coeff = mpq(coeff) / denominator
        exp = 0
        if m["conductor"] is not None:
            order = _digits(m, "conductor")
            if not order:
                raise ScalarParseError("root-of-unity conductor must be a "
                                       "positive integer", text=text,
                                       at=m.start("conductor"))
            if n % order:
                raise ConductorMismatch(
                    "scalar literal uses a conductor that does not divide "
                    "the field's", literal=order, field=n)
            exp = (_digits(m, "exp") if m["exp"] else 1) * (n // order) % n
        vec[exp] += -coeff if m["signs"].count("-") % 2 else coeff
        pos = m.end()
        if pos == len(text):
            return field.element(_reduce(vec, field))


def field_of(literals) -> CycloField:
    """The smallest field in which every literal parses: Q(zeta_N) with N
    the lcm of the conductors of the roots of unity the literals name."""
    conductor = 1
    for text in literals:
        for m in _ROOT.finditer(text):
            conductor = lcm(conductor, _digits(m, "conductor"))
    return CycloField(conductor)
