"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Over Q (phi(N) = 1, so N = 1 or 2) a scalar is the bare rational itself:
a plain int when integral, an mpq (gmpy2's, or fractions.Fraction)
otherwise.  Divide such scalars through the field (rational), never with
'/', which makes a float of two ints.  For phi(N) > 1 a scalar is a
CycloNumber: a polynomial in zeta_N with exact rational coefficients, kept
reduced mod the N-th cyclotomic polynomial as a coefficient tuple of length
phi(N) in the same canonical form, so integer arithmetic never pays for
rational objects.  A CycloNumber meets only CycloNumbers of its own field
in + and *: one of another field raises ConductorMismatch, and anything
else (a bare rational too) is a TypeError; likewise it equals only
CycloNumbers of its own field.  There is one CycloField object per
conductor; a literal zM^k names a root of unity of any field whose
conductor M divides.  An integral mpq left over from rational arithmetic
is harmless: it equals and hashes like the int.  Every division goes
through mpq, so there is no floating point anywhere.
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

from .errors import ConductorMismatch, ScalarParseError


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
    assert den[dd] == 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(x == 0 for x in num[:dd]), "non-exact cyclotomic division"
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

    def _make(self, coeffs):
        """The scalar with these coefficients: the bare rational over Q."""
        if self.phi == 1:
            return coeffs[0]
        return CycloNumber(self, tuple(coeffs))

    def zero(self):
        if self._zero is None:
            self._zero = self._make([0] * self.phi)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = self._make([1] + [0] * (self.phi - 1))
        return self._one

    def rational(self, p, q=1):
        coeffs = [0] * self.phi
        coeffs[0] = _q(mpq(p) / mpq(q))
        return self._make(coeffs)

    def element(self, coeffs):
        """The scalar with these coefficients, each made canonical."""
        coeffs = [c if type(c) is int else _q(mpq(c)) for c in coeffs]
        if len(coeffs) != self.phi:
            raise ScalarParseError(
                f"coefficient vector must have length {self.phi}",
                got=len(coeffs))
        return self._make(coeffs)

    def coefficients(self, x) -> tuple:
        """The coefficient tuple of a scalar of this field, which element
        turns back into the scalar: (x,) over Q."""
        return (x,) if self.phi == 1 else x.coeffs

    def inverse(self, x):
        """x^-1 for a nonzero scalar of this field."""
        return _q(mpq(1) / x) if self.phi == 1 else x.inv()

    def parse(self, text: str):
        return parse_scalar(self, text)


def _reduce(vec, field: CycloField):
    """Reduce a rational coefficient list mod Phi_N; returns a tuple of length
    phi."""
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


def _mul_coeffs(a, b, field: CycloField):
    """The product of two coefficient tuples of one field, reduced mod Phi_N."""
    prod = [0] * (2 * field.phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce(prod, field)


class CycloNumber:
    """Immutable element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- predicates

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self):
        return any(self.coeffs)

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
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if type(other) is not CycloNumber or other.field is not self.field:
            return self._foreign(other)
        return CycloNumber(self.field,
                           _mul_coeffs(self.coeffs, other.coeffs, self.field))

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse: the product of the other Galois conjugates
        sigma_a(x), a in (Z/N)^* with a != 1, over the norm of x, which is a
        nonzero rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero CycloNumber")
        field = self.field
        n = field.conductor
        if self.is_rational():
            coeffs = [0] * field.phi
            coeffs[0] = _q(mpq(1) / self.coeffs[0])
            return CycloNumber(field, tuple(coeffs))
        prod = (1,) + (0,) * (field.phi - 1)
        for a in range(2, n):
            if gcd(a, n) == 1:
                conj = [0] * n
                for k, c in enumerate(self.coeffs):
                    conj[a * k % n] += c
                prod = _mul_coeffs(prod, _reduce(conj, field), field)
        norm = mpq(_mul_coeffs(self.coeffs, prod, field)[0])
        return CycloNumber(field, tuple(_q(c / norm) for c in prod))

    # -- equality and display

    def __eq__(self, other):
        if type(other) is not CycloNumber or other.field is not self.field:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        n = self.field.conductor
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{n}^{k}")
            elif c == -1:
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
            return field._make([_q(c) for c in _reduce(vec, field)])


def field_of(literals) -> CycloField:
    """The smallest field in which every literal parses: Q(zeta_N) with N
    the lcm of the conductors of the roots of unity the literals name."""
    conductor = 1
    for text in literals:
        for m in _ROOT.finditer(text):
            conductor = lcm(conductor, _digits(m, "conductor"))
    return CycloField(conductor)
