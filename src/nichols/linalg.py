"""Exact linear algebra over Q(zeta_N): one elimination entry point.

Every elimination in the package (the engine's rank step, the symmetrizer
oracle, adjoint chains and top chain modules) goes through eliminate_block:
one block of sparse {column: scalar} vectors in, and for each vector
either a new pivot or its exact combination over the earlier pivots out,
as a sparse {ordinal: scalar} dict; pivoting is first-nonzero in
the columns' own sort order, deterministic across runs and platforms.
Over Q it works modulo a fixed prime: a row entry stays unreduced until
elimination reaches its column, each vector keeps only its reduction
steps, and a combination is back-solved from them for dependents alone.
An empty vector is answered directly; every other dependent is certified
by an exact integer check over Q.  IncrementalSpan, exact dense elimination one
vector at a time, is the fallback: for any block it cannot certify, and
for every block when phi(N) > 1.

Inside this module rows hold "raw" scalars, one form for every field: the
scalar's coefficient tuple of length phi(N), a 1-tuple over Q.  cyclotomic
owns the conversions (CycloField.coefficients and CycloField.element, which
makes each coefficient canonical) and the scalar inverse; FieldOps does
arithmetic on raws, and no other module sees one.
"""

from __future__ import annotations

import logging
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

from .cyclotomic import CycloField, _mul_coeffs, _q, mpq

log = logging.getLogger(__name__)

# The Mersenne prime 2^61 - 1.  Rational reconstruction recovers fractions
# whose numerator and denominator are both at most RECONSTRUCTION_BOUND.
MODULUS = (1 << 61) - 1
RECONSTRUCTION_BOUND = isqrt(MODULUS // 2)


class FieldOps:
    """Arithmetic on the raws of one field, with row-level helpers."""

    nonzero = any

    def __init__(self, field: CycloField):
        self.field = field
        self.zero = (0,) * field.phi

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return _mul_coeffs(a, b, self.field)

    def inv(self, a):
        field = self.field
        return field.coefficients(field.inverse(field.element(a)))

    # -- row helpers (return fresh lists)

    def scale_row(self, row, f):
        mul = self.mul
        return [mul(f, x) if any(x) else x for x in row]

    def axpy_row(self, dst, src, f):
        """dst - f*src, elementwise."""
        mul, sub = self.mul, self.sub
        return [sub(a, mul(f, b)) if any(b) else a for a, b in zip(dst, src)]


class IncrementalSpan:
    """Feed vectors one at a time; learn rank, pivots, and combinations.

    insert() either accepts the vector as a new pivot (returning its ordinal)
    or returns the exact coefficients expressing it over the accepted pivots.
    The greedy order makes the accepted set the first independent subsequence,
    which is what gives the engine its lexicographically-least monomial bases.
    """

    def __init__(self, ops: FieldOps, ncols: int, track: bool = True):
        self.ops = ops
        self.ncols = ncols
        self.track = track
        self.lead = {}
        self.rows = []
        self.exprs = []
        self.npivots = 0

    def insert(self, raw_vec):
        ops = self.ops
        nonzero = ops.nonzero
        row = list(raw_vec)
        combo = [ops.zero] * self.npivots if self.track else None
        for c in range(self.ncols):
            if not nonzero(row[c]):
                continue
            idx = self.lead.get(c)
            if idx is None:
                continue
            f = row[c]
            row = ops.axpy_row(row, self.rows[idx], f)
            if self.track:
                expr = self.exprs[idx]
                for p, e in enumerate(expr):
                    if nonzero(e):
                        combo[p] = ops.add(combo[p], ops.mul(f, e))
        lead_col = None
        for c in range(self.ncols):
            if nonzero(row[c]):
                lead_col = c
                break
        if lead_col is None:
            return ("combo", combo)
        lv_inv = ops.inv(row[lead_col])
        row = ops.scale_row(row, lv_inv)
        ordinal = self.npivots
        if self.track:
            expr = [ops.neg(ops.mul(lv_inv, combo[p])) for p in range(ordinal)]
            expr.append(lv_inv)
            self.exprs.append(expr)
        self.lead[lead_col] = len(self.rows)
        self.rows.append(row)
        self.npivots += 1
        return ("pivot", ordinal)


def eliminate_block(field: CycloField, vectors, track: bool = True,
                    degree=None, key=None):
    """For each vector, in order: ("pivot", ordinal) or ("combo", combo).

    The vectors are sparse dicts (column -> scalar of field) over any
    hashable, sortable columns; they are left unchanged.  A combo is the
    vector as {ordinal: scalar} over the earlier pivots, ordinals ascending
    and zeros omitted; it is None unless track.  The results are what
    IncrementalSpan.insert returns when fed the same vectors.  When
    phi(N) = 1 the block is eliminated modulo MODULUS, the columns in their
    own sort order; a vector independent mod p is independent over Q.  An
    empty vector is the empty combination.  Every other vector found
    dependent has its combination back-solved from its reduction steps,
    rebuilt by rational reconstruction and checked exactly over Q in
    integers.  So the pivots
    are the same greedy ones, whatever the column order, and the
    combinations, unique over independent pivots, are the same exact ones.
    A block that fails any step is eliminated again with IncrementalSpan,
    as is every block when phi(N) > 1; degree and key only label the DEBUG
    line logged for such a fallback.
    """
    vectors = list(vectors)
    rational = field.phi == 1
    if rational:
        results = _eliminate_mod_p(vectors, track)
        if not isinstance(results, str):
            return results
        log.debug("degree %s block %s fell back to exact elimination: %s",
                  degree, key, results)
    ops = FieldOps(field)
    lift, lower = field.coefficients, field.element
    cols = sorted({c for v in vectors for c in v})
    colpos = {c: i for i, c in enumerate(cols)}
    span = IncrementalSpan(ops, len(cols), track=track)
    results = []
    for v in vectors:
        row = [ops.zero] * len(cols)
        for c, x in v.items():
            row[colpos[c]] = lift(x)
        kind, data = span.insert(row)
        if kind == "combo" and track:
            data = {o: lower(cf) for o, cf in enumerate(data) if any(cf)}
        results.append((kind, data))
    return results


def _eliminate_mod_p(vectors, track):
    """eliminate_block over Q via GF(MODULUS), or the reason it cannot be
    certified: "denominator", "reconstruction" or "check"."""
    p = MODULUS
    den_inv = {1: 1}
    lead = {}       # column -> index of the pivot row leading there
    tails = []      # each pivot row mod p past its leading 1
    steps = []      # each pivot row's reductions [(row, factor)], and the
    invs = []       # inverse of its leading entry before scaling to 1
    pivots = []     # the pivot vectors; a pivot's ordinal is its row index
    results = []
    dependents = []
    for v in vectors:
        if not v:
            results.append(("combo", {} if track else None))
            continue
        row = dict(v)
        for c, x in v.items():
            if type(x) is not int:
                d = x.denominator
                inv = den_inv.get(d)
                if inv is None:
                    if d % p == 0:
                        return "denominator"
                    inv = den_inv[d] = pow(d, -1, p)
                row[c] = x.numerator * inv
        # row = v - sum(f * row k for k, f in done) mod p throughout, its
        # entries reduced only when the heap pops their column
        done = []
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = row.pop(c) % p
            if not f:
                continue
            k = lead.get(c)
            if k is None:
                break
            done.append((k, f))
            for c2, y in tails[k].items():
                old = row.get(c2)
                if old is None:
                    heappush(heap, c2)
                    row[c2] = -f * y
                else:
                    row[c2] = old - f * y
        else:
            dependents.append((len(results), v, done))
            results.append(None)
            continue
        inv = pow(f, -1, p)
        tail = {}
        for c2, y in row.items():
            y = y * inv % p
            if y:
                tail[c2] = y
        lead[c] = len(tails)
        tails.append(tail)
        steps.append(done)
        invs.append(inv)
        results.append(("pivot", len(pivots)))
        pivots.append(v)
    lifted = {}
    pivot_ints = {}
    for slot, v, done in dependents:
        combo = _back_solve(done, steps, invs)
        coeffs = {}
        for o in sorted(combo):
            r = combo[o]
            q = lifted.get(r)
            if q is None:
                q = _rational_reconstruction(r)
                if q is None:
                    return "reconstruction"
                lifted[r] = q
            coeffs[o] = q
        # v == sum(q * pivot) over Q, checked in integers: with each vector
        # written as an integer vector over one denominator, clear them all
        dv, iv = _integral(v)
        terms = []
        for o, q in coeffs.items():
            if o not in pivot_ints:
                pivot_ints[o] = _integral(pivots[o])
            do, io = pivot_ints[o]
            terms.append((q.numerator, q.denominator * do, io))
        scale = lcm(dv, *{den for _, den, _ in terms})
        # a fresh dict: iv may be the caller's v, which must stay unchanged
        rest = {c: scale // dv * x for c, x in iv.items()}
        for num, den, io in terms:
            f = scale // den * num
            for c, x in io.items():
                rest[c] = rest.get(c, 0) - f * x
        if any(rest.values()):
            return "check"
        results[slot] = ("combo", coeffs if track else None)
    return results


def _back_solve(done, steps, invs):
    """A dependent's combination {ordinal: residue} over the pivots mod p,
    from its reductions done: the vector is sum(f * row k for k, f in done),
    and row k is invs[k] * (pivot k - sum(f * row j for j, f in steps[k])),
    so the rows are expanded into pivots from the last one down.  A row
    leads in one column, which a reduction meets once, so done names each
    row at most once."""
    p = MODULUS
    acc = dict(done)
    heap = [-k for k in acc]
    heapify(heap)
    combo = {}
    while heap:
        k = -heappop(heap)
        a = acc.pop(k) * invs[k] % p
        if not a:
            continue
        combo[k] = a
        for j, f in steps[k]:
            old = acc.get(j)
            if old is None:
                heappush(heap, -j)
                acc[j] = -a * f
            else:
                acc[j] = old - a * f
    return combo


def _integral(xs):
    """A sparse vector of rationals as (common denominator, integer
    vector); xs itself when its entries are integers."""
    den = lcm(*{x.denominator for x in xs.values()})
    if den == 1:
        return 1, xs
    return den, {c: x.numerator * (den // x.denominator)
                 for c, x in xs.items()}


def _rational_reconstruction(r: int):
    """Wang's rational reconstruction: the fraction a/b congruent to r mod
    MODULUS with |a|, b <= RECONSTRUCTION_BOUND, or None if there is none."""
    bound = RECONSTRUCTION_BOUND
    if r <= bound:
        return r
    if MODULUS - r <= bound:
        return r - MODULUS
    r0, r1, t0, t1 = MODULUS, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return _q(mpq(r1, t1))
