"""Degree-by-degree computation of Nichols algebras.

Two independent routes compute graded dimensions:

* the quantum symmetrizer oracle: S_n = T_n (S_{n-1} (x) id), with T_n
  the sum over the minimal coset representatives of S_{n-1} in S_n, so
  im S_n = T_n(im S_{n-1} (x) V); walk the degrees keeping one spanning
  image S_m(w) per lex-least word w, building S_m(w l) only when the
  suffix w[1:] l was kept too, and take the rank of each degree from
  braidings and linear algebra alone (the budget guard counts the vectors
  each degree builds); and
* the production engine: extend degree by degree, encoding each candidate
  v_i * b by its right derivatives d_k(v_i b) = v_i d_k(b) + delta_ik g_i . b
  as one sparse vector over (k, basis word of the previous degree), and
  extracting a pivot monomial basis by incremental elimination (an element
  of degree >= 1 is zero exactly when all its right derivatives vanish).
  The pivot basis is the lex-least monomials, which are closed under
  prefixes: lex order on words of one length is compatible with
  multiplication on both sides and the relations are homogeneous, so a
  word in the span of smaller words stays so when multiplied by a letter.
  Hence a candidate whose prefix v_i * b[:-1] is not a basis word is
  dependent, and it is written by right multiplication, not eliminated;
  it needs no action column either.

They must agree (rank = graded dimension); the test suite enforces this.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import add, itemgetter

from .cyclotomic import _add_scaled, _nonzero
from .errors import DegreeRangeError, MemoryGuardError, ScenarioError
from .linalg import eliminate_block
from .ydmodule import YDModule

DEFAULT_MEM_LIMIT = 200000
DEFAULT_ORACLE_BUDGET = 200000


def _candidate_limit():
    """The candidates one degree extension may consider: NICHOLS_MEM_LIMIT,
    read when a state is built, or DEFAULT_MEM_LIMIT when it is unset."""
    raw = os.environ.get("NICHOLS_MEM_LIMIT")
    if raw is None:
        return DEFAULT_MEM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError("NICHOLS_MEM_LIMIT must be an integer", value=raw)
    if value < 1:
        raise ScenarioError("NICHOLS_MEM_LIMIT must be positive", value=value)
    return value


def symmetrizer_images(module: YDModule, n: int, inverse=False):
    """Yield, for m = 1..n, the list of (word, S_m(word)) for the lex-least
    words whose images span im S_m, in lex order; each image is a sparse
    vector over tensor words.

    Walks m = 1..n through S_m = T_m (S_{m-1} (x) id), where T_m = 1 +
    c_{m-2} + c_{m-3}c_{m-2} + ... + c_0...c_{m-2}: every permutation is
    uniquely a minimal coset representative of S_{m-1} times an element of
    S_{m-1}, with lengths adding, so each lift is counted once.  Hence
    im S_m = T_m(im S_{m-1} (x) V), spanned by T_m(S_{m-1}(w) (x) v_l) =
    S_m(w l) for the kept words w of degree m-1 and every letter l.  S_m
    preserves the total group degree and the Z^theta multidegree of a word,
    so each degree is eliminated blockwise, candidates in lex order.  The
    kernels form a homogeneous two-sided ideal and lex order on words of
    one length is compatible with multiplication on both sides, so a word
    in the span of lex-smaller ones modulo ker S stays so when a letter is
    put on either side: the kept words are the lex-least basis words of
    B^m = T^m / ker S_m, closed under prefixes and suffixes.  Hence S_m(w l)
    is built at degree m >= 2 only when w[1:] l is a kept word of degree
    m-1; any other candidate's image lies in the span of earlier images of
    its block.  n must be >= 1.  The budget guard counts the vectors
    degree m builds, one per kept word w of degree m-1 and letter l with
    w[1:] l kept, before building any, and refuses a degree past
    DEFAULT_ORACLE_BUDGET.
    """
    if n < 1:
        raise DegreeRangeError("symmetrizer needs degree >= 1", degree=n)
    g, apply, one = module.group, module.braiding().apply, module.field.one()
    # per letter: its group degree and its multidegree (a unit vector)
    letters = [(l, module.coaction[l],
                tuple(int(b == module.block_of(l)) for b in range(module.theta)))
               for l in range(module.dim)]
    image = [((), {(): one}, (g.identity, (0,) * module.theta))]
    for m in range(1, n + 1):
        kept = {word for word, _, _ in image}
        todo = [(entry, letter) for entry in image for letter in letters
                if m == 1 or entry[0][1:] + (letter[0],) in kept]
        if len(todo) > DEFAULT_ORACLE_BUDGET:
            raise MemoryGuardError("symmetrizer degree exceeds the oracle "
                                   "budget", degree=m, vectors=len(todo),
                                   budget=DEFAULT_ORACLE_BUDGET)
        blocks = {}
        for (word, col, (h, mdeg)), (l, hl, e) in todo:
            x = {w + (l,): s for w, s in col.items()}
            total = dict(x)
            for k in range(m - 2, -1, -1):
                x = apply(x, k, inverse)
                _add_scaled(total, x)
            key = (g.mul(h, hl), tuple(map(add, mdeg, e)))
            blocks.setdefault(key, []).append(
                (word + (l,), _nonzero(total), key))
        image = []
        for key, cands in blocks.items():
            results = eliminate_block(module.field, [c[1] for c in cands],
                                      track=False, degree=m, key=key)
            image += [c for c, (kind, _) in zip(cands, results)
                      if kind == "pivot"]
        image.sort(key=itemgetter(0))
        yield [(word, col) for word, col, _ in image]


def symmetrizer_ranks(module: YDModule, n: int, inverse=False) -> list:
    """Ranks of the quantum symmetrizers S_1..S_n from one walk: the number
    of words that symmetrizer_images keeps in each degree, under its budget
    on the vectors each degree builds."""
    return [len(image) for image in
            symmetrizer_images(module, n, inverse=inverse)]


@dataclass
class HilbertSeries:
    """Graded dimensions; total is None while the algebra is not finished."""

    coeffs: list
    finished: bool

    @property
    def total(self):
        return sum(self.coeffs) if self.finished else None


class GradedNicholsState:
    """Graded model of B(W) built by the derivation-quotient method.

    Degree n data: pivot basis words (lexicographically least monomials)
    and the degree n-1 index of each word's tail (all but its first
    letter), the right-derivative vector of each basis word, the rewrite
    map for every product v_i * (basis word of degree n-1), group degree
    and multidegree per word, and the action of each group element on
    single basis words, memoized as it is asked for.  Only a candidate
    whose prefix v_i * b[:-1] is a basis word gets a derivative vector, and
    only its word b gets an action column; the others, and multiply and
    normal_form, go through the memoized product of each basis word with
    each letter on the right.  Other modules
    multiply by a letter (left_multiply) and act by a group element (act)
    rather than read products, derivs or tails.
    """

    def __init__(self, module: YDModule):
        self.module = module
        self.field = module.field
        self.mem_limit = _candidate_limit()
        self.finished = module.dim == 0
        ident = module.group.identity
        self.words = [[()]]
        # tails[n][m]: index of words[n][m][1:] among the degree n-1 words
        self.tails = [[None]]
        self.hdegrees = [[ident]]
        self.mdegrees = [[(0,) * module.theta]]
        # derivs[n][m]: the right derivatives of the m-th degree-n basis word
        # as one sparse vector, {(k, idx): c} for coefficient c of the
        # degree n-1 basis word idx in the k-th derivative; the empty word
        # has none
        self.derivs = [[{}]]
        # products[n][(i, m)]: normal form of v_i * (degree n-1 basis word m)
        self.products = [None]
        # (n, t, m) -> column m of the action of t on the degree-n basis
        self._action = {}
        # (n, m, l) -> the m-th degree-n basis word times v_l, degree n+1
        self._right = {}

    # -- bookkeeping

    def max_degree(self) -> int:
        return len(self.words) - 1

    def dims(self):
        return [len(ws) for ws in self.words]

    def series(self) -> HilbertSeries:
        dims = self.dims()
        while dims and dims[-1] == 0:
            dims.pop()
        return HilbertSeries(dims, self.finished)

    # -- group action on graded pieces

    def action_columns(self, n: int, t, words=None):
        """Sparse columns of the action of t on the degree-n basis words
        numbered in words, all of them by default; extend_degree passes the
        words of built candidates only, so the memo holds no column that no
        derivative vector reads."""
        if words is None:
            words = range(len(self.words[n]))
        return [self.action_column(n, t, m) for m in words]

    def action_column(self, n: int, t, m: int):
        """Column m of the action of t on the degree-n basis, built from the
        columns of the word's first letter and of its tail; memoized."""
        key = (n, t, m)
        col = self._action.get(key)
        if col is None:
            if n == 0:
                col = {0: self.field.one()}
            elif n == 1:
                col = self.module.action_of(t)[m]
            else:
                col = self._word_column(
                    n, self.action_column(1, t, self.words[n][m][0]),
                    self.action_column(n - 1, t, self.tails[n][m]))
            self._action[key] = col
        return col

    def _word_column(self, n: int, head, tail):
        """t . (v_i * b) = (t . v_i) * (t . b) in normal form, for a
        degree-n word v_i * b, from the columns head of v_i and tail of b."""
        prods = self.products[n]
        acc = {}
        for j, s1 in head.items():
            for k, s2 in tail.items():
                _add_scaled(acc, prods[j, k], s1 * s2)
        return _nonzero(acc)

    def act(self, n: int, t, coords):
        """t acting on the degree-n element coords, in normal form."""
        out = {}
        for m, c in coords.items():
            _add_scaled(out, self.action_column(n, t, m), c)
        return _nonzero(out)

    # -- the core step

    def extend_degree(self) -> "GradedNicholsState":
        """Compute the next graded piece; no-op once a zero degree appeared."""
        if self.finished:
            return self
        n = len(self.words)
        prev = self.words[n - 1]
        p = len(prev)
        w = self.module.dim
        mprev = self.mdegrees[n - 1]
        if w * p > self.mem_limit:
            raise MemoryGuardError(
                "degree extension exceeds the candidate budget",
                degree=n, candidates=w * p, limit=self.mem_limit)
        dprev = self.derivs[n - 1]
        pprev = self.products[n - 1]
        group = self.module.group
        hprev = self.hdegrees[n - 1]
        tprev = self.tails[n - 1]
        if n > 1:
            # pre[b]: degree n-2 index of prev[b] without its last letter;
            # heads: (first letter, tail index) of each degree n-1 word
            at = {word: m for m, word in enumerate(self.words[n - 2])}
            pre = [at[word[:-1]] for word in prev]
            heads = set(zip((word[0] for word in prev), tprev))
        # pass 1: derivative data per candidate v_i * (basis word) whose
        # prefix v_i * prev[b][:-1] is a basis word, grouped by the (group
        # degree, multidegree) block; the blocks have disjoint derivative
        # supports, so ranks split blockwise.  The other candidates are
        # dependent (basis words are closed under prefixes) and skipped, so
        # each letter's action columns are asked for its built words only.
        cands = []
        skipped = []
        blocks = {}
        for i in range(w):
            built = []
            for bidx in range(p):
                if n > 1 and (i, pre[bidx]) not in heads:
                    skipped.append((i, bidx))
                else:
                    built.append(bidx)
            if not built:
                continue
            gi = self.module.coaction[i]
            mdeg_i = self.module.multidegree(i)
            for bidx, acol in zip(built,
                                  self.action_columns(n - 1, gi, built)):
                mdeg = tuple(a + b for a, b in zip(mdeg_i, mprev[bidx]))
                # d_k(v_i b) = v_i d_k(b) + delta_ik g_i . b, per component
                # k that occurs
                comps = {}
                for (k, m), c0 in dprev[bidx].items():
                    _add_scaled(comps.setdefault(k, {}), pprev[i, m], c0)
                _add_scaled(comps.setdefault(i, {}), acol)
                vec = {(k, idx): c for k in sorted(comps)
                       for idx, c in comps[k].items() if c}
                key = (group.mul(gi, hprev[bidx]), mdeg)
                blocks.setdefault(key, []).append(len(cands))
                cands.append((i, bidx, vec, key))
        # pass 2: incremental rank per block, in candidate order, so the
        # accepted pivots still form the lex-least monomial basis; each
        # dependent's combination is rewritten over the candidate numbers
        # of its pivots
        combos = {}
        for key, members in blocks.items():
            pivots = []
            for o, (kind, data) in zip(members, eliminate_block(
                    self.field, [cands[o][2] for o in members], degree=n,
                    key=key)):
                if kind == "pivot":
                    pivots.append(o)
                else:
                    combos[o] = {pivots[j]: cf for j, cf in data.items()}
        # one pass in candidate order numbers the pivots and writes every
        # built candidate's product; a dependent's pivots come before it
        number = {}
        new_words = []
        new_tails = []
        new_derivs = []
        new_hdeg = []
        new_mdeg = []
        prods = {}
        for o, (i, bidx, vec, key) in enumerate(cands):
            combo = combos.get(o)
            if combo is not None:
                prods[i, bidx] = {number[p]: cf for p, cf in combo.items()}
                continue
            number[o] = len(new_words)
            new_words.append((i,) + prev[bidx])
            new_tails.append(bidx)
            new_derivs.append(vec)
            new_hdeg.append(key[0])
            new_mdeg.append(key[1])
            prods[i, bidx] = {number[o]: self.field.one()}
        # a skipped candidate v_i * b is NF(v_i * b[:-1]) * v_l, l = b[-1];
        # a word v_j * t of that normal form times v_l is v_j * (t * v_l),
        # a sum of lex-smaller candidates, so in candidate order every
        # product read here is already written; equal scalars share one
        # object, as in eliminate_block's combinations
        shared = {}
        for i, bidx in skipped:
            letter = prev[bidx][-1]
            out = {}
            for m, c in pprev[i, pre[bidx]].items():
                j = prev[m][0]
                for k, d in self._right_column(
                        n - 2, tprev[m], letter).items():
                    _add_scaled(out, prods[j, k], c * d)
            prods[i, bidx] = {k: shared.setdefault(v, v)
                              for k, v in _nonzero(out).items()}
        self.words.append(new_words)
        self.tails.append(new_tails)
        self.derivs.append(new_derivs)
        self.hdegrees.append(new_hdeg)
        self.mdegrees.append(new_mdeg)
        self.products.append(prods)
        if not new_words:
            self.finished = True
        return self

    def extend_to(self, cap: int) -> "GradedNicholsState":
        while not self.finished and self.max_degree() < cap:
            self.extend_degree()
        return self

    # -- algebra operations

    def normal_form(self, word):
        """Coordinates of a free word over the degree-len(word) pivot basis."""
        n = len(word)
        if n > self.max_degree():
            if self.finished:
                return {}
            raise DegreeRangeError("word degree beyond the computed range",
                                   degree=n, computed=self.max_degree())
        return self._right_multiply(0, {0: self.field.one()}, word)

    def multiply(self, a, b):
        """Product of (degree, coords) elements, in normal form."""
        da, ca = a
        db, cb = b
        n = da + db
        if n > self.max_degree():
            if self.finished:
                return (n, {})
            raise DegreeRangeError("product degree beyond the computed range",
                                   degree=n, computed=self.max_degree())
        out = {}
        for m, bm in cb.items():
            _add_scaled(out, self._right_multiply(da, ca, self.words[db][m]),
                        bm)
        return (n, _nonzero(out))

    def left_multiply(self, i: int, n: int, coords):
        """v_i times the degree-n element coords, in normal form; {} past
        the last degree of a finished algebra."""
        if n + 1 > self.max_degree():
            if self.finished:
                return {}
            raise DegreeRangeError("product degree beyond the computed range",
                                   degree=n + 1, computed=self.max_degree())
        prods = self.products[n + 1]
        out = {}
        for m, c in coords.items():
            _add_scaled(out, prods[i, m], c)
        return _nonzero(out)

    def _right_multiply(self, n: int, coords, word):
        """The degree-n element coords times a word, letter by letter from
        the left, in normal form; the product's degree must be computed."""
        for letter in word:
            out = {}
            for m, c in coords.items():
                _add_scaled(out, self._right_column(n, m, letter), c)
            coords = _nonzero(out)
            n += 1
        return coords

    def _right_column(self, n: int, m: int, letter: int):
        """The m-th degree-n basis word v_i * b times v_letter, in normal
        form: v_i * (b * v_letter), by associativity; memoized, so only
        asked for while the degree n+1 products are complete."""
        key = (n, m, letter)
        col = self._right.get(key)
        if col is None:
            if n == 0:
                col = self.products[1][letter, 0]
            else:
                col = self.left_multiply(
                    self.words[n][m][0], n,
                    self._right_column(n - 1, self.tails[n][m], letter))
            self._right[key] = col
        return col

    def derivative(self, n: int, coords, k: int):
        """Right derivative by the k-th dual vector: degree n -> n-1 coords."""
        out = {}
        for m, c in coords.items():
            _add_scaled(out, {idx: d for (j, idx), d in
                              self.derivs[n][m].items() if j == k}, c)
        return _nonzero(out)

    def multidegree_table(self):
        table = {}
        for mdegs in self.mdegrees:
            for md in mdegs:
                key = ",".join(str(x) for x in md)
                table[key] = table.get(key, 0) + 1
        return table


def hilbert_series(module: YDModule, cap: int) -> HilbertSeries:
    """Graded dimensions of B(module) up to cap or a zero degree."""
    state = GradedNicholsState(module)
    state.extend_to(cap)
    return state.series()
