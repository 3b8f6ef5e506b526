"""Yetter-Drinfeld modules over group algebras.

A module is stored as: one group-degree (coaction) per basis vector, an
action map giving the matrix of every group element, and a block structure
carrying the Z^theta multidegree.  Braiding on basis pairs:
c(e_a (x) e_b) = (g_a . e_b) (x) e_a with g_a the degree of e_a, and
c^{-1}(e_a (x) e_b) = e_b (x) (g_b^{-1} . e_a).
"""

from __future__ import annotations

import re
from math import gcd

from .cyclotomic import CycloField
from .errors import ModuleSpecError
from .groups import ConjugacyClassData, FiniteGroup, build_abelian_group, conjugacy_class
from .linalg import Matrix


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class Representation:
    """Matrix representation of a subgroup, verified by closure.

    gen_matrices maps generating elements to invertible Matrix values; the
    constructor extends multiplicatively over the whole subgroup and checks
    that every relation is respected (same element reached two ways must get
    the same matrix).
    """

    def __init__(self, group: FiniteGroup, elements, gen_matrices: dict):
        self.group = group
        self.elements = sorted(elements)
        if not gen_matrices:
            raise ModuleSpecError("representation needs at least one generator matrix")
        dims = {m.rows for m in gen_matrices.values()}
        dims |= {m.cols for m in gen_matrices.values()}
        if len(dims) != 1:
            raise ModuleSpecError("generator matrices must be square of equal size")
        self.carrier_dim = dims.pop()
        self.field = next(iter(gen_matrices.values())).field
        self.matrices = dict(gen_matrices)
        self._table = self._close()
        self.character = {e: self._trace(m) for e, m in self._table.items()}

    def _trace(self, m: Matrix):
        tr = self.field.zero()
        for i in range(m.rows):
            tr = tr + m.entries[i][i]
        return tr

    def _close(self):
        g = self.group
        ident = Matrix.identity(self.field, self.carrier_dim)
        table = {g.identity: ident}
        frontier = [g.identity]
        while frontier:
            e = frontier.pop()
            for gen, mat in self.matrices.items():
                e2 = g.mul(e, gen)
                m2 = table[e] * mat
                if e2 in table:
                    if table[e2].entries != m2.entries:
                        raise ModuleSpecError(
                            "generator matrices violate a relation",
                            at=g.element_str(e2))
                else:
                    table[e2] = m2
                    frontier.append(e2)
        if set(table) != set(self.elements):
            raise ModuleSpecError("matrices given on a non-generating set")
        # full consistency sweep over the Cayley graph
        for e in self.elements:
            for gen, mat in self.matrices.items():
                if table[self.group.mul(e, gen)].entries != (table[e] * mat).entries:
                    raise ModuleSpecError("generator matrices violate a relation",
                                          at=self.group.element_str(e))
        return table

    def value(self, e) -> Matrix:
        return self._table[e]


def one_dim_rep(group: FiniteGroup, elements, values: dict) -> Representation:
    """Character given by scalar values on generating elements."""
    mats = {e: Matrix.from_rows(v.field, [[v]]) for e, v in values.items()}
    return Representation(group, elements, mats)


class YDModule:
    """Finite-dimensional Yetter-Drinfeld module with homogeneous basis."""

    def __init__(self, group: FiniteGroup, field: CycloField, coaction,
                 action_fn, labels, triples, blocks, check=True):
        self.group = group
        self.field = field
        self.coaction = list(coaction)
        self.dim = len(self.coaction)
        self._action_fn = action_fn
        self.basis_labels = list(labels)
        self.triples = list(triples)
        self.blocks = list(blocks)  # (name, start, stop) per summand
        self.theta = len(self.blocks)
        self.label_index = {lab: i for i, lab in enumerate(self.basis_labels)}
        if len(self.label_index) != self.dim:
            raise ModuleSpecError("basis labels must be distinct")
        self._action_cache = {}
        self._braiding = None
        self._fingerprint = None
        if check and self.dim:
            self.check_axioms()

    # -- structure access

    def multidegree(self, i) -> tuple:
        b = self.triples[i][0]
        return tuple(1 if j == b else 0 for j in range(self.theta))

    def block_of(self, i) -> int:
        return self.triples[i][0]

    def block_indices(self, b) -> range:
        _, start, stop = self.blocks[b]
        return range(start, stop)

    @property
    def action(self) -> dict:
        return {g: self.action_of(g) for g in self.group.generators}

    def action_of(self, t) -> Matrix:
        m = self._action_cache.get(t)
        if m is None:
            m = self._action_fn(t)
            self._action_cache[t] = m
        return m

    def action_column(self, t, j):
        """Sparse column of action(t): list of (row, scalar)."""
        m = self.action_of(t)
        return [(i, m.entries[i][j]) for i in range(self.dim)
                if not m.entries[i][j].is_zero()]

    # -- axioms

    def check_axioms(self):
        g = self.group
        ident = Matrix.identity(self.field, self.dim)
        if self.action_of(g.identity).entries != ident.entries:
            raise ModuleSpecError("identity must act as the identity matrix")
        for gen in g.generators:
            a_gen = self.action_of(gen)
            for t in g.elements:
                lhs = self.action_of(g.mul(gen, t))
                rhs = a_gen * self.action_of(t)
                if lhs.entries != rhs.entries:
                    raise ModuleSpecError("action is not a group homomorphism",
                                          at=g.element_str(t))
            for j in range(self.dim):
                want = g.conjugate(gen, self.coaction[j])
                for i, _ in self.action_column(gen, j):
                    if self.coaction[i] != want:
                        raise ModuleSpecError(
                            "action does not permute group-degree blocks by conjugation",
                            generator=g.element_str(gen), column=j)

    # -- braiding

    def braiding(self) -> "BraidingOperator":
        if self._braiding is None:
            self._braiding = BraidingOperator(self)
        return self._braiding

    # -- dual

    def dual(self) -> "YDModule":
        """Dual basis module: inverse-transpose action, inverse coaction."""
        primal = self
        g = self.group

        def act(t):
            m = primal.action_of(g.inv(t))
            return m.transpose()

        return YDModule(
            g, self.field,
            [g.inv(e) for e in self.coaction],
            act,
            [lab + "*" for lab in self.basis_labels],
            list(self.triples),
            [(name + "*", a, b) for name, a, b in self.blocks],
            check=False)


class BraidingOperator:
    """The braiding c and its inverse on M (x) M, kept as sparse columns."""

    def __init__(self, module: YDModule):
        self.module = module
        m, g = module, module.group
        self.columns = {}
        self.inverse_columns = {}
        for a in range(m.dim):
            ga = m.coaction[a]
            for b in range(m.dim):
                self.columns[a, b] = [((b2, a), s)
                                      for b2, s in m.action_column(ga, b)]
                gbi = g.inv(m.coaction[b])
                self.inverse_columns[a, b] = [((b, a2), s)
                                              for a2, s in m.action_column(gbi, a)]
        self._matrix = None
        self._inverse_matrix = None

    def _materialize(self, columns) -> Matrix:
        m = self.module
        n = m.dim * m.dim
        pos = {(a, b): a * m.dim + b for a in range(m.dim) for b in range(m.dim)}
        out = [[m.field.zero() for _ in range(n)] for _ in range(n)]
        for (a, b), entries in columns.items():
            for key, s in entries:
                out[pos[key]][pos[a, b]] = s
        return Matrix(m.field, out)

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = self._materialize(self.columns)
        return self._matrix

    @property
    def inverse_matrix(self) -> Matrix:
        if self._inverse_matrix is None:
            self._inverse_matrix = self._materialize(self.inverse_columns)
        return self._inverse_matrix

    def apply(self, vec: dict, inverse=False) -> dict:
        """Apply to a sparse vector keyed by basis pairs."""
        cols = self.inverse_columns if inverse else self.columns
        out = {}
        for key, coeff in vec.items():
            for key2, s in cols[key]:
                acc = out.get(key2)
                term = coeff * s
                out[key2] = term if acc is None else acc + term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def check(self):
        m = self.module
        one = m.field.one()
        for a in range(m.dim):
            for b in range(m.dim):
                v = self.apply(self.apply({(a, b): one}), inverse=True)
                if v != {(a, b): one}:
                    raise ModuleSpecError("braiding inverse check failed", pair=(a, b))
        # braid equation on basis triples of M (x) M (x) M
        def lift12(vec):
            out = {}
            for (a, b, c), coeff in vec.items():
                for (a2, b2), s in self.columns[a, b]:
                    key = (a2, b2, c)
                    term = coeff * s
                    out[key] = out.get(key, m.field.zero()) + term
            return out

        def lift23(vec):
            out = {}
            for (a, b, c), coeff in vec.items():
                for (b2, c2), s in self.columns[b, c]:
                    key = (a, b2, c2)
                    term = coeff * s
                    out[key] = out.get(key, m.field.zero()) + term
            return out

        def clean(vec):
            return {k: v for k, v in vec.items() if not v.is_zero()}

        for a in range(m.dim):
            for b in range(m.dim):
                for c in range(m.dim):
                    start = {(a, b, c): one}
                    lhs = clean(lift12(lift23(lift12(start))))
                    rhs = clean(lift23(lift12(lift23(start))))
                    if lhs != rhs:
                        raise ModuleSpecError("braid equation failed", triple=(a, b, c))


def build_M_O_rho(group: FiniteGroup, cls: ConjugacyClassData, rho: Representation,
                  name="x", index_base=1, check=True) -> YDModule:
    """Induced module on a conjugacy class with centralizer representation."""
    if sorted(rho.elements) != sorted(cls.centralizer):
        raise ModuleSpecError("representation is not over the class centralizer")
    t, d = cls.size, rho.carrier_dim
    field = rho.field
    coaction = [cls.members[i] for i in range(t) for _ in range(d)]
    labels = []
    triples = []
    for i in range(t):
        for v in range(d):
            suffix = f"_{v}" if d > 1 else ""
            labels.append(f"{name}{index_base + i}{suffix}")
            triples.append((0, i, v))

    def act(elem):
        cols = [[field.zero() for _ in range(t * d)] for _ in range(t * d)]
        for j in range(t):
            k, gamma = cls.decompose(elem, j)
            rg = rho.value(gamma)
            for w in range(d):
                for w2 in range(d):
                    cols[k * d + w2][j * d + w] = rg.entries[w2][w]
        return Matrix(field, cols)

    return YDModule(group, field, coaction, act, labels, triples,
                    [(name, 0, t * d)], check=check)


def zero_module(group: FiniteGroup, field: CycloField) -> YDModule:
    return YDModule(group, field, [], lambda t: Matrix(field, []),
                    [], [], [], check=False)


def direct_sum(parts) -> YDModule:
    """Concatenate blocks; block j of the result carries multidegree alpha_j."""
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise ModuleSpecError("direct sum needs at least one nonzero part")
    group = parts[0].group
    field = parts[0].field
    for p in parts[1:]:
        same = p.group is group or (
            p.group.backend == group.backend
            and p.group.elements == group.elements
            and p.group.generators == group.generators)
        if not same:
            raise ModuleSpecError("direct sum parts must share one group")
        if p.field is not field:
            raise ModuleSpecError("direct sum parts must share one scalar field")
    offsets = []
    pos = 0
    for p in parts:
        offsets.append(pos)
        pos += p.dim
    dim = pos
    coaction = [e for p in parts for e in p.coaction]
    labels = [lab for p in parts for lab in p.basis_labels]
    blocks = []
    triples = []
    for p, off in zip(parts, offsets):
        for name, a, b in p.blocks:
            blocks.append((name, off + a, off + b))
        base = len(blocks) - len(p.blocks)
        for (blk, i, v) in p.triples:
            triples.append((base + blk, i, v))

    def act(t):
        out = [[field.zero() for _ in range(dim)] for _ in range(dim)]
        for p, off in zip(parts, offsets):
            m = p.action_of(t)
            for i in range(p.dim):
                row = m.entries[i]
                for j in range(p.dim):
                    out[off + i][off + j] = row[j]
        return Matrix(field, out)

    return YDModule(group, field, coaction, act, labels, triples, blocks,
                    check=False)


# -- fingerprints


def _block_fingerprint(module: YDModule, indices):
    g = module.group
    degrees = [module.coaction[i] for i in indices]
    cls_members = set(g.class_of(degrees[0]))
    if set(degrees) != cls_members:
        raise ModuleSpecError("block degrees do not fill one conjugacy class")
    s = min(cls_members)
    fiber = [i for i in indices if module.coaction[i] == s]
    d = len(fiber)
    if d * len(cls_members) != len(indices):
        raise ModuleSpecError("block fibers have unequal dimensions")
    cent = g.centralizer(s)

    def restricted_trace(gamma):
        m = module.action_of(gamma)
        tr = module.field.zero()
        for i in fiber:
            tr = tr + m.entries[i][i]
        return tr

    # irreducibility: exact character norm over the centralizer
    norm = module.field.zero()
    char = {gamma: restricted_trace(gamma) for gamma in cent}
    for gamma in cent:
        norm = norm + char[gamma] * char[g.inv(gamma)]
    norm = norm * module.field.rational(1, len(cent))
    if norm != module.field.one():
        raise ModuleSpecError("block is not irreducible",
                              norm=str(norm), base_point=g.element_str(s))

    # the character on the centralizer's conjugacy classes, canonically ordered
    value_list = tuple((g.element_key(e), str(char[e]))
                       for e in g.centralizer_classes(s))
    return (g.element_key(s), value_list)


def fingerprint(module: YDModule):
    """Canonical isomorphism key, one entry per block.

    Computed once per module object and cached on it, so the irreducibility
    check (the exact character norm) also runs once per module.
    """
    if module._fingerprint is None:
        module._fingerprint = tuple(
            _block_fingerprint(module, list(module.block_indices(b)))
            for b in range(module.theta))
    return module._fingerprint


# -- JSON specs


def module_from_spec(group: FiniteGroup, spec: dict, field: CycloField,
                     name="x", index_base=1) -> YDModule:
    """Build one block from {"class_rep": ..., "rho": {...}} JSON."""
    if "class_rep" not in spec or "rho" not in spec:
        raise ModuleSpecError("module spec needs 'class_rep' and 'rho'")
    s = group.parse_element(spec["class_rep"])
    cls = conjugacy_class(group, s, numeration=spec.get("numeration"))
    rho_spec = spec["rho"]
    dim = rho_spec.get("dim", 1)
    cent = cls.centralizer
    if dim == 1:
        values = {group.parse_element(k): field.parse(v)
                  for k, v in rho_spec["values"].items()}
        rho = one_dim_rep(group, cent, values)
    else:
        mats = {group.parse_element(k): Matrix.from_lists(field, rows)
                for k, rows in rho_spec["matrices"].items()}
        rho = Representation(group, cent, mats)
    return build_M_O_rho(group, cls, rho, name=name,
                         index_base=spec.get("index_base", index_base))


def diagonal_modules(q_rows, name="v"):
    """Realize a diagonal braiding matrix over an abelian group.

    q_rows is a theta x theta array of root-of-unity scalar strings; returns
    (group, field, [one-dimensional blocks]) with q_ij = chi_j(g_i).
    """
    theta = len(q_rows)
    if theta == 0 or any(len(r) != theta for r in q_rows):
        raise ModuleSpecError("diagonal braiding matrix must be square")
    conductor = 1
    for row in q_rows:
        for s in row:
            for tok in re.findall(r"z(\d+)", str(s)):
                conductor = _lcm(conductor, int(tok))
    field = CycloField(conductor)
    q = [[field.parse(str(s)) for s in row] for row in q_rows]
    # group exponent: lcm of the multiplicative orders of the entries
    n = 1
    bound = _lcm(2, conductor)
    for row in q:
        for v in row:
            acc, order = v, 1
            while not acc.is_one():
                acc = acc * v
                order += 1
                if order > bound:
                    raise ModuleSpecError("diagonal entries must be roots of unity",
                                          value=str(v))
            n = _lcm(n, order)
    group = build_abelian_group([n] * theta)
    gens = [tuple(1 % n if j == i else 0 for j in range(theta))
            for i in range(theta)]
    blocks = []
    for j in range(theta):
        cls = conjugacy_class(group, gens[j])
        values = {gens[i]: q[i][j] for i in range(theta)} if n > 1 else \
                 {group.identity: field.one()}
        rho = one_dim_rep(group, cls.centralizer, values)
        blocks.append(build_M_O_rho(group, cls, rho, name=name, index_base=j + 1))
    return group, field, blocks
