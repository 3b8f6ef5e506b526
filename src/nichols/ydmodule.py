"""Yetter-Drinfeld modules over group algebras.

A module is stored as: one group-degree (coaction) per basis vector, the
action of each group generator as sparse columns ({row: scalar} per basis
vector, zeros omitted), and a block structure carrying the Z^theta
multidegree.  The action of any other element is the product along its
breadth-first Cayley-graph word, built when first asked for and memoized.
Braiding on basis pairs: c(e_a (x) e_b) = (g_a . e_b) (x) e_a with g_a the
degree of e_a, and c^{-1}(e_a (x) e_b) = e_b (x) (g_b^{-1} . e_a).
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import (CycloField, CycloNumber, _add_scaled, _nonzero,
                         field_of)
from .errors import ModuleSpecError
from .groups import ConjugacyClassData, FiniteGroup, build_abelian_group, conjugacy_class


def _compose(a, b):
    """Columns of A*B from the sparse columns of A and B."""
    out = []
    for col in b:
        acc = {}
        for k, bv in col.items():
            _add_scaled(acc, a[k], bv)
        out.append({i: acc[i] for i in sorted(acc) if acc[i]})
    return out


def _transpose(cols, dim):
    out = [{} for _ in range(dim)]
    for i, col in enumerate(cols):
        for j, v in col.items():
            out[j][i] = v
    return out


class Representation:
    """A linear action of a group on field^dim, given on generating elements.

    generator_columns maps each generating element to its sparse columns.
    The action of t is the product along t's breadth-first Cayley-graph word
    (group.cayley_tree), memoized.  check_relations checks the relations
    A(gen * t) = A(gen) * A(t) for every reached t and every generator,
    which makes t -> A(t) a homomorphism on the generated subgroup; the
    edges of the tree hold by construction and are skipped.
    """

    def __init__(self, group: FiniteGroup, field: CycloField, dim: int,
                 generator_columns: dict):
        for cols in generator_columns.values():
            if len(cols) != dim or any(i not in range(dim)
                                       for col in cols for i in col):
                raise ModuleSpecError("generator action has the wrong shape",
                                      dim=dim)
        self.group = group
        self.field = field
        self.dim = dim
        self.generator_columns = generator_columns
        self.tree = group.cayley_tree(generator_columns)
        self._memo = {group.identity: [{i: field.one()} for i in range(dim)]}

    @classmethod
    def of_subgroup(cls, group: FiniteGroup, elements, field: CycloField,
                    generator_columns: dict) -> "Representation":
        """The representation of the subgroup with the given elements,
        refused unless its generating elements reach exactly those elements
        and respect every relation."""
        if not generator_columns:
            raise ModuleSpecError("representation needs at least one generator matrix")
        dims = {len(cols) for cols in generator_columns.values()}
        if len(dims) != 1:
            raise ModuleSpecError("generator matrices must be square of equal size")
        rho = cls(group, field, dims.pop(), dict(generator_columns))
        if set(rho.tree) != set(elements):
            raise ModuleSpecError("matrices given on a non-generating set")
        rho.check_relations("generator matrices violate a relation")
        return rho

    def action_of(self, t) -> list:
        """Sparse columns of the action of t: one {row: scalar} per basis
        vector, rows ascending, zeros omitted."""
        memo = self._memo
        cols = memo.get(t)
        if cols is None:
            path = []
            while cols is None:
                path.append(t)
                t = self.tree[t][1]
                cols = memo.get(t)
            for u in reversed(path):
                cols = memo[u] = _compose(
                    self.generator_columns[self.tree[u][0]], cols)
        return cols

    def check_relations(self, message: str):
        g = self.group
        for gen, a in self.generator_columns.items():
            for t in sorted(self.tree):
                gt = g.mul(gen, t)
                if self.tree[gt] != (gen, t) and \
                        self.action_of(gt) != _compose(a, self.action_of(t)):
                    raise ModuleSpecError(message, at=g.element_str(t))


def one_dim_rep(group: FiniteGroup, elements, values: dict) -> Representation:
    """Character given by scalar values on generating elements, over the
    field of its first CycloNumber value, or over Q when every value is a
    bare rational."""
    if not values:
        raise ModuleSpecError("representation needs at least one generator matrix")
    field = next((v.field for v in values.values()
                  if isinstance(v, CycloNumber)), CycloField(1))
    cols = {e: [{0: v} if v else {}] for e, v in values.items()}
    return Representation.of_subgroup(group, elements, field, cols)


class YDModule(Representation):
    """Finite-dimensional Yetter-Drinfeld module with homogeneous basis: a
    representation of the group with a group degree (coaction) per basis
    vector.

    gen_columns maps every generator of the group to its sparse columns.
    """

    def __init__(self, group: FiniteGroup, field: CycloField, coaction,
                 gen_columns, labels, blocks, check=True):
        self.coaction = list(coaction)
        super().__init__(group, field, len(self.coaction),
                         {gen: gen_columns[gen] for gen in group.generators})
        self.basis_labels = list(labels)
        self.blocks = list(blocks)  # (name, start, stop) per summand
        self.theta = len(self.blocks)
        # the summand of each basis vector
        self._block_of = [b for b, (_, start, stop) in enumerate(self.blocks)
                          for _ in range(start, stop)]
        self.label_index = {lab: i for i, lab in enumerate(self.basis_labels)}
        if len(self.label_index) != self.dim:
            raise ModuleSpecError("basis labels must be distinct")
        self._braiding = None
        self._fingerprint = None
        if check and self.dim:
            self.check_axioms()

    # -- structure access

    def multidegree(self, i) -> tuple:
        b = self._block_of[i]
        return tuple(1 if j == b else 0 for j in range(self.theta))

    def block_of(self, i) -> int:
        return self._block_of[i]

    def block_indices(self, b) -> range:
        _, start, stop = self.blocks[b]
        return range(start, stop)

    # -- axioms

    def check_axioms(self):
        g = self.group
        ident = [{i: self.field.one()} for i in range(self.dim)]
        if self.generator_columns.get(g.identity, ident) != ident:
            raise ModuleSpecError("identity must act as the identity matrix")
        self.check_relations("action is not a group homomorphism")
        for gen, cols in self.generator_columns.items():
            for j, col in enumerate(cols):
                want = g.conjugate(gen, self.coaction[j])
                if any(self.coaction[i] != want for i in col):
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
        g = self.group
        gen_columns = {gen: _transpose(self.action_of(g.inv(gen)), self.dim)
                       for gen in g.generators}
        return YDModule(
            g, self.field,
            [g.inv(e) for e in self.coaction],
            gen_columns,
            [lab + "*" for lab in self.basis_labels],
            [(name + "*", a, b) for name, a, b in self.blocks],
            check=False)

    def renamed(self, name: str, labels=None) -> "YDModule":
        """Copy of a one-block module named name, with labels name1, name2,
        ... unless given; it shares the actions and the cached fingerprint."""
        if labels is None:
            labels = [f"{name}{k + 1}" for k in range(self.dim)]
        out = YDModule(self.group, self.field, self.coaction,
                       self.generator_columns, labels, [(name, 0, self.dim)],
                       check=False)
        out._memo = self._memo
        out._fingerprint = self._fingerprint
        return out


class BraidingOperator:
    """The braiding c and its inverse on M (x) M, kept as sparse columns."""

    def __init__(self, module: YDModule):
        m, g = module, module.group
        self.columns = {}
        self.inverse_columns = {}
        acts = [m.action_of(e) for e in m.coaction]
        inverse_acts = [m.action_of(g.inv(e)) for e in m.coaction]
        for a in range(m.dim):
            for b in range(m.dim):
                self.columns[a, b] = [((b2, a), s)
                                      for b2, s in acts[a][b].items()]
                self.inverse_columns[a, b] = [((b, a2), s) for a2, s
                                              in inverse_acts[b][a].items()]

    def apply(self, vec: dict, k=0, inverse=False) -> dict:
        """Apply c (or c^-1) on slots k, k+1 of a sparse vector keyed by
        basis words: the braid-group lift c_k = id (x) c (x) id."""
        cols = self.inverse_columns if inverse else self.columns
        out = {}
        for word, coeff in vec.items():
            for pair, s in cols[word[k], word[k + 1]]:
                w2 = word[:k] + pair + word[k + 2:]
                acc = out.get(w2)
                term = coeff * s
                out[w2] = term if acc is None else acc + term
        return _nonzero(out)


def build_M_O_rho(group: FiniteGroup, cls: ConjugacyClassData, rho: Representation,
                  name="x", index_base=1) -> YDModule:
    """Induced module on a conjugacy class with centralizer representation."""
    if not isinstance(name, str):
        raise ModuleSpecError("module 'name' must be a string", got=name)
    if set(rho.tree) != set(cls.centralizer):
        raise ModuleSpecError("representation is not over the class centralizer")
    t, d = cls.size, rho.dim
    field = rho.field
    coaction = [cls.members[i] for i in range(t) for _ in range(d)]
    labels = []
    for i in range(t):
        for v in range(d):
            suffix = f"_{v}" if d > 1 else ""
            labels.append(f"{name}{index_base + i}{suffix}")

    gen_columns = {}
    for gen in group.generators:
        cols = []
        for j in range(t):
            k, gamma = cls.decompose(gen, j)
            rg = rho.action_of(gamma)
            cols.extend({k * d + w2: s for w2, s in rg[w].items()}
                        for w in range(d))
        gen_columns[gen] = cols

    return YDModule(group, field, coaction, gen_columns, labels,
                    [(name, 0, t * d)])


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Whether two group objects describe the same group presentation."""
    return a is b or (a.backend == b.backend and a.elements == b.elements
                      and a.generators == b.generators)


def direct_sum(parts) -> YDModule:
    """Concatenate blocks; block j of the result carries multidegree alpha_j.
    A single nonzero part is returned as it is."""
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise ModuleSpecError("direct sum needs at least one nonzero part")
    if len(parts) == 1:
        return parts[0]
    group = parts[0].group
    field = parts[0].field
    for p in parts[1:]:
        if not _same_group(p.group, group):
            raise ModuleSpecError("direct sum parts must share one group")
        if p.field is not field:
            raise ModuleSpecError("direct sum parts must share one scalar field")
    offsets = []
    pos = 0
    for p in parts:
        offsets.append(pos)
        pos += p.dim
    coaction = [e for p in parts for e in p.coaction]
    labels = [lab for p in parts for lab in p.basis_labels]
    blocks = []
    for p, off in zip(parts, offsets):
        for name, a, b in p.blocks:
            blocks.append((name, off + a, off + b))
    gen_columns = {
        gen: [{off + i: s for i, s in col.items()}
              for p, off in zip(parts, offsets)
              for col in p.generator_columns[gen]]
        for gen in group.generators}
    return YDModule(group, field, coaction, gen_columns, labels, blocks,
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
    if d == 1:
        return _character_key(module, s, fiber[0])

    def restricted_trace(gamma):
        cols = module.action_of(gamma)
        tr = module.field.zero()
        for i in fiber:
            v = cols[i].get(i)
            if v is not None:
                tr = tr + v
        return tr

    cent = g.centralizer(s)
    char = {gamma: restricted_trace(gamma) for gamma in cent}
    norm = module.field.zero()
    for gamma in cent:
        norm = norm + char[gamma] * char[g.inv(gamma)]
    norm = norm * module.field.rational(1, len(cent))
    if norm != module.field.one():
        raise ModuleSpecError("block is not irreducible", norm=str(norm),
                              base_point=g.element_str(s))
    return _class_key(g, s, char)


def _character_key(module: YDModule, s, i):
    """Key of a block whose fiber over s is the one vector e_i.  C(s) acts
    on e_i by a character, which its values on centralizer_generators(s)
    determine: the key is memoized on the group by those values, and the
    character extends along their Cayley tree as chi(gen * t) =
    chi(gen) * chi(t), one scalar product per element."""
    g = module.group
    gens = g.centralizer_generators(s)
    values = tuple(module.action_of(gen)[i][i] for gen in gens)
    memo = (module.field, s, values)
    key = g.character_keys.get(memo)
    if key is None:
        value = dict(zip(gens, values))
        chi = {}
        for t, edge in g.cayley_tree(gens).items():
            chi[t] = module.field.one() if edge is None else \
                value[edge[0]] * chi[edge[1]]
        key = g.character_keys[memo] = _class_key(g, s, chi)
    return key


def _class_key(g: FiniteGroup, s, char):
    """The class function char on the centralizer's conjugacy classes,
    canonically ordered, with its base point."""
    return (g.element_key(s), tuple((g.element_key(e), str(char[e]))
                                    for e in g.centralizer_classes(s)))


def fingerprint(module: YDModule):
    """Canonical isomorphism key, one entry per block.

    Each block must fill one conjugacy class with fibers of equal dimension.
    A block whose fiber is one-dimensional is M(O, chi) for a character chi
    of the centralizer, irreducible as it stands; chi is read on the
    centralizer's generators, and its key is memoized on the group by those
    values.  A larger fiber must have exact character norm 1 over the
    centralizer.  Computed once per module object and cached on it.
    """
    if module._fingerprint is None:
        module._fingerprint = tuple(
            _block_fingerprint(module, list(module.block_indices(b)))
            for b in range(module.theta))
    return module._fingerprint


# -- JSON specs


def _spec_scalar(field: CycloField, value):
    if not isinstance(value, str):
        raise ModuleSpecError("rho entries must be scalar strings", got=value)
    return field.parse(value)


def _spec_columns(field: CycloField, rows, dim: int):
    """Sparse columns of a dim x dim matrix given as rows of scalar strings."""
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise ModuleSpecError("rho matrices must be dim x dim lists of rows",
                              dim=dim, got=rows)
    entries = [[_spec_scalar(field, x) for x in r] for r in rows]
    return [{i: entries[i][j] for i in range(dim)
             if entries[i][j]} for j in range(dim)]


def _spec_element(group: FiniteGroup, value, field_name: str):
    """A group element from its JSON form, refused as a module-spec fault."""
    try:
        return group.parse_element(value)
    except (TypeError, ValueError) as exc:
        raise ModuleSpecError(f"malformed group element in '{field_name}'",
                              got=value) from exc


def module_from_spec(group: FiniteGroup, spec: dict, field: CycloField,
                     name="x", index_base=1) -> YDModule:
    """Build one block from {"class_rep": ..., "rho": {...}} JSON.

    rho is {"values": {element: scalar}} for a character, or {"dim": d,
    "matrices": {element: d x d rows}} for a d-dimensional representation,
    both given on generators of the class centralizer.
    """
    if "class_rep" not in spec or "rho" not in spec:
        raise ModuleSpecError("module spec needs 'class_rep' and 'rho'")
    s = _spec_element(group, spec["class_rep"], "class_rep")
    numeration = spec.get("numeration")
    if numeration is not None:
        if (not isinstance(numeration, dict)
                or not all(isinstance(numeration.get(k), list)
                           for k in ("members", "reps"))):
            raise ModuleSpecError("'numeration' must be an object with "
                                  "'members' and 'reps' lists", got=numeration)
        for k in ("members", "reps"):
            for v in numeration[k]:
                _spec_element(group, v, "numeration")
    index_base = spec.get("index_base", index_base)
    if not isinstance(index_base, int) or isinstance(index_base, bool):
        raise ModuleSpecError("'index_base' must be an integer",
                              got=index_base)
    cls = conjugacy_class(group, s, numeration=numeration)
    rho_spec = spec["rho"]
    if not isinstance(rho_spec, dict):
        raise ModuleSpecError("'rho' must be an object", got=rho_spec)
    dim = rho_spec.get("dim", 1)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModuleSpecError("rho 'dim' must be a positive integer", dim=dim)
    key = "values" if dim == 1 else "matrices"
    given = rho_spec.get(key)
    if not isinstance(given, dict):
        raise ModuleSpecError(f"rho of dim {dim} needs '{key}' as an object "
                              "keyed by centralizer generators")
    cols = {_spec_element(group, k, "rho"):
            _spec_columns(field, [[v]] if dim == 1 else v, dim)
            for k, v in given.items()}
    rho = Representation.of_subgroup(group, cls.centralizer, field, cols)
    return build_M_O_rho(group, cls, rho, name=name, index_base=index_base)


def diagonal_modules(q_rows, name="v"):
    """Realize a diagonal braiding matrix over an abelian group.

    q_rows is a theta x theta array of root-of-unity scalar strings; returns
    (group, field, [one-dimensional blocks]) with q_ij = chi_j(g_i).
    """
    if not isinstance(q_rows, list) or not q_rows or any(
            not isinstance(r, list) or len(r) != len(q_rows) for r in q_rows):
        raise ModuleSpecError("diagonal braiding matrix must be a square "
                              "list of rows", got=q_rows)
    theta = len(q_rows)
    texts = [[str(s) for s in row] for row in q_rows]
    field = field_of(s for row in texts for s in row)
    q = [[field.parse(s) for s in row] for row in texts]
    # group exponent: lcm of the multiplicative orders of the entries
    n = 1
    bound = lcm(2, field.conductor)
    for row in q:
        for v in row:
            acc, order = v, 1
            while acc != field.one():
                acc = acc * v
                order += 1
                if order > bound:
                    raise ModuleSpecError("diagonal entries must be roots of unity",
                                          value=str(v))
            n = lcm(n, order)
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
