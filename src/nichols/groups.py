"""Finite groups: permutation, abelian-by-orders, and dihedral backends.

Elements are hashable canonical tuples; enumeration order is the sorted order
of those tuples, which makes every derived numeration deterministic.
Permutations are one-line image tuples, 1-indexed, composed as functions
(a*b means apply b first).  Dihedral elements are pairs (a, b) for x^a y^b.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import lcm

from .errors import GroupSpecError


class FiniteGroup:
    """Fully enumerated finite group with canonical element tuples."""

    def __init__(self, backend: str, name: str, elements, generators,
                 identity, mul, inv, parse, display):
        self.backend = backend
        self.name = name
        self.elements = sorted(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.generators = list(generators)
        self.identity = identity
        self._mul = mul
        self._inv = inv
        self._parse = parse
        self._display = display
        self.order = len(self.elements)
        self._classes = None
        self._centralizers = {}
        self._centralizer_structures = {}
        # ydmodule.fingerprint's keys of one-dimensional fibers, by (field,
        # s, character values on centralizer_generators(s))
        self.character_keys = {}
        self._cayley_trees = {}
        self._exponent = None
        self._check_axioms()

    # -- group structure

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def conjugate(self, x, y):
        """x |> y = x y x^-1."""
        return self._mul(self._mul(x, y), self._inv(x))

    def element_order(self, a) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = self._mul(acc, a)
            k += 1
        return k

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            exp = 1
            for e in self.elements:
                exp = lcm(exp, self.element_order(e))
            self._exponent = exp
        return self._exponent

    def _check_axioms(self):
        if self.identity not in self.index:
            raise GroupSpecError("identity missing from element list")
        limit = 512
        sample = self.elements if self.order <= limit else self.elements[:limit]
        for a in sample:
            if self._mul(a, self._inv(a)) != self.identity:
                raise GroupSpecError("inverse axiom failed", element=str(a))
            if self._mul(a, self.identity) != a:
                raise GroupSpecError("identity axiom failed", element=str(a))
            for b in self.generators:
                if self._mul(a, b) not in self.index:
                    raise GroupSpecError("closure failed", left=str(a), right=str(b))

    # -- conjugacy

    def _conjugation_orbits(self, elements, gens):
        """Orbits of elements under conjugation by gens, each sorted, in
        order of their smallest members; an orbit closes under generators."""
        seen = set()
        orbits = []
        for e in sorted(elements):
            if e in seen:
                continue
            orbit = {e}
            frontier = [e]
            while frontier:
                y = frontier.pop()
                for g in gens:
                    z = self.conjugate(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        frontier.append(z)
            seen |= orbit
            orbits.append(sorted(orbit))
        return orbits

    def conjugacy_classes(self):
        """Sorted list of sorted classes; deterministic."""
        if self._classes is None:
            self._classes = self._conjugation_orbits(self.elements,
                                                     self.generators)
        return self._classes

    def class_of(self, s):
        for cl in self.conjugacy_classes():
            if s in cl:
                return cl
        raise GroupSpecError("element not in group", element=str(s))

    def centralizer(self, s):
        """Sorted elements commuting with s; cached per element."""
        cent = self._centralizers.get(s)
        if cent is None:
            cent = [t for t in self.elements
                    if self._mul(t, s) == self._mul(s, t)]
            self._centralizers[s] = cent
        return cent

    def _centralizer_structure(self, s):
        """(generators, class representatives) of C(s), computed once for
        each distinct centralizer, which many base points may share."""
        cent = tuple(self.centralizer(s))
        out = self._centralizer_structures.get(cent)
        if out is None:
            gens = subgroup_generators(self, cent)
            orbits = self._conjugation_orbits(cent, gens)
            out = self._centralizer_structures[cent] = (
                gens, [orbit[0] for orbit in orbits])
        return out

    def centralizer_generators(self, s):
        """subgroup_generators of C(s)."""
        return self._centralizer_structure(s)[0]

    def centralizer_classes(self, s):
        """Smallest member of each conjugacy class of C(s), ascending; the
        classes are the orbits of conjugation by centralizer_generators(s)."""
        return self._centralizer_structure(s)[1]

    def cayley_tree(self, gens):
        """Breadth-first tree of the subgroup generated by gens, cached per
        generator tuple: t -> (gen, parent) with t = gen * parent, and the
        identity -> None.  Iterating it gives the elements in BFS order."""
        gens = tuple(gens)
        tree = self._cayley_trees.get(gens)
        if tree is None:
            tree = {self.identity: None}
            frontier = deque([self.identity])
            while frontier:
                e = frontier.popleft()
                for gen in gens:
                    t = self._mul(gen, e)
                    if t not in tree:
                        tree[t] = (gen, e)
                        frontier.append(t)
            self._cayley_trees[gens] = tree
        return tree

    # -- element I/O

    def parse_element(self, value):
        """Accept the JSON form (list of ints) or the comma-joined key string."""
        if isinstance(value, str):
            value = [int(tok) for tok in value.split(",")]
        e = self._parse(value)
        if e not in self.index:
            raise GroupSpecError("element not in group", element=str(value))
        return e

    def element_key(self, e) -> str:
        return ",".join(str(x) for x in e)

    def element_str(self, e) -> str:
        return self._display(e)


def generated_subgroup(group: FiniteGroup, gens):
    """Set of all products of the given elements (with identity)."""
    return set(group.cayley_tree(gens))


def subgroup_generators(group: FiniteGroup, elements):
    """Greedy small generating set for a subgroup given as an element list."""
    want = set(elements)
    gens = []
    have = {group.identity}
    for e in sorted(elements):
        if e not in have:
            gens.append(e)
            have = generated_subgroup(group, gens)
        if have == want:
            break
    assert have == want, "generator closure mismatch (input not a subgroup?)"
    return gens


@dataclass
class ConjugacyClassData:
    """A numbered conjugacy class with coset representatives.

    members[0] is the base point s; reps[i] |> s = members[i].  decompose
    realizes t*reps[j] = reps[k]*gamma with gamma in the centralizer.
    Indices are 0-based.
    """

    group: FiniteGroup
    base_point: object
    members: list
    reps: list
    centralizer: list
    _member_index: dict = field(default=None, repr=False)

    def __post_init__(self):
        g = self.group
        self._member_index = {m: i for i, m in enumerate(self.members)}
        if len(self._member_index) != len(self.members):
            raise GroupSpecError("class numeration has repeated members")
        if self.members[0] != self.base_point:
            raise GroupSpecError("numeration must start at the base point")
        if set(self.members) != set(g.class_of(self.base_point)):
            raise GroupSpecError("numeration does not exhaust the class")
        for i, (m, x) in enumerate(zip(self.members, self.reps)):
            if g.conjugate(x, self.base_point) != m:
                raise GroupSpecError("rep does not conjugate the base point to member",
                                     index=i)
        if len(self.members) * len(self.centralizer) != g.order:
            raise GroupSpecError("orbit-stabilizer count mismatch")

    @property
    def size(self) -> int:
        return len(self.members)

    def decompose(self, t, j: int):
        """Unique (k, gamma) with t*reps[j] = reps[k]*gamma, gamma central to s."""
        g = self.group
        u = g.mul(t, self.reps[j])
        k = self._member_index[g.conjugate(u, self.base_point)]
        gamma = g.mul(g.inv(self.reps[k]), u)
        return k, gamma


def conjugacy_class(group: FiniteGroup, s, numeration=None) -> ConjugacyClassData:
    """Build ConjugacyClassData for the class of s.

    Default numeration: s first, the rest in canonical element order, with each
    rep the first element conjugating s to the member.  numeration overrides
    with explicit {"members": [...], "reps": [...]} in element JSON form.
    """
    if s not in group.index:
        raise GroupSpecError("element not in group", element=str(s))
    cls = group.class_of(s)
    centralizer = group.centralizer(s)
    if numeration is None:
        members = [s] + [m for m in cls if m != s]
        reps = []
        for m in members:
            for t in group.elements:
                if group.conjugate(t, s) == m:
                    reps.append(t)
                    break
    else:
        try:
            members = [group.parse_element(v) for v in numeration["members"]]
            reps = [group.parse_element(v) for v in numeration["reps"]]
        except KeyError as exc:
            raise GroupSpecError("numeration override needs 'members' and 'reps'") from exc
        if len(members) != len(reps):
            raise GroupSpecError("numeration members/reps length mismatch")
    return ConjugacyClassData(
        group=group, base_point=members[0], members=members, reps=reps,
        centralizer=centralizer)


# -- permutation backend


def _perm_cycles(p) -> str:
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i + 1:
            seen[i] = True
            continue
        cyc = [i + 1]
        seen[i] = True
        j = p[i]
        while j != i + 1:
            cyc.append(j)
            seen[j - 1] = True
            j = p[j - 1]
        out.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(out) if out else "e"


def _integer(value):
    """value if it is an int; JSON true and false, floats and strings raise
    TypeError rather than being truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def build_permutation_group(degree: int, generators) -> FiniteGroup:
    """Group generated by permutations in 1-indexed one-line image notation."""
    try:
        degree = _integer(degree)
        gens = [tuple(_integer(x) for x in g) for g in generators]
    except TypeError as exc:
        raise GroupSpecError("permutation degree and images must be integers",
                             degree=degree, generators=generators) from exc
    if degree < 1:
        raise GroupSpecError("degree must be positive", degree=degree)
    for t in gens:
        if sorted(t) != list(range(1, degree + 1)):
            raise GroupSpecError("not a permutation of 1..degree", value=list(t))
    identity = tuple(range(1, degree + 1))

    def mul(a, b):
        return tuple(a[b[i] - 1] for i in range(degree))

    def inv(a):
        out = [0] * degree
        for i, x in enumerate(a):
            out[x - 1] = i + 1
        return tuple(out)

    elements = {identity}
    frontier = [identity]
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = mul(y, g)
            if z not in elements:
                elements.add(z)
                frontier.append(z)

    def parse(value):
        return tuple(_integer(x) for x in value)

    return FiniteGroup("permutation", f"perm{degree}", elements, gens, identity,
                       mul, inv, parse, _perm_cycles)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n via the transposition (1 2) and the n-cycle."""
    if n == 1:
        return build_permutation_group(1, [(1,)])
    cycle = tuple(list(range(2, n + 1)) + [1])
    swap = tuple([2, 1] + list(range(3, n + 1)))
    return build_permutation_group(n, [swap, cycle])


# -- abelian backend


def build_abelian_group(orders) -> FiniteGroup:
    """Z_{n1} x ... x Z_{nk}, elements as exponent tuples."""
    try:
        orders = [_integer(n) for n in orders]
    except TypeError as exc:
        raise GroupSpecError("abelian 'orders' must be a list of integers",
                             orders=orders) from exc
    if not orders or any(n < 1 for n in orders):
        raise GroupSpecError("abelian orders must be positive", orders=orders)
    k = len(orders)
    identity = (0,) * k

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    def inv(a):
        return tuple((-x) % n for x, n in zip(a, orders))

    elements = [identity]
    for i, n in enumerate(orders):
        elements = [e[:i] + (r,) + e[i + 1:] for e in elements for r in range(n)]
    gens = [tuple(1 if j == i else 0 for j in range(k))
            for i in range(k) if orders[i] > 1]
    if not gens:
        gens = [identity]

    def parse(value):
        value = [_integer(x) for x in value]
        if len(value) != k:
            raise GroupSpecError("exponent tuple has wrong length", value=value)
        return tuple(x % n for x, n in zip(value, orders))

    def display(e):
        return "(" + ",".join(str(x) for x in e) + ")"

    g = FiniteGroup("abelian", "x".join(f"Z{n}" for n in orders),
                    elements, gens, identity, mul, inv, parse, display)
    g.orders = orders
    return g


# -- dihedral backend


def build_dihedral(n: int) -> FiniteGroup:
    """D_n for odd n: x^2 = e = y^n, x y x = y^-1; elements (a, b) = x^a y^b."""
    try:
        n = _integer(n)
    except TypeError as exc:
        raise GroupSpecError("dihedral 'n' must be an integer", n=n) from exc
    if n <= 1 or n % 2 == 0:
        raise GroupSpecError("dihedral backend requires odd n > 1", n=n)

    def mul(p, q):
        a1, b1 = p
        a2, b2 = q
        return ((a1 + a2) % 2, ((b1 if a2 == 0 else -b1) + b2) % n)

    def inv(p):
        a, b = p
        return (a, (b if a else -b) % n)

    elements = [(a, b) for a in (0, 1) for b in range(n)]
    x, y = (1, 0), (0, 1)

    def parse(value):
        a, b = (_integer(v) for v in value)
        return (a % 2, b % n)

    def display(p):
        a, b = p
        if a == 0 and b == 0:
            return "e"
        xs = "x" if a else ""
        ys = "" if b == 0 else ("y" if b == 1 else f"y^{b}")
        return xs + ("*" if xs and ys else "") + ys

    return FiniteGroup("dihedral", f"D{n}", elements, [x, y], (0, 0),
                       mul, inv, parse, display)


def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from its JSON description."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise GroupSpecError("group spec must be an object with a 'type'")
    kind = spec["type"]
    if kind == "permutation":
        if "degree" not in spec or "generators" not in spec:
            raise GroupSpecError("permutation spec needs 'degree' and 'generators'")
        return build_permutation_group(spec["degree"], spec["generators"])
    if kind == "abelian":
        if "orders" not in spec:
            raise GroupSpecError("abelian spec needs 'orders'")
        return build_abelian_group(spec["orders"])
    if kind == "dihedral":
        if "n" not in spec:
            raise GroupSpecError("dihedral spec needs 'n'")
        return build_dihedral(spec["n"])
    raise GroupSpecError("unknown group type", type=kind)

