"""Reflection theory for families of irreducible Yetter-Drinfeld modules.

The braided adjoint of one block acting on another generates a chain of
subspaces inside the Nichols algebra of the pair; the step at which the
chain vanishes yields a Cartan entry, and the last nonzero step is itself
an irreducible module.  Replacing block i by its dual and every other
block by that top chain module is a reflection.  Reflections generate a
groupoid, explored breadth-first over isomorphism fingerprints; real
roots, standardness of the Cartan matrices, and finite-type recognition
of the resulting Dynkin diagrams are all derived from the explored graph.

Write M_i for block i and M_j for block j.  The Nichols algebra of the
pair is K # B(M_i), K its right coinvariants, and every chain element y
lies in K, so y is determined by its right derivatives
Phi(y) = (d_k y), k running over the basis of M_j, which lie in
B(M_i) (x) M_j^* (the source paper, Sect. 3; Heckenberger-Schneider,
*Hopf algebras and root systems*, 2020).  The chain therefore runs on
Phi-images inside the Nichols algebra of block i alone, by
Phi_k(ad x_v (y)) = x_v Phi_k(y) - Phi_k(g_v . y) (g_k . x_v) and
Phi_k(t . y) = sum_l A_j(t)_kl t . Phi_l(y), A_j(t) the action of t on
M_j; Phi is injective and equivariant there, so the chain's pivots and
the top chain module are those of the pair algebra.

A Cartan entry and the isomorphism class of the top chain module depend
only on the isomorphism classes of the two blocks.  So each chain is
computed once per pair of block fingerprints, on one state of B(M_i) per
fingerprint of block i, and shared with every family reflected from the
same family.

A Cartan entry that stays nonzero through the configured degree cap is
reported as UnboundedAtCap, never as a number; one nonzero image at the
cap step decides that, with no elimination there.  Reflections along such
a row are refused rather than guessed.  The explored graph stores each
node's family and Cartan matrix, in the order found, and its edges; the
uncertified rows and every verdict are read off those.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .cyclotomic import _add_scaled, _nonzero
from .engine import GradedNicholsState
from .errors import ModuleSpecError, ReflectionError, ScenarioError
from .linalg import eliminate_block
from .ydmodule import YDModule, _same_group, direct_sum, fingerprint

DEFAULT_DEGREE_CAP = 8
DEFAULT_NODE_LIMIT = 64
DEFAULT_STATE_LIMIT = 20000

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class UnboundedAtCap:
    """Cartan entry whose adjoint chain was still nonzero at the degree cap,
    so it is known to satisfy a <= 1 - cap without being determined."""

    cap: int

    def to_jsonable(self):
        # the report keeps chain_reached, the chain degree certified
        # nonzero, which is always the cap
        return {"unbounded_at_cap": self.cap, "chain_reached": self.cap}


class _ChainCache:
    """Adjoint chain data shared by a family and every family reflected
    from it, keyed by block fingerprints, so isomorphic pairs share it."""

    def __init__(self):
        # fp -> engine state of the Nichols algebra of a block with that
        # fingerprint
        self.states = {}
        # (fp_i, fp_j, cap) -> _Chain
        self.chains = {}
        # fp -> dual of a block with that fingerprint
        self.duals = {}
        self.hits = 0
        self.misses = 0


class FamilyM:
    """Ordered family of irreducible one-block modules over one group.

    Fingerprints are computed on construction; see fingerprint for what
    that checks of each block.  Families built by reflect share their
    parent's chain cache.
    """

    def __init__(self, blocks, cache=None):
        blocks = list(blocks)
        if not blocks:
            raise ModuleSpecError("a family needs at least one block")
        for b in blocks:
            if b.theta != 1 or b.dim == 0:
                raise ModuleSpecError(
                    "family blocks must be nonzero single-summand modules")
        group, fld = blocks[0].group, blocks[0].field
        for b in blocks[1:]:
            if not _same_group(b.group, group):
                raise ModuleSpecError("family blocks must share one group")
            if b.field is not fld:
                raise ModuleSpecError("family blocks must share one scalar field")
        self.blocks = blocks
        self.theta = len(blocks)
        self.group = group
        self.field = fld
        self.fingerprints = tuple(fingerprint(b)[0] for b in blocks)
        self._cache = _ChainCache() if cache is None else cache

    def assembled(self) -> YDModule:
        """Direct sum of all blocks, relabeled so block j has multidegree
        alpha_j."""
        return direct_sum(
            [b.renamed(f"m{j + 1}_") for j, b in enumerate(self.blocks)])

    def block_state(self, i: int) -> GradedNicholsState:
        """Engine state of the Nichols algebra of block i; one per
        fingerprint, built on the first block seen with that fingerprint
        (its state.module)."""
        fp = self.fingerprints[i]
        state = self._cache.states.get(fp)
        if state is None:
            state = self._cache.states[fp] = GradedNicholsState(self.blocks[i])
        return state

    def dual(self, i: int) -> YDModule:
        """Dual of block i, labeled as YDModule.dual labels it; computed and
        fingerprinted once per fingerprint."""
        block = self.blocks[i]
        cached = self._cache.duals.get(self.fingerprints[i])
        if cached is None:
            cached = self._cache.duals[self.fingerprints[i]] = block.dual()
            fingerprint(cached)
        return cached.renamed(block.blocks[0][0] + "*",
                              [lab + "*" for lab in block.basis_labels])

    def __repr__(self):
        dims = ",".join(str(b.dim) for b in self.blocks)
        return f"FamilyM(theta={self.theta}, dims=[{dims}])"


@dataclass
class _Chain:
    entry: object          # int or UnboundedAtCap
    state: GradedNicholsState   # B(M_i), M_i = state.module
    block: YDModule        # M_j, whose action the Phi-rows use
    degree: int            # degree of the last step eliminated: the last
                           # nonzero step of an exact chain, max(cap - 1, 1)
                           # of an open one, whose cap step is only
                           # certified nonzero
    rows: list             # independent images spanning that step, as
                           # Phi-rows (the pivots among its images): per
                           # basis vector k of M_j, the coords of Phi_k
                           # over B(M_i) in degree - 1
    top: YDModule = None   # that step of an exact chain as a module,
                           # built by l_j_max


def _check_indices(fam: FamilyM, i: int, j: int):
    if not (0 <= i < fam.theta and 0 <= j < fam.theta):
        raise ScenarioError("block index out of range", i=i, j=j,
                            theta=fam.theta)
    if i == j:
        raise ScenarioError("the adjoint chain needs two distinct blocks",
                            index=i)


def _flat(phi) -> dict:
    """A Phi-row as one sparse vector over (k, basis word) columns."""
    return {(k, w): c for k, comp in enumerate(phi) for w, c in comp.items()}


def _phi_act(state: GradedNicholsState, block: YDModule, n: int, t, phi):
    """Phi(t . y) from the Phi-row phi of y, its entries in degree n:
    Phi_k(t . y) = sum_l A(t)_kl t . Phi_l(y), with A(t)_kl the coefficient
    of basis vector k in t . (basis vector l) of block."""
    out = [{} for _ in phi]
    for comp, col in zip(phi, block.action_of(t)):
        if not comp:
            continue
        acted = state.act(n, t, comp)
        for k, a in col.items():
            _add_scaled(out[k], acted, a)
    return [_nonzero(comp) for comp in out]


def _step_images(state: GradedNicholsState, block: YDModule, shifted, m: int,
                 rows):
    """Phi(ad x_v (y)) for each letter v of M_i, then each row y of the
    chain step in degree m, zero images included."""
    minus = -state.field.one()
    ui = state.module
    for v in range(ui.dim):
        for row in rows:
            acted = _phi_act(state, block, m - 1, ui.coaction[v], row)
            image = []
            for k, (comp, z) in enumerate(zip(row, acted)):
                acc = state.left_multiply(v, m - 1, comp)
                if z:
                    _add_scaled(acc, state.multiply(
                        (m - 1, z), (1, shifted[k][v]))[1], minus)
                image.append(_nonzero(acc))
            yield image


def _adjoint_chain(fam: FamilyM, i: int, j: int, cap: int) -> _Chain:
    """Iterate the braided adjoint of block i on block j, as Phi-rows over
    the Nichols algebra of block i, until a step vanishes or the degree cap
    blocks certification.

    Every step below the cap is eliminated to its pivot rows.  The step at
    the cap is not: its images are built in order only up to the first
    nonzero one, which certifies the step nonzero, all that
    UnboundedAtCap(cap) claims.  An open chain therefore keeps the
    rows of degree cap - 1 (of degree 1 at cap 1); if every image at the cap
    is zero, the entry is exact.  One DEBUG line per step goes to the
    nichols.groupoid logger.
    """
    _check_indices(fam, i, j)
    if cap < 1:
        raise ScenarioError("degree cap must be at least 1", cap=cap)
    cache = fam._cache
    key = (fam.fingerprints[i], fam.fingerprints[j], cap)
    cached = cache.chains.get(key)
    if cached is not None:
        cache.hits += 1
        return cached
    cache.misses += 1
    state = fam.block_state(i)
    ui, uj = state.module, fam.blocks[j]
    one = state.field.one()
    # g_k . x_v: column v of the action of g_k on block i
    shifted = [ui.action_of(g) for g in uj.coaction]
    # Phi_k(w_l) = delta_kl in degree 0
    rows = [[{0: one} if k == l else {} for k in range(uj.dim)]
            for l in range(uj.dim)]
    entry = UnboundedAtCap(cap)
    m = 1
    while m < cap:
        # Phi(ad x_v (y)) has its entries in degree m of B(M_i)
        state.extend_to(m)
        images = _step_images(state, uj, shifted, m, rows)
        built = ui.dim * len(rows)
        if m + 1 == cap:
            # the zero images before the first nonzero one, if any
            zeros = next((n for n, image in enumerate(images) if any(image)),
                         built)
            alive = zeros < built
            log.debug("adjoint chain %d on %d, degree %d (cap): %d zero "
                      "images, then %s", i + 1, j + 1, m + 1, zeros,
                      "a nonzero one" if alive else "none left")
            if not alive:
                entry = 1 - m
            break
        images = [image for image in images if any(image)]
        nonzero = len(images)
        if images:
            results = eliminate_block(state.field, map(_flat, images),
                                      track=False, degree=m + 1,
                                      key="adjoint chain")
            images = [image for image, (kind, _) in zip(images, results)
                      if kind == "pivot"]
        log.debug("adjoint chain %d on %d, degree %d: %d images built, "
                  "%d nonzero, %d pivots kept", i + 1, j + 1, m + 1, built,
                  nonzero, len(images))
        if not images:
            entry = 1 - m
            break
        rows = images
        m += 1
    chain = _Chain(entry, state, uj, m, rows)
    cache.chains[key] = chain
    return chain


def cartan_entry(fam: FamilyM, i: int, j: int, cap: int = DEFAULT_DEGREE_CAP):
    """Cartan entry a_ij as an integer <= 0, or UnboundedAtCap."""
    return _adjoint_chain(fam, i, j, cap).entry


def _gcm_fault(a, exact: bool):
    """The first fault of a as a generalized Cartan matrix, as (message,
    details), or None if there is none; unless exact, an off-diagonal entry
    may also be UnboundedAtCap."""
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        return "Cartan matrix must be square and nonempty", {}
    for i in range(n):
        for j in range(n):
            v, at = a[i][j], {"at": (i + 1, j + 1)}
            if not isinstance(v, int):
                if exact or i == j or not isinstance(v, UnboundedAtCap):
                    return "Cartan entries must be integers", at
            elif i == j and v != 2:
                return "Cartan diagonal must equal 2", at
            elif i != j and v > 0:
                return "off-diagonal Cartan entries must be <= 0", at
            elif i != j and isinstance(a[j][i], int) and \
                    (v == 0) != (a[j][i] == 0):
                return "zero entries must be symmetric", at
    return None


class CartanData:
    """Cartan matrix of a family; off-diagonal entries may be UnboundedAtCap."""

    def __init__(self, entries, cap: int):
        self.entries = [list(row) for row in entries]
        self.theta = len(self.entries)
        self.cap = cap
        # only cartan_matrix builds one, so a fault here is a bug
        fault = _gcm_fault(self.entries, exact=False)
        if fault is not None:
            raise RuntimeError(*fault)

    def row_exact(self, i: int) -> bool:
        return all(isinstance(v, int) for v in self.entries[i])

    def is_exact(self) -> bool:
        return all(self.row_exact(i) for i in range(self.theta))

    def __eq__(self, other):
        return isinstance(other, CartanData) and self.entries == other.entries

    def __repr__(self):
        return f"CartanData({self.entries})"

    def to_jsonable(self):
        return [[v if isinstance(v, int) else v.to_jsonable() for v in row]
                for row in self.entries]


def cartan_matrix(fam: FamilyM, cap: int = DEFAULT_DEGREE_CAP) -> CartanData:
    entries = [[2 if i == j else cartan_entry(fam, i, j, cap)
                for j in range(fam.theta)] for i in range(fam.theta)]
    return CartanData(entries, cap)


def l_j_max(fam: FamilyM, i: int, j: int, cap: int = DEFAULT_DEGREE_CAP,
            name: str = "u") -> YDModule:
    """The top nonzero adjoint chain step as a standalone module.

    Inside the reflected family this block sits at position j with
    multidegree alpha_j - a_ij alpha_i.  The module is fingerprinted before
    returning (see fingerprint for what that checks), and the fingerprint
    stays cached on it.  It is built once per chain and handed out under
    the requested name.
    """
    chain = _adjoint_chain(fam, i, j, cap)
    if not isinstance(chain.entry, int):
        raise ReflectionError(
            "Cartan entry not certified finite within the degree cap",
            i=i, j=j, cap=cap)
    if chain.top is None:
        chain.top = _top_module(chain)
    return chain.top.renamed(name)


def _top_module(chain: _Chain) -> YDModule:
    """The chain's top step as a module named u, for l_j_max to rename.

    Each row's group degree is that of any word w in Phi_k times g_k.  The
    action of each group generator on a row is its Phi-image (_phi_act),
    built only on the words that the rows use (GradedNicholsState.
    action_column), and solved against the rows in one elimination; the
    module derives every other element's action from the generators.
    Built without YDModule.check_axioms: the action is the G-action on
    Phi-rows restricted to a G-stable span and the coaction is read off
    hdegrees, so the relations and the grading hold by construction.
    """
    state, block, rows = chain.state, chain.block, chain.rows
    n = chain.degree - 1
    group = state.module.group
    coaction = []
    for row in rows:
        hdegs = {group.mul(state.hdegrees[n][w], block.coaction[k])
                 for k, comp in enumerate(row) for w in comp}
        if len(hdegs) != 1:
            raise RuntimeError("adjoint chain rows are not homogeneous")
        coaction.append(hdegs.pop())
    images = [_phi_act(state, block, n, t, row)
              for t in group.generators for row in rows]
    dim = len(rows)
    results = eliminate_block(state.field, map(_flat, rows + images),
                              degree=chain.degree, key="top chain module")
    if any(kind != "pivot" for kind, _ in results[:dim]):
        raise RuntimeError("adjoint chain basis is not independent")
    columns = []
    for kind, data in results[dim:]:
        if kind != "combo":
            raise RuntimeError("group action left the adjoint chain span")
        columns.append(data)
    labels = [f"u{k + 1}" for k in range(dim)]
    gen_columns = {t: columns[k * dim:(k + 1) * dim]
                   for k, t in enumerate(group.generators)}
    out = YDModule(group, state.field, coaction, gen_columns, labels,
                   [("u", 0, dim)], check=False)
    try:
        fingerprint(out)
    except ModuleSpecError as exc:
        raise RuntimeError(
            "top adjoint chain step failed the irreducibility check; "
            "this indicates a bug") from exc
    return out


def _cartan_row(fam: FamilyM, i: int, cap: int):
    if not 0 <= i < fam.theta:
        raise ScenarioError("block index out of range", i=i, theta=fam.theta)
    row = [2 if j == i else cartan_entry(fam, i, j, cap)
           for j in range(fam.theta)]
    bad = [j for j, v in enumerate(row) if isinstance(v, UnboundedAtCap)]
    if bad:
        raise ReflectionError(
            "reflection row is not certified finite within the degree cap",
            index=i, uncertified=bad, cap=cap)
    return row


def reflect(fam: FamilyM, i: int, cap: int = DEFAULT_DEGREE_CAP) -> FamilyM:
    """Reflected family: block i dualized, block j the top adjoint module."""
    _cartan_row(fam, i, cap)
    blocks = [fam.dual(i) if j == i else
              l_j_max(fam, i, j, cap, name=f"u{j + 1}_")
              for j in range(fam.theta)]
    return FamilyM(blocks, cache=fam._cache)


def _s_from_row(row, i: int):
    theta = len(row)
    return tuple(tuple((1 if k == j else 0) - (row[j] if k == i else 0)
                       for j in range(theta)) for k in range(theta))


def s_matrix(fam: FamilyM, i: int, cap: int = DEFAULT_DEGREE_CAP):
    """Reflection matrix: alpha_j -> alpha_j - a_ij alpha_i, as row tuples."""
    return _s_from_row(_cartan_row(fam, i, cap), i)


@dataclass
class NodeRecord:
    family: FamilyM
    cartan: CartanData = None

    def uncertified_rows(self) -> list:
        """Rows of the Cartan matrix with an entry open at the degree cap."""
        return [i for i in range(self.cartan.theta)
                if not self.cartan.row_exact(i)]


@dataclass
class GroupoidGraph:
    """Reflection groupoid, keyed by fingerprints in the order found."""

    base_key: tuple
    nodes: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    cap: int = DEFAULT_DEGREE_CAP
    node_limit: int = DEFAULT_NODE_LIMIT
    partial: bool = False

    def node_ids(self) -> dict:
        return {key: f"n{k}" for k, key in enumerate(self.nodes)}

    def has_uncertified_rows(self) -> bool:
        return any(rec.uncertified_rows() for rec in self.nodes.values())

    def to_jsonable(self) -> dict:
        ids = self.node_ids()
        nodes = []
        for key, rec in self.nodes.items():
            nodes.append({
                "id": ids[key],
                "theta": rec.family.theta,
                "block_dims": [b.dim for b in rec.family.blocks],
                "fingerprint": str(key),
                "cartan": rec.cartan.to_jsonable(),
                "uncertified_rows": [i + 1 for i in rec.uncertified_rows()],
            })
        # explore_groupoid adds the edges node by node in the order found,
        # index ascending, so insertion order is sorted by (node, index)
        edges = []
        for (key, i), (key2, s) in self.edges.items():
            edges.append({"from": ids[key], "index": i + 1, "to": ids[key2],
                          "s_matrix": [list(r) for r in s]})
        return {"base": ids[self.base_key], "degree_cap": self.cap,
                "node_limit": self.node_limit, "partial": self.partial,
                "nodes": nodes, "edges": edges}


def explore_groupoid(fam: FamilyM, cap: int = DEFAULT_DEGREE_CAP,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> GroupoidGraph:
    """Breadth-first closure of a family under all certified reflections.

    Uncertified rows stay in the Cartan matrices, never reflected.  When the
    node limit stops a new family from being added the graph is flagged
    partial and the corresponding edges are omitted.  Every explored family
    shares fam's chain cache, so each chain is computed once per pair of
    block fingerprints; the cache grows with the nodes, up to node_limit.
    """
    cache = fam._cache
    hits0, misses0 = cache.hits, cache.misses
    graph = GroupoidGraph(base_key=fam.fingerprints, cap=cap,
                          node_limit=node_limit)
    graph.nodes[fam.fingerprints] = NodeRecord(fam)
    queue = deque([fam.fingerprints])
    while queue:
        key = queue.popleft()
        rec = graph.nodes[key]
        rec.cartan = cartan_matrix(rec.family, cap)
        for i in range(rec.family.theta):
            if not rec.cartan.row_exact(i):
                continue
            fam2 = reflect(rec.family, i, cap)
            key2 = fam2.fingerprints
            if key2 not in graph.nodes:
                if len(graph.nodes) >= node_limit:
                    graph.partial = True
                    continue
                graph.nodes[key2] = NodeRecord(fam2)
                queue.append(key2)
            graph.edges[key, i] = (key2, _s_from_row(rec.cartan.entries[i], i))
    _check_involution(graph)
    log.debug("groupoid: %d nodes, %d edges, chain cache %d hits, %d misses",
              len(graph.nodes), len(graph.edges), cache.hits - hits0,
              cache.misses - misses0)
    return graph


def _check_involution(graph: GroupoidGraph):
    """Every recorded edge must have a matching reverse with the same matrix."""
    for (key, i), (key2, s) in graph.edges.items():
        back = graph.edges.get((key2, i))
        if back is None:
            raise RuntimeError("missing reverse edge; reflection involution "
                               "failed")
        tgt, s2 = back
        if tgt != key or s2 != s:
            raise RuntimeError("reflection involution failed on an edge pair")


@dataclass(frozen=True)
class RootSet:
    roots: frozenset
    partial: bool

    def sorted_roots(self):
        return sorted(self.roots)


def _mat_identity(theta: int):
    return tuple(tuple(1 if r == c else 0 for c in range(theta))
                 for r in range(theta))


def _mat_mul(a, b):
    theta = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(theta))
                       for c in range(theta)) for r in range(theta))


def real_roots(graph: GroupoidGraph) -> RootSet:
    """All images of the simple roots under composed edge matrices.

    The walk enumerates (node, transport) pairs, so distinct morphisms into
    the base along different paths are all collected.  The set is flagged
    partial when the graph is partial, any row stayed uncertified, or the
    walk would exceed DEFAULT_STATE_LIMIT pairs; it then holds the roots
    collected so far.
    """
    base = graph.base_key
    theta = graph.nodes[base].family.theta
    start = (base, _mat_identity(theta))
    states = {start}
    queue = deque([start])
    partial = graph.partial or graph.has_uncertified_rows()
    while queue:
        key, t = queue.popleft()
        for i in range(theta):
            edge = graph.edges.get((key, i))
            if edge is None:
                continue
            key2, s = edge
            nxt = (key2, _mat_mul(t, s))
            if nxt not in states:
                if len(states) >= DEFAULT_STATE_LIMIT:
                    partial = True
                    queue.clear()
                    break
                states.add(nxt)
                queue.append(nxt)
    roots = {tuple(t[r][j] for r in range(theta))
             for _, t in states for j in range(theta)}
    return RootSet(frozenset(roots), partial)


class StandardnessVerdict(NamedTuple):
    status: str            # "standard" | "not-standard" | "undecided"
    witness: object        # None, or a dict naming the differing entry


def is_standard(graph: GroupoidGraph) -> StandardnessVerdict:
    """Whether every explored node repeats the base Cartan matrix exactly."""
    if graph.partial:
        return StandardnessVerdict("undecided", {"reason": "node-limit"})
    ids = graph.node_ids()
    if graph.has_uncertified_rows():
        bad = sorted(ids[k] for k, rec in graph.nodes.items()
                     if rec.uncertified_rows())
        return StandardnessVerdict(
            "undecided", {"reason": "uncertified-rows", "nodes": bad})
    base = graph.nodes[graph.base_key].cartan
    for key, rec in graph.nodes.items():
        cd = rec.cartan
        for i in range(cd.theta):
            for j in range(cd.theta):
                if cd.entries[i][j] != base.entries[i][j]:
                    witness = {
                        "node_a": ids[graph.base_key], "node_b": ids[key],
                        "entry": (i + 1, j + 1),
                        "values": (base.entries[i][j], cd.entries[i][j]),
                    }
                    return StandardnessVerdict("not-standard", witness)
    return StandardnessVerdict("standard", None)


class GCMVerdict(NamedTuple):
    finite: bool
    label: object          # joined Dynkin labels, None when not finite


def _arm_lengths(adj, branch):
    out = []
    for first in adj[branch]:
        length = 1
        prev, cur = branch, first
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        out.append(length)
    return sorted(out)


def _classify_component(vs, a):
    n = len(vs)
    if n == 1:
        return "A1"
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            u, v = vs[x], vs[y]
            if a[u][v] != 0:
                if a[u][v] * a[v][u] > 3:
                    return None
                edges.append((u, v))
    if len(edges) != n - 1:
        return None
    adj = {v: [] for v in vs}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if max(len(adj[v]) for v in vs) > 3:
        return None
    triple = [(u, v) for u, v in edges if a[u][v] * a[v][u] == 3]
    double = [(u, v) for u, v in edges if a[u][v] * a[v][u] == 2]
    if triple:
        return "G2" if n == 2 else None
    if double:
        if len(double) != 1 or any(len(adj[v]) > 2 for v in vs):
            return None
        u, v = double[0]
        if len(adj[u]) == 1 or len(adj[v]) == 1:
            if n == 2:
                return "B2"
            leaf, other = (u, v) if len(adj[u]) == 1 else (v, u)
            # the -2 sits in the short root's row
            return f"B{n}" if a[leaf][other] == -2 else f"C{n}"
        return "F4" if n == 4 else None
    branch = [v for v in vs if len(adj[v]) == 3]
    if not branch:
        return f"A{n}"
    if len(branch) != 1:
        return None
    arms = _arm_lengths(adj, branch[0])
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    return None


def gcm_finite_type(matrix) -> GCMVerdict:
    """Finite-type recognition of a generalized Cartan matrix.

    Accepts a CartanData with exact entries or a plain integer matrix;
    components are classified against the A/B/C/D/E/F/G diagrams.
    """
    if isinstance(matrix, CartanData):
        matrix = matrix.entries
    a = [list(row) for row in matrix]
    fault = _gcm_fault(a, exact=True)
    if fault is not None:
        raise ScenarioError(fault[0], **fault[1])
    n = len(a)
    seen = set()
    labels = []
    for v0 in range(n):
        if v0 in seen:
            continue
        comp = [v0]
        seen.add(v0)
        stack = [v0]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v not in seen and a[u][v] != 0:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        label = _classify_component(sorted(comp), a)
        if label is None:
            return GCMVerdict(False, None)
        labels.append(label)
    return GCMVerdict(True, "+".join(labels))
