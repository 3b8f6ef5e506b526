"""Adjoint chains, Cartan matrices, reflections, and groupoid exploration.

The independent check throughout is the root-of-unity rule for diagonal
braidings: -a_ij is the least h >= 0 with q_ij q_ji q_ii^h = 1 or
1 + q_ii + ... + q_ii^h = 0.  The engine never sees that rule; it finds
entries by iterating the braided adjoint and watching the chain vanish.
"""

import json
import logging
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest

import nichols
from nichols import engine
from nichols.cli import build_blocks
from nichols.cyclotomic import CycloField
from nichols.derivations import element_is_zero
from nichols.engine import GradedNicholsState, hilbert_series
from nichols.errors import ReflectionError, ScenarioError
from nichols.groupoid import (
    CartanData,
    FamilyM,
    UnboundedAtCap,
    _adjoint_chain,
    cartan_entry,
    cartan_matrix,
    explore_groupoid,
    gcm_finite_type,
    is_standard,
    l_j_max,
    real_roots,
    reflect,
    s_matrix,
)
from nichols.groups import build_permutation_group, conjugacy_class, symmetric_group
from nichols.verify import d9_module
from nichols.ydmodule import build_M_O_rho, diagonal_modules, fingerprint, one_dim_rep
from test_derivations import ad_c

Q = CycloField(1)

A2_ROWS = [["z3^1", "1"], ["z3^2", "z3^1"]]
ZERO_ROWS = [["-1", "1"], ["1", "-1"]]
N5_ROWS = [["z5^1", "1"], ["z5^4", "z5^1"]]
B2_ROWS = [["z3^1", "z3^1"], ["1", "-1"]]
NONSTD_ROWS = [["z3^1", "z6^1"], ["1", "z6^1"]]


def diagonal_family(q_rows):
    _, _, blocks = diagonal_modules(q_rows)
    return FamilyM(blocks)


def q_oracle_entry(q, i, j, one):
    """-a_ij for a diagonal braiding matrix of root-of-unity scalars, with
    one the unit of their field."""
    qii, pair = q[i][i], q[i][j] * q[j][i]
    power = one
    geom = one
    for h in range(0, 48):
        if pair * power == one:
            return -h
        if h >= 1 and not geom:
            return -h
        power = power * qii
        geom = geom + power
    raise AssertionError("oracle found no terminating h")


def q_matrix_of(fam):
    """Read q_ij = chi_j(g_i) off a family of one-dimensional blocks."""
    assert all(b.dim == 1 for b in fam.blocks)
    return [[fam.blocks[j].action_of(fam.blocks[i].coaction[0])[0][0]
             for j in range(fam.theta)] for i in range(fam.theta)]


def q_oracle_cartan(fam):
    q = q_matrix_of(fam)
    return [[2 if i == j else q_oracle_entry(q, i, j, fam.field.one())
             for j in range(fam.theta)] for i in range(fam.theta)]


def fk3_block(name="x"):
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3), numeration={
        "members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
        "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    rho = one_dim_rep(g, cls.centralizer, {(2, 1, 3): Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name)


def s3_times_s3_family():
    """Two transposition-class blocks supported on the two S3 factors."""
    g = build_permutation_group(6, [
        (2, 1, 3, 4, 5, 6), (2, 3, 1, 4, 5, 6),
        (1, 2, 3, 5, 4, 6), (1, 2, 3, 5, 6, 4)])
    cls1 = conjugacy_class(g, (2, 1, 3, 4, 5, 6))
    rho1 = one_dim_rep(g, cls1.centralizer, {
        (2, 1, 3, 4, 5, 6): Q.rational(-1),
        (1, 2, 3, 5, 4, 6): Q.rational(1),
        (1, 2, 3, 5, 6, 4): Q.rational(1)})
    m1 = build_M_O_rho(g, cls1, rho1, name="x")
    cls2 = conjugacy_class(g, (1, 2, 3, 5, 4, 6))
    rho2 = one_dim_rep(g, cls2.centralizer, {
        (1, 2, 3, 5, 4, 6): Q.rational(-1),
        (2, 1, 3, 4, 5, 6): Q.rational(1),
        (2, 3, 1, 4, 5, 6): Q.rational(1)})
    m2 = build_M_O_rho(g, cls2, rho2, name="y")
    return FamilyM([m1, m2])


@lru_cache(maxsize=None)
def a2_graph():
    return explore_groupoid(diagonal_family(A2_ROWS), cap=6, node_limit=32)


@lru_cache(maxsize=None)
def zero_graph():
    return explore_groupoid(diagonal_family(ZERO_ROWS), cap=4, node_limit=16)


@lru_cache(maxsize=None)
def nonstd_graph():
    return explore_groupoid(diagonal_family(NONSTD_ROWS), cap=8, node_limit=64)


@lru_cache(maxsize=None)
def fk3_doubled_graph():
    return FamilyM([fk3_block("x"), fk3_block("y")]), \
        explore_groupoid(FamilyM([fk3_block("x"), fk3_block("y")]),
                         cap=3, node_limit=8)


def total_dimension(fam, cap=12):
    series = hilbert_series(fam.assembled(), cap)
    assert series.finished
    return series.total


# -- Cartan entries against the diagonal rule


def test_cartan_matrix_matches_q_oracle_on_diagonal_corpus():
    for rows in (A2_ROWS, ZERO_ROWS, N5_ROWS, B2_ROWS, NONSTD_ROWS):
        fam = diagonal_family(rows)
        got = cartan_matrix(fam, cap=8).entries
        assert got == q_oracle_cartan(fam), rows


def test_cartan_entry_n5_chain_by_direct_adjoint():
    fam = diagonal_family(N5_ROWS)
    assert cartan_entry(fam, 0, 1, cap=6) == -1
    state = GradedNicholsState(fam.assembled())
    state.extend_to(3)
    one = state.field.one()
    first = ad_c(state, 0, (1, {1: one}))
    assert not element_is_zero(first)
    second = ad_c(state, 0, first)
    assert element_is_zero(second)


def test_cartan_entry_rejects_bad_indices():
    fam = diagonal_family(A2_ROWS)
    with pytest.raises(ScenarioError):
        cartan_entry(fam, 0, 0)
    with pytest.raises(ScenarioError):
        cartan_entry(fam, 0, 2)
    with pytest.raises(ScenarioError):
        cartan_entry(fam, 0, 1, cap=0)


def test_fk3_pair_row_is_unbounded_at_small_cap():
    fam, _ = fk3_doubled_graph()
    entry = cartan_entry(fam, 0, 1, cap=3)
    assert isinstance(entry, UnboundedAtCap)
    assert entry.cap == 3
    # the chain is still alive at degree 3, certifying a_12 <= -2
    assert entry.reached == 3
    with pytest.raises(ReflectionError) as err:
        reflect(fam, 0, cap=3)
    assert err.value.code == "reflection-not-certified"
    with pytest.raises(ReflectionError):
        l_j_max(fam, 0, 1, cap=3)
    with pytest.raises(ReflectionError):
        s_matrix(fam, 0, cap=3)


# -- zero Cartan rows


def braiding_square_is_identity_on_mixed_part(fam):
    w = fam.assembled()
    br = w.braiding()
    one = w.field.one()
    d0 = fam.blocks[0].dim
    for a in range(d0):
        for b in range(d0, w.dim):
            twice = br.apply(br.apply({(a, b): one}))
            if twice != {(a, b): one}:
                return False
    return True


def test_zero_cartan_diagonal_pair():
    fam = diagonal_family(ZERO_ROWS)
    assert cartan_matrix(fam, cap=4).entries == [[2, 0], [0, 2]]
    assert braiding_square_is_identity_on_mixed_part(fam)
    assert total_dimension(fam, cap=6) == 4


def test_zero_cartan_group_pair():
    fam = s3_times_s3_family()
    assert cartan_matrix(fam, cap=4).entries == [[2, 0], [0, 2]]
    assert braiding_square_is_identity_on_mixed_part(fam)
    # the mixed braiding squares to the identity, so the algebra factors
    assert total_dimension(fam, cap=10) == 144
    ref = reflect(fam, 0, cap=4)
    assert fingerprint(ref.blocks[0]) == fingerprint(fam.blocks[0].dual())
    assert fingerprint(ref.blocks[1]) == fingerprint(fam.blocks[1])
    assert total_dimension(ref, cap=10) == 144


# -- the top chain module


def test_l_j_max_zero_row_returns_the_block_itself():
    fam = diagonal_family(ZERO_ROWS)
    out = l_j_max(fam, 0, 1, cap=4)
    assert fingerprint(out) == fingerprint(fam.blocks[1])


def test_l_j_max_a2_is_one_dimensional_with_product_weight():
    fam = diagonal_family(A2_ROWS)
    out = l_j_max(fam, 0, 1, cap=6)
    assert out.dim == 1
    group, fld = fam.group, fam.field
    q = q_matrix_of(fam)
    g1, g2 = fam.blocks[0].coaction[0], fam.blocks[1].coaction[0]
    cls = conjugacy_class(group, group.mul(g1, g2))
    rho = one_dim_rep(group, cls.centralizer,
                      {g1: q[0][0] * q[0][1], g2: q[1][0] * q[1][1]})
    expected = build_M_O_rho(group, cls, rho, name="e")
    assert fingerprint(out) == fingerprint(expected)


def test_reflect_squares_to_the_identity_on_fingerprints():
    for fam, cap in ((diagonal_family(A2_ROWS), 6),
                     (s3_times_s3_family(), 4)):
        for i in range(fam.theta):
            back = reflect(reflect(fam, i, cap=cap), i, cap=cap)
            assert back.fingerprints == fam.fingerprints


# -- reflection matrices


def test_s_matrix_values_and_involution():
    a2 = diagonal_family(A2_ROWS)
    s0 = s_matrix(a2, 0, cap=6)
    assert s0 == ((-1, 1), (0, 1))
    zero = diagonal_family(ZERO_ROWS)
    assert s_matrix(zero, 0, cap=4) == ((-1, 0), (0, 1))
    assert s_matrix(zero, 1, cap=4) == ((1, 0), (0, -1))
    for fam, i, cap in ((a2, 0, 6), (a2, 1, 6), (zero, 0, 4)):
        s = s_matrix(fam, i, cap=cap)
        n = len(s)
        square = [[sum(s[r][k] * s[k][c] for k in range(n)) for c in range(n)]
                  for r in range(n)]
        assert square == [[1 if r == c else 0 for c in range(n)]
                          for r in range(n)]
        # id - s is supported on row i alone, so it has rank one
        for r in range(n):
            row = [(1 if r == c else 0) - s[r][c] for c in range(n)]
            assert any(row) == (r == i)


# -- groupoid exploration


def test_a2_groupoid_closure_is_standard_type_a2():
    graph = a2_graph()
    assert not graph.partial
    assert not graph.has_uncertified_rows()
    assert len(graph.nodes) == 6
    for key in graph.nodes:
        assert graph.nodes[key].cartan.entries == [[2, -1], [-1, 2]]
    verdict = is_standard(graph)
    assert verdict.status == "standard"
    assert verdict.witness is None
    roots = real_roots(graph)
    assert not roots.partial
    assert roots.roots == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


def test_groupoid_edges_pair_up_with_equal_matrices():
    graph = a2_graph()
    assert len(graph.edges) == 2 * len(graph.nodes)
    for (key, i), (key2, s) in graph.edges.items():
        assert graph.edges[key2, i] == (key, s)


def test_theta_one_groupoid_is_a_single_self_dual_node():
    graph = explore_groupoid(FamilyM([fk3_block()]), cap=4, node_limit=8)
    assert len(graph.nodes) == 1
    assert len(graph.edges) == 1
    (key, i), (key2, s) = next(iter(graph.edges.items()))
    assert key == key2 and i == 0 and s == ((-1,),)
    assert is_standard(graph).status == "standard"
    assert real_roots(graph).roots == {(1,), (-1,)}


def test_zero_cartan_groupoid_roots_are_plus_minus_simple():
    graph = zero_graph()
    assert not graph.partial
    roots = real_roots(graph)
    assert not roots.partial
    assert roots.roots == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert is_standard(graph).status == "standard"


def test_fk3_doubled_exploration_refuses_and_flags():
    fam, graph = fk3_doubled_graph()
    assert list(graph.nodes) == [fam.fingerprints]
    assert graph.edges == {}
    assert {key: rec.uncertified_rows() for key, rec in graph.nodes.items()} \
        == {fam.fingerprints: [0, 1]}
    verdict = is_standard(graph)
    assert verdict.status == "undecided"
    assert verdict.witness["reason"] == "uncertified-rows"
    roots = real_roots(graph)
    assert roots.partial
    assert roots.roots == {(1, 0), (0, 1)}


def test_node_limit_yields_flagged_partial_graph():
    graph = explore_groupoid(diagonal_family(A2_ROWS), cap=6, node_limit=2)
    assert graph.partial
    assert len(graph.nodes) == 2
    assert real_roots(graph).partial
    assert is_standard(graph).status == "undecided"
    assert is_standard(graph).witness == {"reason": "node-limit"}


def test_nonstandard_family_witness_and_q_oracle_agreement():
    graph = nonstd_graph()
    assert not graph.partial
    assert not graph.has_uncertified_rows()
    cartans = {str(graph.nodes[key].cartan.entries) for key in graph.nodes}
    assert cartans == {"[[2, -2], [-5, 2]]", "[[2, -2], [-3, 2]]"}
    verdict = is_standard(graph)
    assert verdict.status == "not-standard"
    a, b = verdict.witness["values"]
    assert {a, b} == {-5, -3}
    assert verdict.witness["entry"] == (2, 1)
    # every explored node is again diagonal; its Cartan matrix must match
    # the root-of-unity rule applied to its own q-matrix
    for key in graph.nodes:
        rec = graph.nodes[key]
        assert rec.cartan.entries == q_oracle_cartan(rec.family), key


# -- dimension invariance and support transport along explored edges


def node_support(graph, key, cache={}):
    mark = (id(graph), key)
    if mark not in cache:
        state = GradedNicholsState(graph.nodes[key].family.assembled())
        state.extend_to(12)
        assert state.finished
        cache[mark] = (state,
                       {md for mds in state.mdegrees for md in mds},
                       sum(len(ws) for ws in state.words))
    return cache[mark]


def test_dimension_invariance_across_a2_and_zero_cartan_edges():
    for graph, want in ((a2_graph(), 27), (zero_graph(), 4)):
        for key in graph.nodes:
            _, _, total = node_support(graph, key)
            assert total == want


def test_support_difference_set_transports_along_edges():
    for graph in (a2_graph(), zero_graph()):
        for (key, i), (key2, s) in graph.edges.items():
            _, supp, _ = node_support(graph, key)
            _, supp2, _ = node_support(graph, key2)
            diff = {tuple(x - y for x, y in zip(a, b))
                    for a in supp for b in supp}
            diff2 = {tuple(x - y for x, y in zip(a, b))
                     for a in supp2 for b in supp2}
            theta = len(s)
            image = {tuple(sum(s[r][c] * v[c] for c in range(theta))
                           for r in range(theta)) for v in diff}
            assert image == diff2


def test_real_roots_lie_in_the_support_up_to_sign():
    for graph in (a2_graph(), zero_graph()):
        _, supp, _ = node_support(graph, graph.base_key)
        for root in real_roots(graph).roots:
            neg = tuple(-x for x in root)
            assert root in supp or neg in supp


# -- generalized Cartan matrices and finite type


def principal_minors_positive(a):
    n = len(a)
    for size in range(1, n + 1):
        for rows in permutations(range(n), size):
            rows = sorted(rows)
            det = Fraction(0)
            for perm in permutations(range(size)):
                sign = 1
                seen = list(perm)
                for x in range(size):
                    for y in range(x + 1, size):
                        if seen[x] > seen[y]:
                            sign = -sign
                term = Fraction(sign)
                for x in range(size):
                    term *= a[rows[x]][rows[perm[x]]]
                det += term
            if det <= 0:
                return False
    return True


def test_gcm_finite_type_examples():
    assert gcm_finite_type([[2, -1], [-1, 2]]) == (True, "A2")
    assert gcm_finite_type([[2, -2], [-2, 2]]) == (False, None)
    chain3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert gcm_finite_type(chain3) == (True, "A3")
    triangle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert gcm_finite_type(triangle) == (False, None)
    assert gcm_finite_type([[2]]) == (True, "A1")
    assert gcm_finite_type([[2, 0], [0, 2]]) == (True, "A1+A1")
    assert gcm_finite_type([[2, -2], [-1, 2]]) == (True, "B2")
    assert gcm_finite_type([[2, -3], [-1, 2]]) == (True, "G2")
    assert gcm_finite_type([[2, -1, 0], [-2, 2, -1], [0, -1, 2]]) == \
        (True, "C3")
    assert gcm_finite_type([[2, -2, 0], [-1, 2, -1], [0, -1, 2]]) == \
        (True, "B3")
    f4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    assert gcm_finite_type(f4) == (True, "F4")
    d4 = [[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 2]]
    assert gcm_finite_type(d4) == (True, "D4")
    e6 = [[2 if i == j else (-1 if (min(i, j), max(i, j)) in
                             {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)} else 0)
           for j in range(6)] for i in range(6)]
    assert gcm_finite_type(e6) == (True, "E6")
    # a double edge in the middle of a five-vertex chain is not finite
    long_mid = [[2, -1, 0, 0, 0], [-1, 2, -2, 0, 0], [0, -1, 2, -1, 0],
                [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]]
    assert gcm_finite_type(long_mid) == (False, None)


def test_gcm_two_by_two_rule_matches_determinant_positivity():
    for a12 in range(0, -5, -1):
        for a21 in range(0, -5, -1):
            if (a12 == 0) != (a21 == 0):
                continue
            m = [[2, a12], [a21, 2]]
            assert gcm_finite_type(m).finite == (a12 * a21 <= 3)
            assert gcm_finite_type(m).finite == principal_minors_positive(m)


def test_gcm_examples_match_principal_minor_positivity():
    examples = [
        [[2, -1], [-1, 2]],
        [[2, -2], [-2, 2]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [[2, -1, 0], [-2, 2, -1], [0, -1, 2]],
        [[2, -2, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        [[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 2]],
        [[2, -1, 0, 0, 0], [-1, 2, -2, 0, 0], [0, -1, 2, -1, 0],
         [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]],
    ]
    for m in examples:
        assert gcm_finite_type(m).finite == principal_minors_positive(m), m


def test_gcm_rejects_non_cartan_input():
    with pytest.raises(ScenarioError):
        gcm_finite_type([[2, 1], [-1, 2]])
    with pytest.raises(ScenarioError):
        gcm_finite_type([[2, 0], [-1, 2]])
    with pytest.raises(ScenarioError):
        gcm_finite_type([[1, -1], [-1, 2]])
    with pytest.raises(ScenarioError):
        gcm_finite_type([[2, -1]])
    with pytest.raises(ScenarioError):
        gcm_finite_type([])


def test_gcm_contract_holds_on_every_explored_node():
    for graph in (a2_graph(), zero_graph(), nonstd_graph()):
        for key in graph.nodes:
            cd = graph.nodes[key].cartan
            assert cd.is_exact()
            verdict = gcm_finite_type(cd)
            assert isinstance(verdict.finite, bool)
    assert gcm_finite_type(a2_graph().nodes[a2_graph().base_key].cartan) == \
        (True, "A2")


def test_gcm_refuses_unbounded_entries():
    _, graph = fk3_doubled_graph()
    cd = graph.nodes[graph.base_key].cartan
    assert not cd.is_exact()
    with pytest.raises(ScenarioError):
        gcm_finite_type(cd)


# -- data types and serialization


def test_unbounded_at_cap_value_semantics():
    u = UnboundedAtCap(3, 3)
    assert u == UnboundedAtCap(3, 3)
    assert u != UnboundedAtCap(4, 3)
    assert hash(u) == hash(UnboundedAtCap(3, 3))
    assert u != -2
    assert u != (3, 3)
    assert repr(u) == "UnboundedAtCap(cap=3, reached=3)"
    assert u.to_jsonable() == {"unbounded_at_cap": 3, "chain_reached": 3}
    with pytest.raises(TypeError):
        json.dumps(u)


def test_cartan_data_validation():
    with pytest.raises(RuntimeError):
        CartanData([[1, 0], [0, 2]], cap=4)
    with pytest.raises(RuntimeError):
        CartanData([[2, 1], [1, 2]], cap=4)
    with pytest.raises(RuntimeError):
        CartanData([[2, 0], [-1, 2]], cap=4)
    cd = CartanData([[2, UnboundedAtCap(3, 3)], [-1, 2]], cap=3)
    assert not cd.row_exact(0)
    assert cd.row_exact(1)
    assert cd.to_jsonable() == \
        [[2, {"unbounded_at_cap": 3, "chain_reached": 3}], [-1, 2]]


def test_graph_serialization_is_deterministic_and_complete():
    graph = a2_graph()
    blob = graph.to_jsonable()
    assert blob["base"] == "n0"
    assert blob["partial"] is False
    assert len(blob["nodes"]) == 6
    assert len(blob["edges"]) == 12
    assert blob["nodes"][0]["cartan"] == [[2, -1], [-1, 2]]
    assert blob["nodes"][0]["uncertified_rows"] == []
    for edge in blob["edges"]:
        assert edge["index"] in (1, 2)
        assert len(edge["s_matrix"]) == 2
    assert json.dumps(blob, sort_keys=True) == \
        json.dumps(graph.to_jsonable(), sort_keys=True)
    _, refused = fk3_doubled_graph()
    assert refused.to_jsonable()["nodes"][0]["uncertified_rows"] == [1, 2]


# -- one chain per pair of isomorphism classes

DIAG_ROOTS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" \
    / "diag_roots.json"


def diag_roots_families():
    cases = json.loads(DIAG_ROOTS.read_text())["cases"]
    return [FamilyM(build_blocks(case, pos)[1])
            for pos, case in enumerate(cases)]


def block_identity(block):
    return block.basis_labels, block.blocks, fingerprint(block)


def test_groupoid_builds_one_block_state_per_fingerprint(monkeypatch,
                                                         caplog):
    built = []
    init = engine.GradedNicholsState.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.GradedNicholsState, "__init__", counted)
    with caplog.at_level(logging.DEBUG, logger="nichols.groupoid"):
        graphs = [explore_groupoid(fam, cap=6)
                  for fam in diag_roots_families()]
    assert len(built) == 32
    assert sum(len(g.nodes) for g in graphs) == 44
    # one summary line per exploration; the others are chain steps
    lines = [r.getMessage() for r in caplog.records
             if r.name == "nichols.groupoid"
             and not r.getMessage().startswith("adjoint chain ")]
    assert len(lines) == 3
    assert all("chain cache" in line and "misses" in line for line in lines)


@pytest.mark.parametrize("case", [0, 1, 2])
def test_cached_blocks_match_a_fresh_reflection(case):
    graph = explore_groupoid(diag_roots_families()[case], cap=6)
    for key in graph.nodes:
        node = graph.nodes[key].family
        for i in range(node.theta):
            cached = reflect(node, i, cap=6)
            fresh = reflect(FamilyM(node.blocks), i, cap=6)
            assert [block_identity(b) for b in cached.blocks] == \
                [block_identity(b) for b in fresh.blocks]
            assert block_identity(cached.blocks[i]) == \
                block_identity(node.blocks[i].dual())


def s4_pair_family(label):
    cases = json.loads((Path(nichols.__file__).parent / "scenarios"
                        / "s4_pairs.json").read_text())["cases"]
    pos, case = next((p, c) for p, c in enumerate(cases)
                     if c["label"] == label)
    return FamilyM(build_blocks(case, pos)[1])


def test_s4_sign_pair_is_unbounded_at_cap_five():
    fam = s4_pair_family("sgn+sgn")
    cd = cartan_matrix(fam, cap=5)
    assert cd.entries[0][1] == UnboundedAtCap(5, 5)
    assert cd.entries[1][0] == UnboundedAtCap(5, 5)


# -- the D9 pair past cap 3 (the source paper, Theorem theorem:dn)


def d9_pair_family():
    return FamilyM([d9_module("v"), d9_module("w")])


@pytest.mark.parametrize("cap,rows", [(4, 342), (5, 1926)])
def test_d9_pair_chain_is_open_past_cap_three(cap, rows):
    # one nonzero image at the cap step certifies a_12 <= 1 - cap, and the
    # chain keeps the pivot rows of degree cap - 1, the last step it
    # eliminated.  Cap 4 takes about 0.04 s; cap 5 about 1.5 s, for the
    # degree-4 elimination of 342 * 9 images.
    chain = _adjoint_chain(d9_pair_family(), 0, 1, cap)
    assert chain.entry == UnboundedAtCap(cap, cap)
    assert (chain.degree, len(chain.rows)) == (cap - 1, rows)


@pytest.mark.parametrize("fam,cap,entry,lines", [
    (d9_pair_family, 3, UnboundedAtCap(3, 3), [
        "adjoint chain 1 on 2, degree 2: 81 images built, 72 nonzero, 60 "
        "pivots kept",
        "adjoint chain 1 on 2, degree 3 (cap): 8 zero images, then a "
        "nonzero one"]),
    (lambda: FamilyM([fk3_block("x"), fk3_block("y")]), 4, -2, [
        "adjoint chain 1 on 2, degree 2: 9 images built, 6 nonzero, 4 pivots "
        "kept",
        "adjoint chain 1 on 2, degree 3: 12 images built, 8 nonzero, 3 pivots "
        "kept",
        "adjoint chain 1 on 2, degree 4 (cap): 9 zero images, then none "
        "left"]),
], ids=["d9-pair", "fk3-double"])
def test_chain_steps_log_images_and_pivots(fam, cap, entry, lines, caplog):
    with caplog.at_level(logging.DEBUG, logger="nichols.groupoid"):
        assert cartan_entry(fam(), 0, 1, cap) == entry
    assert [r.getMessage() for r in caplog.records
            if r.name == "nichols.groupoid"] == lines
