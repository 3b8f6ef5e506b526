"""YD modules: induced construction, braiding, sums, duals, fingerprints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols.cyclotomic import CycloField
from nichols.errors import ModuleSpecError
from nichols.groups import build_dihedral, conjugacy_class, symmetric_group
from nichols.verify import d9_module, fk3_module, s3_times_s3_family
from nichols.ydmodule import (
    BraidingOperator,
    Representation,
    YDModule,
    build_M_O_rho,
    diagonal_modules,
    direct_sum,
    fingerprint,
    module_from_spec,
    one_dim_rep,
)
from test_groups import rack_index

Q = CycloField(1)


def zero_module(group, field):
    """The zero YD module: no basis, no coaction, empty generator columns."""
    return YDModule(group, field, [], {gen: [] for gen in group.generators},
                    [], [], check=False)


def check_braiding(module, br=None):
    """Refuse a braiding (module.braiding() unless given) whose inverse
    columns do not invert it or that breaks the braid equation
    c_0 c_1 c_0 = c_1 c_0 c_1 on basis triples."""
    br = module.braiding() if br is None else br
    one = module.field.one()
    apply = br.apply
    for a in range(module.dim):
        for b in range(module.dim):
            v = apply(apply({(a, b): one}), inverse=True)
            if v != {(a, b): one}:
                raise ModuleSpecError("braiding inverse check failed", pair=(a, b))
    for a in range(module.dim):
        for b in range(module.dim):
            for c in range(module.dim):
                start = {(a, b, c): one}
                lhs = apply(apply(apply(start, 0), 1), 0)
                rhs = apply(apply(apply(start, 1), 0), 1)
                if lhs != rhs:
                    raise ModuleSpecError("braid equation failed", triple=(a, b, c))


def reference_block_fingerprint(module, indices):
    """(fingerprint key, character norm) of one block: the restricted trace
    on the fiber over the least class member, evaluated on every element of
    its centralizer, and the norm summed over all of them."""
    g = module.group
    s = min(g.class_of(module.coaction[indices[0]]))
    fiber = [i for i in indices if module.coaction[i] == s]
    cent = g.centralizer(s)

    def restricted_trace(gamma):
        cols = module.action_of(gamma)
        tr = module.field.zero()
        for i in fiber:
            v = cols[i].get(i)
            if v is not None:
                tr = tr + v
        return tr

    char = {gamma: restricted_trace(gamma) for gamma in cent}
    norm = module.field.zero()
    for gamma in cent:
        norm = norm + char[gamma] * char[g.inv(gamma)]
    norm = norm * module.field.rational(1, len(cent))
    values = tuple((g.element_key(e), str(char[e]))
                   for e in g.centralizer_classes(s))
    return (g.element_key(s), values), norm


def assert_reference_fingerprint(module):
    """fingerprint(module) equals the reference key of every block, each
    of which has character norm 1."""
    refs = [reference_block_fingerprint(module, list(module.block_indices(b)))
            for b in range(module.theta)]
    assert all(norm == module.field.one() for _, norm in refs)
    assert fingerprint(module) == tuple(key for key, _ in refs)


def s3_sgn_module(field=Q, name="x"):
    # even coset reps make every braiding scalar equal to -1
    g = symmetric_group(3)
    s = (2, 1, 3)
    cls = conjugacy_class(
        g, s, numeration={"members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
                          "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    rho = one_dim_rep(g, cls.centralizer, {s: field.rational(-1)})
    return g, cls, build_M_O_rho(g, cls, rho, name=name)


def s4_class_module(values, kind="transpositions", field=Q, name="x"):
    g = symmetric_group(4)
    s = (2, 1, 3, 4) if kind == "transpositions" else (2, 3, 4, 1)
    cls = conjugacy_class(g, s)
    vals = {g.parse_element(k): field.rational(v) for k, v in values.items()}
    rho = one_dim_rep(g, cls.centralizer, vals)
    return g, cls, build_M_O_rho(g, cls, rho, name=name)


def chi_minus_module(field=Q):
    # centralizer of (1234) is generated by it; character -1 on the 4-cycle
    return s4_class_module({"2,3,4,1": -1}, kind="four_cycles", field=field, name="u")


def test_s3_sgn_shape_and_braiding():
    g, cls, m = s3_sgn_module()
    assert m.dim == 3
    # default numeration here is (12), (13)... sorted: (12),(23),(13) order
    assert m.coaction == [(2, 1, 3), (1, 3, 2), (3, 2, 1)]
    assert m.basis_labels == ["x1", "x2", "x3"]
    br = m.braiding()
    for a in range(3):
        for b in range(3):
            k = rack_index(cls, m.coaction[a], b)
            assert br.columns[a, b] == [((k, a), Q.rational(-1))]
    check_braiding(m)


def test_trivial_class_module():
    g = symmetric_group(3)
    cls = conjugacy_class(g, g.identity)
    rho = one_dim_rep(g, cls.centralizer,
                      {e: Q.one() for e in g.generators})
    m = build_M_O_rho(g, cls, rho)
    assert m.dim == 1
    assert m.braiding().columns[0, 0] == [((0, 0), Q.one())]


def test_braiding_checks_pass():
    _, _, m = s3_sgn_module()
    w = direct_sum([m, s3_sgn_module(name="y")[2]])
    w.check_axioms()
    check_braiding(w)
    _, _, u = chi_minus_module()
    check_braiding(u)


def test_braiding_apply_lifts_c_to_any_slot():
    _, cls, m = s3_sgn_module()
    br = m.braiding()
    one = Q.one()
    for a, b, c in [(0, 1, 2), (2, 2, 0), (1, 0, 1)]:
        k = rack_index(cls, m.coaction[b], c)
        assert br.apply({(a, b, c): one}, 1) == {(a, k, b): -one}
        k = rack_index(cls, m.coaction[a], b)
        assert br.apply({(a, b, c): one}, 0) == {(k, a, c): -one}
        assert br.apply(br.apply({(a, b, c): one}, 1), 1, inverse=True) == \
            {(a, b, c): one}


def test_braiding_check_rejects_a_broken_inverse():
    _, _, m = s3_sgn_module()
    br = BraidingOperator(m)
    br.columns[0, 1] = [(img, 2 * s) for img, s in br.columns[0, 1]]
    with pytest.raises(ModuleSpecError, match="braiding inverse check failed"):
        check_braiding(m, br)


def test_braiding_check_rejects_a_broken_braid_equation():
    _, _, m = s3_sgn_module()
    br = BraidingOperator(m)
    # c doubled on one pair and c^-1 halved on its image: c^-1 c stays id
    (img, s), = br.columns[0, 1]
    br.columns[0, 1] = [(img, 2 * s)]
    br.inverse_columns[img] = [(pre, s2 / 2)
                               for pre, s2 in br.inverse_columns[img]]
    one = Q.one()
    for a in range(m.dim):
        for b in range(m.dim):
            assert br.apply(br.apply({(a, b): one}), inverse=True) == \
                {(a, b): one}
    with pytest.raises(ModuleSpecError, match="braid equation failed"):
        check_braiding(m, br)


def test_braiding_at_larger_conductor_matches():
    _, _, m1 = chi_minus_module(field=Q)
    _, _, m12 = chi_minus_module(field=CycloField(12))
    check_braiding(m12)
    cols1 = {k: [(t, str(s)) for t, s in v] for k, v in m1.braiding().columns.items()}
    cols12 = {k: [(t, str(s)) for t, s in v] for k, v in m12.braiding().columns.items()}
    assert cols1 == cols12


def test_direct_sum_blocks_and_grading():
    _, cls, mx = s3_sgn_module(name="x")
    _, _, my = s3_sgn_module(name="y")
    w = direct_sum([mx, my])
    assert w.dim == 6
    assert w.theta == 2
    assert w.basis_labels == ["x1", "x2", "x3", "y1", "y2", "y3"]
    assert [w.multidegree(i) for i in (0, 3)] == [(1, 0), (0, 1)]
    br = w.braiding()
    minus = Q.rational(-1)
    # all four block formulas: c(e_a (x) e_b) = -e_b' (x) e_a with b' in the
    # block of b at the conjugated class position
    for a in range(6):
        for b in range(6):
            blk, i = divmod(b, 3)
            assert w.block_of(b) == blk
            k = rack_index(cls, w.coaction[a], i)
            assert br.columns[a, b] == [((3 * blk + k, a), minus)]


def test_zero_summand_is_dropped():
    g, _, m = s3_sgn_module()
    w = direct_sum([m, zero_module(g, Q)])
    assert w.dim == m.dim
    assert w.theta == 1
    assert w.basis_labels == m.basis_labels
    assert w.coaction == m.coaction
    for gen in g.generators:
        assert w.action_of(gen) == m.action_of(gen)


def test_diagonal_realization():
    group, field, blocks = diagonal_modules([["z3^1", "1"], ["z3^2", "z3^1"]])
    assert group.order == 9
    w = direct_sum(blocks)
    assert w.basis_labels == ["v1", "v2"]
    q = [[field.parse("z3^1"), field.one()],
         [field.parse("z3^2"), field.parse("z3^1")]]
    br = w.braiding()
    for i in range(2):
        for j in range(2):
            assert br.columns[i, j] == [((j, i), q[i][j])]
    check_braiding(w)
    w.check_axioms()


def test_diagonal_rational_entries():
    group, field, blocks = diagonal_modules([["-1", "-1"], ["-1", "-1"]])
    assert field.conductor == 1
    assert group.order == 4
    w = direct_sum(blocks)
    assert w.braiding().columns[0, 1] == [((1, 0), field.rational(-1))]


def test_diagonal_rejects_non_root():
    with pytest.raises(ModuleSpecError):
        diagonal_modules([["2"]])


def test_dual_one_dimensional():
    group, field, blocks = diagonal_modules([["z3^1"]])
    m = blocks[0]
    d = m.dual()
    g1 = (1,)
    assert d.coaction == [(2,)]
    assert d.action_of(g1) == [{0: field.parse("z3^2")}]
    dd = d.dual()
    assert dd.coaction == m.coaction
    assert dd.action_of(g1) == m.action_of(g1)
    assert fingerprint(dd) == fingerprint(m)
    assert d.basis_labels == ["v1*"]


def test_dual_axioms_and_braiding():
    _, _, u = chi_minus_module()
    d = u.dual()
    d.check_axioms()
    check_braiding(d)
    w = direct_sum([s3_sgn_module(name="x")[2], s3_sgn_module(name="y")[2]])
    wd = w.dual()
    wd.check_axioms()
    assert [wd.multidegree(i) for i in (0, 3)] == [(1, 0), (0, 1)]


def test_duality_pairing_adjunction():
    # <c_{M*}(f_a (x) f_b), v_c (x) v_d> = <f_a (x) f_b, c_M(v_c (x) v_d)>
    # with <f (x) g, v (x) w> = <f, w><g, v>
    for m in (chi_minus_module()[2],
              direct_sum([s3_sgn_module(name="x")[2], s3_sgn_module(name="y")[2]])):
        cm = m.braiding()
        cd = m.dual().braiding()
        n = m.dim
        for a in range(n):
            for b in range(n):
                lhs = dict(cd.columns[a, b])
                for c in range(n):
                    for d in range(n):
                        rhs = dict(cm.columns[c, d])
                        assert lhs.get((d, c), Q.zero()) == rhs.get((b, a), Q.zero())


def test_fingerprint_numeration_independent():
    g, _, m1 = s3_sgn_module()
    members = [[3, 2, 1], [2, 1, 3], [1, 3, 2]]
    reps = [[1, 2, 3], [1, 3, 2], [2, 1, 3]]
    cls = conjugacy_class(g, (3, 2, 1),
                          numeration={"members": members, "reps": reps})
    rho = one_dim_rep(g, cls.centralizer, {(3, 2, 1): Q.rational(-1)})
    m2 = build_M_O_rho(g, cls, rho)
    assert fingerprint(m1) == fingerprint(m2)


def test_fingerprint_separates_characters():
    _, _, sgn = s4_class_module({"2,1,3,4": -1, "1,2,4,3": -1})
    _, _, sgn_eps = s4_class_module({"2,1,3,4": -1, "1,2,4,3": 1})
    assert fingerprint(sgn) != fingerprint(sgn_eps)
    assert fingerprint(sgn) == fingerprint(s4_class_module(
        {"2,1,3,4": -1, "1,2,4,3": -1}, name="z")[2])


def test_fingerprint_chi_minus_self_dual():
    _, _, u = chi_minus_module()
    d = u.dual()
    assert d.coaction != u.coaction
    assert fingerprint(d) == fingerprint(u)


def test_fingerprint_conductor_independent():
    _, _, m1 = s3_sgn_module(field=Q)
    _, _, m2 = s3_sgn_module(field=CycloField(12))
    assert fingerprint(m1) == fingerprint(m2)


def test_fingerprint_rejects_reducible():
    g = symmetric_group(3)
    cls = conjugacy_class(g, g.identity)
    i2 = [{0: Q.one()}, {1: Q.one()}]
    rho = Representation.of_subgroup(g, cls.centralizer, Q,
                                     {e: i2 for e in g.generators})
    m = build_M_O_rho(g, cls, rho)
    with pytest.raises(ModuleSpecError):
        fingerprint(m)


NONABELIAN_MODULES = {
    "s4-sgn": lambda: s4_class_module({"2,1,3,4": -1, "1,2,4,3": -1})[2],
    "s4-sgn-eps": lambda: s4_class_module({"2,1,3,4": -1, "1,2,4,3": 1})[2],
    "s4-chi-minus": lambda: chi_minus_module()[2],
    "d9-sign": d9_module,
    "fk3": fk3_module,
    "s3xs3-family": lambda: direct_sum(s3_times_s3_family().blocks),
}


# C(s) is a proper subgroup here, generated by elements that are not the
# group's generators
@pytest.mark.parametrize("dual", [False, True], ids=["module", "dual"])
@pytest.mark.parametrize("name", sorted(NONABELIAN_MODULES))
def test_fingerprint_matches_the_reference_on_nonabelian_blocks(name, dual):
    module = NONABELIAN_MODULES[name]()
    assert_reference_fingerprint(module.dual() if dual else module)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_fingerprint_memo_separates_characters_at_one_base_point(order):
    # sgn and sgn-eps on one group object, which holds the key memo
    g = symmetric_group(4)
    cls = conjugacy_class(g, (2, 1, 3, 4))
    pair = [build_M_O_rho(g, cls, one_dim_rep(g, cls.centralizer, {
        (2, 1, 3, 4): Q.rational(-1), (1, 2, 4, 3): Q.rational(eps)}))
        for eps in (-1, 1)]
    keys = {i: fingerprint(pair[i]) for i in order}
    assert keys[0] != keys[1]
    for module in pair:
        assert_reference_fingerprint(module)


def test_fingerprint_memo_is_field_independent_on_one_group():
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3))
    over_q, over_z12 = (
        build_M_O_rho(g, cls, one_dim_rep(g, cls.centralizer,
                                          {(2, 1, 3): f.rational(-1)}))
        for f in (Q, CycloField(12)))
    assert fingerprint(over_q) == fingerprint(over_z12)
    assert_reference_fingerprint(over_z12)


def test_one_dimensional_fiber_composes_only_the_centralizer_generators():
    group, field, blocks = diagonal_modules(
        [["z12^1", "z12^5"], ["z12^7", "z12^3"]])
    assert group.order == 144
    b = blocks[0]
    # a copy with a fresh action memo: the input block's axiom check fills it
    m = YDModule(group, field, b.coaction, b.generator_columns,
                 b.basis_labels, b.blocks, check=False)
    fingerprint(m)
    assert len(m._memo) <= len(group.centralizer_generators(b.coaction[0])) + 1


# q_ij = zN^k, primitive and non-primitive roots, 1 included
DIAGONAL_Q = st.sampled_from((3, 4, 6, 8, 12)).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1).map(lambda k: f"z{n}^{k}"),
             min_size=2, max_size=2), min_size=2, max_size=2))


@settings(max_examples=60, deadline=None)
@given(DIAGONAL_Q)
def test_diagonal_fingerprints_match_the_reference(rows):
    _, _, blocks = diagonal_modules(rows)
    for block in blocks:
        assert_reference_fingerprint(block)
        assert_reference_fingerprint(block.dual())


def test_two_dim_centralizer_representation():
    # standard two-dimensional representation of S3 on the trivial class
    g = symmetric_group(3)
    spec = {"class_rep": [1, 2, 3],
            "rho": {"dim": 2, "matrices": {
                "2,1,3": [["-1", "1"], ["0", "1"]],
                "2,3,1": [["0", "-1"], ["1", "-1"]]}}}
    m = module_from_spec(g, spec, Q)
    assert m.dim == 2
    assert m.basis_labels == ["x1_0", "x1_1"]
    # the character: trace 2 at the identity, 0 at a transposition
    for t, trace in ((g.identity, "2"), ((2, 1, 3), "0"), ((2, 3, 1), "-1")):
        cols = m.action_of(t)
        assert str(sum((cols[i].get(i, Q.zero()) for i in range(2)),
                       Q.zero())) == trace
    check_braiding(m)
    assert fingerprint(m) is not None


def test_dump_round_trip():
    # generator columns written back as rows of scalar strings rebuild the
    # same module through module_from_spec
    f = CycloField(12)
    g = symmetric_group(3)
    spec = {"class_rep": [1, 2, 3],
            "rho": {"dim": 2, "matrices": {
                "2,1,3": [["0", "z3^1"], ["z3^2", "0"]],
                "2,3,1": [["z3^1", "0"], ["0", "z3^2"]]}}}
    m = module_from_spec(g, spec, f)
    dumped = {}
    for gen in m.group.generators:
        cols = m.action_of(gen)
        dumped[g.element_key(gen)] = [[str(cols[j].get(i, f.zero()))
                                       for j in range(2)] for i in range(2)]
    assert isinstance(dumped["2,1,3"][0][0], str)
    again = module_from_spec(g, {"class_rep": [1, 2, 3],
                                 "rho": {"dim": 2, "matrices": dumped}}, f)
    assert again.generator_columns == m.generator_columns
    assert all(again.action_of(t) == m.action_of(t) for t in g.elements)


def test_representation_relation_violation():
    g = symmetric_group(3)
    cls = conjugacy_class(g, g.identity)
    minus = [{0: Q.rational(-1)}]
    with pytest.raises(ModuleSpecError, match="violate a relation"):
        Representation.of_subgroup(g, cls.centralizer, Q,
                                   {(2, 1, 3): minus, (2, 3, 1): minus})


def test_representation_needs_generating_set():
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3))
    with pytest.raises(ModuleSpecError, match="non-generating set"):
        one_dim_rep(g, cls.centralizer, {g.identity: Q.one()})


@pytest.mark.parametrize("columns, message", [
    ({}, "at least one generator matrix"),
    ({(2, 1, 3): [{0: Q.one()}], (2, 3, 1): [{0: Q.one()}, {1: Q.one()}]},
     "square of equal size"),
    ({(2, 1, 3): [{1: Q.one()}], (2, 3, 1): [{0: Q.one()}]}, "wrong shape"),
], ids=["no-generators", "unequal-sizes", "row-out-of-range"])
def test_representation_refuses_malformed_generator_matrices(columns,
                                                             message):
    g = symmetric_group(3)
    with pytest.raises(ModuleSpecError, match=message):
        Representation.of_subgroup(g, g.elements, Q, columns)


def test_build_requires_matching_centralizer():
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3))
    other = conjugacy_class(g, g.identity)
    rho = one_dim_rep(g, other.centralizer, {e: Q.one() for e in g.generators})
    with pytest.raises(ModuleSpecError, match="not over the class centralizer"):
        build_M_O_rho(g, cls, rho)


def test_broken_action_is_rejected():
    g, cls, m = s3_sgn_module()
    with pytest.raises(ModuleSpecError):
        YDModule(g, Q, list(reversed(m.coaction)), m.generator_columns,
                 m.basis_labels, m.blocks)


def test_relation_off_the_cayley_tree_is_checked():
    # negating the 3-cycle breaks (1 2 3)^3 = 1, which an edge off the
    # Cayley tree sees
    m = fk3_module()
    cycle = (2, 3, 1)
    cols = dict(m.generator_columns)
    cols[cycle] = [{i: -c for i, c in col.items()} for col in cols[cycle]]
    with pytest.raises(ModuleSpecError, match="not a group homomorphism"):
        YDModule(m.group, m.field, m.coaction, cols, m.basis_labels,
                 m.blocks)


def test_module_from_spec_json():
    g = symmetric_group(3)
    spec = {"class_rep": [2, 1, 3],
            "rho": {"dim": 1, "values": {"2,1,3": "-1"}}}
    m = module_from_spec(g, spec, Q)
    assert m.dim == 3
    assert fingerprint(m) == fingerprint(s3_sgn_module()[2])
    with pytest.raises(ModuleSpecError):
        module_from_spec(g, {"rho": {}}, Q)


def test_chi_minus_action_values():
    g, cls, u = chi_minus_module()
    tau1 = (2, 3, 4, 1)
    minus = Q.rational(-1)
    # central element tau_1 fixes index 0 and scales by -1
    assert u.action_of(tau1)[0] == {0: minus}
    # reflections move every index with scalar -1 (chi_- is odd on tau_1^{+-1})
    sigma1 = (2, 1, 3, 4)
    assert u.action_of(sigma1)[0] == {rack_index(cls, sigma1, 0): minus}


def test_dihedral_sgn_module():
    g = build_dihedral(9)
    x = (1, 0)
    inv2 = pow(2, -1, 9)
    cls = conjugacy_class(
        g, x, numeration={"members": [[1, i] for i in range(9)],
                          "reps": [[0, (-i * inv2) % 9] for i in range(9)]})
    rho = one_dim_rep(g, cls.centralizer, {x: Q.rational(-1)})
    m = build_M_O_rho(g, cls, rho, name="v", index_base=0)
    assert m.dim == 9
    assert m.basis_labels[0] == "v0"
    # t . v_i = sgn(t) v_{t |> i} for reflections t
    for j in range(9):
        assert m.action_of((1, j))[2] == {(2 * j - 2) % 9: Q.rational(-1)}
    check_braiding(m)
