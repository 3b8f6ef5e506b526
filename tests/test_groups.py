"""Group backends, conjugacy class numeration, and coset decomposition."""

import pytest

from nichols.errors import GroupSpecError
from nichols.groups import (
    build_abelian_group,
    build_dihedral,
    conjugacy_class,
    generated_subgroup,
    group_from_spec,
    subgroup_generators,
    symmetric_group,
)

# one-line images, 1-indexed
S4_SIGMA = {
    1: (2, 1, 3, 4),  # (12)
    2: (1, 3, 2, 4),  # (23)
    3: (3, 2, 1, 4),  # (13)
    4: (4, 2, 3, 1),  # (14)
    5: (1, 4, 3, 2),  # (24)
    6: (1, 2, 4, 3),  # (34)
}
S4_TAU = {
    1: (2, 3, 4, 1),  # (1234)
    2: (4, 1, 2, 3),  # (1432)
    3: (2, 4, 1, 3),  # (1243)
    4: (3, 1, 4, 2),  # (1342)
    5: (3, 4, 2, 1),  # (1324)
    6: (4, 3, 1, 2),  # (1423)
}
S4_H = {1: S4_TAU[1], 2: S4_SIGMA[5], 3: S4_TAU[6],
        4: S4_TAU[5], 5: S4_TAU[3], 6: S4_TAU[4]}
S4_G = {1: S4_SIGMA[1], 2: S4_SIGMA[3], 3: S4_SIGMA[2],
        4: S4_SIGMA[5], 5: S4_SIGMA[4], 6: S4_TAU[5]}

# sigma_i * h_j = h_k * tau_1^eps, entries (k, eps), 1-indexed rows/cols.
# Every cell is forced by unique coset decomposition; row 3 columns 1 and 3
# were re-derived by hand (the widely circulated version of this table has
# the two exponents flipped there, which group arithmetic rules out).
TABLE_SIGMA_H = {
    1: [(4, -1), (3, -1), (2, 1), (1, 1), (6, 1), (5, -1)],
    2: [(5, -1), (6, 1), (4, 1), (3, -1), (1, 1), (2, -1)],
    3: [(2, -1), (1, 1), (5, 1), (6, 1), (3, -1), (4, -1)],
    4: [(6, -1), (5, 1), (4, -1), (3, 1), (2, -1), (1, 1)],
    5: [(2, 1), (1, -1), (6, -1), (5, -1), (4, 1), (3, 1)],
    6: [(3, -1), (4, -1), (1, 1), (2, 1), (6, -1), (5, 1)],
}
# sigma_i * g_j = g_l * t_p, entries (l, p) with t_1 = (12), t_2 = (34)
TABLE_SIGMA_G = {
    1: [(1, 1), (3, 1), (2, 1), (5, 1), (4, 1), (6, 2)],
    2: [(3, 1), (2, 1), (1, 1), (4, 2), (6, 1), (5, 1)],
    3: [(2, 1), (1, 1), (3, 1), (6, 2), (5, 2), (4, 2)],
    4: [(5, 1), (2, 2), (6, 1), (4, 1), (1, 1), (3, 1)],
    5: [(4, 1), (6, 2), (3, 2), (1, 1), (5, 1), (2, 2)],
    6: [(1, 2), (5, 2), (4, 2), (3, 2), (2, 2), (6, 1)],
}
# tau_i * g_j = g_m * t_q
TABLE_TAU_G = {
    1: [(2, 2), (6, 1), (5, 1), (1, 2), (3, 2), (4, 1)],
    2: [(4, 2), (1, 2), (5, 2), (6, 1), (3, 1), (2, 1)],
    3: [(5, 2), (4, 2), (1, 2), (2, 1), (6, 2), (3, 2)],
    4: [(3, 2), (4, 1), (6, 2), (2, 2), (1, 2), (5, 2)],
    5: [(6, 1), (5, 1), (2, 2), (3, 1), (4, 2), (1, 2)],
    6: [(6, 2), (3, 2), (4, 1), (5, 2), (2, 1), (1, 1)],
}


def s4():
    return symmetric_group(4)


def transposition_class(group):
    return conjugacy_class(
        group, S4_SIGMA[1],
        numeration={"members": [list(S4_SIGMA[i]) for i in range(1, 7)],
                    "reps": [list(S4_G[i]) for i in range(1, 7)]})


def four_cycle_class(group):
    return conjugacy_class(
        group, S4_TAU[1],
        numeration={"members": [list(S4_TAU[i]) for i in range(1, 7)],
                    "reps": [list(S4_H[i]) for i in range(1, 7)]})


def test_composition_convention():
    # (12)(23) applied right to left sends 1 to 2, 2 to 3, 3 to 1
    g = symmetric_group(3)
    assert g.mul((2, 1, 3), (1, 3, 2)) == (2, 3, 1)


def test_s3_structure():
    g = symmetric_group(3)
    assert g.order == 6
    assert g.exponent == 6
    sizes = sorted(len(c) for c in g.conjugacy_classes())
    assert sizes == [1, 2, 3]
    for e in g.elements:
        assert g.mul(e, g.inv(e)) == g.identity


def test_s4_exponent_and_classes():
    g = s4()
    assert g.order == 24
    assert g.exponent == 12
    sizes = sorted(len(c) for c in g.conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_element_io():
    g = s4()
    e = g.parse_element([2, 1, 3, 4])
    assert g.element_str(e) == "(1 2)"
    assert g.parse_element("2,1,3,4") == e
    assert g.element_str(g.identity) == "e"
    with pytest.raises(GroupSpecError):
        g.parse_element([1, 1, 2, 3])


def test_abelian_backend():
    g = build_abelian_group([3, 3])
    assert g.order == 9
    assert g.exponent == 3
    assert all(len(c) == 1 for c in g.conjugacy_classes())
    a = g.parse_element([1, 2])
    assert g.mul(a, a) == (2, 1)
    assert g.inv(a) == (2, 1)


def test_dihedral_backend():
    g = build_dihedral(9)
    assert g.order == 18
    x = g.parse_element([1, 0])
    y = g.parse_element([0, 1])
    assert g.mul(g.mul(x, y), x) == g.inv(y)
    assert g.element_order(x) == 2
    assert g.element_order(y) == 9
    # reflections form one class for odd n
    assert sorted(g.class_of(x)) == [(1, b) for b in range(9)]
    assert sorted(g.centralizer(x)) == [(0, 0), (1, 0)]
    assert g.element_str((1, 3)) == "x*y^3"


@pytest.mark.parametrize("n", [0, 1, 2, 4, 10])
def test_dihedral_rejects_bad_n(n):
    with pytest.raises(GroupSpecError):
        build_dihedral(n)


def test_group_spec_round_trip():
    for spec, order in (
        ({"type": "permutation", "degree": 4,
          "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}, 24),
        ({"type": "abelian", "orders": [3, 3]}, 9),
        ({"type": "dihedral", "n": 9}, 18),
    ):
        g = group_from_spec(spec)
        assert (g.backend, g.order) == (spec["type"], order)
        assert group_from_spec(spec).elements == g.elements


def test_group_spec_errors():
    with pytest.raises(GroupSpecError):
        group_from_spec({"type": "simple"})
    with pytest.raises(GroupSpecError):
        group_from_spec({"type": "permutation", "degree": 3})
    with pytest.raises(GroupSpecError):
        group_from_spec({"type": "permutation", "degree": 3,
                         "generators": [[1, 1, 2]]})
    with pytest.raises(GroupSpecError):
        group_from_spec([1, 2])


def test_default_numeration_is_deterministic():
    g = s4()
    c = conjugacy_class(g, S4_SIGMA[1])
    assert c.base_point == S4_SIGMA[1]
    assert c.members[0] == S4_SIGMA[1]
    assert c.members[1:] == sorted(c.members[1:])
    assert c.reps[0] == g.identity
    # reps reconstruct members
    for m, x in zip(c.members, c.reps):
        assert g.conjugate(x, c.base_point) == m
    assert c.size * len(c.centralizer) == g.order


def test_numeration_override_validation():
    g = s4()
    members = [list(S4_SIGMA[i]) for i in range(1, 7)]
    with pytest.raises(GroupSpecError):
        conjugacy_class(g, S4_SIGMA[1],
                        numeration={"members": members,
                                    "reps": [[1, 2, 3, 4]] * 6})
    with pytest.raises(GroupSpecError):
        conjugacy_class(g, S4_SIGMA[1],
                        numeration={"members": members[:3],
                                    "reps": members[:3]})
    with pytest.raises(GroupSpecError):
        conjugacy_class(g, S4_SIGMA[1], numeration={"members": members})


def test_centralizer_of_transposition_in_s4():
    g = s4()
    c = transposition_class(g)
    assert len(c.centralizer) == 4
    gen = generated_subgroup(g, subgroup_generators(g, c.centralizer))
    assert gen == set(c.centralizer)
    assert S4_SIGMA[1] in c.centralizer and S4_SIGMA[6] in c.centralizer


def test_centralizer_of_four_cycle_is_cyclic():
    g = s4()
    c = four_cycle_class(g)
    assert len(c.centralizer) == 4
    assert set(c.centralizer) == {g.identity, S4_TAU[1], S4_TAU[2],
                                  g.mul(S4_TAU[1], S4_TAU[1])}


def test_decompose_is_exact_and_permutes():
    g = s4()
    for c in (transposition_class(g), four_cycle_class(g)):
        for t in g.elements:
            images = []
            for j in range(c.size):
                k, gamma = c.decompose(t, j)
                images.append(k)
                assert g.mul(t, c.reps[j]) == g.mul(c.reps[k], gamma)
                assert gamma in c.centralizer
            assert sorted(images) == list(range(c.size))


def test_rack_self_distributivity():
    g = build_dihedral(9)
    elems = g.elements
    for x in elems[:6]:
        for y in elems[3:9]:
            for z in elems[6:12]:
                left = g.conjugate(x, g.conjugate(y, z))
                right = g.conjugate(g.conjugate(x, y), g.conjugate(x, z))
                assert left == right


def test_multiplication_table_sigma_h():
    g = s4()
    c = four_cycle_class(g)
    tau1 = S4_TAU[1]
    for i in range(1, 7):
        for j in range(1, 7):
            k, gamma = c.decompose(S4_SIGMA[i], j - 1)
            want_k, eps = TABLE_SIGMA_H[i][j - 1]
            assert k == want_k - 1
            assert gamma == (tau1 if eps == 1 else g.inv(tau1))


def test_multiplication_table_sigma_g():
    g = s4()
    c = transposition_class(g)
    t = {1: S4_SIGMA[1], 2: S4_SIGMA[6]}
    for i in range(1, 7):
        for j in range(1, 7):
            k, gamma = c.decompose(S4_SIGMA[i], j - 1)
            want_k, p = TABLE_SIGMA_G[i][j - 1]
            assert (k, gamma) == (want_k - 1, t[p])


def test_multiplication_table_tau_g():
    g = s4()
    c = transposition_class(g)
    t = {1: S4_SIGMA[1], 2: S4_SIGMA[6]}
    for i in range(1, 7):
        for j in range(1, 7):
            k, gamma = c.decompose(S4_TAU[i], j - 1)
            want_k, q = TABLE_TAU_G[i][j - 1]
            assert (k, gamma) == (want_k - 1, t[q])


def test_decompose_worked_examples():
    g = s4()
    ctau = four_cycle_class(g)
    k, gamma = ctau.decompose(S4_SIGMA[1], 0)
    assert (k, gamma) == (3, g.inv(S4_TAU[1]))
    csig = transposition_class(g)
    k, gamma = csig.decompose(S4_SIGMA[6], 0)
    assert (k, gamma) == (0, S4_SIGMA[6])


def rack_index(cls, t, j):
    """Index of t |> members[j] in the class."""
    return cls.members.index(cls.group.conjugate(t, cls.members[j]))


def test_dihedral_class_numeration_matches_formula():
    # t |> sigma_i = sigma_{2j - i} for reflections sigma_j acting on sigma_i
    g = build_dihedral(9)
    x = (1, 0)
    members = [[1, i] for i in range(9)]
    # rep y^{-i * inv(2)} sends x to x y^i: (y^b) x y^-b = x y^{-2b}
    inv2 = pow(2, -1, 9)
    reps = [[0, (-i * inv2) % 9] for i in range(9)]
    c = conjugacy_class(g, x, numeration={"members": members, "reps": reps})
    for j in range(9):
        for i in range(9):
            assert rack_index(c, (1, j), i) == (2 * j - i) % 9
