"""Tests of the benchmark's reference computations (no program code involved)."""

from reference import cartan_from_diagonal, hilbert_product, root_closure

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
B2 = [[2, -2], [-1, 2]]
G2 = [[2, -3], [-1, 2]]


def test_fk3_series():
    assert hilbert_product([2, 2, 3]) == [1, 3, 4, 3, 1]


def test_s4_series():
    series = hilbert_product([2, 2, 3, 3, 4, 4])
    assert series[:3] == [1, 6, 19]
    assert series[-3:] == [19, 6, 1]
    assert sum(series) == 576


def test_fk5_series_head():
    series = hilbert_product([4] * 4 + [5] * 2 + [6] * 4)
    assert series[:7] == [1, 10, 55, 220, 711, 1960, 4761]
    assert sum(series) == 8294400


def test_cartan_of_diagonal_braidings():
    assert cartan_from_diagonal([["z3^1", "z3^2"], ["1", "z3^1"]]) == A2
    assert cartan_from_diagonal([["z3^1", "z3^1", "1"],
                                 ["z3^1", "z3^1", "z3^1"],
                                 ["1", "z3^1", "z3^1"]]) == A3
    assert cartan_from_diagonal([["z12^1", "z12^11"],
                                 ["z12^11", "z12^2"]]) == B2
    assert cartan_from_diagonal([["z8^1", "z8^5"], ["1", "z8^3"]]) == G2


def test_cartan_entry_cut_by_quantum_integer():
    # q_11 = -1: (2)_{-1} = 0 ends the chain at m = 1 whatever q_12 q_21 is
    assert cartan_from_diagonal([["-1", "z5^1"], ["1", "-1"]]) == A2
    # q_12 q_21 = 1: the chain dies at once
    assert cartan_from_diagonal([["z3^1", "1"], ["1", "z3^1"]]) == \
        [[2, 0], [0, 2]]


def test_root_counts():
    assert len(root_closure(A2)) == 6
    assert len(root_closure(A3)) == 12
    assert len(root_closure(B2)) == 8
    assert len(root_closure(G2)) == 12


def test_b2_roots_follow_row_convention():
    # s_1(alpha_2) = alpha_2 + 2 alpha_1 when a_12 = -2
    assert (2, 1) in root_closure(B2)
    assert (1, 2) not in root_closure(B2)
