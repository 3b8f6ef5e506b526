"""Cached and per-word fast paths on the reflection path, against the
computations they replace: brute-force centralizer classes, the action on
a word as the product of the acted letters, and fingerprints recomputed on
fresh objects."""

import pytest

from nichols import groupoid
from nichols.engine import GradedNicholsState
from nichols.groupoid import FamilyM, explore_groupoid, real_roots, reflect
from nichols.groups import build_abelian_group, build_dihedral, symmetric_group
from nichols.verify import d9_module
from nichols.ydmodule import YDModule, diagonal_modules, direct_sum, fingerprint

A2_ROWS = [["z3^1", "1"], ["z3^2", "z3^1"]]
B2_ROWS = [["z3^1", "z3^1"], ["1", "-1"]]


def brute_class_minima(g, cent):
    """Smallest member of each class of cent, conjugating by every element."""
    return sorted({min(g.mul(g.mul(z, e), g.inv(z)) for z in cent)
                   for e in cent})


@pytest.mark.parametrize("group", [
    symmetric_group(4), build_dihedral(9), build_abelian_group([12, 12])],
    ids=["S4", "D9", "Z12xZ12"])
def test_centralizer_classes_match_brute_force(group):
    brute = {}
    for s in group.elements:
        cent = group.centralizer(s)
        assert cent is group.centralizer(s)
        # the classes of C(s) depend only on C(s)
        key = tuple(cent)
        if key not in brute:
            brute[key] = brute_class_minima(group, cent)
        assert group.centralizer_classes(s) == brute[key]
        assert group.centralizer_classes(s) is group.centralizer_classes(s)


def d9_pair():
    return direct_sum([d9_module("v"), d9_module("w")])


def b2_pair():
    _, _, blocks = diagonal_modules(B2_ROWS)
    return direct_sum(blocks)


@pytest.mark.parametrize("make", [d9_pair, b2_pair], ids=["D9", "B2"])
def test_action_column_matches_acted_letters(make):
    state = GradedNicholsState(make()).extend_to(3)
    top = state.max_degree()
    one = (0, {0: state.field.one()})
    for t in state.module.group.elements:
        # one column builds at most a head and a tail per degree
        built = len(state._action)
        state.action_column(top, t, len(state.words[top]) - 1)
        assert len(state._action) - built <= 2 * top
        letters = [(1, col) for col in state.module.action_of(t)]
        # t . (x_i1 ... x_in) = (t . x_i1) ... (t . x_in), left to right
        acted = {(): one}
        for n in range(top + 1):
            for m, word in enumerate(state.words[n]):
                for d in range(1, n + 1):
                    if word[:d] not in acted:
                        acted[word[:d]] = state.multiply(acted[word[:d - 1]],
                                                         letters[word[d - 1]])
                assert state.action_column(n, t, m) == acted[word][1], \
                    (t, word)


def test_fingerprint_is_computed_once_per_module():
    _, _, blocks = diagonal_modules(A2_ROWS)
    assert fingerprint(blocks[0]) is fingerprint(blocks[0])


def rebuilt(block):
    """The same module data on new objects, with a freshly built group."""
    group = build_abelian_group(block.group.orders)
    return YDModule(group, block.field, block.coaction, block.generator_columns,
                    block.basis_labels, block.blocks,
                    check=False)


@pytest.mark.parametrize("rows", [A2_ROWS, B2_ROWS], ids=["A2", "B2"])
def test_reflected_fingerprints_match_rebuilt_copies(rows):
    _, _, blocks = diagonal_modules(rows)
    fam = FamilyM(blocks)
    for i in range(fam.theta):
        image = reflect(fam, i, cap=6)
        copies = [rebuilt(b) for b in image.blocks]
        assert tuple(fingerprint(c)[0] for c in copies) == image.fingerprints


def test_real_roots_at_state_limit_are_flagged_partial(monkeypatch):
    _, _, blocks = diagonal_modules(A2_ROWS)
    graph = explore_groupoid(FamilyM(blocks), cap=6)
    full = real_roots(graph)
    assert not full.partial
    monkeypatch.setattr(groupoid, "DEFAULT_STATE_LIMIT", 1)
    cut = real_roots(graph)
    assert cut.partial
    assert cut.roots == {(1, 0), (0, 1)}
    assert cut.roots <= full.roots
