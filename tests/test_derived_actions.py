"""Actions derived from generator columns against per-element references.

A module stores only the action of the group's generators; every other
element acts by a product along a breadth-first Cayley-graph word.  These
tests rebuild the action of every element independently, the way each
producer defined it element by element, and require equality everywhere.
"""

import pytest

from nichols.cyclotomic import CycloField
from nichols.groupoid import FamilyM, reflect
from nichols.groups import build_dihedral, conjugacy_class, symmetric_group
from nichols.verify import (
    SIGMA,
    TAU,
    d9_module,
    fk3_module,
    four_cycle_class,
    four_cycle_module,
    transposition_class,
    transposition_module,
)
from nichols.ydmodule import diagonal_modules
from test_chain_reference import reference_chain, reference_chain_action

Q = CycloField(1)

# the three cases of perfbench/scenarios/diag_roots.json, and its cap
DIAG_ROOTS = {
    "a3-z3": [["z3^1", "z3^1", "1"], ["z3^1", "z3^1", "z3^1"],
              ["1", "z3^1", "z3^1"]],
    "b2-z12": [["z12^1", "z12^11"], ["z12^11", "z12^2"]],
    "g2-z8": [["z8^1", "z8^5"], ["1", "z8^3"]],
}
DIAG_ROOTS_CAP = 6
# and a conductor-1 case (A2 at q = -1), whose chains and top chain modules
# are eliminated on the certified mod-p path
REFLECTED = dict(DIAG_ROOTS, **{"a2-minus-one": [["-1", "-1"], ["1", "-1"]]})


def reference_character(group, values):
    """Extend a character from generator values by right multiplication,
    depth first: a different word for each element than the module uses."""
    table = {group.identity: Q.one()}
    frontier = [group.identity]
    while frontier:
        e = frontier.pop()
        for gen, v in values.items():
            e2 = group.mul(e, gen)
            if e2 not in table:
                table[e2] = table[e] * v
                frontier.append(e2)
    return table


def reference_induced(cls, chi, t):
    """t . e_j = chi(gamma) e_k where t * reps[j] = reps[k] * gamma."""
    cols = []
    for j in range(cls.size):
        k, gamma = cls.decompose(t, j)
        cols.append({k: chi[gamma]})
    return cols


def fk3_case():
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3), numeration={
        "members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
        "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    return fk3_module(), cls, {(2, 1, 3): Q.rational(-1)}


def d9_case():
    g = build_dihedral(9)
    inv2 = pow(2, -1, 9)
    cls = conjugacy_class(g, (1, 0), numeration={
        "members": [[1, i] for i in range(9)],
        "reps": [[0, (-i * inv2) % 9] for i in range(9)]})
    return d9_module(), cls, {(1, 0): Q.rational(-1)}


def transposition_case(sign):
    cls = transposition_class(symmetric_group(4))
    values = {SIGMA[1]: Q.rational(-1), SIGMA[6]: Q.rational(sign)}
    return transposition_module(sign), cls, values


def four_cycle_case():
    cls = four_cycle_class(symmetric_group(4))
    return four_cycle_module(), cls, {TAU[1]: Q.rational(-1)}


CORPUS = {
    "s3-fk3": fk3_case,
    "s4-sgn": lambda: transposition_case(-1),
    "s4-sgn-eps": lambda: transposition_case(1),
    "s4-chi-minus": four_cycle_case,
    "d9": d9_case,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_actions_match_the_decompose_formula(name):
    module, cls, values = CORPUS[name]()
    g = module.group
    assert module.coaction == cls.members
    chi = reference_character(g, values)
    assert set(chi) == set(cls.centralizer)
    for t in g.elements:
        assert module.action_of(t) == reference_induced(cls, chi, t), t


@pytest.mark.parametrize("label", sorted(REFLECTED))
def test_reflected_block_actions_match_chain_solves(label):
    _, _, blocks = diagonal_modules(REFLECTED[label])
    fam = FamilyM(blocks)
    g = fam.group
    for i in range(fam.theta):
        image = reflect(fam, i, cap=DIAG_ROOTS_CAP)
        for j, block in enumerate(image.blocks):
            if j == i:
                # the dual: t acts by the transpose of t^-1 on the block
                primal = fam.blocks[i]
                for t in g.elements:
                    inv = primal.action_of(g.inv(t))
                    want = [{r: inv[r][k] for r in range(primal.dim)
                             if k in inv[r]} for k in range(primal.dim)]
                    assert block.action_of(t) == want, (i, t)
                continue
            chain = reference_chain(fam.blocks[i], fam.blocks[j],
                                    DIAG_ROOTS_CAP)
            for t in g.elements:
                assert block.action_of(t) == reference_chain_action(chain, t), \
                    (i, j, t)

