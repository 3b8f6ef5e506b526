"""Adjoint chains against an independent reference on the full pair algebra.

The program runs each chain on Phi-rows, the right derivatives by the
second block, inside the Nichols algebra of the first block alone.  The
reference here runs the chain the direct way: ad_c of every letter of
block i on every row inside the unbounded Nichols algebra of the pair,
eliminated with eliminate_block at every step, the one at the cap
included, and the top chain module solved with the dense exact reference on
the pair algebra's own action.  At every cap the two must give the same
entries; the program's rows (under Phi) must equal the reference's at the
last step the program eliminated, and the top modules of exact chains must
agree, entry for entry.

The dimension identity dim B_(m,1) = sum_k d_k h_(m-k), with d_k the chain
dimensions and h the Hilbert series of the first block's Nichols algebra
(B = K # B(M_i)), ties the chains to the pair algebra's multidegree table.
"""

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from nichols.engine import GradedNicholsState
from nichols.groupoid import (
    FamilyM,
    UnboundedAtCap,
    _adjoint_chain,
    _top_module,
)
from nichols.linalg import eliminate_block
from nichols.ydmodule import diagonal_modules, direct_sum
from dense_reference import DenseSpan
from test_certified_elimination import CHAIN_CASES
from test_derivations import ad_c

DIAG_ROOTS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" \
    / "diag_roots.json"
DIAG_ROOTS_CAP = 6


class ReferenceChain(NamedTuple):
    entry: object          # int or UnboundedAtCap
    state: GradedNicholsState   # the full Nichols algebra of the pair
    degree: int            # degree of the last nonzero chain step
    rows: list             # its pivot images, as coord dicts


def pair_algebra(block_i, block_j):
    return GradedNicholsState(direct_sum([block_i.renamed("u"),
                                          block_j.renamed("w")]))


def reference_chain(block_i, block_j, cap, state=None):
    """The chain of block_i on block_j by ad_c in the unbounded pair
    algebra, every step eliminated, with the program's cap rule.  state,
    if given, is pair_algebra(block_i, block_j), shared between caps."""
    if state is None:
        state = pair_algebra(block_i, block_j)
    di = block_i.dim
    one = state.field.one()
    rows = [{di + k: one} for k in range(block_j.dim)]
    m = 1
    while True:
        if m + 1 > cap:
            return ReferenceChain(UnboundedAtCap(cap), state, m, rows)
        state.extend_to(m + 1)
        images = [coords for v in range(di) for row in rows
                  if (coords := ad_c(state, v, (m, row))[1])]
        if not images:
            return ReferenceChain(1 - m, state, m, rows)
        results = eliminate_block(state.field, images, track=False)
        rows = [x for x, (kind, _) in zip(images, results) if kind == "pivot"]
        m += 1


def reference_chain_action(chain, t):
    """Columns of t on the top chain step, solving every row's image under
    the pair algebra's action against the chain rows."""
    state, n, rows = chain.state, chain.degree, chain.rows
    slots = sorted({w for row in rows for w in row})
    colpos = {w: c for c, w in enumerate(slots)}

    def dense(vec):
        out = [state.field.zero()] * len(slots)
        for w, val in vec.items():
            if val:
                out[colpos[w]] = val
        return out

    solver = DenseSpan(state.field)
    for row in rows:
        assert solver.insert(dense(row))[0] == "pivot"
    cols = []
    for row in rows:
        image = {}
        for w, cv in row.items():
            for w2, s in state.action_columns(n, t)[w].items():
                image[w2] = image.get(w2, state.field.zero()) + cv * s
        kind, data = solver.insert(dense(image))
        assert kind == "combo"
        cols.append({r: cf for r, cf in enumerate(data) if cf})
    return cols


def reference_coaction(chain):
    """The group degree of each chain row, read off the pair algebra."""
    out = []
    for row in chain.rows:
        hdegs = {chain.state.hdegrees[chain.degree][w] for w in row}
        assert len(hdegs) == 1
        out.append(hdegs.pop())
    return out


def phi_of(chain, di, dj):
    """Each reference row's right derivatives by block j's basis, as
    {word: coefficient} per basis vector."""
    state, n = chain.state, chain.degree
    words = state.words[n - 1]
    return [[{words[w]: c for w, c in
              state.derivative(n, row, di + k).items()} for k in range(dj)]
            for row in chain.rows]


def diag_roots_pairs():
    """(label, blocks, i, j) for every ordered pair of blocks of every case
    of perfbench/scenarios/diag_roots.json."""
    out = []
    for case in json.loads(DIAG_ROOTS.read_text())["cases"]:
        _, _, blocks = diagonal_modules(case["diagonal"])
        for i in range(len(blocks)):
            for j in range(len(blocks)):
                if i != j:
                    out.append((f"{case['label']}-{i + 1}{j + 1}", blocks,
                                i, j))
    return out


# name -> (build blocks, [(i, j)], cap, whether to compare top modules)
CASES = {name: (build, [(0, 1), (1, 0)], cap, with_top)
         for name, (build, cap, with_top) in CHAIN_CASES.items()}
CASES.update({label: (lambda blocks=blocks: blocks, [(i, j)], DIAG_ROOTS_CAP,
                      True)
              for label, blocks, i, j in diag_roots_pairs()})


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_matches_pair_algebra_reference(name):
    # at every cap, so that each early exit at a cap step is compared with
    # a reference that eliminated that step
    build, pairs, top_cap, with_top = CASES[name]
    blocks = build()
    fam = FamilyM(blocks)
    for i, j in pairs:
        pair = pair_algebra(blocks[i], blocks[j])
        refs = {cap: reference_chain(blocks[i], blocks[j], cap, pair)
                for cap in range(1, top_cap + 1)}
        for cap in range(1, top_cap + 1):
            chain = _adjoint_chain(fam, i, j, cap)
            assert chain.entry == refs[cap].entry, (i, j, cap)
            # an open chain holds the rows of degree cap - 1, the last step
            # it eliminated
            ref = refs[chain.degree]
            assert (chain.degree, len(chain.rows)) == \
                (ref.degree, len(ref.rows)), (i, j, cap)
            words = chain.state.words[chain.degree - 1]
            assert [[{words[w]: c for w, c in comp.items()} for comp in row]
                    for row in chain.rows] == \
                phi_of(ref, blocks[i].dim, blocks[j].dim), (i, j, cap)
            if with_top and isinstance(chain.entry, int):
                top = _top_module(chain)
                assert top.coaction == reference_coaction(ref), (i, j, cap)
                for t in fam.group.generators:
                    assert top.generator_columns[t] == \
                        reference_chain_action(ref, t), (i, j, cap, t)


def chain_dims(fam, i, j, top):
    """d_0, ..., d_top: the dimension of each chain step (ad M_i)^k(M_j).

    Step k has chain degree k + 1; the chain at cap k + 2 eliminates it, and
    holds its rows unless the chain ended below it."""
    dims = []
    for k in range(top + 1):
        chain = _adjoint_chain(fam, i, j, k + 2)
        dims.append(len(chain.rows) if chain.degree == k + 1 else 0)
    return dims


# name -> (build blocks, [(i, j)], largest m)
DIMENSION_CASES = {name: (CHAIN_CASES[name][0], [(0, 1), (1, 0)], top)
                   for name, top in (("d9-pair", 2), ("fk3-double", 3),
                                     ("s4-zt-w", 3))}
DIMENSION_CASES.update({
    label: (lambda blocks=blocks: blocks, [(i, j)], DIAG_ROOTS_CAP - 1)
    for label, blocks, i, j in diag_roots_pairs()})


@pytest.mark.parametrize("name", sorted(DIMENSION_CASES))
def test_chain_dimensions_factor_the_pair_algebra(name):
    build, pairs, top = DIMENSION_CASES[name]
    blocks = build()
    fam = FamilyM(blocks)
    for i, j in pairs:
        d = chain_dims(fam, i, j, top)
        h = GradedNicholsState(blocks[i]).extend_to(top).dims()
        h += [0] * (top + 1 - len(h))
        pair = GradedNicholsState(direct_sum([blocks[i].renamed("u"),
                                              blocks[j].renamed("w")]))
        table = pair.extend_to(top + 1).multidegree_table()
        for m in range(top + 1):
            assert table.get(f"{m},1", 0) == \
                sum(d[k] * h[m - k] for k in range(m + 1)), (i, j, m)
