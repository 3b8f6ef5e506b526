"""The engine's degree extension and products against references.

GradedNicholsState.extend_degree builds a derivative vector only for a
candidate v_i * b whose prefix v_i * b[:-1] is a basis word; every other
candidate is dependent, and its product is written by right multiplication.
FullCandidateState below eliminates every candidate instead, and both must
give equal tables.  left_product multiplies through left_multiply alone,
an independent route to the products that multiply and normal_form compute
by right multiplication.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols import cli
from nichols.cyclotomic import _add_scaled, _nonzero
from nichols.engine import GradedNicholsState
from nichols.linalg import eliminate_block
from nichols.verify import corpus, d9_module, four_cycle_module
from nichols.ydmodule import diagonal_modules, direct_sum

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "nichols" / "scenarios"


def benchmark_reference():
    """perfbench/reference.py, the benchmark's closed-form answers, loaded
    by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FullCandidateState(GradedNicholsState):
    """The derivation-quotient engine with every candidate eliminated."""

    def extend_degree(self):
        if self.finished:
            return self
        n = len(self.words)
        prev = self.words[n - 1]
        module = self.module
        cands = []
        blocks = {}
        for i in range(module.dim):
            gi = module.coaction[i]
            acols = self.action_columns(n - 1, gi)
            for b in range(len(prev)):
                # d_k(v_i b) = v_i d_k(b) + delta_ik g_i . b
                vec = {}
                for (k, m), c in self.derivs[n - 1][b].items():
                    _add_scaled(vec, {(k, idx): d for idx, d in
                                      self.products[n - 1][i, m].items()}, c)
                _add_scaled(vec, {(i, idx): d for idx, d in acols[b].items()})
                key = (module.group.mul(gi, self.hdegrees[n - 1][b]),
                       tuple(a + c for a, c in zip(module.multidegree(i),
                                                   self.mdegrees[n - 1][b])))
                blocks.setdefault(key, []).append(len(cands))
                cands.append((i, b, _nonzero(vec), key))
        combos = {}
        for key, members in blocks.items():
            pivots = []
            for o, (kind, data) in zip(members, eliminate_block(
                    self.field, [cands[o][2] for o in members])):
                if kind == "pivot":
                    pivots.append(o)
                else:
                    combos[o] = {pivots[j]: c for j, c in data.items()}
        number = {}
        words, tails, derivs, hdeg, mdeg, prods = [], [], [], [], [], {}
        for o, (i, b, vec, key) in enumerate(cands):
            if o in combos:
                prods[i, b] = {number[q]: c for q, c in combos[o].items()}
                continue
            number[o] = len(words)
            words.append((i,) + prev[b])
            tails.append(b)
            derivs.append(vec)
            hdeg.append(key[0])
            mdeg.append(key[1])
            prods[i, b] = {number[o]: self.field.one()}
        self.words.append(words)
        self.tails.append(tails)
        self.derivs.append(derivs)
        self.hdegrees.append(hdeg)
        self.mdegrees.append(mdeg)
        self.products.append(prods)
        self.finished = not words
        return self


def tables(state):
    return (state.words, state.tails, state.derivs, state.products,
            state.hdegrees, state.mdegrees, state.finished)


def left_product(state, a, b):
    """a * b word by word: each basis word of a times b, letter by letter
    from the right through left_multiply."""
    (da, ca), (db, cb) = a, b
    out = {}
    for m, c in ca.items():
        coords, deg = cb, db
        for letter in reversed(state.words[da][m]):
            coords = state.left_multiply(letter, deg, coords)
            deg += 1
        _add_scaled(out, coords, c)
    return (da + db, _nonzero(out))


def scenario_module(path, label):
    cases = json.loads(path.read_text())["cases"]
    pos = next(p for p, case in enumerate(cases) if case["label"] == label)
    return cli.build_blocks(cases[pos], pos)[1][0]


def diagonal(rows):
    return direct_sum(diagonal_modules(rows)[2])


def reference_cases():
    named = [(name, module, 4) for name, module in corpus()]
    s4 = json.loads((SCENARIOS / "s4_all_three.json").read_text())["cases"]
    named += [(case["label"], cli.build_blocks(case, pos)[1][0], 14)
              for pos, case in enumerate(s4)]
    named += [
        ("d9-pair", direct_sum([d9_module("v"), d9_module("w")]), 3),
        ("fk5", scenario_module(
            ROOT / "perfbench" / "scenarios" / "fk5_hilbert.json", "fk5"), 5),
        ("b2-z12", diagonal([["z12^1", "z12^11"], ["z12^11", "z12^2"]]), 8),
    ]
    return [pytest.param(module, top, id=name)
            for name, module, top in named]


@pytest.mark.parametrize("module, top", reference_cases())
def test_extension_matches_full_candidate_elimination(module, top):
    state = GradedNicholsState(module).extend_to(top)
    assert tables(state) == tables(FullCandidateState(module).extend_to(top))


def test_action_memo_holds_only_what_built_candidates_read():
    # pass 1 asks for the action columns of built candidates only (and
    # action_column for their tails); the full-candidate reference asks for
    # every word's, and both memos agree where they overlap
    module = four_cycle_module()
    state = GradedNicholsState(module).extend_to(14)
    full = FullCandidateState(module).extend_to(14)
    assert state.finished and full.finished
    assert (len(state._action), len(full._action)) == (852, 3456)
    assert all(full._action[key] == col for key, col in state._action.items())
    fk5 = GradedNicholsState(scenario_module(
        ROOT / "perfbench" / "scenarios" / "fk5_hilbert.json", "fk5"))
    assert len(fk5.extend_to(6)._action) == 9721
    # the Hilbert series of the S5 transposition algebra is [4]^4 [5]^2
    # [6]^4; through degree 6 it reads 1, 10, 55, 220, 711, 1960, 4761
    closed_form = benchmark_reference().hilbert_product([4] * 4 + [5] * 2 + [6] * 4)
    assert fk5.dims() == closed_form[:7]


def test_extension_after_products_at_a_lower_degree():
    # right columns memoized while the state stops at degree 2 stay valid
    # once it is extended further
    module = dict(corpus())["fk3-double"]
    state = GradedNicholsState(module).extend_to(2)
    one = state.field.one()
    for i in range(module.dim):
        for j in range(module.dim):
            assert state.normal_form((i, j)) == \
                left_product(state, (1, {i: one}), (1, {j: one}))[1]
    state.extend_to(4)
    assert tables(state) == tables(FullCandidateState(module).extend_to(4))


# q_ij = zN^k: primitive and non-primitive roots of small order, 1 included
BRAIDINGS = st.sampled_from((2, 3, 4, 5, 6)).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1).map(lambda k: f"z{n}^{k}"),
             min_size=2, max_size=2), min_size=2, max_size=2))


@settings(max_examples=40, deadline=None)
@given(BRAIDINGS, st.integers(0, 2 ** 16))
def test_rank_two_diagonal_prefix_closure_and_products(rows, seed):
    module = diagonal(rows)
    state = GradedNicholsState(module).extend_to(6)
    assert tables(state) == tables(FullCandidateState(module).extend_to(6))
    for n in range(1, state.max_degree() + 1):
        lower = set(state.words[n - 1])
        for word in state.words[n]:
            assert word[:-1] in lower and word[1:] in lower, (rows, word)
    rng = random.Random(seed)
    field = state.field

    def element(n):
        return (n, _nonzero({m: field.rational(rng.randint(-3, 3))
                             for m in range(len(state.words[n]))
                             if rng.random() < 0.6}))

    for da in range(state.max_degree() + 1):
        for db in range(state.max_degree() + 1 - da):
            a, b = element(da), element(db)
            assert state.multiply(a, b) == left_product(state, a, b), \
                (rows, da, db)
