"""Symmetrizer oracle, derivation-quotient engine, and their agreement."""

import json
import random
from itertools import islice, permutations
from operator import add, itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings

from nichols import cli, engine
from nichols.cyclotomic import CycloField, _add_scaled, _nonzero
from nichols.errors import DegreeRangeError, MemoryGuardError, ScenarioError
from nichols.engine import (
    GradedNicholsState,
    hilbert_series,
    symmetrizer_images,
    symmetrizer_ranks,
)
from nichols.groupoid import FamilyM, cartan_entry
from nichols.groups import build_dihedral, conjugacy_class, symmetric_group
from nichols.linalg import eliminate_block
from nichols.verify import corpus
from nichols.verify import d9_module as named_d9_module
from nichols.verify import four_cycle_module
from nichols.ydmodule import (
    build_M_O_rho,
    diagonal_modules,
    direct_sum,
    one_dim_rep,
)
from test_cyclotomic import BARE
from test_extension_reference import BRAIDINGS, diagonal
from test_ydmodule import chi_minus_module

Q = CycloField(1)


def fk3_module(name="x"):
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3), numeration={
        "members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
        "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    rho = one_dim_rep(g, cls.centralizer, {(2, 1, 3): Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name)


def d9_module():
    g = build_dihedral(9)
    inv2 = pow(2, -1, 9)
    cls = conjugacy_class(g, (1, 0), numeration={
        "members": [[1, i] for i in range(9)],
        "reps": [[0, (-i * inv2) % 9] for i in range(9)]})
    rho = one_dim_rep(g, cls.centralizer, {(1, 0): Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name="v", index_base=0)


def a2_family():
    _, _, blocks = diagonal_modules([["z3^1", "1"], ["z3^2", "z3^1"]])
    return direct_sum(blocks)


# -- the oracle itself


def bubble_sort_words(n):
    """One reduced word per permutation of range(n): the adjacent swaps
    made while bubble-sorting it."""
    words = []
    for perm in permutations(range(n)):
        p, word = list(perm), []
        for end in range(n - 1, 0, -1):
            for k in range(end):
                if p[k] > p[k + 1]:
                    p[k], p[k + 1] = p[k + 1], p[k]
                    word.append(k)
        words.append(word)
    return words


def symmetrizer_columns(module, n, words, inverse=False):
    """Brute-force reference: the image of each given word under the
    degree-n quantum symmetrizer, as the sum of the bubble-sort lifts of
    all n! permutations."""
    apply = module.braiding().apply
    one, zero = module.field.one(), module.field.zero()
    lifts = bubble_sort_words(n)
    cols = {}
    for w in words:
        col = {}
        for reduced in lifts:
            x = {w: one}
            for k in reduced:
                x = apply(x, k, inverse)
            for w2, s in x.items():
                col[w2] = col.get(w2, zero) + s
        cols[w] = {w2: v for w2, v in col.items() if v}
    return cols


def test_symmetrizer_degree_one_is_identity():
    m = fk3_module()
    assert list(symmetrizer_images(m, 1)) == [
        [((a,), {(a,): Q.one()}) for a in range(3)]]


def test_symmetrizer_degree_two_is_id_plus_c():
    m = fk3_module()
    words = [(a, b) for a in range(3) for b in range(3)]
    expect = {w: {w: Q.one()} for w in words}
    for (a, b), terms in m.braiding().columns.items():
        col = expect[a, b]
        for w2, s in terms:
            col[w2] = col.get(w2, Q.zero()) + s
    expect = {w: {w2: v for w2, v in col.items() if v}
              for w, col in expect.items()}
    _, image = symmetrizer_images(m, 2)
    assert [w for w, _ in image] == [(0, 1), (0, 2), (1, 0), (1, 2)]
    assert all(col == expect[w] for w, col in image)
    assert symmetrizer_columns(m, 2, words) == expect


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("build, top", [
    (fk3_module, 4),
    (four_cycle_module, 4),
    (d9_module, 3),
    (a2_family, 4),
    (lambda: chi_minus_module(field=CycloField(12))[2], 4),
], ids=["fk3", "four-cycle", "d9", "a2", "chi-minus-z12"])
def test_symmetrizer_is_sum_of_lifts_of_all_permutations(build, top, inverse):
    # every column the degree walk keeps is the image of its word under the
    # sum of all n! lifts, and the words are distinct and in lex order
    m = build()
    for n, image in enumerate(symmetrizer_images(m, top, inverse=inverse), 1):
        words = [w for w, _ in image]
        assert words == sorted(set(words))
        assert dict(image) == symmetrizer_columns(m, n, words, inverse=inverse)


@pytest.mark.parametrize("name, module", corpus(),
                         ids=[name for name, _ in corpus()])
def test_oracle_keeps_the_engine_basis_words(name, module):
    # both walks pick the lex-least words independent modulo the relations,
    # the oracle by symmetrizer images and the engine by derivatives
    state = GradedNicholsState(module).extend_to(4)
    for n, image in enumerate(symmetrizer_images(module, 4), 1):
        words = state.words[n] if n < len(state.words) else []
        assert [w for w, _ in image] == words, n


def test_fk3_symmetrizer_rank_fixed_points():
    m = fk3_module()
    assert symmetrizer_ranks(m, 2) == [3, 4]


def test_oracle_rank_profiles_frozen():
    assert symmetrizer_ranks(fk3_module(), 5) == [3, 4, 3, 1, 0]
    assert symmetrizer_ranks(d9_module(), 3) == [9, 60, 378]
    w = direct_sum([fk3_module("x"), fk3_module("y")])
    assert symmetrizer_ranks(w, 4) == [6, 21, 60, 152]
    assert symmetrizer_ranks(a2_family(), 6) == [2, 4, 4, 5, 4, 4]


def test_oracle_budget_guard(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_ORACLE_BUDGET", 1000)
    with pytest.raises(MemoryGuardError):
        symmetrizer_ranks(d9_module(), 4)
    assert symmetrizer_ranks(fk3_module(), 4)[-1] == 1


def test_oracle_budget_counts_the_vectors_built():
    # fk3 keeps no word past degree 4, so each later degree builds nothing,
    # although 3^12 tensor words exceed the budget
    assert 3 ** 12 > engine.DEFAULT_ORACLE_BUDGET
    assert symmetrizer_ranks(fk3_module(), 12) == [3, 4, 3, 1] + [0] * 8


def unpruned_symmetrizer_images(module, n, inverse=False):
    """Reference degree walk that builds S_m(w l) for every kept word w of
    degree m-1 and every letter l, with no budget; symmetrizer_images
    builds w l only when w[1:] l is kept too, and must keep the same words
    with the same images."""
    g, apply, one = module.group, module.braiding().apply, module.field.one()
    letters = [(l, module.coaction[l],
                tuple(int(b == module.block_of(l)) for b in range(module.theta)))
               for l in range(module.dim)]
    image = [((), {(): one}, (g.identity, (0,) * module.theta))]
    for m in range(1, n + 1):
        blocks = {}
        for word, col, (h, mdeg) in image:
            for l, hl, e in letters:
                x = {w + (l,): s for w, s in col.items()}
                total = dict(x)
                for k in range(m - 2, -1, -1):
                    x = apply(x, k, inverse)
                    _add_scaled(total, x)
                key = (g.mul(h, hl), tuple(map(add, mdeg, e)))
                blocks.setdefault(key, []).append(
                    (word + (l,), _nonzero(total), key))
        image = []
        for key, cands in blocks.items():
            results = eliminate_block(module.field, [c[1] for c in cands],
                                      track=False)
            image += [c for c, (kind, _) in zip(cands, results)
                      if kind == "pivot"]
        image.sort(key=itemgetter(0))
        yield [(word, col) for word, col, _ in image]


ORACLE_REFERENCE_CASES = [(name, module, 4) for name, module in corpus()] + [
    ("d9", d9_module(), 3),
    ("a2", a2_family(), 6),
    ("chi-minus-z12", chi_minus_module(field=CycloField(12))[2], 4),
]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("module, top", [
    pytest.param(module, top, id=name)
    for name, module, top in ORACLE_REFERENCE_CASES])
def test_pruned_walk_matches_unpruned_reference(module, top, inverse):
    assert list(symmetrizer_images(module, top, inverse=inverse)) == \
        list(unpruned_symmetrizer_images(module, top, inverse=inverse))


@settings(max_examples=40, deadline=None)
@given(BRAIDINGS)
def test_rank_two_diagonal_oracle_words_closed_under_suffixes(rows):
    module = diagonal(rows)
    walk = list(symmetrizer_images(module, 5))
    assert walk == list(unpruned_symmetrizer_images(module, 5))
    lower = {()}
    for image in walk:
        words = {word for word, _ in image}
        assert all(word[1:] in lower for word in words), rows
        lower = words


def test_oracle_guard_counts_the_pruned_degree(monkeypatch):
    # D9 keeps 378 words of degree 3; degree 4 builds w l only when w[1:] l
    # is kept, 2364 vectors where every letter after every word is 3402,
    # and the guard counts them before building any
    kept = {word for word, _ in
            list(unpruned_symmetrizer_images(d9_module(), 3))[-1]}
    assert len(kept) * 9 == 3402
    assert sum(w[1:] + (l,) in kept for w in kept for l in range(9)) == 2364
    monkeypatch.setattr(engine, "DEFAULT_ORACLE_BUDGET", 2363)
    walk = symmetrizer_images(d9_module(), 4)
    assert [len(image) for image in islice(walk, 3)] == [9, 60, 378]
    with pytest.raises(MemoryGuardError) as exc:
        next(walk)
    assert exc.value.details == {"degree": 4, "vectors": 2364,
                                 "budget": 2363}


# -- engine vs oracle


def test_engine_matches_oracle_ranks():
    for module, top in ((fk3_module(), 4), (d9_module(), 3),
                        (direct_sum([fk3_module("x"), fk3_module("y")]), 4),
                        (a2_family(), 4)):
        state = GradedNicholsState(module).extend_to(top)
        dims = state.dims()
        assert dims[0] == 1
        assert dims[1] == module.dim
        for n, rank in enumerate(symmetrizer_ranks(module, top), 1):
            assert dims[n] == rank, (module.basis_labels, n)


def test_inverse_braiding_same_ranks():
    for module in (fk3_module(), d9_module(), a2_family()):
        assert symmetrizer_ranks(module, 3, inverse=True) == \
            symmetrizer_ranks(module, 3)


# -- the engine on known algebras


def test_fk3_hilbert_series():
    hs = hilbert_series(fk3_module(), cap=12)
    assert hs.coeffs == [1, 3, 4, 3, 1]
    assert hs.finished
    assert hs.total == 12


def test_one_dim_truncation():
    _, _, blocks = diagonal_modules([["z3^1"]])
    hs = hilbert_series(blocks[0], cap=10)
    assert hs.coeffs == [1, 1, 1]
    assert hs.finished and hs.total == 3
    _, _, blocks = diagonal_modules([["-1"]])
    hs = hilbert_series(blocks[0], cap=10)
    assert hs.coeffs == [1, 1]
    assert hs.total == 2


def test_one_dim_free_case_hits_cap():
    _, _, blocks = diagonal_modules([["1"]])
    hs = hilbert_series(blocks[0], cap=7)
    assert hs.coeffs == [1] * 8
    assert not hs.finished
    assert hs.total is None


def test_a2_total_27():
    hs = hilbert_series(a2_family(), cap=12)
    assert hs.coeffs == [1, 2, 4, 4, 5, 4, 4, 2, 1]
    assert hs.finished and hs.total == 27


def test_s3_double_not_finished_by_cap():
    w = direct_sum([fk3_module("x"), fk3_module("y")])
    hs = hilbert_series(w, cap=4)
    assert hs.coeffs == [1, 6, 21, 60, 152]
    assert not hs.finished


@pytest.mark.parametrize("build,top", [
    (fk3_module, 4),
    (lambda: direct_sum([named_d9_module("v"), named_d9_module("w")]), 3),
], ids=["fk3", "d9-pair"])
def test_engine_tables_hold_bare_rationals_over_q(build, top):
    # over Q a scalar is an int or an mpq, never a CycloNumber
    state = GradedNicholsState(build()).extend_to(top)
    assert state.max_degree() == top
    for n in range(1, top + 1):
        for col in state.products[n].values():
            assert all(type(c) in BARE for c in col.values()), col
        for vec in state.derivs[n]:
            assert all(type(c) in BARE for c in vec.values()), vec


# -- normal forms and products


def test_normal_form_empty_word():
    state = GradedNicholsState(fk3_module()).extend_to(2)
    assert state.normal_form(()) == {0: Q.one()}


def test_normal_form_squares_vanish():
    state = GradedNicholsState(fk3_module()).extend_to(2)
    for i in range(3):
        assert state.normal_form((i, i)) == {}


def test_normal_form_cyclic_relation():
    # x1 x2 + x2 x3 + x3 x1 = 0, also visible as a symmetrizer kernel member
    m = fk3_module()
    state = GradedNicholsState(m).extend_to(2)
    total = {}
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for idx, v in state.normal_form((a, b)).items():
            total[idx] = total.get(idx, Q.zero()) + v
    assert not any(total.values())
    cols = symmetrizer_columns(m, 2, [(0, 1), (1, 2), (2, 0)])
    image = {}
    for w in ((0, 1), (1, 2), (2, 0)):
        for w2, v in cols[w].items():
            image[w2] = image.get(w2, Q.zero()) + v
    assert not any(image.values())


def test_normal_form_beyond_top_degree():
    state = GradedNicholsState(fk3_module()).extend_to(12)
    assert state.finished
    assert state.normal_form((0, 1) * 4) == {}
    partial = GradedNicholsState(fk3_module()).extend_to(2)
    with pytest.raises(DegreeRangeError):
        partial.normal_form((0, 1, 2))
    # left_multiply: inside the computed range, past the top of a finished
    # algebra, and beyond the computed range of an unfinished one
    assert partial.left_multiply(0, 1, {1: Q.one()}) == \
        partial.normal_form((0, 1))
    assert state.left_multiply(0, state.max_degree(), {0: Q.one()}) == {}
    with pytest.raises(DegreeRangeError,
                       match="product degree beyond the computed range"):
        partial.left_multiply(0, 2, partial.normal_form((1, 2)))


def test_multiply_unital_and_matching_normal_form():
    state = GradedNicholsState(fk3_module()).extend_to(4)
    one = (0, {0: Q.one()})
    x1 = (1, {0: Q.one()})
    assert state.multiply(one, x1) == x1
    assert state.multiply(x1, one) == x1
    assert state.multiply(x1, x1) == (2, {})
    x2 = (1, {1: Q.one()})
    deg, coords = state.multiply(x1, x2)
    assert (deg, coords) == (2, state.normal_form((0, 1)))


def test_multiply_associative_random():
    state = GradedNicholsState(fk3_module()).extend_to(4)
    rng = random.Random(7)

    def rand_elem(n):
        dimn = len(state.words[n])
        return (n, {i: Q.rational(rng.randint(-3, 3))
                    for i in range(dimn) if rng.random() < 0.7})

    for _ in range(12):
        a, b, c = rand_elem(1), rand_elem(1), rand_elem(2)
        left = state.multiply(state.multiply(a, b), c)
        right = state.multiply(a, state.multiply(b, c))
        assert left[0] == right[0]
        la = {k: v for k, v in left[1].items() if v}
        ra = {k: v for k, v in right[1].items() if v}
        assert la == ra


def test_zero_detection_via_derivatives():
    # nonzero elements keep at least one nonzero derivative; zero kills all
    state = GradedNicholsState(fk3_module()).extend_to(3)
    rng = random.Random(3)
    for n in (2, 3):
        dimn = len(state.words[n])
        for _ in range(8):
            coords = {i: Q.rational(rng.randint(-2, 2)) for i in range(dimn)}
            coords = {i: v for i, v in coords.items() if v}
            nonzero_deriv = any(state.derivative(n, coords, k)
                                for k in range(3))
            assert nonzero_deriv == bool(coords)


def derivative_table(state, n, m):
    """{(k_n, ..., k_1): scalar} for the m-th degree-n basis word: its
    derivatives by k_1 first, then k_2, ..., down to degree 0."""
    table = {}
    todo = [((), {m: state.field.one()})]
    while todo:
        ks, coords = todo.pop()
        if len(ks) == n:
            table[tuple(reversed(ks))] = coords[0]
            continue
        for k in range(state.module.dim):
            d = state.derivative(n - len(ks), coords, k)
            if d:
                todo.append((ks + (k,), d))
    return table


@pytest.mark.parametrize("build, top", [
    (fk3_module, 4),
    (a2_family, 4),
    (four_cycle_module, 3),
    (lambda: direct_sum([named_d9_module("v"), named_d9_module("w")]), 2),
], ids=["fk3", "diag-a2", "four-cycle", "d9-pair"])
def test_derivatives_match_symmetrizer(build, top):
    # the iterated right derivatives of a word are the coefficients of its
    # symmetrizer image, read in reverse
    module = build()
    state = GradedNicholsState(module).extend_to(top)
    for n in range(1, top + 1):
        words = state.words[n]
        cols = symmetrizer_columns(module, n, words)
        for m, word in enumerate(words):
            assert derivative_table(state, n, m) == cols[word], word


def test_homogeneity_of_basis_words():
    w = direct_sum([fk3_module("x"), fk3_module("y")])
    state = GradedNicholsState(w).extend_to(3)
    g = w.group
    for n in range(len(state.words)):
        for m, word in enumerate(state.words[n]):
            h = g.identity
            md = [0, 0]
            for letter in word:
                h = g.mul(h, w.coaction[letter])
                md[w.block_of(letter)] += 1
            assert state.hdegrees[n][m] == h
            assert state.mdegrees[n][m] == tuple(md)
    table = state.multidegree_table()
    assert sum(table.values()) == sum(state.dims())


S4_ALL_THREE = Path(cli.__file__).parent / "scenarios" / "s4_all_three.json"


def tail_corpus():
    """The verify corpus and the three S4 modules of s4_all_three.json."""
    cases = json.loads(S4_ALL_THREE.read_text())["cases"]
    named = corpus() + [(case["label"], cli.build_blocks(case, pos)[1][0])
                        for pos, case in enumerate(cases)]
    return [pytest.param(name, module, id=name) for name, module in named]


@pytest.mark.parametrize("name, module", tail_corpus())
def test_basis_words_are_a_letter_times_the_word_at_their_tail(name, module):
    # every algebra here but fk3-double is finite, of top degree below 14
    state = GradedNicholsState(module).extend_to(
        5 if name == "fk3-double" else 14)
    assert state.finished or name == "fk3-double"
    for n in range(1, state.max_degree() + 1):
        assert len(state.tails[n]) == len(state.words[n])
        for m, word in enumerate(state.words[n]):
            tail = state.words[n - 1][state.tails[n][m]]
            assert word == (word[0],) + tail, (name, n, m)


def test_action_on_graded_pieces():
    m = fk3_module()
    state = GradedNicholsState(m).extend_to(2)
    g = m.group
    for t in ((2, 1, 3), (2, 3, 1)):
        fwd = state.action_columns(2, t)
        back = state.action_columns(2, g.inv(t))
        dim2 = len(state.words[2])
        for j in range(dim2):
            acc = {}
            for k, s1 in fwd[j].items():
                for i, s2 in back[k].items():
                    acc[i] = acc.get(i, Q.zero()) + s2 * s1
            acc = {i: v for i, v in acc.items() if v}
            assert acc == {j: Q.one()}
        # equivariance of the group degree
        for j in range(dim2):
            want = g.conjugate(t, state.hdegrees[2][j])
            for i in fwd[j]:
                assert state.hdegrees[2][i] == want


def test_graded_duality_dims():
    for module, top in ((fk3_module(), 12), (a2_family(), 12)):
        hs = hilbert_series(module, cap=top)
        hsd = hilbert_series(module.dual(), cap=top)
        assert hs.coeffs == hsd.coeffs
    d9 = d9_module()
    sd = GradedNicholsState(d9).extend_to(3).dims()
    sdd = GradedNicholsState(d9.dual()).extend_to(3).dims()
    assert sd == sdd


def test_memory_guard_on_extension(monkeypatch):
    w = direct_sum([fk3_module("x"), fk3_module("y")])
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "100")
    state = GradedNicholsState(w)
    state.extend_degree()
    state.extend_degree()
    with pytest.raises(MemoryGuardError):
        state.extend_degree()


def test_memory_guard_governs_library_calls(monkeypatch):
    # every state reads NICHOLS_MEM_LIMIT when it is built
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "5")
    with pytest.raises(MemoryGuardError):
        hilbert_series(fk3_module(), 4)
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "lots")
    with pytest.raises(ScenarioError):
        hilbert_series(fk3_module(), 4)


def test_extend_after_finished_is_noop():
    state = GradedNicholsState(fk3_module()).extend_to(12)
    top = state.max_degree()
    state.extend_degree()
    assert state.max_degree() == top
    assert state.series().total == 12


# -- the memory guard on an adjoint chain's state


def test_memory_guard_on_adjoint_chain(monkeypatch):
    # the chain of the D9 pair runs in B(M_v): step m = 3 needs degree 3,
    # 9 letters times dim B(M_v)_2 = 60 candidates
    fam = FamilyM([named_d9_module("v"), named_d9_module("w")])
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "300")
    with pytest.raises(MemoryGuardError) as exc:
        cartan_entry(fam, 0, 1, cap=4)
    assert exc.value.details == {"degree": 3, "candidates": 540, "limit": 300}
