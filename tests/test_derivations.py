"""Differential operators, braided adjoints, and their operator identities.

The operators of nichols.derivations act on free words.  Their B(V)-state
versions below, which act on a computed truncation through its multiply,
left_multiply and derivative tables, are the reference: the operator
identities are checked on them, and the free-word evaluation, projected
once, must agree with them on random expressions.
"""

import itertools
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols.cyclotomic import CycloField, _add_scaled, _nonzero
from nichols.derivations import element_is_zero, evaluate_expr, format_element
from nichols.engine import GradedNicholsState
from nichols.errors import DegreeRangeError, ScenarioError
from nichols.groups import build_dihedral, conjugacy_class, symmetric_group
from nichols.verify import corpus, four_cycle_module, transposition_module
from nichols.ydmodule import (
    build_M_O_rho,
    diagonal_modules,
    direct_sum,
    one_dim_rep,
)
from test_engine import symmetrizer_columns

Q = CycloField(1)


# -- the B(V)-state operators: elements are (degree, coords) pairs over the
# graded basis of a GradedNicholsState, as GradedNicholsState.multiply uses


def partial_right(state, k: int, x):
    """Right derivation by the k-th dual basis vector."""
    n, coords = x
    if n > state.max_degree():
        raise DegreeRangeError("element degree beyond the computed range",
                               degree=n, computed=state.max_degree())
    if n == 0:
        return (0, {})
    return (n - 1, state.derivative(n, coords, k))


def left_column(state, n: int, m: int, j: int):
    """Left derivative by f_j of the m-th degree-n basis word v_i * b:
    delta_ij b plus v_i times the left derivative of b by g_i^{-1} . f_j."""
    i, tail = state.words[n][m][0], state.tails[n][m]
    col = {tail: state.field.one()} if j == i else {}
    if n > 1:
        acts = state.module.action_of(state.module.coaction[i])
        for b, act in enumerate(acts):
            if j in act:
                _add_scaled(col, state.left_multiply(
                    i, n - 2, left_column(state, n - 1, tail, b)), act[j])
    return _nonzero(col)


def partial_left(state, j: int, x):
    """Left derivation by the j-th dual basis vector."""
    n, coords = x
    if n > state.max_degree():
        raise DegreeRangeError("element degree beyond the computed range",
                               degree=n, computed=state.max_degree())
    if n == 0:
        return (0, {})
    out = {}
    for m, c in coords.items():
        _add_scaled(out, left_column(state, n, m, j), c)
    return (n - 1, _nonzero(out))


def ad_c(state, i: int, y):
    """Braided adjoint of v_i: ad_c v(y) = vy - (g.y)v."""
    n, yc = y
    one = state.field.one()
    acted = state.act(n, state.module.coaction[i], yc)
    out = state.left_multiply(i, n, yc)
    _add_scaled(out, state.multiply((n, acted), (1, {i: one}))[1], -one)
    return (n + 1, _nonzero(out))


def ad_c_inv(state, i: int, y):
    """Adjoint for the inverse braiding: v y_m - y_m (h_m^{-1} . v) per
    basis word m."""
    n, yc = y
    group, one = state.module.group, state.field.one()
    out = state.left_multiply(i, n, yc)
    for m, cm in yc.items():
        hinv = group.inv(state.hdegrees[n][m])
        hv = state.act(1, hinv, {i: one})
        _add_scaled(out, state.multiply((n, {m: one}), (1, hv))[1], -cm)
    return (n + 1, _nonzero(out))


def fk3_module(name="x"):
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3), numeration={
        "members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
        "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    rho = one_dim_rep(g, cls.centralizer, {(2, 1, 3): Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name)


def d9_block(name):
    g = build_dihedral(9)
    inv2 = pow(2, -1, 9)
    cls = conjugacy_class(g, (1, 0), numeration={
        "members": [[1, i] for i in range(9)],
        "reps": [[0, (-i * inv2) % 9] for i in range(9)]})
    rho = one_dim_rep(g, cls.centralizer, {(1, 0): Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name, index_base=0)


def fk3_state(cap=4):
    return GradedNicholsState(fk3_module()).extend_to(cap)


def fk3_double_state(cap=3):
    w = direct_sum([fk3_module("x"), fk3_module("y")])
    return GradedNicholsState(w).extend_to(cap)


def nf(state, word):
    return (len(word), state.normal_form(word))


def add_elements(x, y):
    """x + y for (degree, coords) elements; a zero element fits any degree."""
    assert x[0] == y[0] or not x[1] or not y[1], (x[0], y[0])
    out = dict(x[1])
    for k, v in y[1].items():
        out[k] = out[k] + v if k in out else v
    return (x[0] if x[1] else y[0],
            {k: v for k, v in out.items() if v})


def scale_element(s, x):
    return (x[0], {k: s * v for k, v in x[1].items()} if s else {})


def combine(state, signed_words):
    total = (len(signed_words[0][1]), {})
    for sign, word in signed_words:
        total = add_elements(total, scale_element(
            state.field.rational(sign), nf(state, word)))
    return total


def assert_equal_elements(x, y):
    assert x[1] == y[1] or element_is_zero(x) and element_is_zero(y), (x, y)


# -- right derivations


def test_partial_right_on_generators():
    state = fk3_state(2)
    for i in range(3):
        for j in range(3):
            out = partial_right(state, i, (1, {j: Q.one()}))
            assert out == (0, {0: Q.one()} if i == j else {})


def test_partial_right_kills_scalars():
    state = fk3_state(2)
    assert partial_right(state, 0, (0, {0: Q.one()})) == (0, {})


def test_partial_right_leibniz_against_multiply():
    # independent check: the stored derivative tables obey the product rule
    state = fk3_double_state(3)
    mod = state.module
    rng = random.Random(11)
    for _ in range(6):
        b = (1, {rng.randrange(6): Q.rational(rng.randint(1, 3))})
        c = (2, {rng.randrange(len(state.words[2])): Q.rational(
            rng.randint(-3, -1))})
        bc = state.multiply(b, c)
        for k in range(6):
            gi = mod.coaction[k]
            acols = state.action_columns(2, gi)
            acted = {}
            for m, cm in c[1].items():
                for idx, s in acols[m].items():
                    acted[idx] = acted.get(idx, Q.zero()) + cm * s
            lhs = partial_right(state, k, bc)
            rhs = add_elements(
                state.multiply(b, partial_right(state, k, c)),
                state.multiply(partial_right(state, k, b), (2, acted)))
            assert_equal_elements(lhs, rhs)


def test_degree_range_guard():
    state = fk3_state(2)
    with pytest.raises(DegreeRangeError):
        partial_right(state, 0, (3, {0: Q.one()}))
    with pytest.raises(DegreeRangeError):
        partial_left(state, 0, (3, {0: Q.one()}))


# -- braided adjoints


def test_ad_c_of_unit_is_zero():
    state = fk3_state(2)
    one = (0, {0: Q.one()})
    assert element_is_zero(ad_c(state, 0, one))
    assert element_is_zero(ad_c_inv(state, 0, one))


def test_ad_c_single_step():
    # x-block indices 0..2, y-block 3..5
    state = fk3_double_state(2)
    out = ad_c(state, 0, (1, {4: Q.one()}))
    assert_equal_elements(out, combine(state, [(1, (0, 4)), (1, (5, 0))]))


def test_ad_c_chain_expansion():
    state = fk3_double_state(3)
    chain = ad_c(state, 1, ad_c(state, 0, (1, {4: Q.one()})))
    expected = combine(state, [
        (1, (1, 0, 4)), (1, (1, 5, 0)), (-1, (2, 4, 1)), (-1, (3, 2, 1))])
    assert_equal_elements(chain, expected)


def test_s3_obstruction_witness():
    state = fk3_double_state(3)
    chain = ad_c(state, 1, ad_c(state, 0, (1, {4: Q.one()})))
    step = partial_right(state, 3, chain)
    assert_equal_elements(step, scale_element(Q.rational(-1), nf(state, (1, 2))))
    final = partial_right(state, 2, step)
    assert final == (1, {1: Q.rational(-1)})


def test_d9_obstruction_witness():
    w = direct_sum([d9_block("v"), d9_block("w")])
    state = GradedNicholsState(w).extend_to(3)
    chain = ad_c(state, 2, ad_c(state, 1, (1, {11: Q.one()})))
    step = partial_right(state, 13, chain)
    assert_equal_elements(step, scale_element(Q.rational(-1), nf(state, (5, 6))))
    final = partial_right(state, 6, step)
    assert final == (1, {5: Q.rational(-1)})


def test_ad_c_inv_degree_one_specialization():
    state = fk3_state(2)
    mod = state.module
    for i in range(3):
        for j in range(3):
            out = ad_c_inv(state, i, (1, {j: Q.one()}))
            expect = state.multiply((1, {i: Q.one()}), (1, {j: Q.one()}))
            hinv = mod.group.inv(mod.coaction[j])
            for a, s in mod.action_of(hinv)[i].items():
                expect = add_elements(expect, scale_element(
                    -s, state.multiply((1, {j: Q.one()}), (1, {a: Q.one()}))))
            assert_equal_elements(out, expect)


def test_ad_c_matches_ad_c_inv_when_braiding_symmetric():
    _, field, blocks = diagonal_modules([["-1", "1"], ["1", "-1"]])
    w = direct_sum(blocks)
    state = GradedNicholsState(w).extend_to(3)
    ys = [(1, {0: field.one()}), (1, {1: field.rational(2)}),
          (2, state.normal_form((0, 1)))]
    for i in range(2):
        for y in ys:
            assert_equal_elements(ad_c(state, i, y), ad_c_inv(state, i, y))


# -- left derivations


def test_partial_left_on_generators():
    state = fk3_state(2)
    for i in range(3):
        for j in range(3):
            out = partial_left(state, i, (1, {j: Q.one()}))
            assert out == (0, {0: Q.one()} if i == j else {})


def test_partial_left_degree_two_values():
    # the twisted term reads the braiding: left derivations of x1 x2
    state = fk3_state(2)
    x1x2 = nf(state, (0, 1))
    assert_equal_elements(partial_left(state, 0, x1x2), (1, {1: Q.one()}))
    assert element_is_zero(partial_left(state, 1, x1x2))
    assert_equal_elements(partial_left(state, 2, x1x2),
                          (1, {0: Q.rational(-1)}))


def test_iterated_left_derivations_extract_symmetrizer_coefficients():
    # applying f_{j_1} first, ..., f_{j_n} last reads off the coefficient of
    # the tensor word (j_1, ..., j_n) in the symmetrized lift
    module = fk3_module()
    state = GradedNicholsState(module).extend_to(3)
    for n in (2, 3):
        words = state.words[n]
        cols = symmetrizer_columns(module, n, words)
        for m, word in enumerate(words):
            image = cols[word]
            for dual in itertools.product(range(3), repeat=n):
                x = (n, {m: Q.one()})
                for j in dual:
                    x = partial_left(state, j, x)
                got = x[1].get(0, Q.zero())
                assert got == image.get(dual, Q.zero()), (word, dual)


def test_left_right_commutation():
    state = fk3_double_state(3)
    for n in (2, 3):
        for m in range(0, len(state.words[n]), 7):
            x = (n, {m: Q.one()})
            for z in range(6):
                for k in range(6):
                    lhs = partial_left(state, z, partial_right(state, k, x))
                    rhs = partial_right(state, k, partial_left(state, z, x))
                    assert_equal_elements(lhs, rhs)


def test_left_derivation_straightening_rule():
    # moving a left derivation past a left multiplication twists the
    # functional by the group degree and adds the pairing term
    state = fk3_state(3)
    mod = state.module
    rng = random.Random(5)
    for _ in range(4):
        x = (2, {rng.randrange(4): Q.rational(rng.randint(1, 2)),
                 rng.randrange(4): Q.rational(rng.randint(-2, -1))})
        for i in range(3):
            vi = (1, {i: Q.one()})
            cols = mod.action_of(mod.coaction[i])
            for j in range(3):
                lhs = partial_left(state, j, state.multiply(vi, x))
                rhs = (2, {}) if j != i else x
                for b in range(3):
                    if j not in cols[b]:
                        continue
                    rhs = add_elements(rhs, scale_element(
                        cols[b][j],
                        state.multiply(vi, partial_left(state, b, x))))
                assert_equal_elements(lhs, rhs)


def test_zero_detection_via_left_derivations():
    state = fk3_state(3)
    rng = random.Random(9)
    for n in (2, 3):
        dimn = len(state.words[n])
        for _ in range(6):
            coords = {i: Q.rational(rng.randint(-2, 2)) for i in range(dimn)}
            coords = {i: v for i, v in coords.items() if v}
            x = (n, coords)
            has = any(not element_is_zero(partial_left(state, j, x))
                      for j in range(3))
            assert has == bool(coords)


def test_multidegree_drops_by_one_letter():
    state = fk3_double_state(2)
    for m in range(len(state.words[2])):
        md = state.mdegrees[2][m]
        for k in range(6):
            blk = state.module.block_of(k)
            for side in (partial_right, partial_left):
                out = side(state, k, (2, {m: Q.one()}))
                for idx in out[1]:
                    got = state.mdegrees[1][idx]
                    want = tuple(v - (1 if b == blk else 0)
                                 for b, v in enumerate(md))
                    assert got == want


def nondegeneracy_witness(state, x):
    """Lex-least dual-index word whose iterated left derivation of x is a
    nonzero scalar; None only if x is zero."""
    if element_is_zero(x):
        return None
    if x[0] == 0:
        return ()
    for j in range(state.module.dim):
        y = partial_left(state, j, x)
        if not element_is_zero(y):
            return (j,) + nondegeneracy_witness(state, y)
    raise AssertionError(f"nonzero element of degree {x[0]} with all left "
                         "derivations zero")


def test_nondegeneracy_witnesses():
    state = fk3_state(4)
    for n in range(1, 5):
        for m in range(len(state.words[n])):
            x = (n, {m: Q.one()})
            wit = nondegeneracy_witness(state, x)
            assert len(wit) == n
            for j in wit:
                x = partial_left(state, j, x)
            assert x[0] == 0 and not element_is_zero(x)
    assert nondegeneracy_witness(state, (2, {})) is None
    assert nondegeneracy_witness(state, (0, {0: Q.one()})) == ()


# -- expression surface


def test_evaluate_expression_regression():
    state = fk3_double_state(3)
    out = evaluate_expr(state, "(d x3 (d y1 (ad x2 (ad x1 y2))))", 3)
    assert out == (1, {1: Q.rational(-1)})
    assert format_element(state, out) == "-x2"


def test_evaluate_expression_atoms_and_left():
    state = fk3_double_state(3)
    assert evaluate_expr(state, "y2", 3) == (1, {4: Q.one()})
    assert element_is_zero(evaluate_expr(state, "(ad x1 1)", 3))
    out = evaluate_expr(state, "(dl x1 (ad x1 y2))", 3)
    assert out == (1, {4: Q.one()})


def test_evaluate_expression_errors():
    state = fk3_double_state(2)
    for bad in ("", "(d x3", "(frob x1 y2)", "(d zz y2)", "(d x1)",
                "y2 y3", ")", "(ad x1 (ad x1 y2) y2)"):
        with pytest.raises(ScenarioError):
            evaluate_expr(state, bad, 2)


# -- free-word evaluation against the state reference

OPERATORS = {"d": partial_right, "dl": partial_left, "ad": ad_c,
             "adinv": ad_c_inv}


@cache
def oracle_cases():
    """name -> (reference state extended to the peak degree, peak); a
    finished algebra's peak is its computed range, since the reference
    refuses a derivative past it."""
    modules = {name: (module, 4) for name, module in corpus()
               if name in ("fk3-double", "diag-a2", "zero-pair", "four-cycle")}
    modules["s4-zt-w"] = (direct_sum([transposition_module(1, name="zt"),
                                      four_cycle_module("w")]), 4)
    modules["d9-pair"] = (direct_sum([d9_block("v"), d9_block("w")]), 3)
    states = {name: GradedNicholsState(module).extend_to(peak)
              for name, (module, peak) in modules.items()}
    return {name: (state, state.max_degree())
            for name, state in states.items()}


def render(tree):
    if isinstance(tree, str):
        return tree
    op, label, inner = tree
    return f"({op} {label} {render(inner)})"


def reference_value(state, tree):
    one = state.field.one()
    if tree == "1":
        return (0, {0: one})
    if isinstance(tree, str):
        return (1, {state.module.label_index[tree]: one})
    op, label, inner = tree
    return OPERATORS[op](state, state.module.label_index[label],
                         reference_value(state, inner))


@pytest.mark.parametrize("name", ["d9-pair", "diag-a2", "fk3-double",
                                  "four-cycle", "s4-zt-w", "zero-pair"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_free_word_evaluation_matches_state_reference(name, data):
    # every subexpression is compared, the nonzero adjoints on the way up
    # as well as the often zero derivatives
    state, peak = oracle_cases()[name]
    labels = st.sampled_from(state.module.basis_labels)
    tree = data.draw(st.one_of(st.just("1"), labels))
    degree = int(tree != "1")
    for op in data.draw(st.lists(st.sampled_from(sorted(OPERATORS)),
                                 max_size=7)):
        if op.startswith("ad"):
            if degree == peak:
                continue
            degree += 1
        else:
            degree = max(degree - 1, 0)
        tree = (op, data.draw(labels), tree)
        assert evaluate_expr(state, render(tree), peak) == \
            reference_value(state, tree), render(tree)


def test_format_element_scalars():
    state = fk3_state(2)
    assert format_element(state, (1, {})) == "0"
    assert format_element(state, (0, {0: Q.one()})) == "1"
    two = (2, {0: Q.rational(2), 1: Q.rational(-1)})
    w0, w1 = (
        "*".join(state.module.basis_labels[i] for i in state.words[2][m])
        for m in (0, 1))
    assert format_element(state, two) == f"(2)*{w0} - {w1}"
