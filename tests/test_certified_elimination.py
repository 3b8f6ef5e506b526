"""Certified mod-p elimination against exact elimination: the same results
as a dense exact reference on random and adversarial blocks, scalars in
the field's own form from the exact fallback, the same engine states and
adjoint chains on real modules as the forced exact path, and one pair
algebra per derive."""

import logging
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols import cli, engine, linalg
from nichols.cyclotomic import CycloField, CycloNumber
from nichols.engine import GradedNicholsState, symmetrizer_ranks
from nichols.groupoid import (
    FamilyM,
    _adjoint_chain,
    _top_module,
    explore_groupoid,
    real_roots,
)
from nichols.linalg import MODULUS, RECONSTRUCTION_BOUND, eliminate_block
from nichols.verify import (
    corpus,
    d9_module,
    fk3_module,
    four_cycle_module,
    transposition_module,
)
from nichols.ydmodule import diagonal_modules, direct_sum, fingerprint
from dense_reference import exact_path, reference_sequence
from test_cyclotomic import BARE

Q = CycloField(1)
SCENARIOS = Path(cli.__file__).parent / "scenarios"


def over_q(vectors):
    """Sparse rational vectors as the scalar vectors eliminate_block takes
    over Q."""
    return [{c: Q.rational(x) for c, x in v.items()} for v in vectors]


def exact_sequence(vectors, track=True):
    """What eliminate_block must return for the rational vectors, from the
    dense exact reference."""
    return reference_sequence(Q, over_q(vectors), track)


def fallback_reasons(caplog):
    return [r.getMessage().rsplit(": ", 1)[1] for r in caplog.records
            if r.name == "nichols.linalg"]


# -- random blocks

SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# half the blocks also draw multiples of p (zero mod p), denominators
# divisible by p, and powers of 3 beyond the reconstruction bound
WILD = st.one_of(SMALL, SMALL, SMALL, st.sampled_from(
    [Fraction(MODULUS), Fraction(-2 * MODULUS), Fraction(1, MODULUS),
     Fraction(3 ** 30), Fraction(3 ** 32, 7)]))


@st.composite
def blocks(draw):
    entries = WILD if draw(st.booleans()) else SMALL
    ncols = draw(st.integers(1, 7))
    sparse = st.dictionaries(st.integers(0, ncols - 1), entries,
                             max_size=ncols)
    base = draw(st.lists(sparse, min_size=1, max_size=4))
    vectors = []
    for _ in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            vectors.append(draw(st.sampled_from(base)))
            continue
        # a combination of base vectors, so that dependents are common
        acc = {}
        for b in base:
            k = draw(entries)
            for c, x in b.items():
                acc[c] = acc.get(c, 0) + k * x
        vectors.append({c: x for c, x in acc.items() if x})
    return vectors


@settings(max_examples=300, deadline=None)
@given(blocks(), st.booleans())
def test_same_sequence_as_incremental_span(vectors, track):
    assert eliminate_block(Q, over_q(vectors), track) == \
        exact_sequence(vectors, track)


def _distinct(keys):
    """Seven distinct column keys, one for each column blocks() draws."""
    return st.lists(keys, min_size=7, max_size=7, unique=True)


# the column keys of the callers: the engine's (derivative k, basis word
# index) and the symmetrizer's words of one length, in an order unrelated
# to the int columns they replace
COLUMN_KEYS = {
    "engine": _distinct(st.tuples(st.integers(0, 3), st.integers(0, 30))),
    "words": st.integers(2, 4).flatmap(lambda n: _distinct(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple))),
}


@settings(max_examples=300, deadline=None)
@given(blocks(), st.sampled_from(sorted(COLUMN_KEYS)).flatmap(
    COLUMN_KEYS.get), st.booleans())
def test_same_sequence_over_tuple_columns(vectors, keys, track):
    vectors = [{keys[c]: x for c, x in v.items()} for v in vectors]
    exact = exact_sequence(vectors, track)
    assert eliminate_block(Q, over_q(vectors), track) == exact
    # with small entries and every combination within the bound, the mod-p
    # path itself must certify the block rather than fall back
    coeffs = [q for kind, combo in exact_sequence(vectors)
              if kind == "combo" for q in combo.values()]
    if all(abs(x) <= 6 and x.denominator <= 5
           for v in vectors for x in v.values()) and \
            all(abs(q.numerator) <= RECONSTRUCTION_BOUND
                and q.denominator <= RECONSTRUCTION_BOUND for q in coeffs):
        assert linalg._eliminate_mod_p(over_q(vectors), track) == exact


@pytest.mark.parametrize("s", [1, Fraction(1, 3)], ids=["ints", "fractions"])
def test_elimination_over_q_leaves_its_vectors_unchanged(s):
    # an integer vector is its own integral form in the exact check of a
    # dependent, so that check must write into a copy
    vectors = over_q([{0: s, 1: 2 * s}, {1: s, 2: -s},
                      {0: 2 * s, 1: 5 * s, 2: -s}, {0: 3 * s, 1: 6 * s}, {}])
    before = [dict(v) for v in vectors]
    results = eliminate_block(Q, vectors)
    assert results == [("pivot", 0), ("pivot", 1), ("combo", {0: 2, 1: 1}),
                       ("combo", {0: 3}), ("combo", {})]
    assert vectors == before
    assert all(type(x) in BARE for v in vectors for x in v.values())
    assert all(type(x) in BARE for _, combo in results[2:]
               for x in combo.values())


# -- adversarial blocks: each must fall back and still be exact

ADVERSARIAL = {
    # v1 = v0 mod p, but not over Q
    "numerator divisible by p": (
        [{0: Fraction(1), 1: Fraction(MODULUS)}, {0: Fraction(1)}], "check"),
    "denominator divisible by p": (
        [{0: Fraction(1, MODULUS)}, {0: Fraction(1)}], "denominator"),
    # 3^30 mod p has no fraction of height below sqrt(p/2)
    "unreconstructible combination": (
        [{0: Fraction(1), 1: Fraction(1)},
         {0: Fraction(3 ** 30), 1: Fraction(3 ** 30)}], "reconstruction"),
    # 3^32 mod p reconstructs to a small fraction that is not the combination
    "combination beyond the bound": (
        [{0: Fraction(1)}, {0: Fraction(3 ** 32)}], "check"),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_block_falls_back_exactly(name, caplog):
    vectors, reason = ADVERSARIAL[name]
    with caplog.at_level(logging.DEBUG, logger="nichols.linalg"):
        got = eliminate_block(Q, over_q(vectors), degree=3, key="k")
    assert got == exact_sequence(vectors)
    assert fallback_reasons(caplog) == [reason]
    assert "degree 3 block k" in caplog.records[0].getMessage()


# -- the exact fallback writes each field's own scalars: == cannot tell a
# phi(N) = 1 CycloNumber from the bare rational, so check types

INTEGRAL, RATIONAL = BARE[:2], BARE[2]


def written(results):
    """Every combination value of eliminate_block's results."""
    return [x for kind, combo in results if kind == "combo"
            for x in combo.values()]


def bare(x):
    """A scalar over Q in cyclotomic's form: an int when integral, an mpq
    otherwise."""
    if type(x) is RATIONAL:
        return x.denominator != 1
    return type(x) in INTEGRAL


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_fallback_over_q_writes_bare_rationals(name):
    vectors = over_q(ADVERSARIAL[name][0])
    assert linalg._eliminate_mod_p(vectors, True) == ADVERSARIAL[name][1]
    assert all(bare(x) for x in written(eliminate_block(Q, vectors)))


@pytest.mark.parametrize("s", [1, Fraction(1, 3)], ids=["ints", "fractions"])
def test_forced_fallback_over_q_writes_bare_rationals(s):
    # combinations 1/2, 2 and 1, and the empty one
    vectors = over_q([{0: 2 * s, 1: 4 * s}, {1: 3 * s, 2: -s}, {0: s, 1: 2 * s},
                      {0: 4 * s, 1: 11 * s, 2: -s}, {2: 5 * s}, {}])
    mod_p = linalg._eliminate_mod_p(vectors, True)
    exact = exact_path(Q, vectors)
    assert exact == mod_p == exact_sequence(vectors)
    values = written(exact)
    assert sorted(values) == [Fraction(1, 2), 1, 2]
    assert all(bare(x) for x in values + written(mod_p))


@pytest.mark.parametrize("n", [3, 4, 8, 12])
def test_exact_path_writes_scalars_of_the_blocks_field(n):
    field = CycloField(n)
    z = field.parse(f"z{n}")
    one, two, third = field.one(), field.rational(2), field.rational(1, 3)
    # combinations z, 2 (a rational value, still a CycloNumber) and one over
    # two pivots with irrational coefficients
    vectors = [{0: z, 1: one}, {0: z * z, 1: z}, {0: two * z, 1: two},
               {1: two}, {0: third}]
    results = eliminate_block(field, vectors)
    assert results == reference_sequence(field, vectors)
    values = written(results)
    assert len(values) == 4
    assert all(type(x) is CycloNumber and x.field is field for x in values)


def test_cyclotomic_blocks_take_the_exact_path(caplog):
    field = CycloField(3)
    z = field.parse("z3")
    one = field.one()
    vectors = [{0: one, 1: z}, {0: z, 1: z * z}, {1: one}]
    with caplog.at_level(logging.DEBUG, logger="nichols.linalg"):
        got = eliminate_block(field, vectors)
    assert [kind for kind, _ in got] == ["pivot", "combo", "pivot"]
    assert got[1][1] == {0: z}
    assert fallback_reasons(caplog) == []


# -- the whole engine, certified path against the exact one


def d9_pair():
    return direct_sum([d9_module("v"), d9_module("w")])


def engine_data(module, cap, oracle_degree):
    state = GradedNicholsState(module).extend_to(cap)
    ranks = symmetrizer_ranks(module, oracle_degree)
    return state.words, state.products, state.derivs, ranks


@pytest.mark.parametrize("name,cap,oracle_degree", [
    ("d9-pair", 3, 3), ("fk3-double", 4, 4), ("four-cycle", 4, 4)])
def test_engine_matches_forced_exact_path(name, cap, oracle_degree,
                                          monkeypatch, caplog):
    module = d9_pair() if name == "d9-pair" else dict(corpus())[name]
    with caplog.at_level(logging.DEBUG, logger="nichols.linalg"):
        certified = engine_data(module, cap, oracle_degree)
    assert fallback_reasons(caplog) == []
    monkeypatch.setattr(linalg, "_eliminate_mod_p", lambda v, track: "forced")
    assert engine_data(module, cap, oracle_degree) == certified


# -- adjoint chains, certified path against the exact one

# blocks, cap, and whether the top chain step is an irreducible module
CHAIN_CASES = {
    "d9-pair": (lambda: [d9_module("v"), d9_module("w")], 3, False),
    # the entries are an exact -2 at cap 4, so the top modules are compared
    "fk3-double": (lambda: [fk3_module("x"), fk3_module("y")], 4, True),
    "s4-zt-w": (lambda: [transposition_module(1, name="zt"),
                         four_cycle_module("w")], 3, False),
    # A2 at q = -1 over Q: every chain ends, a_12 = a_21 = -1
    "a2-minus-one": (lambda: diagonal_modules([["-1", "-1"],
                                               ["1", "-1"]])[2], 3, True),
}


def chain_data(blocks, top_cap, with_top):
    """Each chain at every cap up to top_cap, and the top module of each
    exact one."""
    fam = FamilyM(blocks)
    out = []
    for i, j in ((0, 1), (1, 0)):
        for cap in range(1, top_cap + 1):
            chain = _adjoint_chain(fam, i, j, cap)
            out.append((chain.entry, chain.degree, chain.rows))
            if with_top and isinstance(chain.entry, int):
                top = _top_module(chain)
                out.append((top.generator_columns, fingerprint(top)))
    return out


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_chains_match_forced_exact_path(name, monkeypatch, caplog):
    build, cap, with_top = CHAIN_CASES[name]
    mod_p_blocks = []
    mod_p = linalg._eliminate_mod_p

    def counting(vectors, track):
        mod_p_blocks.append(len(vectors))
        return mod_p(vectors, track)

    monkeypatch.setattr(linalg, "_eliminate_mod_p", counting)
    with caplog.at_level(logging.DEBUG, logger="nichols.linalg"):
        certified = chain_data(build(), cap, with_top)
    assert fallback_reasons(caplog) == []
    assert mod_p_blocks
    monkeypatch.setattr(linalg, "_eliminate_mod_p", lambda v, track: "forced")
    assert chain_data(build(), cap, with_top) == certified


def test_conductor_one_groupoid_matches_forced_exact_path(monkeypatch):
    def explored():
        _, _, blocks = diagonal_modules([["-1", "-1"], ["1", "-1"]])
        graph = explore_groupoid(FamilyM(blocks), cap=6)
        return graph.to_jsonable(), real_roots(graph)

    graph, roots = certified = explored()
    assert len(graph["nodes"]) == 6 and len(roots.roots) == 6
    assert not graph["partial"] and not roots.partial
    monkeypatch.setattr(linalg, "_eliminate_mod_p", lambda v, track: "forced")
    assert explored() == certified


def test_derive_with_probe_builds_one_pair_algebra(monkeypatch, capsys):
    built = []
    init = engine.GradedNicholsState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.GradedNicholsState, "__init__", counting_init)
    path = str(SCENARIOS / "dn_obstruction.json")
    assert cli.main(["derive", path, "--json"]) == 0
    report = capsys.readouterr().out
    # the pair algebra for the expression, and B(M_1) for the probe's chain
    assert [state.module.theta for state in built] == [2, 1]
    # the witness is evaluated on free words, and only its degree-one value
    # is written over the pair algebra's basis
    assert built[0].max_degree() == 1
    assert '"verdict": "a[1,2] <= -2"' in report and '"-v5"' in report
