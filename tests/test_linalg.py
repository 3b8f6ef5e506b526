import random

import pytest

from nichols.cyclotomic import CycloField, mpq
from nichols.linalg import FieldOps, eliminate_block
from dense_reference import DenseSpan, agree

INTEGRAL = (int, type(mpq(1).numerator))


def random_cyclo_rows(field, rng, rows, cols):
    return [[field.element([rng.randint(-3, 3) for _ in range(field.phi)])
             for _ in range(cols)] for _ in range(rows)]


def identity_rows(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def insert_all(field, vectors):
    """Feed dense scalar vectors to one DenseSpan, after checking that
    eliminate_block gives the same results on both of its paths; returns
    the span and what each insert returned."""
    span = DenseSpan(field)
    results = [span.insert(v) for v in vectors]
    sparse = [{c: x for c, x in enumerate(v) if x} for v in vectors]
    assert agree(field, sparse) == [
        (kind, data if kind == "pivot" else
         {o: x for o, x in enumerate(data) if x}) for kind, data in results]
    return span, results


def rank(field, rows):
    return sum(kind == "pivot" for kind, _ in insert_all(field, rows)[1])


def echelon(field, rows):
    """The rows the reference keeps (leading entry 1, zero in the lead
    columns of the rows before) and their lead columns, in row order."""
    span, _ = insert_all(field, rows)
    return span.rows, span.leads


def kernel_from_columns(field, rows):
    """Right kernel of the matrix with these rows: one vector per column
    found dependent on the earlier columns."""
    ncols = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(ncols)]
    _, results = insert_all(field, cols)
    pivots = [j for j, (kind, _) in enumerate(results) if kind == "pivot"]
    basis = []
    for j, (kind, data) in enumerate(results):
        if kind == "combo":
            v = [field.zero()] * ncols
            v[j] = field.one()
            for p, cf in zip(pivots, data):
                v[p] = -cf
            basis.append(v)
    return basis


def combine(coeffs, vectors, field, dim):
    acc = [field.zero()] * dim
    for c, v in zip(coeffs, vectors):
        acc = [a + c * x for a, x in zip(acc, v)]
    return acc


def test_rref_identity():
    f = CycloField(2)
    m = identity_rows(f, 3)
    assert echelon(f, m) == (m, [0, 1, 2])


def test_rref_zero():
    f = CycloField(2)
    zero = [[f.zero()] * 3 for _ in range(2)]
    assert echelon(f, zero) == ([], [])


def test_rref_idempotent():
    f = CycloField(4)
    rng = random.Random(11)
    for _ in range(10):
        red, leads = echelon(f, random_cyclo_rows(f, rng, 4, 5))
        assert echelon(f, red) == (red, leads)


def test_rank_proportional_rows():
    f = CycloField(3)
    z = f.parse("z3^1")
    one = f.one()
    assert rank(f, [[one, one], [z, z]]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_of_transpose(n):
    f = CycloField(n)
    rng = random.Random(40 + n)
    for _ in range(8):
        rows = random_cyclo_rows(f, rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(f, rows) == rank(f, [list(c) for c in zip(*rows)])


def test_kernel_identity_empty():
    f = CycloField(2)
    assert kernel_from_columns(f, identity_rows(f, 3)) == []


def test_kernel_one_by_two():
    f = CycloField(2)
    basis = kernel_from_columns(f, [[f.one(), f.rational(-1)]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != f.zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_vectors_are_exact(n):
    f = CycloField(n)
    rng = random.Random(70 + n)
    for _ in range(8):
        rows = random_cyclo_rows(f, rng, rng.randint(1, 4), rng.randint(1, 6))
        basis = kernel_from_columns(f, rows)
        assert len(basis) == len(rows[0]) - rank(f, rows)
        for v in basis:
            for row in rows:
                acc = f.zero()
                for a, x in zip(row, v):
                    acc = acc + a * x
                assert not acc


def test_solve_in_span_basics():
    f = CycloField(2)
    e1 = [f.one(), f.zero()]
    e2 = [f.zero(), f.one()]
    _, results = insert_all(f, [e1, [f.rational(3), f.zero()]])
    assert results[1] == ("combo", [f.rational(3)])
    assert insert_all(f, [[f.zero(), f.zero()]])[1] == [("combo", [])]
    assert insert_all(f, [e1, e2])[1][1] == ("pivot", 1)


def test_solve_in_span_dependent_basis():
    f = CycloField(2)
    one, zero = f.one(), f.zero()
    v1 = [one, zero]
    v2 = [f.rational(2), zero]  # dependent on v1: not a pivot
    v3 = [zero, one]
    target = [f.rational(5), f.rational(7)]
    _, results = insert_all(f, [v1, v2, v3, target])
    assert [kind for kind, _ in results] == ["pivot", "combo", "pivot", "combo"]
    assert combine(results[3][1], [v1, v3], f, 2) == target


def test_solve_matches_rref_consistency():
    f = CycloField(3)
    rng = random.Random(99)
    for _ in range(10):
        dim, nb = rng.randint(1, 5), rng.randint(1, 4)
        basis = [[f.element([rng.randint(-2, 2) for _ in range(f.phi)])
                  for _ in range(dim)] for _ in range(nb)]
        coeffs = [f.rational(rng.randint(-2, 2)) for _ in range(nb)]
        target = [f.zero()] * dim
        for c, v in zip(coeffs, basis):
            target = [a + c * x for a, x in zip(target, v)]
        _, results = insert_all(f, basis + [target])
        kind, data = results[-1]
        assert kind == "combo"
        pivots = [v for v, (k, _) in zip(basis, results) if k == "pivot"]
        assert combine(data, pivots, f, dim) == target


def test_fast_and_generic_paths_agree():
    # phi(2) = 1 eliminates mod p, and exactly on 1-tuple raws when the
    # mod-p path is refused; a conductor with phi > 1 on the same integer
    # blocks must give the same pivots, combinations and rows
    rng = random.Random(5)
    f1, f3 = CycloField(2), CycloField(3)

    def run(field, grid):
        span, results = insert_all(
            field, [[field.rational(x) for x in row] for row in grid])
        written = [(kind, None if kind == "pivot" else
                    [str(c) for c in data]) for kind, data in results]
        rows = [[str(x) for x in row] for row in span.rows]
        return written, rows

    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert run(f1, grid) == run(f3, grid)


def test_incremental_span_expressions():
    f = CycloField(2)
    vecs = [[1, 2, 0], [2, 4, 0], [0, 0, 1], [3, 6, 5]]
    _, kinds = insert_all(f, [[f.rational(x) for x in v] for v in vecs])
    assert kinds[0] == ("pivot", 0)
    assert kinds[1][0] == "combo"
    assert [str(c) for c in kinds[1][1]] == ["2"]
    assert kinds[2] == ("pivot", 1)
    assert kinds[3][0] == "combo"
    assert [str(c) for c in kinds[3][1]] == ["3", "5"]


def test_exact_combinations_are_canonical():
    # the exact path computes the combination as 4 * (1/2); it must come
    # out in cyclotomic's canonical form, an int, not an integral rational
    f = CycloField(3)
    vectors = [{c: f.rational(x) for c, x in v.items()}
               for v in ({0: 2, 1: 2}, {0: 4, 1: 4})]
    first, (kind, combo) = eliminate_block(f, vectors)
    assert first == ("pivot", 0) and kind == "combo"
    assert combo == {0: f.rational(2)}
    assert combo[0].den == 1
    assert all(isinstance(x, INTEGRAL) for x in combo[0].num)


@pytest.mark.parametrize("n", [1, 12])
def test_field_ops_nonzero_reads_a_raw_pair(n):
    # perfbench/tracer.py counts the nonzero entries of each row that
    # IncrementalSpan.insert takes with span.ops.nonzero; a raw is a
    # (num, den) pair, which is always truthy itself
    f = CycloField(n)
    ops = FieldOps(f)
    assert not ops.nonzero(ops.zero)
    assert not ops.nonzero(f.coefficients(f.zero()))
    for text in ("1", "-1/2", f"z{n}", f"3/4 - z{n}^{f.phi - 1}"):
        assert ops.nonzero(f.coefficients(f.parse(text))), text
