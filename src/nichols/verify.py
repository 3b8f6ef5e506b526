"""Built-in regression matrix over the reference computations.

Each check rebuilds its inputs from scratch, reruns the computation, and
compares against a frozen reference outcome.  Within one run_checks call the
corpus checks share the corpus modules, their degree-4 states and their
symmetrizer ranks, each computed once.  Location keys name the source
result a check certifies.  Checks raise AssertionError on mismatch;
run_checks turns those into FAIL rows so a broken build still reports a
complete matrix.
"""

from __future__ import annotations

from .cyclotomic import CycloField
from .derivations import evaluate_expr, format_element
from .engine import (GradedNicholsState, _candidate_limit, hilbert_series,
                     symmetrizer_ranks)
from .errors import _require
from .groupoid import (
    FamilyM,
    UnboundedAtCap,
    cartan_entry,
    cartan_matrix,
    explore_groupoid,
    gcm_finite_type,
    reflect,
)
from .groups import (
    build_dihedral,
    build_permutation_group,
    conjugacy_class,
    symmetric_group,
)
from .ydmodule import (
    build_M_O_rho,
    diagonal_modules,
    direct_sum,
    one_dim_rep,
)

_Q = CycloField(1)

# transposition and 4-cycle numerations for the order-24 symmetric group,
# one-line images, 1-indexed positions
SIGMA = {
    1: (2, 1, 3, 4), 2: (1, 3, 2, 4), 3: (3, 2, 1, 4),
    4: (4, 2, 3, 1), 5: (1, 4, 3, 2), 6: (1, 2, 4, 3),
}
TAU = {
    1: (2, 3, 4, 1), 2: (4, 1, 2, 3), 3: (2, 4, 1, 3),
    4: (3, 1, 4, 2), 5: (3, 4, 2, 1), 6: (4, 3, 1, 2),
}
H_REPS = {1: TAU[1], 2: SIGMA[5], 3: TAU[6], 4: TAU[5], 5: TAU[3], 6: TAU[4]}
G_REPS = {1: SIGMA[1], 2: SIGMA[3], 3: SIGMA[2],
          4: SIGMA[5], 5: SIGMA[4], 6: TAU[5]}

# coset tables: sigma_i * h_j = h_k * tau_1^eps as (k, eps); sigma_i * g_j and
# tau_i * g_j = g_l * t_p as (l, p) with t_1 = sigma_1, t_2 = sigma_6.  Row 3
# columns 1 and 3 of the first table follow unique coset decomposition, which
# rules out the exponent flip seen in one circulated copy of this table.
TABLE_SIGMA_H = {
    1: [(4, -1), (3, -1), (2, 1), (1, 1), (6, 1), (5, -1)],
    2: [(5, -1), (6, 1), (4, 1), (3, -1), (1, 1), (2, -1)],
    3: [(2, -1), (1, 1), (5, 1), (6, 1), (3, -1), (4, -1)],
    4: [(6, -1), (5, 1), (4, -1), (3, 1), (2, -1), (1, 1)],
    5: [(2, 1), (1, -1), (6, -1), (5, -1), (4, 1), (3, 1)],
    6: [(3, -1), (4, -1), (1, 1), (2, 1), (6, -1), (5, 1)],
}
TABLE_SIGMA_G = {
    1: [(1, 1), (3, 1), (2, 1), (5, 1), (4, 1), (6, 2)],
    2: [(3, 1), (2, 1), (1, 1), (4, 2), (6, 1), (5, 1)],
    3: [(2, 1), (1, 1), (3, 1), (6, 2), (5, 2), (4, 2)],
    4: [(5, 1), (2, 2), (6, 1), (4, 1), (1, 1), (3, 1)],
    5: [(4, 1), (6, 2), (3, 2), (1, 1), (5, 1), (2, 2)],
    6: [(1, 2), (5, 2), (4, 2), (3, 2), (2, 2), (6, 1)],
}
TABLE_TAU_G = {
    1: [(2, 2), (6, 1), (5, 1), (1, 2), (3, 2), (4, 1)],
    2: [(4, 2), (1, 2), (5, 2), (6, 1), (3, 1), (2, 1)],
    3: [(5, 2), (4, 2), (1, 2), (2, 1), (6, 2), (3, 2)],
    4: [(3, 2), (4, 1), (6, 2), (2, 2), (1, 2), (5, 2)],
    5: [(6, 1), (5, 1), (2, 2), (3, 1), (4, 2), (1, 2)],
    6: [(6, 2), (3, 2), (4, 1), (5, 2), (2, 1), (1, 1)],
}


def fk3_module(name="x"):
    g = symmetric_group(3)
    cls = conjugacy_class(g, (2, 1, 3), numeration={
        "members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
        "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    rho = one_dim_rep(g, cls.centralizer, {(2, 1, 3): _Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name)


def d9_module(name="v"):
    g = build_dihedral(9)
    inv2 = pow(2, -1, 9)
    cls = conjugacy_class(g, (1, 0), numeration={
        "members": [[1, i] for i in range(9)],
        "reps": [[0, (-i * inv2) % 9] for i in range(9)]})
    rho = one_dim_rep(g, cls.centralizer, {(1, 0): _Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name, index_base=0)


def transposition_class(group):
    return conjugacy_class(group, SIGMA[1], numeration={
        "members": [list(SIGMA[i]) for i in range(1, 7)],
        "reps": [list(G_REPS[i]) for i in range(1, 7)]})


def four_cycle_class(group):
    return conjugacy_class(group, TAU[1], numeration={
        "members": [list(TAU[i]) for i in range(1, 7)],
        "reps": [list(H_REPS[i]) for i in range(1, 7)]})


def transposition_module(sign_on_t2, name="z"):
    """Rank-one centralizer character with value -1 on (1 2) and the given
    value on (3 4), induced over the transposition class."""
    g = symmetric_group(4)
    cls = transposition_class(g)
    rho = one_dim_rep(g, cls.centralizer, {
        SIGMA[1]: _Q.rational(-1), SIGMA[6]: _Q.rational(sign_on_t2)})
    return build_M_O_rho(g, cls, rho, name=name)


def four_cycle_module(name="u"):
    """Order-two centralizer character on the 4-cycle class."""
    g = symmetric_group(4)
    cls = four_cycle_class(g)
    rho = one_dim_rep(g, cls.centralizer, {TAU[1]: _Q.rational(-1)})
    return build_M_O_rho(g, cls, rho, name=name)


def a2_blocks():
    _, _, blocks = diagonal_modules([["z3^1", "1"], ["z3^2", "z3^1"]])
    return blocks


def zero_pair_blocks():
    _, _, blocks = diagonal_modules([["-1", "1"], ["1", "-1"]])
    return blocks


def truncation_block():
    _, _, blocks = diagonal_modules([["z5^1"]])
    return blocks


def s3_times_s3_family():
    g = build_permutation_group(6, [
        (2, 1, 3, 4, 5, 6), (2, 3, 1, 4, 5, 6),
        (1, 2, 3, 5, 4, 6), (1, 2, 3, 5, 6, 4)])
    cls1 = conjugacy_class(g, (2, 1, 3, 4, 5, 6))
    rho1 = one_dim_rep(g, cls1.centralizer, {
        (2, 1, 3, 4, 5, 6): _Q.rational(-1),
        (1, 2, 3, 5, 4, 6): _Q.rational(1),
        (1, 2, 3, 5, 6, 4): _Q.rational(1)})
    cls2 = conjugacy_class(g, (1, 2, 3, 5, 4, 6))
    rho2 = one_dim_rep(g, cls2.centralizer, {
        (1, 2, 3, 5, 4, 6): _Q.rational(-1),
        (2, 1, 3, 4, 5, 6): _Q.rational(1),
        (2, 3, 1, 4, 5, 6): _Q.rational(1)})
    return FamilyM([build_M_O_rho(g, cls1, rho1, name="x"),
                    build_M_O_rho(g, cls2, rho2, name="y")])


def corpus():
    """The cross-check corpus: six modules of distinct flavors."""
    return [
        ("fk3", fk3_module()),
        ("fk3-double", direct_sum([fk3_module("x"), fk3_module("y")])),
        ("diag-a2", direct_sum(a2_blocks())),
        ("trunc-n5", truncation_block()[0]),
        ("four-cycle", four_cycle_module()),
        ("zero-pair", direct_sum(zero_pair_blocks())),
    ]


# values shared by the checks of one run_checks call; None outside it
_run_memo = None


def _shared(key, compute):
    if _run_memo is None:
        return compute()
    if key not in _run_memo:
        _run_memo[key] = compute()
    return _run_memo[key]


def _corpus():
    return _shared("corpus", corpus)


def _state4(name, module):
    return _shared(("state", name),
                   lambda: GradedNicholsState(module).extend_to(4))


def _ranks(name, module, inverse=False):
    """Symmetrizer ranks of degrees 1..4, from one walk."""
    return _shared(("ranks", name, inverse),
                   lambda: symmetrizer_ranks(module, 4, inverse=inverse))


# -- checks; each returns a detail string or raises AssertionError, through
# _require, so that python -O runs the checks too


def check_fk3_dimension():
    series = hilbert_series(fk3_module(), 8)
    _require(series.finished, "series did not terminate by degree 8")
    _require(list(series.coeffs) == [1, 3, 4, 3, 1], list(series.coeffs))
    _require(series.total == 12, series.total)
    return "dims 1,3,4,3,1 total 12"


def check_s4_dimensions():
    totals = []
    for name, module in (("sgn", transposition_module(-1)),
                         ("sgn-eps", transposition_module(1)),
                         ("chi-minus", four_cycle_module())):
        series = hilbert_series(module, 14)
        _require(series.finished, f"{name} did not terminate by degree 14")
        _require(series.total == 576, (name, series.total))
        totals.append(f"{name}=576")
    return " ".join(totals)


def check_s3_pair_obstruction():
    blocks = [fk3_module("x"), fk3_module("y")]
    state = GradedNicholsState(direct_sum(blocks))
    out = evaluate_expr(state, "(d x3 (d y1 (ad x2 (ad x1 y2))))", 3)
    text = format_element(state, out)
    _require(text == "-x2", text)
    # a[1,2] = -2 exactly: the chain's last nonzero step is degree 3
    cd = cartan_matrix(FamilyM(blocks), cap=4)
    _require(cd.entries == [[2, -2], [-2, 2]], cd.entries)
    _require(not gcm_finite_type(cd).finite, cd.entries)
    return ("witness -x2, adjoint chain alive at degree 3 so a[1,2] <= -2; "
            "at cap 4 the Cartan matrix is [[2, -2], [-2, 2]], not of "
            "finite type")


def check_d9_pair_obstruction():
    w = direct_sum([d9_module("v"), d9_module("w")])
    state = GradedNicholsState(w)
    out = evaluate_expr(state, "(d v6 (d w4 (ad v2 (ad v1 w2))))", 3)
    text = format_element(state, out)
    _require(text == "-v5", text)
    return "witness -v5"


def check_s4_mixed_pair_obstruction():
    blocks = [transposition_module(1, name="zt"), four_cycle_module("w")]
    state = GradedNicholsState(direct_sum(blocks))
    first = evaluate_expr(state, "(d zt1 (d w1 (ad zt2 (ad zt1 w1))))", 3)
    text = format_element(state, first)
    _require(text == "zt2", text)
    second = evaluate_expr(state, "(d w5 (d zt2 (ad w2 (ad w1 zt1))))", 3)
    text = format_element(state, second)
    _require(text == "w2", text)
    fam = FamilyM(blocks)
    _require(cartan_entry(fam, 0, 1, cap=3) == UnboundedAtCap(3))
    _require(cartan_entry(fam, 1, 0, cap=3) == UnboundedAtCap(3))
    return "witnesses zt2 and w2; a[1,2] <= -2 and a[2,1] <= -2"


def check_multiplication_table():
    g = symmetric_group(4)
    ctau = four_cycle_class(g)
    csig = transposition_class(g)
    tau1 = TAU[1]
    t = {1: SIGMA[1], 2: SIGMA[6]}
    cells = 0
    for i in range(1, 7):
        for j in range(1, 7):
            k, gamma = ctau.decompose(SIGMA[i], j - 1)
            want_k, eps = TABLE_SIGMA_H[i][j - 1]
            _require(k == want_k - 1 and
                     gamma == (tau1 if eps == 1 else g.inv(tau1)),
                     ("sigma*h", i, j))
            cells += 1
            k, gamma = csig.decompose(SIGMA[i], j - 1)
            want_k, p = TABLE_SIGMA_G[i][j - 1]
            _require((k, gamma) == (want_k - 1, t[p]), ("sigma*g", i, j))
            cells += 1
            k, gamma = csig.decompose(TAU[i], j - 1)
            want_k, q = TABLE_TAU_G[i][j - 1]
            _require((k, gamma) == (want_k - 1, t[q]), ("tau*g", i, j))
            cells += 1
    _require(cells == 108, cells)
    return "108/108 coset cells match"


def check_symmetrizer_oracle():
    lines = []
    for name, module in _corpus():
        dims = _state4(name, module).dims()
        for n, rank in enumerate(_ranks(name, module), 1):
            engine = dims[n] if n < len(dims) else 0
            _require(engine == rank, (name, n, engine, rank))
        lines.append(name)
    return "ranks match engine dims for n <= 4 on " + ", ".join(lines)


def check_duality_and_inverse_braiding():
    for name, module in _corpus():
        dual_state = GradedNicholsState(module.dual()).extend_to(4)
        dims, dual_dims = _state4(name, module).dims(), dual_state.dims()
        pad = max(len(dims), len(dual_dims))
        dims = list(dims) + [0] * (pad - len(dims))
        dual_dims = list(dual_dims) + [0] * (pad - len(dual_dims))
        _require(dims[:5] == dual_dims[:5], (name, dims, dual_dims))
        _require(_ranks(name, module, inverse=True) == _ranks(name, module),
                 name)
    return "dual and inverse-braiding dims agree for n <= 4 on all six"


def check_reflection_invariance():
    fam = FamilyM(a2_blocks())
    for i in range(2):
        back = reflect(reflect(fam, i, cap=6), i, cap=6)
        _require(back.fingerprints == fam.fingerprints, i)
    graph = explore_groupoid(fam, cap=6, node_limit=32)
    _require(not graph.partial and not graph.has_uncertified_rows())
    totals = []
    for key in graph.nodes:
        series = hilbert_series(graph.nodes[key].family.assembled(), 10)
        _require(series.finished and series.total == 27, (key, series.total))
        totals.append(series.total)
    return f"reflections square to identity; {len(totals)} nodes all total 27"


def check_finite_type_recognition():
    for a12 in range(0, -5, -1):
        for a21 in range(0, -5, -1):
            if (a12 == 0) != (a21 == 0):
                continue
            verdict = gcm_finite_type([[2, a12], [a21, 2]])
            _require(verdict.finite == (a12 * a21 <= 3), (a12, a21))
    for a in range(0, -5, -1):
        # symmetric pairs are finite exactly at 0 and -1
        _require(gcm_finite_type([[2, a], [a, 2]]).finite == (a in (0, -1)),
                 a)
    triangle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    _require(gcm_finite_type(triangle) == (False, None))
    return "2x2 sweep matches the product rule; affine triangle rejected"


def check_zero_cartan_factorization():
    fam = s3_times_s3_family()
    cd = cartan_matrix(fam, cap=4)
    _require(cd.entries == [[2, 0], [0, 2]], cd.entries)
    w = fam.assembled()
    br = w.braiding()
    one = w.field.one()
    d0 = fam.blocks[0].dim
    for a in range(d0):
        for b in range(d0, w.dim):
            _require(br.apply(br.apply({(a, b): one})) == {(a, b): one},
                     (a, b))
    left = hilbert_series(fam.blocks[0], 6)
    right = hilbert_series(fam.blocks[1], 6)
    both = hilbert_series(w, 10)
    _require(left.finished and right.finished and both.finished)
    product = [0] * (len(left.coeffs) + len(right.coeffs) - 1)
    for a, ca in enumerate(left.coeffs):
        for b, cb in enumerate(right.coeffs):
            product[a + b] += ca * cb
    _require(list(both.coeffs) == product, (list(both.coeffs), product))
    _require(both.total == 144, both.total)
    return "entries 0, mixed braiding squares to id, series factors, total 144"


CHECKS = [
    ("fk3-dimension", "Theorem theo:s3", check_fk3_dimension),
    ("s4-dimensions", "Theorem thm:s4", check_s4_dimensions),
    ("s3-pair-obstruction", "Theorem theo:s3, proof", check_s3_pair_obstruction),
    ("d9-pair-obstruction", "Theorem theorem:dn, proof",
     check_d9_pair_obstruction),
    ("s4-mixed-pair-obstruction", "Theorem thm:s4, proof (iii)",
     check_s4_mixed_pair_obstruction),
    ("multiplication-table", "Table 1", check_multiplication_table),
    ("symmetrizer-oracle", "engine cross-check", check_symmetrizer_oracle),
    ("duality-and-inverse-braiding",
     "Proposition prop:duality; Lemma lema:toba-c-menos-uno",
     check_duality_and_inverse_braiding),
    ("reflection-invariance", "Theorem theo:main (2); Corollary cor:dimfin",
     check_reflection_invariance),
    ("finite-type-recognition", "Lemma lema:one-irred-finite",
     check_finite_type_recognition),
    ("zero-cartan-factorization", "Lemma exa:fatqls",
     check_zero_cartan_factorization),
]


def run_checks():
    """Run the matrix; mismatches and crashes become FAIL rows.  A malformed
    NICHOLS_MEM_LIMIT is a configuration fault, not a failed check: it is
    refused before any check runs."""
    global _run_memo
    _candidate_limit()
    rows = []
    _run_memo = {}
    try:
        for name, location, fn in CHECKS:
            try:
                detail = fn()
                rows.append({"check": name, "location": location,
                             "status": "PASS", "detail": detail})
            except Exception as err:
                rows.append({"check": name, "location": location,
                             "status": "FAIL",
                             "detail": repr(err) if not str(err) else str(err)})
    finally:
        _run_memo = None
    return rows
