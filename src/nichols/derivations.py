"""Quantum differential operators and braided adjoints on a computed truncation.

Elements are (degree, coords) pairs over the graded basis of a
GradedNicholsState, the same convention GradedNicholsState.multiply uses.

Convolution order: the dual pairing reverses tensor slots, so iterating left
derivations f applied first, then g, extracts against g (x) f. Concretely,
applying partial_left along dual indices j_1, ..., j_n (j_1 innermost) to a
degree-n element reads off the coefficient of the tensor word (j_1, ..., j_n)
in its symmetrized lift.
"""

from .cyclotomic import _add_scaled, _nonzero
from .errors import DegreeRangeError, ScenarioError


def element_is_zero(x) -> bool:
    return not any(x[1].values())


def partial_right(state, k: int, x):
    """Right derivation by the k-th dual basis vector."""
    n, coords = x
    if n > state.max_degree():
        raise DegreeRangeError("element degree beyond the computed range",
                               degree=n, computed=state.max_degree())
    if n == 0:
        return (0, {})
    return (n - 1, state.derivative(n, coords, k))


def partial_left(state, j: int, x):
    """Left derivation by the j-th dual basis vector."""
    n, coords = x
    if n > state.max_degree():
        raise DegreeRangeError("element degree beyond the computed range",
                               degree=n, computed=state.max_degree())
    if n == 0:
        return (0, {})
    return (n - 1, state.left_derivative(n, coords, j))


def _as_degree_one(state, v):
    if isinstance(v, int):
        return {v: state.field.one()}
    deg, coords = v
    if deg != 1 and coords:
        raise DegreeRangeError("adjoint argument must have degree one",
                               degree=deg)
    return coords


def ad_c(state, v, y):
    """Braided adjoint of a degree-one element: ad_c v(y) = vy - (g.y)v."""
    vc = _as_degree_one(state, v)
    n, yc = y
    one = state.field.one()
    out = {}
    for i, si in vc.items():
        _add_scaled(out, state.left_multiply(i, n, yc), si)
        acted = state.act(n, state.module.coaction[i], yc)
        _add_scaled(out, state.multiply((n, acted), (1, {i: one}))[1], -si)
    return (n + 1, _nonzero(out))


def ad_c_inv(state, v, y):
    """Adjoint for the inverse braiding: v y_m - y_m (h_m^{-1} . v) per word."""
    vc = _as_degree_one(state, v)
    n, yc = y
    group = state.module.group
    one = state.field.one()
    out = {}
    for i, si in vc.items():
        _add_scaled(out, state.left_multiply(i, n, yc), si)
        for m, cm in yc.items():
            hinv = group.inv(state.hdegrees[n][m])
            hv = state.act(1, hinv, {i: one})
            _add_scaled(out, state.multiply((n, {m: one}), (1, hv))[1],
                        -si * cm)
    return (n + 1, _nonzero(out))


# -- tiny s-expression surface for regression scripts


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse(tokens, pos):
    if pos >= len(tokens):
        raise ScenarioError("unexpected end of expression")
    tok = tokens[pos]
    if tok == ")":
        raise ScenarioError("unexpected closing parenthesis", position=pos)
    if tok != "(":
        return tok, pos + 1
    items = []
    pos += 1
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse(tokens, pos)
        items.append(node)
    if pos >= len(tokens):
        raise ScenarioError("unbalanced parentheses")
    return items, pos + 1


def _label_index(state, name):
    idx = state.module.label_index.get(name)
    if idx is None:
        raise ScenarioError("unknown basis label", label=name,
                            labels=state.module.basis_labels)
    return idx


def _eval(state, node):
    if isinstance(node, str):
        if node == "1":
            return (0, {0: state.field.one()})
        return (1, {_label_index(state, node): state.field.one()})
    if len(node) != 3 or not all(isinstance(x, str) for x in node[:2]):
        raise ScenarioError("expected (op label expr)", got=node)
    op, arg, inner = node
    x = _eval(state, inner)
    if op in ("d", "dl"):
        idx = _label_index(state, arg)
        apply_one = partial_right if op == "d" else partial_left
        return apply_one(state, idx, x)
    if op in ("ad", "adinv"):
        idx = _label_index(state, arg)
        apply_ad = ad_c if op == "ad" else ad_c_inv
        return apply_ad(state, idx, x)
    raise ScenarioError("unknown operator", operator=op,
                        expected=["d", "dl", "ad", "adinv"])


def evaluate_expr(state, text: str):
    """Evaluate a derivation expression like (d x3 (d y1 (ad x2 (ad x1 y2)))).

    d / dl are right / left derivations by the dual of the named basis vector;
    ad / adinv are the braided adjoints; the atom 1 is the unit.
    """
    if not isinstance(text, str):
        raise ScenarioError("expression must be a string", got=text)
    tokens = _tokenize(text)
    if not tokens:
        raise ScenarioError("empty expression")
    node, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ScenarioError("trailing tokens after expression",
                            trailing=tokens[pos:])
    return _eval(state, node)


def format_element(state, x) -> str:
    """Human-readable normal form, like '-x2*x3 + (z3^1)*x1*x1'."""
    n, coords = x
    terms = []
    for m in sorted(coords):
        v = coords[m]
        if not v:
            continue
        word = state.words[n][m]
        label = "*".join(state.module.basis_labels[i] for i in word) if word \
            else "1"
        s = str(v)
        if s == "1":
            terms.append(label)
        elif s == "-1":
            terms.append("-" + label)
        else:
            terms.append(f"({s})*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
