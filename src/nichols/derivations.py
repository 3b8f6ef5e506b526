"""Quantum differential operators and braided adjoints on free words.

Elements are (degree, {word tuple: scalar}) pairs in T(V); the group acts
on a word letter by letter.  The operators commute with the projection
T(V) -> B(V), so evaluate_expr projects only the value, over the pivot
basis of a GradedNicholsState extended to the value's degree: an element
of degree n >= 1 is zero exactly when all its derivatives are.

Convolution order: the dual pairing reverses tensor slots, so iterating left
derivations f applied first, then g, extracts against g (x) f. Concretely,
applying partial_left along dual indices j_1, ..., j_n (j_1 innermost) to a
degree-n element reads off the coefficient of the tensor word (j_1, ..., j_n)
in its symmetrized lift.
"""

from functools import reduce

from .cyclotomic import _add_scaled, _nonzero, _signed_sum
from .errors import ScenarioError


def element_is_zero(x) -> bool:
    return not any(x[1].values())


def _act(module, t, word, head=()):
    """head times t acting on word: the tensor product of its letters'
    columns."""
    cols = module.action_of(t)
    out = {head: module.field.one()}
    for letter in word:
        out = {w + (a,): c * s for w, c in out.items()
               for a, s in cols[letter].items()}
    return out


def partial_right(module, k: int, x):
    """Right derivation by the k-th dual basis vector:
    d_k(w) = sum over the j with w_j = k of w[:j] (g_k . w[j+1:])."""
    n, coords = x
    out = {}
    for w, c in coords.items():
        for j, letter in enumerate(w):
            if letter == k:
                _add_scaled(out, _act(module, module.coaction[k],
                                      w[j + 1:], w[:j]), c)
    return (max(n - 1, 0), _nonzero(out))


def _left(module, j: int, w):
    """dl_j(v_i b) = delta_ij b + sum_b (g_i . v_b)_j v_i dl_b(b)."""
    if not w:
        return {}
    i = w[0]
    out = {w[1:]: module.field.one()} if i == j else {}
    for b, col in enumerate(module.action_of(module.coaction[i])):
        if j in col:
            _add_scaled(out, {(i,) + u: s for u, s in _left(
                module, b, w[1:]).items()}, col[j])
    return out


def partial_left(module, j: int, x):
    """Left derivation by the j-th dual basis vector."""
    n, coords = x
    out = {}
    for w, c in coords.items():
        _add_scaled(out, _left(module, j, w), c)
    return (max(n - 1, 0), _nonzero(out))


def ad_c(module, i: int, y):
    """Braided adjoint of v_i: ad_c v(y) = vy - (g.y)v."""
    n, coords = y
    out = {}
    for w, c in coords.items():
        _add_scaled(out, {(i,) + w: c})
        _add_scaled(out, {u + (i,): s for u, s in _act(
            module, module.coaction[i], w).items()}, -c)
    return (n + 1, _nonzero(out))


def ad_c_inv(module, i: int, y):
    """Adjoint for the inverse braiding: v y_w - y_w (h_w^{-1} . v) per
    word w of group degree h_w."""
    n, coords = y
    g = module.group
    out = {}
    for w, c in coords.items():
        _add_scaled(out, {(i,) + w: c})
        h = reduce(g.mul, (module.coaction[letter] for letter in w),
                   g.identity)
        _add_scaled(out, _act(module, g.inv(h), (i,), w), -c)
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


def _eval(state, node, cap):
    if isinstance(node, str):
        if node == "1":
            return (0, {(): state.field.one()})
        return (1, {(_label_index(state, node),): state.field.one()})
    if len(node) != 3 or not all(isinstance(x, str) for x in node[:2]):
        raise ScenarioError("expected (op label expr)", got=node)
    op, arg, inner = node
    x = _eval(state, inner, cap)
    if op in ("d", "dl"):
        idx = _label_index(state, arg)
        apply_one = partial_right if op == "d" else partial_left
        return apply_one(state.module, idx, x)
    if op in ("ad", "adinv"):
        idx = _label_index(state, arg)
        n = x[0] + 1
        if n > cap and state.extend_to(cap).past_end(n):
            return (n, {})
        apply_ad = ad_c if op == "ad" else ad_c_inv
        return apply_ad(state.module, idx, x)
    raise ScenarioError("unknown operator", operator=op,
                        expected=["d", "dl", "ad", "adinv"])


def evaluate_expr(state, text: str, cap: int):
    """Evaluate a derivation expression like (d x3 (d y1 (ad x2 (ad x1 y2))))
    on free words, then write its value over the basis of state.

    d / dl are right / left derivations by the dual of the named basis vector;
    ad / adinv are the braided adjoints; the atom 1 is the unit.  cap bounds
    the degrees state is extended to: an adjoint past it is zero once B(V)
    has ended, is evaluated where state already holds its degree, and is
    refused otherwise (GradedNicholsState.past_end).
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
    n, coords = _eval(state, node, cap)
    state.extend_to(n)
    out = {}
    for w, c in coords.items():
        _add_scaled(out, state.normal_form(w), c)
    return (n, _nonzero(out))


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
    return _signed_sum(terms)
