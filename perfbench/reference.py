"""Reference computations for checking benchmark outputs.

Nothing here imports the program under test: each answer is computed from
the scenario's literal inputs with textbook formulas, so a wrong answer from
the program cannot also appear here.
"""

from __future__ import annotations

import re
from math import gcd


def q_integer(n: int) -> list[int]:
    """[n]_t = 1 + t + ... + t^(n-1) as a coefficient list."""
    return [1] * n


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def hilbert_product(factors: list[int]) -> list[int]:
    """Coefficients of the product of [n]_t over n in factors."""
    series = [1]
    for n in factors:
        series = poly_mul(series, q_integer(n))
    return series


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


_ROOT = re.compile(r"^z(\d+)\^(\d+)$")


def _root_literal(text: str):
    """(order, exponent) of a literal 'zN^k', '1' or '-1'."""
    text = text.strip()
    if text == "1":
        return 1, 0
    if text == "-1":
        return 2, 1
    match = _ROOT.match(text)
    if match is None:
        raise ValueError(f"not a root-of-unity literal: {text!r}")
    return int(match.group(1)), int(match.group(2))


def diagonal_exponents(q_rows) -> tuple[int, list[list[int]]]:
    """Write every q_ij as zeta_N^e_ij over one common N."""
    parsed = [[_root_literal(s) for s in row] for row in q_rows]
    n = 1
    for row in parsed:
        for order, _ in row:
            n = _lcm(n, order)
    return n, [[(k * (n // order)) % n for order, k in row] for row in parsed]


def cartan_from_diagonal(q_rows) -> list[list[int]]:
    """a_ij = -min{m : (m+1)_{q_ii} (q_ii^m q_ij q_ji - 1) = 0}.

    (m+1)_q vanishes exactly when q != 1 and q^(m+1) = 1; the second factor
    vanishes when m e_ii + e_ij + e_ji = 0 mod N.
    """
    n, e = diagonal_exponents(q_rows)
    theta = len(e)
    out = [[2] * theta for _ in range(theta)]
    for i in range(theta):
        for j in range(theta):
            if i == j:
                continue
            for m in range(n + 1):
                qint_zero = e[i][i] % n != 0 and ((m + 1) * e[i][i]) % n == 0
                if qint_zero or (m * e[i][i] + e[i][j] + e[j][i]) % n == 0:
                    out[i][j] = -m
                    break
            else:
                raise ValueError(f"no finite Cartan entry at ({i}, {j})")
    return out


def root_closure(cartan) -> set[tuple[int, ...]]:
    """Closure of the simple roots under s_i(beta) = beta - <beta, i> alpha_i,
    where s_i(alpha_j) = alpha_j - a_ij alpha_i."""
    theta = len(cartan)
    simple = [tuple(1 if k == j else 0 for k in range(theta))
              for j in range(theta)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(theta):
                c = sum(cartan[i][j] * beta[j] for j in range(theta))
                image = tuple(b - (c if k == i else 0)
                              for k, b in enumerate(beta))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
        if len(roots) > 10000:
            raise ValueError("root closure is not finite")
    return roots
