"""Generators for the triple-system families, with fixed vertex layouts.

Each generator documents its label layout; two calls with equal parameters
produce identical systems, so serialized output is stable.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .core import TripleSystem, build_system
from .errors import OutOfRange

__all__ = [
    "bose_skolem",
    "spreading_6p3",
    "crowning",
    "cayley_latin",
    "from_latin_square",
    "star_expansion",
]


# Miller-Rabin on the primes up to 41 decides every p below the smallest
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; OutOfRange from _PRIME_BOUND (about
    3.3e24) on, where the bases no longer decide."""
    if p >= _PRIME_BOUND:
        raise OutOfRange(f"primality is decided below {_PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for a in _PRIME_BASES:  # past this loop, p is odd and above every base
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        # p passes base a when a^d is 1 or some a^(d 2^r), r < s, is -1
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _require_odd_prime(p: int, what: str) -> int:
    p = operator.index(p)
    if p < 3 or p % 2 == 0 or not _is_prime(p):
        raise OutOfRange(f"{what} requires an odd prime, got {p}")
    return p


def _halving(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of Z_q, q odd, and k = (i+j)/2 in Z_q, as int32.

    int32 holds every label of a system whose rows fit in memory: a label
    past it needs q above 3 * 10^8, so over 10^17 rows.  The product
    (i+j)(q+1)/2 passes int32 from q = 46,341, so it is taken in int64.
    """
    i, j = np.triu_indices(q, 1)
    k = np.multiply(i + j, (q + 1) // 2, dtype=np.int64) % q
    return i.astype(np.int32), j.astype(np.int32), k.astype(np.int32)


def bose_skolem(q: int) -> TripleSystem:
    """Steiner triple system on 3q vertices for odd q >= 3.

    Layout: a_i -> i, b_i -> q+i, c_i -> 2q+i for i in Z_q.  Triples are
    {a_i, b_i, c_i} plus {a_i, a_j, b_k}, {b_i, b_j, c_k}, {c_i, c_j, a_k}
    where k = (i+j)/2 in Z_q, i.e. (i+j)*(q+1)/2 mod q.  Primality of q is
    not needed; only oddness makes halving well-defined.
    """
    q = operator.index(q)
    if q % 2 == 0:
        raise OutOfRange(f"modulus must be odd, got {q}")
    if q < 3:
        raise OutOfRange(f"modulus must be at least 3, got {q}")
    i, j, k = _halving(q)
    a = np.arange(q, dtype=np.int32)
    rows = np.hstack(
        [
            (a, q + a, 2 * q + a),
            (i, j, q + k),
            (q + i, q + j, 2 * q + k),
            (2 * q + i, 2 * q + j, k),
        ]
    ).T
    return build_system(3 * q, rows)


def spreading_6p3(p: int) -> TripleSystem:
    """Spreading system on 6p+3 vertices for an odd prime p.

    Six classes: A = {a_0..a_{p-1}, a}, B, C (each of size p+1) and
    A' = {alpha_0..alpha_{p-1}}, B', C' (each of size p).  Layout:
    a_i -> i, a -> p, b_i -> p+1+i, b -> 2p+1, c_i -> 2p+2+i, c -> 3p+2,
    alpha_i -> 3p+3+i, beta_i -> 4p+3+i, gamma_i -> 5p+3+i.

    The rotation rho maps A -> B -> C -> A on the 3p+3 unprimed labels
    (v -> v + p + 1 mod 3p + 3) and A' -> B' -> C' -> A' on the 3p primed
    ones (alpha_i -> beta_i -> gamma_i -> alpha_i).  Triple families (all
    indices mod p; i != j where stated), black, brown, red and blue given
    for class A and taken again under rho and rho^2:
      black:  {a, a_j, beta_j}, {a_i, a_{2j-i}, beta_j};
      brown:  {alpha_i, alpha_{2j-i}, b_j};
      red:    {a, alpha_j, b_j};
      blue:   {a, gamma_j, c_j};
      orange: {a_i, b_j, c_{i+j}}, {alpha_i, beta_j, gamma_{i+j+1}},
              and {a, b, c}, which are not rho-invariant.

    Total count is 5p^2 + 6p + 1.
    """
    p = _require_odd_prime(p, "spreading_6p3")
    b, c, alpha, beta, gamma = p + 1, 2 * p + 2, 3 * p + 3, 4 * p + 3, 5 * p + 3
    # i and 2j - i give one triple, so the black and brown triples off the
    # hub are those of the pairs i < k in Z_p, with j = (i+k)/2
    i, k, j = _halving(p)
    a = np.arange(p, dtype=np.int32)
    hub = np.full(p, p, dtype=np.int32)
    rows = np.hstack(
        [
            (hub, a, beta + a),
            (hub, alpha + a, b + a),
            (hub, gamma + a, c + a),
            (i, k, beta + j),
            (alpha + i, alpha + k, b + j),
        ]
    ).T
    v = np.arange(alpha, dtype=np.int32)
    rho = np.concatenate([(v + b) % alpha, alpha + (v[: 3 * p] + p) % (3 * p)])
    i, j = np.repeat(a, p), np.tile(a, p)
    orange = np.hstack(
        [
            (i, b + j, c + (i + j) % p),
            (alpha + i, beta + j, gamma + (i + j + 1) % p),
            np.array([[p], [2 * p + 1], [3 * p + 2]], dtype=np.int32),
        ]
    ).T
    once = rho[rows]
    return build_system(6 * p + 3, np.concatenate([rows, once, rho[once], orange]))


def crowning(system: TripleSystem, keep: Iterable[int] | None = None) -> TripleSystem:
    """Attach a fresh pendant vertex to uncovered edges.

    Uncovered edges are indexed in lexicographic order; keep selects by
    index (default: all).  Fresh vertices are labeled n, n+1, ... following
    that edge order, each forming one new triple with its edge.  When the
    input is spreading, the output is weakly spreading, for any keep set.
    """
    edges = np.array(system.uncovered_edges(), dtype=np.intp).reshape(-1, 2)
    if keep is not None:
        chosen = sorted({operator.index(i) for i in keep})
        for i in chosen:
            if i < 0 or i >= len(edges):
                raise OutOfRange(
                    f"keep index {i} outside [0, {len(edges)}) uncovered edges"
                )
        edges = edges[chosen]
    fresh = system.n + np.arange(len(edges))
    rows = np.concatenate([system.triple_array, np.column_stack([edges, fresh])])
    return build_system(system.n + len(edges), rows)


def cayley_latin(p: int) -> TripleSystem:
    """Tripartite system of the Z_p Cayley table, p an odd prime.

    Rows are 0..p-1, columns p..2p-1, symbols 2p..3p-1; the p^2 triples are
    {i, p+j, 2p+((i+j) mod p)}.  Prime order keeps the table free of
    subsquares, which is what the weak-spreading property rests on.
    """
    p = _require_odd_prime(p, "cayley_latin")
    i, j = np.divmod(np.arange(p * p), p)  # row by row: canonical, so no sort
    return build_system(3 * p, np.column_stack([i, p + j, 2 * p + (i + j) % p]))


def from_latin_square(square: Sequence[Sequence[int]]) -> TripleSystem:
    """Triple system induced by an arbitrary Latin square.

    square[i][j] is the symbol (0-based) in row i, column j: the triple
    {i, k+j, 2k+square[i][j]} for a square of order k, the layout of
    cayley_latin.  A row whose length is not k, or a symbol outside
    [0, k), raises OutOfRange naming the row (and column).  Linearity is
    checked by build_system; weak spreading should be checked, not
    assumed, since the square may contain subsquares.
    """
    k = len(square)
    symbols = np.empty((k, k), dtype=np.intp)
    for i, row in enumerate(square):
        if len(row) != k:
            raise OutOfRange(f"row {i} has {len(row)} entries, expected {k}")
        for j, symbol in enumerate(map(operator.index, row)):
            if not 0 <= symbol < k:
                raise OutOfRange(
                    f"symbol {symbol} at row {i}, column {j} outside [0, {k})"
                )
            symbols[i, j] = symbol
    # row by row, then column by column: canonical rows, which need no sort
    i, j = np.divmod(np.arange(k * k), k)
    rows = np.column_stack([i, k + j, 2 * k + symbols.ravel()])
    return build_system(3 * k, rows)


def star_expansion(m: int) -> TripleSystem:
    """One triple per edge of the complete graph K_m, m > 3.

    Base vertices are 0..m-1; the edge (i, j), i < j, gets a private vertex
    m + rank(i, j) in lexicographic pair order.  Every pair of triples
    generates at least one further triple, yet the system is not weakly
    spreading.
    """
    m = operator.index(m)
    if m <= 3:
        raise OutOfRange(f"star expansion needs a base of more than 3, got {m}")
    i, j = np.triu_indices(m, 1)  # lexicographic: canonical rows, so no sort
    rows = np.column_stack([i, j, m + np.arange(len(i))])
    return build_system(m + len(i), rows)
