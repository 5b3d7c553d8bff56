"""Shared test utilities: random system generation, naive reference
implementations and a traced-memory probe.

The naive functions deliberately avoid the pair index TripleSystem builds
and every package-side shortcut: they scan the triple list directly, or
validate with a plain dictionary, so they form an independent route against
which the optimized operators are compared.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, count

from hypothesis import strategies as st

from ltspread import (
    DegenerateTriple,
    DuplicatePairCoverage,
    ParseError,
    TripleSystem,
    VertexOutOfRange,
    build_system,
)


def random_linear_system(rng: random.Random, n: int, fill: float = 0.7) -> TripleSystem:
    """Greedy random linear system on n vertices.

    Shuffles all 3-subsets and keeps each one whose pairs are still free,
    stopping at a random fraction of the achievable count.
    """
    cands = list(combinations(range(n), 3))
    rng.shuffle(cands)
    covered: set[tuple[int, int]] = set()
    triples = []
    budget = max(1, int(fill * rng.random() * n * (n - 1) / 6))
    for x, y, z in cands:
        pairs = ((x, y), (x, z), (y, z))
        if all(p not in covered for p in pairs):
            triples.append((x, y, z))
            covered.update(pairs)
            if len(triples) >= budget:
                break
    return build_system(n, triples)


random_systems = st.one_of(
    st.builds(
        lambda seed, n, fill: random_linear_system(random.Random(seed), n, fill),
        st.integers(0, 2**32 - 1),
        st.integers(3, 11),
        st.sampled_from([0.5, 1.0, 1.5]),
    ),
    st.builds(build_system, st.integers(3, 9)),  # no triples at all
)


def traced_peak(call):
    """The result of call() and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def first_defect_naive(n: int, triples) -> Exception | None:
    """The error build_system(n, triples) raises, or None when it raises
    none, for n >= 0 and triples of three integers each.

    The first triple in input order with a repeated vertex is the defect.
    Failing that, one pass over the sorted, deduplicated triples with a
    pair -> third vertex dictionary: the first triple with a vertex outside
    [0, n) or a pair already covered by an earlier triple is the defect.
    """
    for t in triples:
        if len(set(t)) < 3:
            return DegenerateTriple(f"repeated vertex in triple {tuple(t)!r}")
    table: dict[tuple[int, int], int] = {}
    for t in sorted({tuple(sorted(t)) for t in triples}):
        x, y, z = t
        if x < 0 or z >= n:
            v = x if x < 0 else z
            return VertexOutOfRange(f"vertex {v} outside [0, {n}) in triple {t}", t)
        for pair, third in (((x, y), z), ((x, z), y), ((y, z), x)):
            if pair in table:
                earlier = tuple(sorted(pair + (table[pair],)))
                return DuplicatePairCoverage(pair, (earlier, t))
            table[pair] = third
    return None


def parse_naive(text: str) -> TripleSystem:
    """The .lts parser read one line at a time: each triple line is split,
    checked and converted to a tuple in turn, and build_system gets the
    list of tuples.  The same grammar, messages and line numbers as
    ltspread.cli.parse_system."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            rows.append((lineno, stripped))
    if not rows:
        raise ParseError("empty input: missing header", line=1)
    lineno, header = rows[0]
    if header != "lts 1":
        raise ParseError(f"unsupported header {header!r}, expected 'lts 1'", lineno)
    if len(rows) < 2:
        raise ParseError("missing counts line", line=lineno)
    lineno, counts = rows[1]
    parts = counts.split()
    if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
        raise ParseError(f"counts line must be two integers, got {counts!r}", lineno)
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise ParseError(f"counts must be non-negative, got {counts!r}", lineno)
    body = rows[2:]
    if len(body) != m:
        raise ParseError(
            f"expected {m} triple lines, found {len(body)}",
            line=body[-1][0] if body else lineno,
        )
    triples: list[tuple[int, int, int]] = []
    previous: tuple[int, int, int] | None = None
    for lineno, row in body:
        parts = row.split()
        if len(parts) != 3 or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise ParseError(f"triple line must be three integers, got {row!r}", lineno)
        t = (int(parts[0]), int(parts[1]), int(parts[2]))
        if not t[0] < t[1] < t[2]:
            raise ParseError(f"triple {t} is not strictly increasing", lineno)
        if previous is not None and t <= previous:
            raise ParseError(f"triple {t} breaks lexicographic line order", lineno)
        previous = t
        triples.append(t)

    def line_of(t: tuple[int, int, int]) -> int:
        # triples is sorted, and triples[i] came from body[i]
        return body[bisect_left(triples, t)][0]

    try:
        return build_system(n, triples)
    except VertexOutOfRange as exc:
        if (t := exc.triple) is None:
            raise  # the vertex count itself is out of range
        message = f"line {line_of(t)}: vertex outside [0, {n}) in {t}"
        raise VertexOutOfRange(message, t) from None
    except DuplicatePairCoverage as exc:
        earlier, later = exc.triples
        message = (
            f"line {line_of(later)}: pair {exc.pair} already covered on line "
            f"{line_of(earlier)}"
        )
        raise DuplicatePairCoverage(exc.pair, exc.triples, message) from None


def serialize_naive(system: TripleSystem) -> str:
    """The .lts text written one triple at a time, with an f-string each."""
    lines = ["lts 1", f"{system.n} {len(system.triples)}"]
    lines.extend(f"{x} {y} {z}" for x, y, z in system.triples)
    return "\n".join(lines) + "\n"


def neighbourhood_naive(system: TripleSystem, subset) -> set[int]:
    s = set(subset)
    out: set[int] = set()
    for t in system.triples:
        for a, b, c in ((t[0], t[1], t[2]), (t[0], t[2], t[1]), (t[1], t[2], t[0])):
            if a in s and b in s and c not in s:
                out.add(c)
    return out


def closure_naive(system: TripleSystem, subset) -> set[int]:
    cur = set(subset)
    while True:
        grow = neighbourhood_naive(system, cur)
        if not grow:
            return cur
        cur |= grow


def spreading_naive(system: TripleSystem):
    """Brute-force spreading check over all non-triple subsets of size >= 3,
    size-ascending then lexicographic; returns (holds, witness)."""
    n = system.n
    full = set(range(n))
    tset = set(system.triples)
    for k in range(3, n + 1):
        for cand in combinations(range(n), k):
            if k == 3 and cand in tset:
                continue
            if closure_naive(system, cand) != full:
                return False, frozenset(cand)
    return True, None


def weakly_spreading_naive(system: TripleSystem):
    full = set(range(system.n))
    for t1, t2 in combinations(system.triples, 2):
        if closure_naive(system, set(t1) | set(t2)) != full:
            return False, (t1, t2)
    return True, None


def first_failure_count(candidates, witness) -> int:
    """checked_count of a scan over candidates that stops at witness: its
    1-based position, or the number of candidates when witness is None."""
    count = 0
    for count, cand in enumerate(candidates, start=1):
        if cand == witness:
            break
    return count


def strongly_connected_naive(system: TripleSystem):
    """Direct partition-based check: every side U with |U| >= 4 of a proper
    partition must be met by some triple in exactly two vertices."""
    n = system.n
    for k in range(4, n):
        for cand in combinations(range(n), k):
            side = set(cand)
            if not any(len(side.intersection(t)) == 2 for t in system.triples):
                return False, frozenset(cand)
    return True, None


def expander_naive(system: TripleSystem, max_size: int | None = None):
    """Pure-python mirror of expander_deficiency; practical for n <= 15."""
    n = system.n
    if max_size is None:
        max_size = n // 2
    tset = {frozenset(t) for t in system.triples}
    per_size: dict[int, int] = {}
    best = None  # (deficiency, size, tuple)
    min_ratio = None
    for k in range(1, max_size + 1):
        size_min = None
        for cand in combinations(range(n), k):
            nb = len(neighbourhood_naive(system, cand))
            if size_min is None or nb < size_min:
                size_min = nb
            deficiency = nb - (k - 3)
            if best is None or deficiency < best[0]:
                best = (deficiency, k, cand)
            if k >= 3 and frozenset(cand) not in tset:
                ratio = Fraction(nb, k)
                if min_ratio is None or ratio < min_ratio:
                    min_ratio = ratio
        per_size[k] = size_min
    return {
        "min_deficiency": best[0],
        "per_size_min_neighbourhood": per_size,
        "worst_set": frozenset(best[2]),
        "min_ratio": min_ratio,
    }


def is_valid_ordering(sequence) -> bool:
    """Overlap conditions: T2 shares >= 1 vertex with T1, and every later
    triple meets the union of its predecessors in >= 2 vertices."""
    if len(sequence) <= 1:
        return True
    covered = set(sequence[0])
    for idx, t in enumerate(sequence[1:], start=2):
        need = 1 if idx == 2 else 2
        if len(covered.intersection(t)) < need:
            return False
        covered.update(t)
    return True


def ordering_naive(system: TripleSystem):
    """The lexicographically least index permutation of the triples whose
    ordering passes is_valid_ordering, as a tuple of triples, or None when
    no permutation does.  The overlap conditions hold for an ordering
    exactly when they hold for each of its prefixes, so a depth-first search
    over index prefixes in lexicographic order, cut at the first prefix that
    is_valid_ordering rejects, meets the passing permutations in the order
    that trying every permutation in turn would.  The search keeps its own
    stack: tried[d] is the last index tried at depth d."""
    tris = system.triples
    order, tried = [], [-1]
    while len(order) < len(tris):
        prefix, used = [tris[i] for i in order], set(order)
        nxt = next(
            (
                i
                for i in range(tried[-1] + 1, len(tris))
                if i not in used and is_valid_ordering(prefix + [tris[i]])
            ),
            None,
        )
        if nxt is None:  # no index extends this prefix: step back
            tried.pop()
            if not order:
                return None
            order.pop()
            continue
        tried[-1] = nxt
        order.append(nxt)
        tried.append(-1)
    return tuple(tris[i] for i in order)


def tau_slope_naive(z: Fraction) -> Fraction:
    """N'D - ND' at z in exact rationals, by the product rule from
    N = z(1-z)(3-2z) and D = 4z^2 - 6z + 3: its sign is the sign of the
    slope of tau_objective = N/D."""
    a, b, c = z, 1 - z, 3 - 2 * z  # N = abc; a' = 1, b' = -1, c' = -2
    n = a * b * c
    n_slope = b * c - a * c - 2 * a * b
    d = 4 * z * z - 6 * z + 3
    d_slope = 8 * z - 6
    return n_slope * d - n * d_slope


def normalized_orderings_naive(n: int, m: int):
    """Every normalized ordering of m triples spanning range(n), as
    placement tuples, in the order a plain recursion over all 3-subsets
    at every step finds them: the first triple is (0, 1, 2), every triple
    meets each earlier one in at most one vertex, the overlap conditions
    of is_valid_ordering hold, and the vertices a triple introduces are
    the smallest unused labels.
    """
    all_triples = list(combinations(range(n), 3))

    def orderings(seq: list, used: set):
        if len(seq) == m:
            if used == set(range(n)):
                yield tuple(seq)
            return
        for t in all_triples:
            if not seq and t != (0, 1, 2):
                continue
            if any(len(set(t).intersection(s)) > 1 for s in seq):
                continue
            fresh = sorted(set(t) - used)
            if fresh != list(range(len(used), len(used) + len(fresh))):
                continue
            if not is_valid_ordering(seq + [t]):
                continue
            yield from orderings(seq + [t], used | set(t))

    yield from orderings([], set())


def min_weakly_spreading_naive(n: int):
    """Smallest m with a weakly spreading normalized ordering of m triples
    spanning range(n), and the least such ordering as a placement tuple.

    Levels of normalized_orderings_naive are scanned from m = 1, every
    passing ordering of a level is collected, and the least one is
    returned, so neither the n - 3 floor nor the emission order is assumed.
    """
    for m in count(1):
        passing = [
            seq
            for seq in normalized_orderings_naive(n, m)
            if weakly_spreading_naive(build_system(n, seq))[0]
        ]
        if passing:
            return m, min(passing)


# -- per-triple generators --------------------------------------------------
# The constructions as they were first written: one tuple per triple, each
# normalised by build_system.  The array-native generators must equal them.


def bose_skolem_naive(q: int) -> TripleSystem:
    half = (q + 1) // 2
    triples = [(i, q + i, 2 * q + i) for i in range(q)]
    for i, j in combinations(range(q), 2):
        k = (i + j) * half % q
        triples.append((i, j, q + k))
        triples.append((q + i, q + j, 2 * q + k))
        triples.append((2 * q + i, 2 * q + j, k))
    return build_system(3 * q, triples)


def spreading_6p3_naive(p: int) -> TripleSystem:
    """Every black and brown triple twice, as i and 2j - i give it."""
    b, c, alpha, beta, gamma = p + 1, 2 * p + 2, 3 * p + 3, 4 * p + 3, 5 * p + 3
    triples = []
    for j in range(p):
        triples += [(p, j, beta + j), (p, alpha + j, b + j), (p, gamma + j, c + j)]
        for i in range(p):
            if i != j:
                k = (2 * j - i) % p
                triples += [(i, k, beta + j), (alpha + i, alpha + k, b + j)]
    rho = [(v + p + 1) % alpha for v in range(alpha)]
    rho += [alpha + (v + p) % (3 * p) for v in range(3 * p)]
    once = [(rho[x], rho[y], rho[z]) for x, y, z in triples]
    triples += once + [(rho[x], rho[y], rho[z]) for x, y, z in once]
    for i in range(p):
        for j in range(p):
            triples.append((i, b + j, c + (i + j) % p))
            triples.append((alpha + i, beta + j, gamma + (i + j + 1) % p))
    triples.append((p, 2 * p + 1, 3 * p + 2))
    return build_system(6 * p + 3, triples)


def crowning_naive(system: TripleSystem, keep=None) -> TripleSystem:
    edges = system.uncovered_edges()
    chosen = range(len(edges)) if keep is None else sorted(set(keep))
    triples = list(system.triples)
    for fresh, i in enumerate(chosen, system.n):
        triples.append((*edges[i], fresh))
    return build_system(system.n + len(chosen), triples)


def from_latin_square_naive(square) -> TripleSystem:
    k = len(square)
    triples = [
        (i, k + j, 2 * k + symbol)
        for i, row in enumerate(square)
        for j, symbol in enumerate(row)
    ]
    return build_system(3 * k, triples)


def star_expansion_naive(m: int) -> TripleSystem:
    triples = [(i, j, m + r) for r, (i, j) in enumerate(combinations(range(m), 2))]
    return build_system(m + m * (m - 1) // 2, triples)


def unrank_naive(n: int, k: int, rank: int) -> list[int]:
    """The k-subset of range(n) of lexicographic rank rank, in Python ints:
    C(n, k) - 1 - rank = sum_j C(c_j, k - j), each c_j the largest c that
    fits, found by bisection; the subset is {n - 1 - c_j}."""
    left, row = math.comb(n, k) - 1 - rank, []
    for j in range(k):
        c = bisect_right(range(n), left, key=lambda c: math.comb(c, k - j)) - 1
        left -= math.comb(c, k - j)
        row.append(n - 1 - c)
    return row
