"""Minimum weakly spreading systems at small orders, and ordering
certificates.

The search enumerates candidate systems in a normalized form: the first
triple is {0,1,2}, the second shares exactly one vertex with it, every
later triple meets the union of the earlier ones in at least two vertices,
and fresh vertices always take the smallest unused labels.  Every weakly
spreading system admits such an ordering of its triples, and one led by
intersecting T1, T2 exists exactly when the closure of T1 | T2 holds the
whole span (see ordering_witness), so up to relabeling the enumeration
covers them all; within it, a system of m triples spans at most m+3
vertices, which is what makes small minima exhaustively checkable.  One
step rule builds every such ordering: each triple is a 3-subset of the
vertices used so far plus the next fresh one (the next two for the
second triple) whose three pairs are all uncovered.

So every candidate is linear, and the search checks candidates without
building them.  One generator per level (_level) places them, counts the
placements and cuts them into chunks of 1, 2, 4, 8, ... candidates, up
to as many as one kernel block holds seeds for.  A level's candidates
all hold m triples, so a chunk is one (K, m, 3) array, and it closes in
one kernel call, one bit per (candidate, seed) pair, as one system on K
disjoint copies of range(n) (see closure._weakly_spreading_each).  Only
the first passing candidate becomes a TripleSystem.  Each candidate
carries the node count at which it was placed, so reading ahead leaves
nodes_explored as it was, and a chunk cut short by the budget is checked
before the budget error is raised.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations, count
from typing import Iterator

import numpy as np

from .closure import _BLOCK, _weakly_spreading_each, closure
from .core import Triple, TripleSystem, build_system
from .errors import BudgetExceeded, OutOfRange

__all__ = ["SearchResult", "min_weakly_spreading", "ordering_witness"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of min_weakly_spreading.

    exhaustive_below is true when every triple count below `minimum` that
    could arithmetically span n vertices was exhaustively refuted by the
    search itself, rather than skipped on the strength of the n-3 lower
    bound.
    """

    n: int
    minimum: int
    witness: TripleSystem
    nodes_explored: int
    exhaustive_below: bool


def _level(
    n: int, m: int, nodes: int, budget: int
) -> Iterator[tuple[list[tuple[tuple[Triple, ...], int]], int]]:
    """The normalized m-triple placements spanning [0, n), in lexicographic
    order, in chunks of 1, 2, 4, ... up to as many as one kernel block
    holds seeds for.

    After (0,1,2), each step tries in lexicographic order every 3-subset of
    the vertices used so far plus the next fresh one (the next two for the
    second triple) with all three pairs uncovered; a triple containing a
    fresh vertex introduces it.  Each call of the DFS receives its whole
    state: the placement, its covered pairs as the bits x*n + y of one int,
    and the next fresh vertex.  Distinct DFS paths are distinct placements,
    so nothing repeats.

    Yields (chunk, nodes), nodes counting placements on from the argument:
    each candidate of a chunk comes with the count at which it was placed,
    and the last item is the level's final chunk, which may be empty, with
    the count at the end of the level.  The node past budget raises
    BudgetExceeded once the chunk being filled has come out, as the scan
    would have checked those candidates before it placed more.
    """
    cap = _BLOCK // max(1, math.comb(m, 2))  # a chunk's seeds fill one block

    def extend(
        placed: tuple[Triple, ...], covered: int, u: int
    ) -> Iterator[tuple[Triple, ...]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"search used {nodes} nodes, over its budget of {budget}, "
                f"while scanning {m}-triple systems"
            )
        k = len(placed)
        if k == m:
            if u == n:
                yield placed
            return
        fresh = 2 if k == 1 else 1  # T2 adds two fresh vertices, later triples one
        if u + fresh - 1 + (m - k) < n:
            return  # not enough steps left to span
        for x, y, z in combinations(range(min(u + fresh, n)), 3):
            pairs = 1 << (x * n + y) | 1 << (x * n + z) | 1 << (y * n + z)
            if not covered & pairs:
                yield from extend(placed + ((x, y, z),), covered | pairs, max(u, z + 1))

    chunk: list[tuple[tuple[Triple, ...], int]] = []
    size = 1
    try:
        for cand in extend(((0, 1, 2),), 1 << 1 | 1 << 2 | 1 << (n + 2), 3):
            chunk.append((cand, nodes))
            if len(chunk) == size:
                yield chunk, nodes
                chunk, size = [], min(2 * size, cap)
    except BudgetExceeded:
        yield chunk, nodes
        raise
    yield chunk, nodes


def min_weakly_spreading(
    n: int, start_at: int | None = None, budget: int = 50_000_000
) -> SearchResult:
    """Smallest number of triples in a weakly spreading system spanning n
    vertices, for 5 <= n <= 12.

    Scans triple counts m = start_at, start_at+1, ... (default start is the
    proven floor n-3).  Each level's candidates come in lexicographic order
    of their placements, so the first passing one is the lexicographically
    least and is reported as the witness; levels with no passing candidate
    are enumerated completely.  Pass start_at below the floor to have the
    search refute the smaller counts itself instead of trusting the bound;
    one above it raises OutOfRange, as the scan would skip counts that may
    pass.  budget caps the placements explored over all levels.  The
    default, 50,000,000, finishes every n <= 11 (n = 11 takes 6,753,538),
    but n = 12's 9-triple level alone has 230,801,536 placements, so the
    default stops there, after several minutes.
    """
    n = operator.index(n)
    if not 5 <= n <= 12:
        raise OutOfRange(f"search supports 5 <= n <= 12, got n={n}")
    floor = n - 3
    first = floor if start_at is None else operator.index(start_at)
    if not 1 <= first <= floor:
        raise OutOfRange(f"start_at must lie in [1, {floor}], got {first}")
    nodes = 0
    for m in count(first):
        for chunk, nodes in _level(n, m, nodes, budget):
            if not chunk:
                continue
            ints = chain.from_iterable(chain.from_iterable(c for c, _ in chunk))
            # np.array is slower
            cands = np.fromiter(ints, np.intp).reshape(len(chunk), -1, 3)
            if (holds := _weakly_spreading_each(n, cands)).any():
                cand, nodes = chunk[int(holds.argmax())]
                # counts below ceil(n/3) cannot span n vertices at all, so
                # the scan was exhaustive iff it started at or below that
                return SearchResult(
                    n=n,
                    minimum=m,
                    witness=build_system(n, cand),
                    nodes_explored=nodes,
                    exhaustive_below=first <= -(-n // 3),
                )


def ordering_witness(system: TripleSystem) -> tuple[Triple, ...] | None:
    """An ordering of the triples in which the second shares a vertex with
    the first and every later one meets the union of its predecessors in at
    least two vertices; None when no such ordering exists.

    One led by T1, T2 exists exactly when closure(T1 | T2) contains the
    span: a triple that meets the covered set in two vertices still does
    once the set grows, so greedy placement never dead-ends, and it stops
    only at a closed set.  So the first intersecting pair, in lexicographic
    order, that passes this test leads, and each later place takes the
    first remaining triple, in lexicographic order, that meets the covered
    set in two vertices: at most C(m, 2) closure calls.  Placement keeps a
    count of covered points per triple, bumped through the triples of each
    newly covered vertex, and a min-heap of the triple indices that reach
    two, so no place rescans the triples left.  Systems with at most one
    triple return their trivial ordering.
    """
    import heapq  # here, as no lts command places triples

    tris = system.triples
    if len(tris) <= 1:
        return tris
    span = system.span()
    for i, j in combinations(range(len(tris)), 2):
        if set(tris[i]) & set(tris[j]) and closure(system, tris[i] + tris[j]) >= span:
            break
    else:
        return None
    through: dict[int, list[int]] = {}  # the triples through each vertex
    for k, t in enumerate(tris):
        for v in t:
            through.setdefault(v, []).append(k)
    hits = [0] * len(tris)  # the covered points of each triple
    ready: list[int] = []  # a min-heap of the triples with two covered points
    order: list[Triple] = []
    covered: set[int] = set()

    def place(k: int) -> None:
        order.append(tris[k])
        for v in set(tris[k]).difference(covered):
            covered.add(v)
            for other in through[v]:
                hits[other] += 1
                if hits[other] == 2:
                    heapq.heappush(ready, other)

    place(i)
    place(j)
    while len(order) < len(tris):
        if (k := heapq.heappop(ready)) not in (i, j):  # both were pushed too
            place(k)
    return tuple(order)
