"""Validated linear triple systems and skeleton-graph queries.

A linear triple system on vertices 0..n-1 is a set of three-element blocks
in which every unordered vertex pair lies in at most one block.  Validation
happens once, at construction; the pair -> third-vertex table built here is
what keeps the closure and property checks in the rest of the package cheap.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    DegenerateTriple,
    DuplicatePairCoverage,
    OutOfRange,
    VertexOutOfRange,
)

Triple = tuple[int, int, int]
Pair = tuple[int, int]


def _normalize_triple(raw: Iterable[int]) -> Triple:
    entries = tuple(map(operator.index, raw))
    if len(entries) != 3:
        raise DegenerateTriple(f"expected three vertices, got {entries!r}")
    x, y, z = sorted(entries)
    if x == y or y == z:
        raise DegenerateTriple(f"repeated vertex in triple {entries!r}")
    return (x, y, z)


class TripleSystem:
    """A validated linear triple system, immutable after construction.

    Attributes:
        n: number of vertices; labels are 0..n-1.
        triples: lexicographically sorted tuple of sorted triples.
        pair_table: maps each covered pair (x, y), x < y, to its third vertex.
    """

    __slots__ = ("n", "triples", "pair_table")

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()):
        n = operator.index(n)
        if n < 0:
            raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
        self.n = n
        normalized = sorted({_normalize_triple(t) for t in triples})
        # One pass in lexicographic order: the first defect found is the
        # lexicographically first, which the parser maps back to a line.
        table: dict[Pair, int] = {}
        for t in normalized:
            x, y, z = t
            if x < 0 or z >= n:
                v = x if x < 0 else z
                raise VertexOutOfRange(f"vertex {v} outside [0, {n}) in triple {t}", t)
            for pair, third in (((x, y), z), ((x, z), y), ((y, z), x)):
                if pair in table:
                    earlier = tuple(sorted(pair + (table[pair],)))
                    raise DuplicatePairCoverage(pair, (earlier, t))
                table[pair] = third
        self.triples = tuple(normalized)
        self.pair_table = table

    def third_point(self, x: int, y: int) -> int | None:
        """Return the third vertex of the triple through x and y, or None."""
        x = operator.index(x)
        y = operator.index(y)
        for v in (x, y):
            if v < 0 or v >= self.n:
                raise VertexOutOfRange(f"vertex {v} outside [0, {self.n})")
        if x == y:
            raise OutOfRange(f"pair query needs two distinct vertices, got {x} twice")
        return self.pair_table.get((x, y) if x < y else (y, x))

    def has_triple(self, triple: Iterable[int]) -> bool:
        """True when triple, in any entry order, is a triple of the system."""
        t = tuple(sorted(triple))
        return len(t) == 3 and self.pair_table.get(t[:2]) == t[2]

    def is_steiner(self) -> bool:
        """True when every pair of vertices is covered by a triple."""
        return len(self.pair_table) == self.n * (self.n - 1) // 2

    def uncovered_edges(self) -> list[Pair]:
        """All pairs not covered by any triple, in lexicographic order."""
        table = self.pair_table
        return [p for p in combinations(range(self.n), 2) if p not in table]

    def span(self) -> frozenset[int]:
        """The set of vertices that appear in at least one triple."""
        return frozenset(v for t in self.triples for v in t)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSystem):
            return NotImplemented
        return self.n == other.n and self.triples == other.triples

    def __hash__(self) -> int:
        return hash((self.n, self.triples))

    def __repr__(self) -> str:
        return f"TripleSystem(n={self.n}, triples={len(self.triples)})"


def build_system(n: int, triples: Iterable[Iterable[int]] = ()) -> TripleSystem:
    """Validate and construct a linear triple system on vertices 0..n-1.

    Triples may arrive in any entry order and with duplicates; they are
    sorted and deduplicated, then checked in lexicographic order, so the
    error names the lexicographically first defect.  Raises DegenerateTriple
    for a triple without three distinct entries, VertexOutOfRange (``.triple``
    is the offending triple; None when n itself is negative) and
    DuplicatePairCoverage (``.pair``, and ``.triples``: the earlier and the
    later triple covering it).
    """
    return TripleSystem(n, triples)
