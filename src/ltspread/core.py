"""Validated linear triple systems and skeleton-graph queries.

A linear triple system on vertices 0..n-1 is a set of three-element blocks
in which every unordered vertex pair lies in at most one block.  Validation
happens once, at construction, in numpy; the pair index built there is the
one that every lookup, closure and property check in the package reads.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateTriple,
    DuplicatePairCoverage,
    OutOfRange,
    VertexOutOfRange,
)

Triple = tuple[int, int, int]
Pair = tuple[int, int]
# Pair codes x*n + y must fit in intp, which caps the vertex count.
_MAX_ORDER = math.isqrt(np.iinfo(np.intp).max)


def _normalize_triple(raw: Iterable[int]) -> Triple:
    entries = tuple(map(operator.index, raw))
    if len(entries) != 3:
        raise DegenerateTriple(f"expected three vertices, got {entries!r}")
    x, y, z = sorted(entries)
    if x == y or y == z:
        raise DegenerateTriple(f"repeated vertex in triple {entries!r}")
    return (x, y, z)


def _ascending(t: np.ndarray) -> bool:
    """True when the rows of t are in strictly increasing lexicographic order."""
    a, b = t[:-1].T, t[1:].T
    rise = (b[1] > a[1]) | ((b[1] == a[1]) & (b[2] > a[2]))
    return bool(((b[0] > a[0]) | ((b[0] == a[0]) & rise)).all())


def _normalize_array(raw: np.ndarray) -> tuple[np.ndarray, tuple[Triple, ...]]:
    """_normalize_triple on each row of an (m, 3) integer array, then the
    sort and dedupe, in bulk: the intp array and the triples as tuples.
    Rows already in strictly increasing order, as a parsed file's are, are
    not sorted again."""
    t = np.sort(raw, axis=1).astype(np.intp, copy=False)
    if (bad := np.flatnonzero((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]))).size:
        entries = tuple(raw[bad[0]].tolist())
        raise DegenerateTriple(f"repeated vertex in triple {entries!r}")
    if not _ascending(t):
        t = t[np.lexsort(t.T[::-1])]
        t = t[np.r_[True, (t[1:] != t[:-1]).any(axis=1)]]
    return t, tuple(zip(*t.T.tolist()))


class TripleSystem:
    """A validated linear triple system, immutable after construction.

    Attributes:
        n: number of vertices; labels are 0..n-1.
        triples: lexicographically sorted tuple of sorted triples.
        triple_array: the triples as an (m, 3) intp array.
        pair_codes, pair_thirds: the 3m covered pairs x < y as sorted codes
            x*n + y, and the third vertex of each.
        sweep_pairs: the kernel's (x, y, starts, thirds): the pairs grouped
            by third vertex.  All arrays are read-only and built once.
    """

    __slots__ = (
        "n", "triples", "triple_array", "pair_codes", "pair_thirds", "sweep_pairs"
    )

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()):
        n = operator.index(n)
        if not 0 <= n <= _MAX_ORDER:
            bound = "non-negative" if n < 0 else f"at most {_MAX_ORDER}"
            raise VertexOutOfRange(f"vertex count must be {bound}, got {n}")
        self.n = n
        # Per triple, a Python loop beats numpy set-up on the few triples of a
        # search candidate; an integer array is taken in bulk.  uint64 is
        # not, as its values can pass intp.
        bulk = isinstance(triples, np.ndarray) and triples.shape[1:] == (3,)
        if bulk and triples.dtype.kind in "iu" and np.can_cast(triples.dtype, np.intp):
            t, tri = _normalize_array(triples)
        else:
            # dict keeps input order, so triples that arrive sorted sort in O(m)
            tri = tuple(sorted(dict.fromkeys(map(_normalize_triple, triples))))
            try:
                t = np.array(tri, dtype=np.intp).reshape(-1, 3)
            except OverflowError:  # such a vertex is out of range; clipping keeps it so
                t = np.array(tri, dtype=object).clip(-1, n).astype(np.intp)
        self.triples = tri
        # pair slot j of triple i is flat index 3i + j: pairs xy, xz, yz
        x, y, z = (t.take(c, axis=1).ravel() for c in ([0, 0, 1], [1, 2, 2], [2, 1, 0]))
        codes = x * n + y
        by_code = np.argsort(codes, kind="stable")
        codes = codes[by_code]
        # The first defect is the lowest triple index with a bad vertex or a
        # pair covered at a lower index.  The stable sort puts each repeated
        # cover (flat index f) right after the one before it.  A bad triple's
        # codes may clash, but never below its own index, where range wins.
        bad = np.flatnonzero((t[:, 0] < 0) | (t[:, 2] >= n))
        first = int(bad[0]) if bad.size else len(tri)
        if (repeats := np.flatnonzero(codes[1:] == codes[:-1])).size:
            k = repeats[np.argmin(by_code[repeats + 1])]
            if (f := int(by_code[k + 1])) // 3 < first:
                pair = (int(x[f]), int(y[f]))
                raise DuplicatePairCoverage(pair, (tri[by_code[k] // 3], tri[f // 3]))
        if bad.size:
            culprit = tri[first]
            v = culprit[0] if culprit[0] < 0 else culprit[2]
            message = f"vertex {v} outside [0, {n}) in triple {culprit}"
            raise VertexOutOfRange(message, culprit)
        by_third = np.argsort(z, kind="stable")
        thirds, starts = np.unique(z[by_third], return_index=True)
        self.sweep_pairs = (x[by_third], y[by_third], starts, thirds)
        self.triple_array, self.pair_codes, self.pair_thirds = t, codes, z[by_code]
        for array in (t, codes, self.pair_thirds, *self.sweep_pairs):
            array.flags.writeable = False

    def _vertices(self, subset: Iterable[int]) -> tuple[int, ...]:
        """The distinct vertices of subset, in order; each must be in range."""
        out = tuple(dict.fromkeys(map(operator.index, subset)))
        for v in out:
            if v < 0 or v >= self.n:
                raise VertexOutOfRange(f"vertex {v} outside [0, {self.n})")
        return out

    def _third_points(self, codes: np.ndarray) -> np.ndarray:
        """Third vertex of each pair code x*n + y, or -1 where it is uncovered."""
        at = np.searchsorted(self.pair_codes, codes)
        hit = np.searchsorted(self.pair_codes, codes, side="right") > at
        out = np.full(len(codes), -1, dtype=np.intp)
        out[hit] = self.pair_thirds[at[hit]]
        return out

    def _are_triples(self, rows: np.ndarray) -> np.ndarray:
        """Which rows, sorted 3-subsets of [0, n), are triples."""
        return self._third_points(rows[:, 0] * self.n + rows[:, 1]) == rows[:, 2]

    def third_point(self, x: int, y: int) -> int | None:
        """Return the third vertex of the triple through x and y, or None."""
        pair = self._vertices((x, y))
        if len(pair) < 2:
            raise OutOfRange(
                f"pair query needs two distinct vertices, got {pair[0]} twice"
            )
        (third,) = self._third_points(np.array([min(pair) * self.n + max(pair)]))
        return None if third < 0 else int(third)

    def has_triple(self, triple: Iterable[int]) -> bool:
        """True when triple, in any entry order, is a triple of the system."""
        t = tuple(sorted(triple))
        # range first: codes of outside vertices can equal those of real pairs
        ok = len(t) == 3 and 0 <= t[0] < t[1] < t[2] < self.n
        return ok and bool(self._are_triples(np.array([t]))[0])

    def is_steiner(self) -> bool:
        """True when every pair of vertices is covered by a triple."""
        return len(self.pair_codes) == self.n * (self.n - 1) // 2

    def _first_uncovered(self) -> Pair | None:
        """The lexicographically first uncovered pair, or None, in O(m): code
        x*n + y is the pair of lex rank code - (x+1)(x+2)/2, so the sorted
        codes count up from rank 0 to just before the first uncovered pair."""
        if self.is_steiner():
            return None
        codes, n = self.pair_codes, self.n
        x = codes // n
        gaps = np.flatnonzero(codes - (x + 1) * (x + 2) // 2 != np.arange(len(codes)))
        r = int(gaps[0]) if gaps.size else len(codes)  # its rank
        if r == 0:
            return (0, 1)
        x, y = divmod(int(codes[r - 1]), n)
        return (x, y + 1) if y + 1 < n else (x + 1, x + 2)

    def uncovered_edges(self) -> list[Pair]:
        """All pairs not covered by any triple, in lexicographic order."""
        x, y = np.triu_indices(self.n, 1)
        free = self._third_points(x * self.n + y) < 0
        return list(zip(x[free].tolist(), y[free].tolist()))

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
    error names the lexicographically first defect.  An (m, 3) integer
    ndarray (other than uint64) is taken in bulk, with no Python work per
    triple, and rows already in strictly increasing order are not sorted
    again; any other iterable is normalised one triple at a time, which is
    cheaper for a few triples.  Raises DegenerateTriple for the first
    triple, in input order, without three distinct entries,
    VertexOutOfRange (``.triple`` is the offending triple; None when n
    itself is out of range) and DuplicatePairCoverage (``.pair``, and
    ``.triples``: the earlier and the later triple covering it).
    """
    return TripleSystem(n, triples)
