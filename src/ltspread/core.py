"""Validated linear triple systems and skeleton-graph queries.

A linear triple system on vertices 0..n-1 is a set of three-element blocks
in which every unordered vertex pair lies in at most one block.  Validation
happens once, at construction, in numpy, and builds only what it reads: the
pair slots of the triples, their codes x*n + y and one plain sort of them.
The two indexes built from those slots, the pair index that every lookup
reads and the kernel layout that closure and the property checks read, are
built on first read, once each.
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


def _canonical(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two masks over the rows of an (m, 3) array: each row strictly
    increasing, and each row lexicographically above the row before (true
    for the first row).  Rows are canonical where both hold."""
    increasing = (t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2])
    a, b = t[:-1].T, t[1:].T
    rise = (b[1] > a[1]) | ((b[1] == a[1]) & (b[2] > a[2]))
    above = np.ones(len(t), dtype=bool)
    above[1:] = (b[0] > a[0]) | ((b[0] == a[0]) & rise)
    return increasing, above


def _slots(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair slots (x, y, z) of (m, 3) rows of sorted triples, slot j of
    row i at flat index j*m + i: pairs xy, xz, yz with third point z.  One
    gather of whole columns: a gather across each row is several times
    slower.  The one pair-slot layout, kept by no caller: validation, the
    pair index and the kernel layout of TripleSystem, _weakly_spreading_each,
    _third_rows and _swap_minimal each take it when they need it."""
    x, y, z = t.T[[0, 0, 1, 1, 2, 2, 2, 1, 0]].reshape(3, -1)
    return x, y, z


def _sweep_pairs(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kernel's (x, y, starts, thirds) of pair slots (x, y, z): the slots
    in a stable sort by third point, where the run from starts[i] has third
    point thirds[i]."""
    by_third = np.argsort(z, kind="stable")
    zs = z[by_third]
    first = np.empty(len(zs), dtype=bool)  # where each third's run begins
    first[:1] = True
    np.not_equal(zs[1:], zs[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return x[by_third], y[by_third], starts, zs[starts]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


class TripleSystem:
    """A validated linear triple system, immutable after construction.

    Attributes:
        n: number of vertices; labels are 0..n-1.
        triples: lexicographically sorted tuple of sorted triples, built
            from triple_array on first access.
        triple_array: the triples as an (m, 3) intp array.
        sweep_pairs: the kernel's (x, y, starts, thirds): the pairs grouped
            by third vertex; built when closure or a property check first
            reads it.
    The pair lookups read a private pair index: the 3m covered pairs x < y
    as sorted codes x*n + y, and the third vertex of each, built when a
    lookup first needs it.  All arrays are read-only; the index and
    sweep_pairs are built at most once each, and a system that only
    validates builds neither.
    """

    __slots__ = ("n", "triple_array", "_triples", "_index", "_sweep")

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()):
        n = operator.index(n)
        if not 0 <= n <= _MAX_ORDER:
            bound = "non-negative" if n < 0 else f"at most {_MAX_ORDER}"
            raise VertexOutOfRange(f"vertex count must be {bound}, got {n}")
        self.n = n
        # An (m, 3) int or uint array that casts safely to intp is sorted in
        # numpy, in its own dtype (faster than intp), where not canonical;
        # lists and other arrays (bool, uint64, float, object) go per triple.
        array = isinstance(triples, np.ndarray) and triples.shape[1:] == (3,)
        if array and triples.dtype.kind in "iu" and np.can_cast(triples.dtype, np.intp):
            t, (increasing, above) = triples, _canonical(triples)
            if not (rows_sorted := increasing.all()):
                t = np.sort(t, axis=1)
                if (same := (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])).any():
                    entries = tuple(triples[same.argmax()].tolist())  # as given
                    raise DegenerateTriple(f"repeated vertex in triple {entries!r}")
            if not (rows_sorted and above.all()):
                t = t[np.lexsort(t.T[::-1])]
                t = t[_canonical(t)[1]]  # not above the row before: a repeat
            t, tri = t.astype(np.intp), None  # a copy: the caller's array is untouched
        else:
            # dict keeps input order, so triples that arrive sorted sort in O(m)
            tri = tuple(sorted(dict.fromkeys(map(_normalize_triple, triples))))
            try:
                t = np.array(tri, dtype=np.intp).reshape(-1, 3)
            except OverflowError:  # such a vertex is out of range; clipping keeps it so
                t = np.array(tri, dtype=object).clip(-1, n).astype(np.intp)
        # tri only orders t and names the culprit of an error: the triples
        # property builds the tuple from the array when it is first read
        self._triples = self._index = self._sweep = None

        def row(i: int) -> Triple:
            return tuple(t[i].tolist()) if tri is None else tri[i]

        # Validation reads only the slots' codes and a plain sort, and keeps
        # neither: the pair index and the kernel layout take the slots again
        # from the triple array when first read.
        x, y, _ = _slots(t)
        codes = x * n + y
        # The first defect is the lowest triple index with a bad vertex or a
        # pair covered at a lower index.  A bad triple's codes may clash, but
        # never below its own index, where range wins.
        bad = np.flatnonzero((t[:, 0] < 0) | (t[:, 2] >= n))
        first = int(bad[0]) if bad.size else len(t)
        if (repeats := np.flatnonzero((c := np.sort(codes))[1:] == c[:-1])).size:
            # The codes in row order, slot j of triple i at 3i + j, sorted
            # stably: the same values, so the same repeats, and each repeated
            # cover (at f) comes right after the one before it.
            codes = codes.reshape(3, -1).T.ravel()
            by_code = np.argsort(codes, kind="stable")
            k = repeats[np.argmin(by_code[repeats + 1])]
            if (f := int(by_code[k + 1])) // 3 < first:
                pair = divmod(int(codes[f]), n)  # in range: it is below first
                raise DuplicatePairCoverage(pair, (row(by_code[k] // 3), row(f // 3)))
        if bad.size:
            culprit = row(first)
            v = culprit[0] if culprit[0] < 0 else culprit[2]
            message = f"vertex {v} outside [0, {n}) in triple {culprit}"
            raise VertexOutOfRange(message, culprit)
        t.flags.writeable = False
        self.triple_array = t

    def _pair_index(self) -> tuple[np.ndarray, ...]:
        if self._index is None:
            x, y, z = _slots(self.triple_array)
            codes = x * self.n + y
            by_code = np.argsort(codes, kind="stable")
            self._index = _frozen(codes[by_code], z[by_code])
        return self._index

    @property
    def sweep_pairs(self) -> tuple[np.ndarray, ...]:
        if self._sweep is None:
            self._sweep = _frozen(*_sweep_pairs(*_slots(self.triple_array)))
        return self._sweep

    @property
    def triples(self) -> tuple[Triple, ...]:
        if self._triples is None:
            self._triples = tuple(zip(*self.triple_array.T.tolist()))
        return self._triples

    def _vertices(self, subset: Iterable[int]) -> tuple[int, ...]:
        """The distinct vertices of subset, in order; each must be in range."""
        out = tuple(dict.fromkeys(map(operator.index, subset)))
        for v in out:
            if v < 0 or v >= self.n:
                raise VertexOutOfRange(f"vertex {v} outside [0, {self.n})")
        return out

    def _third_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Third vertex of each vertex pair x[i] < y[i], or -1 if uncovered."""
        codes, (pair_codes, pair_thirds) = x * self.n + y, self._pair_index()
        out = np.full(len(codes), -1, dtype=np.intp)
        if len(pair_codes):
            # one search: a code past the last lands on the last, and misses
            at = np.searchsorted(pair_codes, codes).clip(max=len(pair_codes) - 1)
            hit = pair_codes[at] == codes
            out[hit] = pair_thirds[at[hit]]
        return out

    def third_point(self, x: int, y: int) -> int | None:
        """Return the third vertex of the triple through x and y, or None."""
        pair = self._vertices((x, y))
        if len(pair) < 2:
            raise OutOfRange(
                f"pair query needs two distinct vertices, got {pair[0]} twice"
            )
        (third,) = self._third_points(np.array([min(pair)]), np.array([max(pair)]))
        return None if third < 0 else int(third)

    def has_triple(self, triple: Iterable[int]) -> bool:
        """True when triple, in any entry order, is a triple of the system.
        Entries are read with operator.index, so a float raises TypeError."""
        t = sorted(map(operator.index, triple))
        # range first: third_point raises on a vertex outside [0, n)
        ok = len(t) == 3 and 0 <= t[0] < t[1] < t[2] < self.n
        return ok and self.third_point(t[0], t[1]) == t[2]

    def is_steiner(self) -> bool:
        """True when every pair of vertices is covered by a triple: a linear
        system covers 3m distinct pairs."""
        return 3 * len(self.triple_array) == self.n * (self.n - 1) // 2

    def _first_uncovered(self) -> Pair | None:
        """The lexicographically first uncovered pair, or None, in O(m): code
        x*n + y is the pair of lex rank code - (x+1)(x+2)/2, so the sorted
        codes count up from rank 0 to just before the first uncovered pair."""
        if self.is_steiner():
            return None
        codes, n = self._pair_index()[0], self.n
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
        free = self._third_points(x, y) < 0
        return list(zip(x[free].tolist(), y[free].tolist()))

    def span(self) -> frozenset[int]:
        """The set of vertices that appear in at least one triple."""
        return frozenset(self.triple_array.ravel().tolist())

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSystem):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self.triple_array, other.triple_array
        )

    def __hash__(self) -> int:
        return hash((self.n, self.triple_array.tobytes()))

    def __repr__(self) -> str:
        return f"TripleSystem(n={self.n}, triples={len(self.triple_array)})"


def build_system(n: int, triples: Iterable[Iterable[int]] = ()) -> TripleSystem:
    """Validate and construct a linear triple system on vertices 0..n-1.

    Triples may arrive in any entry order and with duplicates; they are
    sorted and deduplicated, then checked in lexicographic order, so the
    error names the lexicographically first defect.  An (m, 3) int or uint
    ndarray that casts safely to intp (not uint64) is sorted in numpy, with
    no Python work per triple and no sort at all where its rows are already
    canonical, each strictly increasing and above the row before.  Lists
    and other arrays are normalised one triple at a time, cheaper for a
    few triples.  Raises DegenerateTriple for the first triple, in input
    order, without three distinct entries, VertexOutOfRange (``.triple`` is
    the offending triple; None when n itself is out of range) and
    DuplicatePairCoverage (``.pair``, and ``.triples``: the earlier and the
    later triple covering it).
    """
    return TripleSystem(n, triples)
