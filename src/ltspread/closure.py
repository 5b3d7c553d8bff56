"""Neighbourhood and closure operators, plus the property verifiers.

The closure of a vertex set S keeps adjoining third points: whenever a
covered pair {x, y} lies inside the set and its triple's third vertex z is
outside, z is added.  The spreading-type properties below all ask whether
such propagation from small seeds reaches the whole vertex set.

Every closure, from a single closure() query to the brute-force spreading
scan, runs on one bit-sliced kernel (after Biham, FSE 1997): blocks of
seeds become uint64 matrices M, one row per vertex and one bit per seed,
swept with M[z] |= M[x] & M[y] over all covered pairs until nothing
changes, on the system's sweep_pairs.  A block holds _BLOCK seeds, or
fewer when the system has so many triples that a pair-indexed sweep
temporary would outgrow _PAIR_BYTES, so memory is bounded and no verifier
caps n.  closure() is a block of one seed: O(m) array work per sweep,
while neighbourhood() looks the O(|S|^2) pairs of its set up in the
system's sorted pair codes.  Witnesses: seeds go in size-ascending, then
lexicographic order, and the first failure is the lowest failing bit of
the first block that has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Literal

import numpy as np

from .core import Triple, TripleSystem
from .errors import BudgetExceeded, OutOfRange

__all__ = [
    "PropertyVerdict",
    "ExpanderReport",
    "neighbourhood",
    "closure",
    "is_spreading",
    "is_weakly_spreading",
    "is_strongly_connected",
    "expander_deficiency",
]


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a property check with a deterministic failure witness.

    witness is present exactly when holds is false: a vertex set for the
    spreading and connectivity checks, a pair of triples for the weak
    variant.  It is the first failing candidate in size-ascending, then
    lexicographic, scan order.
    """

    holds: bool
    witness: frozenset[int] | tuple[Triple, Triple] | None
    checked_count: int

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ExpanderReport:
    """Exhaustive neighbourhood-size statistics over small vertex sets.

    min_deficiency is the minimum of |N(V')| - (|V'| - 3); worst_set is its
    first attainer in size-ascending, then lexicographic, order.  min_ratio
    is min |N(V')| / |V'| over nontrivial sets only (size >= 3 and not a
    triple), or None when no nontrivial set was examined.
    """

    min_deficiency: int
    per_size_min_neighbourhood: dict[int, int]
    worst_set: frozenset[int]
    min_ratio: Fraction | None


def neighbourhood(system: TripleSystem, subset: Iterable[int]) -> frozenset[int]:
    """Vertices outside subset completing a covered pair inside it."""
    s = np.array(system._vertices(subset), dtype=np.intp)
    x, y = s[:, None], s[None, :]
    thirds = system._third_points((x * system.n + y)[x < y])
    return frozenset(thirds[thirds >= 0].tolist()).difference(s.tolist())


def closure(system: TripleSystem, subset: Iterable[int]) -> frozenset[int]:
    """Least superset of subset with empty neighbourhood: the kernel on a
    block of one seed."""
    row = np.array([system._vertices(subset)], dtype=np.intp)
    m = _close_batch(system.n, row, system.sweep_pairs)
    return frozenset(np.flatnonzero(_unpack(m, 1)).tolist())


# Seeds per kernel block: 2^14 seeds are 256 words (2 KiB) per vertex row.
_BLOCK = 1 << 14
# A sweep holds pair-indexed temporaries of 3m rows, one bit per seed; the
# seeds per block shrink below _BLOCK so that one stays within this size.
_PAIR_BYTES = 1 << 23


def _block_size(system: TripleSystem) -> int:
    """Seeds per block: _BLOCK, or fewer (a multiple of 64, at least 64) when
    a pair-indexed sweep temporary would outgrow _PAIR_BYTES."""
    fit = _PAIR_BYTES * 8 // (3 * len(system.triples) or 1) // 64 * 64
    return min(_BLOCK, max(64, fit))


def _combinations(n: int, k: int, block: int) -> Iterator[np.ndarray]:
    """combinations(range(n), k) as blocks of up to block rows, unranked by
    the combinatorial number system: the subset of lexicographic rank r is
    {n - 1 - c_j}, where C(n, k) - 1 - r = sum_j C(c_j, k - j) greedily."""
    table = [np.array([math.comb(c, k - j) for c in range(n)]) for j in range(k)]
    total = math.comb(n, k)
    for start in range(0, total, block):
        left = total - 1 - np.arange(start, min(start + block, total))
        c = np.empty((len(left), k), dtype=np.intp)
        for j, t in enumerate(table):
            c[:, j] = np.searchsorted(t, left, side="right") - 1
            left -= t[c[:, j]]
        yield n - 1 - c


def _pack(n: int, rows: np.ndarray) -> np.ndarray:
    """Seed rows as the (n, words) uint64 M: bit i of row v says v in seed i."""
    bits = np.zeros((n, -(-len(rows) // 64) * 64), dtype=bool)
    bits[rows.T, np.arange(len(rows))] = True
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """The first count per-seed bits of packed words, as 0/1 uint8."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little")


def _neighbourhoods(m: np.ndarray, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """One sweep: N[z] = OR of M[x] & M[y] over the pairs of z, minus M[z]."""
    x, y, starts, zs = pairs
    return np.bitwise_or.reduceat(m[x] & m[y], starts) & ~m[zs]


def _close_batch(n: int, rows: np.ndarray, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Packed closures of seed rows: sweep until no closure grows."""
    m = _pack(n, rows)
    while (grow := _neighbourhoods(m, pairs)).any():
        m[pairs[3]] |= grow
    return m


def _scan(system: TripleSystem, blocks: Iterable, witness: Callable) -> PropertyVerdict:
    """Close blocks of seed rows in order and stop at the first seed whose
    closure misses a vertex, reported as witness(row as a list)."""
    pairs, done = system.sweep_pairs, 0
    for rows in blocks:
        spans = np.bitwise_and.reduce(_close_batch(system.n, rows, pairs), axis=0)
        failing = np.flatnonzero(_unpack(~spans, len(rows)))
        if failing.size:
            i = int(failing[0])
            return PropertyVerdict(False, witness(rows[i].tolist()), done + i + 1)
        done += len(rows)
    return PropertyVerdict(True, None, done)


def is_spreading(
    system: TripleSystem, mode: Literal["reduced", "brute_force"] = "reduced"
) -> PropertyVerdict:
    """Check that every nontrivial seed closes to the whole vertex set.

    Nontrivial means size at least 3 and not itself a triple of the system.
    Reduced mode batch-closes only non-triple 3-subsets, which is equivalent
    to the full definition: closure is monotone, and by linearity at most
    one 3-subset of any 4 vertices is a triple, so every failing set of size
    >= 4 contains a failing non-triple 3-subset.  Brute-force mode feeds
    all non-triple subsets of size >= 3 to the same kernel, size by size,
    and requires n <= 20.
    """
    if mode not in ("reduced", "brute_force"):
        raise OutOfRange(f"unknown mode {mode!r}")
    n = system.n
    if n < 3:
        raise OutOfRange(f"spreading needs at least 3 vertices, got n={n}")
    if mode == "brute_force" and n > 20:
        raise OutOfRange(f"brute_force scans all subsets; n={n} exceeds 20")
    sizes = range(3, n + 1 if mode == "brute_force" else 4)
    block = _block_size(system)
    blocks = (
        rows[~system._are_triples(rows)] if k == 3 else rows
        for k in sizes
        for rows in _combinations(n, k, block)
    )
    return _scan(system, blocks, frozenset)


def is_weakly_spreading(system: TripleSystem) -> PropertyVerdict:
    """Check that every pair of distinct triples closes to everything.

    This two-triple form is equivalent to requiring it of every subfamily
    with more than one triple, since closure is monotone.  Seeds t1 + t2 go
    to the batch kernel in combinations(triples, 2) order.
    """
    ijs = _combinations(len(system.triples), 2, _block_size(system))
    blocks = (system.triple_array[ij].reshape(-1, 6) for ij in ijs)
    return _scan(system, blocks, lambda seed: (tuple(seed[:3]), tuple(seed[3:])))


def is_strongly_connected(system: TripleSystem) -> PropertyVerdict:
    """Check that every partition side of size >= 4 is met by a triple in
    exactly two vertices.

    A side U with no such triple is exactly a closed set (every covered
    pair inside U has its third point inside), so the check reduces to: no
    proper closed subset of size >= 4 exists.  Any such subset contains a
    4-subset whose closure is again proper and closed, so the batch kernel
    closes the 4-subsets, stopping at the first block holding a closed one
    (no side is smaller); checked_count is always C(n, 4).  The witness is
    the smallest such closure, the lex-least of its size: that of the first
    4-subset to reach the size, as a closed set's first four vertices are
    its lex-least 4-subset.
    """
    n, pairs = system.n, system.sweep_pairs
    size, side = n, None
    for rows in _combinations(n, 4, _block_size(system)):
        reach = _unpack(_close_batch(n, rows, pairs), len(rows))
        sizes = reach.sum(axis=0)
        i = int(np.argmin(sizes))
        if sizes[i] < size:
            size, side = int(sizes[i]), frozenset(np.flatnonzero(reach[:, i]).tolist())
        if size == 4:
            break  # a closed 4-set: no side can be smaller
    return PropertyVerdict(side is None, side, math.comb(n, 4))


def expander_deficiency(
    system: TripleSystem,
    max_size: int | None = None,
    budget: int = 10**8,
) -> ExpanderReport:
    """Enumerate all vertex sets of size 1..max_size and report how far
    neighbourhood sizes sit above |V'| - 3.

    max_size defaults to n // 2, the range of interest for expansion.  The
    planned subset count is checked against budget up front and raises
    BudgetExceeded stating the largest size that still fits.  One sweep of
    the batch kernel gives the neighbourhoods of a block of sets.
    """
    n = system.n
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n)
    if max_size < 1:
        raise OutOfRange(f"max_size must be at least 1, got {max_size}")

    total = 0
    for k in range(1, max_size + 1):
        total += math.comb(n, k)
        if total > budget:
            raise BudgetExceeded(
                f"enumerating sizes up to {max_size} needs {total}+ subsets "
                f"(budget {budget}); size {k - 1} is the largest that fits"
            )

    pairs, block = system.sweep_pairs, _block_size(system)
    per_size: dict[int, int] = {}
    attainers: list[tuple[int, int, list[int]]] = []
    ratios: list[Fraction] = []
    for k in range(1, max_size + 1):
        for rows in _combinations(n, k, block):
            counts = _unpack(_neighbourhoods(_pack(n, rows), pairs), len(rows)).sum(0)
            idx = int(np.argmin(counts))
            per_size[k] = min(per_size.get(k, n), int(counts[idx]))
            attainers.append((int(counts[idx]) - (k - 3), k, rows[idx].tolist()))
            if k == 3:
                counts = counts[~system._are_triples(rows)]
            if k >= 3 and counts.size:
                ratios.append(Fraction(int(counts.min()), k))
    deficiency, _, worst_set = min(attainers)
    ratio = min(ratios, default=None)
    return ExpanderReport(deficiency, per_size, frozenset(worst_set), ratio)
