"""Neighbourhood and closure operators, plus the property verifiers.

The closure of a vertex set S keeps adjoining third points: whenever a
covered pair {x, y} lies inside the set and its triple's third vertex z is
outside, z is added.  The spreading-type properties below all ask whether
such propagation from small seeds reaches the whole vertex set.

A single closure() query propagates from a frontier (semi-naive
evaluation): each round reads only the triples through the vertices that
joined in the round before, so it reads each triple at most three times,
and it stops once no vertex joins or every vertex is in.  The verifiers
close batches of seeds on one bit-sliced kernel (after Biham, FSE 1997),
where a single seed would use one bit of each 64-bit word.  Blocks of
seeds become uint64 matrices M, one row per vertex and one bit per seed
(bit s of a row is numeric bit s % 64 of word s // 64, on any host),
swept with M[z] |= M[x] & M[y] over all covered pairs until nothing
changes, on the system's sweep_pairs.  A block holds _BLOCK seeds, or
fewer when a pair-indexed sweep temporary (3m rows) or a vertex-indexed
byte matrix (n rows, a byte per seed) would outgrow _PAIR_BYTES, which
bounds memory up to about 130,000 vertices and 350,000 triples (the
expander's blocks, up to about 43,700 vertices in triples).  Seed ranks
are int64, which caps spreading at n = 3,810,779 and strong connectivity
at n = 121,977.  The verifiers that scan a single seed size unrank their
seeds (_combinations; _rank inverts it) and scatter them into M (_pack);
is_spreading first drops each 3-set that a swap (see there) turns into a
lexicographically smaller one with the same closure.  The extremal
search checks a chunk of K candidate systems in one kernel call, as one
system on K disjoint copies of range(n) (_weakly_spreading_each).
expander_deficiency runs no sweep.  It scans every size from 1 up and
builds each size's packed, lex-ordered sets from the size below by
Pascal's rule (_subsets), with one row per vertex in some triple for the
third points of their covered pairs: those of {a} plus T are those of T
and, a row permutation of T, the third points of the pairs {a, t}.  Less
the set itself, that is its neighbourhood, so a block is only counted;
the 3-sets that held one of their own vertices are the triples (see
_subset_blocks for the tables and blocks).  neighbourhood() looks the
O(|S|^2) pairs of its set up in the system's pair index, by vertex pair.
Witnesses: seeds go in size-ascending, then lexicographic order, and the
first failure, which _scan returns, is the lowest failing bit of the
first block that has one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .core import Triple, TripleSystem, _slots, _sweep_pairs
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
    i, j = np.nonzero(s[:, None] < s)
    thirds = system._third_points(s[i], s[j])
    return frozenset(thirds[thirds >= 0].tolist()).difference(s.tolist())


def closure(system: TripleSystem, subset: Iterable[int]) -> frozenset[int]:
    """Least superset of subset with empty neighbourhood, by frontier
    propagation.  A triple can add its third point only in the round after
    its second point joins, so each round reads only the sweep_pairs groups
    of the vertices that joined in the round before (group v holds the
    other two vertices of each triple through v).  It stops when no vertex
    joins or every vertex is in."""
    n, (x, y, starts, thirds) = system.n, system.sweep_pairs
    lo, count = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    lo[thirds], count[thirds] = starts, np.diff(starts, append=len(x))
    frontier = np.array(system._vertices(subset), dtype=np.intp)
    inside = np.zeros(n, dtype=bool)
    inside[frontier] = True
    size = len(frontier)
    while frontier.size and size < n:
        c = count[frontier]
        at = np.repeat(lo[frontier] - np.cumsum(c) + c, c)  # the groups' pairs
        at += np.arange(len(at))
        in_x, in_y = inside[x[at]], inside[y[at]]
        joined = np.zeros(n, dtype=bool)
        joined[y[at[in_x & ~in_y]]] = True
        joined[x[at[in_y & ~in_x]]] = True
        frontier = np.flatnonzero(joined)
        inside[frontier] = True
        size += len(frontier)
    return frozenset(np.flatnonzero(inside).tolist())


# Seeds per kernel block: 2^14 seeds are 256 words (2 KiB) per vertex row.
_BLOCK = 1 << 14
# A sweep holds pair-indexed temporaries of 3m rows, one bit per seed, and a
# block may hold n or more rows of a byte per seed (see _block_size); the
# seeds per block shrink below _BLOCK so that each stays within this size.
# expander_deficiency builds no seed table larger than it either.
_PAIR_BYTES = 1 << 23


def _block_size(system: TripleSystem, rows: int | None = None) -> int:
    """Seeds per block: _BLOCK, or fewer (a multiple of 64, at least 64) when
    a pair-indexed sweep temporary, or a byte matrix of rows rows (n by
    default, as _pack's), would outgrow _PAIR_BYTES."""
    n, m = system.n, len(system.triple_array)
    fit = min(_PAIR_BYTES * 8 // (3 * m or 1), _PAIR_BYTES // (rows or n or 1))
    return min(_BLOCK, max(64, fit // 64 * 64))


def _combinations(n: int, k: int, block: int, first: int = 0) -> Iterator[np.ndarray]:
    """combinations(range(n), k) from lexicographic rank first on, as blocks
    of up to block rows, unranked by the combinatorial number system: the
    subset of rank r is {n - 1 - c_j}, where C(n, k) - 1 - r = sum_j
    C(c_j, k - j) greedily."""
    if (total := math.comb(n, k)) - 1 > np.iinfo(np.int64).max:
        raise OutOfRange(f"C({n}, {k}) seeds pass the int64 ranks of the scan")
    if not total:  # k > n
        return
    # C(c, 1) = c, then Pascal's rule: C(c, r) is the sum of C(i, r - 1) over
    # i < c.  The greedy never picks an entry above total - 1, so a table of
    # r >= 2 whose last entry, C(n - 1, r), passes total stops at total.  Its
    # sums are exact up to the first that passes total, which may wrap int64.
    tables = [np.arange(n, dtype=np.int64)][:k]
    for r in range(2, k + 1):
        t = np.cumsum(tables[-1])
        t -= tables[-1]
        if math.comb(n - 1, r) > total:
            t[np.flatnonzero((t < 0) | (t > total))[0] :] = total
        tables.append(t)
    tables.reverse()  # table j holds C(c, k - j)
    for start in range(first, total, block):
        left = total - 1 - np.arange(start, min(start + block, total))
        c = np.empty((len(left), k), dtype=np.intp)
        for j, t in enumerate(tables):
            c[:, j] = np.searchsorted(t, left, side="right") - 1
            left -= t[c[:, j]]
        yield n - 1 - c


def _rank(n: int, row: Sequence[int]) -> int:
    """Lexicographic rank of a sorted subset of range(n), in Python ints."""
    k = len(row)
    left = sum(math.comb(n - 1 - v, k - j) for j, v in enumerate(row))
    return math.comb(n, k) - 1 - left


def _pack(n: int, rows: np.ndarray) -> np.ndarray:
    """Seed rows as the (n, words) "<u8" M: bit i of row v says v in seed i."""
    bits = np.zeros((n, -(-len(rows) // 64) * 64), dtype=bool)
    bits[rows.T, np.arange(len(rows))] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """First count bits of words as 0/1 uint8: bit s is bit s % 64 of word s // 64."""
    little = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(little, axis=-1, count=count, bitorder="little")


def _close_batch(n: int, rows: np.ndarray, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Packed closures of seed rows: sweep until no closure grows.  A sweep
    grows M[z] by N[z], the OR of M[x] & M[y] over the pairs of z, minus
    M[z]."""
    x, y, starts, zs = pairs
    m = _pack(n, rows)
    while True:
        grow = np.bitwise_or.reduceat(m[x] & m[y], starts) & ~m[zs]
        if not grow.any():
            return m
        m[zs] |= grow


def _scan(system: TripleSystem, blocks: Iterable) -> tuple[list[int] | None, int]:
    """Close blocks of seed rows in order; return the first seed whose closure
    misses a vertex, as a list, or None, and the seeds scanned up to it."""
    pairs, done = system.sweep_pairs, 0
    for rows in blocks:
        spans = np.bitwise_and.reduce(_close_batch(system.n, rows, pairs), axis=0)
        failing = np.flatnonzero(_unpack(~spans, len(rows)))
        if failing.size:
            i = int(failing[0])
            return rows[i].tolist(), done + i + 1
        done += len(rows)
    return None, done


def is_spreading(
    system: TripleSystem, mode: Literal["reduced", "brute_force"] = "reduced"
) -> PropertyVerdict:
    """Check that every nontrivial seed closes to the whole vertex set.

    Nontrivial means size at least 3 and not itself a triple of the system.
    Reduced mode checks only non-triple 3-subsets, which is equivalent to
    the full definition: closure is monotone, and by linearity at most one
    3-subset of any 4 vertices is a triple, so every failing set of size
    >= 4 contains a failing non-triple 3-subset.  Of those it batch-closes
    only the swap-minimal ones.  Swap lemma: if S = {x, y, z} holds a
    covered pair {x, y} whose third point w is outside S, then {x, z, w}
    and {y, z, w} are non-triples with the closure of S, so a 3-set that
    such a swap makes lexicographically smaller is never the first failing
    one.  The kept x < y < z have {x, y} uncovered or with third point
    above y, and {x, z} and {y, z} each uncovered or with third point above
    z; this drops every triple too.  checked_count counts the non-triple
    3-subsets decided, up to and including the witness (its rank among
    them), not the closures run: C(n, 3) - m when the system is spreading.
    Brute-force mode feeds all non-triple subsets of size >= 3 to the same
    kernel, size by size, and requires n <= 20.
    """
    if mode not in ("reduced", "brute_force"):
        raise OutOfRange(f"unknown mode {mode!r}")
    n = system.n
    if n < 3:
        raise OutOfRange(f"spreading needs at least 3 vertices, got n={n}")
    if mode == "brute_force" and n > 20:
        raise OutOfRange(f"brute_force scans all subsets; n={n} exceeds 20")
    block = _block_size(system)
    if mode == "brute_force":
        blocks = (
            rows[system._third_points(*rows.T[:2]) != rows[:, 2]] if k == 3 else rows
            for k in range(3, n + 1)
            for rows in _combinations(n, k, block)
        )
        seed, count = _scan(system, blocks)
        return PropertyVerdict(not seed, seed and frozenset(seed), count)
    blocks = (rows[_swap_minimal(system, rows)] for rows in _combinations(n, 3, block))
    seed, _ = _scan(system, blocks)
    if not seed:
        return PropertyVerdict(True, None, math.comb(n, 3) - len(system.triple_array))
    below = bisect.bisect_left(system.triple_array, seed, key=list)  # triples before it
    return PropertyVerdict(False, frozenset(seed), _rank(n, seed) - below + 1)


def _swap_minimal(system: TripleSystem, rows: np.ndarray) -> np.ndarray:
    """Which sorted 3-subset rows x < y < z no swap lowers (see is_spreading):
    the third point of {x, y} is above y, those of {x, z} and {y, z} are
    above z, and -1 (uncovered) passes each."""
    x, y, _ = _slots(rows)
    t = system._third_points(x, y)
    return ((t < 0) | (t > y)).reshape(3, -1).all(axis=0)


def is_weakly_spreading(system: TripleSystem) -> PropertyVerdict:
    """Check that every pair of distinct triples closes to everything.

    This two-triple form is equivalent to requiring it of every subfamily
    with more than one triple, since closure is monotone.  Seeds t1 + t2 go
    to the batch kernel in combinations(triples, 2) order.
    """
    ijs = _combinations(len(system.triple_array), 2, _block_size(system))
    blocks = (system.triple_array[ij].reshape(-1, 6) for ij in ijs)
    seed, count = _scan(system, blocks)
    return PropertyVerdict(not seed, seed and (tuple(seed[:3]), tuple(seed[3:])), count)


def _weakly_spreading_each(n: int, cands: np.ndarray) -> np.ndarray:
    """Whether each of K linear systems on range(n), given as a (K, m, 3)
    intp array of sorted triples, is weakly spreading, as a bool array, from
    one kernel call.

    The K systems are laid out as one system on K disjoint copies of
    range(n): vertex v of system c is kernel row c*n + v.  Seed row s holds
    the seed t1 + t2 at position s of every system, each in its own copy,
    so bit s of system c's rows is that seed's closure in system c; no
    triple of one system touches another's rows.  A system holds when each
    of its seeds sets its bit in all its n rows.  The caller keeps K times
    C(m, 2) within one block's seeds, which bounds the K*n vertex rows and
    3mK pair rows of the sweep.
    """
    k, m = cands.shape[:2]
    pos = np.arange(m)  # np.triu_indices costs several times as much
    i, j = np.nonzero(pos[:, None] < pos)  # the positions of t1 and t2
    t = (cands + np.arange(0, k * n, n)[:, None, None]).transpose(1, 0, 2)
    rows = np.concatenate((t[i], t[j]), axis=2).reshape(len(i), 6 * k)
    closed = _close_batch(k * n, rows, _sweep_pairs(*_slots(t.reshape(-1, 3))))
    spans = np.bitwise_and.reduce(closed.reshape(k, n, -1), axis=1)
    return ~_unpack(~spans, len(i)).any(axis=1)


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
        sizes = reach.sum(axis=0, dtype=np.min_scalar_type(n))  # each at most n
        i = int(np.argmin(sizes))
        if sizes[i] < size:
            size, side = int(sizes[i]), frozenset(np.flatnonzero(reach[:, i]).tolist())
        if size == 4:
            break  # a closed 4-set: no side can be smaller
    return PropertyVerdict(side is None, side, math.comb(n, 4))


_ONES = (1 << 64) - 1


def _copy_bits(
    dst: np.ndarray, d: int, src: np.ndarray, s: int, length: int
) -> np.ndarray:
    """OR bits s..s+length-1 of each src row into bits d..d+length-1 of the
    same dst row, and return those bits as they were ORed: one row per src
    row, over dst's words from d // 64 on."""
    w0, w1 = d >> 6, (d + length + 63) >> 6
    q, r = divmod(64 * w0 + s - d, 64)  # src word and bit of dst bit 64 * w0
    # word i of part is src word q + i shifted down by r, ORed with src word
    # q + i + 1 shifted up by 64 - r; src words outside src read as 0
    part = np.zeros((len(src), w1 - w0), dtype=np.uint64)
    lo, hi = max(q, 0), min(q + w1 - w0, src.shape[1])
    np.right_shift(src[:, lo:hi], r, out=part[:, lo - q : hi - q])
    if r:
        lo, hi = max(q + 1, 0), min(q + 1 + w1 - w0, src.shape[1])
        part[:, lo - q - 1 : hi - q - 1] |= src[:, lo:hi] << (64 - r)
    part[:, 0] &= (_ONES << (d & 63)) & _ONES
    part[:, -1] &= _ONES >> (-(d + length) & 63)
    dst[:, w0:w1] |= part
    return part


def _stripe(row: np.ndarray, d: int, length: int) -> None:
    """Set bits d..d+length-1 of a packed row."""
    w0, w1 = d >> 6, (d + length - 1) >> 6
    first, last = (_ONES << (d & 63)) & _ONES, _ONES >> (-(d + length) & 63)
    if w0 == w1:
        row[w0] |= first & last
    else:
        row[w0] |= first
        row[w0 + 1 : w1] = _ONES
        row[w1] |= last


def _third_rows(n: int, triples: np.ndarray) -> tuple[np.ndarray, ...]:
    """The layout _subsets reads: (thirds, cuts, rows, above).  thirds are
    the vertices in some triple, and third-point row i, stacked under the n
    subset rows, belongs to thirds[i].  For each covered pair {a, t} with
    t > a and third point v, rows holds v's stacked row and above holds
    t - a - 1, grouped by a: those of a are cuts[a]:cuts[a + 1].  Vertices
    are held in the smallest unsigned type that fits n."""
    a, t, v = _slots(triples.astype(np.min_scalar_type(n)))
    order = np.argsort(a, kind="stable")
    cuts = np.searchsorted(a[order], np.arange(n + 1, dtype=a.dtype)).tolist()
    used = np.zeros(n, dtype=bool)
    used[v] = True  # every vertex of a triple is the third point of a pair
    thirds = np.flatnonzero(used)
    row = np.zeros(n, dtype=np.min_scalar_type(2 * n))
    row[thirds] = np.arange(n, n + len(thirds))
    rows = row[v[order]]
    above = (t - a)[order] - 1
    return thirds, cuts, rows, above


def _subsets(
    n: int,
    k: int,
    start: int,
    stop: int,
    table: np.ndarray | None,
    level: int,
    layout: tuple[np.ndarray, ...],
) -> np.ndarray:
    """The k-subsets of range(n) of lexicographic rank start..stop-1 and
    their neighbourhoods, as one uint64 M of n + len(thirds) rows (layout is
    _third_rows's): bit i of row v < n says v is in the subset of rank
    start + i, and bit i of row n + j that thirds[j] is in its
    neighbourhood or in the subset itself, which the caller clears.  table
    holds all the level-subsets so (None at level 0), and level < k.

    Pascal's rule: the k-subsets with least vertex a are S = {a} plus T, for
    T the last C(n-1-a, k-1) (k-1)-subsets, those above a, out of table
    when level == k - 1 and else out of a range of size k - 1 built by this
    rule.  The covered pairs inside S are those inside T and the pairs
    {a, t}, so N(S) is N(T) plus sigma_a(T), less S, where sigma_a(t) is
    the third point of {a, t}.  Each least vertex costs one bit-shifted
    copy of the rows above a, the third-point rows with them, one stripe of
    ones in row a, and an OR of each copied subset row t into the
    third-point row of sigma_a(t), for each t above a with one.
    """
    thirds, cuts, rows, above = layout
    out = np.zeros((n + len(thirds), -(-(stop - start) // 64)), dtype=np.uint64)
    if k == 1:  # the 1-subset of rank start + i is {start + i}
        i = np.arange(stop - start)
        out[start + i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
        return out
    total, below = math.comb(n, k), math.comb(n, k - 1)

    def ahead(a: int) -> int:  # the k-subsets with least vertex <= a
        return total - math.comb(n - 1 - a, k)

    a = bisect.bisect_right(range(n), start, key=ahead)
    at = start
    while at < stop:
        end = min(stop, ahead(a))
        s = below - math.comb(n - 1 - a, k - 1) + at - ahead(a - 1)
        src = table
        if level < k - 1:
            src, s = _subsets(n, k - 1, s, s + end - at, table, level, layout), 0
        part = _copy_bits(out[a + 1 :], at - start, src[a + 1 :], s, end - at)
        lo, hi, w = cuts[a], cuts[a + 1], (at - start) >> 6
        if hi > lo:  # part row t - a - 1 is subset row t
            out[rows[lo:hi], w : w + part.shape[1]] |= part[above[lo:hi]]
        _stripe(out[a], at - start, end - at)
        at, a = end, a + 1
    return out


def _subset_blocks(
    system: TripleSystem, max_size: int
) -> Iterator[tuple[int, int, int, np.ndarray, np.ndarray]]:
    """(k, start, stop, M, inside) for the k-subsets of lexicographic rank
    start..stop-1, block by block, for k = 1..max_size in turn.  M is as
    _subsets gives it, with each subset's own vertices cleared from its
    third-point rows, which then hold exactly its neighbourhood; inside
    holds the bits cleared, vertices of triples inside the subset (all of
    those through its least vertex), so a 3-subset has one exactly when it
    is a triple.  Each size but the last is built as one table from the
    table of the size below when it fits within _PAIR_BYTES, and the
    blocks are slices of it; the blocks of other sizes are built one by one
    from the largest table built.  A block unpacks at most n subset rows
    and holds each of its t third-point rows about three times (packed, as
    inside, and unpacked to count), so blocks fit max(n, 3t) byte rows: 64
    sets past about 43,700 vertices in triples."""
    n = system.n
    layout = _third_rows(n, system.triple_array)
    thirds = layout[0]
    # The 3m term bounds no temporary here.  Dropping it sped spreading_6p3(101)
    # and bose_skolem(201) by 20-30% at max_size=2 but slowed cayley_latin(101).
    block = _block_size(system, max(n, 3 * len(thirds)))
    table, level = None, 0  # table holds all level-sets, the largest size built
    for k in range(1, max_size + 1):
        count = math.comb(n, k)
        fits = (n + len(thirds)) * -(-count // 64) * 8 <= _PAIR_BYTES
        if k < max_size and level == k - 1 and fits:
            table, level = _subsets(n, k, 0, count, table, level, layout), k
        for start in range(0, count, block):
            stop = min(start + block, count)
            if level == k:  # a view: the table is cleared with it
                m = table[:, start // 64 : -(-stop // 64)]
            else:
                m = _subsets(n, k, start, stop, table, level, layout)
            inside = m[n:] & m[thirds]
            m[n:] ^= inside
            yield k, start, stop, m, inside


def expander_deficiency(
    system: TripleSystem,
    max_size: int | None = None,
    budget: int = 10**8,
) -> ExpanderReport:
    """Enumerate all vertex sets of size 1..max_size and report how far
    neighbourhood sizes sit above |V'| - 3.

    max_size defaults to n // 2, the range of interest for expansion.  The
    planned subset count is checked against budget up front and raises
    BudgetExceeded stating the largest size that still fits.  The sets of
    each size, their neighbourhoods and the triples min_ratio skips come in
    packed, lex-ordered blocks built from the size below by Pascal's rule
    (see _subsets and _subset_blocks), so each block is only counted; no
    table larger than _PAIR_BYTES is built.
    """
    n = system.n
    if max_size is not None and max_size < 1:
        raise OutOfRange(f"max_size must be at least 1, got {max_size}")
    if n < (need := 2 if max_size is None else 1):
        default = " for the default max_size n // 2" if max_size is None else ""
        raise OutOfRange(f"expander reports need n >= {need}{default}, got n={n}")
    max_size = min(n // 2 if max_size is None else max_size, n)

    total = 0
    for k in range(1, max_size + 1):
        total += math.comb(n, k)
        if total > budget:
            raise BudgetExceeded(
                f"enumerating sizes up to {max_size} needs {total}+ subsets "
                f"(budget {budget}); size {k - 1} is the largest that fits"
            )

    per_size: dict[int, int] = {}
    attainers: list[tuple[int, int, int]] = []  # (deficiency, size, lex rank)
    ratios: list[Fraction] = []
    for k, start, stop, m, inside in _subset_blocks(system, max_size):
        bits = _unpack(m[n:], stop - start)
        counts = bits.sum(0, dtype=np.min_scalar_type(n))  # each at most n
        idx = int(np.argmin(counts))
        per_size[k] = min(per_size.get(k, n), int(counts[idx]))
        attainers.append((int(counts[idx]) - (k - 3), k, start + idx))
        if k == 3:  # the 3-sets holding a third point are the triples
            counts = counts[_unpack(np.bitwise_or.reduce(inside), stop - start) == 0]
        if k >= 3 and counts.size:
            ratios.append(Fraction(int(counts.min()), k))
    deficiency, k, rank = min(attainers)
    worst = frozenset(next(_combinations(n, k, 1, rank))[0].tolist())
    return ExpanderReport(deficiency, per_size, worst, min(ratios, default=None))
