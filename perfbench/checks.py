"""Independent output checks for the benchmark's operations.

Nothing here calls into ltspread's operators: closures and neighbourhoods
are recomputed from the triple list, so a wrong answer from the package
cannot also pass its own check.  Each check returns None when the output
is right and a one-line reason otherwise.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable


def pair_table(triples: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    table = {}
    for x, y, z in triples:
        table[(x, y)] = z
        table[(x, z)] = y
        table[(y, z)] = x
    return table


def close(table: dict[tuple[int, int], int], seed: Iterable[int]) -> set[int]:
    """Fixed point of third-point propagation, by repeated full sweeps."""
    members = set(seed)
    grew = True
    while grew:
        grew = False
        for x, y in combinations(sorted(members), 2):
            z = table.get((x, y))
            if z is not None and z not in members:
                members.add(z)
                grew = True
    return members


def neighbourhood(table: dict[tuple[int, int], int], subset: Iterable[int]) -> set[int]:
    inside = set(subset)
    return {
        z
        for x, y in combinations(sorted(inside), 2)
        if (z := table.get((x, y))) is not None and z not in inside
    }


def lex_rank(combo: tuple[int, ...], n: int) -> int:
    """0-based position of a sorted combo in itertools.combinations(range(n), k)."""
    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def check_holds(verdict, expected_count: int) -> str | None:
    if not verdict.holds:
        return f"expected the property to hold, got witness {verdict.witness}"
    if verdict.checked_count != expected_count:
        return f"checked_count {verdict.checked_count} != {expected_count}"
    return None


def check_spreading_failure(system, verdict, recorded=None) -> str | None:
    """The witness is a non-triple 3-set that fails to close, found where
    the size-then-lex scan says (checked_count), and equals recorded."""
    if verdict.holds:
        return "expected a failing verdict"
    w = tuple(sorted(verdict.witness))
    triples = system.triples
    if len(w) != 3 or w in set(triples):
        return f"witness {w} is not a non-triple 3-set"
    if len(close(pair_table(triples), w)) == system.n:
        return f"witness {w} closes to the whole vertex set"
    expected = lex_rank(w, system.n) + 1 - sum(1 for t in triples if t < w)
    if verdict.checked_count != expected:
        return f"checked_count {verdict.checked_count} != rank {expected} of {w}"
    if recorded is not None and w != recorded:
        return f"witness {w} != recorded {recorded}"
    return None


def check_weak_failure(system, verdict, recorded=None) -> str | None:
    if verdict.holds:
        return "expected a failing verdict"
    t1, t2 = verdict.witness
    triples = system.triples
    if t1 not in triples or t2 not in triples or not t1 < t2:
        return f"witness {verdict.witness} is not an ordered pair of triples"
    if len(close(pair_table(triples), t1 + t2)) == system.n:
        return f"witness {verdict.witness} closes to the whole vertex set"
    rank = lex_rank((triples.index(t1), triples.index(t2)), len(triples)) + 1
    if verdict.checked_count != rank:
        return f"checked_count {verdict.checked_count} != rank {rank} of witness"
    if recorded is not None and (t1, t2) != recorded:
        return f"witness {(t1, t2)} != recorded {recorded}"
    return None


def check_strong_failure(system, verdict, recorded=None) -> str | None:
    """The witness is a proper closed set of size >= 4, after a full scan."""
    if verdict.holds:
        return "expected a failing verdict"
    w = set(verdict.witness)
    if not 4 <= len(w) < system.n:
        return f"witness size {len(w)} outside [4, {system.n})"
    if close(pair_table(system.triples), w) != w:
        return f"witness {sorted(w)} is not closed"
    if verdict.checked_count != comb(system.n, 4):
        return f"checked_count {verdict.checked_count} != C({system.n}, 4)"
    if recorded is not None and w != set(recorded):
        return f"witness {sorted(w)} != recorded {sorted(recorded)}"
    return None


def check_expander(system, report, expected, recorded_worst=None) -> str | None:
    """Relabelling-invariant fields equal expected; the worst set attains
    the minimum deficiency."""
    got = (report.min_deficiency, report.per_size_min_neighbourhood, report.min_ratio)
    if got != expected:
        return f"report {got} != expected {expected}"
    worst = set(report.worst_set)
    deficiency = len(neighbourhood(pair_table(system.triples), worst)) - (len(worst) - 3)
    if deficiency != report.min_deficiency:
        return f"worst set {sorted(worst)} has deficiency {deficiency}"
    if recorded_worst is not None and worst != set(recorded_worst):
        return f"worst set {sorted(worst)} != recorded {sorted(recorded_worst)}"
    return None
