"""Extremal search and ordering certificates."""

import heapq
import random
from itertools import combinations, islice
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltspread import (
    BudgetExceeded,
    OutOfRange,
    SearchResult,
    bose_skolem,
    build_system,
    cayley_latin,
    crowning,
    is_weakly_spreading,
    min_weakly_spreading,
    ordering_witness,
    spreading_6p3,
)
from ltspread.closure import _BLOCK, _pack, _weakly_spreading_each, closure
from ltspread.extremal import _level

from helpers import (
    is_valid_ordering,
    min_weakly_spreading_naive,
    normalized_orderings_naive,
    ordering_naive,
    random_linear_system,
    random_systems,
    traced_peak,
    weakly_spreading_naive,
)


def placements(n, m):
    """The m-triple level's candidates, in the order the search places them."""
    return (cand for chunk, _ in _level(n, m, 0, 10**9) for cand, _ in chunk)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_minimum_is_n_minus_3(n):
    result = min_weakly_spreading(n)
    assert result.minimum == n - 3


def test_witnesses_are_lexicographically_least():
    assert min_weakly_spreading(5).witness.triples == ((0, 1, 2), (0, 3, 4))
    assert min_weakly_spreading(6).witness.triples == (
        (0, 1, 2),
        (0, 3, 4),
        (1, 3, 5),
    )
    assert min_weakly_spreading(7).witness.triples == (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
    )
    assert min_weakly_spreading(8).witness.triples == (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 7),
    )
    assert min_weakly_spreading(9).witness.triples == (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 7),
        (2, 3, 8),
    )
    assert min_weakly_spreading(10).witness.triples == (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 7),
        (2, 3, 8),
        (2, 4, 9),
    )


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_search_agrees_with_naive_oracle(n):
    minimum, placement = min_weakly_spreading_naive(n)
    result = min_weakly_spreading(n)
    assert result.minimum == minimum
    assert result.witness == build_system(n, placement)
    # the first passing candidate the generation emits is the oracle's
    first = next(
        cand
        for cand in placements(n, minimum)
        if is_weakly_spreading(build_system(n, cand))
    )
    assert first == placement


def test_search_stops_at_first_passing_candidate():
    # a full scan of the n = 10 level places 253,504 triples
    assert min_weakly_spreading(10).nodes_explored < 1000


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_search_result_soundness(n):
    result = min_weakly_spreading(n)
    w = result.witness
    assert w.n == n
    assert len(w.triples) == result.minimum
    assert w.span() == frozenset(range(n))
    assert is_weakly_spreading(w).holds
    assert result.nodes_explored > 0
    # the ordering the generation is built on must exist for the witness
    ordering = ordering_witness(w)
    assert ordering is not None and is_valid_ordering(ordering)


def test_exhaustive_below_flag():
    assert min_weakly_spreading(6, start_at=2).exhaustive_below is True
    assert min_weakly_spreading(6).exhaustive_below is False
    # at n=5 the default start already covers every count that could span
    assert min_weakly_spreading(5).exhaustive_below is True
    assert min_weakly_spreading(7).exhaustive_below is False


def test_start_at_below_floor_finds_same_minimum():
    low = min_weakly_spreading(6, start_at=2)
    default = min_weakly_spreading(6)
    assert low.minimum == default.minimum == 3
    assert low.witness == default.witness


def test_start_at_above_floor_is_refused():
    # n=7 has minimum 4 = n - 3; starting at 6 would report 6
    with pytest.raises(OutOfRange, match=r"\[1, 4\], got 6"):
        min_weakly_spreading(7, start_at=6)
    with pytest.raises(OutOfRange):
        min_weakly_spreading(7, start_at=5)
    assert min_weakly_spreading(7, start_at=4).minimum == 4


def test_argument_validation():
    with pytest.raises(OutOfRange, match="5 <= n <= 12, got n=4"):
        min_weakly_spreading(4)
    with pytest.raises(OutOfRange, match="5 <= n <= 12, got n=13"):
        min_weakly_spreading(13)
    with pytest.raises(OutOfRange):
        min_weakly_spreading(6, start_at=0)
    with pytest.raises(BudgetExceeded) as exc:
        min_weakly_spreading(8, budget=5)  # the witness is the 6th placement
    assert str(exc.value) == (
        "search used 6 nodes, over its budget of 5, while scanning 5-triple systems"
    )
    # at n = 10 the witness is the 86th placement: a budget of 86 is enough
    assert min_weakly_spreading(10, budget=86).nodes_explored == 86
    with pytest.raises(BudgetExceeded) as exc:
        min_weakly_spreading(10, budget=85)
    assert str(exc.value) == (
        "search used 86 nodes, over its budget of 85, while scanning 7-triple systems"
    )


# The lex-least witnesses: from n = 7 on, the first n - 3 triples of n = 10's.
WITNESS_10 = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 3, 8), (2, 4, 9)
)
WITNESSES = {
    5: ((0, 1, 2), (0, 3, 4)),
    6: ((0, 1, 2), (0, 3, 4), (1, 3, 5)),
    **{n: WITNESS_10[: n - 3] for n in range(7, 11)},
}
# n -> nodes_explored at start_at = 1, 2, ..., n - 3
NODES = {
    5: (3, 2),
    6: (5, 4, 3),
    7: (7, 6, 5, 4),
    8: (10, 9, 8, 7, 6),
    9: (16, 15, 14, 13, 12, 11),
    10: (92, 91, 90, 89, 88, 87, 86),
}
STARTS = [(n, s) for n in NODES for s in (None, *range(1, n - 2))]


@pytest.mark.parametrize("n, start_at", STARTS)
def test_search_results_are_pinned(n, start_at):
    nodes = NODES[n][(start_at or n - 3) - 1]
    want = SearchResult(
        n=n,
        minimum=n - 3,
        witness=build_system(n, WITNESSES[n]),
        nodes_explored=nodes,
        exhaustive_below=(start_at or n - 3) <= -(-n // 3),
    )
    assert min_weakly_spreading(n, start_at) == want
    assert min_weakly_spreading(n, start_at, budget=nodes) == want
    with pytest.raises(BudgetExceeded) as exc:
        min_weakly_spreading(n, start_at, budget=nodes - 1)
    assert str(exc.value) == (
        f"search used {nodes} nodes, over its budget of {nodes - 1}, "
        f"while scanning {n - 3}-triple systems"
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_budgets_are_drawn(data):
    n = data.draw(st.integers(5, 10))
    start_at = data.draw(st.sampled_from([None, *range(1, n - 2)]))
    start = start_at or n - 3
    nodes = NODES[n][start - 1]
    budget = data.draw(st.integers(1, nodes + 2))
    if budget >= nodes:
        assert min_weakly_spreading(n, start_at, budget) == SearchResult(
            n=n,
            minimum=n - 3,
            witness=build_system(n, WITNESSES[n]),
            nodes_explored=nodes,
            exhaustive_below=start <= -(-n // 3),
        )
        return
    with pytest.raises(BudgetExceeded) as exc:
        min_weakly_spreading(n, start_at, budget)
    # each level below the floor costs one node: its root cannot span
    assert str(exc.value) == (
        f"search used {budget + 1} nodes, over its budget of {budget}, "
        f"while scanning {min(start + budget, n - 3)}-triple systems"
    )


@pytest.mark.parametrize("block", [21, 42, 64, 10**6])
def test_search_results_do_not_depend_on_the_chunk_cap(block):
    # at n = 10 the 7-triple candidates have 21 seeds each: caps of 1 to all
    with patch("ltspread.extremal._BLOCK", block):
        for n, start_at in STARTS:
            assert min_weakly_spreading(n, start_at).nodes_explored == (
                NODES[n][(start_at or n - 3) - 1]
            )
        assert min_weakly_spreading(10).witness.triples == WITNESS_10


def test_a_levels_partial_last_chunk_is_checked():
    # the 12 candidates of n = 6, m = 3 come in chunks of 1, 2, 4 and 5
    last = ((0, 1, 2), (2, 3, 4), (1, 4, 5))

    def only_last(n, cands):
        return (cands == np.array(last)).all(axis=(1, 2))

    with patch("ltspread.extremal._weakly_spreading_each", only_last):
        result = min_weakly_spreading(6, budget=16)  # no level past it
    assert result.witness == build_system(6, last)
    assert result.nodes_explored == 16


def test_search_builds_only_the_witness():
    # from n = 9 on, the first candidate fails: it is checked, not built
    for n in range(5, 11):
        with patch("ltspread.extremal.build_system", wraps=build_system) as spy:
            result = min_weakly_spreading(n)
        built = [build_system(*call.args) for call in spy.call_args_list]
        assert built == [result.witness], n
        # the witness is only validated: it builds neither its pair index
        # nor its kernel layout
        assert result.witness._index is None and result.witness._sweep is None


@pytest.mark.parametrize("n", range(5, 11))
def test_weak_check_on_a_levels_first_candidate_alone(n):
    # a chunk of one: it passes up to n = 8, and fails at n = 9 and 10
    first = next(placements(n, n - 3))
    holds = _weakly_spreading_each(n, np.array([first], dtype=np.intp))
    assert holds.tolist() == [weakly_spreading_naive(build_system(n, first))[0]]
    assert holds.tolist() == [n <= 8]


LEVELS = {
    (n, m): list(islice(placements(n, m), 400))
    for n, m in ((9, 6), (10, 7))
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LEVELS)), st.data())
def test_sliced_weak_check_on_search_candidates(level, data):
    n, cands = level[0], LEVELS[level]
    start = data.draw(st.integers(0, len(cands) - 1))
    chunk = cands[start : start + data.draw(st.integers(1, 40))]
    holds = _weakly_spreading_each(n, np.array(chunk, dtype=np.intp))
    assert holds.tolist() == [
        weakly_spreading_naive(build_system(n, cand))[0] for cand in chunk
    ]


def test_a_chunk_of_one_packs_only_its_seeds():
    # any chunk is one system on disjoint copies of range(n): one _pack of
    # its seeds, and no union of the candidates' triples to take
    cands = np.array(LEVELS[10, 7][:2], dtype=np.intp)
    for k in (1, 2):
        with patch("ltspread.closure._pack", wraps=_pack) as pack, patch(
            "numpy.unique", wraps=np.unique
        ) as unique:
            _weakly_spreading_each(10, cands[:k])
        assert (pack.call_count, unique.call_count) == (1, 0), k


@pytest.mark.parametrize(
    ("n", "size", "passing"), [(10, 13, 12), (11, 23, 9), (12, 23, 1)]
)
def test_weak_check_on_seeds_past_one_word(n, size, passing):
    # 12 triples give C(12, 2) = 66 seeds, so each system's rows take two
    # words; the first 12 triples of a random linear system stay linear
    drawn = (random_linear_system(random.Random(seed), n, 1.0) for seed in range(60))
    chunk = [s.triples[:12] for s in drawn if len(s.triples) >= 12]
    holds = _weakly_spreading_each(n, np.array(chunk, dtype=np.intp))
    want = [weakly_spreading_naive(build_system(n, t))[0] for t in chunk]
    assert holds.tolist() == want
    assert (len(chunk), sum(want)) == (size, passing)  # passing and failing


@pytest.mark.parametrize(
    ("n", "m", "size", "passing"), [(10, 7, 780, 102), (9, 6, 1092, 420)]
)
def test_sliced_weak_check_on_a_full_block(n, m, size, passing):
    # the largest chunk the search makes: 16,380 seeds of a 16,384-seed block
    assert size == _BLOCK // comb(m, 2)
    chunk = list(islice(placements(n, m), size))
    holds = _weakly_spreading_each(n, np.array(chunk, dtype=np.intp))
    want = [is_weakly_spreading(build_system(n, cand)).holds for cand in chunk]
    assert holds.tolist() == want
    assert sum(want) == passing


def test_a_full_block_chunk_stays_small():
    # 455 candidates of n = 12, m = 9: 16,380 seeds on 5,460 kernel rows
    chunk = np.array(list(islice(placements(12, 9), 455)), dtype=np.intp)
    assert len(chunk) == _BLOCK // comb(9, 2)
    holds, peak = traced_peak(lambda: _weakly_spreading_each(12, chunk))
    assert not holds.any()  # n = 12 needs 10 triples
    assert peak < 2.25 * 2**20


def test_minimum_verified_by_unconstrained_search_n5():
    # independent route: scan ALL spanning systems with up to 2 triples,
    # without the ordering normalization, and confirm minimum and witness
    n = 5
    all_triples = list(combinations(range(n), 3))
    assert not any(
        set(t) == set(range(n)) for t in all_triples
    )  # one triple never spans
    passing = []
    for t1, t2 in combinations(all_triples, 2):
        if set(t1) | set(t2) != set(range(n)):
            continue
        try:
            s = build_system(n, [t1, t2])
        except Exception:
            continue
        if is_weakly_spreading(s).holds:
            passing.append(s.triples)
    assert min(passing) == min_weakly_spreading(5).witness.triples


def test_degenerate_disjoint_pair_on_six_vertices():
    # two disjoint triples covering all six vertices satisfy the two-triple
    # closure condition vacuously, but admit no overlap ordering; the search
    # space is ordering-normalized, so its reported minimum for n=6 is 3
    s = build_system(6, [(0, 1, 2), (3, 4, 5)])
    assert is_weakly_spreading(s).holds
    assert ordering_witness(s) is None
    assert min_weakly_spreading(6).minimum == 3


def test_generation_emits_no_duplicates():
    sizes = {(8, 5): 648, (9, 6): 8424}
    nodes = {
        (5, 2): 4,
        (5, 3): 4,
        (6, 3): 16,
        (6, 4): 28,
        (7, 4): 100,
        (7, 5): 316,
        (8, 5): 928,
        (9, 6): 12880,
    }
    for n, m in nodes:
        items = list(_level(n, m, 0, 10**9))
        cands = [cand for chunk, _ in items for cand, _ in chunk]
        assert items[-1][1] == nodes[n, m]
        # chunks of 1, 2, 4, ... up to the cap, then what is left
        sizes = [len(chunk) for chunk, _ in items]
        want = [min(2**i, _BLOCK // comb(m, 2)) for i in range(len(sizes))]
        assert sizes[:-1] == want[:-1] and sizes[-1] < want[-1]
        # the independent oracle emits the same placements in the same order
        assert cands == list(normalized_orderings_naive(n, m))
        assert len(cands) == len(set(cands))
        assert cands == sorted(cands)
        if (n, m) in sizes:
            assert len(cands) == sizes[n, m]
        for cand in cands:
            assert cand[0] == (0, 1, 2)
            assert is_valid_ordering(cand)
            assert {v for t in cand for v in t} == set(range(n))


def test_ordering_witness_examples():
    assert ordering_witness(build_system(4, [(0, 1, 2)])) == ((0, 1, 2),)
    assert ordering_witness(build_system(3)) == ()
    assert ordering_witness(build_system(6, [(0, 1, 2), (3, 4, 5)])) is None
    for system in (bose_skolem(3), cayley_latin(3), crowning(spreading_6p3(3))):
        ordering = ordering_witness(system)
        assert ordering is not None
        assert sorted(ordering) == list(system.triples)
        assert is_valid_ordering(ordering)


def test_ordering_witness_needs_backtracking():
    # starting from (0,1,2) every continuation dead-ends; a valid ordering
    # only exists with (0,3,4) first, so every pair led by (0,1,2) must fail
    s = build_system(
        8, [(0, 1, 2), (0, 3, 4), (2, 5, 6), (3, 5, 7), (4, 6, 7)]
    )
    ordering = ordering_witness(s)
    assert ordering is not None
    assert is_valid_ordering(ordering)
    assert ordering[0] == (0, 3, 4)


def test_ordering_implies_span_bound():
    # each triple after the second adds at most one fresh vertex
    for n in (5, 6, 7, 8):
        w = min_weakly_spreading(n).witness
        assert len(w.triples) >= len(w.span()) - 3


@settings(max_examples=150, deadline=None)
@given(random_systems.filter(lambda s: len(s.triples) <= 7))
def test_ordering_witness_agrees_with_brute_force(system):
    assert ordering_witness(system) == ordering_naive(system)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([bose_skolem(5), spreading_6p3(3), crowning(spreading_6p3(3))]),
    st.randoms(use_true_random=False),
)
def test_ordering_witness_agrees_with_brute_force_when_relabelled(system, rng):
    perm = rng.sample(range(system.n), system.n)
    s = build_system(system.n, [[perm[v] for v in t] for t in system.triples])
    assert ordering_witness(s) == ordering_naive(s)


def test_ordering_witness_places_each_triple_once():
    # 672 triples: a rescan of the unplaced triples per place made 10,488
    # set intersections; the heap takes each triple in once, when it
    # meets the covered set in two vertices
    s = spreading_6p3(11)
    with patch.object(heapq, "heappush", wraps=heapq.heappush) as push:
        ordering = ordering_witness(s)
    assert ordering == ordering_naive(s)
    assert push.call_count == len(s.triples)


def test_ordering_refuted_with_at_most_one_closure_per_pair():
    # 12 triples on 9 vertices plus a disjoint one: no pair can reach the
    # far triple, which a backtracking search would learn only exponentially
    s = build_system(12, list(bose_skolem(3).triples) + [(9, 10, 11)])
    with patch("ltspread.extremal.closure", wraps=closure) as spy:
        assert ordering_witness(s) is None
    assert 0 < spy.call_count <= comb(13, 2)
