"""Closure operator and the property verifiers, cross-checked against the
naive scan-the-triples implementations in helpers."""

import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltspread import (
    BudgetExceeded,
    OutOfRange,
    VertexOutOfRange,
    bose_skolem,
    build_system,
    cayley_latin,
    closure,
    crowning,
    expander_deficiency,
    is_spreading,
    is_strongly_connected,
    is_weakly_spreading,
    neighbourhood,
    spreading_6p3,
    star_expansion,
)

from helpers import (
    closure_naive,
    expander_naive,
    first_failure_count,
    neighbourhood_naive,
    random_linear_system,
    random_systems,
    spreading_naive,
    strongly_connected_naive,
    traced_peak,
    unrank_naive,
    weakly_spreading_naive,
)


def test_neighbourhood_basics():
    s = bose_skolem(3)
    for t in s.triples:
        assert neighbourhood(s, t) == frozenset()
    # a covered pair propagates to exactly its third point
    assert neighbourhood(s, (0, 1)) == frozenset({5})
    assert neighbourhood(s, ()) == frozenset()
    assert neighbourhood(s, (4,)) == frozenset()
    with pytest.raises(VertexOutOfRange):
        neighbourhood(s, (0, 9))


def test_neighbourhood_of_noncollinear_points_has_three_elements():
    s = bose_skolem(3)
    for cand in combinations(range(9), 3):
        if not s.has_triple(cand):
            nb = neighbourhood(s, cand)
            assert len(nb) == 3
            assert nb == frozenset(neighbourhood_naive(s, cand))


def test_closure_fixed_points():
    s = bose_skolem(3)
    assert closure(s, ()) == frozenset()
    for t in s.triples:
        assert closure(s, t) == frozenset(t)


def test_closure_of_noncollinear_sets_spans_sts9():
    s = bose_skolem(3)
    full = frozenset(range(9))
    count = 0
    for cand in combinations(range(9), 3):
        if not s.has_triple(cand):
            count += 1
            assert closure(s, cand) == full
    assert count == 72


def test_closure_star_expansion_example():
    s = star_expansion(4)
    assert closure(s, [0, 1, 4, 2, 5]) == frozenset({0, 1, 2, 4, 5, 7})


def test_closure_lattice_properties():
    rng = random.Random(11)
    systems = [bose_skolem(3), spreading_6p3(3), star_expansion(4), cayley_latin(5)]
    for s in systems:
        for _ in range(40):
            k = rng.randint(0, min(6, s.n))
            sub = frozenset(rng.sample(range(s.n), k))
            sup = sub | frozenset(rng.sample(range(s.n), min(2, s.n)))
            cl = closure(s, sub)
            assert sub <= cl
            assert cl <= closure(s, sup)
            assert closure(s, cl) == cl
            assert neighbourhood(s, sub).isdisjoint(sub)
            assert cl == frozenset(closure_naive(s, sub))


@settings(max_examples=80, deadline=None)
@given(random_systems, st.randoms(use_true_random=False))
def test_closure_agrees_with_naive_oracle(s, rng):
    # seeds of every size 0..n (n: the whole vertex set), unsorted, with and
    # without repeated vertices, and with the vertices in no triple added;
    # random_systems include systems with no triples at all
    bare = sorted(set(range(s.n)) - s.span())
    seeds = [bare]
    for k in range(s.n + 1):
        seed = rng.sample(range(s.n), k)
        repeated = seed + rng.sample(seed, rng.randint(0, k))
        rng.shuffle(repeated)
        seeds += [seed, repeated, seed + bare]
    for seed in seeds:
        assert closure(s, seed) == frozenset(closure_naive(s, seed))


def _rounds(s, seed):
    """closure(s, seed) and its number of frontier rounds (one np.repeat
    each)."""
    with patch.object(np, "repeat", wraps=np.repeat) as spy:
        return closure(s, seed), spy.call_count


def _growing_rounds(s, seed) -> int:
    """Rounds in which the naive closure of seed grows."""
    cur, rounds = set(seed), 0
    while grow := neighbourhood_naive(s, cur):
        cur, rounds = cur | grow, rounds + 1
    return rounds


def test_closure_stops_once_every_vertex_is_in():
    s = spreading_6p3(101)
    seed = (0, 1, 5)
    assert not s.has_triple(seed)
    cl, rounds = _rounds(s, seed)
    assert cl == frozenset(range(609))
    # the round that brings the last vertices in is the last one
    assert rounds == _growing_rounds(s, seed) > 1


@pytest.mark.parametrize("case", ["triple", "closed-4-set"])
def test_closure_stops_when_no_vertex_joins(case):
    if case == "triple":
        s = spreading_6p3(101)
        seed = s.triples[1000]
    else:
        s, seed = cayley_latin(7), (0, 1, 2, 3)
    cl, rounds = _rounds(s, seed)
    assert cl == frozenset(seed) and len(cl) < s.n
    # one round reads the seed's triples and finds no vertex to add
    assert rounds == _growing_rounds(s, seed) + 1 == 1


def test_is_spreading_on_sts9_both_modes():
    s = bose_skolem(3)
    reduced = is_spreading(s)
    brute = is_spreading(s, "brute_force")
    assert reduced.holds and brute.holds
    assert reduced.checked_count == 72
    assert bool(reduced) is True


def test_is_spreading_witness_is_first_failing_threeset():
    v = is_spreading(cayley_latin(3))
    assert not v.holds
    assert v.witness == frozenset({0, 1, 2})
    assert bool(v) is False


def test_is_spreading_rejects_bad_arguments():
    with pytest.raises(ValueError):
        is_spreading(bose_skolem(3), "fast")
    with pytest.raises(OutOfRange):
        is_spreading(build_system(2))
    with pytest.raises(OutOfRange, match="n=21 exceeds 20"):
        is_spreading(bose_skolem(7), "brute_force")
    # n = 20 is scanned, and its first seed {0, 1, 3} fails
    v = is_spreading(build_system(20, [(0, 1, 2)]), "brute_force")
    assert (v.holds, v.witness, v.checked_count) == (False, {0, 1, 3}, 1)


def test_unknown_mode_is_out_of_range():
    with pytest.raises(OutOfRange, match="unknown mode 'fast'"):
        is_spreading(bose_skolem(3), "fast")


def test_reduced_equals_brute_force_on_random_systems():
    rng = random.Random(7)
    for _ in range(30):
        s = random_linear_system(rng, rng.randint(5, 12))
        reduced = is_spreading(s)
        brute = is_spreading(s, "brute_force")
        assert reduced.holds == brute.holds
        assert reduced.witness == brute.witness
        holds, witness = spreading_naive(s)
        assert reduced.holds == holds and reduced.witness == witness


def test_is_weakly_spreading_basics():
    assert is_weakly_spreading(build_system(5, [(0, 1, 2), (2, 3, 4)])).holds
    single = is_weakly_spreading(build_system(4, [(0, 1, 2)]))
    assert single.holds and single.checked_count == 0
    v = is_weakly_spreading(star_expansion(4))
    assert not v.holds
    assert v.witness == ((0, 1, 4), (0, 2, 5))


def test_is_weakly_spreading_matches_naive_oracle():
    rng = random.Random(55)
    systems = [cayley_latin(3), star_expansion(5), crowning(spreading_6p3(3), range(5))]
    systems += [random_linear_system(rng, rng.randint(5, 11)) for _ in range(20)]
    for s in systems:
        mine = is_weakly_spreading(s)
        holds, witness = weakly_spreading_naive(s)
        assert mine.holds == holds
        if not holds:
            assert mine.witness == witness


def test_is_strongly_connected_examples():
    v = is_strongly_connected(build_system(6, [(0, 1, 2), (3, 4, 5)]))
    assert not v.holds
    assert v.witness == frozenset({0, 1, 2, 3})
    assert is_strongly_connected(bose_skolem(3)).holds
    assert is_strongly_connected(spreading_6p3(3)).holds
    # no order cap: every 4-set of the empty system on 27 points is closed
    v = is_strongly_connected(build_system(27))
    assert not v.holds
    assert v.witness == frozenset({0, 1, 2, 3})
    assert v.checked_count == 17550


def test_is_strongly_connected_matches_partition_oracle():
    rng = random.Random(99)
    systems = [
        build_system(6, [(0, 1, 2), (3, 4, 5)]),
        build_system(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6)]),
        star_expansion(4),
        cayley_latin(3),
        bose_skolem(3),
    ]
    systems += [random_linear_system(rng, rng.randint(5, 10)) for _ in range(25)]
    for s in systems:
        mine = is_strongly_connected(s)
        holds, witness = strongly_connected_naive(s)
        assert mine.holds == holds
        if not holds:
            assert mine.witness == witness


def test_expander_report_sts9():
    rep = expander_deficiency(bose_skolem(3))
    assert rep.min_deficiency == 0
    assert rep.worst_set == frozenset({0, 1, 5})
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 1, 3: 0, 4: 3}
    assert rep.min_ratio == Fraction(3, 4)


def test_expander_matches_naive_oracle():
    rng = random.Random(4242)
    systems = [bose_skolem(3), star_expansion(4), cayley_latin(3), bose_skolem(5)]
    systems += [random_linear_system(rng, rng.randint(5, 12)) for _ in range(10)]
    for s in systems:
        rep = expander_deficiency(s)
        want = expander_naive(s)
        assert rep.min_deficiency == want["min_deficiency"]
        assert rep.per_size_min_neighbourhood == want["per_size_min_neighbourhood"]
        assert rep.worst_set == want["worst_set"]
        assert rep.min_ratio == want["min_ratio"]


def test_expander_small_max_size_has_no_ratio():
    rep = expander_deficiency(bose_skolem(3), max_size=2)
    assert rep.min_ratio is None
    assert set(rep.per_size_min_neighbourhood) == {1, 2}


def test_expander_guards():
    with pytest.raises(BudgetExceeded) as exc:
        expander_deficiency(bose_skolem(5), max_size=7, budget=100)
    assert "size" in str(exc.value)
    # no order cap: n = 64 is accepted within the subset budget
    rep = expander_deficiency(build_system(64), max_size=2)
    assert rep.min_deficiency == 1
    assert rep.worst_set == frozenset({0, 1})
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 0}
    assert rep.min_ratio is None
    with pytest.raises(OutOfRange):
        expander_deficiency(bose_skolem(3), max_size=0)


def test_expander_too_few_vertices_names_the_vertex_count():
    for n in (0, 1):
        match = f"need n >= 2 for the default .*got n={n}"
        with pytest.raises(OutOfRange, match=match):
            expander_deficiency(build_system(n))
    with pytest.raises(OutOfRange, match="need n >= 1, got n=0"):
        expander_deficiency(build_system(0), max_size=1)
    rep = expander_deficiency(build_system(1), max_size=1)
    assert rep.per_size_min_neighbourhood == {1: 0}
    assert rep.worst_set == frozenset({0})


def test_expander_worst_set_prefers_smallest_size_then_lex():
    # two disjoint triples: every triple is closed (deficiency 0 at size 3)
    s = build_system(6, [(0, 1, 2), (3, 4, 5)])
    rep = expander_deficiency(s, max_size=5)
    # size-4 closed sets also reach deficiency -1, smaller than the triples'
    assert rep.min_deficiency == -1
    assert rep.worst_set == frozenset({0, 1, 2, 3})
    want = expander_naive(s, max_size=5)
    assert rep.worst_set == want["worst_set"]
    assert rep.min_deficiency == want["min_deficiency"]


# The batch kernel closes seeds in blocks of kernel._BLOCK.  Each agreement
# test runs at the real block size and at 64 seeds per block, where
# witnesses fall in later blocks and the last block is partial.
kernel = importlib.import_module("ltspread.closure")
BLOCK_SIZES = [kernel._BLOCK, 64]
# At 256 bytes the expander builds no seed table past 256 bytes (at n = 12,
# none past size 1): it assembles those sizes block by block from ranges of
# the size below.
PAIR_BYTES = [kernel._PAIR_BYTES, 256]


def _packed_thirds(s, rows, vertices) -> np.ndarray:
    """vertices(s, row) for each seed row, packed as the expander's blocks
    hold their third-point rows: one row per vertex, one bit per seed."""
    bits = np.zeros((s.n, -(-len(rows) // 64) * 64), dtype=bool)
    for i, row in enumerate(rows):
        bits[sorted(vertices(s, row)), i] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _on_triples(s, row, least=False) -> set[int]:
    """The vertices of the triples inside the sorted row, or of only those
    through its least vertex."""
    inside = [t for t in s.triples if set(t) <= set(row)]
    return {v for t in inside if not least or t[0] == row[0] for v in t}


@pytest.mark.parametrize("pair_bytes", PAIR_BYTES)
def test_expander_seed_blocks_are_the_lex_ordered_subsets(pair_bytes):
    # each block the expander counts holds the lex-ordered k-subsets and,
    # under them, their neighbourhoods, one row per vertex; vertices in no
    # triple, bare systems' included, have empty rows
    rng = random.Random(335)
    systems = [build_system(n) for n in range(1, 13)] + [bose_skolem(3)]
    systems += [random_linear_system(rng, n, 1.5) for n in range(3, 13)]
    # vertices in no triple at the low end, the middle and the high end
    padded = [build_system(9, [t]) for t in [(0, 1, 2), (3, 4, 5), (6, 7, 8)]]
    padded += [build_system(11, bose_skolem(3).triple_array + 2)]
    for s in padded:  # a free vertex and a triple: four vertices, no neighbour
        with patch.object(kernel, "_PAIR_BYTES", pair_bytes):
            rep = expander_deficiency(s, max_size=4)
        assert rep.per_size_min_neighbourhood[4] == 0 and rep.min_deficiency == -1
    systems += padded
    builder = kernel._subset_blocks
    for s in systems:
        n, seen = s.n, []

        def spy(*args):
            for k, start, stop, m, inside in builder(*args):
                seen.append((k, start, stop, m.copy(), inside))
                yield k, start, stop, m, inside

        with patch.object(kernel, "_PAIR_BYTES", pair_bytes), patch.object(
            kernel, "_subset_blocks", spy
        ):
            expander_deficiency(s, max_size=n, budget=2**n)
            block = kernel._block_size(s, 3 * n)
        blocks = iter(seen)
        for k in range(1, n + 1):
            subsets = np.array(list(combinations(range(n), k)))
            for start in range(0, len(subsets), block):
                rows = subsets[start : start + block]
                got_k, got_start, stop, m, inside = next(blocks)
                assert (got_k, got_start, stop) == (k, start, start + len(rows))
                np.testing.assert_array_equal(m[:n], kernel._pack(n, rows))
                nbhd = _packed_thirds(s, rows, neighbourhood_naive)
                np.testing.assert_array_equal(m[n:], nbhd)
                # inside, the bits cleared, are third points of covered pairs
                # inside the set: vertices of its triples.  It holds those of
                # the triples through its least vertex, and may miss the
                # others (a table it is built from has them cleared).
                on = _packed_thirds(s, rows, _on_triples)
                least = _packed_thirds(s, rows, lambda s, r: _on_triples(s, r, True))
                assert not (inside & ~on).any()
                assert not (least & ~inside).any()
                if k <= 3:  # one triple at most, through the least vertex
                    np.testing.assert_array_equal(inside, on)
                if k == 3:
                    held = kernel._unpack(np.bitwise_or.reduce(inside), len(rows))
                    assert held.tolist() == [s.has_triple(r) for r in rows.tolist()]
        assert next(blocks, None) is None


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(random_systems)
def test_kernel_verifiers_agree_with_naive_oracles(block, s):
    with patch.object(kernel, "_BLOCK", block):
        spreading = is_spreading(s)
        weak = is_weakly_spreading(s)
        strong = is_strongly_connected(s)
    holds, witness = spreading_naive(s)
    tset = set(s.triples)
    scan = (frozenset(c) for c in combinations(range(s.n), 3) if c not in tset)
    assert (spreading.holds, spreading.witness) == (holds, witness)
    assert spreading.checked_count == first_failure_count(scan, witness)
    holds, witness = weakly_spreading_naive(s)
    scan = combinations(s.triples, 2)
    assert (weak.holds, weak.witness) == (holds, witness)
    assert weak.checked_count == first_failure_count(scan, witness)
    holds, witness = strongly_connected_naive(s)
    assert (strong.holds, strong.witness) == (holds, witness)
    assert strong.checked_count == comb(s.n, 4)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(random_systems, st.randoms(use_true_random=False))
def test_brute_force_and_closure_agree_with_naive_oracles(block, s, rng):
    subsets = [rng.sample(range(s.n), k) for k in range(s.n + 1)]
    with patch.object(kernel, "_BLOCK", block):
        brute = is_spreading(s, "brute_force")
        closures = [closure(s, sub) for sub in subsets]
    holds, witness = spreading_naive(s)
    assert (brute.holds, brute.witness) == (holds, witness)
    tset = set(s.triples)
    scan = (
        frozenset(c)
        for k in range(3, s.n + 1)
        for c in combinations(range(s.n), k)
        if c not in tset
    )
    assert brute.checked_count == first_failure_count(scan, witness)
    for sub, cl in zip(subsets, closures):
        assert cl == frozenset(closure_naive(s, sub))


@st.composite
def padded_systems(draw):
    """random_systems with up to two more vertices, in no triple, and the
    labels shuffled, so that vertices in no triple may fall anywhere."""
    s = draw(random_systems)
    n = s.n + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    return build_system(n, [[perm[v] for v in t] for t in s.triples])


@pytest.mark.parametrize(
    "block, pair_bytes",
    [pytest.param(b, PAIR_BYTES[0], id=str(b)) for b in BLOCK_SIZES]
    + [pytest.param(64, PAIR_BYTES[1], id=f"64-pair_bytes_{PAIR_BYTES[1]}")],
)
@settings(max_examples=25, deadline=None)
@given(padded_systems(), st.data())
def test_kernel_expander_agrees_with_naive_oracle(block, pair_bytes, s, data):
    max_size = data.draw(st.none() | st.integers(1, s.n), label="max_size")
    with patch.object(kernel, "_BLOCK", block), patch.object(
        kernel, "_PAIR_BYTES", pair_bytes
    ):
        rep = expander_deficiency(s, max_size)
    want = expander_naive(s, max_size)
    assert rep.min_deficiency == want["min_deficiency"]
    assert rep.per_size_min_neighbourhood == want["per_size_min_neighbourhood"]
    assert rep.worst_set == want["worst_set"]
    assert rep.min_ratio == want["min_ratio"]


def test_expander_budget_is_exactly_the_planned_subsets():
    # sizes 1..7 of 15 vertices are 16,383 subsets: that budget passes
    s = bose_skolem(5)
    assert sum(comb(15, k) for k in range(1, 8)) == 16383
    assert expander_deficiency(s, max_size=7, budget=16383).min_deficiency == 0
    with pytest.raises(BudgetExceeded) as exc:
        expander_deficiency(s, max_size=7, budget=16382)
    assert str(exc.value) == (
        "enumerating sizes up to 7 needs 16383+ subsets (budget 16382); "
        "size 6 is the largest that fits"
    )


def test_expander_default_budget_is_checked_before_any_subset():
    # the default max_size is 14, and sizes 1..13 of 28 vertices pass 10^8
    # subsets; a larger default budget would enumerate, which fails at once
    unplanned = patch.object(kernel, "_subset_blocks", side_effect=AssertionError)
    with unplanned, pytest.raises(BudgetExceeded) as exc:
        expander_deficiency(build_system(28))
    assert str(exc.value) == (
        "enumerating sizes up to 14 needs 114159427+ subsets (budget 100000000); "
        "size 12 is the largest that fits"
    )


def test_expander_builds_each_table_from_the_one_below():
    # on 21 vertices, sizes 1..4 are one table each, built from the table
    # of the size below, and size 5's 20,349 sets are two blocks built from
    # the size-4 table: six builds in all
    with patch.object(kernel, "_subsets", wraps=kernel._subsets) as spy:
        rep = expander_deficiency(bose_skolem(7), max_size=5)
    assert spy.call_count == 6
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 1, 3: 0, 4: 3, 5: 3}


@pytest.mark.parametrize("pair_bytes, builds", [(31584, 50), (31583, 125)])
def test_expander_table_cap_holds_a_table_of_its_size(pair_bytes, builds):
    # the size-4 table of bose_skolem(7), 42 rows of 94 words, is 31,584
    # bytes: a cap of that size still holds it (four tables, then size 5 in
    # 46 blocks of 448 sets), and one byte less does not
    with patch.object(kernel, "_PAIR_BYTES", pair_bytes), patch.object(
        kernel, "_subsets", wraps=kernel._subsets
    ) as spy:
        rep = expander_deficiency(bose_skolem(7), max_size=5)
    assert spy.call_count == builds
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 1, 3: 0, 4: 3, 5: 3}


@pytest.mark.parametrize("pair_bytes", PAIR_BYTES)
@pytest.mark.parametrize(
    "build, ratio",
    [(lambda: crowning(spreading_6p3(3)), 0), (lambda: bose_skolem(5), 1)],
    ids=["crowning(spreading_6p3(3))", "bose_skolem(5)"],
)
def test_expander_size_three_ratio_skips_exactly_the_triples(build, ratio, pair_bytes):
    # three pendant vertices of the crowning are a non-triple 3-set with no
    # neighbourhood; in the Steiner system every non-triple 3-set has three
    # distinct third points, while each triple has none
    s = build()
    with patch.object(kernel, "_PAIR_BYTES", pair_bytes):
        rep = expander_deficiency(s, max_size=3)
    want = expander_naive(s, max_size=3)
    assert rep.min_ratio == want["min_ratio"] == ratio
    assert rep.min_deficiency == want["min_deficiency"]
    assert rep.per_size_min_neighbourhood == want["per_size_min_neighbourhood"]
    assert rep.worst_set == want["worst_set"]


def test_expander_ranks_no_triple():
    # the 924 triples are read off the blocks, not ranked one by one
    with patch.object(kernel, "_rank", wraps=kernel._rank) as rank:
        rep = expander_deficiency(spreading_6p3(13), max_size=3)
    assert rank.call_count == 0
    assert rep.min_ratio == Fraction(1, 3)


def test_packed_words_are_little_endian_on_any_host():
    # bit s of a packed row is numeric bit s % 64 of word s // 64, for the
    # packed seeds and for the expander's tables, whatever byte order the
    # words are stored in
    layout = kernel._third_rows(9, bose_skolem(3).triple_array)
    rows = np.array(list(combinations(range(9), 3)))
    table = kernel._subsets(9, 3, 0, len(rows), None, 0, layout)
    for words in (kernel._pack(9, rows), table):
        bit = np.arange(words.shape[1] * 64)
        numeric = words[:, bit // 64] >> (bit % 64).astype(np.uint64) & np.uint64(1)
        for order in (">u8", "<u8"):
            got = kernel._unpack(words.astype(order), len(bit))
            np.testing.assert_array_equal(got, numeric)
        # both hold each 3-set at its lex rank in their vertex rows
        members = np.zeros((9, len(bit)), dtype=np.uint64)
        members[rows.T, np.arange(len(rows))] = 1
        np.testing.assert_array_equal(numeric[:9], members)


@st.composite
def system_chunks(draw):
    """n and 1-40 linear systems on range(n) as triple tuples.  Some repeat
    an earlier system or a prefix of one, so systems share triples and may
    hold 0 or 1 triple; some use fewer than n vertices."""
    n = draw(st.integers(3, 12))
    systems: list[tuple] = []
    for _ in range(draw(st.integers(1, 40))):
        if systems and draw(st.integers(0, 3)) == 0:
            base = draw(st.sampled_from(systems))
            systems.append(base[: draw(st.integers(0, len(base)))])
            continue
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        fill = draw(st.sampled_from([0.5, 1.0, 1.5]))
        # the vertices from order up stay bare
        order = max(3, n - draw(st.sampled_from([0, 0, 0, 1, 2])))
        systems.append(random_linear_system(rng, order, fill).triples)
    return n, systems


@settings(max_examples=60, deadline=None)
@given(system_chunks())
def test_sliced_weak_check_agrees_with_naive_oracle(chunk):
    n, systems = chunk
    want = {t: weakly_spreading_naive(build_system(n, t))[0] for t in set(systems)}
    by_size: dict[int, list[tuple]] = {}  # the kernel takes one triple count
    for t in systems:
        by_size.setdefault(len(t), []).append(t)
    for m, group in by_size.items():
        cands = np.array(group, dtype=np.intp).reshape(len(group), m, 3)
        holds = kernel._weakly_spreading_each(n, cands)
        assert holds.tolist() == [want[t] for t in group]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_kernel_deep_failure(block):
    # the only failing 3-sets are {14, 16, x} for x in 21, 28, 29, 31
    sp5 = spreading_6p3(5)
    cut = build_system(sp5.n, sp5.triples[:120] + sp5.triples[121:])
    with patch.object(kernel, "_BLOCK", block):
        v = is_spreading(cut)
    assert not v.holds
    assert v.witness == frozenset({14, 16, 21})
    assert v.checked_count == 4389


def relabelled_cut(system, rng):
    """system relabelled at random, less one random triple."""
    perm = rng.sample(range(system.n), system.n)
    triples = [[perm[v] for v in t] for t in system.triples]
    del triples[rng.randrange(len(triples))]
    return build_system(system.n, triples)


# Steiner and maximal random linear systems less one triple: the cut splits
# swap classes, and the failures sit deep in the scan, past many blocks of 64
cut_systems = st.builds(
    relabelled_cut,
    st.sampled_from([bose_skolem(3), bose_skolem(5)])
    | st.builds(
        lambda seed, n: random_linear_system(random.Random(seed), n, 10.0),
        st.integers(0, 2**32 - 1),
        st.integers(3, 12),
    ),
    st.randoms(use_true_random=False),
)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
@given(st.one_of(cut_systems, random_systems))
def test_swap_filter_agrees_with_naive_oracle(block, s):
    with patch.object(kernel, "_BLOCK", block):
        v = is_spreading(s)
    holds, witness = spreading_naive(s)
    tset = set(s.triples)
    scan = (frozenset(c) for c in combinations(range(s.n), 3) if c not in tset)
    assert (v.holds, v.witness) == (holds, witness)
    assert v.checked_count == first_failure_count(scan, witness)


@settings(max_examples=60, deadline=None)
@given(st.one_of(cut_systems, random_systems))
def test_swap_filter_keeps_the_sets_no_swap_lowers(s):
    # swapping a point of S = {x, y, z} for the third point w of a covered
    # pair inside S keeps the closure; the filter keeps S exactly when S is
    # no triple and no such swap is lexicographically lower
    rows = np.array(list(combinations(range(s.n), 3)))
    want = []
    for row in rows.tolist():
        lower = s.has_triple(row)
        for a, b in combinations(row, 2):
            w = s.third_point(a, b)
            if w is not None and w not in row:
                lower |= any(
                    sorted({w, *row} - {c}) < row for c in (a, b)
                )
        want.append(not lower)
    assert kernel._swap_minimal(s, rows).tolist() == want


@pytest.mark.parametrize(
    "p, drop, want",
    [(11, None, (True, None, 51722)), (17, 800, (False, {1, 54, 66}, 9267))],
)
def test_is_spreading_at_scale(p, drop, want):
    s = spreading_6p3(p)
    if drop is not None:
        s = build_system(s.n, s.triples[:drop] + s.triples[drop + 1 :])
    v = is_spreading(s)
    assert (v.holds, v.witness, v.checked_count) == want


def test_is_spreading_counts_past_int64_ranks():
    # n^3 passes 2^63 at n = 2,097,152, so int64 lex ranks would wrap here;
    # the witness is the second 3-set and the only triple lies below it
    v = is_spreading(build_system(2_200_000, [(0, 1, 2)]))
    assert (v.holds, v.witness, v.checked_count) == (False, {0, 1, 3}, 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_inverts_combinations(data):
    n = data.draw(st.integers(0, 30))
    k = data.draw(st.integers(0, n))
    r = data.draw(st.integers(0, comb(n, k) - 1))
    assert kernel._rank(n, next(kernel._combinations(n, k, 1, r))[0]) == r


def test_rank_past_int64_products():
    # (n - x)^3 passes 2^63 at these n, where int64 rank formulas wrap
    assert kernel._rank(2_200_000, (0, 1, 3)) == 1
    last = (2_999_997, 2_999_998, 2_999_999)
    assert kernel._rank(3_000_000, last) == 4499995500000999999
    assert comb(3_000_000, 3) - 1 == 4499995500000999999


def test_combinations_stop_at_int64_ranks():
    # C(121_977, 4) - 1 is the largest 4-subset rank inside int64
    last = comb(121_977, 4) - 1
    assert next(kernel._combinations(121_977, 4, 1, last)).tolist() == [
        [121_973, 121_974, 121_975, 121_976]
    ]
    with pytest.raises(OutOfRange, match=r"C\(121978, 4\)"):
        is_strongly_connected(build_system(121_978, [(0, 1, 2)]))
    with pytest.raises(OutOfRange, match=r"C\(3810780, 3\)"):
        is_spreading(build_system(3_810_780, [(0, 1, 2)]))


@pytest.mark.parametrize(
    "n,k,first",
    [
        (3_810_779, 3, 0),  # C(n, 3) - 1 is the largest 3-subset rank in int64
        (3_810_779, 3, 1_000_003),
        (3_810_779, 3, comb(3_810_779, 3) - 50),
        (70, 65, 0),  # C(69, 35) passes int64; C(70, 65) is 12,103,014
        (70, 65, 5_000_000),
        (70, 65, comb(70, 65) - 50),
    ],
)
def test_combinations_unrank_in_python_ints(n, k, first):
    ranks = range(first, min(first + 64, comb(n, k)))
    block = next(kernel._combinations(n, k, 64, first))
    assert block.tolist() == [unrank_naive(n, k, r) for r in ranks]


def test_swap_filter_closes_only_swap_minimal_seeds():
    # 13,902 non-triple 3-sets, of which the kernel closes 1,428
    with patch.object(kernel, "_close_batch", wraps=kernel._close_batch) as spy:
        v = is_spreading(spreading_6p3(7))
    assert (v.holds, v.checked_count) == (True, comb(45, 3) - 288)
    assert sum(len(call.args[1]) for call in spy.call_args_list) == 1428


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_strong_connectivity_stops_at_closed_4set(block):
    # {0,1,2,3} is closed in cayley_latin(7): no side can be smaller, so the
    # scan stops after the first block yet reports the full seed count
    with patch.object(kernel, "_BLOCK", block), patch.object(
        kernel, "_close_batch", wraps=kernel._close_batch
    ) as close_batch:
        v = is_strongly_connected(cayley_latin(7))
    assert not v.holds
    assert v.witness == frozenset({0, 1, 2, 3})
    assert v.checked_count == comb(21, 4) == 5985
    assert close_batch.call_count == 1


def test_kernel_memory_is_bounded_by_triple_count():
    # 4,992 triples: a full 2^14-seed block of a verifier's sweep would hold
    # two pair-indexed temporaries of about 29 MiB each, and smaller blocks
    # cap each at 8 MiB; the expander, which sweeps no pairs, holds neither,
    # and sizes its blocks for the vertices of its triples (see _subset_blocks)
    s = spreading_6p3(31)
    rep, peak = traced_peak(lambda: expander_deficiency(s, max_size=2))
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 0}
    assert peak < 24 * 2**20
    # systems up to 288 triples keep full blocks
    assert kernel._block_size(spreading_6p3(7)) == kernel._BLOCK


def test_kernel_memory_is_bounded_by_vertex_count():
    # 2^14 seeds on 20,000 vertices would be a 328 MB byte matrix; blocks of
    # 384 seeds keep any n-row byte matrix within _PAIR_BYTES
    s = build_system(20000)
    assert kernel._block_size(s) == 384
    rep, peak = traced_peak(lambda: expander_deficiency(s, max_size=1))
    assert rep.per_size_min_neighbourhood == {1: 0}
    assert (rep.min_deficiency, rep.worst_set) == (2, frozenset({0}))
    assert peak < 32 * 2**20


def test_expander_never_builds_a_table_beyond_pair_bytes():
    # the size-2 table on 600 vertices would take 12.9 MiB
    rep, peak = traced_peak(lambda: expander_deficiency(build_system(600), max_size=2))
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 0}
    assert peak < kernel._PAIR_BYTES


@pytest.mark.parametrize(
    "build, worst, block",
    [
        (lambda: spreading_6p3(101), 307, 384),
        (lambda: crowning(spreading_6p3(11)), 79, 6976),
        (lambda: star_expansion(30), 59, 5952),
    ],
    ids=["spreading_6p3(101)", "crowning(spreading_6p3(11))", "star_expansion(30)"],
)
def test_expander_memory_with_many_triples(build, worst, block):
    # spreading_6p3(101), 51,612 triples on 609 vertices: sweeping the
    # 154,836 covered pairs for each block held pair-indexed temporaries past
    # 8 MiB.  The sparse systems, with over n/3 vertices in triples, hold
    # about three byte rows per such vertex in a block: blocks sized for n
    # rows alone would peak at 14.1 and 16.5 MiB.  The dense system's
    # blocks are held to the verifiers' size by the 3m term.
    s = build()
    rep, peak = traced_peak(lambda: expander_deficiency(s, max_size=2))
    assert rep.per_size_min_neighbourhood == {1: 0, 2: 0}
    assert (rep.min_deficiency, rep.worst_set) == (1, frozenset({0, worst}))
    assert peak < kernel._PAIR_BYTES
    blocks = kernel._subset_blocks(s, 2)
    assert next(stop - start for k, start, stop, *_ in blocks if k == 2) == block


def test_closure_memory_is_bounded_by_the_pairs_read():
    # a round holds about 18 bytes per pair it reads; on spreading_6p3(101)
    # the largest rounds read up to about 126,000 of its 154,836 pairs.  The
    # kernel layout, built on first read, is the system's memory, not a round's.
    s = spreading_6p3(101)
    s.sweep_pairs
    rng = random.Random(101)
    for _ in range(20):
        q = rng.sample(range(s.n), 3)
        cl, peak = traced_peak(lambda: closure(s, q))
        assert cl == frozenset(range(s.n))  # none of these 3-sets is a triple
        assert peak <= 4 * 2**20


def test_closure_memory_on_many_bare_vertices():
    # per vertex: two intp group offsets and two bool masks, 18 bytes
    s = build_system(200_000)
    cl, peak = traced_peak(lambda: closure(s, (0, 1, 2)))
    assert cl == frozenset({0, 1, 2})
    assert peak <= 32 * s.n
