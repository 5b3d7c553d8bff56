"""Data model: validation, lookup, and skeleton queries."""

import random
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltspread import core, errors
from ltspread import (
    DegenerateTriple,
    DuplicatePairCoverage,
    OutOfRange,
    VertexOutOfRange,
    bose_skolem,
    build_system,
    neighbourhood,
    spreading_6p3,
)

from helpers import (
    first_defect_naive,
    neighbourhood_naive,
    random_linear_system,
    random_systems,
)


def test_triples_are_sorted_and_deduplicated():
    s = build_system(5, [(2, 1, 0), (0, 1, 2), (4, 3, 2)])
    assert s.triples == ((0, 1, 2), (2, 3, 4))


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRange):
        build_system(4, [(0, 1, 4)])
    with pytest.raises(VertexOutOfRange):
        build_system(4, [(-1, 1, 2)])
    with pytest.raises(VertexOutOfRange):
        build_system(-1, [])
    # pair codes x*n + y must fit in a machine integer
    with pytest.raises(VertexOutOfRange, match="vertex count must be at most"):
        build_system(2**62, [])
    with pytest.raises(VertexOutOfRange) as exc:
        build_system(4, [(0, 1, 2), (10**30, 1, 0)])
    assert exc.value.triple == (0, 1, 10**30)


def test_degenerate_triple_rejected():
    with pytest.raises(DegenerateTriple):
        build_system(5, [(0, 0, 1)])
    with pytest.raises(DegenerateTriple):
        build_system(5, [(0, 1)])


def test_duplicate_pair_reports_the_pair():
    with pytest.raises(DuplicatePairCoverage) as exc:
        build_system(4, [(0, 1, 2), (0, 1, 3)])
    assert exc.value.pair == (0, 1)


def test_errors_carry_the_offending_triples():
    with pytest.raises(DuplicatePairCoverage) as exc:
        build_system(6, [(5, 2, 4), (4, 1, 2)])
    assert exc.value.pair == (2, 4)
    assert exc.value.triples == ((1, 2, 4), (2, 4, 5))
    assert str(exc.value) == "pair (2, 4) is covered by both (1, 2, 4) and (2, 4, 5)"
    with pytest.raises(VertexOutOfRange) as exc2:
        build_system(4, [(4, 1, 0)])
    assert exc2.value.triple == (0, 1, 4)
    with pytest.raises(VertexOutOfRange) as exc3:
        build_system(-1, [])
    assert exc3.value.triple is None


def test_first_defect_in_lex_order_is_reported():
    # (0, 1, 9) is out of range and sorts before the clash on (1, 2)
    with pytest.raises(VertexOutOfRange) as exc:
        build_system(5, [(1, 2, 4), (1, 2, 3), (0, 1, 9)])
    assert exc.value.triple == (0, 1, 9)
    # the clash on (0, 1) sorts before the out-of-range (1, 2, 9)
    with pytest.raises(DuplicatePairCoverage) as exc2:
        build_system(5, [(1, 2, 9), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
    assert exc2.value.pair == (0, 1)
    assert exc2.value.triples == ((0, 1, 2), (0, 1, 3))


def test_every_error_class_derives_from_lts_error():
    classes = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    ]
    assert len(classes) == 8
    assert all(issubclass(cls, errors.LtsError) for cls in classes)


def test_third_point_lookup():
    s = bose_skolem(3)
    assert s.third_point(0, 1) == 5
    assert s.third_point(1, 0) == 5
    assert s.third_point(5, 0) == 1
    two = build_system(6, [(0, 1, 2), (3, 4, 5)])
    assert two.third_point(0, 3) is None
    with pytest.raises(OutOfRange, match="two distinct vertices"):
        two.third_point(2, 2)
    with pytest.raises(VertexOutOfRange):
        two.third_point(0, 6)


def test_is_steiner():
    assert bose_skolem(3).is_steiner()
    assert not build_system(6, [(0, 1, 2), (3, 4, 5)]).is_steiner()
    assert not spreading_6p3(3).is_steiner()
    # vacuous cases: no uncoverable pair exists
    assert build_system(0).is_steiner()
    assert not build_system(3).is_steiner()


def test_uncovered_edges():
    assert bose_skolem(3).uncovered_edges() == []
    edges = spreading_6p3(3).uncovered_edges()
    assert len(edges) == 18
    assert edges[:5] == [(0, 13), (0, 14), (1, 12), (1, 14), (2, 12)]
    assert edges == sorted(edges)


def test_span_and_iteration():
    s = build_system(7, [(0, 1, 2), (2, 3, 4)])
    assert s.span() == frozenset({0, 1, 2, 3, 4})
    assert list(s) == [(0, 1, 2), (2, 3, 4)]


def test_equality_and_hash():
    a = build_system(5, [(0, 1, 2)])
    b = build_system(5, [(2, 1, 0)])
    c = build_system(6, [(0, 1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != (0, 1, 2)
    # the hash reads the triples, not only n
    assert hash(a) != hash(build_system(5, [(0, 1, 3)]))


def test_has_triple_ignores_entry_order():
    s = build_system(5, [(0, 1, 2)])
    assert s.has_triple((2, 0, 1))
    assert not s.has_triple((0, 1, 3))
    # wrong length or a repeated vertex is never a triple
    for bad in [(0, 1), (0, 0, 1), (0, 1, 2, 2), (), (1, 1, 1)]:
        assert not s.has_triple(bad)
    # entries are read as integers, as third_point reads them
    assert s.has_triple(np.array([2, 0, 1]))
    with pytest.raises(TypeError):
        s.has_triple((0.0, 1.0, 2.0))
    with pytest.raises(TypeError):
        s.third_point(0.0, 1)


def test_random_systems_are_linear():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randint(5, 13)
        s = random_linear_system(rng, n)
        seen = {}
        for x, y, z in s.triples:
            for pair in ((x, y), (x, z), (y, z)):
                assert pair not in seen
                seen[pair] = (x, y, z)
        assert n * (n - 1) // 2 - len(s.uncovered_edges()) == 3 * len(s.triples)


def _inject(rng, kind, n, triples):
    """A triple holding one defect of the given kind, a repeat of an earlier
    triple, or a triple with a repeated vertex."""
    outside = [-2, -1, n, n + 1]
    if kind == "degenerate":
        v = rng.randrange(-2, n + 2)
        return (v, v, rng.randrange(-2, n + 2))
    if kind == "repeat" and triples:
        return rng.choice(triples)
    if kind.startswith("pair") and triples:
        # re-cover a pair of an earlier triple, at position xy, xz or yz of
        # the new triple, or with an out-of-range third vertex
        a, b = sorted(rng.sample(rng.choice(triples), 2))
        thirds = {
            "pair-xy": range(b + 1, n),
            "pair-xz": range(a + 1, b),
            "pair-yz": range(0, a),
            "pair-range": outside,
        }[kind]
        thirds = [w for w in thirds or outside if w not in (a, b)]
        return (a, b, rng.choice(thirds))
    in_range = [t for t in triples if 0 <= min(t) and max(t) < n]
    if kind in ("alias", "wrap") and in_range:
        # an out-of-range triple one of whose pair codes x*n + y equals that
        # of a covered pair (a, b): (a - 1, n + b), or, for even n, (a - 2**63,
        # b), whose code wraps around in int64
        a, b = sorted(rng.sample(rng.choice(in_range), 2))
        if kind == "alias" or n % 2:
            return (a - 1, rng.randrange(a, n + b), n + b)
        return (a - 2**63, b, rng.randrange(b + 1, n + 2))
    if kind == "negative":
        return (-rng.randint(1, 3), *rng.sample(range(n + 2), 2))
    if kind == "vertex-n":
        return (n, *rng.sample([v for v in range(-1, n + 2) if v != n], 2))
    return tuple(rng.sample(range(-2, n + 2), 3))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 11),
    st.lists(
        # in-range re-covers twice as likely: range defects mostly come first
        st.sampled_from(
            ["pair-xy", "pair-xz", "pair-yz"] * 2
            + ["pair-range", "negative", "vertex-n", "any"]
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_build_system_reports_the_naive_first_defect(seed, n, kinds):
    rng = random.Random(seed)
    triples = list(random_linear_system(rng, n).triples)
    for kind in kinds:
        triples.append(_inject(rng, kind, n, triples))
    rng.shuffle(triples)
    triples = [rng.sample(t, 3) for t in triples]
    expected = first_defect_naive(n, triples)
    if expected is None:
        assert build_system(n, triples).triples == tuple(
            sorted({tuple(sorted(t)) for t in triples})
        )
        return
    assert_first_defect(n, triples, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 11),
    st.lists(
        st.sampled_from(
            ["pair-xy", "pair-xz", "pair-yz"] * 2
            + ["pair-range", "negative", "vertex-n", "any", "repeat", "degenerate"]
        ),
        max_size=4,
    ),
)
def test_build_system_from_arrays_reports_the_naive_first_defect(seed, n, kinds):
    """An integer array of triples builds the system the list builds, or
    raises the naive first defect, in numpy, with no per-triple normaliser;
    for int64, int32 and, when no vertex is negative, uint16.  When no
    triple repeats a vertex, so do the same triples in canonical form."""
    rng = random.Random(seed)
    triples = list(random_linear_system(rng, n).triples)
    for kind in kinds:
        triples.append(_inject(rng, kind, n, triples))
    rng.shuffle(triples)
    triples = [rng.sample(t, 3) for t in triples]
    dtypes = [np.int64, np.int32]
    if all(v >= 0 for t in triples for v in t):
        dtypes.append(np.uint16)
    forms = [triples] + [np.array(triples, dt).reshape(-1, 3) for dt in dtypes]
    expected = first_defect_naive(n, triples)
    wrapped = core._normalize_triple
    for given_ in forms:
        with patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple:
            if expected is None:
                s = build_system(n, given_)
            else:
                assert_first_defect(n, given_, expected)
        if isinstance(given_, np.ndarray):
            assert not per_triple.called
        if expected is None:
            assert s.triples == tuple(sorted({tuple(sorted(t)) for t in triples}))
            assert_same_index(s, build_system(n, [tuple(t) for t in triples]))
    if all(len(set(t)) == 3 for t in triples):
        canonical = sorted({tuple(sorted(t)) for t in triples})
        array = np.array(canonical, np.int64).reshape(-1, 3)
        expected = first_defect_naive(n, canonical)
        with patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple:
            if expected is None:
                s = build_system(n, array)
            else:
                assert_first_defect(n, array, expected)
        assert not per_triple.called
        if expected is None:
            assert_same_index(s, build_system(n, canonical))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 12),
    st.lists(
        st.sampled_from(
            ["pair-xy", "pair-xz", "pair-yz", "alias", "wrap", "negative", "vertex-n"]
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_bulk_arrays_with_repeated_codes_report_the_naive_first_defect(
    seed, n, kinds
):
    """Canonical int64 arrays, which need no sort, whose pair codes repeat: pairs
    covered again, and out-of-range vertices whose codes equal a covered
    pair's, directly or by wrapping around.  The plain sort finds the
    repeats, and the stable sort then names the naive first defect."""
    rng = random.Random(seed)
    triples = list(random_linear_system(rng, n).triples)
    # wrapping triples last: the pair kinds would pick thirds between a
    # vertex near -2**63 and the next
    for kind in sorted(kinds, key=lambda kind: kind == "wrap"):
        triples.append(_inject(rng, kind, n, triples))
    canonical = sorted({tuple(sorted(t)) for t in triples})
    array = np.array(canonical, np.int64).reshape(-1, 3)
    expected = first_defect_naive(n, canonical)
    wrapped = core._normalize_triple
    with patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple:
        if expected is None:
            assert build_system(n, array).triples == tuple(canonical)
        else:
            assert_first_defect(n, array, expected)
    assert not per_triple.called


def assert_first_defect(n, given_, expected):
    with pytest.raises(errors.ValidationError) as exc:
        build_system(n, given_)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    for attr in ("triple", "pair", "triples"):
        assert getattr(exc.value, attr, None) == getattr(expected, attr, None)


def assert_same_index(s, other):
    assert (s.n, s.triples) == (other.n, other.triples)
    arrays = (s.triple_array, *s._pair_index(), *s.sweep_pairs)
    others = (other.triple_array, *other._pair_index(), *other.sweep_pairs)
    for a, b in zip(arrays, others):
        assert a.dtype == b.dtype and not a.flags.writeable
        assert np.array_equal(a, b)


def test_build_system_array_forms():
    empty = build_system(4, np.empty((0, 3), dtype=np.int64))
    assert_same_index(empty, build_system(4))
    rows = np.array([[4, 3, 2], [0, 1, 2], [2, 1, 0]], dtype=np.int32)
    s = build_system(5, rows)
    assert_same_index(s, build_system(5, rows.tolist()))
    # the caller's array is neither sorted in place nor frozen
    assert rows.flags.writeable and rows[0].tolist() == [4, 3, 2]
    # a relabelled system's array is sorted in numpy, like its list, and
    # neither the permuted array nor the system's read-only one changes
    base = spreading_6p3(5)
    perm = np.array(random.Random(7).sample(range(base.n), base.n))
    relabelled = perm[base.triple_array]
    kept, before = relabelled.copy(), base.triple_array.copy()
    wrapped = core._normalize_triple
    with patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple:
        s = build_system(base.n, relabelled)
        same = build_system(base.n, base.triple_array)
    assert not per_triple.called
    listed = [[int(perm[v]) for v in t] for t in base.triples]
    assert_same_index(s, build_system(base.n, listed))
    assert same == base
    assert np.array_equal(relabelled, kept) and relabelled.flags.writeable
    assert np.array_equal(base.triple_array, before)
    assert not base.triple_array.flags.writeable
    # the first row, in input order, with a repeated vertex is named as given
    degenerate = [[2, 1, 0], [4, 4, 1], [3, 3, 3]]
    for given_ in (np.array(degenerate), degenerate):
        with pytest.raises(DegenerateTriple) as exc:
            build_system(6, given_)
        assert str(exc.value) == "repeated vertex in triple (4, 4, 1)"
    # canonical rows need no sort, and are copied even when already intp
    canonical = [[0, 1, 2], [0, 3, 4], [1, 3, 5]]
    rows = np.array(canonical, dtype=np.intp)
    s = build_system(6, rows)
    assert_same_index(s, build_system(6, canonical))
    assert rows.flags.writeable and rows.tolist() == canonical
    assert not np.shares_memory(rows, s.triple_array)
    # a bulk array's errors name triples of Python ints, read off the array
    with pytest.raises(DuplicatePairCoverage) as exc:
        build_system(6, np.array([[0, 1, 2], [0, 1, 3]]))
    assert exc.value.triples == ((0, 1, 2), (0, 1, 3))
    with pytest.raises(VertexOutOfRange) as exc2:
        build_system(4, np.array([[0, 1, 2], [0, 3, 4]]))
    assert exc2.value.triple == (0, 3, 4)
    culprits = (*exc.value.triples, exc2.value.triple)
    assert all(type(v) is int for t in culprits for v in t)
    for dtype in (np.int16, np.uint8):
        s = build_system(6, np.array(canonical, dtype=dtype))
        assert_same_index(s, build_system(6, canonical))
    # increasing rows out of order, or repeated, are sorted and deduplicated
    for rows in ([[1, 3, 5], [0, 1, 2]], [[0, 1, 2], [0, 1, 2]]):
        assert_same_index(build_system(6, np.array(rows)), build_system(6, rows))
    # uint64 can pass intp, so it goes triple by triple, exactly
    with pytest.raises(VertexOutOfRange) as exc:
        build_system(5, np.array([[0, 1, 2**63 + 5]], dtype=np.uint64))
    assert exc.value.triple == (0, 1, 2**63 + 5)
    # other shapes and dtypes fail as their lists do
    with pytest.raises(DegenerateTriple, match="expected three vertices"):
        build_system(5, np.array([[0, 1], [2, 3]]))
    with pytest.raises(TypeError):
        build_system(5, np.array([[0.0, 1.0, 2.0]]))
    # bool casts to intp, but is no integer kind, so it goes per triple and
    # raises as the list of its rows does
    flags = np.array([[False, True, True]])
    raised = []
    for triples in (flags, list(flags)):
        with pytest.raises(Exception) as exc:
            build_system(5, triples)
        raised.append(exc.type)
    assert raised[0] is raised[1]


lookup_systems = st.one_of(
    random_systems,
    st.builds(build_system, st.integers(0, 2)),
    # a triple through the last vertex
    st.builds(lambda n: build_system(n, [(0, n - 2, n - 1)]), st.integers(3, 9)),
)


@settings(max_examples=150, deadline=None)
@given(lookup_systems, st.integers(0, 2**32 - 1))
def test_lookups_agree_with_naive_scans(s, seed):
    rng, n = random.Random(seed), s.n

    def third_naive(x, y):
        for t in s.triples:
            if x in t and y in t:
                return sum(t) - x - y
        return None

    pairs = list(combinations(range(n), 2))
    for x, y in pairs:
        assert s.third_point(x, y) == s.third_point(y, x) == third_naive(x, y)
    uncovered = [p for p in pairs if third_naive(*p) is None]
    assert s.uncovered_edges() == uncovered
    assert s.is_steiner() == (not uncovered)
    # out-of-range vertices too, whose pair codes can equal those of real pairs
    probes = list(combinations(range(n), 3))
    outside = range(-n - 1, 2 * n + 2)
    probes += [tuple(sorted(rng.sample(outside, 3))) for _ in range(50)]
    for t in probes:
        assert s.has_triple(rng.sample(t, 3)) == (t in s.triples)
    odd = [(), (0,), (0, 1), (0, 0, 1), (1, 1, 1), (0, 1, 2, 3), (0, 1, 10**30)]
    odd += [t + t[-1:] for t in s.triples] + [t[:2] for t in s.triples]
    assert not any(s.has_triple(t) for t in odd)
    for k in range(n + 1):
        subset = rng.sample(range(n), k)
        assert neighbourhood(s, subset) == neighbourhood_naive(s, subset)


@settings(max_examples=150, deadline=None)
@given(lookup_systems, st.integers(0, 3))
@example(build_system(0), 0)
@example(build_system(4), 0)  # no triples, so no pair codes to search
@example(build_system(3, [(0, 1, 2)]), 2)  # (3, 4) lies past the largest code
def test_third_points_agree_with_a_pair_dict(s, isolated):
    # isolated vertices past the last one, besides those the system has: then
    # the pair (n-2, n-1) is uncovered and its code is above every covered one
    s = build_system(s.n + isolated, s.triple_array)
    thirds = {}
    for t in s.triples:
        for x, y in combinations(t, 2):
            thirds[x, y] = sum(t) - x - y
    pairs = list(combinations(range(s.n), 2))
    x, y = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    expected = [thirds.get(pair, -1) for pair in pairs]
    assert s._third_points(x, y).tolist() == expected


def bose_skolem_without(q, i):
    """bose_skolem(q) less its triple i: Steiner again when i is past the end."""
    triples = bose_skolem(q).triples
    return build_system(3 * q, triples[:i] + triples[i + 1 :])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        lookup_systems,
        st.builds(bose_skolem_without, st.sampled_from([3, 5, 7]), st.integers(0, 80)),
    )
)
def test_first_uncovered_pair_is_the_first_uncovered_edge(s):
    edges = s.uncovered_edges()
    assert s._first_uncovered() == (edges[0] if edges else None)


@settings(max_examples=200, deadline=None)
@given(random_systems, st.randoms(use_true_random=False))
def test_list_and_array_built_systems_agree(s, rng):
    # the list goes one triple at a time, in any order; the canonical array
    # needs no sort.  Both build their triples tuple only when asked.
    listed = [rng.sample(t, 3) for t in s.triples]
    rng.shuffle(listed)
    by_list = build_system(s.n, listed)
    by_array = build_system(s.n, np.array(s.triples, dtype=np.int64).reshape(-1, 3))
    assert by_list._triples is None and by_array._triples is None
    assert by_list == by_array and hash(by_list) == hash(by_array)
    assert by_array.triples == by_list.triples == s.triples
    assert by_list._triples is by_list.triples
    assert all(type(v) is int for t in by_list.triples + by_array.triples for v in t)


def test_index_is_compact():
    # The pair index and the kernel layout, once both are read, are arrays
    # of intp: 120 bytes per triple on a 64-bit build, with the triple array.
    # A dict keyed by pair tuples needs over 250.
    triples = list(spreading_6p3(31).triples)
    tracemalloc.start()
    try:
        s = build_system(189, triples)
        s._pair_index(), s.sweep_pairs
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 160 * len(triples)
    arrays = (s.triple_array, *s._pair_index(), *s.sweep_pairs)
    assert not any(a.flags.writeable for a in arrays)


def traced_growth(call):
    """The result of call() and the traced memory it left behind."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_validation_retains_only_the_triple_array():
    # Per triple: the (m, 3) array, 24 bytes; the pair slots that validation
    # reads are not kept, and the caches come on first read: the kernel
    # layout adds 48 and the pair index 48 more.
    a = spreading_6p3(101).triple_array
    s, retained = traced_growth(lambda: build_system(609, a))
    assert retained < 25 * len(a)
    retained += traced_growth(lambda: s.sweep_pairs)[1]
    assert retained < 73 * len(a)
    retained += traced_growth(s._pair_index)[1]
    assert retained < 121 * len(a)
    # a linear system covers 3m pairs, so Steiner is a count, not a lookup
    sts = bose_skolem(67)
    assert traced_growth(sts.is_steiner) == (True, 0)
    assert sts._index is None and sts._sweep is None


@settings(max_examples=150, deadline=None)
@given(random_systems, st.integers(0, 3), st.booleans())
def test_lazy_caches_agree_with_eager_ones(s, bare, index_first):
    # bare vertices past the last one, besides those the system has
    s = build_system(s.n + bare, s.triple_array)
    assert s._index is None and s._sweep is None
    t, n = s.triple_array, s.n
    rows = [(a, b, c) for a, b, c in t.tolist()]
    slots = [(a, b, c) for a, b, c in rows] + [(a, c, b) for a, b, c in rows]
    slots += [(b, c, a) for a, b, c in rows]
    x, y, z = np.array(slots, dtype=np.intp).reshape(-1, 3).T
    codes = x * n + y
    by_code = np.argsort(codes, kind="stable")
    eager = (codes[by_code], z[by_code], *core._sweep_pairs(x, y, z))
    # the kernel layout lists, for each third point, the pairs it completes
    xs, ys, starts, thirds = eager[2:]
    groups = np.split(np.stack((xs, ys), axis=1), starts[1:])
    assert len(groups) == len(thirds) or not len(t)
    for w, group in zip(thirds.tolist(), groups):
        expected = sorted((a, b) for a, b, c in slots if c == w)
        assert sorted(map(tuple, group.tolist())) == expected
    if index_first:
        s._pair_index()
    s.sweep_pairs
    lazy = (*s._pair_index(), *s.sweep_pairs)
    for a, b in zip(lazy, eager):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable
    again = (*s._pair_index(), *s.sweep_pairs)
    assert all(a is b for a, b in zip(lazy, again))
    with pytest.raises(AttributeError):
        s.sweep_pairs = eager[2:]
    s._index = s._sweep = None
    for a, b in zip((*s._pair_index(), *s.sweep_pairs), eager):
        assert np.array_equal(a, b)
