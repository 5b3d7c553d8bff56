"""Data model: validation, lookup, and skeleton queries."""

import random
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltspread import errors
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


def test_has_triple_ignores_entry_order():
    s = build_system(5, [(0, 1, 2)])
    assert s.has_triple((2, 0, 1))
    assert not s.has_triple((0, 1, 3))
    # wrong length or a repeated vertex is never a triple
    for bad in [(0, 1), (0, 0, 1), (0, 1, 2, 2), (), (1, 1, 1)]:
        assert not s.has_triple(bad)


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
    """An integer array of triples, taken in bulk, builds the system the
    list builds, or raises the naive first defect; for int64, int32 and,
    when no vertex is negative, uint16."""
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
    for given_ in forms:
        if expected is None:
            s = build_system(n, given_)
            assert s.triples == tuple(sorted({tuple(sorted(t)) for t in triples}))
            assert_same_index(s, build_system(n, [tuple(t) for t in triples]))
        else:
            assert_first_defect(n, given_, expected)


def assert_first_defect(n, given_, expected):
    with pytest.raises(errors.ValidationError) as exc:
        build_system(n, given_)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    for attr in ("triple", "pair", "triples"):
        assert getattr(exc.value, attr, None) == getattr(expected, attr, None)


def assert_same_index(s, other):
    assert (s.n, s.triples) == (other.n, other.triples)
    arrays = (s.triple_array, s.pair_codes, s.pair_thirds, *s.sweep_pairs)
    others = (other.triple_array, other.pair_codes, other.pair_thirds)
    for a, b in zip(arrays, others + other.sweep_pairs):
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
    # uint64 can pass intp, so it goes triple by triple, exactly
    with pytest.raises(VertexOutOfRange) as exc:
        build_system(5, np.array([[0, 1, 2**63 + 5]], dtype=np.uint64))
    assert exc.value.triple == (0, 1, 2**63 + 5)
    # other shapes and dtypes fail as their lists do
    with pytest.raises(DegenerateTriple, match="expected three vertices"):
        build_system(5, np.array([[0, 1], [2, 3]]))
    with pytest.raises(TypeError):
        build_system(5, np.array([[0.0, 1.0, 2.0]]))


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


def test_index_is_compact():
    # The pair index is arrays of intp: about 120 bytes per triple on a
    # 64-bit build.  A dict keyed by pair tuples needs over 250.
    triples = list(spreading_6p3(31).triples)
    tracemalloc.start()
    try:
        s = build_system(189, triples)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sys.getsizeof(s.triples) + sum(map(sys.getsizeof, s.triples))
    assert retained - own < 160 * len(triples)
    arrays = (s.triple_array, s.pair_codes, s.pair_thirds, *s.sweep_pairs)
    assert not any(a.flags.writeable for a in arrays)
