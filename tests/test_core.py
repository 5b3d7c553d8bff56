"""Data model: validation, lookup, and skeleton queries."""

import random

import pytest

from ltspread import errors
from ltspread import (
    DegenerateTriple,
    DuplicatePairCoverage,
    OutOfRange,
    VertexOutOfRange,
    bose_skolem,
    build_system,
    spreading_6p3,
)

from helpers import random_linear_system


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
        assert len(s.pair_table) == 3 * len(s.triples)
