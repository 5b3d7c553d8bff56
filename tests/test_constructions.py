"""Generators: counts, layouts, parameter validation."""

import math
import time
from unittest.mock import patch

import pytest

from ltspread import core
from ltspread import (
    OutOfRange,
    bose_skolem,
    build_system,
    cayley_latin,
    crowning,
    from_latin_square,
    is_weakly_spreading,
    spreading_6p3,
    star_expansion,
)
from ltspread.bounds import construction_density
from ltspread.constructions import _PRIME_BOUND, _is_prime

from helpers import (
    bose_skolem_naive,
    crowning_naive,
    from_latin_square_naive,
    spreading_6p3_naive,
    star_expansion_naive,
)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_bose_skolem_is_steiner_with_expected_count(q):
    s = bose_skolem(q)
    assert s.n == 3 * q
    assert len(s.triples) == 3 * q * (3 * q - 1) // 6
    assert s.is_steiner()


def test_bose_skolem_halving_rule():
    # the pair {a_0, a_1} joins b_k with k = (0+1)/2 = 2 in Z_3
    assert bose_skolem(3).has_triple((0, 1, 3 + 2))
    # base triples tie the classes together
    assert bose_skolem(5).has_triple((0, 5, 10))


def test_bose_skolem_rejects_bad_modulus():
    with pytest.raises(OutOfRange, match="modulus must be odd"):
        bose_skolem(4)
    with pytest.raises(OutOfRange, match="modulus must be at least 3"):
        bose_skolem(1)


@pytest.mark.parametrize(
    "p,count", [(3, 64), (5, 156), (7, 288), (11, 672)]
)
def test_spreading_6p3_counts(p, count):
    s = spreading_6p3(p)
    assert s.n == 6 * p + 3
    assert len(s.triples) == 5 * p * p + 6 * p + 1
    assert len(s.triples) == count


def test_spreading_6p3_contains_expected_triples():
    p = 5
    s = spreading_6p3(p)
    hub_a, hub_b, hub_c = p, 2 * p + 1, 3 * p + 2
    assert s.has_triple((hub_a, hub_b, hub_c))
    # black hub triple {a, a_0, beta_0}
    assert s.has_triple((hub_a, 0, 4 * p + 3))
    # orange triple {a_1, b_2, c_3}
    assert s.has_triple((1, p + 1 + 2, 2 * p + 2 + 3))
    # red triple {a, alpha_0, b_0}
    assert s.has_triple((hub_a, 3 * p + 3, p + 1))
    # blue triple {b, alpha_0, a_0}
    assert s.has_triple((hub_b, 3 * p + 3, 0))


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_spreading_6p3_requires_odd_prime(p):
    with pytest.raises(OutOfRange, match="spreading_6p3 requires an odd prime"):
        spreading_6p3(p)


def test_crowning_full():
    s = crowning(spreading_6p3(3))
    assert s.n == 39
    assert len(s.triples) == 82
    # first uncovered edge (0, 13) gets the first fresh vertex, 21
    assert s.has_triple((0, 13, 21))


def test_crowning_keep_subset():
    s = crowning(spreading_6p3(3), keep=range(5))
    assert s.n == 26
    assert len(s.triples) == 69


def test_crowning_of_steiner_system_is_identity():
    base = bose_skolem(3)
    assert crowning(base) == base


def test_crowning_keep_index_validation():
    base = spreading_6p3(3)
    with pytest.raises(OutOfRange, match="keep index 18 outside"):
        crowning(base, keep=[18])
    with pytest.raises(OutOfRange, match="keep index -1 outside"):
        crowning(base, keep=[-1])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cayley_latin_layout(p):
    s = cayley_latin(p)
    assert s.n == 3 * p
    assert len(s.triples) == p * p
    for i in range(p):
        for j in range(p):
            assert s.has_triple((i, p + j, 2 * p + (i + j) % p))


def test_cayley_latin_requires_odd_prime():
    for bad in (2, 4, 9):
        with pytest.raises(OutOfRange, match="cayley_latin requires an odd prime"):
            cayley_latin(bad)


def test_is_prime_agrees_with_trial_division_below_10_5():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert [p for p in range(10**5) if _is_prime(p) != trial_division(p)] == []


@pytest.mark.parametrize(
    "factors",
    [
        (151, 751, 28351),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (149491, 747451, 34233211),  # to the bases 2 to 31
        (399165290221, 798330580441),  # to the bases 2 to 37
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(factors):
    assert not _is_prime(math.prod(factors))


def test_is_prime_refuses_numbers_past_its_bound():
    # the bound is itself a strong pseudoprime to every base used
    assert _is_prime(2**61 - 1)
    with pytest.raises(OutOfRange, match="primality is decided below"):
        _is_prime(_PRIME_BOUND)


def test_density_of_a_large_prime_is_fast():
    # trial division took about 9 s on this prime near 10^16
    started = time.perf_counter()
    n, m, _ = construction_density(10000000000000061)
    assert time.perf_counter() - started < 0.1
    assert (n, m) == (60000000000000369, 500000000000006160000000000018972)


def test_from_latin_square_matches_cayley_on_prime_table():
    square = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    assert from_latin_square(square) == cayley_latin(3)


@pytest.mark.parametrize(
    "square,message",
    [
        ([[0, 1, 2], [1, 0]], "row 0 has 3 entries, expected 2"),
        ([[0, 1], [1]], "row 1 has 1 entries, expected 2"),
        ([[0, -1], [-1, 0]], r"symbol -1 at row 0, column 1 outside \[0, 2\)"),
        ([[0, 1], [1, 2]], r"symbol 2 at row 1, column 1 outside \[0, 2\)"),
    ],
)
def test_from_latin_square_rejects_bad_shape_and_symbols(square, message):
    with pytest.raises(OutOfRange, match=message):
        from_latin_square(square)


def test_from_latin_square_with_subsquare_is_not_weakly_spreading():
    # the Z_4 Cayley table contains a 2x2 subsquare on rows/cols {0, 2}
    square = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    s = from_latin_square(square)
    assert len(s.triples) == 16
    assert not is_weakly_spreading(s).holds


@pytest.mark.parametrize("m", [4, 5])
def test_star_expansion_shape(m):
    s = star_expansion(m)
    pairs = m * (m - 1) // 2
    assert s.n == m + pairs
    assert len(s.triples) == pairs
    assert s.has_triple((0, 1, m))  # edge (0,1) has rank 0


def test_star_expansion_rejects_small_base():
    with pytest.raises(OutOfRange, match="star expansion needs a base"):
        star_expansion(3)


def test_layout_determinism():
    assert bose_skolem(5).triples == bose_skolem(5).triples
    assert spreading_6p3(3) == spreading_6p3(3)
    assert star_expansion(5) == star_expansion(5)


def test_generated_systems_pass_validation_roundtrip():
    # rebuilding from the triple list exercises the validator on each family
    for s in (bose_skolem(7), spreading_6p3(5), cayley_latin(5), star_expansion(5)):
        assert build_system(s.n, s.triples) == s


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_spreading_6p3_equals_per_triple_oracle(p):
    assert spreading_6p3(p).triples == spreading_6p3_naive(p).triples


@pytest.mark.parametrize("q", [*range(3, 52, 2), 201])
def test_bose_skolem_equals_per_triple_oracle(q):
    assert bose_skolem(q).triples == bose_skolem_naive(q).triples


@pytest.mark.parametrize("keep", [None, [7, 0, 3, 7, 17], []])
@pytest.mark.parametrize("base", [spreading_6p3(3), star_expansion(5)])
def test_crowning_equals_per_triple_oracle(base, keep):
    assert crowning(base, keep).triples == crowning_naive(base, keep).triples


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_latin_constructions_equal_per_triple_oracle(p):
    table = [[(i + j) % p for j in range(p)] for i in range(p)]
    assert cayley_latin(p).triples == from_latin_square_naive(table).triples
    # a square that is no Cayley table: the columns of table, reversed
    square = [row[::-1] for row in table]
    assert from_latin_square(square) == from_latin_square_naive(square)


@pytest.mark.parametrize("m", [4, 5, 6, 9])
def test_star_expansion_equals_per_triple_oracle(m):
    assert star_expansion(m).triples == star_expansion_naive(m).triples


def test_generators_hand_build_system_canonical_arrays():
    # every generator hands build_system one integer array, sorted there in
    # numpy when its rows are not canonical, never one triple at a time
    base = spreading_6p3(5)
    calls = [
        lambda: bose_skolem(9),
        lambda: spreading_6p3(7),
        lambda: crowning(base),
        lambda: crowning(base, keep=[4, 1]),
        lambda: cayley_latin(7),
        lambda: from_latin_square([[0, 1], [1, 0]]),
        lambda: star_expansion(6),
    ]
    wrapped = core._normalize_triple
    with patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple:
        systems = [call() for call in calls]
    assert not per_triple.called
    assert all(s._triples is None for s in systems)
