"""Acceptance gate: twelve end-to-end criteria at their stated tolerances.

Each criterion is one test, so the verbose run shows one pass/fail line per
criterion; the print at the end of each test repeats it with the measured
values for anyone running with -s.
"""

import json
import math
import random
from itertools import combinations

from ltspread import (
    bose_skolem,
    build_system,
    cayley_latin,
    closure,
    crowning,
    expander_deficiency,
    is_spreading,
    is_strongly_connected,
    is_weakly_spreading,
    lower_bound_constants,
    min_weakly_spreading,
    residues,
    restricted_sumset,
    spreading_6p3,
    star_expansion,
    sumset,
    tau,
)
from ltspread.cli import parse_system, run, serialize_system

from helpers import random_linear_system


def passline(number: int, message: str) -> None:
    print(f"criterion {number:02d}: PASS - {message}", flush=True)


def test_c01_steiner_validity_and_counts():
    counts = {}
    for q in (3, 5, 7, 9):
        s = bose_skolem(q)
        assert s.is_steiner()
        assert len(s.triples) == 3 * q * (3 * q - 1) // 6
        counts[q] = len(s.triples)
    assert counts == {3: 12, 5: 35, 7: 70, 9: 117}
    passline(1, f"bose_skolem Steiner with counts {counts}")


def test_c02_expander_theorem_at_desk_scale():
    for p in (3, 5, 7):
        s = bose_skolem(p)
        report = expander_deficiency(s)  # all sizes up to n // 2
        assert report.min_deficiency == 0
        assert s.has_triple(tuple(sorted(report.worst_set)))
    passline(2, "min |N(V')| - (|V'|-3) = 0 on n=9,15,21, attained by a triple")


def test_c03_spreading_construction():
    ratios = []
    for p, count in ((3, 64), (5, 156), (7, 288)):
        s = spreading_6p3(p)
        assert len(s.triples) == 5 * p * p + 6 * p + 1 == count
        assert is_spreading(s).holds
        ratios.append(count / s.n**2)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 5 / 36 for r in ratios)
    passline(3, f"counts 64/156/288, spreading holds, densities {ratios} dec. to 5/36")


def test_c04_crowning_weakly_spreading():
    full = crowning(spreading_6p3(3))
    assert (full.n, len(full.triples)) == (39, 82)
    assert is_weakly_spreading(full).holds
    part = crowning(spreading_6p3(3), keep=range(5))
    assert (part.n, len(part.triples)) == (26, 69)
    assert is_weakly_spreading(part).holds
    passline(4, "39/82 and keep-5 26/69 both weakly spreading")


def test_c05_latin_construction():
    for p in (3, 5, 7):
        s = cayley_latin(p)
        assert is_weakly_spreading(s).holds
        verdict = is_spreading(s)
        assert not verdict.holds
        assert verdict.witness <= frozenset(range(p))  # inside the row class
        assert len(s.triples) == p * p == (3 * p) ** 2 // 9
    passline(
        5, "cayley_latin weakly spreading, spreading fails in one class, p^2 = n^2/9"
    )


def test_c06_star_expansion_counterexample():
    for m in (4, 5):
        s = star_expansion(m)
        assert not is_weakly_spreading(s).holds
        for t1, t2 in combinations(s.triples, 2):
            union = set(t1) | set(t2)
            assert len(closure(s, union)) > len(union)
    passline(6, "star expansion fails weak spreading though every pair grows")


def test_c07_extremal_sharpness():
    minima = {}
    for n in (5, 6, 7, 8, 9, 10):
        minima[n] = min_weakly_spreading(n).minimum
        assert minima[n] == n - 3
    passline(7, f"min_weakly_spreading {minima} equals n-3 for n=5..10")


def test_c08_numeric_constants():
    z, t = tau()
    assert abs(t - 0.51829) <= 1e-4
    report = lower_bound_constants(t)
    assert abs(report.edge_bound_coeff - 0.169) <= 5e-4
    assert abs(report.xi_sp_coeff - 0.1103) <= 5e-4
    naive = lower_bound_constants(1.0)
    assert abs(naive.edge_bound_coeff - (math.sqrt(13) - 1) / 12) <= 1e-10
    passline(8, f"tau={t:.6f}, edge={report.edge_bound_coeff:.6f}, "
                f"xi_sp={report.xi_sp_coeff:.6f}, naive=(sqrt(13)-1)/12")


def test_c09_oracle_equivalence():
    rng = random.Random(2024)
    systems = [bose_skolem(3), bose_skolem(5), cayley_latin(3)]
    systems += [random_linear_system(rng, rng.randint(5, 12)) for _ in range(100)]
    failing = 0
    for s in systems:
        reduced = is_spreading(s, "reduced")
        brute = is_spreading(s, "brute_force")
        assert reduced.holds == brute.holds
        assert reduced.witness == brute.witness
        failing += not reduced.holds
    assert failing > 0  # the corpus exercises the witness path too
    passline(9, f"reduced = brute_force on 103 systems ({failing} failing, "
                "witnesses identical)")


def test_c10_implication_chain():
    small = [
        bose_skolem(3), bose_skolem(5), bose_skolem(7),
        spreading_6p3(3),
        cayley_latin(3), cayley_latin(5), cayley_latin(7),
        star_expansion(4), star_expansion(5),
    ]
    for s in small:
        assert s.n <= 22
        sp = is_spreading(s).holds
        sc = is_strongly_connected(s).holds
        wsp = is_weakly_spreading(s).holds
        assert (not sp or sc) and (not sc or wsp)
        if s.is_steiner():
            assert sp == sc
    passline(10, "spreading => strongly connected => weakly spreading; "
                 "equivalence on the three Steiner systems")


def test_c11_sumset_properties():
    rng = random.Random(31337)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(1000):
        p = rng.choice(primes)
        a = residues(p, rng.sample(range(p), rng.randint(1, p)))
        b = residues(p, rng.sample(range(p), rng.randint(1, p)))
        assert len(sumset(a, b)) >= min(p, len(a) + len(b) - 1)
    for _ in range(1000):
        p = rng.choice(primes)
        a = residues(p, rng.sample(range(p), rng.randint(1, p)))
        assert len(restricted_sumset(a)) >= min(p, 2 * len(a) - 3)
    passline(11, "1000 Cauchy-Davenport and 1000 restricted-sumset instances hold")


def test_c12_cli_roundtrip_and_exit_codes(tmp_path, capsys):
    generated = [
        bose_skolem(3), bose_skolem(5), bose_skolem(7), bose_skolem(9),
        spreading_6p3(3), spreading_6p3(5),
        crowning(spreading_6p3(3)), crowning(spreading_6p3(3), range(5)),
        cayley_latin(3), cayley_latin(5),
        star_expansion(4), star_expansion(5),
        build_system(6, [(0, 1, 2), (3, 4, 5)]),
        build_system(4, []),
    ]
    for s in generated:
        assert parse_system(serialize_system(s)) == s

    fixtures = {
        0: ("lts 1\n9 12\n" + "".join(
            f"{x} {y} {z}\n" for x, y, z in bose_skolem(3).triples
        ), "spreading"),
        1: (serialize_system(star_expansion(4)), "weakly-spreading"),
        2: ("lts 1\nnot a count\n", "linear"),
        3: ("lts 1\n5 2\n0 1 2\n0 1 3\n", "linear"),
    }
    seen = {}
    for want, (text, prop) in fixtures.items():
        path = tmp_path / f"fixture{want}.lts"
        path.write_text(text, encoding="utf-8")
        code = run(["check", "--input", str(path), "--property", prop])
        seen[want] = code
        out, _ = capsys.readouterr()
        if want == 1:
            assert json.loads(out)["witness"] is not None
    assert seen == {0: 0, 1: 1, 2: 2, 3: 3}
    passline(12, "round-trip identity on 14 systems; exit codes 0/1/2/3 exercised")
