"""Sumsets and the numeric constants."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ltspread import (
    OutOfRange,
    ResidueSet,
    bounds_report,
    construction_density,
    lower_bound_constants,
    residues,
    restricted_sumset,
    sumset,
    tau,
    tau_objective,
)

from helpers import tau_slope_naive, traced_peak

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_residue_set_validation():
    with pytest.raises(OutOfRange):
        ResidueSet(1, frozenset())
    with pytest.raises(OutOfRange):
        ResidueSet(7, frozenset({7}))
    assert residues(7, [8, -1]).members == frozenset({1, 6})
    for modulus in (1, 0):
        with pytest.raises(OutOfRange, match=f"at least 2, got {modulus}$"):
            residues(modulus, [0])


def test_sumset_examples():
    assert sumset(residues(7, [0]), residues(7, [0])).members == frozenset({0})
    assert sumset(residues(7, [1, 2]), residues(7, [3, 4])).members == frozenset(
        {4, 5, 6}
    )
    full = residues(5, range(5))
    assert sumset(full, full).members == frozenset(range(5))


def test_sumset_validation():
    with pytest.raises(OutOfRange, match="moduli differ"):
        sumset(residues(5, [1]), residues(7, [1]))
    with pytest.raises(OutOfRange, match="operands must be non-empty"):
        sumset(residues(5, [1]), residues(5, []))


def test_restricted_sumset_examples():
    assert restricted_sumset(residues(5, [2])).members == frozenset()
    assert restricted_sumset(residues(5, [0, 1, 2])).members == frozenset({1, 2, 3})
    assert restricted_sumset(residues(3, range(3))).members == frozenset(range(3))


def test_cauchy_davenport_lower_bound():
    rng = random.Random(1234)
    for _ in range(1000):
        p = rng.choice(PRIMES)
        a = residues(p, rng.sample(range(p), rng.randint(1, p)))
        b = residues(p, rng.sample(range(p), rng.randint(1, p)))
        assert len(sumset(a, b)) >= min(p, len(a) + len(b) - 1)


def test_erdos_heilbronn_lower_bound():
    rng = random.Random(4321)
    for _ in range(1000):
        p = rng.choice(PRIMES)
        a = residues(p, rng.sample(range(p), rng.randint(1, p)))
        assert len(restricted_sumset(a)) >= min(p, 2 * len(a) - 3)


def test_objective_endpoint_values():
    assert tau_objective(1.0) == 0.0
    assert abs(tau_objective(0.5) - 0.5) < 1e-15


def test_tau_matches_printed_constant():
    z, t = tau()
    assert abs(t - 0.51829) < 1e-4
    assert 0.5 < z < 1.0
    assert 0.5 < t < 0.52
    # tighter regression pin for the implementation itself
    assert abs(t - 0.5182892718582288) < 1e-9
    assert abs(z - 0.5694167547399647) < 1e-6


def test_tau_respects_tolerance_argument():
    z_loose, t_loose = tau(tolerance=1e-3)
    z_tight, t_tight = tau(tolerance=1e-12)
    assert abs(z_loose - z_tight) < 2e-3
    assert abs(t_loose - t_tight) < 1e-6
    with pytest.raises(OutOfRange):
        tau(tolerance=0.0)


def _exact_argmax() -> Fraction:
    """The root of the exact slope numerator on [1/2, 1], to 2^-200."""
    lo, hi = Fraction(1, 2), Fraction(1)
    assert tau_slope_naive(lo) > 0 > tau_slope_naive(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if tau_slope_naive(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("exponent", range(3, 16))
def test_tau_brackets_the_exact_root(exponent):
    tolerance = 10.0**-exponent
    z, t = tau(tolerance)
    assert tau_slope_naive(Fraction(z) - Fraction(tolerance)) > 0
    assert tau_slope_naive(Fraction(z) + Fraction(tolerance)) < 0
    assert t == tau_objective(z)


def test_tau_below_float_spacing_returns_adjacent_floats():
    # run apart with a timeout: a bracket that cannot shrink must not hang
    code = "from ltspread import tau; print(repr(tau(1e-17)[0]), repr(tau(1e-300)[0]))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    root = _exact_argmax()
    for z in map(float, done.stdout.split()):
        assert abs(Fraction(z) - root) <= 4 * Fraction(math.ulp(z))


def test_tau_rejects_nan_tolerance():
    with pytest.raises(OutOfRange):
        tau(float("nan"))


def test_lower_bound_constants_at_tau():
    _, t = tau()
    report = lower_bound_constants(t)
    assert abs(report.edge_bound_coeff - 0.169) < 5e-4
    assert abs(report.xi_sp_coeff - 0.1103) < 5e-4
    # the root actually solves s^2 + (t/3)s - t/3 = 0
    s = 2 * report.edge_bound_coeff
    assert abs(s * s + t / 3 * s - t / 3) < 1e-14


def test_naive_constant_closed_form():
    report = lower_bound_constants(1.0)
    assert abs(report.edge_bound_coeff - (math.sqrt(13) - 1) / 12) < 1e-10
    assert report.naive_coeff == report.edge_bound_coeff
    assert abs(report.xi_sp_coeff - 0.09429) < 5e-5


def test_lower_bound_constants_domain():
    with pytest.raises(OutOfRange):
        lower_bound_constants(0.0)
    with pytest.raises(OutOfRange):
        lower_bound_constants(1.5)


def test_bounds_report_combines_both_steps():
    report = bounds_report()
    z, t = tau()
    assert report.argmax_z == z
    assert report.tau == t
    assert report.edge_bound_coeff == lower_bound_constants(t).edge_bound_coeff


def test_construction_density_values():
    n, m, ratio = construction_density(3)
    assert (n, m) == (21, 64)
    assert abs(ratio - 64 / 441) < 1e-15
    n, m, ratio = construction_density(7)
    assert (n, m) == (45, 288)
    assert abs(ratio - 288 / 2025) < 1e-15
    with pytest.raises(OutOfRange, match="requires an odd prime"):
        construction_density(9)
    # counted, not built: spreading_6p3(211) itself takes about 110 MiB
    result, peak = traced_peak(lambda: construction_density(211))
    assert result == (1269, 223872, 223872 / 1269**2)
    assert peak < 2**20


def test_density_decreases_toward_5_36():
    ratios = [construction_density(p)[2] for p in (3, 5, 7, 11, 13)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 5 / 36 for r in ratios)


def test_lower_bound_stays_below_construction_density():
    _, t = tau()
    assert lower_bound_constants(t).xi_sp_coeff < 5 / 36
