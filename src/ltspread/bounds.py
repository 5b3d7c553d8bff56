"""Cyclic-group sumset utilities and the numeric bound constants.

The constants tie the density of spreading systems to a one-variable
maximization and an asymptotic quadratic; see tau and
lower_bound_constants for the exact recipes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable

from .constructions import _require_odd_prime
from .errors import OutOfRange

__all__ = [
    "ResidueSet",
    "residues",
    "sumset",
    "restricted_sumset",
    "tau_objective",
    "tau",
    "BoundsReport",
    "lower_bound_constants",
    "bounds_report",
    "construction_density",
]


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z_m, m >= 2."""

    modulus: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise OutOfRange(f"modulus must be at least 2, got {self.modulus}")
        bad = [v for v in self.members if not 0 <= v < self.modulus]
        if bad:
            raise OutOfRange(f"members {sorted(bad)} outside [0, {self.modulus})")

    def __len__(self) -> int:
        return len(self.members)


def residues(modulus: int, members: Iterable[int]) -> ResidueSet:
    """Convenience constructor reducing members mod modulus."""
    modulus = operator.index(modulus)
    if modulus < 2:
        raise OutOfRange(f"modulus must be at least 2, got {modulus}")
    return ResidueSet(modulus, frozenset(operator.index(v) % modulus for v in members))


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod m : x in a, y in b}; operands must share m and be
    non-empty."""
    if a.modulus != b.modulus:
        raise OutOfRange(f"moduli differ: {a.modulus} vs {b.modulus}")
    if not a.members or not b.members:
        raise OutOfRange("sumset operands must be non-empty")
    m = a.modulus
    return ResidueSet(m, frozenset((x + y) % m for x in a.members for y in b.members))


def restricted_sumset(a: ResidueSet) -> ResidueSet:
    """{x + y mod m : x != y in a}; empty when |a| <= 1."""
    m = a.modulus
    return ResidueSet(
        m, frozenset((x + y) % m for x, y in combinations(a.members, 2))
    )


def tau_objective(z: float) -> float:
    """z(1-z)(3-2z) / (4z^2 - 6z + 3); the denominator has no real roots."""
    return z * (1.0 - z) * (3.0 - 2.0 * z) / (4.0 * z * z - 6.0 * z + 3.0)


def tau(tolerance: float = 1e-8) -> tuple[float, float]:
    """Maximize tau_objective = N/D over [1/2, 1] to the given bracket width.

    Its slope has the sign of N'D - ND' = 8z^4 - 24z^3 + 36z^2 - 30z + 9,
    positive at 1/2, negative at 1, with a single root between: the argmax.
    Bisection on that sign stops when the bracket is at most tolerance wide
    or its midpoint stops moving, so tolerances below the float spacing
    give adjacent floats.  Returns (argmax_z, maximum).
    """
    if not tolerance > 0:
        raise OutOfRange(f"tolerance must be positive, got {tolerance}")
    lo, hi = 0.5, 1.0
    z = 0.75
    while hi - lo > tolerance and lo < z < hi:
        if (((8.0 * z - 24.0) * z + 36.0) * z - 30.0) * z + 9.0 > 0.0:
            lo = z
        else:
            hi = z
        z = 0.5 * (lo + hi)
    return z, tau_objective(z)


@dataclass(frozen=True)
class BoundsReport:
    """Constants derived from the maximization and the asymptotic quadratic.

    edge_bound_coeff bounds the density of pairs NOT covered by triples in
    a minimum spreading system; xi_sp_coeff is the resulting lower-bound
    coefficient on the minimum triple count; naive_coeff is the edge bound
    obtained without the maximization step (tau_value = 1).
    """

    tau: float
    argmax_z: float | None
    edge_bound_coeff: float
    xi_sp_coeff: float
    naive_coeff: float


def _positive_quadratic_root(t: float) -> float:
    # s^2 + (t/3) s - t/3 = 0, leading-order in n
    return (-t / 3.0 + math.sqrt(t * t / 9.0 + 4.0 * t / 3.0)) / 2.0


def lower_bound_constants(tau_value: float) -> BoundsReport:
    """Solve the asymptotic quadratic s^2 + (t/3)s - t/3 = 0 at t =
    tau_value.

    The positive root s gives edge_bound_coeff = s/2 and
    xi_sp_coeff = (1/2 - s/2)/3; naive_coeff is s/2 at t = 1, whose closed
    form is (sqrt(13)-1)/12.
    """
    if not 0.0 < tau_value <= 1.0:
        raise OutOfRange(f"tau_value must lie in (0, 1], got {tau_value}")
    s = _positive_quadratic_root(tau_value)
    edge = s / 2.0
    return BoundsReport(
        tau=tau_value,
        argmax_z=None,
        edge_bound_coeff=edge,
        xi_sp_coeff=(0.5 - edge) / 3.0,
        naive_coeff=_positive_quadratic_root(1.0) / 2.0,
    )


def bounds_report(tolerance: float = 1e-8) -> BoundsReport:
    """tau maximization and derived constants in one report."""
    z, t = tau(tolerance)
    return replace(lower_bound_constants(t), argmax_z=z)


def construction_density(p: int) -> tuple[int, int, float]:
    """(n, triple count, count/n^2) for spreading_6p3(p), from its stated
    count 5p^2 + 6p + 1 without building it; the ratio decreases toward
    5/36 as p grows."""
    p = _require_odd_prime(p, "spreading_6p3")
    n, m = 6 * p + 3, 5 * p * p + 6 * p + 1
    return n, m, m / (n * n)
