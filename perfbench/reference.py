"""A fixed reference computation that gauges how fast the host runs Python.

The machines this benchmark runs on are shared: the same code can take 1.5x
as long from one minute to the next, in CPU time as much as in wall time,
because other tenants compete for the cores' caches and memory.  No
statistic taken inside a 25-second run removes that.  What does remove most
of it is timing a fixed piece of work right next to each op: ``run.py``
runs ``reference_seconds()`` before the first op of a batch and after every
op, and scales each op's time by ``NOMINAL_S`` over the mean of the two
reference times around it.  The scaled time reads in seconds at the host
speed at which the reference takes ``NOMINAL_S``.

The reference never calls ltspread, so a change to the package moves the
scaled times one for one.  It mixes what the package does most: random
lookups through a table of a few megabytes (cache and memory bound, like
the closure queries on a large system), dict updates and small-int
arithmetic (interpreter bound, like the extremal search) and set algebra.
Ops differ in which of these their speed follows, so the reference
weighs the three about equally.  It creates no container objects, so it
never triggers a garbage collection that would scan the workload's heap.
"""

from __future__ import annotations

import random
import time

# About the median reference time seen between ops on a shared 2-vCPU Intel
# Xeon VM; only the scale of the normalised figures depends on it.
NOMINAL_S = 0.007

_TABLE_SIZE = 1 << 17
_CHASE_STEPS = 3_000
_LOOP_STEPS = 6_000
_SET_ROUNDS = 60

_rng = random.Random(20261017)


def _one_cycle(n: int) -> list[int]:
    """A random permutation of range(n) made of a single cycle (Sattolo)."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _rng.randrange(i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# Each call goes on along the cycle where the last one stopped, so it never
# finds its own previous path in the cache.
_NEXT = _one_cycle(_TABLE_SIZE)
_position = 0
_COUNTS = dict.fromkeys(range(256), 0)
_SET_A = frozenset(_rng.sample(range(4096), 600))
_SET_B = frozenset(_rng.sample(range(4096), 600))


def reference_work() -> int:
    """The fixed work, in three parts of about the same time on an idle
    host: a pointer chase through the table (memory bound), a loop of dict
    updates and small-int arithmetic (interpreter bound) and set algebra
    (C loops over hash tables).  Returns a checksum so nothing is skipped."""
    global _position
    nxt = _NEXT
    x = _position
    acc = 1
    for _ in range(_CHASE_STEPS):
        x = nxt[x]
        acc = (acc * 31 + x) & 0xFFFF
    _position = x
    counts = _COUNTS
    for i in range(_LOOP_STEPS):
        k = (acc + i) & 255
        counts[k] = (counts[k] + acc) & 0xFFFF
        acc = (acc ^ (i * 2654435761)) & 0xFFFFF
    a, b = _SET_A, _SET_B
    for _ in range(_SET_ROUNDS):
        acc += len(a & b) + len(a - b)
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
