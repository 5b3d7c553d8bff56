"""The four benchmark workloads: inputs from a seed, ops, and their checks.

Each workload is a fixed batch of operations ("ops") run by one caller in a
closed loop.  ``setup`` turns the seed into the program's inputs (vertex
relabellings, query sets, input files); ``make_ops`` returns the batch.
Ops look functions up on the ``ltspread`` modules at call time, so a traced
run sees the wrappers that ``spans.Tracer`` installs.

Why these workloads:
- verify: the closure kernels inside the property verifiers do nearly all
  the work; the place a batch closure kernel must show, and flat for a
  search change.
- search: candidate generation in the extremal search dominates and the
  verifiers run only a few dozen times; flat for a kernel change.
- load_query: parsing, validation of a 609-vertex system and single-seed
  closure queries; the only workload where core and cli parsing weigh.
- cli: whole ``lts`` processes, so interpreter start, imports and the JSON
  emit count; where a lazy-import change would show.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import checks
from spans import Tracer, spans_from_json

CHILD_SCRIPT = Path(__file__).with_name("trace_child.py")

# The only failing 3-sets of spreading_6p3(5) without its triple 120 are
# {14,16,x} for x in (21, 28, 29, 31).  Relabelling the other vertices only
# keeps the first failure (and so the scan depth) the same on every seed.
DEEP_FAIL_CUT = 120
DEEP_FAIL_FIXED = (14, 16, 21, 28, 29, 31)
DEEP_FAIL_WITNESS = (14, 16, 21)

STAR_WITNESS_SEED0 = ((0, 1, 6), (0, 2, 7))
CAYLEY_WITNESS_SEED0 = (0, 1, 2, 3)
# expander_deficiency(bose_skolem(7)): fields unchanged by relabelling
EXPANDER_BS7 = (
    0,
    {1: 0, 2: 1, 3: 0, 4: 3, 5: 3, 6: 3, 7: 4, 8: 5, 9: 6, 10: 9},
    Fraction(1, 2),
)
EXPANDER_WORST_SEED0 = (0, 1, 11)

SEARCH_WITNESSES = {
    5: ((0, 1, 2), (0, 3, 4)),
    6: ((0, 1, 2), (0, 3, 4), (1, 3, 5)),
    7: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)),
    8: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7)),
    9: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 3, 8)),
    10: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 3, 8), (2, 4, 9)),
}

QUERY_NON_TRIPLES = 16
QUERY_TRIPLES = 4
CLI_ROUNDS = 3


@dataclass
class Context:
    root: Path  # the checkout, also the working directory
    workdir: Path  # working directory for input files, relative to root
    seed: int


@dataclass
class Op:
    """One timed operation.  ``run`` gets the tracer of a traced batch (or
    None); ``check`` returns None for a right output, else a reason."""

    name: str
    run: Callable[[Tracer | None], Any]
    check: Callable[[Any], str | None]
    latency: bool = True  # counts in the op latency figures


def permutation(n: int, seed: int, key: str, fixed: tuple[int, ...] = ()) -> list[int]:
    """Seeded relabelling of 0..n-1 that keeps ``fixed``; seed 0 is the
    identity."""
    perm = list(range(n))
    if seed == 0:
        return perm
    movable = [v for v in range(n) if v not in fixed]
    images = movable[:]
    random.Random(f"{seed}/{key}").shuffle(images)
    for v, image in zip(movable, images):
        perm[v] = image
    return perm


def relabel(lts, system, seed: int, key: str, fixed: tuple[int, ...] = ()):
    perm = permutation(system.n, seed, key, fixed)
    return lts.build_system(system.n, [[perm[v] for v in t] for t in system.triples])


# -- verify -------------------------------------------------------------------


def setup_verify(lts, ctx: Context) -> dict[str, Any]:
    sp5 = lts.spreading_6p3(5)
    cut = lts.build_system(sp5.n, sp5.triples[:DEEP_FAIL_CUT] + sp5.triples[DEEP_FAIL_CUT + 1 :])
    seed = ctx.seed
    return {
        "sp7": relabel(lts, lts.spreading_6p3(7), seed, "sp7"),
        "sp5_cut": relabel(lts, cut, seed, "sp5_cut", DEEP_FAIL_FIXED),
        "crown3": relabel(lts, lts.crowning(lts.spreading_6p3(3)), seed, "crown3"),
        "star6": relabel(lts, lts.star_expansion(6), seed, "star6"),
        "bs7": relabel(lts, lts.bose_skolem(7), seed, "bs7"),
        "cay7": relabel(lts, lts.cayley_latin(7), seed, "cay7"),
    }


def ops_verify(lts, inp: dict[str, Any], ctx: Context) -> list[Op]:
    s = inp
    seed0 = ctx.seed == 0
    sp7, crown3, bs7 = s["sp7"], s["crown3"], s["bs7"]
    return [
        Op(
            "is_spreading(spreading_6p3(7))",
            lambda _: lts.is_spreading(sp7),
            lambda v: checks.check_holds(v, comb(sp7.n, 3) - len(sp7.triples)),
        ),
        Op(
            "is_spreading(spreading_6p3(5) minus a triple)",
            lambda _: lts.is_spreading(s["sp5_cut"]),
            lambda v: checks.check_spreading_failure(s["sp5_cut"], v, DEEP_FAIL_WITNESS),
        ),
        Op(
            "is_weakly_spreading(crowning(spreading_6p3(3)))",
            lambda _: lts.is_weakly_spreading(crown3),
            lambda v: checks.check_holds(v, comb(len(crown3.triples), 2)),
        ),
        Op(
            "is_weakly_spreading(star_expansion(6))",
            lambda _: lts.is_weakly_spreading(s["star6"]),
            lambda v: checks.check_weak_failure(
                s["star6"], v, STAR_WITNESS_SEED0 if seed0 else None
            ),
        ),
        Op(
            "is_strongly_connected(bose_skolem(7))",
            lambda _: lts.is_strongly_connected(bs7),
            lambda v: checks.check_holds(v, comb(bs7.n, 4)),
        ),
        Op(
            "is_strongly_connected(cayley_latin(7))",
            lambda _: lts.is_strongly_connected(s["cay7"]),
            lambda v: checks.check_strong_failure(
                s["cay7"], v, CAYLEY_WITNESS_SEED0 if seed0 else None
            ),
        ),
        Op(
            "expander_deficiency(bose_skolem(7))",
            lambda _: lts.expander_deficiency(bs7),
            lambda r: checks.check_expander(
                bs7, r, EXPANDER_BS7, EXPANDER_WORST_SEED0 if seed0 else None
            ),
        ),
    ]


# -- search -------------------------------------------------------------------


def setup_search(lts, ctx: Context) -> dict[str, Any]:
    return {}  # the only input is n


def _check_search(n: int, result) -> str | None:
    if result.minimum != n - 3:
        return f"minimum {result.minimum} != {n - 3}"
    if result.witness.triples != SEARCH_WITNESSES[n]:
        return f"witness {result.witness.triples} != recorded"
    return None


def ops_search(lts, inp: dict[str, Any], ctx: Context) -> list[Op]:
    return [
        Op(
            f"min_weakly_spreading({n})",
            lambda _, n=n: lts.min_weakly_spreading(n),
            lambda r, n=n: _check_search(n, r),
        )
        for n in SEARCH_WITNESSES
    ]


# -- load_query ---------------------------------------------------------------


def setup_load_query(lts, ctx: Context) -> dict[str, Any]:
    seed = ctx.seed
    sp = relabel(lts, lts.spreading_6p3(101), seed, "sp101")
    bs = relabel(lts, lts.bose_skolem(201), seed, "bs201")
    rng = random.Random(f"{seed}/queries")
    triple_set = set(sp.triples)
    queries: list[tuple[int, ...]] = []
    while len(queries) < QUERY_NON_TRIPLES:
        q = tuple(sorted(rng.sample(range(sp.n), 3)))
        if q not in triple_set:
            queries.append(q)
    queries += rng.sample(sp.triples, QUERY_TRIPLES)
    rng.shuffle(queries)
    return {"sp101": sp, "bs201": bs, "queries": queries}


def _equals(expected: Any, what: str) -> Callable[[Any], str | None]:
    return lambda got: None if got == expected else f"{what} is wrong"


def _check_text(system, text: str) -> str | None:
    lines = text.count("\n")
    if lines != len(system.triples) + 2:
        return f"serialized text has {lines} lines, expected {len(system.triples) + 2}"
    return None


def ops_load_query(lts, inp: dict[str, Any], ctx: Context) -> list[Op]:
    sp = inp["sp101"]
    table = checks.pair_table(sp.triples)
    texts: dict[str, str] = {}
    ops = []
    for key in ("sp101", "bs201"):
        system = inp[key]

        def serialize(_, key=key, system=system):
            texts[key] = lts.cli.serialize_system(system)
            return texts[key]

        ops.append(
            Op(f"serialize {key}", serialize, lambda t, s=system: _check_text(s, t), False)
        )
        ops.append(
            Op(
                f"parse {key}",
                lambda _, key=key: lts.cli.parse_system(texts[key]),
                _equals(system, f"parse(serialize({key}))"),
                False,
            )
        )
    everything = frozenset(range(sp.n))
    triple_set = set(sp.triples)
    for q in inp["queries"]:
        expected = frozenset(q) if q in triple_set else everything
        ops.append(
            Op(
                f"closure {q}",
                lambda _, q=q: lts.closure(sp, q),
                _equals(expected, f"closure of {q}"),
            )
        )
    for q in inp["queries"]:
        expected = frozenset(checks.neighbourhood(table, q))
        ops.append(
            Op(
                f"neighbourhood {q}",
                lambda _, q=q: lts.neighbourhood(sp, q),
                _equals(expected, f"neighbourhood of {q}"),
                False,
            )
        )
    return ops


# -- cli ------------------------------------------------------------------------


def setup_cli(lts, ctx: Context) -> dict[str, Any]:
    seed, workdir = ctx.seed, ctx.workdir
    files = {
        "sp3.lts": relabel(lts, lts.spreading_6p3(3), seed, "sp3"),
        "bs5.lts": relabel(lts, lts.bose_skolem(5), seed, "bs5"),
    }
    for name, system in files.items():
        (workdir / name).write_text(lts.cli.serialize_system(system), encoding="utf-8")
    rng = random.Random(f"{seed}/sets")
    sets = [",".join(map(str, sorted(rng.sample(range(21), 3)))) for _ in range(CLI_ROUNDS)]
    return {"sets": sets}


def cli_script(workdir: Path, sets: list[str]) -> list[list[str]]:
    sp3, bs5 = str(workdir / "sp3.lts"), str(workdir / "bs5.lts")
    constructs = [("spreading-6p3", "5"), ("bose-skolem", "7"), ("cayley-latin", "7")]
    script = []
    for r in range(CLI_ROUNDS):
        family, p = constructs[r]
        script += [
            ["bounds", "--tau", "--constants"],
            ["construct", "--family", family, "--p", p],
            ["check", "--input", sp3, "--property", "steiner"],
            ["check", "--input", sp3, "--property", "spreading"],
            ["closure", "--input", sp3, "--set", sets[r]],
            ["search", "--min-wsp", "--n", "8"],
            ["expander", "--input", bs5],
            ["check", "--input", bs5, "--property", "strong-connectivity"],
        ]
    return script


def child_env(root: Path, **extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


def _reference(lts, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the in-process ``cli.run`` for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lts.cli.run(argv)
    return code, out.getvalue()


def _run_process(root: Path, workdir: Path, argv: list[str], tracer: Tracer | None):
    """Run one ``lts`` process; a traced run uses the tracing bootstrap and
    appends the child's spans to the tracer."""
    if tracer is None:
        cmd = [sys.executable, "-m", "ltspread.cli", *argv]
        env = child_env(root)
    else:
        fd, spans_path = tempfile.mkstemp(suffix=".json", dir=workdir)
        os.close(fd)
        cmd = [sys.executable, str(CHILD_SCRIPT), *argv]
        env = child_env(
            root,
            PERFBENCH_SPANS=spans_path,
            PERFBENCH_ALLOC="1" if tracer.measure_alloc else "0",
        )
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
    if tracer is not None:
        path = Path(spans_path)
        rows = json.loads(path.read_text() or "[]")
        path.unlink()
        tracer.spans.extend(spans_from_json(rows, offset=len(tracer.spans)))
    return proc.returncode, proc.stdout.decode("utf-8")


def ops_cli(lts, inp: dict[str, Any], ctx: Context) -> list[Op]:
    root, workdir = ctx.root, ctx.workdir
    script = cli_script(workdir, inp["sets"])
    expected = {tuple(argv): _reference(lts, argv) for argv in script}

    def check(got, want) -> str | None:
        if got[0] != want[0]:
            return f"exit code {got[0]} != {want[0]}"
        if got[1] != want[1]:
            return "stdout differs from the in-process cli.run output"
        return None

    return [
        Op(
            "lts " + " ".join(argv),
            lambda tracer, argv=argv: _run_process(root, workdir, argv, tracer),
            lambda got, want=expected[tuple(argv)]: check(got, want),
        )
        for argv in script
    ]


WORKLOADS = {
    "verify": (setup_verify, ops_verify),
    "search": (setup_search, ops_search),
    "load_query": (setup_load_query, ops_load_query),
    "cli": (setup_cli, ops_cli),
}
