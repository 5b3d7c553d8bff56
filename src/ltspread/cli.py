"""Command-line interface and the .lts text format.

Format: a header line "lts 1", a counts line "n m", then m triple lines
"i j k" with 0 <= i < j < k < n, sorted lexicographically.  Lines starting
with '#' and blank lines are ignored.

Exit codes: 0 success / property holds; 1 property fails (witness in the
report); 2 usage or I/O error, ParseError (the file breaks the grammar) or
any other LtsError such as OutOfRange or BudgetExceeded; 3 the file parses
but the system is invalid: VertexOutOfRange or DuplicatePairCoverage.

Reports are JSON on stdout and byte-identical across runs for identical
inputs; the closing run_time_s line on stderr excludes interpreter start
and imports, which take most of a short lts process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

import numpy as np

from . import bounds as bounds_mod
from .closure import (
    PropertyVerdict,
    closure,
    expander_deficiency,
    is_spreading,
    is_strongly_connected,
    is_weakly_spreading,
    neighbourhood,
)
from .constructions import (
    _is_prime,
    bose_skolem,
    cayley_latin,
    crowning,
    spreading_6p3,
    star_expansion,
)
from .core import TripleSystem, _ascending, build_system
from .errors import (
    DuplicatePairCoverage,
    LtsError,
    ParseError,
    ValidationError,
    VertexOutOfRange,
)
from .extremal import min_weakly_spreading

__all__ = ["parse_system", "serialize_system", "run", "main"]

_HEADER = "lts 1"


def serialize_system(system: TripleSystem) -> str:
    lines = [_HEADER, f"{system.n} {len(system.triples)}"]
    lines.extend(f"{x} {y} {z}" for x, y, z in system.triples)
    return "\n".join(lines) + "\n"


def _plain_triples(rows: list[str]) -> np.ndarray | None:
    """The triple lines as an (m, 3) int64 array, read and checked in bulk
    on their bytes; None unless every line is plain (three runs of at most
    18 ASCII digits split by spaces or tabs, which always fit in int64),
    strictly increasing and above the line before."""
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    # one byte per character: a non-ASCII one becomes "?", which is not plain
    b = np.frombuffer("\n".join(rows).encode("ascii", "replace"), dtype=np.uint8)
    digit = b - 48 < 10  # uint8: bytes below "0" wrap past 9
    if not (digit | (b == 32) | (b == 9) | (b == 10)).all():
        return None
    # the lines are stripped, so each starts and ends with a digit
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, width = edges[::2], edges[1::2] - edges[::2]
    if len(starts) != 3 * len(rows) or width.max() > 18:
        return None
    if (starts[3::3] != np.flatnonzero(b == 10) + 1).any():
        return None  # a line without exactly three numbers
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(width.max()):
        more = width > k
        values[more] = values[more] * 10 + (b[starts[more] + k] - 48)
    t = values.reshape(-1, 3)
    if not (((t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2])).all() and _ascending(t)):
        return None
    return t


def _read_lines(body: list[tuple[int, str]]) -> list[tuple[int, int, int]]:
    """The triple lines read and checked one at a time: this reads lines
    that are not plain, and finds the first line that breaks the grammar."""
    triples: list[tuple[int, int, int]] = []
    previous: tuple[int, int, int] | None = None
    for lineno, row in body:
        parts = row.split()
        if len(parts) != 3 or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise ParseError(f"triple line must be three integers, got {row!r}", lineno)
        t = (int(parts[0]), int(parts[1]), int(parts[2]))
        if not t[0] < t[1] < t[2]:
            raise ParseError(f"triple {t} is not strictly increasing", lineno)
        if previous is not None and t <= previous:
            raise ParseError(f"triple {t} breaks lexicographic line order", lineno)
        previous = t
        triples.append(t)
    return triples


def parse_system(text: str) -> TripleSystem:
    """Parse the .lts format.

    The triple lines are read and checked in bulk when all of them are
    plain (see _plain_triples), otherwise one at a time.  Every grammar
    violation raises ParseError with its line number; the first one in the
    file is reported, whichever way the lines were read.  Only
    then is the system validated by build_system; its VertexOutOfRange and
    DuplicatePairCoverage are re-raised with the offending lines in the
    message.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            rows.append((lineno, stripped))
    if not rows:
        raise ParseError("empty input: missing header", line=1)
    lineno, header = rows[0]
    if header != _HEADER:
        raise ParseError(f"unsupported header {header!r}, expected {_HEADER!r}", lineno)
    if len(rows) < 2:
        raise ParseError("missing counts line", line=lineno)
    lineno, counts = rows[1]
    parts = counts.split()
    if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
        raise ParseError(f"counts line must be two integers, got {counts!r}", lineno)
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise ParseError(f"counts must be non-negative, got {counts!r}", lineno)
    body = rows[2:]
    if len(body) != m:
        raise ParseError(
            f"expected {m} triple lines, found {len(body)}",
            line=body[-1][0] if body else lineno,
        )
    triples = _plain_triples([row for _, row in body])
    if triples is None:
        triples = _read_lines(body)

    def line_of(t: tuple[int, int, int]) -> int:
        # the rows are distinct, and row i came from body[i]; object dtype
        # compares vertices past int64 exactly
        rows = np.asarray(triples, dtype=object)
        hit = (rows == np.array(t, dtype=object)).all(axis=1)
        return body[int(hit.argmax())][0]

    try:
        return build_system(n, triples)
    except VertexOutOfRange as exc:
        if (t := exc.triple) is None:
            raise  # the vertex count itself is out of range
        message = f"line {line_of(t)}: vertex outside [0, {n}) in {t}"
        raise VertexOutOfRange(message, t) from None
    except DuplicatePairCoverage as exc:
        earlier, later = exc.triples
        message = (
            f"line {line_of(later)}: pair {exc.pair} already covered on line "
            f"{line_of(earlier)}"
        )
        raise DuplicatePairCoverage(exc.pair, exc.triples, message) from None


class _InvalidSystemFile(Exception):
    """A file whose content fails system validation (exit code 3)."""


def _load(path: str) -> TripleSystem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_system(text)
    except ValidationError as exc:
        raise _InvalidSystemFile(f"{path}: {exc}") from exc


def _summary(system: TripleSystem) -> dict[str, Any]:
    return {
        "n": system.n,
        "m": len(system.triples),
        "steiner": system.is_steiner(),
    }


def _witness_json(verdict: PropertyVerdict) -> Any:
    if verdict.witness is None:
        return None
    if isinstance(verdict.witness, frozenset):
        return {"vertices": sorted(verdict.witness)}
    return {"triples": [list(t) for t in verdict.witness]}


def _emit(report: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.removeprefix("-").isdecimal():
            raise ParseError(f"{what} expects comma-separated integers, got {piece!r}")
        out.append(int(piece))
    return out


# Each entry looks its library function up when called, so a caller that
# rebinds the module-level names (a tracer, a test double) is seen.
_FAMILIES: dict[str, Callable[[argparse.Namespace], TripleSystem]] = {
    "bose-skolem": lambda args: bose_skolem(args.p),
    "spreading-6p3": lambda args: spreading_6p3(args.p),
    # crowning decorates the spreading construction of the same parameter
    "crowning": lambda args: crowning(
        spreading_6p3(args.p),
        None if args.keep is None else _parse_int_list(args.keep, "--keep"),
    ),
    "cayley-latin": lambda args: cayley_latin(args.p),
    "star-expansion": lambda args: star_expansion(args.p),
}


def _steiner(system: TripleSystem) -> PropertyVerdict:
    pair = system._first_uncovered()
    witness = None if pair is None else frozenset(pair)
    return PropertyVerdict(pair is None, witness, len(system.pair_codes))


_PROPERTIES: dict[str, Callable[[TripleSystem, str], PropertyVerdict]] = {
    "linear": lambda system, mode: PropertyVerdict(True, None, len(system.triples)),
    "steiner": lambda system, mode: _steiner(system),
    "spreading": lambda system, mode: is_spreading(system, mode.replace("-", "_")),
    "weakly-spreading": lambda system, mode: is_weakly_spreading(system),
    "strong-connectivity": lambda system, mode: is_strongly_connected(system),
}


def _given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The named options the caller set, so the library keeps its defaults."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    system = _FAMILIES[family](args)
    if family == "bose-skolem" and not _is_prime(args.p):
        print(
            f"advisory: modulus {args.p} is composite; the system is "
            "Steiner but the expansion guarantee assumes a prime",
            file=sys.stderr,
        )
    text = serialize_system(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json:
        _emit({"command": "construct", "family": family, "system": _summary(system)})
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    system = _load(args.input)
    verdict = _PROPERTIES[args.property](system, args.mode)
    _emit(
        {
            "command": "check",
            "property": args.property,
            "system": _summary(system),
            "holds": verdict.holds,
            "witness": _witness_json(verdict),
            "checked_count": verdict.checked_count,
        }
    )
    return 0 if verdict.holds else 1


def _cmd_closure(args: argparse.Namespace) -> int:
    system = _load(args.input)
    seed = _parse_int_list(args.set, "--set") if args.set else []
    _emit(
        {
            "command": "closure",
            "system": _summary(system),
            "set": sorted(set(seed)),
            "neighbourhood": sorted(neighbourhood(system, seed)),
            "closure": sorted(closure(system, seed)),
        }
    )
    return 0


def _cmd_expander(args: argparse.Namespace) -> int:
    system = _load(args.input)
    report = expander_deficiency(system, args.max_size, **_given(args, "budget"))
    ratio = report.min_ratio
    _emit(
        {
            "command": "expander",
            "system": _summary(system),
            "min_deficiency": report.min_deficiency,
            "per_size_min_neighbourhood": {
                str(k): v for k, v in sorted(report.per_size_min_neighbourhood.items())
            },
            "worst_set": sorted(report.worst_set),
            "min_ratio": None
            if ratio is None
            else {"numerator": ratio.numerator, "denominator": ratio.denominator},
        }
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if not args.min_wsp:
        raise ParseError("search currently only supports --min-wsp")
    result = min_weakly_spreading(args.n, **_given(args, "start_at", "budget"))
    _emit(
        {
            "command": "search",
            "n": result.n,
            "minimum": result.minimum,
            "witness": [list(t) for t in result.witness.triples],
            "nodes_explored": result.nodes_explored,
            "exhaustive_below": result.exhaustive_below,
        }
    )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    report: dict[str, Any] = {"command": "bounds"}
    if not (args.tau or args.constants or args.density is not None):
        raise ParseError("bounds needs at least one of --tau, --constants, --density")
    if args.tau or args.constants:
        full = bounds_mod.bounds_report()
        if args.tau:
            report["tau"] = full.tau
            report["argmax_z"] = full.argmax_z
        if args.constants:
            report["edge_bound_coeff"] = full.edge_bound_coeff
            report["xi_sp_coeff"] = full.xi_sp_coeff
            report["naive_coeff"] = full.naive_coeff
    if args.density is not None:
        n, m, ratio = bounds_mod.construction_density(args.density)
        report["density"] = {"p": args.density, "n": n, "m": m, "ratio": ratio}
    _emit(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lts", description="Linear triple system toolkit"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="generate a system and write .lts")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument(
        "--p",
        type=int,
        required=True,
        help="family parameter (modulus, prime, or base order; crowning "
        "decorates spreading-6p3 of the same parameter)",
    )
    p.add_argument("--keep", help="crowning: comma-separated uncovered-edge indices")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--json", action="store_true", help="also print a JSON summary")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="verify a property of a system file")
    p.add_argument("--input", required=True)
    p.add_argument("--property", required=True, choices=list(_PROPERTIES))
    p.add_argument("--mode", default="reduced", choices=["reduced", "brute-force"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", help="closure and neighbourhood of a vertex set")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True, help="comma-separated vertices")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("expander", help="neighbourhood-size statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_expander)

    p = sub.add_parser("search", help="extremal search")
    p.add_argument("--min-wsp", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start-at", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="numeric constants")
    p.add_argument("--tau", action="store_true")
    p.add_argument("--constants", action="store_true")
    p.add_argument("--density", type=int, default=None, metavar="P")
    p.set_defaults(func=_cmd_bounds)

    return parser


def run(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        return args.func(args)
    except _InvalidSystemFile as exc:
        print(f"error: invalid system: {exc}", file=sys.stderr)
        return 3
    except (LtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"run_time_s {time.perf_counter() - started:.3f}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
