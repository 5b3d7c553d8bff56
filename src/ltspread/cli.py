"""Command-line interface and the .lts text format.

Format: a header line "lts 1", a counts line "n m", then m triple lines
"i j k" with 0 <= i < j < k < n, sorted lexicographically.  Lines starting
with '#' and blank lines are ignored.

Exit codes: 0 success / property holds; 1 property fails (witness in the
report); 2 usage or I/O error, ParseError (the file breaks the grammar),
any other LtsError such as OutOfRange or BudgetExceeded, or an allocation
that failed (MemoryError); 3 the file parses but the system is invalid:
VertexOutOfRange or DuplicatePairCoverage.

Reports are JSON on stdout and byte-identical across runs for identical
inputs; the closing run_time_s line on stderr excludes interpreter start
and imports, which take most of a short lts process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from bisect import bisect_left
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
from .core import TripleSystem, _canonical, build_system
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
    """The .lts text of system: "lts 1\\n", then "n m\\n", then one line per
    triple in the system's order, its vertices in decimal with no leading
    zeros, split by single spaces and ended by "\\n".  No comments, blank
    lines or other whitespace: these are the plain lines that parse_system
    reads in bulk.  Built as one byte matrix, a row per vertex: its digits
    right-aligned, then a space, or "\\n" after a triple's third vertex."""
    a = system.triple_array
    head = f"{_HEADER}\n{system.n} {len(a)}\n"
    if not len(a):
        return head
    v = a.ravel().astype(np.uint32)  # every vertex is below core._MAX_ORDER < 2**32
    d = len(str(int(v.max())))
    chars = np.empty((len(v), d + 1), dtype=np.uint8)
    q = v
    for k in range(d - 1, -1, -1):
        # floor_divide by a scalar is vectorised; np.divmod is 10 times slower
        p = q // 10
        chars[:, k] = q - p * 10
        q = p
    keep = np.ones(chars.shape, dtype=bool)
    for k in range(d - 1):  # digit k is a leading zero below 10**(d-1-k)
        keep[:, k] = v >= 10 ** (d - 1 - k)
    chars += 48  # "0"
    chars[:, d] = 32  # " "
    chars[2::3, d] = 10  # "\n"
    return head + chars[keep].tobytes().decode("ascii")


def _kept_lines(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable]:
    """The lines that are neither blank nor "#" comments once stripped, found
    in one numpy pass over the bytes: their str.splitlines numbers, which are
    plain (three words of at most 18 ASCII digits, so each fits in int64), a
    (k, 3) int64 array of the numbers on the plain ones (other rows are
    undefined) and row(i), kept line i stripped.  Only lines with a non-ASCII
    byte, whose whitespace str.strip knows better, are read one by one."""
    # str.splitlines also breaks on these; once they are "\n", the only ASCII
    # whitespace left to str.strip and str.split is tab, "\x1f" and space
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())  # the same line numbers
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    breaks = np.flatnonzero(b == 10)
    starts, ends = np.r_[0, breaks + 1], np.r_[breaks, len(b)]
    word = np.r_[False, (b != 32) & (b != 9) & (b != 31) & (b != 10), False]
    # contiguous, as numpy gathers slowly from strided arrays
    start, end = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T.copy()
    width = end - start
    first = np.searchsorted(start, starts)
    words = np.diff(first, append=len(start))
    kept = words > 0
    kept[kept] = b[start[first[kept]]] != 35  # "#"
    odd = np.flatnonzero(word[1:-1] & (b - 48 > 9))  # uint8: below "0" wraps past 9
    plain = words == 3
    plain[np.searchsorted(breaks, np.r_[odd, start[width > 18]])] = False

    def line(j: int) -> str:
        return b[starts[j] : ends[j]].tobytes().decode().strip()

    # str.strip decides a line with a non-ASCII byte (odd, so never plain)
    for j in set(np.searchsorted(breaks, np.flatnonzero(b > 127)).tolist()):
        kept[j] = line(j)[:1] not in ("", "#")
    number = np.r_[(b[end - 1] - 48).astype(np.int64), 0]  # a spare for take
    for k in range(2, min(width.max(initial=0), 18) + 1):  # digit k from the end
        more = np.flatnonzero(width >= k)
        number[more] += (b[end[more] - k] - 48) * np.int64(10 ** (k - 1))
    kept = np.flatnonzero(kept)
    values = number.take(first[kept, None] + np.arange(3), mode="clip")
    return kept + 1, plain[kept], values, lambda i: line(kept[i])


def _integers(words: list[str]) -> list[int] | None:
    """The words as ints, or None unless each is decimal digits after an
    optional "-" (so "007" and Arabic-Indic digits pass, "+7" and "7_0" not).

    Every vertex and count has at most 18 digits after its leading zeros,
    but longer words are read exactly, as the line order compares them and
    the errors name them, up to int()'s digit limit
    (sys.get_int_max_str_digits(); none before Python 3.10.7).  A word past
    it reads as that many nines with its sign: as far out of range, above
    every shorter word, and an int that str() can print."""
    if not all(word.removeprefix("-").isdecimal() for word in words):
        return None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    out = []
    for word in words:
        digits = word.removeprefix("-")
        if 0 < limit < len(digits):  # without its leading zeros, then capped
            if not digits.isascii():  # one digit at a time, as ASCII
                digits = "".join(str(int(c)) for c in digits)
            digits = digits.lstrip("0") or "0"
            digits = "9" * limit if len(digits) > limit else digits
        out.append(-int(digits) if word[0] == "-" else int(digits))
    return out


def _read_lines(rows: list[str]) -> np.ndarray:
    """Lines read by token, up to the first that is not three integers."""
    out = []
    for parts in map(str.split, rows):
        if len(parts) != 3 or (row := _integers(parts)) is None:
            break
        out.append(row)
    try:  # left to itself, numpy would pick float64 for a vertex past int64
        return np.array(out, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # object dtype keeps such a vertex exact
        return np.array(out, dtype=object).reshape(-1, 3)


def parse_system(text: str) -> TripleSystem:
    """Parse the .lts format.

    _kept_lines reads the plain triple lines in bulk and _read_lines the
    others by token; the rows are checked once, in bulk.  ParseError names
    the first line that breaks the grammar, whose checks run in this order
    on a line: three integers, increasing, above the line before.  Only then
    does build_system validate the system; its VertexOutOfRange and
    DuplicatePairCoverage are re-raised with the offending lines.
    """
    numbers, plain, values, row = _kept_lines(text)
    if not len(numbers):
        raise ParseError("empty input: missing header", line=1)
    lineno, header = int(numbers[0]), row(0)
    if header != _HEADER:
        raise ParseError(f"unsupported header {header!r}, expected {_HEADER!r}", lineno)
    if len(numbers) < 2:
        raise ParseError("missing counts line", line=lineno)
    lineno, counts = int(numbers[1]), row(1)
    parts = counts.split()
    if len(parts) != 2 or (nm := _integers(parts)) is None:
        raise ParseError(f"counts line must be two integers, got {counts!r}", lineno)
    n, m = nm
    if n < 0 or m < 0:
        raise ParseError(f"counts must be non-negative, got {counts!r}", lineno)
    if (found := len(numbers) - 2) != m:
        raise ParseError(f"expected {m} triple lines, found {found}", int(numbers[-1]))
    triples, other = values[2:], np.flatnonzero(~plain[2:])
    if other.size:  # the rows up to the first line that is not three integers
        read = _read_lines([row(i) for i in (other + 2).tolist()])
        triples = triples[: np.r_[other, m][len(read)]].astype(read.dtype, copy=False)
        triples[other[: len(read)]] = read
    increasing, ordered = _canonical(triples)
    if (bad := np.flatnonzero(~(increasing & ordered))).size:
        i = int(bad[0])
        t, lineno = tuple(triples[i].tolist()), int(numbers[i + 2])
        if not increasing[i]:
            raise ParseError(f"triple {t} is not strictly increasing", lineno)
        raise ParseError(f"triple {t} breaks lexicographic line order", lineno)
    if (i := len(triples)) < m:
        got, lineno = row(i + 2), int(numbers[i + 2])
        raise ParseError(f"triple line must be three integers, got {got!r}", lineno)

    def line_of(t: tuple[int, int, int]) -> int:
        # the rows are sorted and distinct, and row i came from kept line i + 2
        return int(numbers[bisect_left(triples, t, key=tuple) + 2])

    try:
        return build_system(n, triples)
    except VertexOutOfRange as exc:
        if (t := exc.triple) is None:
            raise  # the vertex count itself is out of range
        message = f"line {line_of(t)}: vertex outside [0, {n}) in {t}"
        raise VertexOutOfRange(message, t) from None
    except DuplicatePairCoverage as exc:
        earlier, later = map(line_of, exc.triples)
        message = f"line {later}: pair {exc.pair} already covered on line {earlier}"
        raise DuplicatePairCoverage(exc.pair, exc.triples, message) from None


class _InvalidSystemFile(Exception):
    """A file whose content fails system validation (exit code 3)."""


def _load(path: str) -> TripleSystem:
    with open(path, "rb") as fh:
        data = fh.read()  # decoded whole, so an error's offset is the file's
    try:
        return parse_system(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except ValidationError as exc:
        raise _InvalidSystemFile(f"{path}: {exc}") from exc


def _summary(system: TripleSystem) -> dict[str, Any]:
    m = len(system.triple_array)
    return {"n": system.n, "m": m, "steiner": system.is_steiner()}


def _witness_json(verdict: PropertyVerdict) -> Any:
    if verdict.witness is None:
        return None
    if isinstance(verdict.witness, frozenset):
        return {"vertices": sorted(verdict.witness)}
    return {"triples": [list(t) for t in verdict.witness]}


def _parse_int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; blank text is the empty list."""
    pieces = [piece.strip() for piece in text.split(",")] if text.strip() else []
    if (values := _integers(pieces)) is None:
        bad = next(piece for piece in pieces if _integers([piece]) is None)
        raise ParseError(f"{what} expects comma-separated integers, got {bad!r}")
    return values


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
    # a linear system covers 3m distinct pairs
    return PropertyVerdict(pair is None, witness, 3 * len(system.triple_array))


# only spreading takes a mode: _cmd_check refuses --mode with the others
_PROPERTIES: dict[str, Callable[..., PropertyVerdict]] = {
    "linear": lambda system: PropertyVerdict(True, None, len(system.triple_array)),
    "steiner": _steiner,
    "spreading": lambda system, **mode: is_spreading(system, **mode),
    "weakly-spreading": lambda system: is_weakly_spreading(system),
    "strong-connectivity": lambda system: is_strongly_connected(system),
}


def _given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The named options the caller set, so the library keeps its defaults."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


# a command's exit code and report; run() writes the report, led by "command"
_Result = tuple[int, dict[str, Any] | None]


def _cmd_construct(args: argparse.Namespace) -> _Result:
    family = args.family
    if args.keep is not None and family != "crowning":
        raise ParseError(f"--keep applies only to --family crowning, not {family}")
    system = _FAMILIES[family](args)
    if family == "bose-skolem" and not _is_prime(args.p):
        advice = "the system is Steiner but the expansion guarantee assumes a prime"
        print(f"advisory: modulus {args.p} is composite; {advice}", file=sys.stderr)
    text = serialize_system(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0, ({"family": family, "system": _summary(system)} if args.json else None)


def _cmd_check(args: argparse.Namespace) -> _Result:
    prop = args.property
    mode = {} if args.mode is None else {"mode": args.mode.replace("-", "_")}
    if mode and prop != "spreading":
        raise ParseError(f"--mode applies only to --property spreading, not {prop}")
    system = _load(args.input)
    verdict = _PROPERTIES[prop](system, **mode)
    return (0 if verdict.holds else 1), {
        "property": args.property,
        "system": _summary(system),
        "holds": verdict.holds,
        "witness": _witness_json(verdict),
        "checked_count": verdict.checked_count,
    }


def _cmd_closure(args: argparse.Namespace) -> _Result:
    system = _load(args.input)
    seed = _parse_int_list(args.set, "--set")
    return 0, {
        "system": _summary(system),
        "set": sorted(set(seed)),
        "neighbourhood": sorted(neighbourhood(system, seed)),
        "closure": sorted(closure(system, seed)),
    }


def _cmd_expander(args: argparse.Namespace) -> _Result:
    system = _load(args.input)
    report = expander_deficiency(system, args.max_size, **_given(args, "budget"))
    ratio = report.min_ratio
    return 0, {
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


def _cmd_search(args: argparse.Namespace) -> _Result:
    result = min_weakly_spreading(args.n, **_given(args, "start_at", "budget"))
    return 0, {
        "n": result.n,
        "minimum": result.minimum,
        "witness": [list(t) for t in result.witness.triples],
        "nodes_explored": result.nodes_explored,
        "exhaustive_below": result.exhaustive_below,
    }


def _cmd_bounds(args: argparse.Namespace) -> _Result:
    report: dict[str, Any] = {}
    if not (args.tau or args.constants or args.density is not None):
        raise ParseError("bounds needs at least one of --tau, --constants, --density")
    if args.tau or args.constants:
        full = bounds_mod.bounds_report()
        if args.tau:
            report.update(tau=full.tau, argmax_z=full.argmax_z)
        if args.constants:
            names = ("edge_bound_coeff", "xi_sp_coeff", "naive_coeff")
            report.update((name, getattr(full, name)) for name in names)
    if args.density is not None:
        n, m, ratio = bounds_mod.construction_density(args.density)
        report["density"] = {"p": args.density, "n": n, "m": m, "ratio": ratio}
    return 0, report


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
    p.add_argument("--mode", choices=["reduced", "brute-force"], help="spreading only")
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
    p.add_argument("--min-wsp", action="store_true", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start-at", type=int, default=None)
    p.add_argument(
        "--budget",
        type=int,
        help="placements to explore, default 50,000,000: n = 12 stops after "
        "several minutes in its 9-triple level, of 230,801,536 placements",
    )
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
        code, report = args.func(args)
        if report is not None:
            report = {"command": args.cmd, **report}
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return code
    except _InvalidSystemFile as exc:
        print(f"error: invalid system: {exc}", file=sys.stderr)
        return 3
    except (LtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = str(exc) or "an allocation failed"  # numpy's names the allocation
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return 2
    finally:
        print(f"run_time_s {time.perf_counter() - started:.3f}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
