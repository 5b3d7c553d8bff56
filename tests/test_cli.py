"""File format and command-line behaviour."""

import bisect
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ltspread import (
    DuplicatePairCoverage,
    LtsError,
    ParseError,
    TripleSystem,
    VertexOutOfRange,
    bose_skolem,
    build_system,
    cayley_latin,
    crowning,
    spreading_6p3,
    star_expansion,
)
from ltspread import bounds as bounds_mod
from ltspread import cli, core
from ltspread.cli import parse_system, run, serialize_system

from helpers import parse_naive, random_linear_system, serialize_naive, traced_peak


def test_parse_minimal_file():
    s = parse_system("lts 1\n3 1\n0 1 2\n")
    assert s.n == 3
    assert s.triples == ((0, 1, 2),)


def test_parse_skips_comments_and_blanks():
    text = "# demo\n\nlts 1\n # indented comment\n5 2\n0 1 2\n2 3 4\n"
    assert parse_system(text).triples == ((0, 1, 2), (2, 3, 4))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("lts 2\n3 1\n0 1 2\n", "unsupported header"),
        ("lts 1\n", "missing counts"),
        ("lts 1\nthree 1\n0 1 2\n", "two integers"),
        ("lts 1\n3 2\n0 1 2\n", "expected 2 triple lines"),
        ("lts 1\n3 0\n0 1 2\n", "expected 0 triple lines"),
        ("lts 1\n4 1\n0 1 2 3\n", "three integers"),
        ("lts 1\n4 1\n--1 1 2\n", "three integers"),
        ("lts 1\n4 1\n0 1 \u00b2\n", "three integers"),
        ("lts 1\n4 1\n0 2 1\n", "not strictly increasing"),
        ("lts 1\n4 1\n0 0 1\n", "not strictly increasing"),
        ("lts 1\n6 2\n2 3 4\n0 1 2\n", "lexicographic line order"),
        ("lts 1\n6 2\n0 1 2\n0 1 2\n", "lexicographic line order"),
        ("lts 1\n-1 0\n", "non-negative"),
    ],
)
def test_parse_grammar_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert fragment in str(exc.value)


def test_parse_validation_errors_carry_line_numbers():
    with pytest.raises(VertexOutOfRange) as exc:
        parse_system("lts 1\n3 1\n0 1 3\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(DuplicatePairCoverage) as exc2:
        parse_system("lts 1\n5 2\n0 1 2\n0 1 3\n")
    assert "line 4" in str(exc2.value)
    assert exc2.value.pair == (0, 1)


def first_defect(n, triples, line_of):
    """Pair and message of the first line that leaves [0, n) or covers an
    already covered pair, scanning lines in order."""
    covered: dict[tuple[int, int], int] = {}
    for t in triples:
        x, y, z = t
        if z >= n:
            return None, f"line {line_of[t]}: vertex outside [0, {n}) in {t}"
        for pair in ((x, y), (x, z), (y, z)):
            if pair in covered:
                return pair, (
                    f"line {line_of[t]}: pair {pair} already covered on line "
                    f"{covered[pair]}"
                )
            covered[pair] = line_of[t]
    raise AssertionError("no defect injected")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 12),
    st.sampled_from(["pair", "range"]),
)
def test_parse_reports_injected_defect_at_its_line(seed, n, kind):
    rng = random.Random(seed)
    triples = list(random_linear_system(rng, n).triples)
    if kind == "pair":  # re-cover one pair of an existing triple
        t = rng.choice(triples)
        a, b = rng.sample(t, 2)
        c = rng.choice([v for v in range(n) if v not in t])
        defect = tuple(sorted((a, b, c)))
    else:
        a, b = sorted(rng.sample(range(n), 2))
        defect = (a, b, n + rng.randrange(3))
    triples = sorted(triples + [defect])
    # comment lines in between, so line numbers are not just index + 3
    lines = ["lts 1", f"{n} {len(triples)}"]
    line_of = {}
    for t in triples:
        if rng.random() < 0.3:
            lines.append("# comment")
        lines.append("%d %d %d" % t)
        line_of[t] = len(lines)
    pair, message = first_defect(n, triples, line_of)
    error = DuplicatePairCoverage if kind == "pair" else VertexOutOfRange
    with pytest.raises(error) as exc:
        parse_system("\n".join(lines) + "\n")
    assert str(exc.value) == message
    if kind == "pair":
        assert exc.value.pair == pair
        assert set(exc.value.triples) <= set(triples)
    else:
        assert exc.value.triple == defect


PLAIN_KINDS = ["swap", "order", "repeat", "range", "pair"]
PLAIN_KINDS += ["two", "four", "move", "zeros"]
OTHER_KINDS = ["nbsp", "arabic", "minus", "plus", "underscore", "big"]
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\u2028"]
ARABIC_INDIC = {ord("0") + d: 0x660 + d for d in range(10)}


def lts_text(rng, n, plain, kinds):
    """An .lts text of a random linear system with the given kinds of
    change to its triple lines.  A plain text's triple lines stay plain
    (ASCII digits split by spaces or tabs, at most 18 each); any other
    text has at least one line that is not."""
    triples = [list(t) for t in random_linear_system(rng, n).triples]
    for kind in kinds:  # new lines in their sorted places
        if kind in ("range", "pair"):
            a, b = rng.sample(range(n), 2)
            c = n + rng.randrange(3)
            if kind == "pair":  # re-cover a pair of a line
                a, b = rng.sample(rng.choice(triples), 2)
                c = rng.choice([v for v in range(n) if v not in (a, b)])
            bisect.insort(triples, sorted((a, b, c)))
    rows = [[str(v) for v in t] for t in triples]
    seps = [rng.choice([" ", "  ", "\t", " \t"]) for _ in rows]
    if not plain:
        kinds = kinds + [rng.choice(OTHER_KINDS)]
    for kind in kinds:
        if kind in ("range", "pair") or plain and kind in OTHER_KINDS:
            continue
        i = rng.randrange(len(rows))
        if not rows[i]:
            continue  # kinds two, two and move can empty a row
        row, j = rows[i], rng.randrange(len(rows[i]))
        if kind == "swap" and len(row) > 1:
            k = rng.randrange(len(row) - 1)
            row[k], row[k + 1] = row[k + 1], row[k]
        elif kind == "order" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif kind == "repeat":
            rows.insert(i, list(row))
            seps.insert(i, seps[i])
        elif kind == "two" and len(row) > 1:
            del row[j]
        elif kind == "four":
            row.insert(j, str(rng.randrange(n)))
        elif kind == "move" and i + 1 < len(rows):  # as many numbers in all
            rows[i + 1].insert(0, row.pop())
        elif kind == "zeros" and len(row[j]) < 18:
            # up to 18 digits in all, the most a plain number has
            row[j] = "0" * rng.randrange(1, 19 - len(row[j])) + row[j]
        elif kind == "nbsp":
            seps[i] = rng.choice(["\xa0", " \xa0"])
        elif kind == "arabic":
            row[j] = row[j].translate(ARABIC_INDIC)
        elif kind in ("minus", "plus"):
            row[j] = "-+"[kind == "plus"] + row[j]
        elif kind == "underscore":
            row[j] = row[j][:1] + "_" + row[j][1:]
        elif kind == "big":
            row[j] = str(rng.choice([2**63, 2**63 + 1, 10**20 - 1, 2**64 + n]))
    lines = ["# made by lts_text", "lts 1", f" {n}\t{len(rows)} "]
    for row, sep in zip(rows, seps):
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "# comment", "\t# 1 2 3"]))
        pad = rng.choice(["", " ", "\t"])
        lines.append(pad + sep.join(row) + rng.choice(["", " "]))
    breaks = [rng.choice(BREAKS) for _ in lines]
    return "".join(line + br for line, br in zip(lines, breaks))


def outcome(parse, text):
    try:
        return parse(text)
    except LtsError as exc:
        return exc


def assert_parsers_agree(text):
    """parse_system gives parse_naive's system or error; returns that."""
    expected, got = outcome(parse_naive, text), outcome(parse_system, text)
    assert type(got) is type(expected)
    if isinstance(expected, TripleSystem):
        assert got == expected
        assert np.array_equal(got.triple_array, expected.triple_array)
        return expected
    assert str(got) == str(expected)
    for attr in ("line", "pair", "triple", "triples"):
        assert getattr(got, attr, None) == getattr(expected, attr, None)
    return expected


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 12),
    st.booleans(),
    st.lists(
        # new lines that make the system invalid twice as likely
        st.sampled_from(PLAIN_KINDS + OTHER_KINDS + ["range", "pair"]),
        max_size=3,
    ),
)
# a row emptied by kinds two, two and move, then picked by the extra kind
@example(11, 6, False, ["two", "two", "move"])
@example(17, 6, False, ["two", "two", "move"])
def test_parse_agrees_with_the_line_by_line_parser(seed, n, plain, kinds):
    text = lts_text(random.Random(seed), n, plain, kinds)
    with patch.object(cli, "_read_lines", wraps=cli._read_lines) as per_line:
        expected = assert_parsers_agree(text)
    # lines are read one token at a time exactly when the counts agree and
    # some triple line is not plain; a plain file is read once, in bulk,
    # even when it breaks the grammar
    rows = [s for line in text.splitlines() if (s := line.strip()) and s[0] != "#"]
    counted = len(rows) - 2 == int(rows[1].split()[1])
    not_plain = not plain or any(len(row.split()) != 3 for row in rows[2:])
    assert per_line.called == (counted and not_plain)
    event("per line" if per_line.called else "bulk")
    event(type(expected).__name__)


@pytest.mark.parametrize(
    "text",
    [
        "lts 1\n20 2\n0 1 2\n5 8 9223372036854775809\n",
        "lts 1\n9 1\n0 1 99999999999999999999\n",
        "lts 1\n9 2\n0 1\n2 3 4 5\n",
        "lts 1\n9 2\n0 1 2\n3 4 5\u2028",
        "lts 1\n9 2\n0 1 2\n3 4 \u0665\n",
        "lts 1\n9 2\n0\t1\t2\n3\xa04 5\n",
        "lts 1\n9 2\n0 1 2\n+3 4 5\n",
        "lts 1\n9 2\n0 1 2\n-3 4 5\n",
        "lts 1\n9 2\n0 1 2\n3 4 000000000000000005\n",
        "lts 1\n9 2\n0 1 2\n3 4 0000000000000000005\n",
        "lts 1\n9 0\n",
        "lts 1\n9 3\n3 4 5\n0 1 2\n6 7\n",
        "lts 1\n9 2\n0 2 18446744073709551616\n1 3 18446744073709551617\n",
        "lts 1\n9 2\n1 3 18446744073709551617\n0 2 18446744073709551616\n",
        "lts 1\n9 2\n0 2 18446744073709551616\n0 2 18446744073709551617\n",
        "lts 1\n9 2\n0 2 18446744073709551617\n0 2 18446744073709551616\n",
        "lts 1\n9 2\n0 2 1\n3 4 5\n",
        "lts 1\n9 2\n0\xa01 2\n3 4 9223372036854775807\n",
    ],
)
def test_parse_agrees_on_edge_texts(text):
    assert_parsers_agree(text)


BIG = 2**64
SP11 = serialize_system(spreading_6p3(11)).splitlines()  # 672 triple lines


def edited(edits):
    """SP11 as text, with line i (0-based) replaced by a function of it."""
    out = list(SP11)
    for i, edit in edits.items():
        out[i] = " ".join(map(str, edit(*map(int, out[i].split()))))
    return "\n".join(out) + "\n"


def past_int64(x, y, z):
    return (x, y, z + BIG)


def re_cover(x, y, z):  # a pair {x or y, z + 1} of a later line, here too
    return (x, y, z + 1)


def swap(x, y, z):
    return (x, z, y)


VOR, DUP = VertexOutOfRange, DuplicatePairCoverage


@pytest.mark.parametrize(
    "edits, error",
    [
        pytest.param({2: past_int64}, VOR, id="first"),
        pytest.param({340: past_int64}, VOR, id="middle"),
        pytest.param({673: past_int64}, VOR, id="last"),
        pytest.param({340: past_int64, 500: past_int64}, VOR, id="two"),
        pytest.param({2: lambda x, y, z: (-BIG, y, z)}, VOR, id="negative"),
        pytest.param({100: swap, 340: past_int64}, ParseError, id="grammar-before"),
        pytest.param({340: past_int64, 500: swap}, ParseError, id="grammar-after"),
        pytest.param(
            {340: past_int64, 341: lambda x, y, z: (x - 1, y, z)},
            ParseError,
            id="order-after",
        ),
        pytest.param({340: lambda x, y, z: (0, 1, BIG)}, ParseError, id="order-at"),
        pytest.param(
            {339: lambda x, y, z: (x, y + 1, z + BIG), 340: past_int64},
            ParseError,
            id="order-in-tail",
        ),
        pytest.param({101: re_cover, 340: past_int64}, DUP, id="duplicate-before"),
        pytest.param({340: past_int64, 501: re_cover}, VOR, id="duplicate-after"),
        pytest.param(
            {100: lambda x, y, z: (x, y, 69), 340: past_int64}, VOR, id="range-before"
        ),
        pytest.param(
            {1: lambda n, m: (10**10, m), 340: past_int64}, VOR, id="n-too-large"
        ),
        pytest.param(
            {340: lambda x, y, z: (x, y, f"{z + BIG}x")}, ParseError, id="not-a-number"
        ),
    ],
)
def test_parse_of_a_vertex_past_int64_agrees(edits, error):
    assert type(assert_parsers_agree(edited(edits))) is error


@pytest.mark.parametrize(
    "text",
    [
        "lts 1\n9 1\n\xa0\n0 1 2\n",  # blank once the no-break space is stripped
        "lts 1\n9 1\n\u3000# note\n0 1 2\n",  # a comment after an ideographic space
        "lts 1\n9 1\n\x1f\n\x1f# note\n0\x1f1 2\x1f\n",  # "\x1f" is whitespace too
    ],
)
def test_parse_agrees_on_lines_of_other_whitespace(text):
    assert_parsers_agree(text)


def test_parse_memory():
    # 19.6 MiB measured with the byte-level line filter, 2.4 MiB of margin; a
    # line-by-line filter peaked at 33.4 MiB, a whole-text regex at 47.7
    text = serialize_system(bose_skolem(201))
    system, peak = traced_peak(lambda: parse_system(text))
    assert system == bose_skolem(201)
    assert peak <= 22 * 2**20


def test_parsed_rows_are_taken_in_bulk():
    # parsed rows go to build_system as one array, and they are canonical: a
    # canonical-rows check that is too strict would add a sort, not a result
    system = spreading_6p3(5)
    text = serialize_system(system)
    lines = text.splitlines(keepends=True)
    lines[-1] = lines[-1].replace(" ", "\xa0", 1)  # read by token, not in bulk
    wrapped = core._normalize_triple
    for given_ in (text, "".join(lines)):
        with (
            patch.object(core, "_normalize_triple", wraps=wrapped) as per_triple,
            patch.object(np, "lexsort", wraps=np.lexsort) as lexsort,
        ):
            parsed = parse_system(given_)
        assert parsed == system and not per_triple.called and not lexsort.called
    # the plain lines stay in bulk: only the one other line is read by token
    with patch.object(cli, "_read_lines", wraps=cli._read_lines) as per_line:
        parse_system("".join(lines))
    per_line.assert_called_once_with([lines[-1].strip()])


def test_triples_are_built_on_first_access():
    system = spreading_6p3(5)
    parsed = parse_system(serialize_system(system))
    assert parsed._triples is None
    assert parsed == system and hash(parsed) == hash(system)
    assert parsed.span() == system.span() and repr(parsed) == repr(system)
    assert serialize_system(parsed) == serialize_system(system)
    assert cli._summary(parsed) == cli._summary(system)
    assert cli._PROPERTIES["linear"](parsed).checked_count == 156
    assert parsed._triples is None
    assert parsed.triples == system.triples and parsed._triples is parsed.triples


def test_validation_alone_builds_no_pair_index_or_kernel_layout(tmp_path, capsys):
    # construct, the linear and Steiner checks (on a Steiner system: the
    # first uncovered pair is looked up only when there is one) and parse
    # read neither cache; the steiner check counts 3m covered pairs
    path = write(tmp_path, "sts15.lts", serialize_system(bose_skolem(5)))
    built = AssertionError("a pair index or kernel layout was built")
    argvs = [
        ["construct", "--family", family, "--p", "5", "--json"]
        for family in ("bose-skolem", "spreading-6p3", "cayley-latin", "star-expansion")
    ]
    checks = ("linear", "steiner")
    argvs += [["check", "--input", path, "--property", p] for p in checks]
    with (
        patch.object(core.TripleSystem, "_pair_index", side_effect=built),
        patch.object(core, "_sweep_pairs", side_effect=built),
    ):
        for argv in argvs:
            assert run_cli(capsys, *argv)[0] == 0
        parse_system(serialize_system(bose_skolem(5)))
    assert json.loads(run_cli(capsys, *argvs[-1])[1])["checked_count"] == 105
    # the Steiner check leaves only its verdict behind: no index it never read
    system = bose_skolem(67)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdict = cli._PROPERTIES["steiner"](system)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.checked_count == 3 * len(system.triple_array)
    assert retained < 1024 and system._index is None


def _label(digits):
    # the labels of exactly the given number of digits
    return st.integers(10 ** (digits - 1) if digits > 1 else 0, 10**digits - 1)


@st.composite
def wide_label_systems(draw):
    """Systems of disjoint triples, none at all included, whose vertex labels
    have 1 to 10 digits."""
    labels = st.integers(1, 10).flatmap(_label).filter(lambda v: v < core._MAX_ORDER)
    vertices = draw(st.lists(labels, unique=True, max_size=30))
    n = draw(st.integers(max(vertices, default=-1) + 1, core._MAX_ORDER))
    triples = [vertices[i : i + 3] for i in range(0, len(vertices) - 2, 3)]
    return build_system(n, triples)


def _at_width_steps(test):
    """Examples across each step in label width, 9/10 up to 10**9 - 1/10**9:
    a 1-digit, a k-digit and a (k+1)-digit label on one line."""
    for k in range(1, 10):
        test = example(build_system(10**k + 1, [(0, 10**k - 1, 10**k)]))(test)
    return test


@settings(max_examples=200, deadline=None)
@given(wide_label_systems())
@example(build_system(0))
@example(build_system(core._MAX_ORDER, [(0, 9, core._MAX_ORDER - 1)]))
@_at_width_steps
def test_serialize_matches_the_per_triple_writer(system):
    text = serialize_system(system)
    assert text == serialize_naive(system)
    assert parse_system(text) == system


def test_serialize_memory():
    # the byte matrix peaks at 3.5 MiB here, an f-string per triple at 5.2
    system = bose_skolem(201)
    text, peak = traced_peak(lambda: serialize_system(system))
    assert text == serialize_naive(system)
    assert peak <= 8 * 2**20


def test_roundtrip_on_generated_systems():
    systems = [
        bose_skolem(3),
        bose_skolem(5),
        spreading_6p3(3),
        crowning(spreading_6p3(3)),
        crowning(spreading_6p3(3), range(5)),
        cayley_latin(3),
        star_expansion(4),
        star_expansion(5),
    ]
    for s in systems:
        assert parse_system(serialize_system(s)) == s


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_spreading_holds(tmp_path, capsys):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, err = run_cli(
        capsys, "check", "--input", path, "--property", "spreading"
    )
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["witness"] is None
    assert report["system"] == {"n": 9, "m": 12, "steiner": True}
    assert "run_time_s" in err


def test_check_failure_exits_1_with_witness(tmp_path, capsys):
    path = write(tmp_path, "star4.lts", serialize_system(star_expansion(4)))
    code, out, _ = run_cli(
        capsys, "check", "--input", path, "--property", "weakly-spreading"
    )
    assert code == 1
    report = json.loads(out)
    assert report["holds"] is False
    assert report["witness"] == {"triples": [[0, 1, 4], [0, 2, 5]]}


def test_check_brute_force_mode(tmp_path, capsys):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, _ = run_cli(
        capsys,
        "check", "--input", path, "--property", "spreading", "--mode", "brute-force",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


@pytest.mark.parametrize(
    "prop", ["linear", "steiner", "weakly-spreading", "strong-connectivity"]
)
@pytest.mark.parametrize("mode", ["reduced", "brute-force"])
def test_check_mode_is_refused_without_spreading(tmp_path, capsys, prop, mode):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    argv = ["check", "--input", path, "--property", prop, "--mode", mode]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --mode applies only to --property spreading")
    assert err.count("error: ") == 1


def test_check_steiner_and_strong_connectivity(tmp_path, capsys):
    path = write(tmp_path, "s.lts", serialize_system(spreading_6p3(3)))
    code, out, _ = run_cli(capsys, "check", "--input", path, "--property", "steiner")
    assert code == 1
    assert json.loads(out)["witness"] == {"vertices": [0, 13]}
    code, out, _ = run_cli(
        capsys, "check", "--input", path, "--property", "strong-connectivity"
    )
    assert code == 0


def test_steiner_witness_memory_does_not_grow_with_the_pairs(tmp_path, capsys):
    # listing the 1,124,250 uncovered pairs of 1,500 bare vertices took 161 MiB
    path = write(tmp_path, "bare.lts", serialize_system(build_system(1500)))
    code, peak = traced_peak(
        lambda: run(["check", "--input", path, "--property", "steiner"])
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["witness"] == {"vertices": [0, 1]}
    assert peak < 8 * 2**20


def test_tables_look_the_library_up_when_called(tmp_path):
    # a table holding the functions themselves would bypass both wrappers
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    with patch.object(cli, "bose_skolem", wraps=cli.bose_skolem) as construct:
        assert run(["construct", "--family", "bose-skolem", "--p", "3"]) == 0
    assert construct.call_count == 1
    with patch.object(cli, "is_spreading", wraps=cli.is_spreading) as check:
        assert run(["check", "--input", path, "--property", "spreading"]) == 0
    assert check.call_count == 1


def test_malformed_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.lts", "lts 9\n1 0\n")
    code, _, err = run_cli(capsys, "check", "--input", path, "--property", "linear")
    assert code == 2
    assert "unsupported header" in err


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "latin1.lts")
    Path(path).write_bytes(b"lts 1\n3 1\n0 1 \xff\n")  # byte 14 starts no character
    code, _, err = run_cli(capsys, "check", "--input", path, "--property", "linear")
    assert code == 2
    assert f"error: {path}: not UTF-8 at byte 14\n" in err


def test_invalid_system_exits_3(tmp_path, capsys):
    path = write(tmp_path, "dup.lts", "lts 1\n5 2\n0 1 2\n0 1 3\n")
    code, _, err = run_cli(capsys, "check", "--input", path, "--property", "linear")
    assert code == 3
    assert "invalid system" in err
    # a vertex count too large for the pair index, and a vertex too large
    # for a machine integer
    huge = "lts 1\n5 1\n0 1 100000000000000000000000000000\n"
    for name, text in [("big.lts", "lts 1\n4000000000 0\n"), ("huge.lts", huge)]:
        path = write(tmp_path, name, text)
        code, _, err = run_cli(capsys, "check", "--input", path, "--property", "linear")
        assert code == 3
        assert "invalid system" in err


def test_grammar_error_after_invalid_triples_exits_2(tmp_path, capsys):
    # line 4 re-covers pair (0, 1), but line 5 breaks the grammar, and the
    # grammar is checked before the system is validated
    path = write(tmp_path, "bad.lts", "lts 1\n5 3\n0 1 2\n0 1 3\nx y z\n")
    code, _, err = run_cli(capsys, "check", "--input", path, "--property", "linear")
    assert code == 2
    assert "line 5: triple line must be three integers" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "check", "--input", str(tmp_path / "nope.lts"), "--property", "linear"
    )
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "check", "--property", "spreading")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize(
    "error",
    [MemoryError(), MemoryError("Unable to allocate 37.3 GiB")],
    ids=["plain", "numpy"],  # numpy's names the allocation, a plain one nothing
)
def test_out_of_memory_exits_2_with_one_error_line(tmp_path, capsys, error):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    for name, argv in [
        ("bose_skolem", ["construct", "--family", "bose-skolem", "--p", "7"]),
        ("closure", ["closure", "--input", path, "--set", "0,1,2"]),
    ]:
        with patch.object(cli, name, side_effect=error):
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        first, last = err.splitlines()
        assert first.startswith("error: out of memory: ")
        assert last.startswith("run_time_s ")


def test_construct_writes_parseable_file(tmp_path, capsys):
    out_path = str(tmp_path / "out.lts")
    code, out, _ = run_cli(
        capsys,
        "construct", "--family", "spreading-6p3", "--p", "3", "--out", out_path,
    )
    assert code == 0 and out == ""
    with open(out_path, encoding="utf-8") as fh:
        assert parse_system(fh.read()) == spreading_6p3(3)


def test_construct_stdout_and_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "star-expansion", "--p", "4", "--json"
    )
    assert code == 0
    text, _, summary = out.partition("{")
    assert parse_system(text) == star_expansion(4)
    assert json.loads("{" + summary)["system"] == {"n": 10, "m": 6, "steiner": False}


def test_construct_crowning_with_keep(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "crowning", "--p", "3", "--keep", "0,1,2,3,4"
    )
    assert code == 0
    assert parse_system(out) == crowning(spreading_6p3(3), range(5))


@pytest.mark.parametrize(
    "family", ["bose-skolem", "spreading-6p3", "cayley-latin", "star-expansion"]
)
def test_construct_keep_is_refused_without_crowning(capsys, family):
    argv = ["construct", "--family", family, "--p", "3", "--keep", "0"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --keep applies only to --family crowning")
    assert err.count("error: ") == 1


def test_construct_composite_modulus_advisory(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "bose-skolem", "--p", "9")
    assert code == 0
    assert "advisory" in err and "composite" in err
    assert parse_system(out).is_steiner()


def test_construct_bad_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "cayley-latin", "--p", "4")
    assert code == 2
    assert "odd prime" in err


def test_closure_subcommand(tmp_path, capsys):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, _ = run_cli(capsys, "closure", "--input", path, "--set", "0,1")
    assert code == 0
    report = json.loads(out)
    assert report["set"] == [0, 1]
    assert report["neighbourhood"] == [5]
    assert report["closure"] == [0, 1, 5]


def test_closure_bad_integer_exits_2(tmp_path, capsys):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, _, err = run_cli(capsys, "closure", "--input", path, "--set=0,--1")
    assert code == 2
    assert "comma-separated integers" in err


def parse_error(text):
    """The message parse_system raises for text, or "" when it parses."""
    try:
        parse_system(text)
    except LtsError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize(
    "token,integer",
    [(token, True) for token in ["7", "-7", "007", "\u0667"]]  # Arabic-Indic 7
    + [(token, False) for token in ["+7", "7_0", "0x7", "7.0"]],
)
def test_the_integer_readers_share_one_rule(tmp_path, capsys, token, integer):
    # each reader may reject the number itself, but only a word that is not
    # an integer may draw its "not integers" error
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    crowning_ = ["construct", "--family", "crowning", "--p", "3"]
    errors = {
        "counts line must be two integers": parse_error(f"lts 1\n{token} 0\n"),
        "triple line must be three": parse_error(f"lts 1\n10 1\n{token} 8 9\n"),
        "--set expects comma-separated integers": run_cli(
            capsys, "closure", "--input", path, f"--set={token}"
        )[2],
        "--keep expects comma-separated integers": run_cli(
            capsys, *crowning_, f"--keep={token}"
        )[2],
    }
    for fragment, error in errors.items():
        assert (fragment in error) is not integer, (fragment, error)


WIDE = "9" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["check", "--property", "linear"], f"lts 1\n5 1\n0 1 {WIDE}\n", 3),
        (["check", "--property", "linear"], f"lts 1\n{WIDE} 0\n", 3),
        (["closure", f"--set=0,{WIDE}"], serialize_system(bose_skolem(3)), 2),
        (["construct", "--family", "crowning", "--p", "3", f"--keep={WIDE}"], None, 2),
    ],
    ids=["triple-line", "counts-line", "set", "keep"],
)
def test_a_word_past_the_int_digit_limit_is_out_of_range(
    tmp_path, capsys, argv, text, code
):
    # each exits as its 30-digit form does, with one error line
    for word in (WIDE, "9" * 30):
        args = [arg.replace(WIDE, word) for arg in argv]
        if text is not None:
            args += ["--input", write(tmp_path, "wide.lts", text.replace(WIDE, word))]
        got, out, err = run_cli(capsys, *args)
        assert (got, out) == (code, "") and err.count("error: ") == 1


def test_words_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    nines = int("9" * limit)
    assert cli._integers([WIDE, "-" + WIDE, "0" * 5000 + "5"]) == [nines, -nines, 5]
    assert cli._integers(["-" + "\u0660" * 5000 + "\u0667"]) == [-7]  # Arabic-Indic
    # read as that many nines, a word still compares above every shorter one
    text = f"lts 1\n9 2\n0 1 {'9' * (limit - 1)}\n0 1 {WIDE}\n"
    assert parse_error(text).startswith("line 3: vertex outside [0, 9) in (0, 1, 99")
    try:  # the lowest limit Python takes
        sys.set_int_max_str_digits(640)
        assert cli._integers(["1" * 641, "1" * 640]) == [int("9" * 640), int("1" * 640)]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", ["", " ", "\t "])
def test_blank_set_and_keep_are_empty(tmp_path, capsys, text):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, _ = run_cli(capsys, "closure", "--input", path, "--set", text)
    assert code == 0
    assert json.loads(out)["set"] == json.loads(out)["closure"] == []
    crowning_ = ["construct", "--family", "crowning", "--p", "3"]
    code, out, _ = run_cli(capsys, *crowning_, "--keep", text)
    assert code == 0
    assert out == serialize_system(spreading_6p3(3))


def test_expander_subcommand(tmp_path, capsys):
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, _ = run_cli(capsys, "expander", "--input", path)
    assert code == 0
    report = json.loads(out)
    assert report["min_deficiency"] == 0
    assert report["worst_set"] == [0, 1, 5]
    assert report["per_size_min_neighbourhood"] == {"1": 0, "2": 1, "3": 0, "4": 3}
    assert report["min_ratio"] == {"numerator": 3, "denominator": 4}


def test_search_subcommand(capsys):
    code, out, _ = run_cli(capsys, "search", "--min-wsp", "--n", "5")
    assert code == 0
    report = json.loads(out)
    assert report["minimum"] == 2
    assert report["witness"] == [[0, 1, 2], [0, 3, 4]]
    code, _, _ = run_cli(capsys, "search", "--n", "5")
    assert code == 2


def test_search_start_above_floor_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "search", "--min-wsp", "--n", "7", "--start-at", "6"
    )
    assert code == 2
    assert out == ""
    assert "start_at" in err


def test_search_requires_min_wsp(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "5")
    assert code == 2 and out == ""
    assert "the following arguments are required: --min-wsp" in err


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--tau", "--constants", "--density", "3")
    assert code == 0
    report = json.loads(out)
    assert abs(report["tau"] - 0.51829) < 1e-4
    assert abs(report["edge_bound_coeff"] - 0.169) < 5e-4
    assert abs(report["xi_sp_coeff"] - 0.1103) < 5e-4
    assert report["density"]["n"] == 21
    code, _, _ = run_cli(capsys, "bounds")
    assert code == 2


def test_bounds_density_alone_skips_tau(capsys):
    with patch.object(bounds_mod, "tau", side_effect=AssertionError):
        code, out, _ = run_cli(capsys, "bounds", "--density", "3")
    assert code == 0
    assert set(json.loads(out)) == {"command", "density"}


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write(tmp_path, "cay.lts", serialize_system(cayley_latin(3)))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "check", "--input", path, "--property", "spreading"
        )
        assert code == 1
        outs.append(out.encode())
    assert outs[0] == outs[1]


STS9 = {"n": 9, "m": 12, "steiner": True}
REPORTS = [
    (
        ["construct", "--family", "star-expansion", "--p", "4", "--json"],
        {
            "command": "construct",
            "family": "star-expansion",
            "system": {"n": 10, "m": 6, "steiner": False},
        },
    ),
    (
        ["check", "--input", "{}", "--property", "linear"],
        {
            "command": "check",
            "property": "linear",
            "system": STS9,
            "holds": True,
            "witness": None,
            "checked_count": 12,
        },
    ),
    (
        ["closure", "--input", "{}", "--set", "0,1"],
        {
            "command": "closure",
            "system": STS9,
            "set": [0, 1],
            "neighbourhood": [5],
            "closure": [0, 1, 5],
        },
    ),
    (
        ["expander", "--input", "{}"],
        {
            "command": "expander",
            "system": STS9,
            "min_deficiency": 0,
            "per_size_min_neighbourhood": {"1": 0, "2": 1, "3": 0, "4": 3},
            "worst_set": [0, 1, 5],
            "min_ratio": {"numerator": 3, "denominator": 4},
        },
    ),
    (
        ["search", "--min-wsp", "--n", "5"],
        {
            "command": "search",
            "n": 5,
            "minimum": 2,
            "witness": [[0, 1, 2], [0, 3, 4]],
            "nodes_explored": 2,
            "exhaustive_below": True,
        },
    ),
    (
        ["bounds", "--density", "3"],
        {
            "command": "bounds",
            "density": {"p": 3, "n": 21, "m": 64, "ratio": 0.14512471655328799},
        },
    ),
]


@pytest.mark.parametrize(("argv", "report"), REPORTS, ids=[a[0] for a, _ in REPORTS])
def test_every_report_leads_with_its_command(tmp_path, capsys, argv, report):
    # the report's exact bytes: its keys in this order, led by "command",
    # two-space indents and one closing newline
    path = write(tmp_path, "sts9.lts", serialize_system(bose_skolem(3)))
    code, out, _ = run_cli(capsys, *(word.format(path) for word in argv))
    assert code == 0
    out = out[out.index("{") :]  # construct writes its system first
    assert out.encode() == (json.dumps(report, indent=2) + "\n").encode()


def test_construct_without_json_prints_no_report(capsys):
    argv = ["construct", "--family", "star-expansion", "--p", "4"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == serialize_system(star_expansion(4))


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "construct" in out


SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = str(Path(__file__).resolve().parent / "data" / "%s.lts")
BOSE_SKOLEM_5 = ["construct", "--family", "bose-skolem", "--p", "5"]
STDIN = ["--input", "/dev/stdin"]
LINEAR = ["--property", "linear"]


def lts_process(argv, feed=None):
    """lts run as its own process on the package in src, feed on stdin."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ltspread.cli", *argv],
        input=feed,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize(
    "upstream,argv,code",
    [
        pytest.param(
            ["construct", "--family", "bose-skolem", "--p", "7"],
            ["check", *STDIN, "--property", "spreading"],
            0,
            id="spreading",
        ),
        pytest.param(
            BOSE_SKOLEM_5,
            ["check", *STDIN, "--property", "spreading", "--mode", "brute-force"],
            0,
            id="brute-force",
        ),
        pytest.param(
            BOSE_SKOLEM_5, ["closure", *STDIN, "--set", "0,1"], 0, id="closure"
        ),
        pytest.param(BOSE_SKOLEM_5, ["expander", *STDIN], 0, id="expander"),
        pytest.param(
            BOSE_SKOLEM_5,
            ["expander", *STDIN, "--max-size", "7", "--budget", "100"],
            2,
            id="expander-budget",
        ),
        pytest.param(
            ["construct", "--family", "spreading-6p3", "--p", "31"],
            ["check", *STDIN, *LINEAR],
            0,
            id="linear-n195",
        ),
        pytest.param(
            None,
            ["check", "--input", FIXTURE % "duplicate_pair", *LINEAR],
            3,
            id="duplicate-pair",
        ),
        pytest.param(
            None,
            ["check", "--input", FIXTURE % "vertex_out_of_range", *LINEAR],
            3,
            id="vertex-out-of-range",
        ),
        pytest.param(
            "lts 1\n1500 0\n",
            ["check", *STDIN, "--property", "steiner"],
            1,
            id="steiner-n1500",
        ),
        pytest.param(
            "lts 1\n130000 1\n0 1 2\n",
            ["check", *STDIN, "--property", "strong-connectivity"],
            2,
            id="strong-n130000",
        ),
    ],
)
def test_lts_processes(upstream, argv, code):
    """Pipelines of lts processes: upstream is a command whose stdout is
    piped into argv, or the text fed to it, or None."""
    if isinstance(upstream, list):
        made = lts_process(upstream)
        assert made.returncode == 0, made.stderr
        upstream = made.stdout
    done = lts_process(argv, upstream)
    assert done.returncode == code, done.stderr
    if code < 2:
        json.loads(done.stdout)


FUZZ_SOURCES = [
    serialize_system(s)
    for s in (
        bose_skolem(3),
        cayley_latin(3),
        star_expansion(4),
        spreading_6p3(3),
        build_system(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6)]),
        bose_skolem(13),  # n = 39
        spreading_6p3(11),  # n = 69: only the checks that do not grow with n
    )
]
# What the fuzz test below writes into them: words past int64 and past
# int()'s digit limit, non-ASCII digits, line breaks and spaces that
# str.splitlines and str.split know, a BOM, a comment mark.
FUZZ_TOKENS = [
    "9" * 19,
    "1" + "0" * 19,
    "9" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1),
    "\u0667",  # Arabic-Indic 7
    "\u0661\u0660",
    "\r",
    "\r\n",
    "\x0b",
    "\u00a0",  # NBSP
    "\ufeff",  # BOM
    "#",
    "-",
    " ",
    "\n",
    "0",
    "7",
]


@st.composite
def fuzzed_files(draw):
    """Arbitrary bytes, with or without the header, or a serialized
    construction with a few spans replaced by tokens, then maybe truncated."""
    kind = draw(st.sampled_from(["bytes", "header", *["mutated"] * 6]))
    if kind != "mutated":
        data = draw(st.binary(max_size=120))
        return b"lts 1\n" + data if kind == "header" else data
    text = draw(st.sampled_from(FUZZ_SOURCES))
    for _ in range(draw(st.integers(0, 3))):
        # anywhere, or about the counts line
        i = draw(st.integers(0, len(text)) | st.integers(4, 16))
        j = draw(st.integers(i, i + 2))
        text = text[:i] + draw(st.sampled_from(FUZZ_TOKENS)) + text[j:]
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode()


def declared_order(data):
    """The n of the counts line (the second line that is neither blank nor
    a "#" comment) when it is a decimal word of at most 10 characters."""
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError:
        return None
    kept = [s for line in lines if (s := line.strip()) and s[0] != "#"]
    words = kept[1].split() if len(kept) > 1 else []
    if words and words[0].isdecimal() and len(words[0]) <= 10:
        return int(words[0])
    return None


@settings(max_examples=150, deadline=None)
@given(
    fuzzed_files(),
    st.lists(st.sampled_from(["0", "1", "38", "40", "-1", "x", "9" * 20]), max_size=4),
    st.integers(-1, 4),
)
def test_exit_codes_on_fuzzed_files(tmp_path_factory, data, words, max_size):
    path = tmp_path_factory.getbasetemp() / "fuzz.lts"
    path.write_bytes(data)
    properties = ["linear", "steiner"]
    argvs = []
    # the other checks, the closure and the expander grow with n
    if (n := declared_order(data)) is not None and n <= 40:
        event("n <= 40")
        properties += ["spreading", "weakly-spreading", "strong-connectivity"]
        argvs += [["closure", f"--set={','.join(words)}"]]
        argvs += [["expander", f"--max-size={max_size}"]]
    argvs += [["check", "--property", p] for p in properties]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, "--input", str(path)])
        out, err = out.getvalue(), err.getvalue().splitlines()
        assert code in (0, 1, 2, 3), (argv, err)
        assert err[-1].startswith("run_time_s "), (argv, err)
        if code >= 2:
            assert out == "" and len(err) == 2 and err[0].startswith("error: ")
        else:
            report = json.loads(out)
            assert isinstance(report, dict) and next(iter(report)) == "command"
        event(f"exit {code}")


# the library call behind each family, taking a parameter and a keep list
CONSTRUCTIONS = {
    "bose-skolem": lambda p, keep: bose_skolem(p),
    "spreading-6p3": lambda p, keep: spreading_6p3(p),
    "crowning": lambda p, keep: crowning(spreading_6p3(p), keep),
    "cayley-latin": lambda p, keep: cayley_latin(p),
    "star-expansion": lambda p, keep: star_expansion(p),
}


def constructed(family, word, keep):
    """The library's system for construct --family --p word [--keep keep],
    or None where lts refuses it."""
    try:
        p = int(word)  # argparse's reading of --p
    except ValueError:
        return None
    if keep is not None:
        pieces = keep.split(",") if keep.strip() else []
        if family != "crowning" or not all(piece.strip() for piece in pieces):
            return None
        keep = [int(piece) for piece in pieces]
    try:
        return CONSTRUCTIONS[family](p, keep)
    except LtsError:
        return None


@st.composite
def construct_arguments(draw):
    """(family, P, K) for construct --family F --p P [--keep K]: P an
    integer word of -3..61, an odd prime or a word argparse refuses; K, None
    or (mostly with crowning) comma-separated indices, valid (p = 3 leaves
    18 uncovered edges), negative, out of range or blank."""
    family = draw(st.sampled_from(sorted(CONSTRUCTIONS)))
    word = draw(
        st.integers(-3, 61).map(str)
        | st.sampled_from(["3", "5", "7", "11", "61"])
        | st.sampled_from(["x", "1e3", "0x5", ""])
    )
    keep = None
    if draw(st.integers(0, 3)) < (3 if family == "crowning" else 1):
        entries = st.integers(0, 17) | st.integers(-3, 40)
        entries |= st.sampled_from([10**6, "", " "])
        keep = ",".join(map(str, draw(st.lists(entries, max_size=4))))
    return family, word, keep


@settings(max_examples=200, deadline=None)
@given(construct_arguments())
def test_exit_codes_on_fuzzed_construct_arguments(arguments):
    family, word, keep = arguments
    argv = ["construct", "--family", family, f"--p={word}"]
    argv += [] if keep is None else [f"--keep={keep}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 2), (argv, err)
    assert err[-1].startswith("run_time_s "), (argv, err)
    want = constructed(family, word, keep)
    assert (code == 0) == (want is not None), (argv, err)
    if code == 2:
        assert out == "" and sum("error: " in line for line in err) == 1, (argv, err)
    else:
        assert parse_system(out) == want, argv
    event(f"exit {code}")
