"""File format and command-line behaviour."""

import bisect
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
import numpy as np
from hypothesis import event, given, settings
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
from ltspread import cli
from ltspread.cli import parse_system, run, serialize_system

from helpers import parse_naive, random_linear_system, traced_peak


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
def test_parse_agrees_with_the_line_by_line_parser(seed, n, plain, kinds):
    text = lts_text(random.Random(seed), n, plain, kinds)
    with patch.object(cli, "_read_lines", wraps=cli._read_lines) as per_line:
        expected = assert_parsers_agree(text)
    # lines are read one at a time only when some line is not plain, or to
    # find the line that breaks the grammar
    assert per_line.called == (not plain or isinstance(expected, ParseError))
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
    ],
)
def test_parse_agrees_on_edge_texts(text):
    assert_parsers_agree(text)


def test_parse_memory():
    # a line-by-line read peaks at 35.7 MiB here, a whole-text regex at 47.7
    text = serialize_system(bose_skolem(201))
    system, peak = traced_peak(lambda: parse_system(text))
    assert system == bose_skolem(201)
    assert peak <= 36 * 2**20


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
    code, out, err = run_cli(capsys, "check", "--input", path, "--property", "spreading")
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
