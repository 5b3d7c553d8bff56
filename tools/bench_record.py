"""Run perfbench once and append its result to BENCH_<workload>.json.

    python3 tools/bench_record.py --workload load_query --seed 920
    python3 tools/bench_record.py --workload load_query --seed 920 --checkout DIR

perfbench/run.py runs in the checkout (by default this repository) as it
would by hand, for the run length the checkout's BENCHMARK.json sets.  Its
summary goes to stdout as usual.  Its final JSON line (correct, attempted,
failed, metrics) is appended to BENCH_<workload>.json at the root
of this repository, with the run's arguments, the UTC start time and the
machine facts the run printed (commit and source hash of the checkout, CPU,
pinned CPU, Python and numpy versions, load average).  The file is a JSON
list with one entry per line.  The exit code is run.py's.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shlex
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def machine_facts(summary: str) -> dict[str, str]:
    """The key=value facts of the summary's "machine" line."""
    for line in summary.splitlines():
        if line.startswith("machine "):
            return dict(item.split("=", 1) for item in shlex.split(line)[1:])
    return {}


def append(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(entry)
    body = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    path.write_text(f"[\n{body}\n]\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=REPO)
    args = parser.parse_args(argv)
    bench = (args.checkout / "BENCHMARK.json").read_text(encoding="utf-8")
    seconds = float(json.loads(bench)["run_seconds"])
    started = datetime.datetime.now(datetime.timezone.utc)
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", f"{seconds:g}"]
    command += ["--trace", str(args.trace)]
    done = subprocess.run(command, cwd=args.checkout, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("bench_record: the run printed no result", file=sys.stderr)
        return done.returncode or 1
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "date": started.isoformat(timespec="seconds"),
        "machine": machine_facts(done.stdout),
        **json.loads(lines[-1]),
    }
    append(REPO / f"BENCH_{args.workload}.json", entry)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
