"""Benchmark for ltspread: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  The run builds the workload's inputs
from --seed (setup, repeated SETUP_REPS times and timed), then runs the op
batch again and again until --seconds have passed, checking every output.
Times are normalised by a reference computation timed next to each op and
each set-up (see reference.py), so that the host's changing speed cancels.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 runs
untraced and traced batches in turn and reports the per-layer metrics from
spans recorded around calls into each ltspread module (see spans.py); the
spans are also written to .perfbench/spans-<workload>-<seed>.json.

Exit status: 0 when every output was right, 1 when an op failed, timed out
or gave a wrong output, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import stats
from reference import NOMINAL_S, reference_seconds
from spans import LAYERS, Tracer, self_times, spans_to_json, top_level_covered
from workloads import WORKLOADS, Context, Op, child_env

SETUP_REPS = 5
PROCESS_REPS = 5
OP_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no op may run past this point of the run
MIN_BATCHES = 3
OUT_DIR = ".perfbench"

END_TO_END = {"wall_norm_s": "s", "op_p50_norm_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "closure.spreading_s": "s",
    "closure.weak_s": "s",
    "closure.strong_s": "s",
    "closure.expander_s": "s",
    "closure.seeds": "count",
    "closure.seeds_per_s": "1/s",
    "closure.expander_subsets": "count",
    "closure.query_s": "s",
    "closure.query_count": "count",
    "closure.query_closure_size_mean": "vertices",
    "closure.nbhd_s": "s",
    "closure.in_search_s": "s",
    "closure.in_search_calls": "count",
    "extremal.search_s": "s",
    "extremal.nodes": "count",
    "extremal.nodes_per_s": "1/s",
    "extremal.wsp_checks_per_node": "ratio",
    "extremal.peak_alloc_mb": "MB",
    "core.build_s": "s",
    "core.build_calls": "count",
    "core.triples_built": "count",
    "cli.parse_s": "s",
    "cli.parse_mb_per_s": "MB/s",
    "cli.serialize_s": "s",
    "cli.run_s": "s",
    "constructions.build_s": "s",
    "bounds.tau_s": "s",
    "process.interp_s": "s",
    "process.import_s": "s",
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "trace.uncovered_pct": "%",
    "trace.overhead_pct": "%",
}

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import ltspread; "
    "print(time.perf_counter() - t)"
)


class OpTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpResult:
    name: str
    seconds: float
    norm: float  # seconds at the reference host speed (see reference.py)
    error: str | None
    latency: bool


def normalise(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the host speed at which the reference takes NOMINAL_S,
    from the reference times measured just before and just after."""
    return seconds * NOMINAL_S * 2 / (ref_before + ref_after)


def run_batch(ops: list[Op], tracer: Tracer | None, stop_at: float) -> list[OpResult]:
    """Run the batch once.  Each op times out after OP_TIMEOUT_S or at
    ``stop_at``, whichever comes first; a timeout ends the batch, other
    failures are recorded and the batch goes on.  The reference computation
    runs before the first op and right after each op; an op's time is
    normalised by the mean of the two reference times around it."""
    results = []
    ref_before = reference_seconds()
    for op in ops:
        error = None
        start = time.perf_counter()
        limit = max(min(OP_TIMEOUT_S, stop_at - start), 0.001)
        try:
            with deadline(limit):
                out = op.run(tracer)
        except OpTimeout:
            error = f"timed out after {limit:.3g} s"
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ref_after = reference_seconds()
        norm = normalise(seconds, ref_before, ref_after)
        ref_before = ref_after
        if error is None:
            error = op.check(out)
        results.append(OpResult(op.name, seconds, norm, error, op.latency))
        if isinstance(error, str) and error.startswith("timed out"):
            break
    return results


def batch_seconds(batch: list[OpResult]) -> float:
    return sum(r.seconds for r in batch)


def op_medians(
    batches: list[list[OpResult]], field: str = "norm"
) -> list[tuple[OpResult, float]]:
    """Each op of the batch with the median over the batches of its
    normalised (or, with field="seconds", raw) latency."""
    by_op: dict[str, list[float]] = defaultdict(list)
    for batch in batches:
        for r in batch:
            by_op[r.name].append(getattr(r, field))
    return [(r, statistics.median(by_op[r.name])) for r in batches[0]]


def measure(ops: list[Op], seconds: float, traced: bool, stop_at: float):
    """Run batches until the next one would end after ``seconds`` (but at
    least MIN_BATCHES) or an op fails.  A traced measurement alternates
    untraced and traced batches, at least one of each."""
    plain: list[list[OpResult]] = []
    traced_batches: list[list[OpResult]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_batch(ops, None, stop_at))
        if traced:
            with tracer:
                traced_batches.append(run_batch(ops, tracer, stop_at))
        now = time.perf_counter()
        if any(r.error for b in plain + traced_batches for r in b):
            break
        enough = len(plain) >= (1 if traced else MIN_BATCHES)
        if enough and now + (now - round_start) > start + seconds:
            break
    return plain, traced_batches, tracer


# -- set-up and process timings ----------------------------------------------


def _wall(cmd: list[str], root: Path) -> float:
    start = time.perf_counter()
    subprocess.run(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, check=True,
        timeout=OP_TIMEOUT_S,
    )
    return time.perf_counter() - start


def child_import_seconds(root: Path) -> float:
    """Time of ``import ltspread`` in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        check=True,
        timeout=OP_TIMEOUT_S,
    )
    return float(proc.stdout)


def process_times(root: Path) -> tuple[float, float]:
    """Median wall of ``python -c pass`` and the extra that importing
    ltspread adds to it."""
    passes, imports = [], []
    for _ in range(PROCESS_REPS):
        passes.append(_wall([sys.executable, "-c", "pass"], root))
        imports.append(_wall([sys.executable, "-c", "import ltspread"], root))
    interp = statistics.median(passes)
    return interp, statistics.median(imports) - interp


# -- machine facts ------------------------------------------------------------


def pin_to_one_cpu() -> str:
    """Keep this process and the processes it starts on one CPU, the
    highest it may use, and return that CPU's number.  The reference then
    runs on the same CPU as every op, ``lts`` children included; on a
    shared VM the CPUs are not equally fast at any one time."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "none"
    return str(cpu)


def machine_facts(
    root: Path, numpy_version: str, loadavg: tuple[float, ...], pinned: str
) -> dict[str, str]:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "none"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": str(os.cpu_count()),
        "pinned_cpu": pinned,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_start": " ".join(f"{x:.2f}" for x in loadavg),
    }


# -- metrics ------------------------------------------------------------------


def wall_and_p50(batches, field: str = "norm") -> tuple[float, float]:
    """The batch time as the sum of each op's median latency over the
    batches, so one slow batch does not move it, and the median of those op
    medians (latency ops only), in ms."""
    medians = op_medians(batches, field)
    wall = sum(m for _, m in medians)
    return wall, statistics.median(m for r, m in medians if r.latency) * 1000


def end_to_end_metrics(batches, setups, peak_rss_mb) -> dict[str, float]:
    """``setups`` holds (seconds, normalised seconds) per set-up."""
    wall, p50 = wall_and_p50(batches)
    return {
        "wall_norm_s": wall,
        "op_p50_norm_ms": p50,
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": peak_rss_mb,
    }


def has_ancestor(spans, span, layer: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.layer == layer:
            return True
    return False


def layer_totals(spans, weight: float = 1.0) -> dict[str, float]:
    """Additive span totals, each multiplied by weight."""
    tot: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        tot[f"self.{span.layer}"] += own * weight
        tot[f"self.{span.name}"] += own * weight
        tot[f"incl.{span.name}"] += span.duration * weight
        tot[f"calls.{span.name}"] += weight
        for key, value in span.info.items():
            if key != "peak_alloc":
                tot[f"work.{key}"] += value * weight
        if span.layer == "closure" and has_ancestor(spans, span, "extremal"):
            tot["closure.in_search_s"] += span.duration * weight
            tot["closure.in_search_calls"] += weight
    tot["covered"] += top_level_covered(spans) * weight
    return tot


def per_layer_metrics(tot, wall, overhead_pct, interp_s, import_s, peak_alloc_mb):
    """Per-layer figures for one set-up plus one batch, from layer totals."""

    def g(key: str) -> float:
        return tot.get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    checks_s = sum(
        g(f"incl.closure.{f}")
        for f in ("is_spreading", "is_weakly_spreading", "is_strongly_connected")
    )
    metrics = {
        "closure.spreading_s": g("incl.closure.is_spreading"),
        "closure.weak_s": g("incl.closure.is_weakly_spreading"),
        "closure.strong_s": g("incl.closure.is_strongly_connected"),
        "closure.expander_s": g("incl.closure.expander_deficiency"),
        "closure.seeds": g("work.seeds"),
        "closure.seeds_per_s": ratio(g("work.seeds"), checks_s),
        "closure.expander_subsets": g("work.subsets"),
        "closure.query_s": g("incl.closure.closure"),
        "closure.query_count": g("calls.closure.closure"),
        "closure.query_closure_size_mean": ratio(g("work.size"), g("calls.closure.closure")),
        "closure.nbhd_s": g("incl.closure.neighbourhood"),
        "closure.in_search_s": g("closure.in_search_s"),
        "closure.in_search_calls": g("closure.in_search_calls"),
        "extremal.search_s": g("self.extremal"),
        "extremal.nodes": g("work.nodes"),
        "extremal.nodes_per_s": ratio(g("work.nodes"), g("incl.extremal.min_weakly_spreading")),
        "extremal.wsp_checks_per_node": ratio(g("closure.in_search_calls"), g("work.nodes")),
        "extremal.peak_alloc_mb": peak_alloc_mb,
        "core.build_s": g("self.core"),
        "core.build_calls": g("calls.core.build_system"),
        "core.triples_built": g("work.triples"),
        "cli.parse_s": g("self.cli.parse_system"),
        "cli.parse_mb_per_s": ratio(g("work.bytes") / 1e6, g("incl.cli.parse_system")),
        "cli.serialize_s": g("incl.cli.serialize_system"),
        "cli.run_s": g("incl.cli.run"),
        "constructions.build_s": g("self.constructions"),
        "bounds.tau_s": g("incl.bounds.tau"),
        "process.interp_s": interp_s,
        "process.import_s": import_s,
        **{f"{layer}.self_pct": 100 * ratio(g(f"self.{layer}"), wall) for layer in LAYERS},
        "trace.uncovered_pct": 100 * ratio(wall - g("covered"), wall),
        "trace.overhead_pct": overhead_pct,
    }
    return metrics


# -- main ---------------------------------------------------------------------


def report_end_to_end(plain, setups, children: bool) -> tuple[dict, list[str]]:
    rss = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = end_to_end_metrics(plain, setups, resource.getrusage(rss).ru_maxrss / 1024)
    latencies = sorted(r.seconds for b in plain for r in b if r.latency)
    ops = sum(r.latency for r in plain[0])
    raw_wall, raw_p50 = wall_and_p50(plain, "seconds")
    refs = [r.seconds / r.norm * NOMINAL_S for b in plain for r in b if r.norm > 0]
    lines = [
        f"wall_norm_s {metrics['wall_norm_s']:.4f} s "
        f"(sum of per-op medians over {len(plain)} batches, at reference speed)",
        f"op_p50_norm_ms {metrics['op_p50_norm_ms']:.3f} ms "
        f"(median of {ops} per-op medians, at reference speed)",
        f"wall_s {raw_wall:.4f} s, op_p50_ms {raw_p50:.3f} ms (as timed)",
        f"reference_ms {statistics.median(refs) * 1000:.3f} ms "
        f"(median around {len(refs)} ops; nominal {NOMINAL_S * 1000:g} ms)",
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups, at reference "
        f"speed; {statistics.median(raw for raw, _ in setups):.4f} s as timed)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB"
        + (" (largest child process)" if children else ""),
    ]
    pct = stats.tail_percentile(len(latencies))
    if pct is not None and pct > 50:
        value = stats.nearest_rank(latencies, pct) * 1000
        beyond = stats.samples_beyond(len(latencies), pct)
        lines.append(
            f"op_tail_ms {stats.format_pct(pct)} {value:.3f} ms "
            f"({len(latencies)} op samples, {beyond} beyond)"
        )
    else:
        lines.append(f"op_tail_ms none ({len(latencies)} op samples are too few)")
    return metrics, lines


def report_per_layer(plain, traced, tracer, setup_tracer, setup_wall, peak_alloc, root):
    interp_s, import_s = process_times(root)
    untraced_wall = wall_and_p50(plain)[0]
    traced_wall = wall_and_p50(traced)[0]
    n = len(traced)
    tot = layer_totals(setup_tracer.spans)
    for key, value in layer_totals(tracer.spans, 1 / n).items():
        tot[key] += value
    wall = setup_wall + sum(batch_seconds(b) for b in traced) / n
    metrics = per_layer_metrics(
        tot,
        wall,
        100 * (traced_wall / untraced_wall - 1),
        interp_s,
        import_s,
        peak_alloc / 2**20,
    )
    lines = [
        f"per-layer figures cover one set-up plus the mean of {n} traced batches "
        f"({len(plain)} untraced batches for the overhead)"
    ]
    lines += [f"{k} {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
    return metrics, lines


def check_metric_table(bench: dict, key: str, produced: dict[str, str]) -> None:
    declared = {m["name"]: m["unit"] for m in bench[key]}
    if declared != produced:
        raise SystemExit(f"perfbench: {key} in BENCHMARK.json does not match run.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stop_at = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "ltspread" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'ltspread'}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_table(bench, "end_to_end", END_TO_END)
    check_metric_table(bench, "per_layer", PER_LAYER)
    loadavg = os.getloadavg()
    pinned = pin_to_one_cpu()

    sys.path.insert(0, str(src))
    import ltspread
    import ltspread.cli
    import numpy

    if Path(ltspread.__file__).resolve().parent != (src / "ltspread").resolve():
        print(f"perfbench: imported ltspread from {ltspread.__file__}", file=sys.stderr)
        return 2
    facts = machine_facts(root, numpy.__version__, loadavg, pinned)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, root, ltspread, facts, workdir.relative_to(root), stop_at)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, lts, facts: dict[str, str], workdir: Path, stop_at: float) -> int:
    setup, make_ops = WORKLOADS[args.workload]
    ctx = Context(root, workdir, args.seed)
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "machine " + " ".join(f"{k}={v!r}" if " " in v else f"{k}={v}" for k, v in facts.items()),
    ]

    setup_tracer = Tracer()
    setups = []
    if args.trace:
        with setup_tracer:
            start = time.perf_counter()
            inputs = setup(lts, ctx)
            setup_wall = time.perf_counter() - start
    else:
        for _ in range(SETUP_REPS):
            ref_before = reference_seconds()
            imported = child_import_seconds(root)
            start = time.perf_counter()
            inputs = setup(lts, ctx)
            seconds = imported + time.perf_counter() - start
            setups.append((seconds, normalise(seconds, ref_before, reference_seconds())))
    ops = make_ops(lts, inputs, ctx)

    plain, traced, tracer = measure(ops, args.seconds, bool(args.trace), stop_at)
    extra: list[OpResult] = []
    peak_alloc = 0
    if any(s.layer == "extremal" for s in tracer.spans):
        # tracemalloc slows the search several times over, so the peak
        # comes from one more batch whose times are not used
        alloc_tracer = Tracer(measure_alloc=True)
        with alloc_tracer:
            extra = run_batch(ops, alloc_tracer, stop_at)
        peak_alloc = max((s.info.get("peak_alloc", 0) for s in alloc_tracer.spans), default=0)
    everything = [r for b in plain + traced for r in b] + extra
    failures = [r for r in everything if r.error]
    for r in failures:
        print(f"perfbench: FAILED {r.name}: {r.error}", file=sys.stderr)
    attempted, failed = len(everything), len(failures)

    if args.trace:
        metrics, more = report_per_layer(
            plain, traced, tracer, setup_tracer, setup_wall, peak_alloc, root
        )
        units = PER_LAYER
        spans_file = root / OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(
            json.dumps(
                {
                    "setup": spans_to_json(setup_tracer.spans),
                    "batches": spans_to_json(tracer.spans),
                }
            ),
            encoding="utf-8",
        )
    else:
        metrics, more = report_end_to_end(plain, setups, args.workload == "cli")
        units = END_TO_END
        more.append(f"error_rate {failed / attempted:g} ({failed} of {attempted} ops failed)")
    lines += more

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
