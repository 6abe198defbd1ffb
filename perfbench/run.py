"""Benchmark of the cubeshadows library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-deep --seed 1 --seconds 20 --trace 0

Runs one workload (oracle-deep, sweep, sampling or cli; see README.md)
as a closed loop with one client for --seconds, checks every
operation's output, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every operation runs
twice, once plain and once with spans around the library's public
functions, and the metrics are the per-layer ones.
Full results (with the machine description) and the spans go under
.bench_work/ in the checkout.

``--record-digests`` rewrites perfbench/digests.json from the current
code; run it only at a commit whose outputs are the accepted reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import machine
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPS = 15
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cubeshadows\n"
    "{warm}\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["oracle-deep", "sweep", "sampling", "cli"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None and not args.record_digests:
        p.error("--workload is required")
    return args


def load_library():
    """Import cubeshadows from this checkout's src/, never from elsewhere."""
    if not (SRC / "cubeshadows" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubeshadows sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubeshadows
    from cubeshadows import cli, extremal, geometry, measure, oracle

    if Path(cubeshadows.__file__).resolve().parent != (SRC / "cubeshadows").resolve():
        raise SystemExit(f"error: imported cubeshadows from {cubeshadows.__file__}")
    return {
        "cli": cli,
        "extremal": extremal,
        "geometry": geometry,
        "measure": measure,
        "oracle": oracle,
    }


def child_env():
    env = dict(os.environ)
    machine.pin_threads(env)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_once(wl, env):
    """Import plus the first call, timed inside a fresh interpreter."""
    p = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(warm=wl.warmup_code)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if p.returncode != 0:
        raise SystemExit(f"error: setup child failed:\n{p.stderr}")
    return float(p.stdout.strip().splitlines()[-1])


def timed(op, i):
    """One operation as a record ``(i, seconds, work, output)``."""
    t0 = time.perf_counter()
    try:
        work, out = op(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        work, out = 0, exc
    return (i, time.perf_counter() - t0, work, out)


def run_loop(op, seconds, between=lambda progress: None):
    """Closed loop: op(0), op(1), ... until the operations have taken
    seconds in all (at least one runs). ``between`` is called before each
    operation with the share of the time used so far."""
    records = []
    busy = 0.0
    while not records or busy < seconds:
        between(busy / seconds)
        records.append(timed(op, len(records)))
        busy += records[-1][1]
    return records


def run_measured(wl, env, seconds):
    """The timed loop, with the fresh-interpreter set-ups spread over it.

    Load on the machine drifts over seconds; spreading the set-ups across
    the run exposes them to the same drift as the operations, instead of
    to one moment of it.
    """
    setups = []

    def between(progress):
        while len(setups) < SETUP_REPS and progress >= len(setups) / SETUP_REPS:
            setups.append(setup_once(wl, env))

    records = run_loop(wl.op, seconds, between)
    while len(setups) < SETUP_REPS:
        setups.append(setup_once(wl, env))
    return records, setups


def end_to_end(wl, records, setup_s):
    """Throughput is the work of one operation of each kind over the 10th
    percentile of that kind's times, summed over the kinds in the run.

    Operations of one kind do identical work, so their times differ only
    by interference from elsewhere on the machine, which only ever adds
    time. As timeit's documentation argues for its minimum, the fast end
    of the distribution is the steady estimate of the code's own cost;
    the 10th percentile keeps that steadiness without resting on a single
    lucky operation.
    """
    kinds = defaultdict(list)
    for i, seconds, work, _ in records:
        kinds[wl.op_label(i)].append((seconds, work))
    busy = sum(_p10([s for s, _ in ops]) for ops in kinds.values())
    work = sum(statistics.median(w for _, w in ops) for ops in kinds.values())
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(
            (r[3]["maxrss_kb"] for r in records if not isinstance(r[3], Exception)),
            default=0,
        )
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / busy, "work/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _p10(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def report_lines(wl, records, metrics, failed, attempted):
    """The end-to-end numbers under the names the workload's users know."""
    e = {k: v for k, (v, _) in metrics.items()}
    lines = [
        f"{wl.work_name} {e['work_per_s']:.6g} {wl.work_unit} ({len(records)} operations)",
    ]
    if wl.name == "cli":
        walls = [r[1] for r in records]
        deciles = statistics.quantiles(walls, n=10) if len(walls) >= 2 else walls * 9
        lines.append(f"cli_run_s_p50 {statistics.median(walls):.6g} s ({len(walls)} runs)")
        lines.append(f"cli_run_s_p90 {deciles[-1]:.6g} s ({len(walls)} runs)")
    lines += [
        f"setup_s {e['setup_s']:.6g} s (median of {SETUP_REPS} fresh interpreters)",
        f"peak_rss_mb {e['peak_rss_mb']:.6g} MB",
        f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})",
    ]
    return lines


def run_traced(wl, mods, seconds):
    """Run each operation twice, plain and traced, until seconds have passed.

    The order within a pair alternates, so warm caches and drifting load
    favour neither side; the traced-minus-plain time is the overhead.
    """
    import workloads

    tracer = tracing.Tracer()
    traced_op = tracer.wrap("bench.op", wl.op, wl.op_label)

    def traced(i):
        tracer.op_id = i
        if wl.in_process:
            tracer.install(mods)
        wl.tracer = tracer
        try:
            return traced_op(i)
        finally:
            tracer.uninstall()
            wl.tracer = None

    plain, spanned = [], []
    busy = 0.0
    while not plain or busy < seconds:
        i = len(plain)
        if i % 2:
            spanned.append(timed(traced, i))
            plain.append(timed(wl.op, i))
        else:
            plain.append(timed(wl.op, i))
            spanned.append(timed(traced, i))
        busy += plain[-1][1] + spanned[-1][1]
    busy_plain = sum(r[1] for r in plain)
    busy_traced = sum(r[1] for r in spanned)
    metrics = tracing.layer_metrics(tracer.spans, busy_traced)
    metrics.update(tracing.cli_metrics(tracer.spans, workloads.CLI_LABELS))
    metrics.update(workloads.extremal_counts(spanned))
    metrics["trace.overhead_frac"] = (busy_traced / busy_plain - 1.0, "frac")
    return plain, spanned, metrics, tracer


def record_digests(mods, env):
    import workloads

    samp = workloads.Sampling(mods, workloads.DEFAULT_SEED, ROOT, env, {})
    samp.prepare()
    rounds = [workloads.digest(workloads.rows_text(samp.rows(s))) for s in samp.seeds[:8]]
    cli = workloads.Cli(mods, workloads.DEFAULT_SEED, ROOT, env, {})
    cli.prepare()
    data = {
        "seed": workloads.DEFAULT_SEED,
        "sampling_rounds": rounds,
        "cli": {label: workloads.digest(text) for label, (_, text, _) in cli.expected.items()},
    }
    DIGESTS.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


def main(argv=None):
    args = parse_args(argv)
    machine.pin_threads(os.environ)
    os.chdir(ROOT)
    mods = types.SimpleNamespace(**load_library())
    env = child_env()
    import workloads

    if args.record_digests:
        record_digests(mods, env)
        return 0

    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload](mods, args.seed, ROOT, env, digests)
    wl.prepare()

    if args.trace == 0:
        records, setups = run_measured(wl, env, args.seconds)
        metrics = end_to_end(wl, records, statistics.median(setups))
        checked = [records]
    else:
        setups = []
        records, spanned, metrics, tracer = run_traced(wl, vars(mods), args.seconds)
        checked = [records, spanned]

    probes = wl.probes()
    attempted = sum(map(len, checked)) + len(probes)
    failed = sum(len(wl.check(recs)) for recs in checked) + probes.count(False)

    WORK_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}"
    if args.trace:
        (WORK_DIR / "trace").mkdir(exist_ok=True)
        spans_path = WORK_DIR / "trace" / f"{tag}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans of {len(spanned)} operations in {spans_path}")
        print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    else:
        for line in report_lines(wl, records, metrics, failed, attempted):
            print(line)
    env_info = machine.describe()
    print("env " + json.dumps(env_info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK_DIR / "results").mkdir(exist_ok=True)
    with open(WORK_DIR / "results" / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(
            {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "machine": env_info, "result": result,
             "setups": setups,
             "ops": [[wl.op_label(r[0]), r[1], r[2]] for r in records]},
            f, indent=2,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
