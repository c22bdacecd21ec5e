"""The wall-clock benchmark: one command, every metric by name.

    python benchmarks/perf/run.py [--seed 11] [--quick] [--workload NAME]
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py --runs 10 --out A.json
    python benchmarks/perf/run.py --compare A.json B.json

The second form is one measured run: it prints a row per metric and, as
its last line, one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The first form makes that run, untraced then
traced, for every workload, each in a process of its own so that
``peak_rss_mb`` belongs to one workload. ``README.md`` defines the
workloads and metrics; ``BENCHMARK.json`` at the repository root holds
their names, units and regression bounds, and this file reads them
from there.
"""

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

#: metrics the deterministic engine computes: one seed, one value
EXACT = ("wal_bytes_per_txn", "attempts_per_commit", "sim_txn_per_ktick")

MIN_REPETITIONS = 3
NOISY_DRIFT = 0.10


def load_manifest():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_engine():
    """Put the checkout's ``src`` on the path. The benchmark builds
    nothing, but it must refuse to run where the engine is absent."""
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        sys.exit(f"run.py: no engine source under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    return workloads, spans


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrate(workloads):
    """The calibration kernel's rate right now, in kernel operations per
    second (median of 32 runs); before and after a run it tells a
    machine that changed speed from an engine that did."""
    calibration = workloads.Calibration()
    return workloads.KERNEL_OPS / statistics.median(
        calibration.sample() for _ in range(32)
    )


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

#: (operation class, quantile, window): the window is the number of
#: consecutive samples one percentile is taken from -- 1000 for a p99
#: and 200 for a p95, so that ten samples lie beyond it.
LATENCIES = (
    ("txn", 0.5, 250), ("txn", 0.99, 1000),
    ("read", 0.5, 250), ("read", 0.99, 1000),
    ("scan", 0.5, 50), ("scan", 0.95, 200),
    ("select", 0.5, 20),
)
#: operations per throughput window; a multiple of every workload's mix
#: period (100 for dashboard_read, 10 for shard4_moves), as is its step
RATE_WINDOW = 500


def window_starts(count, size):
    """Where the sliding windows of ``size`` samples begin: every fifth
    of a window."""
    return range(0, count - size + 1, max(1, size // 5))


def percentile_at_nominal(rep, kind, q, size):
    """The ``q``-quantile of each sliding window of one operation
    class's latencies, divided by how slow the machine was during that
    window; the median over the windows."""
    samples, stamps = rep.latencies[kind], rep.stamps[kind]
    size = min(size, len(samples))
    slowdown = rep.calibration.slowdown
    return statistics.median(
        percentile(samples[i:i + size], q)
        / slowdown(stamps[i] - samples[i], stamps[i + size - 1])
        for i in window_starts(len(samples), size)
    )


def rate_at_nominal(rep):
    """Operations per second over each sliding window of the timed
    region, times how slow the machine was during it; the median."""
    ends = [rep.started] + rep.ends
    size = len(rep.ends) if rep.indivisible else min(RATE_WINDOW, len(rep.ends))
    slowdown = rep.calibration.slowdown
    return statistics.median(
        size / (ends[i + size] - ends[i]) * slowdown(ends[i], ends[i + size])
        for i in window_starts(len(rep.ends), size)
    )


def end_to_end_of(rep):
    """One repetition's end-to-end values, timings at nominal machine
    speed (README, "Steadiness")."""
    values = {}
    for kind, q, size in LATENCIES:
        if rep.indivisible and kind == "txn":
            size = len(rep.latencies[kind])
        values[f"{kind}_p{round(q * 100)}_us"] = 1e6 * percentile_at_nominal(
            rep, kind, q, size
        )
    values.update(
        setup_s=rep.setup_s,
        recover_s=rep.recover_s,
        txn_per_s=rate_at_nominal(rep),
        wal_bytes_per_txn=rep.counters["wal_bytes"] / rep.commits,
        attempts_per_commit=rep.begun / rep.commits,
        sim_txn_per_ktick=1000.0 * rep.commits / rep.counters["ticks"],
    )
    return values


def measure(workloads, name, seed, seconds, quick=False):
    """Untraced repetitions for ``seconds``: none is started that would
    overrun, but three are made regardless -- unless two alone took one
    and a half times the budget, which only a badly disturbed machine
    does, and then the driver's limit on total time matters more."""
    minimum = 1 if quick else MIN_REPETITIONS
    reps = []
    start = perf_counter()
    while True:
        workload = workloads.WORKLOADS[name](seed, quick, index=len(reps))
        reps.append(workload.repetition())
        elapsed = perf_counter() - start
        overrun = elapsed + elapsed / len(reps) > seconds
        if overrun and (len(reps) >= minimum or elapsed > 1.5 * seconds):
            return reps


def summarize(reps):
    """``{metric: (median, lowest, highest)}`` over the repetitions."""
    per_rep = [end_to_end_of(rep) for rep in reps]
    return {
        metric: (
            statistics.median(values[metric] for values in per_rep),
            min(values[metric] for values in per_rep),
            max(values[metric] for values in per_rep),
        )
        for metric in per_rep[0]
    }


def trace_layers(workloads, spans, name, seed, quick=False):
    """Three repetitions of the same inputs: plain, with the engine's
    own tracer on, and with span wrappers installed. Returns the
    per-layer metrics and the traced repetition."""
    make = workloads.WORKLOADS[name]
    # index=1: only the traced repetition makes the segment round trip
    plain = make(seed, quick, index=1).repetition()

    def enable_tracers(workload):
        for db in [workload.facade] + workload.engines:
            db.tracer.enable()

    with_tracer = make(seed, quick, index=1).repetition(
        instrument=enable_tracers
    )

    recorder = spans.SpanRecorder()
    try:
        traced = make(seed, quick).repetition(
            recorder=recorder,
            instrument=lambda w: recorder.install(
                w.facade, w.engines, **workloads.SPAN_CLASSES
            ),
        )
    finally:
        recorder.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"trace-{name}.jsonl")

    by_name, by_layer, covered = spans.self_times(
        recorder.spans, *traced.span_region
    )
    # The calibration kernel runs between (on bank_mpl8, inside) the
    # engine's spans; the repetition's clock leaves it out, so do we.
    covered -= by_layer.get("bench", 0.0)
    layers = layer_metrics(by_name, traced)
    layers["obs.tracer_on_overhead_frac"] = (
        rate_at_nominal(plain) / rate_at_nominal(with_tracer) - 1
    )
    layers["bench.span_overhead_frac"] = (
        rate_at_nominal(plain) / rate_at_nominal(traced) - 1
    )
    layers["bench.unattributed_frac"] = 1 - covered / traced.wall_s
    return layers, [plain, with_tracer, traced]


def layer_metrics(by_name, rep):
    """Per committed transaction unless the name says otherwise."""
    commits = rep.commits
    counters = rep.counters

    def self_us(name, per=commits):
        return by_name.get(name, (0.0, 0, 0.0))[0] / per * 1e6 if per else 0.0

    def calls(name):
        return by_name.get(name, (0.0, 0, 0.0))[1]

    def per_txn(counter):
        return counters.get(counter, 0) / commits

    def ratio(part, whole):
        return part / whole if whole else 0.0

    two_phase = counters.get("two_phase_commits", 0)
    return {
        "sql.self_us": self_us("session.execute"),
        "sql.stmts": calls("session.execute") / commits,
        "core.dml_self_us": self_us("db.dml"),
        "core.read_self_us": self_us("db.read"),
        "core.session_self_us": self_us("session.api"),
        "core.calls": (calls("db.dml") + calls("db.read")) / commits,
        "txn.commit_self_us": self_us("db.commit"),
        "views.compile_us": self_us("views.compile"),
        "views.apply_self_us": self_us("views.apply"),
        "views.actions": calls("views.apply") / commits,
        "locking.plan_self_us": self_us("lock.plan"),
        "locking.request_us": self_us("lock.request"),
        "locking.requests": per_txn("lock_requests"),
        "locking.waits": per_txn("lock_waits"),
        "locking.deadlocks": per_txn("lock_deadlocks"),
        "locking.immediate_grant_ratio": ratio(
            counters["lock_immediate_grants"], counters["lock_requests"]
        ),
        "storage.index_us": self_us("index.op"),
        "storage.index_calls": calls("index.op") / commits,
        "storage.mirror_apply_us": self_us("mirror.apply"),
        "storage.pool_hit_ratio": ratio(
            counters["pool_hits"],
            counters["pool_hits"] + counters["pool_misses"],
        ),
        "storage.pool_evictions": per_txn("pool_evictions"),
        "storage.pool_dirty_evictions": per_txn("pool_dirty_evictions"),
        "storage.forced_wal_flushes": per_txn("pool_forced_wal_flushes"),
        "storage.store_writes": per_txn("store_writes"),
        "storage.checkpoint_us": self_us(
            "db.checkpoint", calls("db.checkpoint")
        ),
        "storage.checkpoint_stall_max_us":
            by_name.get("db.checkpoint", (0.0, 0, 0.0))[2] * 1e6,
        "storage.ghost_cleanup_us": self_us("db.ghost_cleanup"),
        "wal.append_self_us": self_us("wal.append"),
        "wal.flush_us": self_us("wal.flush"),
        "wal.records": per_txn("wal_records"),
        "wal.bytes": per_txn("wal_bytes"),
        "wal.flushes": per_txn("wal_flushes"),
        "wal.recover_analyzed_records": rep.recovery["analyzed_records"],
        "wal.recover_redo_count": rep.recovery["redo_count"],
        "wal.recover_pages_loaded": rep.recovery["pages_loaded"],
        "wal.segment_dump_s": rep.segments.get("dump_s", 0.0),
        "wal.segment_load_recover_s": rep.segments.get("load_recover_s", 0.0),
        "wal.segment_bytes_per_user_byte":
            rep.segments.get("bytes_per_user_byte", 0.0),
        "dist.facade_self_us": self_us("dist.facade"),
        "dist.net_self_us": self_us("net.request"),
        "dist.msgs": per_txn("net_messages"),
        "dist.coordinator_us": self_us("dist.coordinator"),
        "dist.two_phase_frac": ratio(
            two_phase, two_phase + counters.get("single_partition_commits", 0)
        ),
        "dist.fold_read_us": self_us(
            "dist.read_folded", calls("dist.read_folded")
        ),
        "sim.scheduler_self_us": self_us("sim.run"),
    }


class Run:
    """One measured run of one workload: the result line and what the
    rows, the detail file and the tests want beside it."""

    def __init__(self, result, rows, reps, problems):
        self.result = result
        self.rows = rows  # {metric: (value, lowest, highest repetition)}
        self.reps = reps
        self.problems = problems  # oracle findings


def run_once(manifest, name, seed, seconds, trace, quick=False):
    workloads, spans = import_engine()
    if trace:
        declared = manifest["per_layer"]
        values, reps = trace_layers(workloads, spans, name, seed, quick)
        rows = {m: (value, value, value) for m, value in values.items()}
    else:
        declared = manifest["end_to_end"]
        reps = measure(workloads, name, seed, seconds, quick)
        rows = summarize(reps)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows["peak_rss_mb"] = (peak, peak, peak)
    problems = [p for rep in reps for p in rep.problems]
    attempted = sum(rep.attempted for rep in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else sum(rep.failed for rep in reps),
        "metrics": {
            spec["name"]: {"value": rows[spec["name"]][0], "unit": spec["unit"]}
            for spec in declared
        },
    }
    return Run(result, rows, reps, problems)


def single_run(args, manifest):
    """One measured run of one workload, as the driver invokes it."""
    name = args.workload
    workloads, _ = import_engine()
    before = calibrate(workloads)
    run = run_once(manifest, name, args.seed, args.seconds, args.trace,
                   args.quick)
    after = calibrate(workloads)
    noisy = abs(after / before - 1) > NOISY_DRIFT
    result = run.result
    for metric, cell in result["metrics"].items():
        _, low, high = run.rows[metric]
        note = ("one traced repetition" if args.trace else
                f"{low:.6g} .. {high:.6g} over {len(run.reps)} repetitions")
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}  [{note}]")
    print(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} 1"
          f"  [{result['failed']} of {result['attempted']} operations]")
    print(f"{name} calib_ops_per_s {before:.0f} before, {after:.0f} after"
          + ("  NOISY: the machine's speed moved by more than 10 % during"
             " this run" if noisy else ""))
    for problem in run.problems[:10]:
        print(f"{name} ORACLE FAILURE: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(result, noisy=noisy, calib_ops_per_s=[before, after],
                  repetitions=len(run.reps), seed=args.seed)
    detail_path = OUT_DIR / f"run-{name}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# the suite: every workload, untraced then traced
# ----------------------------------------------------------------------

def suite(args, manifest):
    names = [args.workload] if args.workload else [
        w["name"] for w in manifest["workloads"]
    ]
    traces = [args.trace] if args.trace is not None else [0, 1]
    document = {
        "seeds": list(range(args.seed, args.seed + args.runs)),
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {
            name: {"end_to_end": {}, "per_layer": {}, "noisy": []}
            for name in names
        },
    }
    status = 0
    for seed in document["seeds"]:
        for name in names:
            for trace in traces:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                detail_path = OUT_DIR / f"run-{name}-trace{trace}.json"
                detail_path.unlink(missing_ok=True)
                child = subprocess.run(
                    command, capture_output=True, text=True, timeout=900
                )
                lines = child.stdout.rstrip().splitlines()
                print("\n".join(lines[:-1]))
                sys.stdout.flush()
                if child.returncode != 0:
                    status = 1
                    sys.stderr.write(child.stderr)
                if not detail_path.exists():
                    continue
                detail = json.loads(detail_path.read_text(encoding="utf-8"))
                entry = document["workloads"][name]
                entry["noisy"].append(detail["noisy"])
                section = entry["per_layer" if trace else "end_to_end"]
                for metric, cell in detail["metrics"].items():
                    section.setdefault(metric, []).append(cell["value"])
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    if args.runs > 1 and 0 in traces:
        print_spreads(document, manifest)
    print(f"wrote {out}")
    return status


def print_spreads(document, manifest):
    print("\nworkload metric median unit spread(IQR/median) bound")
    for name, entry in document["workloads"].items():
        for spec in manifest["end_to_end"]:
            values = entry["end_to_end"].get(spec["name"])
            if values:
                print(f"{name} {spec['name']} {statistics.median(values):.6g} "
                      f"{spec['unit']} {spread(values):.4f} {spec['bound']}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def compare(path_a, path_b, manifest):
    """Per workload and end-to-end metric: both medians, B relative to
    A, the bound, and a verdict. ``worse`` = B's median is worse than
    A's by more than the bound (or an exact metric differs between
    same-seed sets); ``unresolved`` = either set's own spread is wider
    than the bound, so the comparison cannot tell; else ``ok``."""
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    same_seeds = doc_a["seeds"] == doc_b["seeds"]
    worse = 0
    print("workload metric median_A median_B B/A bound verdict")
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            continue
        for spec in manifest["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a = entry_a["end_to_end"].get(metric)
            b = entry_b["end_to_end"].get(metric)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = median_b / median_a - 1
            if spec["better"] == "higher":
                change = -change
            if metric in EXACT and same_seeds and a != b:
                verdict = "worse (exact metric differs)"
            elif change > bound:
                verdict = "worse"
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            worse += verdict.startswith("worse")
            print(f"{name} {metric} {median_a:.6g} {median_b:.6g} "
                  f"{median_b / median_a:.4f}x_of_A {bound} {verdict}")
    return 1 if worse else 0


def main(argv=None):
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="one twentieth of the work; for the tests")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="suite: where to write the results")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, manifest)
    if args.workload and args.trace is not None and args.runs == 1:
        return single_run(args, manifest)
    return suite(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
