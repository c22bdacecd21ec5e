#!/usr/bin/env python
"""Regenerate the full R1–R17 evaluation and print every table.

Equivalent to ``pytest benchmarks/ --benchmark-only`` but prints the
experiment tables directly (pytest captures them) and finishes with a
one-screen summary. Every experiment writes two artifacts under
``benchmarks/results/``: the human-readable ``<name>.txt`` table and a
schema-valid ``<name>.json`` document (params, series, qualitative-claim
verdict, engine counters — see ``docs/OBSERVABILITY.md``). All JSON
results are validated against the schema before the run reports success.

Run:  python benchmarks/run_all.py
"""

import importlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

BENCHES = [
    ("bench_r1_conflicts", "sweep"),
    ("bench_r2_throughput", "sweep"),
    ("bench_r3_aborts", "sweep"),
    ("bench_r4_recovery", "scenario"),
    ("bench_r5_ghosts", "scenario"),
    ("bench_r6_deferred", "scenario"),
    ("bench_r7_phantoms", "scenario"),
    ("bench_r8_snapshot", "scenario"),
    ("bench_r9_logvolume", "scenario"),
    ("bench_r10_holdtime", "scenario"),
    ("bench_r11_escalation", "scenario"),
    ("bench_r12_minmax", "scenario"),
    ("bench_r13_recovery_scaling", "scenario"),
    ("bench_r14_join_aggregate", "scenario"),
    ("bench_r15_response_time", "scenario"),
    ("bench_r16_group_commit", "scenario"),
    ("bench_r17_crash_storm", "scenario"),
    ("chaos", "scenario"),
    ("analyze_smoke", "scenario"),
]


def main():
    total_start = time.perf_counter()
    timings = []
    for module_name, entry in BENCHES:
        module = importlib.import_module(module_name)
        start = time.perf_counter()
        getattr(module, entry)()
        timings.append((module_name, time.perf_counter() - start))
    print("\n" + "=" * 60)
    print("evaluation complete — per-experiment wall time:")
    for name, seconds in timings:
        print(f"  {name:<32} {seconds:6.2f}s")
    print(f"  {'total':<32} {time.perf_counter() - total_start:6.2f}s")
    print("tables (.txt) and result documents (.json) saved under "
          "benchmarks/results/")
    import check_results

    checked, problems = check_results.check_directory()
    problems.extend(check_results.check_event_catalogue())
    problems.extend(check_results.check_import_surface())
    if problems:
        for problem in problems:
            print(f"  FAIL {problem}")
        raise SystemExit(1)
    print(f"  {checked} result JSON file(s) schema-valid")
    from repro.api import lint_paths

    repo = pathlib.Path(__file__).resolve().parent.parent
    findings = lint_paths(
        [repo / "src", repo / "benchmarks", repo / "examples"]
    )
    if findings:
        for finding in findings:
            print(f"  FAIL {finding}")
        raise SystemExit(1)
    print("  lint gate clean (python -m repro.analysis.lint)")
    # The static analyzer over the built-in workload schemas — the
    # `make analyze` leg of the verify chain. Errors (not warnings)
    # fail the run.
    from repro.analysis.check import main as analyze_main

    import io

    if analyze_main([], out=io.StringIO()) != 0:
        print("  FAIL static analysis reported error diagnostics")
        raise SystemExit(1)
    print("  static analyzer clean (python -m repro.analysis.check)")
    # Finish with the tier-1 suite so a full evaluation run ends with
    # the complete `make verify` chain: the chaos tier ran above as a
    # bench, lint and the schema gate just passed, and this is the
    # remaining leg (it holds the sanitizer legs).
    import subprocess

    code = subprocess.call(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=str(pathlib.Path(__file__).resolve().parent.parent),
    )
    if code != 0:
        raise SystemExit(code)
    print("  tier-1 suite green — verify chain complete")


if __name__ == "__main__":
    main()
