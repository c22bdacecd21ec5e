"""Alternating pairs of parent and change through ``benchmarks/perf/run.py``.

The procedure of ``benchmarks/perf/README.md`` ("how a later change must
compare"), as one command::

    python benchmarks/pairs.py --parent <rev> --pr <n> \\
        [--claim dashboard_read:scan_p50_us[:0.75]] [--pairs 10] [--seed 81]

It materialises two trees under ``--scratch`` — the parent commit
(``git archive``) and the *staged* change (``git checkout-index``) — and,
seed by seed and workload by workload, runs ``run.py --workload W --seed S
--seconds <BENCHMARK.json's run_seconds> --trace 0`` once in each. Which
side goes first flips every pair and alternates across the workloads of
one seed, so neither side is always the one that meets a slow stretch of
the machine.
Then it applies the README's rule to every workload x end-to-end metric
and writes ``BENCH_<n>.json`` in the repository root.

Nothing here imports the engine: both sides are measured by their own
checkout's ``run.py``, in their own process.
"""

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# run.py's own list of the metrics the deterministic engine computes: one
# seed gives one value, so any difference between same-seed runs is a
# change of behaviour. (Importing run.py imports no engine code.)
sys.path.append(str(ROOT / "benchmarks" / "perf"))
from run import EXACT  # noqa: E402

#: a claimed gain needs this share of all pairs won (ties win nothing)
WIN_SHARE = 0.9


# ----------------------------------------------------------------------
# the schedule and the rule (unit-tested on synthetic numbers)
# ----------------------------------------------------------------------

def first_side(pair, workload_index):
    """Which side runs first: flips every pair, and across the workloads
    of one pair."""
    return SIDES[(pair + workload_index) % 2]


def iqr(values):
    """Distance between the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(spec, parent, change):
    """One workload x metric row: ``parent`` and ``change`` are the
    per-pair values in pair order. The verdict is ``run.py --compare``'s
    — ``worse`` when the change's median is worse than the parent's by
    more than the bound, ``unresolved`` when either side's own spread
    exceeds the bound — except that an exact metric is direction-aware
    here: one that moved to its ``better`` side in *every* pair is a
    declared drop and judged like any other metric; one that differs
    in a mixed or worse-side way is ``worse`` whatever the size."""
    lower = spec["better"] == "lower"
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    ratio = change_median / parent_median if parent_median else 1.0
    worsening = ratio - 1 if lower else 1 - ratio
    spreads = [
        iqr(values) / median if median else 0.0
        for values, median in ((parent, parent_median), (change, change_median))
    ]
    exact = spec["name"] in EXACT
    better_pairs = sum(
        (c < p) if lower else (c > p) for p, c in zip(parent, change)
    )
    if exact and parent != change and better_pairs < len(parent):
        verdict = "worse (exact metric differs)"
    elif worsening > spec["bound"]:
        verdict = "worse"
    elif max(spreads) > spec["bound"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "change_over_parent": round(ratio, 4),
        "parent_iqr": round(iqr(parent), 6),
        "spread_parent": round(spreads[0], 4),
        "spread_change": round(spreads[1], 4),
        "pairs_change_better": better_pairs,
        "pairs_tied": sum(p == c for p, c in zip(parent, change)),
        "pairs": len(parent),
        "exact_identical": (parent == change) if exact else None,
        "verdict": verdict,
        "parent": parent,
        "change": change,
    }


def claim_met(row, at_most=None):
    """The README's rule for a claimed gain: the change wins at least
    nine tenths of all pairs, the medians differ by more than the
    parent's interquartile range, and — when the issue promised a size —
    the change's median is at most ``at_most`` x the parent's (the
    reciprocal for a higher-is-better metric)."""
    gap = abs(row["change_median"] - row["parent_median"])
    ratio = row["change_over_parent"]
    better = ratio < 1 if row["better"] == "lower" else ratio > 1
    sized = at_most is None or (
        ratio <= at_most if row["better"] == "lower" else ratio >= 1 / at_most
    )
    return bool(
        better
        and row["pairs_change_better"] >= WIN_SHARE * row["pairs"]
        and gap > row["parent_iqr"]
        and sized
    )


# ----------------------------------------------------------------------
# the two trees
# ----------------------------------------------------------------------

def git(*args, **kwargs):
    return subprocess.run(
        ("git", "-C", str(ROOT)) + args, check=True, capture_output=True,
        **kwargs
    ).stdout


def materialise(parent_rev, scratch):
    """Fresh ``scratch/parent`` (the commit) and ``scratch/change`` (the
    index, i.e. what ``git add`` staged); returns the parent's hash."""
    commit = git("rev-parse", parent_rev, text=True).strip()
    trees = {side: scratch / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as archive:
        archive.extractall(trees["parent"])
    git("checkout-index", "-a", "-f", f"--prefix={trees['change']}/")
    return commit, trees


def one_run(tree, workload, seed, seconds):
    """One measured run in ``tree``; returns its result line (a dict)
    with ``noisy`` added, or ``None`` when the run printed none."""
    # each tree imports its own src/: no PYTHONPATH may point at another
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    lines = child.stdout.rstrip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(child.stderr)
        return None
    result = json.loads(lines[-1])
    result["noisy"] = any("NOISY" in line for line in lines)
    return result


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def measure(trees, manifest, workloads, seeds):
    """Every pair; returns ``values[workload][metric][side]`` (lists in
    seed order), per-side operation counts, and the run tallies."""
    metrics = [spec["name"] for spec in manifest["end_to_end"]]
    seconds = manifest["run_seconds"]  # the benchmark sets the run length
    values = {
        w: {m: {side: [] for side in SIDES} for m in metrics}
        for w in workloads
    }
    operations = {
        w: {side: {"attempted": 0, "failed": 0} for side in SIDES}
        for w in workloads
    }
    tally = {"made": 0, "noisy": 0, "incorrect_or_failed": 0}
    for pair, seed in enumerate(seeds):
        for index, workload in enumerate(workloads):
            first = first_side(pair, index)
            order = (first,) + tuple(s for s in SIDES if s != first)
            results = {
                side: one_run(trees[side], workload, seed, seconds)
                for side in order
            }
            tally["made"] += 2
            if None in results.values():
                tally["incorrect_or_failed"] += 1
                print(f"seed {seed} {workload}: a run produced no result; "
                      "pair dropped")
                continue
            for side, result in results.items():
                tally["noisy"] += result["noisy"]
                tally["incorrect_or_failed"] += not result["correct"]
                operations[workload][side]["attempted"] += result["attempted"]
                operations[workload][side]["failed"] += result["failed"]
                for metric in metrics:
                    values[workload][metric][side].append(
                        result["metrics"][metric]["value"]
                    )
            print(f"seed {seed} {workload}: {' then '.join(order)}")
            sys.stdout.flush()
    return values, operations, tally


def report(args, manifest, commit, seeds, values, operations, tally):
    """The ``BENCH_<n>.json`` document."""
    specs = {spec["name"]: spec for spec in manifest["end_to_end"]}
    end_to_end = {
        workload: {
            metric: judge(specs[metric], sides["parent"], sides["change"])
            for metric, sides in by_metric.items() if sides["parent"]
        }
        for workload, by_metric in values.items()
    }
    not_ok = [
        {"workload": workload, "metric": metric, "verdict": row["verdict"],
         "parent_median": row["parent_median"],
         "change_median": row["change_median"]}
        for workload, rows in end_to_end.items()
        for metric, row in rows.items() if row["verdict"] != "ok"
    ]
    more_failures = [
        workload for workload, sides in operations.items()
        if sides["change"]["failed"] * max(1, sides["parent"]["attempted"])
        > sides["parent"]["failed"] * max(1, sides["change"]["attempted"])
    ]
    claim = None
    if args.claim:
        workload, metric, *size = args.claim.split(":")
        at_most = float(size[0]) if size else None
        row = end_to_end[workload][metric]
        claim = {
            "workload": workload, "metric": metric, "at_most": at_most,
            **{k: v for k, v in row.items() if k not in SIDES},
            "met": claim_met(row, at_most) and workload not in more_failures,
        }
    return {
        "pr": args.pr,
        "title": args.title,
        "parent_commit": commit,
        "procedure": (
            "benchmarks/pairs.py (benchmarks/perf/README.md, 'how a later "
            "change must compare'): one `run.py --workload W --seed S "
            f"--seconds {manifest['run_seconds']:g} --trace 0` per side per "
            "(seed, "
            "workload); parent tree = git archive of the parent commit, "
            "change tree = git checkout-index of the staged change; the "
            "side that runs first flips every pair and alternates across "
            "the workloads of a seed; verdicts = the rule of `run.py "
            "--compare` over the per-seed lists"
        ),
        "seeds": seeds,
        "pairs_per_workload": len(seeds),
        "runs_made": tally["made"],
        "runs_noisy": tally["noisy"],
        "runs_incorrect_or_failed": tally["incorrect_or_failed"],
        "operations": operations,
        "workloads_with_more_failures": more_failures,
        "compare_exit_code": int(
            any(row["verdict"].startswith("worse") for row in not_ok)
        ),
        "claim": claim,
        "not_ok": not_ok,
        "end_to_end": end_to_end,
    }


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--title", default="")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC[:AT_MOST]",
                        help="the one gain the issue claims, if any")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=81,
                        help="first seed; pairs use seed..seed+pairs-1")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--scratch", type=pathlib.Path,
                        default=pathlib.Path("/root/scratch/pairs"))
    args = parser.parse_args(argv)
    commit, trees = materialise(args.parent, args.scratch)
    seeds = list(range(args.seed, args.seed + args.pairs))
    document = report(
        args, manifest, commit, seeds,
        *measure(trees, manifest, args.workload or names, seeds)
    )
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for row in document["not_ok"]:
        print(f"{row['workload']} {row['metric']} {row['verdict']}: "
              f"{row['parent_median']:g} -> {row['change_median']:g}")
    if document["claim"] is not None:
        claim = document["claim"]
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{claim['parent_median']:g} -> {claim['change_median']:g} "
              f"(x{claim['change_over_parent']}), won "
              f"{claim['pairs_change_better']}/{claim['pairs']}: "
              + ("met" if claim["met"] else "NOT met"))
    print(f"wrote {out}")
    failed = (
        document["compare_exit_code"]
        or document["workloads_with_more_failures"]
        or (document["claim"] is not None and not document["claim"]["met"])
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
