"""Checks on the benchmark itself, at ``--quick`` sizes.

Run with ``python -m pytest benchmarks/perf`` (tier-1 does not collect
this directory). Nothing here asserts a speed: the tests pin the metric
names, the shape of the span tree and the repeatability of the metrics
the deterministic engine computes.
"""

import json

import pytest

import run

MANIFEST = run.load_manifest()
_, SPANS = run.import_engine()
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def quick(request):
    """One quick untraced run on seeds 11 and 13 and one traced run on
    seed 11, per workload, shared by the tests below. (Not 12: at quick
    size dashboard_read logs exactly as many bytes on 12 as on 11.)"""
    name = request.param
    return {
        "name": name,
        "seed11": run.run_once(MANIFEST, name, seed=11, seconds=0, trace=0,
                               quick=True),
        "seed13": run.run_once(MANIFEST, name, seed=13, seconds=0, trace=0,
                               quick=True),
        "traced": run.run_once(MANIFEST, name, seed=11, seconds=0, trace=1,
                               quick=True),
    }


def test_manifest_is_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert 2 <= len(WORKLOAD_NAMES) <= 8
    names = WORKLOAD_NAMES + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert END_TO_END["setup_s"]["unit"] == "s"
    assert END_TO_END["setup_s"]["better"] == "lower"
    for metric in END_TO_END.values():
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= END_TO_END["setup_s"]["bound"]
    assert all(set(m) == {"name", "unit", "better"} for m in PER_LAYER.values())


def test_every_end_to_end_metric_is_reported(quick):
    for key in ("seed11", "seed13"):
        result = quick[key].result
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(END_TO_END)
        for name, cell in result["metrics"].items():
            assert cell["unit"] == END_TO_END[name]["unit"]
            assert cell["value"] > 0, name


def test_every_per_layer_metric_is_reported(quick):
    result = quick["traced"].result
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == PER_LAYER[name]["unit"]
        assert isinstance(cell["value"], (int, float)), name
    assert result["metrics"]["bench.unattributed_frac"]["value"] < 0.10


def test_layers_that_a_workload_uses_are_not_silent(quick):
    layers = {k: v["value"] for k, v in quick["traced"].result["metrics"].items()}
    for always in ("locking.request_us", "storage.index_us", "wal.flushes",
                   "txn.commit_self_us", "wal.recover_analyzed_records"):
        assert layers[always] > 0, always
    used = {
        "order_sql": ("sql.self_us", "views.apply_self_us"),
        "dashboard_read": ("sql.self_us", "core.read_self_us"),
        "bank_mpl8": ("sim.scheduler_self_us", "locking.waits"),
        "shard4_moves": ("dist.net_self_us", "dist.two_phase_frac",
                         "dist.fold_read_us", "dist.coordinator_us"),
        "storage_recover": ("storage.checkpoint_us", "wal.segment_dump_s",
                            "storage.pool_evictions",
                            "wal.segment_bytes_per_user_byte"),
    }
    for name in used.get(quick["name"], ()):
        assert layers[name] > 0, name
    if quick["name"] != "shard4_moves":
        assert layers["dist.msgs"] == 0
    if quick["name"] != "bank_mpl8":
        assert layers["locking.waits"] == 0


def test_span_tree_is_well_formed(quick):
    traced = quick["traced"]
    path = run.OUT_DIR / f"trace-{quick['name']}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "the traced repetition recorded no span"
    children = [0.0] * len(spans)
    for index, (name, layer, start, end, parent, _) in enumerate(spans):
        assert start <= end
        assert -1 <= parent < index
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3], name
            children[parent] += end - start
    for (_, _, start, end, _, _), covered in zip(spans, children):
        assert (end - start) - covered >= -1e-9
    # Layer self times plus the unattributed share are the traced wall
    # (which, like the repetition's clock, leaves the calibration kernel
    # out).
    rep = traced.reps[-1]
    _, by_layer, covered = SPANS.self_times(spans, *rep.span_region)
    assert sum(by_layer.values()) == pytest.approx(covered, rel=1e-6)
    engine = covered - by_layer.pop("bench")
    assert sum(by_layer.values()) == pytest.approx(engine, rel=1e-6)
    unattributed = traced.result["metrics"]["bench.unattributed_frac"]["value"]
    assert engine + unattributed * rep.wall_s == pytest.approx(
        rep.wall_s, rel=0.02
    )


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(quick):
    def exact(rep):
        values = run.end_to_end_of(rep)
        return tuple(values[name] for name in run.EXACT)

    def counted(rep):
        return exact(rep) + tuple(sorted(rep.counters.items()))

    # Same seed: every engine counter repeats, tracer and spans on or off.
    same_seed = quick["seed11"].reps + quick["traced"].reps
    assert len(same_seed) >= 4
    assert len({counted(rep) for rep in same_seed}) == 1
    assert exact(quick["seed13"].reps[0]) != exact(same_seed[0])


def _results(tmp_path, name, **medians):
    document = {
        "seeds": [11, 12, 13],
        "workloads": {"order_api": {"end_to_end": {
            metric: [value * 0.99, value, value * 1.01]
            for metric, value in medians.items()
        }}},
    }
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_flags_only_what_exceeds_its_bound(tmp_path, capsys):
    bound = END_TO_END["txn_per_s"]["bound"]
    base = _results(tmp_path, "a.json", txn_per_s=1000.0, txn_p50_us=900.0)
    same = _results(tmp_path, "b.json", txn_per_s=1000.0 * (1 - bound / 2),
                    txn_p50_us=900.0)
    slow = _results(tmp_path, "c.json", txn_per_s=1000.0 * (1 - 2 * bound),
                    txn_p50_us=900.0)
    assert run.compare(base, same, MANIFEST) == 0
    assert " worse" not in capsys.readouterr().out
    assert run.compare(base, slow, MANIFEST) == 1
    out = capsys.readouterr().out
    assert "order_api txn_per_s" in out and " worse" in out
    assert run.main(["--compare", base, slow]) == 1
