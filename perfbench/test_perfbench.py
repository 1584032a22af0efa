"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

They check that the output checks can fail (a corrupted reference output
gives failed trials), that the tracer restores every function it wraps,
that an untraced run executes no wrapper, that traced counts repeat, and
that the benchmark refuses to run without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# request count per workload for the quick checks: attack covers all three protocols
QUICK_CALLS = {"attack-n8": 3, "blind-guess-n8": 1, "pcc-search-n4": 3, "cli-learner-n8": 1}


def _records(name: str, tmp_path, calls: int, seed: int = reference.SEED):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(seed, tmp_path)
    records = []
    try:
        for i in range(calls):
            records.extend(wl.call(ctx, i)[2])
    finally:
        wl.teardown(ctx)
    return wl, records


@pytest.mark.parametrize("name", sorted(QUICK_CALLS))
def test_reference_check_passes_and_a_corrupted_reference_fails(name, tmp_path):
    wl, records = _records(name, tmp_path, QUICK_CALLS[name])
    ref = reference.load(name)
    assert all(rec["key"] in ref for rec in records), "reference does not cover the quick run"
    assert wl.check(records, ref) == (0, [])

    # mutation control: one corrupted output must surface as a failed trial
    bad = copy.deepcopy(ref)
    key = records[0]["key"]
    bad[key][1] = bad[key][1] + 1
    failed, problems = wl.check(records, bad)
    assert failed / len(records) > 0
    assert any(p.startswith(key) for p in problems)


def test_invariants_hold_without_reference(tmp_path):
    wl, records = _records("attack-n8", tmp_path, 3, seed=12345)
    assert not any(rec["key"] in reference.load("attack-n8") for rec in records)
    assert wl.check(records, {}) == (0, [])
    records[0]["out"][3] = records[0]["cap"] + 1  # L_size above the cap
    assert wl.check(records, {})[0] == 1


def test_tracer_wraps_every_alias_and_restores_it():
    originals = [(owner, name, vars(owner)[name]) for owner, name in tracing.all_bindings()]
    names = {f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in originals}
    for alias in ("qromlab.learner.run_conditioned", "qromlab.attack.learn",
                  "qromlab.oracle.oracle_query", "qromlab.cli.run_experiment",
                  "qromlab.learn", "QuantumState.apply_unitary", "qromlab.cli.trial_rng"):
        assert alias in names
    t = tracing.Tracer()
    t.install()
    try:
        assert all(vars(owner)[name] is not orig for owner, name, orig in originals)
    finally:
        t.uninstall()
    assert all(vars(owner)[name] is orig for owner, name, orig in originals)


def test_untraced_run_executes_no_wrapper(tmp_path):
    wl = workloads.WORKLOADS["pcc-search-n4"]
    ctx = wl.setup(0, tmp_path)
    t = tracing.Tracer()
    t.install()
    try:
        wl.call(ctx, 0)
    finally:
        t.uninstall()
    traced = t.drain()
    assert traced["counters"]["qstate.apply_unitary.calls"] > 0  # the wrappers did record
    wl.call(ctx, 0)
    after = t.drain()
    assert after["spans"] == [] and after["counters"] == {}


def test_self_time_subtracts_children_once():
    spans = [(1, "a", 0.0, 10.0, None, 0), (2, "b", 1.0, 4.0, 1, 0), (3, "b", 3.0, 6.0, 1, 0),
             (4, "a", 7.0, 8.0, 1, 0)]
    rows = tracing.summarize(spans)
    assert rows["a"]["self"] == pytest.approx(10.0 - 6.0 + 1.0)
    assert rows["a"]["total"] == pytest.approx(10.0)  # the nested "a" is not counted twice
    assert rows["b"]["calls"] == 2 and rows["b"]["self"] == pytest.approx(6.0)


def test_traced_counts_repeat(tmp_path):
    wl = copy.copy(workloads.WORKLOADS["pcc-search-n4"])
    wl.trace_calls = 20
    ctx = wl.setup(3, tmp_path)
    setup = {"spans": []}
    runs = []
    for k in range(2):
        per_layer, problems, _ = worker.trace(wl, ctx, 0.0, [], tracing.Tracer(), setup,
                                           tmp_path / f"spans{k}.jsonl")
        assert problems == []
        runs.append({n: v for n, v in per_layer.items() if metrics.PER_LAYER.get(n) == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["qstate.apply_unitary.calls"] > 0


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pcc-search-n4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
