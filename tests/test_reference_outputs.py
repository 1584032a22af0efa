"""Replay the benchmark's recorded outputs: the first requests of a run at its seed.

perfbench/reference.json holds the outputs of every request a benchmark
run at ``reference.SEED`` makes.  Here the first 150 attack-n8 requests
(50 per protocol, round-robin), the first 20 blind-guess-n8 requests and
the first 10 cli-learner-n8 requests (4 CSV rows and one summary each)
run through perfbench/workloads.py, and the workload's own ``check``
must find no failed trial and no problem: each record against its
reference value, and the success-rate and min-eq aggregates.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, calls, rows", [
    pytest.param("attack-n8", 150, 150, id="attack-n8-150"),
    pytest.param("blind-guess-n8", 20, 20, id="blind-guess-n8-20"),
    pytest.param("cli-learner-n8", 10, 40, id="cli-learner-n8-10"),
])
def test_recorded_benchmark_outputs_replay(name, calls, rows, tmp_path):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(reference.SEED, tmp_path)
    records = []
    try:
        for i in range(calls):
            records.extend(wl.call(ctx, i)[2])
    finally:
        wl.teardown(ctx)
    ref = reference.load(name)
    assert len(records) == rows and all(rec["key"] in ref for rec in records)
    assert wl.check(records, ref) == (0, [])
