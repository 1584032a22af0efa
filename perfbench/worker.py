"""One workload in its own process: set up, warm up, then measure or trace.

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src`` and
BLAS threads pinned to one; it prints one JSON object as its last line.

* ``--mode setup``: set up and warm up, report ``setup_s`` only.
* ``--mode measure``: closed loop for ``--seconds`` with tracing off.
* ``--mode trace``: alternate untraced and traced batches of the same
  trials for ``--seconds``; report per-layer metrics and the overhead.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, setup, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from metrics import PER_LAYER  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# computed by the workload from its own outputs, not by the tracer
WORKLOAD_LAYER_METRICS = ("pcc.goodstate_ratio", "cli.trial_seconds_sum", "cli.concurrency")
# 32 bytes per amplitude touched: one complex128 read and one written
BYTES_PER_AMP = 32


def _call(wl, ctx, i, records, latencies) -> int:
    """Run request i; a request that raises counts as one failed trial."""
    try:
        n, lats, recs = wl.call(ctx, i)
    except Exception:
        records.append({"key": f"request {i}", "error": traceback.format_exc(limit=4)})
        return 1
    records.extend(recs)
    latencies.extend(lats)
    return n


def _steal():
    """(steal ticks, all ticks) of the whole host from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_record() -> dict:
    import qromlab
    from qromlab import cli

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "qromlab": qromlab.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qromlab_threads": os.environ.get("QROMLAB_THREADS"),
        "cli_workers": cli.worker_count(),
    }


def measure(wl, ctx, seconds: float, records) -> dict:
    """Closed loop for ``seconds``, warm-up excluded."""
    latencies = []
    cpu0, steal0 = time.process_time(), _steal()
    trials = 0
    i = wl.warmup_calls
    start = time.perf_counter()
    while True:
        trials += _call(wl, ctx, i, records, latencies)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    cpu_s, steal1 = time.process_time() - cpu0, _steal()
    lat_ms = np.array(latencies) * 1000.0
    return {
        "trials_per_s": trials / elapsed,
        "call_ms_p50": float(np.percentile(lat_ms, 50)),
        "call_ms_p95": float(np.percentile(lat_ms, 95)),
        "latency_samples": len(latencies),
        "trials": trials,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "host_steal_share": None if steal0 is None or steal1 is None else
        (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
    }


def trace(wl, ctx, seconds: float, records, tracer, setup_data, spans_path):
    """Alternate untraced and traced batches; (per-layer metrics, problems, batches)."""
    batch = range(wl.warmup_calls, wl.warmup_calls + wl.trace_calls)
    untraced_s = traced_s = 0.0
    untraced_trials = traced_trials = 0
    batches = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for i in batch:
            untraced_trials += _call(wl, ctx, i, records, [])
        untraced_s += time.perf_counter() - t
        batch_records = []
        tracer.install()
        try:
            t = time.perf_counter()
            trials = 0
            for i in batch:
                tracer.set_trial(i)
                trials += _call(wl, ctx, i, batch_records, [])
            traced_s += time.perf_counter() - t
        finally:
            tracer.uninstall()
        traced_trials += trials
        data = tracer.drain()
        data.update(trials=trials, records=batch_records)
        batches.append(data)
        records.extend(batch_records)
        if time.perf_counter() - start >= seconds:
            break
    tracing.write_spans(spans_path, [setup_data["spans"]] + [b["spans"] for b in batches])

    problems = []
    first = batches[0]
    for k, b in enumerate(batches[1:], start=1):
        if (b["counters"], b["transcripts"], b["trials"]) != (
                first["counters"], first["transcripts"], first["trials"]):
            problems.append(f"traced batch {k} counted differently from batch 0")
    rows = [tracing.summarize(b["spans"]) for b in batches]
    per_trial = 1000.0 / (len(batches) * first["trials"])

    def ms(name, kind="self"):
        return per_trial * sum(r.get(name, {}).get(kind, 0.0) for r in rows)

    c = first["counters"]
    m = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls" or field == "amps":
            m[metric] = int(c.get(metric, 0))
        elif field == "ms":
            m[metric] = ms(layer)
        elif field == "total_ms":
            m[metric] = ms(layer, "total")
    m["qstate.bytes_moved"] = BYTES_PER_AMP * int(sum(c.get(k + ".amps", 0) for k in tracing.KERNELS))
    m["qstate.peak_state_bytes"] = int(max(b["peak_state_bytes"] for b in batches))
    cond_calls = c.get("protocol.run_conditioned.calls", 0)
    m["protocol.run_conditioned.distinct_ratio"] = first["transcripts"] / cond_calls if cond_calls else 0.0
    m["learner.iterations"] = int(c.get("learner.iterations", 0))
    m["learner.aborts"] = int(c.get("learner.aborts", 0))
    attacks = c.get("attack.full_attack.calls", 0)
    m["attack.components"] = c.get("attack.components", 0) / attacks if attacks else 0.0
    extra = [wl.layer_metrics([rec for rec in b["records"] if "error" not in rec], r)
             for b, r in zip(batches, rows)]
    for name in WORKLOAD_LAYER_METRICS:
        m[name] = sum(e.get(name, 0.0) for e in extra) / len(extra)
    zoo_row = tracing.summarize(setup_data["spans"]).get("zoo.standard_zoo")
    m["zoo.standard_zoo.ms"] = 1000.0 * zoo_row["total"] if zoo_row else 0.0
    m["trace.batch_trials"] = first["trials"]
    m["trace.untraced_trials_per_s"] = untraced_trials / untraced_s
    m["trace.traced_trials_per_s"] = traced_trials / traced_s
    m["trace.overhead"] = m["trace.untraced_trials_per_s"] / m["trace.traced_trials_per_s"]
    return m, problems, len(batches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    wl = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    try:
        ctx = wl.setup(args.seed, out_dir)
    finally:
        if tracer:
            tracer.uninstall()
    setup_data = tracer.drain() if tracer else None
    records = []
    try:
        for i in range(wl.warmup_calls):
            _call(wl, ctx, i, records, [])
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            result.update(measure(wl, ctx, args.seconds, records))
        elif args.mode == "trace":
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            per_layer, trace_problems, batches = trace(wl, ctx, args.seconds, records, tracer,
                                                       setup_data, spans_path)
            result.update(per_layer=per_layer, batches=batches)
            result["spans_file"] = str(spans_path)
    finally:
        wl.teardown(ctx)
    failed, problems = wl.check(records, reference.load(args.workload))
    if args.mode == "trace":
        problems = trace_problems + problems
    result.update(
        attempted=len(records),
        failed=failed,
        problems=problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        host=host_record(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
