"""qromlab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload attack-n8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload attack-n8 --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run.  Each workload runs in a fresh
worker process (``worker.py``) against the ``src`` tree next to this
directory, with BLAS pinned to one thread.  ``setup_s`` is the median over
``SETUP_SAMPLES`` processes: ``SETUP_SAMPLES - 1`` that only set up, plus
the measuring one.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("attack-n8", "blind-guess-n8", "pcc-search-n4", "cli-learner-n8")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 20


class BenchError(Exception):
    pass


def worker_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QROMLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread, so pool threads x BLAS threads <= nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    if workload == "cli-learner-n8" and (os.cpu_count() or 1) > nproc:
        # the CLI's default counts every CPU; keep the pool within our share
        env["QROMLAB_THREADS"] = str(nproc)
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out-dir", str(OUT)]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + 90
    try:
        proc = subprocess.run(cmd, env=worker_env(workload), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    result = json.loads(lines[-1])
    loaded = Path(result["host"]["qromlab"]).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"worker imported qromlab from {loaded}, not from {SRC}")
    return result


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qromlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qromlab" / "__init__.py").is_file():
        print(f"error: no qromlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            main_run = run_worker(args.workload, args.seed, args.seconds, "trace")
            setups = [main_run["setup_s"]]
        else:
            setups = [run_worker(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            main_run = run_worker(args.workload, args.seed, args.seconds, "measure")
            setups.append(main_run["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "source": source_record(), **main_run}
    if args.trace:
        layer = main_run["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print(f"{args.workload}: traced {main_run['batches']} batches of "
              f"{layer['trace.batch_trials']} trials; spans in {main_run['spans_file']}")
        print(f"  tracing overhead {layer['trace.overhead']:.3f}x "
              f"({layer['trace.untraced_trials_per_s']:.2f} untraced vs "
              f"{layer['trace.traced_trials_per_s']:.2f} traced trials/s)")
    else:
        values = {
            "trials_per_s": main_run["trials_per_s"],
            "call_ms_p50": main_run["call_ms_p50"],
            "call_ms_p95": main_run["call_ms_p95"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        result["setup_samples_s"] = setups
        print(f"{args.workload}: {main_run['trials']} trials in {main_run['elapsed_s']:.2f} s, "
              f"{main_run['latency_samples']} latency samples, "
              f"setup median of {len(setups)} processes")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    host = main_run["host"]
    print(f"  host: nproc {host['nproc']}, numpy {host['numpy']}, {host['blas']} "
          f"x{host['blas_threads']} threads, cli workers {host['cli_workers']}; "
          f"git {result['source']['git_rev']}, src sha256 {result['source']['src_sha256'][:12]}")
    error_rate = main_run["failed"] / main_run["attempted"]
    print(f"  error_rate {error_rate:.4f} ({main_run['failed']} of {main_run['attempted']} trials)")
    for problem in main_run["problems"]:
        print(f"  problem: {problem}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": main_run["failed"] == 0 and not main_run["problems"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
