"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/repeat.py --workloads attack-n8 pcc-search-n4 --seeds 1-10 \\
        --out perfbench/out/repeat.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Runs are made
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seeds": args.seeds, "seconds": args.seconds}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
            result["host_steal_share"] = detail["host_steal_share"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        summary[workload]["attempted"] = sum(r["attempted"] for r in runs)
        summary[workload]["failed"] = sum(r["failed"] for r in runs)
        summary[workload]["host_steal_share"] = [r["host_steal_share"] for r in runs]
        summary["host"], summary["source"] = detail["host"], detail["source"]
    for workload in args.workloads:
        metrics = summary[workload]
        for name, bound in bounds.items():
            s = metrics[name]
            flag = "" if s["spread"] < bound / 3 else "  (spread above a third of the bound)"
            print(f"{workload:16s} {name:14s} median {s['median']:10.4g}  "
                  f"q1 {s['q1']:10.4g}  q3 {s['q3']:10.4g}  spread {s['spread']:.3f} "
                  f"of bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
