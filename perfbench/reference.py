"""Reference outputs of the seed commit, and the script that records them.

``reference.json`` maps each workload to ``{record key: outputs}`` for the
requests a run at ``SEED`` makes (``RECORDED`` of them per workload), plus
the CLI summary fields keyed by config seed.  A run whose records carry
other keys is checked against the invariants only.

Re-record (only on purpose, for a commit whose outputs are meant to change)::

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
SEED = 0
# requests recorded per workload, about twice what a default-seed run makes
RECORDED = {"attack-n8": 1200, "blind-guess-n8": 500, "pcc-search-n4": 12000,
            "cli-learner-n8": 500}


@lru_cache(maxsize=None)
def _all() -> dict:
    return json.loads(PATH.read_text())


def load(workload: str) -> dict:
    return _all().get(workload, {})


def _compact(value):
    # 12 significant digits keep the file small; checks allow 1e-9
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def record(names) -> dict:
    import workloads

    out = json.loads(PATH.read_text()) if PATH.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            wl = workloads.WORKLOADS[name]
            ctx = wl.setup(SEED, Path(scratch))
            table = {}
            for i in range(RECORDED[name]):
                _, _, records = wl.call(ctx, i)
                for rec in records:
                    table[rec["key"]] = [_compact(v) for v in rec["out"]]
                    if "summary" in rec:
                        table[rec["summary_key"]] = [_compact(v) for v in rec["summary"]]
            wl.teardown(ctx)
            out[name] = table
            print(f"{name}: {len(table)} entries", file=sys.stderr)
    PATH.write_text(json.dumps(out, separators=(",", ":"), sort_keys=True) + "\n")
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    record(sys.argv[1:] or list(RECORDED))
