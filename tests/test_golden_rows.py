"""Golden CLI outputs: one small run of every mode and attack flag.

Each config runs through ``cli.run_experiment``.  Its CSV rows without the
``seconds`` column and its summary without ``wall_time`` and
``config.out_dir`` must equal the record in tests/data/golden_rows.json:
integers, text and flags exactly, floats to 1e-12.  The record changes
only with an intended change of outputs; rewrite it with

    PYTHONPATH=src python tests/test_golden_rows.py
"""

import csv
import json
import math
from pathlib import Path

import pytest

from qromlab import cli

GOLDEN = Path(__file__).parent / "data" / "golden_rows.json"
FLOAT_TOL = 1e-12

CONFIGS = {
    "attack-merkle": {"mode": "attack", "protocol": "merkle", "n": 4, "trials": 6, "seed": 1},
    "attack-announced-z3": {"mode": "attack", "protocol": "announced-query", "n": 3,
                            "group": [3], "eps": [0.05, 0.2], "trials": 4, "seed": 2},
    "attack-qpke": {"mode": "attack", "protocol": "ka-from-toy-qpke", "n": 4, "trials": 6,
                    "seed": 3},
    "attack-trivial-forced": {"mode": "attack", "protocol": "trivial-last-message", "n": 4,
                              "force_simulated_oracle": True, "trials": 6, "seed": 4},
    "attack-merkle-guess-only": {"mode": "attack", "protocol": "merkle", "n": 4,
                                 "guess_only": True, "trials": 6, "seed": 5},
    "learner-only": {"mode": "learner-only", "protocol": "merkle", "n": 4, "trials": 6,
                     "seed": 6},
    "oracle-equivalence": {"mode": "oracle-equivalence", "n": 2, "group": [3], "queries": 2,
                           "trials": 4, "seed": 7},
    "pcc-search": {"mode": "pcc-search", "n": 2, "delta": 0.5, "d": 2, "trials": 20, "seed": 8},
}


def outputs(name: str, out_dir: Path) -> dict:
    """Run one config; its summary and CSV rows, minus the timing and location fields."""
    cfg = cli.ExperimentConfig.from_json(CONFIGS[name] | {"out_dir": str(out_dir)})
    summary = cli.run_experiment(cfg)
    del summary["wall_time"], summary["config"]["out_dir"]
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        keep = [i for i, column in enumerate(rows[0]) if column != "seconds"]
        tables[path.name] = [[row[i] for i in keep] for row in rows]
    return {"summary": json.loads(json.dumps(summary)), "csv": tables}


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def differences(recorded, fresh, where: str = "") -> list[str]:
    """Paths at which two output records disagree under the golden rule."""
    if isinstance(recorded, str) and isinstance(fresh, str):
        recorded, fresh = _number(recorded), _number(fresh)
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        if recorded.keys() != fresh.keys():
            return [f"{where}: keys {sorted(recorded)} != {sorted(fresh)}"]
        return [d for k in recorded for d in differences(recorded[k], fresh[k], f"{where}/{k}")]
    if isinstance(recorded, list) and isinstance(fresh, list):
        if len(recorded) != len(fresh):
            return [f"{where}: length {len(recorded)} != {len(fresh)}"]
        return [d for i, (a, b) in enumerate(zip(recorded, fresh))
                for d in differences(a, b, f"{where}[{i}]")]
    if isinstance(recorded, float) and isinstance(fresh, float):
        if math.isnan(recorded) or math.isnan(fresh):
            same = math.isnan(recorded) and math.isnan(fresh)
        else:
            same = abs(recorded - fresh) <= FLOAT_TOL
    else:
        same = type(recorded) is type(fresh) and recorded == fresh
    return [] if same else [f"{where}: {recorded!r} != {fresh!r}"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_the_golden_record(tmp_path, monkeypatch, name):
    monkeypatch.setenv("QROMLAB_THREADS", "1")
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CONFIGS)
    assert differences(golden[name], outputs(name, tmp_path)) == []


def test_the_golden_rule_catches_a_float_past_the_tolerance():
    row = {"csv": {"t.csv": [["eq_find", "k_E"], ["0.5", "1"]]}, "summary": {"x": 0.5}}
    assert differences(row, row) == []
    nudged = {"csv": {"t.csv": [["eq_find", "k_E"], ["0.50000000001", "1"]]},
              "summary": {"x": 0.5 + 1e-11}}
    assert len(differences(row, nudged)) == 2
    assert differences(row, {**row, "summary": {"x": 0.5 + 1e-13}}) == []
    assert differences({"k": 1}, {"k": 1.0}) and differences({"k": "1"}, {"k": "2"})


def write_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: outputs(name, Path(tmp) / name) for name in sorted(CONFIGS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
