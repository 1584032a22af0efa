"""The four benchmark workloads: inputs, one timed library call, output checks.

Each workload is a closed loop with one client: ``call(ctx, i)`` makes the
i-th request, returns only when the library call has, and the next request
starts after it.  A call returns ``(trials, latencies_s, records)``: the
number of trials it ran, one latency per trial and one record of
deterministic outputs per trial.  The benchmark calls only the public API
and reaches every function through its module, so the tracer's wrappers
sit in the path when they are installed.

``check`` compares records with reference outputs recorded at the seed
commit (where a record's key has one) and with the invariants the
acceptance criteria state (everywhere).
"""

from __future__ import annotations

import csv
import math
import shutil
import time
from pathlib import Path

from qromlab import algebra, attack, cli, oracle, pcc, zoo

EPS = 0.05
LAM = 0.05
EQ_TOL = 1e-9
ATTACK_PROTOCOLS = ("announced-query", "merkle", "ka-from-toy-qpke")
# trials per run_experiment call: small enough for 200 calls in a run, so
# the call latency has a p95, large enough that both pool workers get work
CLI_TRIALS = 4


def _random_table(rng, p) -> tuple:
    return tuple(int(v) for v in rng.integers(0, p.group.order, size=p.domain_size))


def _cap(p, eps: float, lam: float) -> int:
    return max(1, math.ceil(p.query_budget / (lam * eps)))


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= EQ_TOL


class Workload:
    name = ""
    warmup_calls = 1
    trace_calls = 1

    def setup(self, seed: int, scratch: Path):
        raise NotImplementedError

    def call(self, ctx, i: int):
        raise NotImplementedError

    def check_record(self, record, reference: dict) -> list[str]:
        """Problems with one record, checked against ``reference`` where it has the key."""
        raise NotImplementedError

    def check_aggregate(self, records) -> list[str]:
        return []

    def teardown(self, ctx) -> None:
        pass

    def layer_metrics(self, records, spans) -> dict:
        """Per-layer metrics read off one traced batch's outputs.

        ``spans`` is ``tracer.summarize`` of the batch's spans.
        """
        return {}

    def check(self, records, reference: dict) -> tuple[int, list[str]]:
        """(failed trials, problems) over every record of a run."""
        failed = 0
        problems = []
        for rec in records:
            if "error" in rec:
                bad = [f"raised: {rec['error']}"]
            else:
                bad = self.check_record(rec, reference)
            if bad:
                failed += 1
                problems.append(f"{rec['key']}: " + "; ".join(bad))
        ok = [r for r in records if "error" not in r]
        problems.extend(self.check_aggregate(ok))
        return failed, problems


class AttackN8(Workload):
    """Criterion 5: full attack, round-robin over three protocols at n=8."""

    name = "attack-n8"
    warmup_calls = 3
    trace_calls = 30

    def setup(self, seed, scratch):
        z = zoo.standard_zoo(8, algebra.cyclic(2))
        return {"seed": seed, "protocols": [z[n] for n in ATTACK_PROTOCOLS]}

    def call(self, ctx, i):
        p = ctx["protocols"][i % len(ATTACK_PROTOCOLS)]
        rng = attack.trial_rng(ctx["seed"], i)
        table = _random_table(rng, p)
        start = time.perf_counter()
        out = attack.full_attack(p, EPS, LAM, table, seed=rng, keep_states=True)
        dt = time.perf_counter() - start
        record = {
            "key": f"{ctx['seed']}/{i}",
            "protocol": p.name,
            "out": [out.k_E, out.k_A, out.k_B, out.l_size, int(out.aborted),
                    out.eq_find, out.eq_simulatedm, out.eq_agrees],
            "success": bool(out.success),
            "cap": _cap(p, EPS, LAM),
        }
        return 1, [dt], [record]

    def check_record(self, rec, reference):
        expected = reference.get(rec["key"])
        bad = []
        k_E, k_A, k_B, l_size, aborted, *eqs = rec["out"]
        if l_size > rec["cap"]:
            bad.append(f"L_size {l_size} above cap {rec['cap']}")
        if any(not -EQ_TOL <= e <= 1 + EQ_TOL for e in eqs):
            bad.append(f"eq values {eqs} outside [0, 1]")
        if expected is not None:
            if expected[:5] != rec["out"][:5]:
                bad.append(f"(k_E, k_A, k_B, L_size, aborted) {rec['out'][:5]} != {expected[:5]}")
            if not all(_close(a, b) for a, b in zip(eqs, expected[5:])):
                bad.append(f"eq values {eqs} != {expected[5:]}")
        return bad

    def check_aggregate(self, records):
        problems = []
        for name in ATTACK_PROTOCOLS:
            mine = [r for r in records if r["protocol"] == name]
            if not mine:
                continue
            n = len(mine)
            floor = 1 - LAM - 3 * math.sqrt(LAM * (1 - LAM) / n)
            rate = sum(r["success"] for r in mine) / n
            min_eq = min(min(r["out"][5:]) for r in mine)
            if rate < floor:
                problems.append(f"{name}: success rate {rate:.3f} below floor {floor:.3f}")
            if min_eq < 1 - LAM:
                problems.append(f"{name}: min eq {min_eq:.3f} below {1 - LAM}")
        return problems


class BlindGuessN8(Workload):
    """Criterion 6: forced simulated oracle on trivial-last-message at n=8."""

    name = "blind-guess-n8"
    warmup_calls = 2
    trace_calls = 10

    def setup(self, seed, scratch):
        p = zoo.standard_zoo(8, algebra.cyclic(2))["trivial-last-message"]
        return {"seed": seed, "protocol": p}

    def call(self, ctx, i):
        p = ctx["protocol"]
        rng = attack.trial_rng(ctx["seed"], i)
        table = _random_table(rng, p)
        start = time.perf_counter()
        out = attack.full_attack(p, 0.25, LAM, table, seed=rng,
                                 guess_only=True, force_simulated_oracle=True)
        dt = time.perf_counter() - start
        record = {"key": f"{ctx['seed']}/{i}", "out": [out.k_E, out.k_B, out.l_size]}
        return 1, [dt], [record]

    def check_record(self, rec, reference):
        expected = reference.get(rec["key"])
        bad = []
        if rec["out"][2] != 0:
            bad.append(f"L_size {rec['out'][2]} on a blind run")
        if expected is not None and expected != rec["out"]:
            bad.append(f"(k_E, k_B, L_size) {rec['out']} != {expected}")
        return bad


class PccSearchN4(Workload):
    """Criterion 7: one single-trial compatibility search per request at n=4."""

    name = "pcc-search-n4"
    warmup_calls = 20
    trace_calls = 200

    def setup(self, seed, scratch):
        return {"seed": seed, "spec": oracle.OracleSpec(4, algebra.cyclic(2))}

    def call(self, ctx, i):
        search_seed = ctx["seed"] + i
        start = time.perf_counter()
        res = pcc.search_counterexample(ctx["spec"], delta=0.1, d=2, trials=1, seed=search_seed)
        dt = time.perf_counter() - start
        record = {"key": str(search_seed),
                  "out": [int(res.hit is not None), res.goodstate_pairs, res.min_margin]}
        return 1, [dt], [record]

    def check_record(self, rec, reference):
        expected = reference.get(rec["key"])
        bad = []
        if rec["out"][0]:
            bad.append("incompatible goodstate pair found")
        if expected is not None and (expected[:2] != rec["out"][:2]
                                     or not _close(expected[2], rec["out"][2])):
            bad.append(f"(hit, pairs, margin) {rec['out']} != {expected}")
        return bad


    def layer_metrics(self, records, spans):
        return {"pcc.goodstate_ratio": sum(r["out"][1] for r in records) / len(records)}


class CliLearnerN8(Workload):
    """The user's entry point: run_experiment in learner-only mode on merkle.

    One request is one ``run_experiment`` call of ``CLI_TRIALS`` trials with
    the default worker count, timed as a whole: the trials run inside the
    pool, where the CSV ``seconds`` column also counts time spent waiting
    for the other worker.
    """

    name = "cli-learner-n8"
    warmup_calls = 1
    trace_calls = 10

    def setup(self, seed, scratch):
        out_dir = Path(scratch) / self.name
        cfg = self.config(seed * 1000, out_dir)
        problems = cfg.validate()
        if problems:
            raise cli.ConfigError(problems)
        cap = _cap(cfg.resolve_protocol(), EPS, LAM)
        return {"seed": seed, "out_dir": out_dir, "cap": cap}

    @staticmethod
    def config(cfg_seed: int, out_dir: Path):
        return cli.ExperimentConfig(mode="learner-only", protocol="merkle", n=8,
                                    group=(2,), eps=(EPS,), lam=LAM,
                                    trials=CLI_TRIALS, seed=cfg_seed, out_dir=str(out_dir))

    def call(self, ctx, i):
        cfg_seed = ctx["seed"] * 1000 + i
        cfg = self.config(cfg_seed, ctx["out_dir"])
        start = time.perf_counter()
        summary = cli.run_experiment(cfg)
        dt = time.perf_counter() - start
        with open(ctx["out_dir"] / summary["sweeps"][0]["csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        records = [{
            "key": f"{cfg_seed}/{r['trial']}",
            "out": [int(r["L_size"]), int(r["aborted"]), float(r["max_residual_weight"])],
            "cap": ctx["cap"],
            "seconds": float(r["seconds"]),
        } for r in rows]
        # the summary is checked once per call, with the call's last row
        records[-1]["summary_key"] = str(cfg_seed)
        records[-1]["summary"] = [summary["mean_L"], summary["abort_rate"],
                                  summary["max_residual_weight"]]
        records[-1]["rows"] = [rec["out"] for rec in records]
        return len(rows), [dt], records

    def check_record(self, rec, reference):
        bad = []
        l_size, aborted, residual = rec["out"]
        if l_size > rec["cap"]:
            bad.append(f"L_size {l_size} above cap {rec['cap']}")
        if not aborted and residual >= EPS:
            bad.append(f"residual weight {residual} at or above eps")
        expected = reference.get(rec["key"])
        if expected is not None and (expected[:2] != rec["out"][:2]
                                     or not _close(expected[2], residual)):
            bad.append(f"row {rec['out']} != {expected}")
        if "summary" in rec:
            rows = rec["rows"]
            derived = [sum(r[0] for r in rows) / len(rows), sum(r[1] for r in rows) / len(rows),
                       max(r[2] for r in rows)]
            if not all(_close(a, b) for a, b in zip(rec["summary"], derived)):
                bad.append(f"summary {rec['summary']} disagrees with the CSV rows {derived}")
            expected = reference.get(rec["summary_key"])
            if expected is not None and not all(_close(a, b) for a, b in zip(rec["summary"], expected)):
                bad.append(f"summary {rec['summary']} != {expected}")
        return bad

    def layer_metrics(self, records, spans):
        # the seconds column summed, against the wall time of the calls
        seconds_sum = sum(r["seconds"] for r in records)
        return {"cli.trial_seconds_sum": seconds_sum,
                "cli.concurrency": seconds_sum / spans["cli.run_experiment"]["total"]}

    def teardown(self, ctx):
        shutil.rmtree(ctx["out_dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (AttackN8(), BlindGuessN8(), PccSearchN4(), CliLearnerN8())}
