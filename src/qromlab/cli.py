"""Experiment runner: configs in, CSV rows and JSON summaries out.

Trials are independent and draw their randomness from counter-based
streams keyed by (master seed, trial index), so results do not depend on
scheduling order and a fixed seed reproduces every row exactly.  The
only nondeterministic outputs are the timing columns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import pcc, zoo
from .algebra import GroupSpec
from .attack import default_cap, full_attack, random_table, trial_rng
from .circuits import (
    averaged_fixed_distribution,
    random_ops,
    run_purified,
    total_variation,
    work_distribution,
)
from .errors import CapacityError, QromlabError, ReplayMismatchError, is_int, typed
from .learner import learn
from .oracle import OracleSpec
from .protocol import Protocol, query_count, run_concrete, validate
from .qstate import QuantumState

MODES = ("attack", "learner-only", "pcc-search", "oracle-equivalence")
ATTACK_COLUMNS = ("trial", "k_E", "k_A", "k_B", "L_size", "aborted",
                  "eq_find", "eq_simulatedm", "eq_agrees", "seconds")
LEARNER_COLUMNS = ("trial", "L_size", "aborted", "max_residual_weight", "seconds")
EQUIV_COLUMNS = ("trial", "tv_distance", "seconds")
REPLAY_TOL = 1e-9


class ConfigError(QromlabError):
    """Invalid experiment configuration; carries the itemized complaints."""

    def __init__(self, items):
        self.items = list(items)
        super().__init__("; ".join(self.items))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def worker_count() -> int:
    env = os.environ.get("QROMLAB_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError([f"QROMLAB_THREADS must be an integer, got {env!r}"])
        return max(1, cap)
    return min(8, os.cpu_count() or 1)


def _run_trials(fn, trials: int) -> list:
    workers = worker_count()
    if workers == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    mode: str
    trials: int = 100
    seed: int = 0
    out_dir: str = "out"
    protocol: str | None = None
    protocol_json: dict | None = None
    group: tuple[int, ...] = (2,)
    n: int = 4
    eps: tuple[float, ...] = (0.05,)
    lam: float = 0.05
    cap: int | None = None
    guess_only: bool = False
    force_simulated_oracle: bool = False
    dump_relevant: bool = True
    delta: float = 0.1
    d: int = 2
    queries: int = 3

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError([f"config must be a JSON object, got {type(data).__name__}"])
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError([f"unknown config key {k!r}" for k in unknown])
        if "mode" not in data:
            raise ConfigError(["config needs a 'mode'"])
        kwargs = dict(data)
        if "eps" in kwargs:
            eps = kwargs["eps"]
            kwargs["eps"] = tuple(eps) if isinstance(eps, (list, tuple)) else (eps,)
        if isinstance(kwargs.get("group"), list):
            kwargs["group"] = tuple(kwargs["group"])
        return cls(**kwargs)

    def to_json(self) -> dict:
        data = asdict(self)
        data["eps"] = list(self.eps)
        data["group"] = list(self.group)
        return data

    def _type_problems(self) -> list[str]:
        """Fields whose JSON type is wrong; the value checks need the right types."""
        problems = []

        def check(name, ok, what):
            if not ok:
                problems.append(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("mode", "out_dir"):
            check(name, isinstance(getattr(self, name), str), "a string")
        for name in ("trials", "seed", "n", "d", "queries"):
            check(name, is_int(getattr(self, name)), "an integer")
        for name in ("lam", "delta"):
            check(name, _is_real(getattr(self, name)), "a number")
        for name in ("guess_only", "force_simulated_oracle", "dump_relevant"):
            check(name, isinstance(getattr(self, name), bool), "true or false")
        check("protocol", self.protocol is None or isinstance(self.protocol, str),
              "a string or null")
        check("protocol_json", self.protocol_json is None or isinstance(self.protocol_json, dict),
              "an object or null")
        check("cap", self.cap is None or is_int(self.cap), "an integer or null")
        check("group", isinstance(self.group, (list, tuple)) and all(map(is_int, self.group)),
              "a list of integers")
        check("eps", isinstance(self.eps, (list, tuple)) and all(map(_is_real, self.eps)),
              "a number or a list of numbers")
        return problems

    def validate(self) -> list[str]:
        return self._checked()[0]

    def _checked(self) -> tuple[list[str], Protocol | None]:
        """The config's problems and, in a mode that runs one, its protocol, built once."""
        problems = self._type_problems()
        if problems:
            return problems, None
        p = None
        if self.mode not in MODES:
            problems.append(f"mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if self.trials < 1:
            problems.append(f"trials must be a positive integer, got {self.trials!r}")
        if self.seed < 0:
            problems.append(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not self.out_dir:
            problems.append("out_dir must not be empty")
        group_ok = bool(self.group) and all(q >= 2 for q in self.group)
        if not group_ok:
            problems.append(f"group factors must all be >= 2, got {list(self.group)}")
        if self.n < 1:
            problems.append(f"domain size must be >= 1, got {self.n}")
        if self.mode in ("attack", "learner-only"):
            if not self.eps:
                problems.append("eps grid must not be empty")
            for e in self.eps:
                if not 0 < e < 1:
                    problems.append(f"eps values must be in (0,1), got {e}")
            if not 0 < self.lam < 1:
                problems.append(f"lam must be in (0,1), got {self.lam}")
            if self.cap is not None and self.cap < 1:
                problems.append(f"cap must be >= 1, got {self.cap}")
            if self.protocol is None and self.protocol_json is None:
                problems.append(f"mode {self.mode} needs a protocol")
            elif group_ok:
                try:
                    p = self.resolve_protocol()
                except QromlabError as exc:
                    problems.append(f"protocol does not resolve: {exc}")
                else:
                    report = validate(p)
                    problems.extend(f"protocol: {v}" for v in report.violations)
        if self.mode == "pcc-search":
            if not 0 < self.delta <= 1:
                problems.append(f"delta must be in (0,1], got {self.delta}")
            if self.d < 0:
                problems.append(f"d must be nonnegative, got {self.d}")
        if self.mode == "oracle-equivalence":
            if self.queries < 0:
                problems.append(f"queries must be nonnegative, got {self.queries}")
            if group_ok and self.group_spec().order ** self.n > 4096:
                problems.append("oracle-equivalence enumerates all tables; "
                                f"|Y|^N = {self.group_spec().order ** self.n} is too large")
        return problems, p

    def group_spec(self) -> GroupSpec:
        return GroupSpec(tuple(self.group))

    def resolve_protocol(self) -> Protocol:
        """A builtin name always means the builtin; any other name is a path when it
        ends in ``.json`` or exists."""
        if self.protocol_json is not None:
            return Protocol.from_json(self.protocol_json)
        if self.protocol is None:
            raise ConfigError(["no protocol configured"])
        build = zoo.BUILTINS.get(self.protocol)
        if build is not None:
            return build(self.n, self.group_spec())
        path = Path(self.protocol)
        if path.suffix == ".json" or path.exists():
            return Protocol.from_json(_read_file(path))
        known = ", ".join(sorted(zoo.BUILTINS))
        raise ConfigError([f"unknown protocol {self.protocol!r}; builtins: {known}"])


def _attack_trial(p: Protocol, cfg: ExperimentConfig, eps: float, trial: int):
    """One attack trial: its CSV row (``seconds`` last), its (success, key
    match, conjecture-relevant) flags, and its dump when it is relevant and
    dumping is on.  The outcome and its states are dropped here."""
    rng = trial_rng(cfg.seed, trial)
    table = random_table(rng, p)
    start = time.thread_time()
    out = full_attack(
        p, eps, cfg.lam, table,
        seed=rng,
        cap=cfg.cap,
        guess_only=cfg.guess_only,
        force_simulated_oracle=cfg.force_simulated_oracle,
    )
    seconds = time.thread_time() - start
    row = [trial, out.k_E, out.k_A, out.k_B, out.l_size, out.aborted,
           out.eq_find, out.eq_simulatedm, out.eq_agrees, seconds]
    dump = None
    if cfg.dump_relevant and out.conjecture_relevant:
        dump = _attack_dump(cfg, p, eps, trial, out)
    return row, (out.success, out.key_match, out.conjecture_relevant), dump


def _attack_dump(cfg: ExperimentConfig, p: Protocol, eps: float, trial: int, out) -> dict:
    return {
        "kind": "attack-trial",
        "trial": trial,
        "seed": cfg.seed,
        "eps": eps,
        "lam": cfg.lam,
        "protocol": p.to_json(),
        "transcript": list(out.transcript),
        "table": list(out.table),
        # the loosest lightness bound a classically pinned cell satisfies
        "delta": 1.0 - 1.0 / p.group.order,
        "d": p.query_budget,
        "outcome": out.to_json(),
        "simulated_state": out.learner.simulated_state.dump(),
    }


def _attack_sweep(cfg: ExperimentConfig, p: Protocol, eps: float, index: int,
                  out_dir: Path) -> dict:
    def trial(t: int):
        row, flags, dump = _attack_trial(p, cfg, eps, t)
        if dump is not None:
            (out_dir / "dumps").mkdir(exist_ok=True)
            (out_dir / "dumps" / f"trial{t}_eps{index}.json").write_text(
                json.dumps(dump, sort_keys=True))
        return row, flags

    results = _run_trials(trial, cfg.trials)
    rows = [row for row, _ in results]
    success, key_match, is_relevant = zip(*(flags for _, flags in results))
    csv_name = f"trials_eps{index}.csv"
    _write_csv(out_dir / csv_name, ATTACK_COLUMNS, rows)
    relevant = [t for t, r in enumerate(is_relevant) if r]
    n = len(rows)
    eq_sim = [r[7] for r in rows]
    eq_agr = [r[8] for r in rows]
    return {
        "eps": eps,
        "csv": csv_name,
        "success_rate": sum(success) / n,
        "key_match_rate": sum(key_match) / n,
        "mean_L": sum(r[4] for r in rows) / n,
        "abort_rate": sum(r[5] for r in rows) / n,
        "min_eq_find": min(r[6] for r in rows),
        "min_eq_simulatedm": None if any(math.isnan(v) for v in eq_sim) else min(eq_sim),
        "min_eq_agrees": None if any(math.isnan(v) for v in eq_agr) else min(eq_agr),
        "conjecture_relevant_trials": relevant,
        "dumped": [f"trial{t}_eps{index}.json" for t in relevant] if cfg.dump_relevant else [],
    }


def _learner_trial(p: Protocol, cfg: ExperimentConfig, eps: float, trial: int) -> list:
    """One learner-only trial's CSV row, ``seconds`` last."""
    rng = trial_rng(cfg.seed, trial)
    table = random_table(rng, p)
    start = time.thread_time()
    transcript = run_concrete(p, table, seed=rng).transcript
    cap = cfg.cap if cfg.cap is not None else default_cap(p, eps, cfg.lam)
    res = learn(p, transcript, eps, table, cap=cap)
    return [trial, res.queries_made, res.aborted, res.max_residual_weight,
            time.thread_time() - start]


def _learner_sweep(cfg: ExperimentConfig, p: Protocol, eps: float, index: int,
                   out_dir: Path) -> dict:
    rows = _run_trials(lambda t: _learner_trial(p, cfg, eps, t), cfg.trials)
    csv_name = f"trials_eps{index}.csv"
    _write_csv(out_dir / csv_name, LEARNER_COLUMNS, rows)
    n = len(rows)
    return {
        "eps": eps,
        "csv": csv_name,
        "mean_L": sum(r[1] for r in rows) / n,
        "abort_rate": sum(r[2] for r in rows) / n,
        "max_residual_weight": max(r[3] for r in rows),
    }


def _equivalence_trial(cfg: ExperimentConfig, trial: int) -> list:
    """One oracle-equivalence trial's CSV row, ``seconds`` last."""
    rng = trial_rng(cfg.seed, trial)
    spec = OracleSpec(cfg.n, cfg.group_spec())
    ops = random_ops(spec, rng, cfg.queries)
    start = time.thread_time()
    purified = work_distribution(run_purified(spec, ops))
    averaged = averaged_fixed_distribution(spec, ops)
    tv = total_variation(purified, averaged)
    return [trial, tv, time.thread_time() - start]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one configured experiment, writing CSV rows and summary.json."""
    problems, p = cfg._checked()
    if problems:
        raise ConfigError(problems)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary: dict = {"mode": cfg.mode, "config": cfg.to_json()}

    if cfg.mode in ("attack", "learner-only"):
        summary["config"]["protocol_json"] = p.to_json()
        sweep_fn = _attack_sweep if cfg.mode == "attack" else _learner_sweep
        sweeps = [sweep_fn(cfg, p, eps, i, out_dir) for i, eps in enumerate(cfg.eps)]
        summary["sweeps"] = sweeps
        if len(sweeps) == 1:
            for key, value in sweeps[0].items():
                if key not in ("eps", "csv"):
                    summary[key] = value
    elif cfg.mode == "pcc-search":
        spec = OracleSpec(cfg.n, cfg.group_spec())
        res = pcc.search_counterexample(spec, cfg.delta, cfg.d, cfg.trials, cfg.seed)
        summary["counterexamples_found"] = 0 if res.hit is None else 1
        summary["trials_run"] = res.trials
        summary["goodstate_pairs"] = res.goodstate_pairs
        summary["min_margin"] = res.min_margin
        if res.hit is not None:
            dump_dir = out_dir / "dumps"
            dump_dir.mkdir(exist_ok=True)
            hit = dict(res.hit.to_json())
            hit["kind"] = "pcc-hit"
            hit["delta"] = cfg.delta
            hit["d"] = cfg.d
            (dump_dir / "pcc_hit.json").write_text(json.dumps(hit, sort_keys=True))
            summary["hit_dump"] = "pcc_hit.json"
    else:  # oracle-equivalence
        rows = _run_trials(lambda t: _equivalence_trial(cfg, t), cfg.trials)
        _write_csv(out_dir / "trials.csv", EQUIV_COLUMNS, rows)
        summary["max_tv"] = max(r[1] for r in rows)
        summary["mean_tv"] = sum(r[1] for r in rows) / len(rows)

    summary["wall_time"] = time.perf_counter() - started
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def describe(name: str, n: int = 4, group=(2,)) -> str:
    """Human-readable account of a protocol's shape and model standing."""
    cfg = ExperimentConfig(mode="attack", protocol=name, n=n, group=tuple(group))
    try:
        p = cfg.resolve_protocol()
    except QromlabError as exc:
        raise ConfigError([f"protocol does not resolve: {exc}"]) from None
    lines = [f"{p.name}: domain size {p.domain_size}, "
             f"oracle range order {p.group.order} (factors {list(p.group.factors)})"]
    lines.append("registers:")
    for reg in p.registers:
        lines.append(f"  {reg.name:5s} dim {reg.dim:2d} role {reg.role}")
    def counted(k: int, singular: str, plural: str) -> str:
        return f"{k} {singular if k == 1 else plural}"

    for i, step in enumerate(p.rounds, start=1):
        queries = query_count(step.program)
        what = (f"round {i}: party {step.party}, "
                f"{counted(len(step.program), 'instruction', 'instructions')}, "
                f"{counted(queries, 'query', 'queries')}")
        if step.message:
            what += f", sends {step.message} ({p.message_kind(step)})"
        lines.append(what)
    final_queries = query_count(p.final_a_program)
    lines.append(f"final map: {counted(len(p.final_a_program), 'instruction', 'instructions')}, "
                 f"{counted(final_queries, 'query', 'queries')}")
    lines.append(f"query budget d = {p.query_budget}; keys {p.key_reg_a}/{p.key_reg_b}")
    if p.alice_no_final_query:
        lines.append("final map stays off the oracle: the active attack applies")
    else:
        lines.append("warning: final map queries the oracle; outside the attack's hypothesis")
    if p.query_budget == 0:
        lines.append("note: no queries at all; any eavesdropper can simulate both ends")
    if name == "ka-from-toy-qpke":
        lines.append("reduction shape: (1) Alice runs key generation and announces the "
                     "public key; (2) Bob encrypts his key bit under it and sends the "
                     "ciphertext as the quantum message; (3) Alice decrypts with her "
                     "secret key")
    report = validate(p)
    lines.extend(f"violation: {v}" for v in report.violations)
    lines.extend(f"model note: {notice}" for notice in report.notices)
    return "\n".join(lines)


def _read_file(path, as_json: bool = True):
    """The CLI's one file reader: ``path``'s UTF-8 text, parsed as JSON when ``as_json``.

    A file that cannot be opened or decoded, or JSON that does not parse,
    is a ConfigError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except OSError as exc:
        raise ConfigError([f"{path} cannot be read ({exc.strerror or exc})"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path} is not UTF-8 text ({exc.reason})"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON ({exc})"]) from None


def _read_csv_row(path: Path, trial: int) -> dict:
    for row in csv.DictReader(io.StringIO(_read_file(path, as_json=False))):
        if row.get("trial") == str(trial):
            return row
    raise ConfigError([f"trial {trial} not found in {path}"])


def _close(recorded, recomputed) -> bool:
    """Replay's one rule: empty matches None, NaN matches NaN, anything else within 1e-9."""
    if recorded == "" or recomputed is None:
        return recorded == "" and recomputed is None
    try:
        a, b = float(recorded), float(recomputed)
    except (TypeError, ValueError):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REPLAY_TOL


def _replay_pcc_hit(run_dir: Path) -> dict:
    dump_path = run_dir / "dumps" / "pcc_hit.json"
    if not dump_path.exists():
        raise ConfigError(["no hit was dumped; nothing to replay"])
    dump = _read_file(dump_path)
    try:
        phi = QuantumState.load(dump["state_a"])
        psi = QuantumState.load(dump["state_b"])
        delta, d = typed(dump["delta"], (int, float), "delta"), typed(dump["d"], int, "d")
        recorded = dump["report_a"], dump["report_b"]
        compatible = pcc.compatible(phi, psi)
        reports = tuple(pcc.is_goodstate(s, delta, d).to_json() for s in (phi, psi))
    except (KeyError, IndexError, TypeError, ValueError, CapacityError) as exc:
        raise ConfigError([f"{dump_path} is damaged ({type(exc).__name__}: {exc})"]) from None
    if compatible:
        raise ReplayMismatchError("dumped pair is no longer incompatible")
    if reports != recorded:
        raise ReplayMismatchError("goodstate reports changed under replay")
    return {"mode": "pcc-search", "incompatible": True,
            "report_a": reports[0], "report_b": reports[1]}


def _sweep_block(summary: dict, sweep: int, run_dir: Path) -> tuple[float, str]:
    """The eps and the CSV name of sweep ``sweep`` in a summary."""
    sweeps = summary.get("sweeps")
    if not isinstance(sweeps, list):
        raise ConfigError([f"{run_dir}/summary.json has no list of sweeps"])
    if not 0 <= sweep < len(sweeps):
        raise ConfigError([f"sweep index {sweep} out of range ({len(sweeps)} sweeps)"])
    block = sweeps[sweep]
    if not (isinstance(block, dict) and isinstance(block.get("csv"), str)
            and _is_real(block.get("eps"))):
        raise ConfigError([f"{run_dir}/summary.json: sweep {sweep} lacks its csv name or eps"])
    return float(block["eps"]), block["csv"]


def replay(trial: int, run_dir, sweep: int = 0) -> dict:
    """Re-derive one recorded trial and compare against the CSV row.

    The trial is re-run by the function that wrote its row, and every
    column except ``seconds`` is compared: an empty cell matches None,
    NaN matches NaN, anything else must agree to 1e-9.  Raises
    ReplayMismatchError naming the columns that differ.  For attack
    trials with a dump on disk the dump must equal a fresh one and the
    dumped simulated state is cross-checked too.  Damaged or missing input is a ConfigError.
    """
    run_dir = Path(run_dir)
    if not (run_dir / "summary.json").exists():
        raise ConfigError([f"{run_dir} has no summary.json; not an experiment directory"])
    summary = _read_file(run_dir / "summary.json")
    if not isinstance(summary, dict) or summary.get("mode") not in MODES or "config" not in summary:
        raise ConfigError([f"{run_dir}/summary.json lacks a known mode or the config"])
    mode = summary["mode"]
    cfg = ExperimentConfig.from_json(summary["config"])
    problems, p = cfg._checked()
    if problems:
        raise ConfigError(problems)
    if mode == "pcc-search":
        return _replay_pcc_hit(run_dir)

    extra = {}
    if mode == "oracle-equivalence":
        row = _read_csv_row(run_dir / "trials.csv", trial)
        columns, fresh = EQUIV_COLUMNS, _equivalence_trial(cfg, trial)
    else:
        eps, csv_name = _sweep_block(summary, sweep, run_dir)
        row = _read_csv_row(run_dir / csv_name, trial)
        if mode == "learner-only":
            columns, fresh = LEARNER_COLUMNS, _learner_trial(p, cfg, eps, trial)
        else:
            columns = ATTACK_COLUMNS
            fresh, _, fresh_dump = _attack_trial(p, cfg, eps, trial)
            dump_path = run_dir / "dumps" / f"trial{trial}_eps{sweep}.json"
            if dump_path.exists():
                dump = _read_file(dump_path)
                if json.dumps(fresh_dump, sort_keys=True) != json.dumps(dump, sort_keys=True):
                    raise ReplayMismatchError("dump content differs from a fresh re-run")
                extra["dump_check"] = pcc.check_attack_dump(dump)

    compared = list(zip(columns[:-1], fresh[:-1]))  # ``seconds`` is last
    bad = [c for c, v in compared if not _close(row.get(c), v)]
    if bad:
        raise ReplayMismatchError("recomputed values differ for: " + ", ".join(bad))
    recomputed = {c: None if isinstance(v, float) and math.isnan(v) else v for c, v in compared}
    return {"mode": mode, "trial": trial, "recorded": dict(row),
            "recomputed": recomputed | extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qromlab",
        description="Desk-scale experiments on key agreement against a random oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a configured experiment")
    run_parser.add_argument("--config", required=True, help="path to a JSON config")
    run_parser.add_argument("--out", help="override the configured out_dir")
    desc_parser = sub.add_parser("describe", help="print a protocol summary")
    desc_parser.add_argument("name", help="builtin protocol name or JSON path")
    desc_parser.add_argument("--n", type=int, default=4, help="oracle domain size")
    desc_parser.add_argument("--group", default="2",
                             help="comma-separated cyclic factors of the range")
    replay_parser = sub.add_parser("replay", help="re-derive one recorded trial")
    replay_parser.add_argument("trial", type=int)
    replay_parser.add_argument("run_dir")
    replay_parser.add_argument("--sweep", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_json(_read_file(args.config))
            if args.out:
                cfg.out_dir = args.out
            summary = run_experiment(cfg)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "describe":
            try:
                group = tuple(int(q) for q in args.group.split(","))
            except ValueError:
                raise ConfigError([f"--group must be comma-separated integers, got {args.group!r}"])
            print(describe(args.name, n=args.n, group=group))
        else:
            report = replay(args.trial, args.run_dir, sweep=args.sweep)
            print(json.dumps(report, indent=2, sort_keys=True))
    except ConfigError as exc:
        for item in exc.items:
            print(f"config error: {item}", file=sys.stderr)
        return 2
    except QromlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
