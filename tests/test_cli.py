"""End-to-end checks of the experiment runner."""

import csv
import dataclasses
import json
import math
import os
import pickle
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qromlab import attack, cli, pcc, protocol, zoo
from qromlab.cli import ConfigError, ExperimentConfig
from qromlab.errors import DomainError, ProtocolShapeError, QromlabError, ReplayMismatchError
from qromlab.protocol import KEY_ABORT, Protocol, permutation_gate, validate


def make_config(tmp_path, **overrides):
    base = {
        "mode": "attack",
        "protocol": "announced-query",
        "n": 4,
        "trials": 8,
        "seed": 11,
        "eps": [0.05],
        "lam": 0.05,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    return ExperimentConfig.from_json(base)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_config_validation_is_itemized():
    cfg = ExperimentConfig(mode="attack", protocol="announced-query",
                           trials=0, eps=(1.5,), lam=0.0, group=(1,))
    problems = cfg.validate()
    assert any("trials" in p for p in problems)
    assert any("eps" in p for p in problems)
    assert any("lam" in p for p in problems)
    assert any("group" in p for p in problems)
    assert any("mode" in p for p in ExperimentConfig(mode="nope").validate())


@pytest.mark.parametrize("raw", [
    {"mode": "oracle-equivalence", "group": [1]},
    {"mode": "oracle-equivalence", "group": []},
    {"mode": "attack", "protocol": "announced-query", "group": [1]},
])
def test_a_bad_group_is_one_itemized_problem(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw | {"out_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: group factors must all be >= 2, got {raw['group']}"]
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'epz'"):
        ExperimentConfig.from_json({"mode": "attack", "epz": 0.1})


def test_scalar_eps_becomes_a_grid():
    cfg = ExperimentConfig.from_json({"mode": "attack", "eps": 0.1})
    assert cfg.eps == (0.1,)


def test_attack_run_writes_csv_and_consistent_summary(tmp_path):
    cfg = make_config(tmp_path)
    summary = cli.run_experiment(cfg)
    out = Path(cfg.out_dir)
    rows = read_rows(out / "trials_eps0.csv")
    assert [len(rows)] == [cfg.trials]
    assert list(rows[0]) == list(cli.ATTACK_COLUMNS)

    successes = 0
    l_total = 0
    for row in rows:
        if (row["aborted"] == "0" and row["k_A"] != ""
                and int(row["k_A"]) != KEY_ABORT
                and row["k_E"] == row["k_A"] == row["k_B"]):
            successes += 1
        l_total += int(row["L_size"])
    assert summary["success_rate"] == successes / cfg.trials
    assert summary["mean_L"] == l_total / cfg.trials
    assert summary["success_rate"] == 1.0
    assert summary["conjecture_relevant_trials"] == []

    stored = json.loads((out / "summary.json").read_text())
    assert stored["success_rate"] == summary["success_rate"]
    assert stored["config"]["protocol_json"]["name"] == "announced-query"


def test_eps_sweep_writes_one_csv_per_value(tmp_path):
    cfg = make_config(tmp_path, trials=3, eps=[0.05, 0.2])
    summary = cli.run_experiment(cfg)
    assert len(summary["sweeps"]) == 2
    assert (Path(cfg.out_dir) / "trials_eps0.csv").exists()
    assert (Path(cfg.out_dir) / "trials_eps1.csv").exists()
    # per-sweep stats stay inside the sweep blocks for a grid
    assert "success_rate" not in summary


def test_guess_only_leaves_alice_columns_empty(tmp_path):
    cfg = make_config(tmp_path, guess_only=True, trials=4)
    summary = cli.run_experiment(cfg)
    rows = read_rows(Path(cfg.out_dir) / "trials_eps0.csv")
    assert all(row["k_A"] == "" for row in rows)
    assert all(row["eq_simulatedm"] == "nan" for row in rows)
    assert summary["key_match_rate"] == 1.0
    assert summary["success_rate"] == 0.0
    assert summary["min_eq_simulatedm"] is None


def forced_fork(monkeypatch, workers: int = 2) -> list:
    """Make runs fork from their first trial on; the returned list collects the
    pid of every child forked."""
    monkeypatch.setattr(cli, "FORK_BUDGET_S", 0)
    monkeypatch.setenv("QROMLAB_THREADS", str(workers))
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli.os, "fork", recording_fork)
    return pids


MODE_RUNS = [
    ({}, "trials_eps0.csv"),
    ({"mode": "learner-only", "protocol": "merkle"}, "trials_eps0.csv"),
    ({"mode": "oracle-equivalence", "n": 2, "queries": 2}, "trials.csv"),
]


@pytest.mark.parametrize("overrides,csv_name", MODE_RUNS)
def test_runs_are_deterministic_across_thread_counts(tmp_path, monkeypatch, overrides,
                                                      csv_name):
    outputs = []
    for forked, name in ((False, "a"), (True, "b")):
        if forked:
            pids = forced_fork(monkeypatch, workers=3)
        else:
            monkeypatch.setenv("QROMLAB_THREADS", "1")
        cfg = make_config(tmp_path / name, trials=6, **overrides)
        summary = cli.run_experiment(cfg)
        rows = read_rows(Path(cfg.out_dir) / csv_name)
        for row in rows:
            row.pop("seconds")
        summary.pop("wall_time")
        summary["config"].pop("out_dir")
        outputs.append((rows, summary))
    assert len(pids) == 2
    assert outputs[0] == outputs[1]
    # trial 4 ran in a child: its row replays in this process
    assert cli.replay(4, cfg.out_dir)["recorded"]["trial"] == "4"


def test_workers_write_the_serial_runs_dumps(tmp_path, monkeypatch):
    proto_path = tmp_path / "flipped.json"
    proto_path.write_text(json.dumps(broken_announced().to_json()))
    dumps = []
    for forked, name in ((False, "a"), (True, "b")):
        if forked:
            pids = forced_fork(monkeypatch, workers=3)
        else:
            monkeypatch.setenv("QROMLAB_THREADS", "1")
        cfg = make_config(tmp_path / name, protocol=str(proto_path), trials=3)
        assert cli.run_experiment(cfg)["dumped"] == [f"trial{t}_eps0.json" for t in range(3)]
        dumps.append({f.name: f.read_text() for f in (Path(cfg.out_dir) / "dumps").iterdir()})
    assert len(pids) == 2
    assert dumps[0] == dumps[1]
    assert cli.replay(2, cfg.out_dir)["recomputed"]["dump_check"]["compatible"]


@pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
@pytest.mark.parametrize("overrides,csv_name", MODE_RUNS)
def test_seconds_is_the_trials_own_thread_time(tmp_path, monkeypatch, overrides, csv_name,
                                               forked):
    # a clock that ticks once per reading: a trial timed with it reads
    # exactly 1 s, one timed with any other clock reads far less
    ticks = iter(range(10**6))
    monkeypatch.setattr(cli.time, "thread_time", lambda: float(next(ticks)))
    if forked:
        pids = forced_fork(monkeypatch)
    else:
        monkeypatch.setenv("QROMLAB_THREADS", "1")
    cfg = make_config(tmp_path, trials=3, **overrides)
    cli.run_experiment(cfg)
    rows = read_rows(Path(cfg.out_dir) / csv_name)
    assert [float(r["seconds"]) for r in rows] == [1.0] * 3
    assert not forked or len(pids) == 1


def test_a_run_started_while_another_thread_is_alive_does_not_fork(tmp_path, monkeypatch):
    pids = forced_fork(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        cfg = make_config(tmp_path, mode="learner-only", protocol="merkle", trials=4)
        cli.run_experiment(cfg)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert pids == []
    assert len(read_rows(Path(cfg.out_dir) / "trials_eps0.csv")) == 4


@pytest.mark.parametrize("error,code,err", [
    (ConfigError(["a b", "c"]), 2, "config error: a b\nconfig error: c\n"),
    (DomainError("trial out of its domain"), 1, "error: trial out of its domain\n"),
], ids=["config-error", "qromlab-error"])
def test_a_trial_error_in_a_worker_is_raised_in_the_parent(tmp_path, monkeypatch, capsys,
                                                           error, code, err):
    pids = forced_fork(monkeypatch)
    parent = os.getpid()
    real = cli._learner_trial

    def trial(p, cfg, eps, t):
        if os.getpid() != parent:
            raise error
        return real(p, cfg, eps, t)

    monkeypatch.setattr(cli, "_learner_trial", trial)
    cfg = make_config(tmp_path, mode="learner-only", protocol="merkle", trials=4)
    with pytest.raises(type(error)) as raised:
        cli.run_experiment(cfg)
    assert len(pids) == 1
    assert str(raised.value) == str(error)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg.to_json()))
    assert cli.main(["run", "--config", str(config)]) == code
    assert capsys.readouterr().err == err
    assert not (Path(cfg.out_dir) / "trials_eps0.csv").exists()


@pytest.mark.parametrize("end", ["killed", "unpicklable-rows"])
def test_a_worker_that_ends_without_a_result_names_its_trials(monkeypatch, end):
    forced_fork(monkeypatch)
    parent = os.getpid()

    def trial(t):
        if os.getpid() == parent:
            return t
        if end == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        return lambda: t  # pickle refuses a lambda

    with pytest.raises(QromlabError, match=r"trials \[1, 3\] ended without a result"):
        cli._run_trials(trial, 4)


def test_no_worker_outlives_a_run_whose_own_chunk_raises(monkeypatch):
    pids = forced_fork(monkeypatch, workers=3)
    parent = os.getpid()

    def trial(t):
        if os.getpid() == parent:
            raise DomainError("the parent's chunk failed")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(DomainError, match="the parent's chunk failed"):
        cli._run_trials(trial, 6)
    # the children were killed, not waited for, and are reaped
    assert time.monotonic() - started < 30
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_worker_count_reads_the_env(monkeypatch):
    monkeypatch.setenv("QROMLAB_THREADS", "5")
    assert cli.worker_count() == 5
    monkeypatch.setenv("QROMLAB_THREADS", "0")
    assert cli.worker_count() == 1
    monkeypatch.setenv("QROMLAB_THREADS", "many")
    with pytest.raises(ConfigError):
        cli.worker_count()


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("QROMLAB_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.worker_count() == 1


def test_a_config_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(ConfigError(["a b", "c"])))
    assert type(exc) is ConfigError
    assert exc.items == ["a b", "c"] and str(exc) == "a b; c"


def test_learner_only_mode_reports_query_counts(tmp_path):
    cfg = make_config(tmp_path, mode="learner-only", protocol="merkle", trials=6)
    summary = cli.run_experiment(cfg)
    rows = read_rows(Path(cfg.out_dir) / "trials_eps0.csv")
    assert list(rows[0]) == list(cli.LEARNER_COLUMNS)
    p = cfg.resolve_protocol()
    assert summary["mean_L"] <= p.query_budget / cfg.eps[0]
    assert summary["abort_rate"] == 0.0
    assert summary["max_residual_weight"] < cfg.eps[0]


def test_pcc_search_mode_with_no_queries_finds_nothing(tmp_path):
    cfg = ExperimentConfig.from_json({
        "mode": "pcc-search", "n": 4, "trials": 25, "seed": 5,
        "delta": 0.5, "d": 0, "out_dir": str(tmp_path / "out"),
    })
    summary = cli.run_experiment(cfg)
    assert summary["counterexamples_found"] == 0
    assert summary["goodstate_pairs"] == 25
    assert summary["min_margin"] == 1.0
    assert "hit_dump" not in summary


def test_oracle_equivalence_mode_confirms_the_purified_model(tmp_path):
    cfg = ExperimentConfig.from_json({
        "mode": "oracle-equivalence", "n": 3, "trials": 5, "seed": 2,
        "queries": 2, "out_dir": str(tmp_path / "out"),
    })
    summary = cli.run_experiment(cfg)
    assert summary["max_tv"] <= 1e-9
    rows = read_rows(Path(cfg.out_dir) / "trials.csv")
    assert list(rows[0]) == list(cli.EQUIV_COLUMNS)


def test_replay_matches_recorded_rows(tmp_path):
    cfg = make_config(tmp_path, trials=5)
    cli.run_experiment(cfg)
    report = cli.replay(3, cfg.out_dir)
    assert report["recorded"]["trial"] == "3"
    assert report["recomputed"]["k_E"] == int(report["recorded"]["k_E"])


def test_a_run_and_a_replay_build_the_protocol_once(tmp_path, monkeypatch):
    built = []
    build = zoo.BUILTINS["announced-query"]
    monkeypatch.setitem(zoo.BUILTINS, "announced-query",
                        lambda *a: built.append("announced-query") or build(*a))
    real = cli.Protocol.from_json
    monkeypatch.setattr(cli.Protocol, "from_json", lambda data: built.append("from_json")
                        or real(data))
    cfg = make_config(tmp_path, trials=2)
    cli.run_experiment(cfg)
    assert built == ["announced-query"]
    cli.replay(1, cfg.out_dir)
    # the summary's config carries the protocol's JSON, so replay reads that
    assert built == ["announced-query", "from_json"]


def test_runs_that_name_a_builtin_share_one_build(tmp_path, monkeypatch):
    built = []
    build = zoo.BUILTINS["announced-query"]
    monkeypatch.setitem(zoo.BUILTINS, "announced-query",
                        lambda n, g: built.append(n) or build(n, g))
    first = make_config(tmp_path / "a", trials=2)
    summary, again = cli.run_experiment(first), cli.run_experiment(first)
    summary.pop("wall_time"), again.pop("wall_time")
    assert again == summary
    cli.run_experiment(make_config(tmp_path / "b", trials=2, seed=9))
    assert built == [4]
    assert make_config(tmp_path, n=3).resolve_protocol() is not first.resolve_protocol()
    assert built == [4, 3]


def test_a_builtin_resolves_where_only_its_own_constructor_accepts_n(tmp_path, capsys):
    # announced-query refuses n=1; constant-key, which needs no oracle point, does not
    assert cli.main(["describe", "constant-key", "--n", "1"]) == 0
    assert "constant-key: domain size 1" in capsys.readouterr().out
    cfg = make_config(tmp_path, protocol="constant-key", n=1, trials=2)
    assert cfg.resolve_protocol().domain_size == 1
    assert cli.run_experiment(cfg)["success_rate"] == 1.0


@pytest.mark.parametrize("shadow", ["directory", "file"])
def test_a_builtin_name_means_the_builtin_whatever_the_working_directory_holds(
        tmp_path, monkeypatch, capsys, shadow):
    monkeypatch.chdir(tmp_path)
    if shadow == "directory":
        (tmp_path / "merkle").mkdir()
    else:
        (tmp_path / "merkle").write_text("not a protocol")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"mode": "learner-only", "protocol": "merkle", "n": 8, "trials": 2, "out_dir": "out"}))
    assert cli.main(["run", "--config", "cfg.json"]) == 0
    assert len(read_rows(tmp_path / "out" / "trials_eps0.csv")) == 2
    capsys.readouterr()
    assert cli.main(["describe", "merkle"]) == 0
    assert capsys.readouterr().out.startswith("merkle: domain size 4")
    with pytest.raises(ConfigError, match="unknown protocol 'merkel'; builtins: announced-query"):
        ExperimentConfig(mode="learner-only", protocol="merkel").resolve_protocol()


def test_only_attack_trials_split_bob_message_and_alice_lab(tmp_path, monkeypatch):
    calls = []
    for name in ("message_ensemble", "extract_alice_state"):
        real = getattr(protocol, name)
        for module in (protocol, attack):
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a), raising=False)
    monkeypatch.setenv("QROMLAB_THREADS", "1")
    for mode in ("learner-only", "attack"):
        calls.clear()
        cli.run_experiment(make_config(tmp_path / mode, mode=mode, protocol="merkle", n=8,
                                       trials=4))
        want = [] if mode == "learner-only" else ["message_ensemble", "extract_alice_state"] * 4
        assert calls == want, mode


def test_replay_notices_a_tampered_row(tmp_path):
    cfg = make_config(tmp_path, trials=4)
    cli.run_experiment(cfg)
    path = Path(cfg.out_dir) / "trials_eps0.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = "0.125"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayMismatchError, match="eq_find"):
        cli.replay(1, cfg.out_dir)
    assert cli.main(["replay", "1", cfg.out_dir]) == 1


def broken_announced():
    p = zoo.announced_query_protocol(4)
    flip = permutation_gate(np.array([1, 0]), ("M",))
    bob = p.rounds[1]
    rounds = (p.rounds[0], dataclasses.replace(bob, program=bob.program + (flip,)))
    return dataclasses.replace(p, name="announced-flipped", rounds=rounds)


def test_conjecture_relevant_trials_are_dumped_and_replayable(tmp_path):
    proto_path = tmp_path / "flipped.json"
    proto_path.write_text(json.dumps(broken_announced().to_json()))
    cfg = make_config(tmp_path, protocol=str(proto_path), trials=3)
    summary = cli.run_experiment(cfg)
    assert summary["conjecture_relevant_trials"] == [0, 1, 2]
    dump_path = Path(cfg.out_dir) / "dumps" / "trial0_eps0.json"
    assert dump_path.exists()

    report = cli.replay(0, cfg.out_dir)
    check = report["recomputed"]["dump_check"]
    assert check["compatible"]
    assert not check["contradicts_conjecture"]

    dump = json.loads(dump_path.read_text())
    dump["table"][0] = (dump["table"][0] + 1) % 2
    dump_path.write_text(json.dumps(dump, sort_keys=True))
    with pytest.raises(ReplayMismatchError, match="dump"):
        cli.replay(0, cfg.out_dir)


def test_guess_only_dumps_replay_through_main(tmp_path, capsys):
    proto_path = tmp_path / "flipped.json"
    proto_path.write_text(json.dumps(broken_announced().to_json()))
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "attack", "protocol": str(proto_path), "n": 4,
                                  "trials": 2, "seed": 11, "guess_only": True,
                                  "out_dir": str(out)}))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["dumped"] == ["trial0_eps0.json",
                                                             "trial1_eps0.json"]
    assert "simulated_state" in json.loads((out / "dumps" / "trial1_eps0.json").read_text())
    assert cli.main(["replay", "1", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recomputed"]["dump_check"]["compatible"]


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("simulated_state"),
    lambda d: d.pop("transcript"),
    lambda d: d.update(transcript="ab"),
    lambda d: d.update(delta="loose"),
    lambda d: d.update(d=None),
    lambda d: d.update(protocol=3),
    lambda d: d.update(table=[0, "x"]),
    lambda d: d["simulated_state"]["layout"].update(registers=[["T1", "x", "message"]]),
    lambda d: d.update(table=[0, 1.9, 1, 0]),
    lambda d: d.update(transcript=[1.5]),
    lambda d: d.update(transcript=[True]),
    lambda d: d.update(d=2.7),
    lambda d: d.update(d=True),
    lambda d: d.update(delta="0.5"),
    # the simulated state holds no live cell, H2 frozen at 1, and T1 frozen
    lambda d: d["simulated_state"]["fixed"].update(H3=5),
    lambda d: d["simulated_state"]["fixed"].update(H3=-1),
    lambda d: d["simulated_state"]["fixed"].update(H2=5),
    lambda d: d["simulated_state"]["fixed"].update(YA=0),
    lambda d: d["simulated_state"]["layout"]["registers"].__setitem__(-1, ["M", 2, "oracle"]),
    lambda d: d["simulated_state"]["layout"]["registers"].append(["H3", 2, "work"]),
    lambda d: d["simulated_state"]["layout"]["registers"].append(["H3", 3]),
    lambda d: d["simulated_state"]["layout"]["registers"].extend([["H3", 2], ["H0", 2]]),
    lambda d: d["simulated_state"]["layout"]["registers"].insert(0, ["H3", 2]),
    lambda d: d["simulated_state"]["layout"]["registers"].__setitem__(0, ["YA"]),
    lambda d: d["simulated_state"]["layout"]["registers"].__setitem__(0, ["YA", 2, "work", 0]),
], ids=["no-simulated_state", "no-transcript", "transcript-text", "delta-text", "d-null",
        "protocol-number", "table-text", "register-dim-text", "table-fraction",
        "transcript-fraction", "transcript-bool", "d-fraction", "d-bool", "delta-numeral",
        "untouched-cell-past-range", "untouched-cell-negative", "frozen-cell-past-range",
        "live-and-frozen", "kind-oracle-on-a-work-register", "kind-work-on-a-cell",
        "cell-dim-not-the-range", "cells-out-of-domain-order", "cell-before-work",
        "entry-of-one", "entry-of-four"])
def test_check_attack_dump_turns_a_damaged_dump_into_an_error(tmp_path, damage):
    proto_path = tmp_path / "flipped.json"
    proto_path.write_text(json.dumps(broken_announced().to_json()))
    cfg = make_config(tmp_path, protocol=str(proto_path), trials=1)
    cli.run_experiment(cfg)
    dump = json.loads((Path(cfg.out_dir) / "dumps" / "trial0_eps0.json").read_text())
    assert pcc.check_attack_dump(json.loads(json.dumps(dump)))["compatible"]
    damage(dump)
    with pytest.raises(QromlabError):
        pcc.check_attack_dump(dump)


def test_replay_rejects_a_directory_without_a_summary(tmp_path):
    with pytest.raises(QromlabError, match="summary.json"):
        cli.replay(0, tmp_path)


PCC_SUMMARY = json.dumps({"mode": "pcc-search", "config": {"mode": "pcc-search"}})
ATTACK_CONFIG = {"mode": "attack", "protocol": "announced-query"}


NOT_UTF8 = b"{\"mode\": \"attack\xff\"}"
DIRECTORY = object()  # a file's content: make a directory in its place


def put(path, content):
    """Write text or bytes at ``path``, or make a directory there for ``DIRECTORY``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def damaged(summary, hit=None, match="summary.json", id=None, files=None):
    """A replay case: summary.json content, the files beside it (optional pcc_hit.json
    content, or ``files`` by relative path) and the expected message."""
    files = files or ({} if hit is None else {"dumps/pcc_hit.json": hit})
    return pytest.param(summary, files, match, id=id or summary)


ATTACK_SWEEP = json.dumps({"mode": "attack", "config": ATTACK_CONFIG,
                           "sweeps": [{"eps": 0.05, "csv": "trials_eps0.csv"}]})


def damaged_state(name, error, amps=((0, 1.0),), dim=2, fixed=None, group=(2,), delta=0.5, d=2,
                  **edits):
    """A pcc-hit replay case whose state_a is a one-cell oracle state with these entries.

    ``edits`` set further layout fields; a field set to None is left out.
    """
    layout = {"registers": [["H0", dim, "oracle"]], "group": group and list(group),
              "domain_size": 1} | edits
    layout = {k: v for k, v in layout.items() if v is not None}
    state = {"layout": layout, "fixed": fixed or {},
             "amps": [{"basis_index": i, "re": re, "im": 0.0} for i, re in amps]}
    good = {"layout": {"registers": [["H0", 2, "oracle"]], "group": [2], "domain_size": 1},
            "amps": [{"basis_index": 0, "re": 1.0, "im": 0.0}]}
    hit = json.dumps({"state_a": state, "state_b": good, "delta": delta, "d": d,
                      "report_a": {}, "report_b": {}})
    return damaged(PCC_SUMMARY, hit, error, id=f"hit-state-{name}")


def mistyped_hit(delta, d, read_delta=1.0, read_d=2):
    """A pcc-hit replay case on the collapsed pair with a mistyped delta or d.

    The recorded reports are the ones the values the fields would be read
    as (``read_delta``, ``read_d``) give, so only the type check can refuse it.
    """
    phi, psi = pcc.collapsed_pair_fixture()
    reports = [pcc.is_goodstate(s, read_delta, read_d).to_json() for s in (phi, psi)]
    hit = json.dumps({"state_a": phi.dump(), "state_b": psi.dump(), "delta": delta, "d": d,
                      "report_a": reports[0], "report_b": reports[1]})
    return damaged(PCC_SUMMARY, hit, "pcc_hit.json", id=f"hit-delta-{delta!r}-d-{d!r}")


@pytest.mark.parametrize("summary,files,match", [
    damaged("{not json"),
    damaged(json.dumps({"config": {"mode": "attack"}})),
    damaged(json.dumps({"mode": "attack"})),
    damaged(json.dumps({"mode": "nope", "config": {"mode": "attack"}})),
    damaged(json.dumps([1, 2])),
    damaged(json.dumps({"mode": "attack", "config": ATTACK_CONFIG}), id="no-sweeps"),
    damaged(json.dumps({"mode": "attack", "config": ATTACK_CONFIG | {"n": "4"}}),
            match="n must be an integer", id="config-n-text"),
    damaged(json.dumps({"mode": "attack", "config": ATTACK_CONFIG, "sweeps": [{"eps": 0.05}]}),
            id="sweep-without-csv"),
    damaged(json.dumps({"mode": "attack", "config": ATTACK_CONFIG,
                        "sweeps": [{"csv": "trials_eps0.csv"}]}), id="sweep-without-eps"),
    damaged(PCC_SUMMARY, "{oops", "pcc_hit.json", id="hit-not-json"),
    damaged(PCC_SUMMARY, json.dumps({"state_b": {}, "delta": 0.5, "d": 2}), "pcc_hit.json",
            id="hit-without-state_a"),
    damaged(PCC_SUMMARY, json.dumps({"state_a": {"amps": []}, "state_b": {"amps": []},
                                     "delta": 0.5, "d": 2}), "pcc_hit.json",
            id="hit-state-without-layout"),
    damaged_state("negative-index", "DimensionMismatchError", amps=((-1, 0.6), (0, 0.8))),
    damaged_state("index-past-the-end", "DimensionMismatchError", amps=((2, 0.6), (0, 0.8))),
    damaged_state("repeated-index", "DimensionMismatchError", amps=((0, 0.6), (0, 0.8))),
    damaged_state("norm-0.61", "DimensionMismatchError", amps=((1, 0.6), (0, 0.1))),
    damaged_state("nan-amplitude", "DimensionMismatchError", amps=((0, float("nan")),)),
    damaged_state("dim-text", "LayoutError", dim="x"),
    damaged_state("dim-float", "LayoutError", dim=2.0),
    damaged_state("fixed-value-text", "LayoutError", fixed={"H1": "1"}),
    damaged_state("index-float", "LayoutError", amps=((0.0, 1.0),)),
    damaged_state("group-float", "LayoutError", group=(2.9,)),
    damaged_state("group-without-domain", "LayoutError", domain_size=None),
    damaged_state("domain-without-group", "LayoutError", group=None),
    damaged_state("cap-below-size", "CapacityError", amplitude_cap=1),
    damaged_state("without-oracle", "LayoutError", group=None, domain_size=None),
    damaged_state("on-another-oracle", "DomainError", dim=3, group=(3,)),
    damaged_state("frozen-cell-past-range", "LayoutError", domain_size=2, fixed={"H1": 2}),
    damaged_state("frozen-cell-negative", "LayoutError", domain_size=2, fixed={"H1": -1}),
    damaged_state("live-and-frozen", "LayoutError", fixed={"H0": 0}),
    damaged_state("kind-work-on-a-cell", "LayoutError", registers=[["H0", 2, "work"]]),
    damaged_state("kind-oracle-on-a-work-register", "LayoutError",
                  registers=[["w", 2, "oracle"]]),
    damaged_state("cell-dim-not-the-range", "LayoutError", dim=4),
    damaged_state("cells-out-of-domain-order", "LayoutError", domain_size=2,
                  registers=[["H1", 2], ["H0", 2]]),
    damaged_state("cell-before-work", "LayoutError", registers=[["H0", 2], ["w", 2]]),
    damaged_state("entry-of-one", "LayoutError", registers=[["H0"]]),
    damaged_state("entry-of-four", "LayoutError", registers=[["H0", 2, "oracle", 0]]),
    damaged_state("beside-delta-2", "DomainError", delta=2.0),
    damaged_state("beside-negative-d", "DomainError", d=-1),
    mistyped_hit(1.0, 2.7),
    mistyped_hit(1.0, "2"),
    mistyped_hit(1.0, True, read_d=1),
    mistyped_hit("1.0", 2),
    mistyped_hit(True, 2),
    damaged(DIRECTORY, id="summary-a-directory"),
    damaged(NOT_UTF8, id="summary-not-utf8"),
    damaged(PCC_SUMMARY, DIRECTORY, "pcc_hit.json", id="hit-a-directory"),
    damaged(ATTACK_SWEEP, match="trials_eps0.csv", files={"trials_eps0.csv": DIRECTORY},
            id="csv-a-directory"),
    damaged(ATTACK_SWEEP, match="trials_eps0.csv", files={"trials_eps0.csv": b"trial\n0\xff\n"},
            id="csv-not-utf8"),
    damaged(ATTACK_SWEEP, match="trial0_eps0.json", id="attack-dump-a-directory",
            files={"trials_eps0.csv": "trial\n0\n", "dumps/trial0_eps0.json": DIRECTORY}),
    damaged(ATTACK_SWEEP, match="trial0_eps0.json", id="attack-dump-not-utf8",
            files={"trials_eps0.csv": "trial\n0\n", "dumps/trial0_eps0.json": NOT_UTF8}),
])
def test_replay_rejects_a_damaged_summary(tmp_path, capsys, summary, files, match):
    put(tmp_path / "summary.json", summary)
    for name, content in files.items():
        put(tmp_path / name, content)
    with pytest.raises(ConfigError, match=match):
        cli.replay(0, tmp_path)
    assert cli.main(["replay", "0", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err


def tamper(path, row, column, value):
    """Overwrite one cell of a recorded CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row + 1][rows[0].index(column)] = value
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize("overrides,csv_name,column", [
    ({"mode": "learner-only", "protocol": "merkle"}, "trials_eps0.csv", "max_residual_weight"),
    ({"mode": "oracle-equivalence", "n": 2, "queries": 2}, "trials.csv", "tv_distance"),
])
def test_replay_notices_a_tampered_learner_or_equivalence_row(tmp_path, overrides, csv_name,
                                                              column):
    cfg = make_config(tmp_path, trials=3, **overrides)
    cli.run_experiment(cfg)
    report = cli.replay(1, cfg.out_dir)
    assert report["recomputed"][column] == pytest.approx(float(report["recorded"][column]))
    tamper(Path(cfg.out_dir) / csv_name, 1, column, "0.375")
    with pytest.raises(ReplayMismatchError, match=column):
        cli.replay(1, cfg.out_dir)


def edit_round(i, **fields):
    return lambda data: data["rounds"][i].update(fields)


def add_to_round(i, instr):
    return lambda data: data["rounds"][i]["program"].append(instr)


IDENTITY_3 = [[[float(r == c), 0.0] for c in range(3)] for r in range(3)]
STRETCH = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
NAN_DIAGONAL = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def without_queries(domain_size):
    """Drop every query and state ``domain_size``."""
    def edit(data):
        for program in [s["program"] for s in data["rounds"]] + [data["final_a"]["program"]]:
            program[:] = [i for i in program if i["op"] != "query"]
        data.pop("query_budget")
        data["domain_size"] = domain_size
    return edit


@pytest.mark.parametrize("edit,problem", [
    (edit_round(0, message_kind=3), "message_kind must be str"),
    (edit_round(0, message_kind="telepathy"), "unknown message kind"),
    (edit_round(1, party="C"), "unknown party 'C'"),
    (add_to_round(0, {"op": "unitary", "name": "hadamard", "targets": ["T1"]}),
     "hadamard acts on a single dim-2 register"),
    (add_to_round(0, {"op": "unitary", "name": "permutation", "targets": ["YA"],
                      "perm": [1, 1]}), "not a permutation"),
    (add_to_round(0, {"op": "unitary", "name": "matrix", "targets": ["YA"],
                      "matrix": IDENTITY_3}), "does not act on dimension 2"),
    (add_to_round(0, {"op": "unitary", "name": "matrix", "targets": ["YA"],
                      "matrix": STRETCH}), "deviates from unitarity"),
    (add_to_round(0, {"op": "unitary", "name": "matrix", "targets": ["YA"],
                      "matrix": NAN_DIAGONAL}), "deviates from unitarity by nan"),
    (without_queries(0), "oracle domain must have at least one point"),
])
def test_bad_round_or_gate_is_a_config_error(tmp_path, capsys, edit, problem):
    data = zoo.announced_query_protocol(4).to_json()
    edit(data)
    try:
        report = validate(Protocol.from_json(data))
    except (ProtocolShapeError, DomainError) as exc:
        assert problem in str(exc)
    else:
        assert any(problem in v for v in report.violations), report.violations
    proto_path = tmp_path / "bad.json"
    proto_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol": str(proto_path), "n": 4, "trials": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_gate_field_its_name_does_not_use_is_a_config_error(tmp_path, capsys):
    data = zoo.announced_query_protocol(4).to_json()
    fourier = data["rounds"][0]["program"][0]
    assert fourier["name"] == "fourier"
    fourier.update(perm=[1, 0, 3, 2], matrix=IDENTITY_3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol_json": data, "n": 4, "trials": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "a 'fourier' gate takes no matrix" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def set_key(key, value):
    return lambda data: data.update({key: value})


@pytest.mark.parametrize("name,edit,stated", [
    ("announced-query", set_key("query_budget", 2), "query_budget 2"),
    ("merkle", set_key("alice_no_final_query", False), "alice_no_final_query False"),
    ("announced-query", edit_round(0, message_kind="quantum"), "round 0 message_kind 'quantum'"),
    ("merkle", edit_round(2, message_kind="classical"), "round 2 message_kind 'classical'"),
])
def test_a_stated_value_the_programs_contradict_is_a_config_error(tmp_path, capsys, name, edit,
                                                                  stated):
    data = zoo.standard_zoo(4)[name].to_json()
    edit(data)
    with pytest.raises(ProtocolShapeError, match=f"states {stated}; its programs give"):
        Protocol.from_json(data)
    proto_path = tmp_path / "stated.json"
    proto_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol": str(proto_path), "n": 4, "trials": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert stated in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_describe_survives_an_unknown_party(tmp_path, capsys):
    data = zoo.announced_query_protocol(4).to_json()
    data["rounds"][1]["party"] = "C"
    proto_path = tmp_path / "party_c.json"
    proto_path.write_text(json.dumps(data))
    assert cli.main(["describe", str(proto_path)]) == 0
    out = capsys.readouterr().out
    assert "round 2: party C" in out
    assert "violation: round 1: unknown party 'C'" in out


@pytest.mark.parametrize("args,problem", [
    (["--group", "a"], "config error: --group"),
    (["--n", "1"], "config error: protocol does not resolve: puzzle count must be between 2 "
                   "and the domain size"),
    (["--n", "0"], "config error: protocol does not resolve: puzzle count must be between 2 "
                   "and the domain size"),
    (["--group", "1"], "config error: protocol does not resolve: cyclic moduli"),
], ids=["group-a", "n-1", "n-0", "group-1"])
def test_describe_with_a_mistyped_group_is_a_config_error(capsys, args, problem):
    assert cli.main(["describe", "merkle", *args]) == 2
    assert problem in capsys.readouterr().err


def test_describe_flags_the_model_standing():
    text = cli.describe("announced-query", n=4)
    assert "active attack applies" in text
    assert "query budget d = 1" in text
    trivial = cli.describe("trivial-last-message", n=4)
    assert "outside the attack's hypothesis" in trivial
    qpke = cli.describe("ka-from-toy-qpke", n=4)
    assert "reduction shape" in qpke


def test_main_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol": "announced-query", "n": 4,
        "trials": 2, "seed": 0, "eps": 0.05, "lam": 0.05,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["success_rate"] == 1.0
    assert (tmp_path / "out" / "summary.json").exists()

    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "attack", "protocol": "nope", "trials": -1}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "trials" in err and "nope" in err

    assert cli.main(["describe", "announced-query", "--n", "4"]) == 0
    assert cli.main(["replay", "0", str(tmp_path / "void")]) == 2

    # unreadable files: a directory, bytes that are not UTF-8, text that is not JSON
    unreadable = {"dir": DIRECTORY, "bytes.json": NOT_UTF8, "text.json": "{oops"}
    for name, content in unreadable.items():
        put(tmp_path / "unreadable" / name, content)
    for name in ("dir", "bytes.json"):
        capsys.readouterr()
        assert cli.main(["run", "--config", str(tmp_path / "unreadable" / name)]) == 2
        assert f"config error: {tmp_path / 'unreadable' / name}" in capsys.readouterr().err
    for name in unreadable:
        path = str(tmp_path / "unreadable" / name)
        cfg_path.write_text(json.dumps({"mode": "attack", "protocol": path, "trials": 1,
                                        "out_dir": str(tmp_path / "out2")}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert cli.main(["describe", path]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: protocol does not resolve: {path}") == 2
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("key,value", [
    ("n", "8"), ("d", "2"), ("queries", "3"), ("lam", "0.05"), ("delta", "0.1"),
    ("cap", "4"), ("group", ["2"]), ("group", 2), ("trials", 2.0), ("eps", ["0.05"]),
    ("guess_only", "no"),
])
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, key, value):
    raw = {
        "mode": "learner-only", "protocol": "announced-query", "n": 4,
        "trials": 2, "seed": 0, "eps": 0.05, "lam": 0.05,
        "out_dir": str(tmp_path / "out"),
    }
    raw[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [0, 1])
def test_a_register_below_dimension_2_is_a_config_error(tmp_path, capsys, dim):
    data = zoo.announced_query_protocol(4).to_json()
    data["registers"].append(["Z", dim, "A"])
    with pytest.raises(ProtocolShapeError, match="register 'Z' needs dimension >= 2"):
        Protocol.from_json(data)
    proto_path = tmp_path / "dim.json"
    proto_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol": str(proto_path), "n": 4, "trials": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert cli.main(["describe", str(proto_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("protocol does not resolve: register 'Z' needs dimension >= 2") == 2
    assert not (tmp_path / "out").exists()


def test_malformed_protocol_file_is_a_config_error(tmp_path, capsys):
    data = zoo.announced_query_protocol(4).to_json()
    del data["group"]
    proto_path = tmp_path / "broken.json"
    proto_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "attack", "protocol": str(proto_path), "n": 4, "trials": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "protocol JSON lacks the key 'group'" in capsys.readouterr().err


def test_out_override_beats_the_configured_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "oracle-equivalence", "n": 2, "trials": 2, "seed": 1,
        "queries": 1, "out_dir": str(tmp_path / "ignored"),
    }))
    other = tmp_path / "actual"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(other)]) == 0
    capsys.readouterr()
    assert (other / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_a_protocol_json_group_of_text_is_a_config_error(tmp_path, capsys):
    data = zoo.announced_query_protocol(4).to_json()
    data["group"] = ["2"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "attack", "protocol_json": data, "trials": 1,
                                    "out_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "group factor must be int" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_protocol_json_that_rewrites_a_sent_symbol_is_a_config_error(tmp_path, capsys):
    data = zoo.announced_query_protocol(4).to_json()
    data["rounds"][1]["program"].insert(0, {"op": "unitary", "name": "fourier",
                                            "targets": ["T1"]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "attack", "protocol_json": data, "trials": 1,
                                    "out_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "changes an announced register" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
