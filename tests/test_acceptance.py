"""Acceptance gate: one verdict line per shipped guarantee.

Each test exercises one end-to-end claim at the scale it is stated for
and prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers, so a plain pytest run doubles as the acceptance report.
"""

import math
import time

import numpy as np

from qromlab import pcc, zoo
from qromlab import protocol as proto
from qromlab.algebra import cyclic
from qromlab.attack import full_attack, ind_cpa_game, trial_rng
from qromlab.circuits import (
    averaged_fixed_distribution,
    random_ops,
    run_purified,
    total_variation,
    work_distribution,
)
from qromlab.learner import learn
from qromlab.oracle import (
    OracleSpec,
    PartialOracle,
    computational_support,
    fourier_support_size,
    project_partial,
)
from qromlab.zoo import toy_qpke

Z2 = cyclic(2)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_table(rng, domain_size: int) -> tuple:
    return tuple(int(v) for v in rng.integers(0, 2, size=domain_size))


def test_criterion_1_purified_oracle_matches_averaged_fixed_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        spec = OracleSpec(2 + i % 3, Z2)
        ops = random_ops(spec, rng, queries=i % 4)
        tv = total_variation(
            work_distribution(run_purified(spec, ops)),
            averaged_fixed_distribution(spec, ops),
        )
        worst = max(worst, tv)
    elapsed = time.perf_counter() - start
    verdict(1, worst <= 1e-9 and elapsed < 60,
            f"max tv {worst:.2e} over 100 circuits, {elapsed:.1f}s")


def test_criterion_2_fourier_support_stays_query_sparse():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_slack = 0
    grew = 0
    for i in range(500):
        spec = OracleSpec(2 + i % 3, Z2)
        queries = i % 4
        state = run_purified(spec, random_ops(spec, rng, queries=queries))
        before = fourier_support_size(state)
        worst_slack = max(worst_slack, before - queries)
        table = sorted(computational_support(state))[0]
        x = int(rng.integers(0, spec.domain_size))
        projected, prob = project_partial(state, PartialOracle(((x, table[x]),)))
        assert prob > 0
        if fourier_support_size(projected) > before:
            grew += 1
    elapsed = time.perf_counter() - start
    verdict(2, worst_slack <= 0 and grew == 0 and elapsed < 60,
            f"support - queries <= {worst_slack} on 500 circuits, "
            f"{grew} grew under projection, {elapsed:.1f}s")


def test_criterion_3_parties_are_independent_given_transcript_and_table():
    worst = 0.0
    branches = 0
    for name, p in zoo.standard_zoo(4, Z2).items():
        alice = p.regs_with_role("A")
        for table in p.oracle.all_tables():
            for branch in proto.enumerate_branches(p, table=table):
                sv = branch.state.schmidt_spectrum(alice)
                second = 0.0 if len(sv) < 2 else float(sv[1])
                worst = max(worst, second)
                branches += 1
    verdict(3, worst <= 1e-9,
            f"max second singular value {worst:.2e} "
            f"across {branches} (transcript, table) branches of 5 protocols")


def test_criterion_4_learner_is_efficient_and_leaves_no_heavy_point():
    eps = lam = 0.05
    ok = True
    parts = []
    for offset, name in enumerate(("announced-query", "merkle")):
        p = zoo.standard_zoo(4, Z2)[name]
        cap = math.ceil(p.query_budget / (lam * eps))
        sizes = []
        aborts = 0
        worst_residual = 0.0
        for t in range(200):
            rng = trial_rng(404 + offset, t)
            table = random_table(rng, p.domain_size)
            run = proto.run_concrete(p, table, seed=rng)
            res = learn(p, run.transcript, eps, table, cap=cap)
            sizes.append(res.queries_made)
            if res.aborted:
                aborts += 1
            else:
                worst_residual = max(worst_residual, res.max_residual_weight)
        mean_l = sum(sizes) / len(sizes)
        sigma = math.sqrt(lam * (1 - lam) / 200)
        ok = (ok and mean_l <= p.query_budget / eps
              and worst_residual < eps
              and aborts / 200 <= lam + 3 * sigma)
        parts.append(f"{name}: mean|L| {mean_l:.2f} of {p.query_budget / eps:.0f} allowed, "
                     f"residual {worst_residual:.3f}, aborts {aborts}/200")
    verdict(4, ok, "; ".join(parts))


def test_criterion_5_attack_recovers_the_key_at_the_promised_rate():
    eps = lam = 0.05
    trials = 1000
    start = time.perf_counter()
    sigma = math.sqrt(lam * (1 - lam) / trials)
    floor = 1 - lam - 3 * sigma
    z = zoo.standard_zoo(8, Z2)
    ok = True
    parts = []
    for offset, name in enumerate(("announced-query", "merkle", "ka-from-toy-qpke")):
        p = z[name]
        cap = math.ceil(p.query_budget / (lam * eps))
        wins = 0
        max_queries = 0
        min_eq = [math.inf, math.inf, math.inf]
        for t in range(trials):
            rng = trial_rng(505 + offset, t)
            table = random_table(rng, p.domain_size)
            out = full_attack(p, eps, lam, table, seed=rng)
            wins += out.success
            max_queries = max(max_queries, out.l_size)
            min_eq = [min(min_eq[0], out.eq_find),
                      min(min_eq[1], out.eq_simulatedm),
                      min(min_eq[2], out.eq_agrees)]
        rate = wins / trials
        ok = (ok and rate >= floor
              and min(min_eq) >= 1 - lam
              and max_queries <= cap)
        parts.append(f"{name}: rate {rate:.3f}, min eq {min(min_eq):.3f}, "
                     f"queries <= {max_queries}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    verdict(5, ok, f"floor {floor:.3f}; " + "; ".join(parts) + f"; {elapsed:.0f}s")


def test_criterion_6_forced_simulation_is_blind_when_alice_queries_last():
    # eps = 0.25 keeps every cell below the heaviness threshold (each
    # carries 1/16), so the forced simulated oracle is completely fresh
    p = zoo.standard_zoo(8, Z2)["trivial-last-message"]
    trials = 1000
    start = time.perf_counter()
    matches = 0
    for t in range(trials):
        rng = trial_rng(606, t)
        table = random_table(rng, p.domain_size)
        out = full_attack(p, 0.25, 0.05, table, seed=rng,
                          guess_only=True, force_simulated_oracle=True)
        assert out.l_size == 0
        matches += out.key_match
    rate = matches / trials
    sigma = math.sqrt(0.25 / trials)
    elapsed = time.perf_counter() - start
    verdict(6, abs(rate - 0.5) <= 3 * sigma,
            f"key-match rate {rate:.3f}, allowed 0.5 +/- {3 * sigma:.3f}, {elapsed:.0f}s")


def test_criterion_7_goodstates_stay_compatible_and_the_fixture_does_not():
    start = time.perf_counter()
    spec = OracleSpec(4, Z2)
    res = pcc.search_counterexample(spec, delta=0.1, d=2, trials=10_000, seed=707)
    phi, psi = pcc.collapsed_pair_fixture()
    fixture_incompatible = not pcc.compatible(phi, psi)
    fixture_good = (pcc.is_goodstate(phi, 1.0, 1).good
                    and pcc.is_goodstate(psi, 1.0, 1).good)
    elapsed = time.perf_counter() - start
    ok = (res.hit is None and fixture_incompatible and fixture_good
          and elapsed < 600)
    verdict(7, ok,
            f"0 incompatible pairs in {res.trials} trials "
            f"({res.goodstate_pairs} goodstate pairs, min margin {res.min_margin:.3f}); "
            f"collapsed fixture flagged at delta=1; {elapsed:.0f}s")


def test_criterion_8_eve_wins_the_ind_cpa_game():
    game = ind_cpa_game(toy_qpke(4), trials=1000, eps=0.05, lam=0.05, seed=808)
    verdict(8, game["win_rate"] >= 0.9,
            f"win rate {game['win_rate']:.3f} over {game['trials']} trials")
