"""Attack pipeline: hand-computable repair cases, full runs on the zoo."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qromlab import attack as atk
from qromlab import zoo
from qromlab.algebra import cyclic
from qromlab.errors import DomainError, UnsupportedProtocolError
from qromlab.learner import LearnerOutcome, learn
from qromlab.oracle import PartialOracle
from qromlab.protocol import (
    EnsembleComponent,
    Protocol,
    ProtocolRegister,
    Step,
    deliver,
    function_permutation,
    permutation_gate,
    run_concrete,
    validate,
)
from qromlab.qstate import QuantumState, Register, RegisterLayout

Z2 = cyclic(2)


def micro_protocol():
    """No oracle at all; the final map is one three-register permutation.

    The permutation adds M*E0 into the key register, so the key guess
    partially collapses the message and the repaired message comes out
    genuinely mixed.  Small enough to check against pencil and paper.
    """
    perm = function_permutation((2, 2, 3), lambda m, e, ka: (m, e, (ka + m * e) % 3))
    regs = (
        ProtocolRegister("E0", 2, "A"),
        ProtocolRegister("KA", 3, "A"),
        ProtocolRegister("KB", 2, "B"),
        ProtocolRegister("M", 2, "M"),
    )
    return Protocol(
        name="micro",
        group=Z2,
        domain_size=2,
        registers=regs,
        rounds=(
            Step("A", ()),
            Step("B", (), message="M"),
        ),
        final_a_program=(permutation_gate(perm, ("M", "E0", "KA")),),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def micro_sim_state():
    p = micro_protocol()
    layout = RegisterLayout(
        [Register("E0", 2), Register("KA", 3), Register("KB", 2), Register("M", 2)]
    )
    vec = np.zeros(24, dtype=np.complex128)
    # E0 in the plus state, everything else at zero
    vec[0] = 1 / math.sqrt(2)
    vec[12] = 1 / math.sqrt(2)
    state = QuantumState.from_vector(layout, vec)
    return p, LearnerOutcome(state, PartialOracle(()), 0, False, 0.0)


def random_table(rng, n):
    return tuple(int(v) for v in rng.integers(0, 2, size=n))


def test_eve_message_matches_hand_computation():
    p, sim = micro_sim_state()
    plus = np.array([1, 1]) / math.sqrt(2)
    dist, final = deliver(p, sim.simulated_state, plus)
    k_E = int(np.argmax(dist[:2]))
    # KA ends up at m*e over four equal branches: three of them give 0
    assert k_E == 0
    eq_simulatedm, rho, _ = atk._repair(p, [EnsembleComponent(1.0, plus, ())], [final], [dist],
                                        k_E)
    expected = np.array([[2, 1], [1, 1]]) / 3
    assert np.abs(rho.matrix - expected).max() < 1e-12
    assert rho.overlap(plus) == pytest.approx(5 / 6)
    assert eq_simulatedm == pytest.approx(5 / 6)


def test_full_attack_refuses_querying_final_map():
    p = zoo.trivial_last_message_protocol(2)
    with pytest.raises(UnsupportedProtocolError):
        atk.full_attack(p, 0.25, 0.05, (0, 1), seed=0)


@pytest.mark.parametrize("eps", [0, 0.0, 1, -0.1])
def test_a_threshold_outside_the_open_interval_is_a_domain_error(eps):
    p = zoo.announced_query_protocol(4)
    with pytest.raises(DomainError, match="threshold"):
        atk.full_attack(p, eps, 0.05, (0, 1, 1, 0), seed=0)
    with pytest.raises(DomainError, match="threshold"):
        atk.ind_cpa_game(zoo.toy_qpke(4, Z2), 2, eps, 0.05, 0)


def test_full_attack_on_announced_all_tables():
    p = zoo.announced_query_protocol(4)
    for table in itertools.product(range(2), repeat=4):
        out = atk.full_attack(p, 0.05, 0.05, table, seed=3)
        assert out.success
        assert out.l_size == 1
        assert not out.aborted
        assert out.components_agree
        assert not out.conjecture_relevant
        assert out.eq_find == pytest.approx(1.0, abs=1e-9)
        assert out.eq_simulatedm == pytest.approx(1.0, abs=1e-9)
        assert out.eq_agrees == pytest.approx(1.0, abs=1e-9)


def test_full_attack_on_merkle_all_tables():
    p = zoo.merkle_ka_protocol(4)
    for table in itertools.product(range(2), repeat=4):
        out = atk.full_attack(p, 0.05, 0.05, table, seed=5)
        assert out.success
        assert out.l_size == 2
        assert out.eq_find == pytest.approx(1.0, abs=1e-9)
        assert out.eq_agrees == pytest.approx(1.0, abs=1e-9)


def test_full_attack_on_qpke_all_tables():
    p = zoo.ka_from_qpke(zoo.toy_qpke(4))
    for table in itertools.product(range(2), repeat=4):
        out = atk.full_attack(p, 0.05, 0.05, table, seed=1)
        assert out.success
        assert out.k_E == out.k_B


def test_constant_key_attack_is_exact():
    out = atk.full_attack(zoo.constant_key_protocol(), 0.05, 0.05, (0, 0), seed=0)
    assert (out.k_E, out.k_A, out.k_B) == (0, 0, 0)
    assert out.l_size == 0
    assert out.eq_find == out.eq_simulatedm == out.eq_agrees == 1.0


def test_forced_oracle_on_trivial_guesses_blind():
    # at this threshold no cell is heavy (each sits at 1/16), so Eve's
    # simulated oracle is fresh and her key distribution is exactly uniform
    p = zoo.trivial_last_message_protocol(8)
    rng = np.random.default_rng(9)
    outs = [
        atk.full_attack(p, 0.25, 0.05, random_table(rng, 8), seed=int(rng.integers(2**31)),
                        guess_only=True, force_simulated_oracle=True)
        for _ in range(40)
    ]
    assert all(o.l_size == 0 for o in outs)
    assert all(o.k_E == 0 for o in outs)  # argmax breaks the 50/50 tie low
    assert all(o.eq_find == pytest.approx(0.5, abs=1e-9) for o in outs)
    assert all(math.isnan(o.eq_simulatedm) and math.isnan(o.eq_agrees) for o in outs)
    assert all(o.k_A is None and not o.conjecture_relevant for o in outs)
    matches = sum(o.key_match for o in outs)
    assert 8 <= matches <= 32  # binomial(40, 1/2) within ~4 sigma
    blob = json.dumps(outs[0].to_json())
    assert '"eq_simulatedm": null' in blob


def test_forced_oracle_with_learned_cells_wins():
    # at a low threshold the learner pins every cell, so the forced
    # queries against the simulated oracle behave like the real one
    p = zoo.trivial_last_message_protocol(4)
    rng = np.random.default_rng(17)
    for _ in range(10):
        table = random_table(rng, 4)
        out = atk.full_attack(p, 0.05, 0.05, table, seed=int(rng.integers(2**31)),
                              force_simulated_oracle=True)
        assert out.l_size == 4
        assert out.success
        assert out.eq_find == pytest.approx(1.0, abs=1e-9)
        assert out.eq_simulatedm == pytest.approx(1.0, abs=1e-9)


def test_learner_abort_is_reported():
    p = zoo.trivial_last_message_protocol(4)
    out = atk.full_attack(p, 0.1, 0.05, (0, 1, 1, 0), seed=2, cap=2,
                          force_simulated_oracle=True)
    assert out.aborted
    assert out.l_size == 2
    assert not out.success


def broken_announced():
    """Bob flips the message bit, so honest runs never agree."""
    p = zoo.announced_query_protocol(4)
    flip = permutation_gate(np.array([1, 0]), ("M",))
    bob = p.rounds[1]
    rounds = (p.rounds[0], dataclasses.replace(bob, program=bob.program + (flip,)))
    return dataclasses.replace(p, name="announced-flipped", rounds=rounds)


def test_dead_projection_marks_run_conjecture_relevant():
    p = broken_announced()
    assert not validate(p).violations
    out = atk.full_attack(p, 0.05, 0.05, (1, 0, 0, 1), seed=4)
    # Eve's simulated compare sees the flipped bit and lands on bottom,
    # so both key values have zero mass and the repair falls back to noise
    assert out.eq_find == pytest.approx(0.0, abs=1e-9)
    assert out.eq_simulatedm == pytest.approx(0.0, abs=1e-9)
    assert out.conjecture_relevant
    assert not out.success


def test_check_inequalities_on_kept_states():
    for p in (zoo.announced_query_protocol(4), zoo.merkle_ka_protocol(4)):
        out = atk.full_attack(p, 0.05, 0.05, (1, 1, 0, 1), seed=8, keep_states=True)
        rep = atk.check_inequalities(p, out)
        assert rep["matches_recorded"]
        assert rep["h_weight_drift"] <= 1e-10
        assert rep["support_preserved"]
        assert rep["uncompute_order_gap"] <= 1e-10
        assert rep["rho_gap"] <= 1e-10
        # every repaired component overlaps at least as well as the mix agrees
        assert rep["eq_agrees"] >= rep["eq_simulatedm"] - 1e-9


def test_check_inequalities_needs_kept_states():
    p = zoo.announced_query_protocol(4)
    out = atk.full_attack(p, 0.05, 0.05, (1, 1, 0, 1), seed=8)
    with pytest.raises(DomainError):
        atk.check_inequalities(p, out)


def test_ind_cpa_game_wins_and_refuses_querying_dec():
    res = atk.ind_cpa_game(zoo.toy_qpke(4), trials=40, eps=0.05, lam=0.05, seed=13)
    assert res["wins"] == 40
    assert res["win_rate"] == 1.0
    with pytest.raises(UnsupportedProtocolError):
        atk.ind_cpa_game(zoo.toy_qpke(4, querying_dec=True), trials=5, eps=0.05,
                         lam=0.05, seed=0)


def test_attack_is_deterministic_given_seed():
    p = zoo.merkle_ka_protocol(4)
    a = atk.full_attack(p, 0.05, 0.05, (0, 1, 1, 0), seed=21)
    b = atk.full_attack(p, 0.05, 0.05, (0, 1, 1, 0), seed=21)
    assert a.to_json() == b.to_json()
    assert a.transcript == b.transcript


def test_trial_rng_streams_are_stable_and_distinct():
    a = atk.trial_rng(7, 3).integers(0, 1000, size=5)
    b = atk.trial_rng(7, 3).integers(0, 1000, size=5)
    c = atk.trial_rng(7, 4).integers(0, 1000, size=5)
    assert (a == b).all()
    assert (a != c).any()


def test_parameter_validation():
    p = zoo.announced_query_protocol(4)
    with pytest.raises(DomainError):
        atk.full_attack(p, 0.05, 0.0, (0, 0, 0, 0), seed=0)
    with pytest.raises(DomainError):
        atk.full_attack(p, 1.5, 0.05, (0, 0, 0, 0), seed=0)
    with pytest.raises(DomainError):
        atk.ind_cpa_game(zoo.toy_qpke(2), trials=0, eps=0.05, lam=0.05, seed=0)


@pytest.mark.parametrize("table", [(1.5, 0, 1, 0), (1.0, 0, 1, 0), (True, 0, 1, 0), (2, 0, 1, 0),
                                   (-1, 0, 1, 0), (1, 0, 1), (1, 0, 1, 0, 1)],
                         ids=["fractional", "float", "bool", "out-of-range", "negative", "short",
                              "long"])
def test_a_bad_table_is_a_domain_error_before_any_coercion(table):
    p = zoo.merkle_ka_protocol(4, Z2, puzzle_count=2)
    runs = {
        "full_attack": lambda: atk.full_attack(p, 0.05, 0.05, table, seed=0),
        "learn": lambda: learn(p, (1, 0), 0.05, table),
        "run_concrete": lambda: run_concrete(p, table, seed=0),
    }
    for name, run in runs.items():
        with pytest.raises(DomainError, match="oracle table"):
            run()
            pytest.fail(f"{name} accepted the table {table}")


def test_numpy_integer_tables_are_recorded_as_python_ints():
    p = zoo.merkle_ka_protocol(4, Z2, puzzle_count=2)
    out = atk.full_attack(p, 0.05, 0.05, np.array([1, 0, 1, 0]), seed=0, guess_only=True)
    assert out.table == (1, 0, 1, 0)
    assert all(type(v) is int for v in out.table)
    assert learn(p, out.transcript, 0.05, np.array([1, 0, 1, 0])).learned == out.learner.learned
