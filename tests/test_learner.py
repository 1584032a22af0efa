"""Learner behavior on hand-analyzable states and the shipped protocols."""

import dataclasses

import numpy as np
import pytest

from qromlab import learner, zoo
from qromlab.algebra import cyclic
from qromlab.errors import DomainError, ZeroProbabilityError
from qromlab.learner import LearnerOutcome, find_heavy, learn
from qromlab.oracle import OracleSpec, init_purified, oracle_query
from qromlab.qstate import Register

Z2 = cyclic(2)


def state_with_two_heavy_cells():
    """Cell 2 at weight exactly 1/2, cell 5 at weight 1."""
    spec = OracleSpec(6, Z2)
    regs = [Register("y1", 2), Register("y2", 2)]
    state = init_purified(spec, regs)
    state = oracle_query(state, "y1", x_const=2)
    # put y2 into the shift-by-1 eigenstate before querying cell 5
    state = state.permute_basis(np.array([1, 0]), ["y2"])
    state = state.apply_unitary(Z2.fourier_matrix, ["y2"])
    state = oracle_query(state, "y2", x_const=5)
    return state


def test_find_heavy_takes_smallest_then_respects_exclude():
    state = state_with_two_heavy_cells()
    assert find_heavy(state, 0.4) == 2
    assert find_heavy(state, 0.4, exclude={2}) == 5
    assert find_heavy(state, 0.9) == 5
    assert find_heavy(state, 0.4, exclude={2, 5}) is None


def test_find_heavy_on_fresh_oracle_is_none():
    spec = OracleSpec(4, Z2)
    state = init_purified(spec, [Register("y", 2)])
    assert find_heavy(state, 0.01) is None
    with pytest.raises(DomainError):
        find_heavy(state, 0.0)


def test_learn_announced_query_gets_the_announced_point():
    p = zoo.announced_query_protocol(4, Z2)
    table = (1, 0, 1, 1)
    out = learn(p, (3,), 0.1, table)
    assert out.learned.pairs == ((3, 1),)
    assert out.queries_made == 1
    assert not out.aborted
    assert out.max_residual_weight < 0.1
    assert out.simulated_state.fixed == {"H3": 1, "T1": 3}


def test_learn_merkle_gets_both_puzzles_in_order():
    p = zoo.merkle_ka_protocol(4, Z2, puzzle_count=2)
    table = (0, 1, 0, 0)
    out = learn(p, (1, 0), 0.05, table)
    assert out.learned.domain == (0, 1)
    assert out.learned.value(0) == 0
    assert out.learned.value(1) == 1
    assert out.max_residual_weight < 0.05


def test_learn_without_oracle_use_learns_nothing():
    p = zoo.constant_key_protocol()
    out = learn(p, (), 0.1, (0, 0))
    assert len(out.learned) == 0
    assert out.queries_made == 0
    assert not out.aborted
    assert out.max_residual_weight == 0.0


def test_learn_is_deterministic():
    p = zoo.announced_query_protocol(4, Z2)
    table = (0, 1, 1, 0)
    a = learn(p, (2,), 0.05, table)
    b = learn(p, (2,), 0.05, table)
    assert a.learned.pairs == b.learned.pairs
    assert np.array_equal(a.simulated_state.amps, b.simulated_state.amps)


def test_learn_cap_aborts_with_residual_heavy_point():
    # every address keeps weight about 1/8 >= 0.1 here, so the cap bites
    p = zoo.trivial_last_message_protocol(4, Z2)
    table = (0, 1, 1, 0)
    out = learn(p, (), 0.1, table, cap=2)
    assert out.aborted
    assert out.queries_made == 2
    assert out.max_residual_weight >= 0.1

    done = learn(p, (), 0.1, table)
    assert not done.aborted
    assert done.queries_made == 4
    assert done.max_residual_weight == 0.0


@pytest.mark.parametrize("cap", [None, 2])
def test_learn_makes_one_weight_pass_per_state(monkeypatch, cap):
    """The conditioned state and each projection get one all_weights call.

    The last one also gives the residual, so a run that learns k points
    makes k + 1 passes, aborted at the cap or not.
    """
    calls = []
    real = learner.all_weights

    def counting(state):
        calls.append(1)
        return real(state)

    monkeypatch.setattr(learner, "all_weights", counting)
    p = zoo.trivial_last_message_protocol(4, Z2)
    out = learn(p, (), 0.1, (0, 1, 1, 0), cap=cap)
    assert out.aborted == (cap is not None)
    assert out.queries_made == (4 if cap is None else cap)
    assert len(calls) == out.queries_made + 1


def test_learn_efficiency_and_security_small_sweep():
    p = zoo.announced_query_protocol(4, Z2)
    eps = 0.05
    rng = np.random.default_rng(20)
    sizes = []
    for _ in range(50):
        table = tuple(int(v) for v in rng.integers(0, 2, size=4))
        t = (int(rng.integers(0, 4)),)
        out = learn(p, t, eps, table, cap=400)
        assert not out.aborted
        assert out.max_residual_weight < eps
        assert all(table[x] == y for x, y in out.learned.pairs)
        sizes.append(out.queries_made)
    assert np.mean(sizes) <= p.query_budget / eps


def test_learn_outcome_serializes():
    p = zoo.announced_query_protocol(4, Z2)
    out = learn(p, (0,), 0.1, (1, 1, 0, 0))
    assert out.learned.to_json() == [[0, 1]]
    assert out.queries_made == 1
    assert out.aborted is False
    assert isinstance(out, LearnerOutcome)


def test_learn_input_validation():
    p = zoo.announced_query_protocol(4, Z2)
    with pytest.raises(DomainError):
        learn(p, (0,), 0.0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        learn(p, (0,), 1.0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        learn(p, (0,), 0.1, (0, 0))
    with pytest.raises(DomainError):
        learn(p, (0,), 0.1, (0, 0, 0, 0), cap=0)

    # drop the fourier prep so the address register is stuck at 0
    stuck_round = dataclasses.replace(p.rounds[0], program=(p.rounds[0].program[1],))
    stuck = dataclasses.replace(p, rounds=(stuck_round, p.rounds[1]))
    with pytest.raises(ZeroProbabilityError):
        learn(stuck, (1,), 0.1, (0, 0, 0, 0))
