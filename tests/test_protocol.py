"""Protocol engine tests on a tiny hand-checkable two-round exchange.

The fixture protocol: Alice picks an address in superposition, queries
it, and announces it; Bob queries the same address, keeps the answer as
his key, and sends Alice a copy.  Alice compares the copy against her
own answer.  Keys always agree and every ingredient (branch
probabilities, ensembles, final map) can be checked by hand.
"""

import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import attack as atk
from qromlab import circuits, cli, oracle, zoo
from qromlab import protocol as proto
from qromlab.algebra import GroupSpec, cyclic
from qromlab.errors import (
    DimensionMismatchError,
    DomainError,
    ProtocolShapeError,
    QromlabError,
    UnsupportedProtocolError,
    ZeroProbabilityError,
)
from qromlab.learner import learn
from qromlab.oracle import OracleSpec, init_purified, init_table
from qromlab.qstate import (
    DEFAULT_AMPLITUDE_CAP,
    QuantumState,
    Register,
    RegisterLayout,
)

Z2 = cyclic(2)


def compare_permutation():
    """On (M, YA, KA): write M into KA when M == YA, else write bottom."""

    def fn(m, ya, ka):
        target = m if m == ya else 2
        if target == 0:
            return (m, ya, ka)
        if ka == 0:
            return (m, ya, target)
        if ka == target:
            return (m, ya, 0)
        return (m, ya, ka)

    return proto.function_permutation((2, 2, 3), fn)


def tiny_protocol():
    return proto.Protocol(
        name="tiny-announced",
        group=Z2,
        domain_size=2,
        registers=(
            proto.ProtocolRegister("T1", 2, "T"),
            proto.ProtocolRegister("YA", 2, "A"),
            proto.ProtocolRegister("KA", 3, "A"),
            proto.ProtocolRegister("YB", 2, "B"),
            proto.ProtocolRegister("KB", 2, "B"),
            proto.ProtocolRegister("M", 2, "M"),
        ),
        rounds=(
            proto.Step(
                party="A",
                program=(
                    proto.fourier_gate("T1"),
                    proto.Query("YA", x_reg="T1"),
                ),
                message="T1",
            ),
            proto.Step(
                party="B",
                program=(
                    proto.Query("YB", x_reg="T1"),
                    proto.controlled_add_gate("YB", "KB"),
                    proto.controlled_add_gate("YB", "M"),
                ),
                message="M",
            ),
        ),
        final_a_program=(
            proto.permutation_gate(compare_permutation(), ("M", "YA", "KA")),
        ),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def all_tables():
    return [(a, b) for a in range(2) for b in range(2)]


def test_tiny_protocol_validates_cleanly():
    rep = proto.validate(tiny_protocol())
    assert rep.ok
    assert rep.violations == []
    assert rep.notices == []


def test_validate_catches_shape_problems():
    p = tiny_protocol()

    swapped = dataclasses.replace(p, rounds=(p.rounds[1], p.rounds[0]))
    rep = proto.validate(swapped)
    assert not rep.ok
    assert any("first round" in v for v in rep.violations)

    nosy_round = proto.Step(
        party="A",
        program=p.rounds[0].program + (proto.hadamard_gate("KB"),),
        message="T1",
    )
    rep = proto.validate(dataclasses.replace(p, rounds=(nosy_round, p.rounds[1])))
    assert any("not accessible" in v for v in rep.violations)

    rep = proto.validate(dataclasses.replace(p, key_reg_a="T1"))
    assert any("key register" in v for v in rep.violations)

    extra_quantum = (
        dataclasses.replace(p.rounds[0], message="M"),
        p.rounds[1],
    )
    rep = proto.validate(dataclasses.replace(p, rounds=extra_quantum))
    assert any("CC1QM" in v for v in rep.violations)


def test_validate_notices_final_query_without_flag():
    p = tiny_protocol()
    q = dataclasses.replace(
        p,
        final_a_program=(proto.Query("YA", x_const=0),) + p.final_a_program,
    )
    rep = proto.validate(q)
    assert rep.ok
    assert any("active attack" in n for n in rep.notices)


def test_the_amplitude_cap_counts_only_the_cells_a_query_can_address():
    # merkle's queries address cells 0 and 1 only: 384 x 2^2 amplitudes, not 384 x 2^16
    assert proto.validate(zoo.merkle_ka_protocol(16)).ok
    # announced-query's dim-24 address register reaches all 24 cells: 1152 x 2^24
    violations = proto.validate(zoo.announced_query_protocol(24)).violations
    assert any("amplitudes, cap is" in v for v in violations)


def test_json_roundtrip_preserves_behavior():
    p = tiny_protocol()
    blob = json.dumps(p.to_json())
    q = proto.Protocol.from_json(json.loads(blob))
    assert q.to_json() == p.to_json()
    table = (1, 0)
    da = proto.joint_distribution(p, table=table)
    db = proto.joint_distribution(q, table=table)
    assert proto.distribution_tv(da, db) < 1e-12


def test_json_roundtrip_keeps_the_amplitude_cap():
    p = dataclasses.replace(tiny_protocol(), amplitude_cap=2**12)
    q = proto.Protocol.from_json(json.loads(json.dumps(p.to_json())))
    assert q.amplitude_cap == 2**12
    assert q.to_json() == p.to_json()
    # descriptions written before the cap was recorded get the default
    old = p.to_json()
    del old["amplitude_cap"]
    assert proto.Protocol.from_json(old).amplitude_cap == DEFAULT_AMPLITUDE_CAP


@pytest.mark.parametrize("p", [zoo.merkle_ka_protocol(4), zoo.trivial_last_message_protocol(4)],
                         ids=["merkle", "trivial-last-message"])
def test_json_without_the_derived_keys_loads_with_the_derived_values(p):
    data = p.to_json()
    del data["query_budget"], data["alice_no_final_query"]
    for r in data["rounds"]:
        del r["message_kind"]
    q = proto.Protocol.from_json(data)
    assert q.to_json() == p.to_json()
    assert (q.query_budget, q.alice_no_final_query) == (p.query_budget, p.alice_no_final_query)


@pytest.mark.parametrize("key,value", [
    ("group", None),
    ("registers", None),
    ("final_a", None),
    ("alice_no_final_query", "false"),
    ("domain_size", "2"),
    ("query_budget", 1.5),
    ("amplitude_cap", True),
    ("registers", [["YA", 2]]),
    ("rounds", 3),
])
def test_malformed_protocol_json_is_a_shape_error(key, value):
    data = tiny_protocol().to_json()
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(ProtocolShapeError):
        proto.Protocol.from_json(data)
    with pytest.raises(ProtocolShapeError):
        proto.Protocol.from_json([data])


@pytest.mark.parametrize("instr", [
    {"op": "query", "y": "YA", "x_const": 1.7},
    {"op": "query", "y": "YA", "x_reg": 7},
    {"op": "query", "y": 5, "x_const": 0},
    {"op": "query", "y": "YA", "x_const": True},
    {"op": "unitary", "name": "permutation", "targets": ["YA"], "perm": [1.9, 0.2]},
    {"op": "unitary", "name": "permutation", "targets": ["YA"], "perm": "10"},
    {"op": "unitary", "name": "fourier", "targets": ["YA"], "group": [2.0]},
    {"op": "unitary", "name": "hadamard", "targets": [3]},
    {"op": "unitary", "name": "hadamard", "targets": "YA"},
    {"op": "unitary", "name": 1, "targets": ["YA"]},
    {"op": "unitary", "name": "matrix", "targets": ["YA"], "matrix": [[[1, 0], [0, "0"]]]},
    {"op": "unitary", "name": "matrix", "targets": ["YA"], "matrix": [[[1, 0, 0]]]},
    {"op": "unitary", "name": "matrix", "targets": ["YA"], "matrix": [[1.0]]},
    {"op": 3},
    {"op": "measure"},
    {"y": "YA"},
    ["query"],
])
def test_mistyped_instruction_json_is_a_shape_error(instr):
    with pytest.raises(ProtocolShapeError):
        proto.instruction_from_json(instr)
    data = tiny_protocol().to_json()
    data["rounds"][0]["program"].append(instr)
    with pytest.raises(ProtocolShapeError):
        proto.Protocol.from_json(data)


@pytest.mark.parametrize("where,key,value", [
    ("round", "party", 1),
    ("round", "message", 5),
    ("round", "message_kind", 3),
    ("final_a", "key_reg", 0),
    ("final_b", "key_reg", None),
    ("top", "ensemble_regs", [7]),
    ("top", "ensemble_regs", "YB"),
])
def test_mistyped_round_or_register_name_is_a_shape_error(where, key, value):
    data = tiny_protocol().to_json()
    target = {"round": data["rounds"][0], "final_a": data["final_a"],
              "final_b": data["final_b"], "top": data}[where]
    target[key] = value
    with pytest.raises(ProtocolShapeError, match=key):
        proto.Protocol.from_json(data)


def intercepted(p, table, seed):
    """A concrete run as the attack reads it: Bob's key, his message ensemble and Alice's state."""
    run = proto.run_concrete(p, table, seed=seed)
    return (run.state.fixed[p.key_reg_b], proto.message_ensemble(run.state, p),
            proto.extract_alice_state(run.state, p))


def test_concrete_runs_are_always_correct():
    p = tiny_protocol()
    for table in all_tables():
        run = proto.run_concrete(p, table, seed=5)
        k_B = run.state.fixed["KB"]
        assert k_B == table[run.transcript[0]]
        # Alice's final map on the run's own state outputs Bob's key with certainty
        assert proto.final_map(p, run.state)[0][k_B] == pytest.approx(1.0, rel=0, abs=1e-12)
        assert run.probability == pytest.approx(0.5)
        [comp] = proto.message_ensemble(run.state, p)
        assert comp.weight == pytest.approx(1.0)
        expected = np.zeros(2)
        expected[k_B] = 1.0
        assert np.allclose(comp.vector, expected)
        assert proto.extract_alice_state(run.state, p).norm() == pytest.approx(1.0)


def test_joint_distribution_by_hand():
    p = tiny_protocol()
    table = (0, 1)
    dist = proto.joint_distribution(p, table=table)
    expected = {((0,), 0, 0): 0.5, ((1,), 1, 1): 0.5}
    assert proto.distribution_tv(dist, expected) < 1e-12


def test_purified_matches_averaged_concrete():
    p = tiny_protocol()
    purified = proto.joint_distribution(p)
    averaged = proto.averaged_concrete_distribution(p)
    assert proto.distribution_tv(purified, averaged) < 1e-9


def test_sampled_runs_are_seed_deterministic():
    p = tiny_protocol()
    a = proto.run_purified(p, seed=11)
    b = proto.run_purified(p, seed=11)
    assert a.transcript == b.transcript
    assert a.probability == b.probability
    assert a.state.fixed == b.state.fixed and "KB" in a.state.fixed
    assert np.array_equal(a.state.amps, b.state.amps)


def with_bob_entangling(reg):
    """tiny_protocol plus a register ``reg`` Bob puts in |+> and adds into M."""
    p = tiny_protocol()
    bob = proto.Step(
        party="B",
        program=(
            proto.Query("YB", x_reg="T1"),
            proto.controlled_add_gate("YB", "KB"),
            proto.hadamard_gate(reg.name),
            proto.controlled_add_gate(reg.name, "M"),
        ),
        message="M",
    )
    return dataclasses.replace(p, registers=p.registers + (reg,), rounds=(p.rounds[0], bob))


def test_ensemble_registers_split_the_message():
    entangling = with_bob_entangling(proto.ProtocolRegister("B0", 2, "B"))
    assert entangling.ensemble_regs == ("YB", "B0")
    ensemble = proto.message_ensemble(proto.run_concrete(entangling, (1, 0), seed=3).state,
                                      entangling)
    assert len(ensemble) == 2
    weights = sorted(c.weight for c in ensemble)
    assert weights == pytest.approx([0.5, 0.5])
    for comp in ensemble:
        expected = np.zeros(2)
        expected[comp.values[1]] = 1.0
        assert np.allclose(comp.vector, expected)

    # M entangled with a transcript register Bob never announces: none of
    # Bob's registers purifies it, so the message is not pure in any branch
    unmeasured = with_bob_entangling(proto.ProtocolRegister("T9", 2, "T"))
    assert unmeasured.ensemble_regs == ("YB",)
    run = proto.run_concrete(unmeasured, (1, 0), seed=3)
    with pytest.raises(UnsupportedProtocolError):
        proto.message_ensemble(run.state, unmeasured)


def test_only_the_attack_needs_bob_to_split_his_message(tmp_path):
    # M entangled with T9, which no party announces: validate accepts the protocol,
    # and the learner reads only the transcript, but Eve cannot split Bob's message
    unmeasured = with_bob_entangling(proto.ProtocolRegister("T9", 2, "T"))
    report = proto.validate(unmeasured)
    assert report.violations == [] and report.notices == []
    config = {"protocol_json": unmeasured.to_json(), "n": 2, "trials": 4, "seed": 1}
    cli.run_experiment(cli.ExperimentConfig(mode="learner-only", out_dir=str(tmp_path / "learn"),
                                            **config))
    with open(tmp_path / "learn" / "trials_eps0.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["trial"] for row in rows] == ["0", "1", "2", "3"]
    with pytest.raises(UnsupportedProtocolError, match="not pure given the ensemble registers"):
        cli.run_experiment(cli.ExperimentConfig(mode="attack", out_dir=str(tmp_path / "attack"),
                                                **config))


def ensembles_by_assignment(p, table):
    """Bob's message ensemble in every branch and key value, each component keyed by
    its ensemble registers' values by name, so declaration order cannot show."""
    out = {}
    for branch in proto.enumerate_branches(p, table):
        kb_probs = branch.state.probabilities(p.key_reg_b)
        for k_B in np.flatnonzero(kb_probs > 1e-12):
            state, _ = branch.state.collapse_register(p.key_reg_b, int(k_B))
            for c in proto.message_ensemble(state, p):
                key = (branch.transcript, int(k_B), frozenset(zip(p.ensemble_regs, c.values)))
                out[key] = c
    return out


@pytest.mark.parametrize("name,order", [
    ("announced-query", ("T1", "YA", "KA", "KB", "M", "YB")),
    ("trivial-last-message", ("YA", "KA", "YB", "EB", "KB", "M")),
    ("trivial-last-message", ("M", "KB", "YB", "KA", "EB", "YA")),
], ids=["ensemble-after-M", "ensemble-swapped", "reversed"])
@pytest.mark.parametrize("table", [None, (1, 0, 1, 1)], ids=["purified", "concrete"])
def test_message_ensemble_does_not_depend_on_declaration_order(name, order, table):
    p = zoo.standard_zoo(4)[name]
    by_name = {r.name: r for r in p.registers}
    reordered = dataclasses.replace(p, registers=tuple(by_name[n] for n in order))
    want, got = ensembles_by_assignment(p, table), ensembles_by_assignment(reordered, table)
    assert want and got.keys() == want.keys()
    for key, c in want.items():
        assert got[key].weight == pytest.approx(c.weight, rel=0, abs=1e-12)
        assert np.allclose(got[key].vector, c.vector, rtol=0, atol=1e-12)


def test_alice_final_accepts_honest_and_rejects_flipped_message():
    p = tiny_protocol()
    for table in all_tables():
        k_B, ensemble, alice = intercepted(p, table, seed=9)
        honest = ensemble[0].vector
        dist = proto.alice_final(p, alice, honest)
        assert dist[k_B] == pytest.approx(1.0)
        flipped = honest[::-1].copy()
        dist = proto.alice_final(p, alice, flipped)
        assert dist[2] == pytest.approx(1.0)
        assert dist.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("message", [[0, 0.5], [0, 1, 0], [0.6, 0.6], [np.nan, 0]],
                         ids=["half-basis", "long", "unnormalized", "nan"])
def test_a_message_that_is_no_unit_vector_is_a_domain_error(message):
    p = tiny_protocol()
    _, _, alice = intercepted(p, (0, 1), seed=1)
    with pytest.raises(DomainError, match="unit vector"):
        proto.alice_final(p, alice, np.array(message))


def test_alice_final_mixes_density_operators():
    p = tiny_protocol()
    k_B, ensemble, alice = intercepted(p, (0, 1), seed=1)
    honest = ensemble[0].vector
    flipped = honest[::-1].copy()
    rho = 0.5 * np.outer(honest, honest.conj()) + 0.5 * np.outer(flipped, flipped.conj())
    from qromlab.qstate import DensityOperator

    op = DensityOperator([Register("M", 2)], rho)
    dist = proto.alice_final(p, alice, op)
    assert dist[k_B] == pytest.approx(0.5)
    assert dist[2] == pytest.approx(0.5)


def test_program_inverse_is_inverse():
    p = tiny_protocol()
    program = (
        proto.fourier_gate("T1"),
        proto.hadamard_gate("YA"),
        proto.Query("YA", x_reg="T1"),
        proto.controlled_add_gate("YA", "KA", group=cyclic(3)),
        proto.Query("YB", x_const=1),
    )
    spec = p.oracle
    regs = [
        Register("T1", 2),
        Register("YA", 2),
        Register("KA", 3),
        Register("YB", 2),
        Register("KB", 2),
        Register("M", 2),
    ]
    purified = init_purified(spec, regs)
    forward = proto.apply_program(purified, program, p.reg_dims)
    back = proto.apply_program(forward, program, p.reg_dims, inverse=True)
    # the queries made cells 0 and 1 live; the start holds them untouched
    assert np.allclose(back.amps, every_cell(purified).amps, atol=1e-12)

    concrete = init_table(spec, regs, (1, 1))
    forward = proto.apply_program(concrete, program, p.reg_dims)
    back = proto.apply_program(forward, program, p.reg_dims, inverse=True)
    assert np.allclose(back.amps, concrete.amps, atol=1e-12)


def test_frozen_register_steers_but_cannot_move():
    p = tiny_protocol()
    layout = RegisterLayout([Register("KA", 3)])
    state = QuantumState.zero(layout).attach_fixed("T1", 1)

    bumped = proto.apply_instruction(
        state, proto.controlled_add_gate("T1", "KA", group=cyclic(3)), p.reg_dims
    )
    # T1 frozen at 1 adds 1 into KA.
    assert np.allclose(bumped.amps, np.array([0, 1, 0], dtype=complex))

    with pytest.raises(UnsupportedProtocolError):
        proto.apply_instruction(
            state, proto.permutation_gate((1, 0), ("T1",)), p.reg_dims
        )
    untouched = proto.apply_instruction(
        state, proto.permutation_gate((0, 1), ("T1",)), p.reg_dims
    )
    assert np.allclose(untouched.amps, state.amps)


def test_extract_alice_state_demands_product():
    p = tiny_protocol()
    layout = RegisterLayout(
        [
            Register("T1", 2),
            Register("YA", 2),
            Register("KA", 3),
            Register("YB", 2),
            Register("KB", 2),
            Register("M", 2),
        ]
    )
    amps = np.zeros(layout.dims, dtype=complex)
    amps[0, 0, 0, 0, 0, 0] = 1 / math.sqrt(2)
    amps[0, 1, 0, 1, 0, 0] = 1 / math.sqrt(2)  # YA entangled with YB
    bell = QuantumState(layout, amps)
    with pytest.raises(UnsupportedProtocolError):
        proto.extract_alice_state(bell, p)

    product = QuantumState.zero(layout)
    alice = proto.extract_alice_state(product, p)
    assert alice.layout.names == ("T1", "YA", "KA")
    assert alice.norm() == pytest.approx(1.0)


def test_run_conditioned_forces_the_transcript():
    p = tiny_protocol()
    state, prob = proto.run_conditioned(p, (1,), table=(0, 1))
    assert prob == pytest.approx(0.5)
    assert state.probabilities("KB")[1] == pytest.approx(1.0)

    lazy_first = proto.Step(
        party="A",
        program=(proto.Query("YA", x_const=0),),
        message="T1",
    )
    stuck = dataclasses.replace(p, rounds=(lazy_first, p.rounds[1]))
    with pytest.raises(ZeroProbabilityError):
        proto.run_conditioned(stuck, (1,))
    with pytest.raises(DomainError):
        proto.run_conditioned(p, (0, 0))



@pytest.mark.parametrize("symbol", ["1", 1.7, True, np.float64(2.0), 2.9],
                         ids=["text", "fraction", "bool", "numpy-float", "fraction-2.9"])
def test_a_transcript_symbol_that_is_no_integer_is_a_domain_error(symbol):
    p = zoo.announced_query_protocol(4)
    with pytest.raises(DomainError, match="transcript symbols"):
        proto.run_conditioned(p, (symbol,))
    with pytest.raises(DomainError, match="transcript symbols"):
        learn(p, (symbol,), 0.05, (0, 1, 1, 0))


def test_a_numpy_integer_symbol_runs_as_that_integer():
    p = zoo.announced_query_protocol(4)
    (state, prob), (want, want_prob) = (proto.run_conditioned(p, (s,)) for s in (np.int64(1), 1))
    assert prob == want_prob
    assert state.fixed == want.fixed and type(state.fixed["T1"]) is int
    assert np.array_equal(state.amps, want.amps)


@pytest.mark.parametrize("table", [(1,), (1, 0, 1), (1, 2), (-1, 0), (1, 0.5)],
                         ids=["short", "long", "out-of-range", "negative", "fractional"])
def test_a_bad_table_is_a_domain_error_on_every_table_route(table):
    p = tiny_protocol()
    runs = {
        "run_concrete": lambda: proto.run_concrete(p, table, seed=0),
        "run_conditioned": lambda: proto.run_conditioned(p, (1,), table=table),
        "enumerate_branches": lambda: proto.enumerate_branches(p, table=table),
        "joint_distribution": lambda: proto.joint_distribution(p, table=table),
        "circuits.run_fixed": lambda: circuits.run_fixed(p.oracle, [], table),
    }
    for name, run in runs.items():
        with pytest.raises(DomainError, match="oracle table"):
            run()
            pytest.fail(f"{name} accepted the table {table}")


def test_a_wide_address_register_is_one_error_on_either_oracle():
    spec = OracleSpec(2, Z2)
    regs = [Register("X", 3), Register("Yw", 2)]
    program = [proto.Query("Yw", x_reg="X")]
    errors = []
    for start in (init_purified(spec, regs), init_table(spec, regs, (1, 0))):
        with pytest.raises(DimensionMismatchError) as caught:
            proto.apply_program(start, program, {"X": 3, "Yw": 2})
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_alice_final_asks_the_oracle_its_state_carries():
    p = zoo.trivial_last_message_protocol(3)
    assert any(isinstance(i, proto.Query) for i in p.final_a_program)
    message = np.eye(p.reg_dims[p.message_reg])[1]
    oracle_less = QuantumState.zero(RegisterLayout(
        [Register(n, p.reg_dims[n]) for n in p.alice_side]))
    with pytest.raises(QromlabError, match="oracle"):
        proto.alice_final(p, oracle_less, message)
    # the same registers beside a table answer from that table alone
    dists = [proto.alice_final(p, init_table(p.oracle, oracle_less.layout.registers, t),
                               message) for t in ((0, 1, 0), (0, 0, 0))]
    assert all(d.sum() == pytest.approx(1.0) for d in dists)
    assert not np.allclose(dists[0], dists[1])


@pytest.mark.parametrize("group", [(2,), (3,)], ids=["Z2", "Z3"])
@pytest.mark.parametrize("name", sorted(zoo.standard_zoo(4)))
def test_every_sent_symbol_is_a_frozen_register(name, group):
    p = zoo.standard_zoo(4, GroupSpec(group))[name]
    messages = p.classical_messages
    branches = proto.enumerate_branches(p)
    assert branches
    for branch in branches:
        conditioned, _ = proto.run_conditioned(p, branch.transcript)
        for state in (branch.state, conditioned):
            for reg, sym in zip(messages, branch.transcript, strict=True):
                assert state.fixed[reg] == sym
                assert reg not in state.layout


def looped_perm_with_fixed(state, perm, targets, dims):
    """Reference for a permutation gate on frozen targets: restrict the permutation
    one live index at a time, with a separate all-frozen branch."""
    fixed_pos = {i: state.fixed[t] for i, t in enumerate(targets) if t in state.fixed}
    if not fixed_pos:
        return state.permute_basis(perm, targets)
    live_pos = [i for i in range(len(targets)) if i not in fixed_pos]
    live_dims = tuple(dims[i] for i in live_pos)
    if not live_pos:
        j = int(np.ravel_multi_index(tuple(fixed_pos[i] for i in range(len(targets))), dims))
        if int(perm[j]) != j:
            raise UnsupportedProtocolError("permutation moves a frozen register")
        return state
    restricted = np.empty(math.prod(live_dims), dtype=np.int64)
    for jl, live_digits in enumerate(np.ndindex(*live_dims)):
        digits = [0] * len(targets)
        for pos, v in fixed_pos.items():
            digits[pos] = v
        for pos, v in zip(live_pos, live_digits):
            digits[pos] = v
        image = np.unravel_index(int(perm[int(np.ravel_multi_index(digits, dims))]), dims)
        for pos, v in fixed_pos.items():
            if int(image[pos]) != v:
                raise UnsupportedProtocolError("permutation moves a frozen register")
        restricted[jl] = int(
            np.ravel_multi_index(tuple(int(image[pos]) for pos in live_pos), live_dims)
        )
    return state.permute_basis(restricted, [targets[i] for i in live_pos])


@st.composite
def frozen_permutations(draw):
    """(state, perm, targets, dims): a permutation of 1-3 targets of dims 2 or 3, any subset
    of them frozen (none and all included), on a random state that also holds a bystander."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3)))
    targets = [f"R{i}" for i in range(len(dims))]
    frozen = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed = {t: int(rng.integers(d)) for t, d, f in zip(targets, dims, frozen) if f}
    perm = rng.permutation(math.prod(dims))
    if draw(st.booleans()):
        # shuffle only within classes of equal frozen digits, so the call is allowed
        digits = np.unravel_index(np.arange(len(perm)), dims)
        key = sum((digits[i] * 3**i for i, f in enumerate(frozen) if f), np.zeros_like(perm))
        for k in np.unique(key):
            cls = np.nonzero(key == k)[0]
            perm[cls] = rng.permutation(cls)
    live = [Register(t, d) for t, d in zip(targets, dims) if t not in fixed]
    regs = [live[i] for i in rng.permutation(len(live))] + [Register("W", 2)]
    layout = RegisterLayout(regs)
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return QuantumState.from_vector(layout, v / np.linalg.norm(v), fixed), perm, targets, dims


@settings(max_examples=150, deadline=None)
@given(case=frozen_permutations(), inverse=st.booleans())
def test_vectorized_restriction_equals_the_looped_one(case, inverse):
    state, perm, targets, dims = case
    gate = proto.permutation_gate(perm, targets)
    reg_dims = dict(zip(targets, dims))
    try:
        expect = looped_perm_with_fixed(state, np.argsort(perm) if inverse else perm,
                                        targets, dims)
    except UnsupportedProtocolError:
        with pytest.raises(UnsupportedProtocolError):
            proto.apply_instruction(state, gate, reg_dims, inverse=inverse)
        return
    got = proto.apply_instruction(state, gate, reg_dims, inverse=inverse)
    assert got.layout.names == expect.layout.names and got.fixed == expect.fixed
    assert np.array_equal(got.amps, expect.amps)


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


@st.composite
def frozen_unitaries(draw):
    """(state, u, targets, dims, frozen): a unitary of 1-3 targets of dims 2 or 3, any subset
    of them frozen, on a random state with a bystander; half of the draws keep every
    frozen digit, so the call is allowed."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3)))
    targets = [f"R{i}" for i in range(len(dims))]
    flags = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frozen = {t: int(rng.integers(d)) for t, d, f in zip(targets, dims, flags) if f}
    u = random_unitary(rng, math.prod(dims))
    if draw(st.booleans()):
        digits = np.unravel_index(np.arange(len(u)), dims)
        key = sum((digits[i] * 3**i for i, f in enumerate(flags) if f), np.zeros(len(u), int))
        u = np.zeros_like(u)
        for k in np.unique(key):
            cls = np.nonzero(key == k)[0]
            u[np.ix_(cls, cls)] = random_unitary(rng, len(cls))
    live = [Register(t, d) for t, d in zip(targets, dims) if t not in frozen]
    layout = RegisterLayout(live + [Register("W", 2)])
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = QuantumState.from_vector(layout, v / np.linalg.norm(v))
    return state, u, targets, dims, frozen


@settings(max_examples=150, deadline=None)
@given(case=frozen_unitaries(), inverse=st.booleans())
def test_a_matrix_on_frozen_registers_equals_the_matrix_on_one_hot_axes(case, inverse):
    state, u, targets, dims, frozen = case
    # reference: each frozen register as a live axis at its value, the full matrix applied
    wide = state
    for t, d in zip(targets, dims):
        if t in frozen:
            wide = wide.attach_register(Register(t, d), np.eye(d)[frozen[t]])
    wide = wide.apply_unitary(u.conj().T if inverse else u, targets)
    leaked = any(wide.probabilities(t)[frozen[t]] < 1 - 1e-9 for t in frozen)
    frozen_state = dataclasses.replace(state, fixed=dict(frozen))
    gate, reg_dims = proto.matrix_gate(u, targets), dict(zip(targets, dims))
    if leaked:
        with pytest.raises(UnsupportedProtocolError):
            proto.apply_instruction(frozen_state, gate, reg_dims, inverse=inverse)
        return
    for t in frozen:
        wide, _ = wide.collapse_register(t, frozen[t])
    got = proto.apply_instruction(frozen_state, gate, reg_dims, inverse=inverse)
    assert got.fixed == wide.fixed
    assert np.allclose(got.split(state.layout.names), wide.split(state.layout.names))


def controlled_hadamard():
    """On (control, target): a Hadamard on the target when the control is 1."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), h]])


def test_a_matrix_gate_reads_an_announced_register_as_a_control():
    # Alice decodes M in the basis named by T1: on T1 = 1 the copy is Hadamard-rotated,
    # so her compare keeps Bob's key half the time and aborts otherwise
    p = tiny_protocol()
    p = dataclasses.replace(p, final_a_program=(
        proto.matrix_gate(controlled_hadamard(), ("T1", "M")),) + p.final_a_program)
    assert proto.validate(p).ok
    dist = proto.joint_distribution(p)
    expect = {((0,), 0, 0): 0.25, ((0,), 1, 1): 0.25, ((1,), 0, 0): 0.125,
              ((1,), 0, 2): 0.125, ((1,), 1, 1): 0.125, ((1,), 1, 2): 0.125}
    assert set(dist) == set(expect)
    assert all(dist[k] == pytest.approx(w) for k, w in expect.items())
    for table in all_tables():
        run = proto.run_concrete(p, table, seed=4)
        alice = proto.extract_alice_state(run.state, p)
        assert alice.fixed["T1"] == run.transcript[0]
        got = proto.alice_final(p, alice, np.eye(2)[run.state.fixed["KB"]])
        k = table[run.transcript[0]]
        want = np.eye(3)[k] if run.transcript == (0,) else (np.eye(3)[k] + np.eye(3)[2]) / 2
        assert np.allclose(got, want)


def every_cell(state):
    """``state`` with every untouched oracle cell made live at |0̂⟩."""
    return oracle.add_cells(state, range(state.layout.oracle.domain_size))


def whole_round_walk(p, table=None):
    """Reference for ``_walk``: every round runs whole, then its message is measured.
    Returns {transcript: (state, probability)} for every symbol of probability >= 1e-12."""
    dims = p.reg_dims
    paths = [(proto._initial_state(p, table), (), 1.0)]
    for step in p.rounds:
        paths = [(proto.apply_program(s, step.program, dims), t, pr) for s, t, pr in paths]
        if step.message is None or p.message_kind(step) != "classical":
            continue
        grown = []
        for state, transcript, prob in paths:
            for sym, q in enumerate(state.probabilities(step.message)):
                if q >= 1e-12:
                    child, pr = state.collapse_register(step.message, sym)
                    grown.append((child, transcript + (sym,), prob * pr))
        paths = grown
    return {t: (s, pr) for s, t, pr in paths}


def assert_walks_agree(p, table=None, want=None):
    """enumerate_branches and run_conditioned match the whole-round reference on every
    transcript (or ``want``, {transcript: (state, probability)}): once both hold every
    oracle cell, same layout, same frozen values, probability and amplitudes within 1e-12.
    A live address can make cells live that the frozen one leaves untouched."""
    want = whole_round_walk(p, table) if want is None else want
    branches = proto.enumerate_branches(p, table)
    assert [b.transcript for b in branches] == sorted(want)
    for b in branches:
        for state, prob in ((b.state, b.probability),
                            proto.run_conditioned(p, b.transcript, table)):
            ref, ref_prob = want[b.transcript]
            state, ref = every_cell(state), every_cell(ref)
            assert state.layout.names == ref.layout.names and state.fixed == ref.fixed
            assert abs(prob - ref_prob) <= 1e-12
            assert np.abs(state.amps - ref.amps).max() <= 1e-12


@pytest.mark.parametrize("table", [None, (1, 0, 1, 1)], ids=["purified", "table"])
@pytest.mark.parametrize("group", [(2,), (3,)], ids=["Z2", "Z3"])
@pytest.mark.parametrize("name", sorted(zoo.standard_zoo(4)))
def test_measuring_at_the_last_write_equals_measuring_after_the_round(name, group, table):
    assert_walks_agree(zoo.standard_zoo(4, GroupSpec(group))[name], table)


@pytest.mark.parametrize("group", [(2,), (3,)], ids=["Z2", "Z3"])
@pytest.mark.parametrize("name", sorted(zoo.standard_zoo(4)))
def test_the_walk_matches_a_walk_from_the_all_cells_layout(name, group, monkeypatch):
    p = zoo.standard_zoo(4, GroupSpec(group))[name]
    initial = proto._initial_state
    monkeypatch.setattr(proto, "_initial_state", lambda p, table: every_cell(initial(p, table)))
    dense = {b.transcript: (b.state, b.probability) for b in proto.enumerate_branches(p)}
    assert all(s.layout.names[-4:] == ("H0", "H1", "H2", "H3") for s, _ in dense.values())
    monkeypatch.undo()
    assert_walks_agree(p, want=dense)


def with_first_round(*program):
    """tiny_protocol with Alice's round-A program replaced; she still sends T1."""
    p = tiny_protocol()
    return dataclasses.replace(p, rounds=(proto.Step("A", program, "T1"), p.rounds[1]))


@pytest.mark.parametrize("p", [
    # T1 is written again after the query reads it: the cut is the last write
    with_first_round(proto.fourier_gate("T1"), proto.Query("YA", x_reg="T1"),
                     proto.controlled_add_gate("YA", "T1")),
    # a round that never writes T1 measures it at its start (cut 0)
    dataclasses.replace(tiny_protocol(), rounds=(
        proto.Step("A", (proto.fourier_gate("T1"),)),
        proto.Step("A", (proto.Query("YA", x_reg="T1"),), "T1"), tiny_protocol().rounds[1])),
    # a controlled-Hadamard reads the frozen T1 after the cut
    with_first_round(proto.fourier_gate("T1"), proto.Query("YA", x_reg="T1"),
                     proto.matrix_gate(controlled_hadamard(), ("T1", "YA"))),
], ids=["rewritten-after-a-read", "never-written", "controlled-hadamard-after-the-cut"])
def test_an_edge_case_round_measures_like_the_whole_round(p):
    for table in [None] + all_tables():
        assert_walks_agree(p, table)


def test_the_query_after_the_last_write_reads_the_message_frozen(monkeypatch):
    p = zoo.announced_query_protocol(4)
    seen = []
    query = oracle.oracle_query

    def spy(state, y_reg, **kw):
        out = query(state, y_reg, **kw)
        seen.append((y_reg, dict(state.fixed), state.amps.size, out.amps.size))
        return out

    monkeypatch.setattr(oracle, "oracle_query", spy)
    proto.run_conditioned(p, (3,))
    work = math.prod(p.reg_dims.values())
    # Alice's round-A query runs on T1's branch alone, a quarter of the work registers
    # with every cell untouched, and stores the one cell T1 = 3 addresses
    assert seen[0] == ("YA", {"T1": 3}, work // 4, work // 4 * p.group.order)


def hadamard_decode_protocol():
    """tiny_protocol with Alice decoding M in the basis T1 names: a final map that writes M."""
    p = tiny_protocol()
    return dataclasses.replace(p, final_a_program=(
        proto.matrix_gate(controlled_hadamard(), ("T1", "M")),) + p.final_a_program)


def live_reference(p, state, vector):
    """Alice's key distribution with the message always attached as a live register."""
    m = p.message_reg
    if m in state.layout:
        state = state.rename_register(m, m + proto.SIM_MESSAGE_SUFFIX)
    live = state.attach_register(Register(m, p.reg_dims[m]), vector)
    return proto.final_map(p, live)[0]


def spied_deliveries(monkeypatch):
    """Every delivery full_attack makes: (M frozen, key dist, live-attach reference dist)."""
    seen = []

    def spy(p, state, vector):
        dist, final = proto.deliver(p, state, vector)
        seen.append((final.is_fixed(p.message_reg), dist, live_reference(p, state, vector)))
        return dist, final

    monkeypatch.setattr(atk, "deliver", spy)
    return seen


@pytest.mark.parametrize("group", [(2,), (3,)], ids=["Z2", "Z3"])
@pytest.mark.parametrize("name", sorted(zoo.standard_zoo(4)))
def test_the_attack_delivers_every_zoo_component_frozen(name, group, monkeypatch):
    p = zoo.standard_zoo(4, GroupSpec(group))[name]
    seen = spied_deliveries(monkeypatch)
    forced = name == "trivial-last-message"
    rng = np.random.default_rng(5)
    for _ in range(3):
        table = tuple(int(v) for v in rng.integers(0, p.group.order, size=4))
        atk.full_attack(p, 0.05, 0.05, table, seed=rng, guess_only=forced,
                        force_simulated_oracle=forced)
    assert seen and all(frozen for frozen, _, _ in seen)
    assert all(np.abs(dist - ref).max() <= 1e-12 for _, dist, ref in seen)


def test_a_final_map_that_writes_the_message_gets_it_live(monkeypatch):
    p = hadamard_decode_protocol()
    seen = spied_deliveries(monkeypatch)
    compared = []
    trace_first = atk._trace_then_uncompute
    monkeypatch.setattr(atk, "_trace_then_uncompute",
                        lambda p, post: compared.append(post) or trace_first(p, post))
    for table in all_tables():
        out = atk.full_attack(p, 0.05, 0.05, table, seed=4, keep_states=True)
        rep = atk.check_inequalities(p, out)
        assert rep["matches_recorded"]
        assert rep["uncompute_order_gap"] <= 1e-10
    assert seen and not any(frozen for frozen, _, _ in seen)
    assert all(np.abs(dist - ref).max() <= 1e-12 for _, dist, ref in seen)
    assert compared, "no post kept M live, so the two operator orders were never compared"


def test_the_checker_uncomputes_each_live_component_once(monkeypatch):
    p = hadamard_decode_protocol()
    repaired, compared = [], []
    eve_message, trace_first = atk.eve_message, atk._trace_then_uncompute
    monkeypatch.setattr(atk, "eve_message",
                        lambda p, post: repaired.append(post) or eve_message(p, post))
    monkeypatch.setattr(atk, "_trace_then_uncompute",
                        lambda p, post: compared.append(post) or trace_first(p, post))
    for table in all_tables():
        out = atk.full_attack(p, 0.05, 0.05, table, seed=4, keep_states=True)
        repaired.clear()
        compared.clear()
        atk.check_inequalities(p, out)
        # one uncompute per live post, shared by the mix and the order gap
        assert compared and len(repaired) == len(compared)


@pytest.mark.parametrize("where, instr", [
    ("round", proto.hadamard_gate("T1")),
    ("round", proto.Query("T1", x_const=0)),
    ("round", proto.controlled_add_gate("YB", "T1")),
    ("final", proto.matrix_gate(np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)), ("T1", "M"))),
], ids=["hadamard", "query-output", "controlled-add", "matrix"])
def test_validate_reports_a_write_to_an_announced_register(where, instr):
    p = tiny_protocol()
    if where == "round":
        bob = dataclasses.replace(p.rounds[1], program=(instr,) + p.rounds[1].program)
        p = dataclasses.replace(p, rounds=(p.rounds[0], bob))
    else:
        p = dataclasses.replace(p, final_a_program=(instr,) + p.final_a_program)
    rep = proto.validate(p)
    assert any("announced register" in v for v in rep.violations)
    with pytest.raises(UnsupportedProtocolError, match="frozen"):
        proto.joint_distribution(p, table=(1, 1))


@pytest.mark.parametrize("group", [["2"], [2.9], [True], [2.0], "2"])
def test_a_mistyped_group_factor_is_a_shape_error(group):
    data = tiny_protocol().to_json()
    data["group"] = group
    with pytest.raises(ProtocolShapeError, match="group factor"):
        proto.Protocol.from_json(data)


@pytest.mark.parametrize("name,key,value", [
    ("fourier", "matrix", [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]),
    ("hadamard", "perm", [1, 0]),
    ("permutation", "group", [2]),
])
def test_a_gate_field_its_name_does_not_use_is_a_shape_error(name, key, value):
    data = tiny_protocol().to_json()
    gate = {"op": "unitary", "name": name, "targets": ["T1"], "perm": [1, 0], key: value}
    data["rounds"][0]["program"][0] = gate
    with pytest.raises(ProtocolShapeError, match=f"a {name!r} gate takes no {key}"):
        proto.Protocol.from_json(data)


def test_a_builtin_gate_is_built_once_however_often_it_runs(monkeypatch):
    p = zoo.merkle_ka_protocol(8)
    built = []
    real = proto.function_permutation
    monkeypatch.setattr(proto, "function_permutation",
                        lambda dims, fn: built.append(dims) or real(dims, fn))
    rng = np.random.default_rng(8)
    for _ in range(20):
        table = tuple(int(v) for v in rng.integers(0, 2, size=8))
        atk.full_attack(p, 0.05, 0.05, table, seed=rng)
    # one table per controlled-add gate of Bob's round
    assert len(built) <= 2


def test_one_gate_object_keeps_one_resolved_form_per_target_dims():
    gate = proto.fourier_gate("T1")
    rng = np.random.default_rng(3)
    for dim in (4, 8, 4):
        layout = RegisterLayout([Register("T1", dim), Register("W", 2)])
        v = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        state = QuantumState.from_vector(layout, v / np.linalg.norm(v))
        for inverse in (False, True):
            got = proto.apply_instruction(state, gate, {"T1": dim}, inverse=inverse)
            fresh = proto.apply_instruction(state, proto.fourier_gate("T1"), {"T1": dim},
                                            inverse=inverse)
            assert np.array_equal(got.amps, fresh.amps)
        form = gate.resolved((dim,))
        assert not form.op.array.flags.writeable and not form.inverse.array.flags.writeable
    assert gate.resolved((4,)) is form and gate.resolved((8,)) is not form


def test_threads_sharing_a_protocol_get_the_sequential_results():
    # the CLI's pool threads share one protocol, so they race to resolve its gates
    table = (1, 0, 1, 1)
    expect = proto.joint_distribution(zoo.merkle_ka_protocol(4), table=table)
    p = zoo.merkle_ka_protocol(4)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(proto.joint_distribution, p, table) for _ in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r == expect for r in results)
    sequential = zoo.merkle_ka_protocol(4)
    proto.joint_distribution(sequential, table=table)
    keys = [[set(g._forms) for g in protocol_gates(q)] for q in (p, sequential)]
    assert keys[0] and keys[0] == keys[1]
    assert all(sum(all(v is None for v in at) for _, at in k) == 1 for k in keys[0])


def protocol_gates(p):
    programs = [s.program for s in p.rounds] + [p.final_a_program]
    return [i for program in programs for i in program if isinstance(i, proto.Gate)]


def test_a_gate_restricts_itself_once_per_frozen_value(monkeypatch):
    contexts = []
    real = proto._restrict
    monkeypatch.setattr(proto, "_restrict",
                        lambda form, at: contexts.append((id(form), at)) or real(form, at))
    p = zoo.merkle_ka_protocol(4)
    for table in p.oracle.all_tables():
        proto.enumerate_branches(p, table=table)
        proto.enumerate_branches(p)
    assert contexts and len(contexts) == len(set(contexts))
    restricted = [at for g in protocol_gates(p) for _, at in g._forms
                  if any(v is not None for v in at)]
    assert sorted(at for _, at in contexts) == sorted(restricted)


def test_a_rejected_restriction_raises_again_on_a_second_call(monkeypatch):
    calls = []
    real = proto._restrict
    monkeypatch.setattr(proto, "_restrict", lambda form, at: calls.append(at) or real(form, at))
    gate = proto.permutation_gate([2, 1, 0, 3], ("T", "W"))  # swaps T's 0 and 1 when W = 0
    layout = RegisterLayout([Register("W", 2)])
    state = QuantumState.from_vector(layout, [1, 0], {"T": 0})
    for _ in range(2):
        with pytest.raises(UnsupportedProtocolError, match="permutation moves a frozen register"):
            proto.apply_instruction(state, gate, {"T": 2, "W": 2})
    assert calls == [(0, None)] * 2
    assert list(gate._forms) == [((2, 2), (None, None))]


@pytest.mark.parametrize("name", ["announced-query", "merkle", "ka-from-toy-qpke"])
def test_a_second_attack_on_a_protocol_runs_no_write_test(name, monkeypatch):
    p = zoo.standard_zoo(4)[name]
    atk.full_attack(p, 0.05, 0.05, (1, 0, 1, 1), seed=1)
    calls = []
    real = proto._moves
    monkeypatch.setattr(proto, "_moves", lambda *a: calls.append(a) or real(*a))
    atk.full_attack(p, 0.05, 0.05, (1, 0, 1, 1), seed=1)
    assert calls == []


def test_the_register_map_is_read_only_and_follows_a_replace():
    p = tiny_protocol()
    with pytest.raises(TypeError):
        p.reg_dims["T1"] = 9
    assert p.reg_dims["T1"] == 2
    wider = dataclasses.replace(p, registers=tuple(
        dataclasses.replace(r, dim=4) if r.name == "T1" else r for r in p.registers))
    assert (wider.reg_dims["T1"], p.reg_dims["T1"]) == (4, 2)


def test_the_oracle_is_a_cached_fact_outside_equality_and_repr():
    p = tiny_protocol()
    copy = dataclasses.replace(p)
    assert "oracle" not in vars(p)  # built on first read, like the other facts
    assert p.oracle is p.oracle and p.oracle == OracleSpec(p.domain_size, p.group)
    assert copy == p and repr(copy) == repr(p) and "oracle" not in repr(p)
    assert copy.oracle == p.oracle and copy.oracle is not p.oracle


def test_a_gate_on_an_unknown_register_is_a_violation_not_a_construction_error():
    p = tiny_protocol()
    alice = dataclasses.replace(p.rounds[0], program=p.rounds[0].program + (
        proto.hadamard_gate("Q"),))
    rep = proto.validate(dataclasses.replace(p, rounds=(alice, p.rounds[1])))
    assert rep.violations == ["round 0: unknown register 'Q'"]


def test_running_a_gate_on_an_unknown_register_is_a_shape_error_naming_it():
    p = zoo.announced_query_protocol(4)
    table = (0, 1, 0, 1)
    alice = dataclasses.replace(p.rounds[0], program=p.rounds[0].program + (
        proto.hadamard_gate("Q"),))
    bad_round = dataclasses.replace(p, rounds=(alice, *p.rounds[1:]))
    bad_final = dataclasses.replace(
        p, final_a_program=p.final_a_program + (proto.hadamard_gate("Q"),))
    assert proto.validate(bad_round).violations == ["round 0: unknown register 'Q'"]
    assert proto.validate(bad_final).violations == ["final map: unknown register 'Q'"]
    state, _ = proto.run_conditioned(p, (0,), table)
    plus = np.array([1, 1]) / math.sqrt(2)
    runs = [
        lambda bad: proto.run_concrete(bad, table, seed=0),
        lambda bad: proto.run_purified(bad, seed=0),
        lambda bad: proto.run_conditioned(bad, (0,)),
        lambda bad: proto.enumerate_branches(bad, table),
        lambda bad: atk.full_attack(bad, 0.05, 0.05, table, seed=1),
        lambda bad: proto.final_map(bad, state),
        lambda bad: proto.deliver(bad, state, [1, 0]),
        lambda bad: proto.deliver(bad, state, plus),
    ]
    for bad, where in ((bad_round, "round 0"), (bad_final, "final map")):
        for run in runs:
            with pytest.raises(ProtocolShapeError, match=f"{where}: unknown register 'Q'"):
                run(bad)
