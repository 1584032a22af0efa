"""Exhaustive checks of the shipped protocols at small parameters.

Everything here enumerates: all oracle tables, all transcript branches.
Key agreement must be perfect branch-wise, the purified and fixed-table
pictures must give the same statistics, and the two labs must stay in a
product state once transcript and table are fixed.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qromlab import protocol as proto
from qromlab import zoo
from qromlab.algebra import GroupSpec, cyclic
from qromlab.errors import DomainError
from qromlab.oracle import all_weights

Z2 = cyclic(2)


def zoo_at(n):
    return zoo.standard_zoo(n, Z2)


def test_every_zoo_protocol_validates():
    for name, p in zoo_at(4).items():
        rep = proto.validate(p)
        assert rep.ok, (name, rep.violations)
        if name == "trivial-last-message":
            assert any("active attack" in note for note in rep.notices)
        else:
            assert not any(n.startswith("alice-final-query:") for n in rep.notices)


def test_perfect_correctness_over_all_tables():
    for name, p in zoo_at(4).items():
        spec = p.oracle
        for table in spec.all_tables():
            dist = proto.joint_distribution(p, table=table)
            for (_, k_B, k_A), mass in dist.items():
                if mass < 1e-12:
                    continue
                assert k_A == k_B, (name, table)
                assert k_A != 2, (name, table)


def test_purified_equals_averaged_concrete():
    for name, p in zoo_at(2).items():
        purified = proto.joint_distribution(p)
        averaged = proto.averaged_concrete_distribution(p)
        tv = proto.distribution_tv(purified, averaged)
        assert tv < 1e-9, (name, tv)


def test_labs_are_product_given_transcript_and_table():
    for name, p in zoo_at(2).items():
        alice_regs = p.regs_with_role("A")
        spec = p.oracle
        for table in spec.all_tables():
            for branch in proto.enumerate_branches(p, table=table):
                sv = branch.state.schmidt_spectrum(alice_regs)
                assert len(sv) == 1 or sv[1] <= 1e-9, (name, table, branch.transcript)


def test_announced_query_weights_after_conditioning():
    p = zoo.announced_query_protocol(4, Z2)
    for x_star in range(4):
        state, prob = proto.run_conditioned(p, (x_star,))
        assert prob == pytest.approx(0.25)
        w = all_weights(state)
        # Copying a cell into any number of classical registers leaves its
        # reduced state maximally mixed, so the weight is 1 - 1/|Y|.
        assert w[x_star] == pytest.approx(0.5)
        for x in range(4):
            if x != x_star:
                assert w[x] == pytest.approx(0.0, abs=1e-12)


def test_merkle_weights_and_shape():
    p = zoo.merkle_ka_protocol(4, Z2, puzzle_count=2)
    assert p.classical_messages == ("T1", "T2")
    bob_queries = sum(proto.query_count(s.program) for s in p.rounds if s.party == "B")
    assert (p.query_budget, bob_queries) == (2, 1)  # so Alice makes 2
    state, prob = proto.run_conditioned(p, (1, 0))
    assert prob == pytest.approx(0.25)
    w = all_weights(state)
    assert w[0] == pytest.approx(0.5)  # Bob's pick, also one of Alice's puzzles
    assert w[1] == pytest.approx(0.5)  # Alice's other puzzle
    assert w[2] == pytest.approx(0.0, abs=1e-12)
    assert w[3] == pytest.approx(0.0, abs=1e-12)


def test_trivial_message_spreads_weight_thin():
    p = zoo.trivial_last_message_protocol(4, Z2)
    state, prob = proto.run_conditioned(p, ())
    assert prob == pytest.approx(1.0)
    w = all_weights(state)
    assert np.allclose(w, 0.125)


def test_trivial_concrete_key_is_oracle_bit_of_sent_address():
    p = zoo.trivial_last_message_protocol(4, Z2)
    table = (0, 1, 1, 0)
    for seed in range(6):
        run = proto.run_concrete(p, table, seed=seed)
        k_B = run.state.fixed[p.key_reg_b]
        ensemble = proto.message_ensemble(run.state, p)
        # one component per address consistent with Bob's key bit
        assert len(ensemble) == sum(1 for v in table if v == k_B)
        for comp in ensemble:
            sent = comp.values[0]
            assert table[sent] == k_B
            expected = np.zeros(4)
            expected[sent] = 1.0
            assert np.allclose(comp.vector, expected)
        # Alice's final map on the run's own state outputs Bob's key with certainty
        assert proto.final_map(p, run.state)[0][k_B] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_constant_key_protocol_is_constant():
    p = zoo.constant_key_protocol()
    dist = proto.joint_distribution(p)
    assert dist == {((), 0, 0): pytest.approx(1.0)}


def test_qpke_reduction_flags_follow_dec():
    clean = zoo.ka_from_qpke(zoo.toy_qpke(4, Z2))
    assert clean.alice_no_final_query
    rep = proto.validate(clean)
    assert rep.ok and rep.notices == []

    querying = zoo.ka_from_qpke(zoo.toy_qpke(4, Z2, querying_dec=True))
    assert not querying.alice_no_final_query
    rep = proto.validate(querying)
    assert rep.ok
    assert any("active attack" in n for n in rep.notices)

    spec = querying.oracle
    for table in spec.all_tables():
        dist = proto.joint_distribution(querying, table=table)
        for (_, k_B, k_A), mass in dist.items():
            if mass > 1e-12:
                assert k_A == k_B != 2


def test_zoo_protocols_roundtrip_through_json():
    for name, p in zoo_at(3).items():
        blob = json.dumps(p.to_json())
        q = proto.Protocol.from_json(json.loads(blob))
        assert q.to_json() == p.to_json(), name


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
def test_json_text_roundtrip_keeps_the_joint_distribution(factors):
    for name, p in zoo.standard_zoo(3, GroupSpec(factors)).items():
        q = proto.Protocol.from_json(json.loads(json.dumps(p.to_json())))
        assert proto.joint_distribution(q) == proto.joint_distribution(p), name


def test_every_branch_is_the_forced_run_of_its_transcript():
    for name, p in zoo_at(4).items():
        branches = proto.enumerate_branches(p)
        assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12, name
        for branch in branches:
            state, prob = proto.run_conditioned(p, branch.transcript)
            assert abs(prob - branch.probability) <= 1e-12, (name, branch.transcript)
            assert np.max(np.abs(state.amps - branch.state.amps)) <= 1e-12, name


def test_parameter_validation():
    with pytest.raises(DomainError):
        zoo.announced_query_protocol(1)
    with pytest.raises(DomainError):
        zoo.merkle_ka_protocol(4, Z2, puzzle_count=5)
    with pytest.raises(DomainError):
        zoo.merkle_ka_protocol(4, Z2, puzzle_count=1)


GROUPS = [(2,), (3,), (2, 2)]


def zoo_with_querying_dec(n, group):
    protocols = dict(zoo.standard_zoo(n, group))
    protocols["ka-from-toy-qpke-querying-dec"] = zoo.ka_from_qpke(
        zoo.toy_qpke(n, group, querying_dec=True))
    return protocols


# (d, Alice's final map stays off the oracle, message kind per round)
DERIVED = {
    "announced-query": (1, True, ("classical", "quantum")),
    "merkle": (2, True, ("classical", "classical", "quantum")),
    "trivial-last-message": (1, False, ("classical", "quantum")),
    "constant-key": (0, True, ("classical", "quantum")),
    "ka-from-toy-qpke": (1, True, ("classical", "quantum")),
    "ka-from-toy-qpke-querying-dec": (1, False, ("classical", "quantum")),
}


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("factors", GROUPS)
def test_budget_flag_and_kinds_are_read_off_the_programs(n, factors):
    for name, p in zoo_with_querying_dec(n, GroupSpec(factors)).items():
        d, clean, kinds = DERIVED[name]
        assert p.query_budget == d, name
        assert p.alice_no_final_query is clean, name
        assert tuple(p.message_kind(s) for s in p.rounds) == kinds, name
        data = p.to_json()
        assert (data["query_budget"], data["alice_no_final_query"]) == (d, clean), name
        assert tuple(r["message_kind"] for r in data["rounds"]) == kinds, name
    for querying_dec in (False, True):
        assert zoo.toy_qpke(n, GroupSpec(factors), querying_dec).dec_queries_oracle is querying_dec


def test_budget_flag_and_kinds_are_not_fields():
    names = {f.name for cls in (proto.Protocol, proto.Step, zoo.QpkeScheme)
             for f in dataclasses.fields(cls)}
    assert not names & {"query_budget", "alice_no_final_query", "message_kind",
                        "dec_queries_oracle", "ensemble_regs"}


def test_zoo_json_is_unchanged():
    """Every zoo protocol's JSON text, hashed, against the recorded hashes."""
    recorded = json.loads((Path(__file__).parent / "data" / "zoo_json.json").read_text())
    got = {}
    for factors in GROUPS:
        for n in (3, 4, 8):
            for name, p in zoo_with_querying_dec(n, GroupSpec(factors)).items():
                text = json.dumps(p.to_json(), sort_keys=True).encode()
                got[f"{name} n={n} group={list(factors)}"] = hashlib.sha256(text).hexdigest()
    assert got == recorded
