"""Goodstate predicates and the compatibility machinery."""

import itertools
import json

import numpy as np
import pytest

from qromlab import attack as atk
from qromlab import pcc, zoo
from qromlab.algebra import cyclic
from qromlab.circuits import light_random_ops, run_purified
from qromlab.errors import DomainError
from qromlab.oracle import (
    OracleSpec,
    add_cells,
    computational_support,
    init_purified,
    oracle_query,
)
from qromlab.protocol import Protocol, ProtocolRegister, Query, Step
from qromlab.qstate import QuantumState, Register, RegisterLayout

Z2 = cyclic(2)
Z3 = cyclic(3)


def test_fresh_oracle_is_good_at_any_bounds():
    state = init_purified(OracleSpec(3, Z2), [])
    for delta in (0.01, 0.5, 1.0):
        rep = pcc.is_goodstate(state, delta, 0)
        assert rep == pcc.GoodStateReport(0, 0.0, True, True)
        assert rep.good


def test_pinned_cell_weight_and_sparsity():
    for group, expected in ((Z2, 0.5), (Z3, 2 / 3)):
        spec = OracleSpec(2, group)
        state = pcc.pin_cell(init_purified(spec, []), spec, 0, 1)
        rep = pcc.is_goodstate(state, 1.0, 1)
        assert rep.sparsity == 1
        assert rep.max_weight == pytest.approx(expected)
        assert rep.good
        assert not pcc.is_goodstate(state, expected - 0.01, 1).is_delta_light
        assert not pcc.is_goodstate(state, 1.0, 0).is_d_sparse


def test_fully_shifted_cell_is_never_light():
    # y sits in the shift eigenstate, so the queried cell keeps no flat mass
    spec = OracleSpec(2, Z2)
    state = init_purified(spec, [Register("y", 2)])
    state = state.permute_basis(np.array([1, 0]), ["y"])
    state = state.apply_unitary(Z2.fourier_matrix, ["y"])
    state = oracle_query(state, "y", x_const=0)
    rep = pcc.is_goodstate(state, 0.99, 1)
    assert rep.max_weight == pytest.approx(1.0)
    assert not rep.is_delta_light
    assert rep.is_d_sparse


def test_goodstate_parameter_validation():
    state = init_purified(OracleSpec(2, Z2), [])
    with pytest.raises(DomainError):
        pcc.is_goodstate(state, 0.0, 1)
    with pytest.raises(DomainError):
        pcc.is_goodstate(state, 1.2, 1)
    with pytest.raises(DomainError):
        pcc.is_goodstate(state, 0.5, -1)


def test_compatibility_basics():
    spec = OracleSpec(2, Z2)
    fresh = init_purified(spec, [])
    assert pcc.compatible(fresh, fresh)
    phi, psi = pcc.collapsed_pair_fixture(spec)
    assert pcc.compatible(phi, phi)
    assert not pcc.compatible(phi, psi)
    assert not pcc.compatible(psi, phi)
    assert pcc.support_overlap_margin(phi, psi) == 0.0
    assert pcc.support_overlap_margin(fresh, phi) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        pcc.compatible(fresh, init_purified(OracleSpec(3, Z2), []))


def test_fixture_passes_filter_only_when_delta_allows():
    phi, psi = pcc.collapsed_pair_fixture()
    for s in (phi, psi):
        assert pcc.is_goodstate(s, 1.0, 1).good
        assert pcc.is_goodstate(s, 0.5, 1).good
        assert not pcc.is_goodstate(s, 0.1, 1).good


def test_fixture_supports_are_the_two_halves():
    phi, psi = pcc.collapsed_pair_fixture(OracleSpec(2, Z2))
    assert computational_support(phi) == {(0, 0), (0, 1)}
    assert computational_support(psi) == {(1, 0), (1, 1)}


def test_light_circuits_respect_sparsity_bound():
    spec = OracleSpec(4, Z2)
    rng = np.random.default_rng(31)
    for d in (0, 1, 2):
        for _ in range(5):
            state = run_purified(spec, light_random_ops(spec, rng, d, 0.1))
            assert pcc.is_goodstate(state, 1.0, d).is_d_sparse


def test_search_consistent_with_conjecture_at_desk_scale():
    res = pcc.search_counterexample(OracleSpec(4, Z2), 0.1, 2, trials=300, seed=5)
    assert res.hit is None
    assert res.trials == 300
    assert res.goodstate_pairs > 0
    assert res.min_margin is not None and res.min_margin > 0.0


def test_search_with_no_queries_keeps_full_support():
    res = pcc.search_counterexample(OracleSpec(2, Z2), 0.5, 0, trials=40, seed=1)
    assert res.hit is None
    assert res.goodstate_pairs == 40
    assert res.min_margin == pytest.approx(1.0)


def test_search_is_deterministic():
    a = pcc.search_counterexample(OracleSpec(4, Z2), 0.1, 2, trials=50, seed=9)
    b = pcc.search_counterexample(OracleSpec(4, Z2), 0.1, 2, trials=50, seed=9)
    fields = [(r.trials, r.goodstate_pairs, r.min_margin, r.hit and r.hit.to_json())
              for r in (a, b)]
    assert fields[0] == fields[1]


def test_search_parameter_validation():
    spec = OracleSpec(2, Z2)
    with pytest.raises(DomainError):
        pcc.search_counterexample(spec, 0.1, 2, trials=0, seed=0)
    with pytest.raises(DomainError):
        pcc.search_counterexample(spec, 0.0, 2, trials=5, seed=0)
    with pytest.raises(DomainError):
        pcc.search_counterexample(spec, 0.1, -2, trials=5, seed=0)


def test_hit_serialization_roundtrips_through_json():
    phi, psi = pcc.collapsed_pair_fixture()
    rep = pcc.is_goodstate(phi, 1.0, 1)
    hit = pcc.SearchHit(3, [], [], phi, psi, rep, rep)
    blob = json.loads(json.dumps(hit.to_json()))
    assert blob["trial"] == 3
    assert blob["report_a"]["sparsity"] == 1


def attack_dump(p, table, delta, seed=7):
    out = atk.full_attack(p, 0.05, 0.05, table, seed=seed, keep_states=True)
    return {
        "protocol": p.to_json(),
        "transcript": list(out.transcript),
        "simulated_state": out.artifacts["simulated_state"].dump(),
        "table": list(table),
        "delta": delta,
        "d": p.query_budget,
    }


def test_attack_dump_checker_confirms_honest_runs():
    p = zoo.announced_query_protocol(4)
    dump = json.loads(json.dumps(attack_dump(p, (1, 0, 1, 1), delta=0.6)))
    rep = pcc.check_attack_dump(dump)
    assert rep["compatible"]
    assert rep["table_in_both_supports"]
    assert rep["both_goodstates"]
    assert not rep["contradicts_conjecture"]
    assert rep["margin"] == pytest.approx(0.5)


def test_attack_dump_checker_notices_clashing_sim_table():
    # a simulated state pinning the announced cell to the wrong value still
    # intersects the real conditioned state (the transcript never reveals
    # the cell's value), but the real table drops out of the shared support
    p = zoo.announced_query_protocol(4)
    table = (1, 0, 1, 1)
    dump = attack_dump(p, table, delta=0.6)
    spec = OracleSpec(4, Z2)
    x_star = dump["transcript"][0]
    wrong = pcc.pin_cell(init_purified(spec, []), spec, x_star, 1 - table[x_star])
    dump["simulated_state"] = wrong.dump()
    rep = pcc.check_attack_dump(json.loads(json.dumps(dump)))
    assert rep["compatible"]
    assert not rep["table_in_both_supports"]
    assert not rep["contradicts_conjecture"]


@pytest.mark.parametrize("name", ["announced-query", "merkle", "ka-from-toy-qpke"])
def test_attack_dump_checker_reads_a_dense_dump_like_the_lazy_one(name):
    p = zoo.standard_zoo(4)[name]
    dump = json.loads(json.dumps(attack_dump(p, (1, 0, 1, 1), delta=0.6)))
    sim = QuantumState.load(dump["simulated_state"])
    assert any(c not in sim.layout and c not in sim.fixed for c in ("H0", "H1", "H2", "H3"))
    dense = dict(dump, simulated_state=add_cells(sim, range(4)).dump())
    assert pcc.check_attack_dump(json.loads(json.dumps(dense))) == pcc.check_attack_dump(dump)


def test_pin_cell_makes_an_untouched_cell_live():
    spec = OracleSpec(3, Z3)
    pinned = pcc.pin_cell(init_purified(spec, []), spec, 1, 2)
    assert pinned.layout.names == ("H1",)
    dense = QuantumState.zero(RegisterLayout(spec.registers(), Z3, 3))
    reference = pcc.pin_cell(dense, spec, 1, 2)
    assert np.allclose(add_cells(pinned, range(3)).amps, reference.amps, rtol=0, atol=1e-12)
    assert computational_support(pinned) == {
        t for t in itertools.product(range(3), repeat=3) if t[1] == 2}


def leaky_protocol():
    """Alice announces her query result, pinning the cell's value."""
    regs = (
        ProtocolRegister("T1", 2, "T"),
        ProtocolRegister("KA", 2, "A"),
        ProtocolRegister("KB", 2, "B"),
        ProtocolRegister("M", 2, "M"),
    )
    return Protocol(
        name="leaky",
        group=Z2,
        domain_size=2,
        registers=regs,
        rounds=(
            Step("A", (Query("T1", x_const=0),), message="T1"),
            Step("B", (), message="M"),
        ),
        final_a_program=(),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def test_attack_dump_checker_flags_genuine_contradiction():
    # conditioning on the announced value pins cell 0 in the real state, so
    # a simulated state pinning it the other way is provably incompatible
    p = leaky_protocol()
    spec = OracleSpec(2, Z2)
    wrong = pcc.pin_cell(init_purified(spec, []), spec, 0, 1)
    dump = {
        "protocol": p.to_json(),
        "transcript": [0],
        "simulated_state": wrong.dump(),
        "table": [0, 0],
        "delta": 0.6,
        "d": 1,
    }
    rep = pcc.check_attack_dump(json.loads(json.dumps(dump)))
    assert not rep["compatible"]
    assert rep["margin"] == 0.0
    assert rep["both_goodstates"]
    assert rep["contradicts_conjecture"]
    assert not rep["table_in_both_supports"]
