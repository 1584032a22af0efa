"""Property tests for random circuits run as ordinary protocol programs.

Circuits from ``random_ops`` and ``light_random_ops`` at n <= 3 over Z2 and
Z3: the instruction JSON round trip is lossless, a program followed by its
inverse is the identity on purified and fixed-table states, and every run
keeps the norm.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import circuits
from qromlab.algebra import GroupSpec
from qromlab.oracle import OracleSpec, init_purified
from qromlab.protocol import apply_program, instruction_from_json
from qromlab.qstate import QuantumState, RegisterLayout

TOL = 1e-12


@st.composite
def programs(draw):
    """(spec, ops, table): a random or a light random circuit and one oracle table."""
    spec = OracleSpec(draw(st.integers(2, 3)), GroupSpec(draw(st.sampled_from([(2,), (3,)]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = draw(st.integers(0, 3))
    if draw(st.booleans()):
        ops = circuits.light_random_ops(spec, rng, queries, draw(st.floats(0.01, 1.0)))
    else:
        ops = circuits.random_ops(spec, rng, queries)
    table = tuple(draw(st.lists(st.integers(0, spec.group.order - 1),
                                min_size=spec.domain_size, max_size=spec.domain_size)))
    return spec, ops, table


def dims(spec):
    return {r.name: r.dim for r in circuits.work_registers(spec)}


@settings(max_examples=60, deadline=None)
@given(programs())
def test_instruction_json_round_trip_reproduces_the_state_bit_for_bit(case):
    spec, ops, _ = case
    decoded = [instruction_from_json(json.loads(json.dumps(op.to_json()))) for op in ops]
    assert [op.to_json() for op in decoded] == [op.to_json() for op in ops]
    original = circuits.run_purified(spec, ops).amps
    assert np.array_equal(circuits.run_purified(spec, decoded).amps, original)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_program_then_inverse_restores_the_state_and_keeps_the_norm(case):
    spec, ops, table = case
    purified = init_purified(spec, circuits.work_registers(spec))
    fixed = QuantumState.zero(RegisterLayout(circuits.work_registers(spec)))
    for start, tab in ((purified, None), (fixed, table)):
        forward = apply_program(start, ops, spec.group, dims(spec), table=tab)
        assert abs(forward.norm() - 1.0) <= TOL
        back = apply_program(forward, ops, spec.group, dims(spec), table=tab, inverse=True)
        assert np.max(np.abs(back.amps - start.amps)) <= TOL
        assert abs(back.norm() - 1.0) <= TOL

