"""Property tests for random circuits run as ordinary protocol programs.

Circuits from ``random_ops`` and ``light_random_ops`` at n <= 3 over Z2 and
Z3: the instruction JSON round trip is lossless, a program followed by its
inverse is the identity on purified and fixed-table states, and every run
keeps the norm.  A fixed-table run through the shared oracle kernel equals,
bit for bit, an independent reference that answers each query with a basis
permutation built from the table (Z2, Z3 and Z2xZ2).
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import circuits
from qromlab.algebra import GroupSpec
from qromlab.oracle import OracleSpec, init_purified, init_table
from qromlab.protocol import Gate, Query, apply_instruction, apply_program, instruction_from_json
from qromlab.qstate import QuantumState, RegisterLayout

TOL = 1e-12


@st.composite
def programs(draw, groups=((2,), (3,))):
    """(spec, ops, table): a random or a light random circuit and one oracle table."""
    spec = OracleSpec(draw(st.integers(2, 3)), GroupSpec(draw(st.sampled_from(groups))))
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
    fixed = init_table(spec, circuits.work_registers(spec), table)
    for start in (purified, fixed):
        forward = apply_program(start, ops, dims(spec))
        assert abs(forward.norm() - 1.0) <= TOL
        back = apply_program(forward, ops, dims(spec), inverse=True)
        assert np.max(np.abs(back.amps - start.amps)) <= TOL
        assert abs(back.norm() - 1.0) <= TOL



def permutation_route(state, ops, spec, table, inverse=False):
    """Reference for fixed-table runs on an oracle-less state: gates through the
    interpreter, each query a basis permutation of (x, y) or of y built from ``table``."""
    group, q = spec.group, spec.group.order
    for instr in (list(ops)[::-1] if inverse else ops):
        if isinstance(instr, Gate):
            state = apply_instruction(state, instr, dims(spec), inverse=inverse)
            continue
        if instr.x_reg is not None and not state.is_fixed(instr.x_reg):
            x_dim = state.layout.dim(instr.x_reg)
            perm = np.array([x * q + group.add(y, table[x])
                             for x in range(x_dim) for y in range(q)])
            targets = [instr.x_reg, instr.y_reg]
        else:
            x = instr.x_const if instr.x_reg is None else state.fixed[instr.x_reg]
            perm = np.array([group.add(y, table[x]) for y in range(q)])
            targets = [instr.y_reg]
        state = state.permute_basis(np.argsort(perm) if inverse else perm, targets)
    return state


@settings(max_examples=80, deadline=None)
@given(programs(groups=((2,), (3,), (2, 2))), st.booleans(), st.booleans(), st.integers(0, 2))
def test_table_run_equals_the_permutation_reference_bit_for_bit(case, inverse, frozen, x):
    spec, ops, table = case
    x %= spec.domain_size
    regs = circuits.work_registers(spec)
    ops = list(ops) + [Query(circuits.Y_REG, x_const=x)]
    if frozen:  # the address register holds x; gates that would move it go
        regs = [r for r in regs if r.name != circuits.X_REG]
        ops = [op for op in ops if not (isinstance(op, Gate) and circuits.X_REG in op.targets)]
    start = init_table(spec, regs, table)
    reference = QuantumState.zero(RegisterLayout(regs))
    if frozen:
        start, reference = (s.attach_fixed(circuits.X_REG, x) for s in (start, reference))
    out = apply_program(start, ops, dims(spec), inverse=inverse)
    expected = permutation_route(reference, ops, spec, table, inverse=inverse)
    assert np.array_equal(out.amps, expected.amps)
