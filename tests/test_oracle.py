"""Purified-oracle behavior pinned against hand-built references.

The reference construction never touches the oracle module's kernels: it
builds the joint superposition over all tables directly in the
computational basis with plain numpy, applies queries as permutations,
and converts bases by explicit matrix multiplication.  A purified state
stores only the cells a query has reached; states are compared once both
hold every cell (``full``), and random dense states are built on the
explicit all-cells layout (``dense_purified``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qromlab
from qromlab import circuits, protocol, qstate, zoo
from qromlab.algebra import GroupSpec
from qromlab.errors import DimensionMismatchError, LayoutError, ZeroProbabilityError
from qromlab.oracle import (
    OracleSpec,
    PartialOracle,
    add_cells,
    all_weights,
    computational_support,
    fourier_support_size,
    init_purified,
    oracle_query,
    project_partial,
    spec_of,
    weight,
)
from qromlab.qstate import QuantumState, Register, RegisterLayout


def spec_z2(n=2):
    return OracleSpec(n, GroupSpec((2,)))


def full(state):
    """``state`` with every untouched cell made live at |0̂⟩."""
    return add_cells(state, range(state.layout.oracle.domain_size))


def dense_purified(spec, work_registers):
    """The uniform oracle on the explicit all-cells layout: every cell an axis at |0̂⟩."""
    cells = [Register(n, spec.group.order) for n in spec.cell_names()]
    layout = RegisterLayout(list(work_registers) + cells, spec)
    return QuantumState.zero(layout)


def to_computational(state):
    """Rotate every live oracle cell to the computational basis."""
    spec = state.layout.oracle
    out = state
    for x in state.layout.cells:
        out = out.apply_unitary(spec.group.fourier_matrix, [spec.cell_name(x)])
    return out


def hand_state_after_classical_query(spec, x, y0=0):
    """Sum over all tables of |y0 + h(x)> |h>, built from scratch."""
    q = spec.group.order
    n = spec.domain_size
    amps = np.zeros((q,) * (n + 1), dtype=np.complex128)
    norm = 1 / np.sqrt(q**n)
    for table in itertools.product(range(q), repeat=n):
        y = spec.group.add(y0, table[x])
        amps[(y,) + table] = norm
    return amps


def test_initial_state_is_uniform_over_tables():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("Yw", 2)])
    assert s.layout.names == ("Yw",)  # every cell untouched
    comp = to_computational(full(s))
    # |0> on the work register, uniform over the 4 tables
    expect = np.zeros((2, 2, 2), dtype=np.complex128)
    expect[0] = 0.5
    assert np.allclose(comp.amps, expect, atol=1e-12)


@pytest.mark.parametrize("factors,x", [((2,), 0), ((2,), 1), ((3,), 1), ((2, 2), 0)])
def test_classical_query_matches_hand_reference(factors, x):
    g = GroupSpec(factors)
    spec = OracleSpec(2, g)
    s = init_purified(spec, [Register("Yw", g.order)])
    s = oracle_query(s, "Yw", x_const=x)
    assert np.allclose(
        to_computational(full(s)).amps, hand_state_after_classical_query(spec, x), atol=1e-12
    )


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
def test_classical_query_weight_value(factors):
    """Weight of a classically queried cell is 1 - 1/|Y|.

    Derived from the hand reference: the cell's reduced density matrix is
    maximally mixed, so its flat-Fourier mass is 1/|Y|.
    """
    g = GroupSpec(factors)
    q = g.order
    spec = OracleSpec(2, g)
    amps = hand_state_after_classical_query(spec, 0)
    # reduced density matrix of cell 0 in the computational basis
    mat = np.moveaxis(amps, 1, 0).reshape(q, -1)
    rho = mat @ mat.conj().T
    f = g.fourier_matrix
    rho_hat = f.conj().T @ rho @ f
    derived = 1.0 - float(rho_hat[0, 0].real)
    assert derived == pytest.approx(1.0 - 1.0 / q, abs=1e-12)

    s = init_purified(spec, [Register("Yw", q)])
    s = oracle_query(s, "Yw", x_const=0)
    assert weight(s, 0) == pytest.approx(derived, abs=1e-12)
    assert weight(s, 1) == pytest.approx(0.0, abs=1e-12)


def test_query_with_fourier_basis_y_shifts_single_cell():
    g = GroupSpec((2,))
    spec = OracleSpec(2, g)
    s = init_purified(spec, [Register("Yw", 2)])
    # prepare the y register in the Fourier ket |1hat>
    flip = np.array([[0, 1], [1, 0]])
    s = s.apply_unitary(flip, ["Yw"]).apply_unitary(g.fourier_matrix, ["Yw"])
    s = oracle_query(s, "Yw", x_const=1)
    # cell H1 moves to Fourier index -1 = 1, everything else untouched
    expect = np.zeros((2, 2, 2), dtype=np.complex128)
    expect[0, 0, 1] = g.fourier_matrix[0, 1]
    expect[1, 0, 1] = g.fourier_matrix[1, 1]
    assert np.allclose(full(s).amps, expect, atol=1e-12)
    assert weight(s, 1) == pytest.approx(1.0)
    assert fourier_support_size(s) == 1


def test_second_query_into_fresh_register_keeps_weight():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("Y1", 2), Register("Y2", 2)])
    s = oracle_query(s, "Y1", x_const=0)
    w1 = weight(s, 0)
    s = oracle_query(s, "Y2", x_const=0)
    assert weight(s, 0) == pytest.approx(w1, abs=1e-12)
    # both registers hold the same value as the cell: y1 xor y2 is always 0
    parity = np.eye(4)[[0, 1, 3, 2]]  # cnot y1 -> y2
    probe = s.apply_unitary(parity, ["Y1", "Y2"])
    assert probe.probabilities("Y2")[0] == pytest.approx(1.0)


def test_double_query_same_register_is_identity_for_involutive_groups():
    rng = np.random.default_rng(0)
    for factors in [(2,), (2, 2)]:
        g = GroupSpec(factors)
        spec = OracleSpec(2, g)
        s = init_purified(spec, [Register("X", 2), Register("Yw", g.order)])
        s = s.apply_unitary(circuits.random_unitary(rng, 2), ["X"])
        s = s.apply_unitary(circuits.random_unitary(rng, g.order), ["Yw"])
        twice = oracle_query(oracle_query(s, "Yw", x_reg="X"), "Yw", x_reg="X")
        assert np.allclose(twice.amps, full(s).amps, atol=1e-10)


def test_query_then_inverse_is_identity():
    rng = np.random.default_rng(1)
    g = GroupSpec((3,))
    spec = OracleSpec(2, g)
    s = init_purified(spec, [Register("X", 2), Register("Yw", 3)])
    s = s.apply_unitary(circuits.random_unitary(rng, 2), ["X"])
    s = s.apply_unitary(circuits.random_unitary(rng, 3), ["Yw"])
    out = oracle_query(s, "Yw", x_reg="X")
    back = oracle_query(out, "Yw", x_reg="X", inverse=True)
    assert np.allclose(back.amps, full(s).amps, atol=1e-10)


def test_query_against_reference_permutation_on_random_states():
    """Fourier-picture kernel agrees with the computational-picture route."""
    rng = np.random.default_rng(2)
    for factors in [(2,), (3,), (2, 2)]:
        g = GroupSpec(factors)
        q = g.order
        spec = OracleSpec(2, g)
        base = dense_purified(spec, [Register("X", 2), Register("Yw", q)])
        v = rng.normal(size=base.layout.total_dim) + 1j * rng.normal(size=base.layout.total_dim)
        v /= np.linalg.norm(v)
        s = QuantumState.from_vector(base.layout, v)

        got = to_computational(oracle_query(s, "Yw", x_reg="X"))

        comp = to_computational(s)
        arr = comp.amps.copy()
        out = np.zeros_like(arr)
        for x in range(2):
            for table_idx in np.ndindex(*(q,) * 2):
                hx = table_idx[x]
                for y in range(q):
                    out[(x, g.add(y, hx)) + table_idx] = arr[(x, y) + table_idx]
        assert np.allclose(got.amps, out, atol=1e-9)


def test_project_partial_on_uniform_oracle():
    g = GroupSpec((3,))
    spec = OracleSpec(2, g)
    s = init_purified(spec, [Register("Yw", 3)])
    projected, prob = project_partial(s, PartialOracle(((0, 2),)))
    assert prob == pytest.approx(1 / 3)
    assert projected.fixed == {"H0": 2}
    assert weight(projected, 0) == 0.0
    assert computational_support(projected) == {(2, y) for y in range(3)}


def test_project_partial_contradiction_raises():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("Yw", 2)])
    s, _ = project_partial(s, PartialOracle(((0, 1),)))
    with pytest.raises(ZeroProbabilityError):
        project_partial(s, PartialOracle(((0, 0),)))


def test_project_partial_consistent_recollapse_is_noop():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("Yw", 2)])
    s, _ = project_partial(s, PartialOracle(((0, 1),)))
    again, prob = project_partial(s, PartialOracle(((0, 1),)))
    assert prob == pytest.approx(1.0)
    assert np.allclose(again.amps, s.amps)


def test_query_on_collapsed_cell_acts_classically():
    g = GroupSpec((2,))
    spec = OracleSpec(2, g)
    s = init_purified(spec, [Register("Yw", 2)])
    s, _ = project_partial(s, PartialOracle(((1, 1),)))
    s = oracle_query(s, "Yw", x_const=1)
    assert s.probabilities("Yw")[1] == pytest.approx(1.0)
    # and again, through a live address register spanning both cells
    s2 = init_purified(spec, [Register("X", 2), Register("Yw", 2)])
    s2, _ = project_partial(s2, PartialOracle(((0, 1),)))
    plus = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s2 = s2.apply_unitary(plus, ["X"])
    s2 = oracle_query(s2, "Yw", x_reg="X")
    s2, _ = s2.postselect("X", 0)
    assert s2.probabilities("Yw")[1] == pytest.approx(1.0)


def test_support_of_postselected_query_branch():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("Yw", 2)])
    s = oracle_query(s, "Yw", x_const=0)
    assert computational_support(s) == {(a, b) for a in range(2) for b in range(2)}
    branch, prob = s.postselect("Yw", 1)
    assert prob == pytest.approx(0.5)
    assert computational_support(branch) == {(1, 0), (1, 1)}


def test_fourier_support_bounded_by_query_count():
    rng = np.random.default_rng(9)
    spec = OracleSpec(3, GroupSpec((2,)))
    for queries in range(4):
        for _ in range(10):
            ops = circuits.random_ops(spec, rng, queries)
            state = circuits.run_purified(spec, ops)
            assert fourier_support_size(state) <= queries


def test_purified_distribution_matches_average_over_tables():
    rng = np.random.default_rng(12)
    for factors in [(2,), (3,)]:
        spec = OracleSpec(2, GroupSpec(factors))
        for queries in [1, 2, 3]:
            ops = circuits.random_ops(spec, rng, queries)
            purified = circuits.work_distribution(circuits.run_purified(spec, ops))
            averaged = circuits.averaged_fixed_distribution(spec, ops)
            assert circuits.total_variation(purified, averaged) <= 1e-9


def test_weight_invariant_under_work_unitaries():
    rng = np.random.default_rng(4)
    spec = spec_z2(2)
    s = init_purified(spec, [Register("X", 2), Register("Yw", 2)])
    s = oracle_query(s, "Yw", x_reg="X")
    u = circuits.random_unitary(rng, 4)
    moved = s.apply_unitary(u, ["X", "Yw"])
    for x in range(2):
        assert weight(moved, x) == pytest.approx(weight(s, x), abs=1e-12)


def test_query_register_dimension_checks():
    spec = spec_z2(2)
    s = init_purified(spec, [Register("X", 4), Register("Yw", 2)])
    with pytest.raises(DimensionMismatchError):
        oracle_query(s, "Yw", x_reg="X")  # address register larger than domain
    s2 = init_purified(spec, [Register("Yw", 3)])
    with pytest.raises(DimensionMismatchError):
        oracle_query(s2, "Yw", x_const=0)  # wrong range dimension


# -- untouched cells: stored only once a query addresses them --


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
def test_a_constant_address_query_stores_exactly_one_cell(factors):
    g = GroupSpec(factors)
    s = init_purified(OracleSpec(4, g), [Register("Yw", g.order)])
    assert s.layout.names == ("Yw",) and s.amps.size == g.order
    s = oracle_query(s, "Yw", x_const=2)
    assert s.layout.names == ("Yw", "H2") and s.amps.size == g.order**2 and s.fixed == {}


def test_an_address_register_adds_its_cells_in_domain_order():
    # H2 live, H0 frozen, H3 out of reach: the address adds only H1, before H2
    rng = np.random.default_rng(5)
    u_y, u_x = circuits.random_unitary(rng, 3), circuits.random_unitary(rng, 3)
    spec = OracleSpec(4, GroupSpec((3,)))
    work = [Register("X", 3), Register("Yw", 3)]
    states = []
    for start in (init_purified(spec, work), dense_purified(spec, work)):
        s = oracle_query(start.apply_unitary(u_y, ["Yw"]), "Yw", x_const=2)
        s, _ = project_partial(s, PartialOracle(((0, 1),)))
        states.append(oracle_query(s.apply_unitary(u_x, ["X"]), "Yw", x_reg="X"))
    lazy, dense = states
    assert lazy.layout.names == ("X", "Yw", "H1", "H2") and lazy.fixed == {"H0": 1}
    assert full(lazy).layout.names == dense.layout.names
    assert np.allclose(full(lazy).amps, dense.amps, rtol=0, atol=1e-12)


def test_untouched_cells_read_as_the_flat_state():
    g = GroupSpec((3,))
    spec = OracleSpec(3, g)
    fresh = init_purified(spec, [Register("Yw", 3)])
    every_table = set(itertools.product(range(3), repeat=3))
    assert all_weights(fresh).tolist() == [0.0, 0.0, 0.0]
    assert fourier_support_size(fresh) == 0
    assert computational_support(fresh) == every_table

    s = oracle_query(fresh, "Yw", x_const=1)  # H0 and H2 stay untouched
    assert all_weights(s)[[0, 2]].tolist() == [0.0, 0.0]
    assert np.allclose(all_weights(s), all_weights(full(s)), rtol=0, atol=1e-12)
    assert fourier_support_size(s) == fourier_support_size(full(s)) == 1
    assert computational_support(s) == computational_support(full(s)) == every_table

    projected, prob = project_partial(s, PartialOracle(((2, 1),)))
    assert prob == 1 / 3  # exactly, and without a pass over the amplitudes
    assert projected.amps is s.amps and projected.fixed == {"H2": 1}
    dense, dense_prob = project_partial(full(s), PartialOracle(((2, 1),)))
    assert dense_prob == pytest.approx(1 / 3, abs=1e-12)
    assert full(projected).layout.names == dense.layout.names
    assert np.allclose(full(projected).amps, dense.amps, rtol=0, atol=1e-12)
    assert computational_support(projected) == {t for t in every_table if t[2] == 1}


def test_cells_out_of_domain_order_are_refused_at_construction_and_load():
    """No layout holds its cells out of domain order, so no reader has to name them."""
    spec = OracleSpec(3, GroupSpec((3,)))
    layout = RegisterLayout([Register(n, 3) for n in ("Yw", "H0", "H1", "H2")], spec)
    assert layout.cells == (0, 1, 2)
    with pytest.raises(LayoutError, match="domain order"):
        layout.with_registers([layout.register(n) for n in ("Yw", "H2", "H1", "H0")])
    dump = QuantumState.zero(layout).dump()
    registers = dump["layout"]["registers"]
    dump["layout"]["registers"] = [registers[i] for i in (0, 3, 2, 1)]
    with pytest.raises(LayoutError, match="domain order"):
        QuantumState.load(dump)


def test_layout_cells_follow_every_layout_a_kernel_derives():
    spec = OracleSpec(4, GroupSpec((2,)))
    s = init_purified(spec, [Register("Yw", 2)]).apply_unitary(spec.group.fourier_matrix, ["Yw"])
    assert s.layout.cells == ()
    for x, cells in ((3, (3,)), (0, (0, 3)), (2, (0, 2, 3))):
        s = oracle_query(s, "Yw", x_const=x)
        assert s.layout.cells == cells
    assert s.layout.names == ("Yw", "H0", "H2", "H3")
    s = s.attach_register(Register("m", 3), np.eye(3)[1])
    assert s.layout.names == ("Yw", "m", "H0", "H2", "H3")
    assert s.layout.cells == (0, 2, 3)
    s = s.rename_register("m", "msg")
    assert s.layout.names == ("Yw", "msg", "H0", "H2", "H3")
    assert s.layout.cells == (0, 2, 3)
    s, _ = s.collapse_register("H2", int(np.argmax(s.probabilities("H2"))))
    assert s.layout.names == ("Yw", "msg", "H0", "H3")
    assert s.layout.cells == (0, 3)
    assert "H2" in s.fixed


# -- fused kernels against the per-cell formula and the three-step route --

GROUPS = [(2,), (3,), (2, 2)]


def random_oracle_state(group_factors, domain_size, x_dim, seed, learned, x_first=True):
    """Random normalized state over (X, Yw, cells), or (Yw, X, cells) unless
    ``x_first``, with ``learned`` cells collapsed.

    Every basis state carries mass, so each projection has a nonzero branch.
    """
    g = GroupSpec(group_factors)
    spec = OracleSpec(domain_size, g)
    work = [Register("X", x_dim), Register("Yw", g.order)]
    base = dense_purified(spec, work if x_first else work[::-1])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=base.layout.total_dim) + 1j * rng.normal(size=base.layout.total_dim)
    s = QuantumState.from_vector(base.layout, v / np.linalg.norm(v))
    pairs = tuple((x, int(rng.integers(g.order))) for x in learned)
    s, _ = project_partial(s, PartialOracle(pairs))
    return s


@st.composite
def oracle_states(draw):
    """Groups Z2, Z3 and Z2xZ2; any subset of the cells learned; X reaches a
    prefix and sits before or after Yw."""
    factors = draw(st.sampled_from(GROUPS))
    n = draw(st.integers(2, 3))
    x_dim = draw(st.integers(2, n))
    learned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_oracle_state(factors, n, x_dim, seed, learned, draw(st.booleans()))


def reference_weight(state, x):
    """1 - ||amps[cell=0]||^2 / ||amps||^2, one full pass per cell."""
    cell = f"H{x}"
    if cell in state.fixed:
        return 0.0
    slicer = [slice(None)] * state.amps.ndim
    slicer[state.layout.axis(cell)] = 0
    flat = np.sum(np.abs(state.amps[tuple(slicer)]) ** 2)
    return 1.0 - flat / np.sum(np.abs(state.amps) ** 2)


@settings(max_examples=60, deadline=None)
@given(oracle_states())
def test_all_weights_matches_per_cell_formula(state):
    n = state.layout.oracle.domain_size
    expect = [reference_weight(state, x) for x in range(n)]
    assert np.allclose(all_weights(state), expect, rtol=0, atol=1e-12)
    for x in range(n):
        assert weight(state, x) == pytest.approx(expect[x], rel=0, abs=1e-12)


def three_step_query(state, y_reg, x_reg=None, x_const=None, inverse=False):
    """Rotate y to its Fourier basis, shift (or phase) the cell, rotate back."""
    g = state.layout.oracle.group
    q = g.order
    work = state.apply_unitary(g.fourier_matrix.conj().T, [y_reg])
    amps = work.amps
    y_ax = work.layout.axis(y_reg)

    def one_cell(sub, x, shift):
        cell = f"H{x}"
        if cell in work.fixed:
            phases = g.character_table[:, work.fixed[cell]]
            if inverse:
                phases = phases.conj()
            shape = [1] * sub.ndim
            shape[shift(y_ax)] = q
            return sub * phases.reshape(shape)
        moved = np.moveaxis(sub, (shift(y_ax), shift(work.layout.axis(cell))), (0, 1))
        out = np.empty_like(moved)
        for yhat in range(q):
            for b in range(q):
                src = g.sub(b, yhat) if inverse else g.add(b, yhat)
                out[yhat, b] = moved[yhat, src]
        return np.moveaxis(out, (0, 1), (shift(y_ax), shift(work.layout.axis(cell))))

    if x_const is not None:
        out = one_cell(amps, x_const, lambda a: a)
    else:
        x_ax = work.layout.axis(x_reg)
        out = np.empty_like(amps)
        idx = [slice(None)] * amps.ndim
        for x in range(work.layout.dim(x_reg)):
            idx[x_ax] = x
            out[tuple(idx)] = one_cell(amps[tuple(idx)], x, lambda a: a - 1 if a > x_ax else a)
    shifted = QuantumState(work.layout, out, dict(work.fixed))
    return shifted.apply_unitary(g.fourier_matrix, [y_reg])


@settings(max_examples=80, deadline=None)
@given(oracle_states(), st.booleans(), st.booleans(), st.data())
def test_fused_query_matches_three_step_route(state, by_register, inverse, data):
    if by_register:
        kwargs = {"x_reg": "X"}
    else:
        kwargs = {"x_const": data.draw(st.integers(0, state.layout.oracle.domain_size - 1))}
    got = oracle_query(state, "Yw", inverse=inverse, **kwargs)
    expect = three_step_query(state, "Yw", inverse=inverse, **kwargs)
    assert got.layout is state.layout and got.fixed == expect.fixed
    assert np.allclose(got.amps, expect.amps, rtol=0, atol=1e-12)


def test_oracle_spec_is_one_class():
    assert qromlab.OracleSpec is qromlab.oracle.OracleSpec is qstate.OracleSpec is OracleSpec


def test_every_derived_layout_keeps_its_oracle_and_cap():
    p = zoo.announced_query_protocol(4)
    spec = p.oracle
    cap = 2**12
    start = init_purified(spec, [Register(r.name, r.dim) for r in p.registers], cap)
    one_cell = add_cells(start, [1])
    derived = [
        start.collapse_register("T1", 0)[0],
        start.attach_register(Register("W", 2), [1.0, 0.0]),
        start.rename_register("YA", "YA2"),
        one_cell,
        oracle_query(start, "YA", x_const=2),
        project_partial(one_cell, PartialOracle(((1, 0), (2, 1))))[0],
        protocol.extract_alice_state(start, p),
    ]
    assert [len(s.layout.names) for s in derived] == [5, 7, 6, 7, 7, 6, 3]
    for s in derived:
        assert s.layout.oracle is spec and s.layout.amplitude_cap == cap
        assert spec_of(s) is s.layout.oracle
