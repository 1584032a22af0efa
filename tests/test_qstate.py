import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.algebra import GroupSpec
from qromlab.errors import (
    CapacityError,
    DimensionMismatchError,
    LayoutError,
    NonUnitaryError,
    ZeroProbabilityError,
)
from qromlab.qstate import (
    CheckedOp,
    DensityOperator,
    OracleSpec,
    QuantumState,
    Register,
    RegisterLayout,
    as_unitary,
    canonical_phase,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
Z2 = GroupSpec((2,))


def two_qubits():
    return RegisterLayout([Register("a", 2), Register("b", 2)])


def test_zero_state_and_norm():
    s = QuantumState.zero(two_qubits())
    assert s.norm() == pytest.approx(1.0)
    assert s.amps[0, 0] == 1.0


def test_layout_rejects_duplicates_small_dims_and_cap():
    with pytest.raises(LayoutError):
        RegisterLayout([Register("a", 2), Register("a", 2)])
    with pytest.raises(LayoutError):
        Register("a", 1)
    with pytest.raises(LayoutError):
        RegisterLayout([])
    with pytest.raises(CapacityError):
        RegisterLayout([Register("a", 64), Register("b", 64)], amplitude_cap=1024)


def test_oracle_cells_must_come_last():
    with pytest.raises(LayoutError, match="after all other registers"):
        RegisterLayout([Register("H0", 2), Register("a", 2)], OracleSpec(1, Z2))


def test_apply_unitary_rejects_non_unitary():
    s = QuantumState.zero(two_qubits())
    with pytest.raises(NonUnitaryError):
        s.apply_unitary(np.array([[1, 1], [0, 1]]), ["a"])
    with pytest.raises(NonUnitaryError):
        s.apply_unitary(np.array([[np.nan, 0], [0, 1]]), ["a"])
    with pytest.raises(DimensionMismatchError, match="not a permutation"):
        s.permute_basis(np.array([0, 0]), ["a"])


def test_a_checked_op_is_applied_only_where_its_size_and_kind_fit():
    s = QuantumState.zero(two_qubits())
    for kernel, op in ((s.apply_unitary, CheckedOp("matrix", np.eye(4))),
                       (s.permute_basis, CheckedOp("perm", np.arange(4)))):
        with pytest.raises(DimensionMismatchError):
            kernel(op, ["a"])
        assert np.array_equal(kernel(op, ["a", "b"]).amps, s.amps)
    with pytest.raises(DimensionMismatchError):
        s.permute_basis(CheckedOp("matrix", np.eye(2)), ["a"])
    with pytest.raises(DimensionMismatchError):
        s.apply_unitary(CheckedOp("perm", np.arange(2)), ["a"])


def test_nan_fails_every_numeric_check():
    nan_matrix = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(NonUnitaryError):
        as_unitary(nan_matrix, 2)
    with pytest.raises(DimensionMismatchError):
        DensityOperator([Register("a", 2)], nan_matrix)
    with pytest.raises(DimensionMismatchError):
        DensityOperator.from_pure([Register("a", 2)], [np.nan, 0])
    with pytest.raises(DimensionMismatchError):
        QuantumState.from_vector(two_qubits(), [np.nan, 0, 0, 0])
    data = QuantumState.zero(two_qubits()).dump()
    data["amps"][0]["re"] = float("nan")
    with pytest.raises(DimensionMismatchError):
        QuantumState.load(json.loads(json.dumps(data)))
    with pytest.raises(DimensionMismatchError):
        QuantumState.zero(two_qubits()).attach_register(Register("m", 2), [np.nan, 0])


def test_unitary_preserves_norm_random():
    rng = np.random.default_rng(7)
    layout = RegisterLayout([Register("a", 2), Register("b", 3)])
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    s = QuantumState.from_vector(layout, v)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(z)
    s2 = s.apply_unitary(q, ["a", "b"])
    assert s2.norm() == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_postselect_and_schmidt():
    s = QuantumState.zero(two_qubits())
    s = s.apply_unitary(HADAMARD, ["a"])
    cnot = np.eye(4)[[0, 1, 3, 2]]
    s = s.apply_unitary(cnot, ["a", "b"])
    assert s.schmidt_rank(["a"]) == 2
    conditioned, prob = s.postselect("a", 0)
    assert prob == pytest.approx(0.5)
    assert conditioned.norm() == pytest.approx(1.0)
    assert conditioned.amps[0, 0] == pytest.approx(1.0)
    # probabilities over each branch sum to one
    assert s.probabilities("b").sum() == pytest.approx(1.0)


def test_postselect_zero_probability_branch():
    s = QuantumState.zero(two_qubits())
    with pytest.raises(ZeroProbabilityError):
        s.postselect("a", 1)


def test_collapse_register_freezes_value():
    s = QuantumState.zero(two_qubits())
    s = s.apply_unitary(HADAMARD, ["a"])
    collapsed, prob = s.collapse_register("a", 1)
    assert prob == pytest.approx(0.5)
    assert collapsed.fixed == {"a": 1}
    assert "a" not in collapsed.layout
    assert collapsed.norm() == pytest.approx(1.0)


def test_permute_basis_matches_matrix():
    rng = np.random.default_rng(3)
    layout = RegisterLayout([Register("a", 2), Register("b", 2)])
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    s = QuantumState.from_vector(layout, v)
    perm = np.array([0, 1, 3, 2])
    mat = np.zeros((4, 4))
    for src, dst in enumerate(perm):
        mat[dst, src] = 1.0
    via_perm = s.permute_basis(perm, ["a", "b"])
    via_mat = s.apply_unitary(mat, ["a", "b"])
    assert np.allclose(via_perm.amps, via_mat.amps)


def test_attach_register_keeps_oracle_cells_last():
    layout = RegisterLayout([Register("a", 2), Register("H0", 2)], OracleSpec(1, Z2))
    s = QuantumState.zero(layout)
    s2 = s.attach_register(Register("m", 2), vector=np.array([0, 1.0]))
    assert s2.layout.names == ("a", "m", "H0")
    assert s2.probabilities("m")[1] == pytest.approx(1.0)


def test_schmidt_rank_of_product_state_is_one():
    rng = np.random.default_rng(11)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    layout = RegisterLayout([Register("a", 2), Register("b", 3)])
    s = QuantumState.from_vector(layout, np.kron(a, b))
    assert s.schmidt_rank(["a"]) == 1
    # local unitaries do not change the spectrum
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    assert s.apply_unitary(u, ["b"]).schmidt_rank(["a"]) == 1


def test_partial_trace_of_pure_product():
    layout = RegisterLayout([Register("a", 2), Register("b", 2)])
    s = QuantumState.zero(layout).apply_unitary(HADAMARD, ["a"])
    rho = s.partial_trace(["a"])
    assert rho.matrix == pytest.approx(np.full((2, 2), 0.5))
    # entangled pair traces to the maximally mixed state
    cnot = np.eye(4)[[0, 1, 3, 2]]
    bell = s.apply_unitary(cnot, ["a", "b"])
    rho_b = bell.partial_trace(["b"])
    assert rho_b.matrix == pytest.approx(np.eye(2) / 2)


def test_partial_trace_cap():
    layout = RegisterLayout([Register("a", 64), Register("b", 2)])
    s = QuantumState.zero(layout)
    with pytest.raises(CapacityError):
        s.partial_trace(["a"], kept_cap=32)


def test_density_operator_validation_and_overlap():
    for matrix, problem in (([[0.5, 0.5], [0.1, 0.5]], "not Hermitian"),
                            ([[1.5, 0], [0, -0.5]], "negative eigenvalue"),
                            (np.eye(2), "trace is"),
                            (np.eye(4) / 4, "matrix shape")):
        with pytest.raises(DimensionMismatchError, match=problem):
            DensityOperator([Register("a", 2)], np.array(matrix))
    rho = DensityOperator([Register("a", 2)], np.eye(2) / 2)
    assert rho.overlap(np.array([1, 0])) == pytest.approx(0.5)
    ens = rho.eig_ensemble()
    assert sum(p for p, _ in ens) == pytest.approx(1.0)


def test_dump_load_roundtrip():
    rng = np.random.default_rng(5)
    layout = RegisterLayout([Register("a", 2), Register("H0", 2)], OracleSpec(2, Z2))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    s = QuantumState.from_vector(layout, v, fixed={"H1": 1})
    s2 = QuantumState.load(s.dump())
    assert np.allclose(s2.amps, s.amps, atol=1e-12)
    assert s2.fixed == {"H1": 1}
    assert s2.layout.names == s.layout.names


@st.composite
def learned_states(draw):
    """A random state over work registers and oracle cells, some cells collapsed."""
    q = draw(st.sampled_from([2, 3]))
    work_dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    work = [Register(f"w{i}", d) for i, d in enumerate(work_dims)]
    cells = [Register(f"H{x}", q) for x in range(draw(st.integers(1, 3)))]
    layout = RegisterLayout(work + cells, OracleSpec(len(cells), GroupSpec((q,))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = QuantumState.from_vector(layout, v / np.linalg.norm(v))
    for cell in draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))):
        state, _ = state.collapse_register(cell.name, draw(st.integers(0, q - 1)))
    return state


@settings(max_examples=60, deadline=None)
@given(learned_states())
def test_dump_load_roundtrip_through_json_text_is_exact(state):
    loaded = QuantumState.load(json.loads(json.dumps(state.dump())))
    assert loaded.layout.to_json() == state.layout.to_json()
    assert loaded.fixed == state.fixed
    assert loaded.amps.dtype == state.amps.dtype
    assert np.array_equal(loaded.amps, state.amps)


# a dump as written while registers carried a kind: work, message or oracle
LEGACY_DUMP = (
    '{"layout": {"registers": [["w", 2, "work"], ["M", 2, "message"], ["H1", 2, "oracle"]], '
    '"amplitude_cap": 64, "group": [2], "domain_size": 2}, "fixed": {"H0": 1, "T": 0}, '
    '"amps": [{"basis_index": 0, "re": 0.6, "im": 0.0}, {"basis_index": 7, "re": 0.0, "im": -0.8}]}'
)


def test_a_dump_with_register_kinds_loads_and_redumps_without_them():
    state = QuantumState.load(json.loads(LEGACY_DUMP))
    expected = np.zeros((2, 2, 2), dtype=np.complex128)
    expected[0, 0, 0], expected[1, 1, 1] = 0.6, -0.8j
    assert np.array_equal(state.amps, expected)
    assert state.fixed == {"H0": 1, "T": 0}
    assert state.layout.cells == (1,)
    current = json.loads(LEGACY_DUMP)
    for entry in current["layout"]["registers"]:
        entry.pop()
    assert state.dump() == current
    again = QuantumState.load(json.loads(json.dumps(state.dump())))
    assert again.dump() == current
    assert np.array_equal(again.amps, state.amps) and again.fixed == state.fixed


@pytest.mark.parametrize("damage", [
    lambda d: d["layout"]["registers"][1].__setitem__(2, "oracle"),
    lambda d: d["layout"]["registers"][2].__setitem__(2, "work"),
    lambda d: d["layout"]["registers"][2].__setitem__(2, "message"),
    lambda d: d["layout"]["registers"][0].__setitem__(2, "ancilla"),
    lambda d: d["layout"]["registers"][2].__setitem__(1, 4),
    lambda d: (d["fixed"].pop("H0"), d["layout"]["registers"].append(["H0", 2])),
    lambda d: d["layout"].update(registers=[["H1", 2], ["w", 2], ["M", 2]]),
    lambda d: d["layout"]["registers"].__setitem__(0, ["w"]),
    lambda d: d["layout"]["registers"].__setitem__(0, ["w", 2, "work", "x"]),
    lambda d: d["layout"]["registers"].__setitem__(0, "w2"),
    lambda d: d["fixed"].update(H0=2),
    lambda d: d["fixed"].update(H0=-1),
    lambda d: d["fixed"].update(T=-1),
    lambda d: d["fixed"].update(H1=0),
    lambda d: d["fixed"].update(w=1),
], ids=["kind-oracle-on-a-work-register", "kind-work-on-a-cell", "kind-message-on-a-cell",
        "unknown-kind", "cell-dim-not-the-range", "cells-out-of-domain-order",
        "cell-before-work", "entry-of-one", "entry-of-four", "entry-not-a-list",
        "frozen-cell-past-range", "frozen-cell-negative", "frozen-register-negative",
        "live-and-frozen-cell", "live-and-frozen-register"])
def test_load_refuses_a_layout_or_frozen_value_its_cells_contradict(damage):
    dump = json.loads(LEGACY_DUMP)
    damage(dump)
    with pytest.raises(LayoutError):
        QuantumState.load(dump)


def test_canonical_phase_pins_largest_entry():
    v = np.array([0.3j, -0.8, 0.1])
    w = canonical_phase(v)
    assert w[1].real > 0
    assert abs(w[1].imag) < 1e-15
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))


def test_rename_register():
    s = QuantumState.zero(two_qubits())
    s2 = s.rename_register("b", "msg")
    assert s2.layout.names == ("a", "msg")


def test_rename_register_onto_a_present_name_is_a_layout_error():
    s = QuantumState.zero(two_qubits()).attach_fixed("m", 0).attach_fixed("m2", 1)
    with pytest.raises(LayoutError):
        s.rename_register("m", "m2")  # frozen onto frozen would drop m2's value
    with pytest.raises(LayoutError):
        s.rename_register("b", "m2")  # live onto frozen would leave m2 both
    with pytest.raises(LayoutError):
        s.rename_register("m", "a")  # frozen onto live
    with pytest.raises(LayoutError):
        s.rename_register("a", "b")  # live onto live
    moved = s.rename_register("m", "m3")
    assert moved.fixed == {"m2": 1, "m3": 0} and moved.layout.names == ("a", "b")


def test_an_empty_layout_carries_an_oracle():
    layout = RegisterLayout([], OracleSpec(4, GroupSpec((3,))))
    s = QuantumState.zero(layout)
    assert s.amps.shape == () and s.norm() == 1.0
    back = QuantumState.load(json.loads(json.dumps(s.dump())))
    assert back.layout.names == () and back.amps == s.amps


@pytest.mark.parametrize("group", [[2.9], ["2"], [True], 2])
def test_load_rejects_a_mistyped_group_factor(group):
    layout = RegisterLayout([Register("H0", 2)], OracleSpec(1, GroupSpec((2,))))
    data = QuantumState.zero(layout).dump()
    data["layout"]["group"] = group
    with pytest.raises(LayoutError, match="group"):
        QuantumState.load(data)


# -- kernels against loop-built references, for targets in any order --------


@st.composite
def three_register_states(draw):
    """A random state on registers a, b, c of dims 2-3, and targets: any nonempty
    subset in any order (one, all, reversed, non-contiguous)."""
    dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=3))
    layout = RegisterLayout([Register(n, d) for n, d in zip("abc", dims)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    targets = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    return QuantumState.from_vector(layout, v / np.linalg.norm(v)), targets, rng


def joint(index, names, layout):
    """The joint index of ``names``' values in a full basis index, the first slowest."""
    return int(np.ravel_multi_index([index[layout.axis(n)] for n in names],
                                    [layout.dim(n) for n in names]))


def rest_of(names, layout):
    return [n for n in layout.names if n not in names]


def full_space_operator(u, targets, layout):
    """``u`` on the joint index of ``targets`` and the identity elsewhere, one entry at a time."""
    basis = list(np.ndindex(*layout.dims))
    rest = rest_of(targets, layout)
    full = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for i, out in enumerate(basis):
        for j, inp in enumerate(basis):
            if all(out[layout.axis(n)] == inp[layout.axis(n)] for n in rest):
                full[i, j] = u[joint(out, targets, layout), joint(inp, targets, layout)]
    return full


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=60, deadline=None)
@given(three_register_states())
def test_kernels_match_loop_built_references_for_any_target_order(drawn):
    state, targets, rng = drawn
    layout = state.layout
    block = int(np.prod([layout.dim(t) for t in targets]))
    u = random_unitary(rng, block)
    expect = full_space_operator(u, targets, layout) @ state.amps.reshape(-1)
    got = state.apply_unitary(u, targets)
    assert got.amps.shape == layout.dims
    assert np.allclose(got.amps.reshape(-1), expect, rtol=0, atol=1e-12)

    perm = rng.permutation(block)
    matrix = np.zeros((block, block))
    matrix[perm, np.arange(block)] = 1.0
    assert np.array_equal(state.permute_basis(perm, targets).amps,
                          state.apply_unitary(matrix, targets).amps)

    rest = rest_of(targets, layout)
    split = np.zeros((block, state.amps.size // block), dtype=np.complex128)
    for index in np.ndindex(*layout.dims):
        split[joint(index, targets, layout), joint(index, rest, layout)] = state.amps[index]
    assert np.array_equal(state.split(targets), split)

    kept = sorted(targets, key=layout.axis)  # the marginal's axes are in layout order
    marginal = np.zeros([layout.dim(n) for n in kept])
    for index in np.ndindex(*layout.dims):
        marginal[tuple(index[layout.axis(n)] for n in kept)] += abs(state.amps[index]) ** 2
    assert np.allclose(state.marginal(targets), marginal, rtol=0, atol=1e-12)


def test_the_marginal_of_a_zero_register_state_is_its_one_probability():
    layout = RegisterLayout([], OracleSpec(2, GroupSpec((2,))))
    state = QuantumState(layout, np.array(-0.6 + 0.8j))
    assert state.amps.shape == ()
    expect = sum(abs(state.amps[index]) ** 2 for index in np.ndindex(*layout.dims))
    marginal = state.marginal([])
    assert marginal.shape == () and marginal == pytest.approx(expect, rel=0, abs=1e-15)
    assert state.split([]).shape == (1, 1)
