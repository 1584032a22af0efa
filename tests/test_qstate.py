import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.algebra import GroupSpec
from qromlab.errors import (
    CapacityError,
    LayoutError,
    NonUnitaryError,
    ZeroProbabilityError,
)
from qromlab.qstate import (
    DensityOperator,
    QuantumState,
    Register,
    RegisterLayout,
    canonical_phase,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


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
    with pytest.raises(LayoutError):
        RegisterLayout([Register("H0", 2, "oracle"), Register("a", 2)])


def test_apply_unitary_rejects_non_unitary():
    s = QuantumState.zero(two_qubits())
    with pytest.raises(NonUnitaryError):
        s.apply_unitary(np.array([[1, 1], [0, 1]]), ["a"])


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
    layout = RegisterLayout(
        [Register("a", 2), Register("H0", 2, "oracle")],
    )
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
    with pytest.raises(Exception):
        DensityOperator([Register("a", 2)], np.array([[0.5, 0.5], [0.1, 0.5]]))
    rho = DensityOperator([Register("a", 2)], np.eye(2) / 2)
    assert rho.overlap(np.array([1, 0])) == pytest.approx(0.5)
    ens = rho.eig_ensemble()
    assert sum(p for p, _ in ens) == pytest.approx(1.0)


def test_dump_load_roundtrip():
    rng = np.random.default_rng(5)
    layout = RegisterLayout(
        [Register("a", 2), Register("H0", 2, "oracle")],
    )
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
    cells = [Register(f"H{x}", q, "oracle") for x in range(draw(st.integers(1, 3)))]
    layout = RegisterLayout(work + cells)
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
    layout = RegisterLayout([], group=GroupSpec((3,)), domain_size=4)
    s = QuantumState.zero(layout)
    assert s.amps.shape == () and s.norm() == 1.0
    back = QuantumState.load(json.loads(json.dumps(s.dump())))
    assert back.layout.names == () and back.amps == s.amps


@pytest.mark.parametrize("group", [[2.9], ["2"], [True], 2])
def test_load_rejects_a_mistyped_group_factor(group):
    data = QuantumState.zero(RegisterLayout([Register("H0", 2, "oracle")], domain_size=1)).dump()
    data["layout"]["group"] = group
    with pytest.raises(LayoutError, match="group"):
        QuantumState.load(data)
