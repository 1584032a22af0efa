"""Small random circuits over (work registers + oracle).

Shared by the oracle-model equivalence checks, the sparsity tests and the
compatibility search.  A circuit is an ordinary program of ``protocol``
instructions (``Gate`` and ``Query``), run by ``protocol.apply_program``,
the one interpreter; the same program can start from the purified oracle
(``oracle.init_purified``) or from any fixed table (``oracle.init_table``),
which is what makes the two-oracle comparisons possible.
"""

from __future__ import annotations

import numpy as np

from . import oracle as qoracle
from .algebra import GroupSpec
from .errors import DomainError
from .oracle import OracleSpec
from .protocol import Gate, Query, apply_program, matrix_gate
from .qstate import QuantumState, Register

X_REG = "X"
Y_REG = "Yw"


def work_registers(spec: OracleSpec) -> list[Register]:
    return [Register(X_REG, spec.domain_size), Register(Y_REG, spec.group.order)]


def _work_dims(spec: OracleSpec) -> dict[str, int]:
    return {r.name: r.dim for r in work_registers(spec)}


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_ops(spec: OracleSpec, rng: np.random.Generator, queries: int) -> list[Gate | Query]:
    """Random interleaving of work unitaries and ``queries`` oracle calls."""
    n, q = spec.domain_size, spec.group.order
    ops: list[Gate | Query] = [
        matrix_gate(random_unitary(rng, n), (X_REG,)),
        matrix_gate(random_unitary(rng, q), (Y_REG,)),
    ]
    for _ in range(queries):
        if n > 1 and rng.random() < 0.25:
            ops.append(Query(Y_REG, x_const=int(rng.integers(n))))
        else:
            ops.append(Query(Y_REG, x_reg=X_REG))
        ops.append(matrix_gate(random_unitary(rng, n), (X_REG,)))
        ops.append(matrix_gate(random_unitary(rng, q), (Y_REG,)))
    return ops


def light_rotation(group: GroupSpec, theta: float, component: int) -> np.ndarray:
    """Unitary sending |0> to cos(theta)|0hat> + sin(theta)|component-hat>.

    Queries whose y register is close to the flat Fourier state barely
    disturb the oracle, so small theta yields delta-light states.
    """
    q = group.order
    if not 1 <= component < q:
        raise DomainError("component must name a non-flat Fourier basis state")
    r = np.eye(q, dtype=np.complex128)
    r[0, 0] = np.cos(theta)
    r[component, 0] = np.sin(theta)
    r[0, component] = -np.sin(theta)
    r[component, component] = np.cos(theta)
    return group.fourier_matrix @ r


def light_random_ops(
    spec: OracleSpec, rng: np.random.Generator, queries: int, delta: float
) -> list[Gate | Query]:
    """Circuits biased toward delta-light oracle disturbance."""
    n, q = spec.domain_size, spec.group.order
    budget = delta / max(1, queries)
    ops: list[Gate | Query] = [matrix_gate(random_unitary(rng, n), (X_REG,))]
    for _ in range(queries):
        theta = np.arcsin(np.sqrt(rng.uniform(0.0, budget)))
        component = int(rng.integers(1, q))
        rotation = light_rotation(spec.group, theta, component)
        ops.append(matrix_gate(rotation, (Y_REG,)))
        if rng.random() < 0.3:
            ops.append(Query(Y_REG, x_const=int(rng.integers(n))))
        else:
            ops.append(Query(Y_REG, x_reg=X_REG))
        ops.append(matrix_gate(random_unitary(rng, n), (X_REG,)))
        # Undo the y rotation so the next query starts near the flat state.
        ops.append(matrix_gate(rotation.conj().T, (Y_REG,)))
    return ops


def run_purified(spec: OracleSpec, ops) -> QuantumState:
    state = qoracle.init_purified(spec, work_registers(spec))
    return apply_program(state, ops, _work_dims(spec))


def run_fixed(spec: OracleSpec, ops, table) -> QuantumState:
    state = qoracle.init_table(spec, work_registers(spec), table)
    return apply_program(state, ops, _work_dims(spec))


def work_distribution(state: QuantumState) -> np.ndarray:
    """Born distribution over the joint non-oracle registers, flattened."""
    layout = state.layout
    return state.marginal(layout.names[:len(layout.names) - len(layout.cells)]).reshape(-1)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def averaged_fixed_distribution(spec: OracleSpec, ops) -> np.ndarray:
    """Uniform average of the work distribution over every fixed table."""
    acc = None
    count = 0
    for table in spec.all_tables():
        dist = work_distribution(run_fixed(spec, ops, table))
        acc = dist if acc is None else acc + dist
        count += 1
    return acc / count
