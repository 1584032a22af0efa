"""Purified random-oracle register and partial-oracle projections.

The oracle for h: X -> Y is a row of cells H0..H{N-1}, one |Y|-dimensional
register per domain point, initialized to the uniform superposition over
all function tables.  Cells are stored in the Fourier basis, where that
initial state is the all-zeros basis vector and a query only touches the
cell it addresses.  Converting a cell to the computational basis means
applying the group's Fourier matrix to that axis.

A cell is in one of three states:

- untouched: no query has addressed it, so it is exactly |0̂⟩ and is not
  stored at all (neither in the layout nor in ``fixed``);
- live: an axis of the dense array, added at |0̂⟩ by the first query that
  can address it (``add_cells``), in domain order within the cell block;
- frozen: projected onto a computational value and kept in ``fixed``.

Every reader below treats an untouched cell as |0̂⟩: it weighs 0, takes
every value in the computational support and is learned with
probability 1/|Y|.  A state that holds every cell (a loaded dump, an
explicit full layout) runs the same code.

A query is one pass of a fused |Y|²×|Y|² unitary over the (y, cell) axes:
the Fourier-picture shift of the cell by y, conjugated by y's Fourier
rotation and built once per group (see ``oracle_query``).  All weights
come from one pass over |amps|² (see ``all_weights``).

A learned cell is projected onto a computational value and then sliced
out of the dense array; its value is kept in ``state.fixed``.  Weights of
learned cells are 0 by definition and the Fourier support is counted over
the live cells.  Frozen cells serve learned points and fixed tables
alike: a fixed table is the oracle with every cell learned (see
``init_table``), so one query kernel runs purified and concrete states.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import GroupSpec
from .errors import (
    CapacityError,
    DimensionMismatchError,
    DomainError,
    LayoutError,
    UnsupportedProtocolError,
    ZeroProbabilityError,
    is_int,
)
from .qstate import (
    DEFAULT_AMPLITUDE_CAP,
    KIND_ORACLE,
    QuantumState,
    Register,
    RegisterLayout,
    apply_matrix,
)

SUPPORT_TOL = 1e-12
MAX_SUPPORT_FUNCTIONS = 2**16


@dataclass(frozen=True)
class OracleSpec:
    """Domain size N and range group Y of the random oracle."""

    domain_size: int
    group: GroupSpec

    def __post_init__(self) -> None:
        if int(self.domain_size) < 1:
            raise DomainError("oracle domain must have at least one point")
        object.__setattr__(self, "domain_size", int(self.domain_size))

    def cell_name(self, x: int) -> str:
        x = int(x)
        if not 0 <= x < self.domain_size:
            raise DomainError(f"domain point {x} out of range")
        return f"H{x}"

    def cell_names(self) -> list[str]:
        return [f"H{x}" for x in range(self.domain_size)]

    def registers(self) -> list[Register]:
        return [Register(n, self.group.order, KIND_ORACLE) for n in self.cell_names()]

    def function_count(self) -> int:
        return self.group.order**self.domain_size

    def all_tables(self):
        """Iterate every function table h as a tuple of range indices."""
        return itertools.product(range(self.group.order), repeat=self.domain_size)


@dataclass(frozen=True)
class PartialOracle:
    """Finite list of (domain point, range value) constraints."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(x), int(y)) for x, y in self.pairs)
        xs = [x for x, _ in pairs]
        if len(set(xs)) != len(xs):
            raise DomainError(f"repeated domain points in partial oracle: {xs}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def value(self, x: int) -> int:
        for px, py in self.pairs:
            if px == x:
                return py
        raise DomainError(f"{x} not in partial oracle domain")

    def extended(self, x: int, y: int) -> "PartialOracle":
        return PartialOracle(self.pairs + ((int(x), int(y)),))

    def to_json(self) -> list[list[int]]:
        return [[x, y] for x, y in self.pairs]


def spec_of(state: QuantumState) -> OracleSpec:
    layout = state.layout
    if layout.group is None or layout.domain_size is None:
        raise LayoutError("state layout carries no oracle metadata")
    return OracleSpec(layout.domain_size, layout.group)


def init_purified(
    spec: OracleSpec,
    work_registers=(),
    amplitude_cap: int = DEFAULT_AMPLITUDE_CAP,
) -> QuantumState:
    """Uniform-over-all-tables oracle state: the work registers at |0>.

    In the Fourier encoding the uniform superposition is the all-zeros
    vector, so every cell starts untouched and only the work registers
    are stored; each cell joins the layout when a query first addresses it.
    """
    layout = RegisterLayout(work_registers, group=spec.group, domain_size=spec.domain_size,
                            amplitude_cap=amplitude_cap)
    return QuantumState.zero(layout)


def add_cells(state: QuantumState, xs) -> QuantumState:
    """``state`` with every untouched cell among ``xs`` made live at |0̂⟩.

    Live and frozen cells are left as they are.  The cell block stays in
    domain order, so a state that ends up holding every cell has the
    full layout.
    """
    spec = spec_of(state)
    old = state.layout
    new = {spec.cell_name(x) for x in xs} - set(old.names) - set(state.fixed)
    if not new:
        return state
    cells = [r for r in spec.registers() if r.name in old or r.name in new]
    layout = RegisterLayout([r for r in old.registers if r.kind != KIND_ORACLE] + cells,
                            old.group, old.domain_size, old.amplitude_cap)
    amps = np.zeros(layout.dims, dtype=np.complex128)
    amps[tuple(slice(None) if n in old else 0 for n in layout.names)] = state.amps
    return QuantumState(layout, amps, dict(state.fixed))


def check_table(spec: OracleSpec, table) -> tuple[int, ...]:
    """The one table check: ``table`` as Python ints, one per domain point.

    A wrong length, a bool, a float (1.0 too) or a value outside the group
    is a DomainError; numpy integers pass.
    """
    table = tuple(table)
    if len(table) != spec.domain_size or not all(
            is_int(v) and 0 <= v < spec.group.order for v in table):
        raise DomainError("oracle table does not match the oracle's domain and range")
    return tuple(map(int, table))


def init_table(spec: OracleSpec, work_registers, table,
               amplitude_cap: int = DEFAULT_AMPLITUDE_CAP) -> QuantumState:
    """The oracle with every cell learned: work registers at |0>, cell H{x} frozen at table[x]."""
    layout = RegisterLayout(work_registers, spec.group, spec.domain_size, amplitude_cap)
    return QuantumState(layout, QuantumState.zero(layout).amps,
                        dict(zip(spec.cell_names(), check_table(spec, table))))


@functools.lru_cache(maxsize=None)
def _query_unitary(group: GroupSpec, inverse: bool) -> np.ndarray:
    """The fused query (F⊗I)·S·(F†⊗I) on the joint (y, cell) index, y slower.

    S shifts the cell's Fourier index by y's, |ŷ>|ĉ> -> |ŷ>|ĉ - ŷ> (|ĉ + ŷ>
    for the inverse).  Read-only, since every caller shares it.
    """
    q = group.order
    f = group.fourier_matrix
    u = np.zeros((q, q, q, q), dtype=np.complex128)
    for yhat in range(q):
        rot = np.outer(f[:, yhat], f[:, yhat].conj())
        for c in range(q):
            c_out = group.add(c, yhat) if inverse else group.sub(c, yhat)
            u[:, c_out, :, c] += rot
    u = u.reshape(q * q, q * q)
    u.setflags(write=False)
    return u


def oracle_query(
    state: QuantumState,
    y_reg: str,
    x_reg: str | None = None,
    x_const: int | None = None,
    inverse: bool = False,
) -> QuantumState:
    """One oracle call: |x>|y> -> |x>|y + h(x)> against the state's oracle.

    The address is either a live register (``x_reg``) or a constant
    (``x_const``).  An address register may have dimension smaller than
    the domain; it then reaches only an initial segment of it.  Frozen
    cells, learned points and fixed tables alike, participate as the
    classical constants they hold.
    ``inverse`` applies the adjoint (y -> y - h(x)).

    Every untouched cell the address can reach is first made live
    (``add_cells``): the constant's cell, or cells 0..k-1 for an address
    register of dimension k.  Each addressed live cell takes one pass of
    the |Y|²×|Y|² fused unitary over its (y, cell) axes; a learned cell
    with value v is the permutation y -> y ± v.  A constant address costs
    one pass over the state, an address register one pass over each of
    its slices.
    """
    spec = spec_of(state)
    group = spec.group
    if (x_reg is None) == (x_const is None):
        raise DomainError("exactly one of x_reg / x_const must be given")
    if x_reg is not None and state.is_fixed(x_reg):
        x_reg, x_const = None, state.fixed[x_reg]
    if state.is_fixed(y_reg):
        raise UnsupportedProtocolError(f"a query would write the frozen register {y_reg!r}")
    if state.layout.dim(y_reg) != group.order:
        raise DimensionMismatchError(
            f"query output register {y_reg!r} must have dimension {group.order}"
        )
    if x_const is not None:
        x_const = int(x_const)
        if not 0 <= x_const < spec.domain_size:
            raise DomainError(f"x_const {x_const} outside the oracle domain")
        state = add_cells(state, [x_const])
    else:
        x_dim = state.layout.dim(x_reg)
        if x_dim > spec.domain_size:
            raise DimensionMismatchError(
                f"address register {x_reg!r} has dimension {x_dim} > domain {spec.domain_size}"
            )
        state = add_cells(state, range(x_dim))
    y_ax = state.layout.axis(y_reg)
    fused = _query_unitary(group, bool(inverse))

    def query_cell(amps: np.ndarray, x: int, dropped_ax: int | None) -> np.ndarray:
        # ``amps`` lacks the layout axis ``dropped_ax`` when it is an address slice.
        def ax(a: int) -> int:
            return a - 1 if dropped_ax is not None and a > dropped_ax else a
        cell = spec.cell_name(x)
        if cell in state.fixed:
            v = state.fixed[cell]
            gather = group.add_table[:, v if inverse else group.neg_table[v]]
            return np.take(amps, gather, axis=ax(y_ax))
        return apply_matrix(amps, fused, [ax(y_ax), ax(state.layout.axis(cell))])

    if x_const is not None:
        out = query_cell(state.amps, x_const, None)
    else:
        x_ax = state.layout.axis(x_reg)
        out = np.empty_like(state.amps)
        idx = [slice(None)] * state.amps.ndim
        for x in range(x_dim):
            idx[x_ax] = x
            sl = tuple(idx)
            out[sl] = query_cell(state.amps[sl], x, x_ax)
    return QuantumState(state.layout, out, dict(state.fixed))


def weight(state: QuantumState, x: int) -> float:
    """Probability mass on non-trivial Fourier components of cell x.

    Untouched and learned (collapsed) cells weigh 0.
    """
    spec_of(state).cell_name(x)  # rejects points outside the domain
    return float(all_weights(state)[int(x)])


def all_weights(state: QuantumState) -> np.ndarray:
    """Weight of every domain point, read off one pass over |amps|².

    The squared amplitudes are summed down to their marginal on the live
    oracle cells, which are the last axes and have |Y|^live entries.  A
    cell's flat mass is that marginal's sum at its Fourier index 0, and
    its weight is 1 - flat mass / total.  Untouched and learned cells
    weigh 0.
    """
    spec = spec_of(state)
    live = [x for x in range(spec.domain_size) if spec.cell_name(x) in state.layout]
    p = np.abs(state.amps) ** 2
    first = p.ndim - len(live)
    marginal = p.reshape(-1, *p.shape[first:]).sum(axis=0)
    total = float(marginal.sum())
    if total <= 0:
        raise ZeroProbabilityError("state has zero norm")
    weights = np.zeros(spec.domain_size)
    for x in live:
        cell_ax = state.layout.axis(spec.cell_name(x)) - first
        flat_mass = float(marginal.take(0, axis=cell_ax).sum())
        weights[x] = max(0.0, 1.0 - flat_mass / total)
    return weights


def fourier_support_size(state: QuantumState) -> int:
    """Largest number of non-flat cells over basis states carrying mass.

    Each oracle query can grow this by at most one; projecting a partial
    oracle never grows it (the projected cells leave the count).
    Untouched cells are flat everywhere and count for nothing.
    """
    spec = spec_of(state)
    live = [n for n in spec.cell_names() if n in state.layout]
    if not live:
        return 0
    axes = tuple(state.layout.axis(n) for n in live)
    other = tuple(a for a in range(state.amps.ndim) if a not in axes)
    p = np.abs(state.amps) ** 2
    mask = p > SUPPORT_TOL
    if other:
        mask = mask.any(axis=other)
    if not mask.any():
        return 0
    counts = (np.indices(mask.shape) != 0).sum(axis=0)  # non-flat cells of each basis state
    return int(counts[mask].max())


def project_partial(state: QuantumState, partial: PartialOracle) -> tuple[QuantumState, float]:
    """Condition the oracle on agreeing with a partial function.

    Each constrained live cell is rotated to the computational basis,
    projected onto its value, renormalized and sliced out of the dense
    array.  An untouched cell is uniform over the range, so it freezes
    with probability exactly 1/|Y| and no pass over the amplitudes.
    Returns the conditioned state and the total branch probability.
    Contradicting an already-collapsed cell is a zero-probability branch.
    """
    spec = spec_of(state)
    fourier = spec.group.fourier_matrix
    prob = 1.0
    current = state
    for x, y in sorted(partial.pairs):
        if not 0 <= y < spec.group.order:
            raise DomainError(f"range value {y} outside the group")
        cell = spec.cell_name(x)
        if cell in current.fixed:
            if current.fixed[cell] != y:
                raise ZeroProbabilityError(
                    f"cell {cell} already collapsed to {current.fixed[cell]}, asked for {y}"
                )
            continue
        if cell not in current.layout:
            current = current.attach_fixed(cell, y)
            prob *= 1.0 / spec.group.order
            continue
        rotated = current.apply_unitary(fourier, [cell])
        current, p = rotated.collapse_register(cell, y)
        prob *= p
    return current, prob


def computational_support(state: QuantumState) -> set[tuple[int, ...]]:
    """Set of full function tables carrying probability mass above 1e-12.

    Collapsed cells contribute their frozen value to every table.  Untouched
    cells are made live first, so each takes every value.  The
    enumeration is capped at 2^16 tables; use it only at desk scale.
    """
    spec = spec_of(state)
    if spec.function_count() > MAX_SUPPORT_FUNCTIONS:
        raise CapacityError(
            f"{spec.function_count()} candidate tables exceed the cap {MAX_SUPPORT_FUNCTIONS}"
        )
    fourier = spec.group.fourier_matrix
    state = add_cells(state, range(spec.domain_size))
    live = [n for n in spec.cell_names() if n not in state.fixed]
    rotated = state
    for cell in live:
        rotated = rotated.apply_unitary(fourier, [cell])
    # Oracle cells sit last and in domain order, so after summing out the
    # other axes the remaining axes are the live cells in ascending x (none
    # for a fixed table, whose one table is read off ``fixed``).
    axes = tuple(rotated.layout.axis(n) for n in live)
    other = tuple(a for a in range(rotated.amps.ndim) if a not in axes)
    p = np.abs(rotated.amps) ** 2
    if other:
        p = p.sum(axis=other)

    support = set()
    live_points = [int(n[1:]) for n in live]
    for coords in np.argwhere(p > SUPPORT_TOL):
        table = [state.fixed.get(n, 0) for n in spec.cell_names()]
        for point, value in zip(live_points, coords):
            table[point] = int(value)
        support.add(tuple(table))
    return support

