"""Dense pure-state engine over named registers.

Amplitudes are stored as a complex128 ndarray shaped by the register
dimensions in layout order.  Only this module knows that order: callers
name registers and read or rotate them through the block view
(``as_matrix``, ``on_axes``, ``QuantumState.split``) or
``QuantumState.marginal``.  ``collapse_register`` slices out any axis,
as a strided view; the register lives on in ``fixed`` with the basis
value it was frozen at.

A state's oracle is described in one place, ``RegisterLayout.oracle``:
an ``OracleSpec`` (domain size and range group), or None for a state
that talks to no oracle.  Every layout derived from another by
``with_registers`` shares its oracle and its amplitude cap.  A layout fixes
its cells from its oracle when it is built (``RegisterLayout.cells``).

An oracle cell is in one of three states: untouched (in neither the
layout nor ``fixed``, and implicitly the flat Fourier state |0̂⟩), live
(an axis of the array) or frozen (in ``fixed``).  ``oracle.add_cells``
makes untouched cells live when a query first reaches them, so a layout
that carries an oracle may hold no register at all: its state is then a
single amplitude.

Each value is checked once, where it enters: JSON load, the public
constructors and kernels, and ``Gate.resolved``.  An operator that has
passed its check travels as a ``CheckedOp``; given one, ``apply_unitary``
and ``permute_basis`` compare only its size with the targets.  Internal
density matrices that are positive semidefinite by construction
(``partial_trace``, ``from_pure``, a convex mix of them) skip the
Hermitian and eigenvalue tests; their trace is still tested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import GroupSpec
from .errors import (
    CapacityError,
    DimensionMismatchError,
    DomainError,
    LayoutError,
    NonUnitaryError,
    ZeroProbabilityError,
    typed,
)

DEFAULT_AMPLITUDE_CAP = 2**24
UNITARY_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
DUMP_AMP_TOL = 1e-12


@dataclass(frozen=True)
class Register:
    name: str
    dim: int

    def __post_init__(self) -> None:
        if not self.name:
            raise LayoutError("register name must be non-empty")
        if int(self.dim) < 2:
            raise LayoutError(f"register {self.name!r} needs dimension >= 2, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class OracleSpec:
    """Domain size N and range group Y of the random oracle."""

    domain_size: int
    group: GroupSpec

    def __post_init__(self) -> None:
        if int(self.domain_size) < 1:
            raise DomainError("oracle domain must have at least one point")
        object.__setattr__(self, "domain_size", int(self.domain_size))
        object.__setattr__(self, "_points", {f"H{x}": x for x in range(self.domain_size)})

    def cell_name(self, x: int) -> str:
        x = int(x)
        if not 0 <= x < self.domain_size:
            raise DomainError(f"domain point {x} out of range")
        return f"H{x}"

    def cell_names(self) -> list[str]:
        return list(self._points)

    def function_count(self) -> int:
        return self.group.order**self.domain_size

    def all_tables(self):
        """Iterate every function table h as a tuple of range indices."""
        return itertools.product(range(self.group.order), repeat=self.domain_size)


class RegisterLayout:
    """Ordered collection of named registers and the oracle they talk to.

    ``oracle`` describes the oracle's domain and range whatever state its
    cells are in; it is None for a layout without an oracle, and only a
    layout with an oracle may be empty.  A register named ``H{x}``, x in
    ``oracle``'s domain, is a live cell; ``cells`` lists those x in axis
    order.  Cells not last, not in domain order or not of dimension |Y|
    are a LayoutError.  Every field is fixed at construction;
    ``with_registers`` derives a layout on the same oracle and cap.
    """

    def __init__(
        self,
        registers,
        oracle: OracleSpec | None = None,
        amplitude_cap: int = DEFAULT_AMPLITUDE_CAP,
    ):
        registers = tuple(registers)
        if not registers and oracle is None:
            raise LayoutError("zero-register layouts are allowed only with an oracle")
        names = tuple([r.name for r in registers])
        self._index = {n: i for i, n in enumerate(names)}
        if len(self._index) != len(names):
            raise LayoutError(f"duplicate register names in {list(names)}")
        dims = tuple([r.dim for r in registers])
        points = [] if oracle is None else [*map(oracle._points.get, names)]
        first = points.count(None)  # the non-cells, which come first
        cells = tuple(points[first:])
        if None in cells:
            raise LayoutError("oracle cells must come after all other registers")
        if cells and (list(cells) != sorted(cells)
                      or dims[first:].count(oracle.group.order) != len(cells)):
            raise LayoutError(f"oracle cells {names[first:]} must be in domain order, "
                              f"each of dimension {oracle.group.order}")
        self.registers = registers
        self.oracle = oracle
        self.amplitude_cap = int(amplitude_cap)
        self.names = names
        self.dims = dims
        self.cells = cells
        total = math.prod(self.dims)
        if total > self.amplitude_cap:
            raise CapacityError(
                f"layout needs {total} amplitudes, cap is {self.amplitude_cap}"
            )
        self.total_dim = total

    def with_registers(self, registers) -> "RegisterLayout":
        """A layout over ``registers`` on this layout's oracle and amplitude cap."""
        return RegisterLayout(registers, self.oracle, self.amplitude_cap)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LayoutError(f"no register named {name!r}") from None

    def register(self, name: str) -> Register:
        return self.registers[self.axis(name)]

    def dim(self, name: str) -> int:
        return self.register(name).dim

    def drop(self, name: str) -> "RegisterLayout":
        return self.with_registers(r for r in self.registers if r.name != name)

    def insert_before_oracle(self, reg: Register) -> "RegisterLayout":
        """New layout with ``reg`` appended after the last non-cell register."""
        pos = len(self.registers) - len(self.cells)
        return self.with_registers(self.registers[:pos] + (reg,) + self.registers[pos:])

    def to_json(self):
        meta = {
            "registers": [[r.name, r.dim] for r in self.registers],
            "amplitude_cap": self.amplitude_cap,
        }
        if self.oracle is not None:
            meta["group"] = self.oracle.group.to_json()
            meta["domain_size"] = self.oracle.domain_size
        return meta

    @classmethod
    def from_json(cls, data) -> "RegisterLayout":
        """Inverse of ``to_json``.  An older dump's ``[name, dim, kind]`` entry loads when
        its kind agrees with the layout: "oracle" for a cell, "work" or "message" else."""
        entries = [typed(e, list, "register entry") for e in typed(data["registers"], list,
                                                                   "layout registers")]
        if any(len(e) not in (2, 3) for e in entries):
            raise LayoutError("a register entry is [name, dim] or a legacy [name, dim, kind]")
        group, domain = data.get("group"), data.get("domain_size")
        if (group is None) != (domain is None):
            raise LayoutError("a layout states both the oracle's group and domain_size, or neither")
        oracle = None if group is None else OracleSpec(
            typed(domain, int, "domain_size"), GroupSpec.from_json(group, LayoutError))
        layout = cls([Register(typed(e[0], str, "register name"), typed(e[1], int, "register dim"))
                      for e in entries], oracle,
                     typed(data.get("amplitude_cap", DEFAULT_AMPLITUDE_CAP), int, "amplitude_cap"))
        first = len(entries) - len(layout.cells)
        if any(len(e) == 3 and typed(e[2], str, "register kind") not in
               (("oracle",) if i >= first else ("work", "message")) for i, e in enumerate(entries)):
            raise LayoutError("a stated register kind disagrees with the layout's cells")
        return layout


def as_unitary(u, dim: int) -> np.ndarray:
    """``u`` as a complex array, checked to be a dim x dim unitary to 1e-10 (NaN fails)."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"matrix shape {u.shape} does not act on dimension {dim}")
    err = np.abs(u @ u.conj().T - np.eye(dim)).max()
    if not err <= UNITARY_TOL:
        raise NonUnitaryError(f"matrix deviates from unitarity by {err:.3e}")
    return u


def as_permutation(perm, block: int) -> np.ndarray:
    """``perm`` as an int64 array, checked to be a bijection of range(block)."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (block,) or sorted(perm.tolist()) != list(range(block)):
        raise DimensionMismatchError("not a permutation of the joint target space")
    return perm


@dataclass(frozen=True, eq=False)
class CheckedOp:
    """A unitary (``kind`` "matrix") or basis permutation ("perm") that passed
    ``as_unitary``/``as_permutation`` or is derived from one that did.

    Only checking code builds one (``Gate.resolved``, ``oracle.fourier_op``);
    the kernels apply it unchecked.  ``array`` is kept as a read-only view.
    """

    kind: str
    array: np.ndarray

    def __post_init__(self) -> None:
        view = self.array.view()
        view.setflags(write=False)
        object.__setattr__(self, "array", view)


def _op_array(op, kind: str, block: int, check) -> np.ndarray:
    """A CheckedOp's array once its kind and size fit; a raw op goes through ``check``."""
    if not isinstance(op, CheckedOp):
        return check(op, block)
    if op.kind != kind or len(op.array) != block:
        raise DimensionMismatchError(f"checked {op.kind} of size {len(op.array)} is no "
                                     f"{kind} on dimension {block}")
    return op.array


def _block_order(ndim: int, axes: list[int]) -> list[int]:
    """``axes`` first, in the given order, then every other axis in layout order."""
    return axes + [a for a in range(ndim) if a not in axes]


def as_matrix(amps: np.ndarray, axes) -> np.ndarray:
    """The array as a (joint index of ``axes``, rest) matrix, through one ``transpose``.

    The joint index runs over ``axes`` in the given order, the first
    slowest; the rest runs over the other axes in layout order.  The
    result is a view when the reshape allows one.
    """
    axes = list(axes)
    moved = amps.transpose(_block_order(amps.ndim, axes))
    return moved.reshape(math.prod(amps.shape[a] for a in axes), -1)


def on_axes(amps: np.ndarray, axes, fn) -> np.ndarray:
    """``fn`` of ``as_matrix(amps, axes)``, a matrix of the same shape, put back in layout order."""
    axes = list(axes)
    order = _block_order(amps.ndim, axes)
    out = fn(as_matrix(amps, axes)).reshape([amps.shape[a] for a in order])
    return out.transpose(np.argsort(order))


def apply_matrix(amps: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """Contract ``u`` with the joint index of ``axes`` (the first slowest) of a
    dense amplitude array.  ``u`` is used as given; callers check unitarity."""
    return on_axes(amps, axes, lambda block: u @ block)


@dataclass
class QuantumState:
    """Normalized pure state over a RegisterLayout.

    ``fixed`` maps names of truncated registers to the basis value they
    were frozen at when they were sliced out of the dense array.
    """

    layout: RegisterLayout
    amps: np.ndarray
    fixed: dict[str, int] = field(default_factory=dict)

    @classmethod
    def zero(cls, layout: RegisterLayout) -> "QuantumState":
        amps = np.zeros(layout.dims, dtype=np.complex128)
        amps[(0,) * len(layout.dims)] = 1.0
        return cls(layout, amps)

    @classmethod
    def from_vector(cls, layout: RegisterLayout, vector, fixed=None) -> "QuantumState":
        amps = np.asarray(vector, dtype=np.complex128).reshape(layout.dims)
        s = cls(layout, amps.copy(), dict(fixed or {}))
        n = s.norm()
        if not abs(n - 1.0) <= 1e-9:
            raise DimensionMismatchError(f"state vector must be normalized, got norm {n}")
        return s

    # -- basic queries -------------------------------------------------

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def is_fixed(self, name: str) -> bool:
        return name in self.fixed

    def probabilities(self, name: str) -> np.ndarray:
        """Marginal Born probabilities of one register in its stored basis."""
        if name in self.fixed:
            raise LayoutError(f"register {name!r} was truncated; its value is fixed")
        probs = self.marginal([name])
        total = probs.sum()
        if total <= 0:
            raise ZeroProbabilityError("state has zero norm")
        return probs / total

    # -- evolution -----------------------------------------------------

    def _target_axes(self, targets, action: str) -> tuple[list[int], int]:
        """The axes of live ``targets`` and their joint dimension; a frozen one is a LayoutError."""
        targets = list(targets)
        for t in targets:
            if t in self.fixed:
                raise LayoutError(f"cannot {action} truncated register {t!r}")
        axes = [self.layout.axis(t) for t in targets]
        return axes, math.prod(self.layout.dims[a] for a in axes)

    def apply_unitary(self, u, targets) -> "QuantumState":
        """Apply ``u`` to the joint index of ``targets``, the first slowest; only a
        ``CheckedOp`` skips ``as_unitary`` (its size is still tested)."""
        axes, block = self._target_axes(targets, "apply a matrix to")
        out = apply_matrix(self.amps, _op_array(u, "matrix", block, as_unitary), axes)
        return QuantumState(self.layout, out, dict(self.fixed))

    def permute_basis(self, perm, targets) -> "QuantumState":
        """Relabel joint basis states of ``targets``: |j> -> |perm[j]>; only a
        ``CheckedOp`` skips ``as_permutation`` (its size is still tested)."""
        axes, block = self._target_axes(targets, "permute")
        perm = _op_array(perm, "perm", block, as_permutation)

        def relabel(flat: np.ndarray) -> np.ndarray:
            out = np.empty_like(flat)
            out[perm] = flat
            return out

        return QuantumState(self.layout, on_axes(self.amps, axes, relabel), dict(self.fixed))

    # -- measurement ---------------------------------------------------

    def _branch(self, name: str, value: int) -> tuple[tuple, np.ndarray, float]:
        """Index of one stored-basis value of a live register, its renormalized
        slice and its probability; under 1e-12 is a ZeroProbabilityError."""
        ax = self.layout.axis(name)
        if not 0 <= int(value) < self.layout.dims[ax]:
            raise DimensionMismatchError(f"value {value} out of range for {name!r}")
        index = (slice(None),) * ax + (int(value),)
        prob = float(np.sum(np.abs(self.amps[index]) ** 2))
        if prob < ZERO_PROB_TOL:
            raise ZeroProbabilityError(f"branch {name}={value} has probability {prob:.3e}")
        return index, self.amps[index] / math.sqrt(prob), prob

    def postselect(self, name: str, value: int) -> tuple["QuantumState", float]:
        """Project one register onto a stored-basis value, keeping its axis.

        The axis's other slices are zeroed.  Only for a register that an
        inverse map must later move (Alice's key, before the repair
        uncomputes her final map); every other classical value is frozen
        with ``collapse_register``.  Returns the state and the branch
        probability.
        """
        index, branch, prob = self._branch(name, value)
        out = np.zeros_like(self.amps)
        out[index] = branch
        return QuantumState(self.layout, out, dict(self.fixed)), prob

    def collapse_register(self, name: str, value: int) -> tuple["QuantumState", float]:
        """Measure one register at a stored-basis value and freeze it there.

        The renormalized slice becomes the state and ``fixed`` keeps the
        value.  Returns the state and the branch probability.
        """
        _, branch, prob = self._branch(name, value)
        return QuantumState(self.layout.drop(name), branch, {**self.fixed, name: int(value)}), prob

    def attach_register(self, reg: Register, vector) -> "QuantumState":
        """Tensor a fresh register in the normalized state ``vector`` onto this state.

        The register is inserted just before the oracle block so oracle
        cells stay last.
        """
        if reg.name in self.layout or reg.name in self.fixed:
            raise LayoutError(f"register {reg.name!r} already present")
        v = np.asarray(vector, dtype=np.complex128).reshape(reg.dim)
        n = np.linalg.norm(v)
        if not abs(n - 1.0) <= 1e-9:
            raise DimensionMismatchError("attached vector must be normalized")
        layout = self.layout.insert_before_oracle(reg)
        pos = layout.axis(reg.name)
        amps = np.expand_dims(self.amps, pos) * v.reshape((-1,) + (1,) * (self.amps.ndim - pos))
        return QuantumState(layout, amps, dict(self.fixed))

    def _widened(self, layout: RegisterLayout) -> "QuantumState":
        """This state on ``layout``, its registers in their order plus new ones at |0>."""
        amps = np.zeros(layout.dims, dtype=np.complex128)
        amps[tuple(slice(None) if n in self.layout else 0 for n in layout.names)] = self.amps
        return QuantumState(layout, amps, dict(self.fixed))

    def attach_fixed(self, name: str, value: int) -> "QuantumState":
        """Record a register that exists only as a frozen classical value."""
        if name in self.layout or name in self.fixed:
            raise LayoutError(f"register {name!r} already present")
        return QuantumState(self.layout, self.amps, {**self.fixed, name: int(value)})

    def rename_register(self, old: str, new: str) -> "QuantumState":
        """The same state with register ``old``, live or frozen, called ``new``.

        A ``new`` that is already live or frozen is a LayoutError.
        """
        if new in self.layout or new in self.fixed:
            raise LayoutError(f"cannot rename {old!r} onto present register {new!r}")
        if old in self.fixed:
            fixed = dict(self.fixed)
            fixed[new] = fixed.pop(old)
            return QuantumState(self.layout, self.amps, fixed)
        ax = self.layout.axis(old)
        regs = list(self.layout.registers)
        regs[ax] = Register(new, regs[ax].dim)
        return QuantumState(self.layout.with_registers(regs), self.amps, dict(self.fixed))

    # -- reductions ----------------------------------------------------

    def split(self, part) -> np.ndarray:
        """The amplitudes as a (part, rest) matrix; ``part`` lists live registers, slowest first."""
        return as_matrix(self.amps, [self.layout.axis(n) for n in part])

    def marginal(self, names) -> np.ndarray:
        """|amps|² summed onto the named live registers, its axes in layout order."""
        keep = {self.layout.axis(n) for n in names}
        other = tuple(a for a in range(self.amps.ndim) if a not in keep)
        return (np.abs(self.amps) ** 2).sum(axis=other)

    def partial_trace(self, keep, kept_cap: int = 4096) -> "DensityOperator":
        keep = list(keep)
        kept_dim = math.prod(self.layout.dim(k) for k in keep)
        if kept_dim > kept_cap:
            raise CapacityError(f"kept dimension {kept_dim} exceeds cap {kept_cap}")
        mat = self.split(keep)
        return DensityOperator._positive([self.layout.register(k) for k in keep],
                                         mat @ mat.conj().T)

    def schmidt_spectrum(self, part_a) -> np.ndarray:
        """Singular values across the cut (part_a : everything else)."""
        part_a = [p for p in part_a if p not in self.fixed]
        if not part_a or len(part_a) == len(self.layout.dims):
            return np.array([self.norm()])
        return np.linalg.svd(self.split(part_a), compute_uv=False)

    def schmidt_rank(self, part_a, tol: float = 1e-9) -> int:
        sv = self.schmidt_spectrum(part_a)
        return int(np.sum(sv > tol))

    # -- serialization -------------------------------------------------

    def dump(self) -> dict:
        flat = self.amps.reshape(-1)
        entries = []
        for i in np.nonzero(np.abs(flat) > DUMP_AMP_TOL)[0]:
            a = flat[i]
            entries.append({"basis_index": int(i), "re": float(a.real), "im": float(a.imag)})
        return {"layout": self.layout.to_json(), "fixed": dict(self.fixed), "amps": entries}

    @classmethod
    def load(cls, data) -> "QuantumState":
        """Inverse of ``dump``.  A mistyped field, a register both live and frozen or a frozen
        value outside its cell's range (or negative) is a LayoutError; an index outside the
        layout, a repeated index or a norm off 1 by over 1e-9 a DimensionMismatchError."""
        layout = RegisterLayout.from_json(data["layout"])
        entries = typed(data["amps"], list, "dump amps")
        amps = {typed(e["basis_index"], int, "basis_index"):
                complex(*(typed(e[k], (int, float), k) for k in ("re", "im"))) for e in entries}
        if len(amps) != len(entries) or not all(0 <= i < layout.total_dim for i in amps):
            raise DimensionMismatchError("dump basis indices repeat or leave the layout")
        flat = np.zeros(layout.total_dim, dtype=np.complex128)
        flat[list(amps)] = list(amps.values())
        fixed = {typed(k, str, "fixed name"): typed(v, int, "fixed value")
                 for k, v in typed(data.get("fixed", {}), dict, "dump fixed").items()}
        spec = layout.oracle
        for name, value in fixed.items():
            if name in layout or value < 0 or (spec and name in spec._points
                                                and value >= spec.group.order):
                raise LayoutError(f"frozen {name}={value} is live too or outside its range")
        return cls.from_vector(layout, flat, fixed)


class DensityOperator:
    """Mixed state over a list of registers, stored as a dense matrix.

    The constructor tests that the matrix is Hermitian with trace 1 and no
    negative eigenvalue.  ``from_pure`` and the internal ``_positive`` take
    a matrix that is positive semidefinite by construction and test only
    its shape and trace.  NaN fails every test.
    """

    def __init__(self, registers, matrix: np.ndarray):
        self._set(registers, matrix)
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if not herm <= 1e-10:
            raise DimensionMismatchError(f"matrix is not Hermitian (deviation {herm:.3e})")
        evals = np.linalg.eigvalsh(self.matrix)
        if not evals.min() >= -1e-9:
            raise DimensionMismatchError(f"negative eigenvalue {evals.min():.3e}")

    @classmethod
    def _positive(cls, registers, matrix: np.ndarray) -> "DensityOperator":
        """For this package's own positive semidefinite matrices (a Gram matrix
        M M†, a convex mix of density matrices): no Hermitian or eigenvalue test."""
        rho = cls.__new__(cls)
        rho._set(registers, matrix)
        return rho

    def _set(self, registers, matrix) -> None:
        """Keep ``matrix`` once its shape fits the registers and its trace is 1 to 1e-9."""
        self.registers = tuple(registers)
        dim = math.prod(r.dim for r in self.registers)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match register dimension {dim}"
            )
        tr = matrix.trace()
        if not abs(tr - 1.0) <= 1e-9:
            raise DimensionMismatchError(f"trace is {tr}, expected 1")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, registers, vector) -> "DensityOperator":
        """|v><v| for a unit ``vector``."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return cls._positive(registers, np.outer(v, v.conj()))

    def overlap(self, vector) -> float:
        """<psi| rho |psi> for a pure state given as a vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.dim:
            raise DimensionMismatchError("vector length does not match operator dimension")
        val = float(np.real(v.conj() @ self.matrix @ v))
        return min(max(val, 0.0), 1.0)

    def eig_ensemble(self, tol: float = 1e-12) -> list[tuple[float, np.ndarray]]:
        """Spectral decomposition as a pure-state ensemble, heaviest first."""
        evals, evecs = np.linalg.eigh(self.matrix)
        return [(float(evals[i]), canonical_phase(evecs[:, i]))
                for i in range(len(evals) - 1, -1, -1) if evals[i] > tol]


def canonical_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    Keeps extracted vectors byte-stable across runs; SVD and eigh phases
    are otherwise arbitrary.
    """
    v = np.asarray(vector, dtype=np.complex128)
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) == 0:
        return v
    return v * (abs(pivot) / pivot)

