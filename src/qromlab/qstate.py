"""Dense pure-state engine over named registers.

Amplitudes are stored as a complex128 ndarray shaped by the register
dimensions in declaration order.  Oracle-cell registers always come last
in the layout, so truncating a learned cell is a contiguous slice.
Registers that have been truncated away live on in ``fixed`` with the
basis value they were frozen at.

An oracle cell is in one of three states: untouched (in neither the
layout nor ``fixed``, and implicitly the flat Fourier state |0̂⟩), live
(an axis of the array) or frozen (in ``fixed``).  ``oracle.add_cells``
makes untouched cells live when a query first reaches them, so a layout
that carries an oracle may hold no register at all: its state is then a
single amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import GroupSpec
from .errors import (
    CapacityError,
    DimensionMismatchError,
    LayoutError,
    NonUnitaryError,
    ZeroProbabilityError,
    typed,
)

DEFAULT_AMPLITUDE_CAP = 2**24
UNITARY_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
DUMP_AMP_TOL = 1e-12

KIND_WORK = "work"
KIND_ORACLE = "oracle"
KIND_MESSAGE = "message"
_KINDS = (KIND_WORK, KIND_ORACLE, KIND_MESSAGE)


@dataclass(frozen=True)
class Register:
    name: str
    dim: int
    kind: str = KIND_WORK

    def __post_init__(self) -> None:
        if not self.name:
            raise LayoutError("register name must be non-empty")
        if int(self.dim) < 2:
            raise LayoutError(f"register {self.name!r} needs dimension >= 2, got {self.dim}")
        if self.kind not in _KINDS:
            raise LayoutError(f"unknown register kind {self.kind!r}")
        object.__setattr__(self, "dim", int(self.dim))


class RegisterLayout:
    """Ordered collection of named registers plus optional oracle metadata.

    ``group`` and ``domain_size`` describe the oracle range and domain when
    the state talks to an oracle, whatever state its cells are in; they
    stay None for layouts without an oracle.  Only a layout with an oracle
    may be empty.
    """

    def __init__(
        self,
        registers,
        group: GroupSpec | None = None,
        domain_size: int | None = None,
        amplitude_cap: int = DEFAULT_AMPLITUDE_CAP,
    ):
        registers = tuple(registers)
        if not registers and group is None:
            raise LayoutError("zero-register layouts are allowed only with an oracle")
        names = [r.name for r in registers]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        seen_oracle = False
        for r in registers:
            if r.kind == KIND_ORACLE:
                seen_oracle = True
            elif seen_oracle:
                raise LayoutError("oracle cells must come after all other registers")
        self.registers = registers
        self.group = group
        self.domain_size = domain_size
        self.amplitude_cap = int(amplitude_cap)
        self._index = {r.name: i for i, r in enumerate(registers)}
        total = math.prod(r.dim for r in registers)
        if total > self.amplitude_cap:
            raise CapacityError(
                f"layout needs {total} amplitudes, cap is {self.amplitude_cap}"
            )
        self.total_dim = total

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

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
        kept = [r for r in self.registers if r.name != name]
        return RegisterLayout(kept, self.group, self.domain_size, self.amplitude_cap)

    def insert_before_oracle(self, reg: Register) -> "RegisterLayout":
        """New layout with ``reg`` appended after the last non-oracle register."""
        pos = len(self.registers)
        for i, r in enumerate(self.registers):
            if r.kind == KIND_ORACLE:
                pos = i
                break
        regs = list(self.registers)
        regs.insert(pos, reg)
        return RegisterLayout(regs, self.group, self.domain_size, self.amplitude_cap)

    def to_json(self):
        meta = {
            "registers": [[r.name, r.dim, r.kind] for r in self.registers],
            "amplitude_cap": self.amplitude_cap,
        }
        if self.group is not None:
            meta["group"] = self.group.to_json()
        if self.domain_size is not None:
            meta["domain_size"] = self.domain_size
        return meta

    @classmethod
    def from_json(cls, data) -> "RegisterLayout":
        regs = [Register(typed(n, str, "register name"), typed(d, int, "register dim"),
                         typed(k, str, "register kind"))
                for n, d, k in typed(data["registers"], list, "layout registers")]
        group, domain = data.get("group"), data.get("domain_size")
        return cls(
            regs,
            group=None if group is None else GroupSpec.from_json(group, LayoutError),
            domain_size=None if domain is None else typed(domain, int, "domain_size"),
            amplitude_cap=typed(data.get("amplitude_cap", DEFAULT_AMPLITUDE_CAP), int,
                                "amplitude_cap"),
        )


def as_unitary(u, dim: int) -> np.ndarray:
    """``u`` as a complex array, checked to be a dim x dim unitary to 1e-10."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"matrix shape {u.shape} does not act on dimension {dim}")
    err = np.abs(u @ u.conj().T - np.eye(dim)).max()
    if err > UNITARY_TOL:
        raise NonUnitaryError(f"matrix deviates from unitarity by {err:.3e}")
    return u


def as_permutation(perm, block: int) -> np.ndarray:
    """``perm`` as an int64 array, checked to be a bijection of range(block)."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (block,) or sorted(perm.tolist()) != list(range(block)):
        raise DimensionMismatchError("not a permutation of the joint target space")
    return perm


def apply_matrix(amps: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """Contract ``u`` with the joint index of ``axes`` of a dense amplitude array.

    The joint index runs over ``axes`` in the given order, the first
    slowest.  ``u`` is used as given; callers check unitarity.
    """
    axes = list(axes)
    moved = np.moveaxis(amps, axes, range(len(axes)))
    shape = moved.shape
    out = (u @ moved.reshape(u.shape[1], -1)).reshape(shape)
    return np.moveaxis(out, range(len(axes)), axes)


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
        if abs(n - 1.0) > 1e-9:
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
        ax = self.layout.axis(name)
        p = np.abs(self.amps) ** 2
        axes = tuple(i for i in range(p.ndim) if i != ax)
        probs = p.sum(axis=axes)
        total = probs.sum()
        if total <= 0:
            raise ZeroProbabilityError("state has zero norm")
        return probs / total

    # -- evolution -----------------------------------------------------

    def apply_unitary(self, u: np.ndarray, targets) -> "QuantumState":
        targets = list(targets)
        for t in targets:
            if t in self.fixed:
                raise LayoutError(f"cannot apply a matrix to truncated register {t!r}")
        axes = [self.layout.axis(t) for t in targets]
        dims = [self.layout.dims[a] for a in axes]
        block = math.prod(dims)
        out = apply_matrix(self.amps, as_unitary(u, block), axes)
        return QuantumState(self.layout, out, dict(self.fixed))

    def permute_basis(self, perm: np.ndarray, targets) -> "QuantumState":
        """Relabel joint basis states of ``targets``: |j> -> |perm[j]>."""
        targets = list(targets)
        for t in targets:
            if t in self.fixed:
                raise LayoutError(f"cannot permute truncated register {t!r}")
        axes = [self.layout.axis(t) for t in targets]
        dims = [self.layout.dims[a] for a in axes]
        block = math.prod(dims)
        perm = as_permutation(perm, block)
        moved = np.moveaxis(self.amps, axes, range(len(axes)))
        shape = moved.shape
        flat = moved.reshape(block, -1)
        out = np.empty_like(flat)
        out[perm] = flat
        out = np.moveaxis(out.reshape(shape), range(len(axes)), axes)
        return QuantumState(self.layout, out, dict(self.fixed))

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
        if abs(n - 1.0) > 1e-9:
            raise DimensionMismatchError("attached vector must be normalized")
        layout = self.layout.insert_before_oracle(reg)
        pos = layout.axis(reg.name)
        amps = np.tensordot(self.amps, v, axes=0)  # appends the new axis last
        amps = np.moveaxis(amps, -1, pos)
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
        r = regs[ax]
        regs[ax] = Register(new, r.dim, r.kind)
        layout = RegisterLayout(regs, self.layout.group, self.layout.domain_size,
                                self.layout.amplitude_cap)
        return QuantumState(layout, self.amps, dict(self.fixed))

    # -- reductions ----------------------------------------------------

    def split(self, part) -> np.ndarray:
        """The amplitudes as a (part, rest) matrix; ``part`` lists live registers, slowest first."""
        axes = [self.layout.axis(n) for n in part]
        rows = math.prod(self.layout.dims[a] for a in axes)
        return np.moveaxis(self.amps, axes, range(len(axes))).reshape(rows, -1)

    def partial_trace(self, keep, kept_cap: int = 4096) -> "DensityOperator":
        keep = list(keep)
        kept_dim = math.prod(self.layout.dim(k) for k in keep)
        if kept_dim > kept_cap:
            raise CapacityError(f"kept dimension {kept_dim} exceeds cap {kept_cap}")
        mat = self.split(keep)
        return DensityOperator([self.layout.register(k) for k in keep], mat @ mat.conj().T)

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
        """Inverse of ``dump``.  A mistyped field is a LayoutError; an index outside
        the layout, a repeated index or a norm off 1 by over 1e-9 a DimensionMismatchError."""
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
        return cls.from_vector(layout, flat, fixed)


class DensityOperator:
    """Mixed state over a list of registers, stored as a dense matrix."""

    def __init__(self, registers, matrix: np.ndarray):
        self.registers = tuple(registers)
        dim = math.prod(r.dim for r in self.registers)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match register dimension {dim}"
            )
        self.matrix = matrix
        self.validate()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm > 1e-10:
            raise DimensionMismatchError(f"matrix is not Hermitian (deviation {herm:.3e})")
        tr = self.matrix.trace()
        if abs(tr - 1.0) > 1e-9:
            raise DimensionMismatchError(f"trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -1e-9:
            raise DimensionMismatchError(f"negative eigenvalue {evals.min():.3e}")

    @classmethod
    def from_pure(cls, registers, vector) -> "DensityOperator":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return cls(registers, np.outer(v, v.conj()))

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

