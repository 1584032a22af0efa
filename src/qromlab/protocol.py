"""Two-party protocol descriptions and their execution engines.

A protocol is a register declaration plus a list of rounds.  Every round is a
straight-line program of unitaries and oracle queries; adaptivity enters only
through classical message registers.  Each is measured right after its round's
last write and frozen at its symbol (``collapse_register``): the rest of the
round and every later round read it as a constant, and writing one after its
round is a validation violation.  The shape is the one the attack machinery
expects: classical messages in both directions, then exactly one quantum message
from Bob to Alice, with Bob's key fixed (frozen) before that message leaves his
lab and Alice's key produced by a final map on her side plus the received
message.  What the programs fix is computed once, on first read, not declared: a
round's message kind follows from the role of the register it sends, the ensemble
registers are Bob's other than his key, and d, the no-final-query flag, where each
classical message is measured and whether the final map writes M are read off the programs.

Every program, a protocol round and a random circuit alike, is a sequence of the
two instructions ``Gate`` and ``Query`` with one JSON encoding, and
``apply_program`` is the one interpreter for it, with one query kernel
(``oracle.oracle_query``).  Each gate is built and checked once per target dims and
frozen target values (``Gate.resolved``), where the interpreter, ``validate`` and its
write test read it.  A run starts from one of two initial oracle states: the
purified oracle register (one joint pure state including the H cells) or a fixed
table, which is that register with every cell frozen at its table value.
Agreement of the two is what the oracle-model tests pin down.

Every run of a protocol walks its rounds with the one walker ``_walk``.  At each
classical message it follows the symbols a chooser picks: one sampled symbol
(``run_purified``, ``run_concrete``), the forced symbol (``run_conditioned``) or
every symbol with probability at least 1e-12 (``enumerate_branches``).  A sampled
run and the enumeration return the walk's ``Branch``es; a sampled run also freezes
Bob's sampled key.  Bob's message ensemble (``message_ensemble``) and Alice's state
(``extract_alice_state``) are read off a branch only by a caller that needs them.
Alice's final map runs through ``final_map``; ``deliver`` is the one step that
puts a received message on M first.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import oracle as qoracle
from .algebra import GroupSpec, cyclic
from .errors import (DomainError, ProtocolShapeError, QromlabError, UnsupportedProtocolError,
                     is_int, typed)
from .qstate import (
    DEFAULT_AMPLITUDE_CAP,
    UNITARY_TOL,
    CheckedOp,
    DensityOperator,
    OracleSpec,
    QuantumState,
    Register,
    as_permutation,
    as_unitary,
    canonical_phase,
)

ROLE_ALICE = "A"
ROLE_BOB = "B"
ROLE_TRANSCRIPT = "T"
ROLE_MESSAGE = "M"
_ROLES = (ROLE_ALICE, ROLE_BOB, ROLE_TRANSCRIPT, ROLE_MESSAGE)

KEY_ABORT = 2  # key register value encoding the bottom output

_CELL_PATTERN = re.compile(r"^H\d+$")
_PRODUCT_TOL = 1e-9
_BRANCH_TOL = 1e-12
SIM_MESSAGE_SUFFIX = "__sim"


@dataclass(frozen=True)
class ProtocolRegister:
    name: str
    dim: int
    role: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ProtocolShapeError(f"unknown register role {self.role!r}")
        if _CELL_PATTERN.match(self.name):
            raise ProtocolShapeError(
                f"register name {self.name!r} collides with oracle cell names"
            )
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 2:
            raise ProtocolShapeError(f"register {self.name!r} needs dimension >= 2, got {self.dim}")


@dataclass(frozen=True, eq=False)
class ResolvedGate:
    """A gate's checked op (a ``CheckedOp``, "matrix" or "perm") on targets of dims
    ``tdims``, its inverse and ``moved``, the targets some image changes, built when
    first asked."""

    op: CheckedOp
    inverse: CheckedOp
    targets: tuple[str, ...]
    tdims: tuple[int, ...]

    @cached_property
    def moved(self) -> frozenset[str]:
        op = self.op.array
        images, inputs = (np.nonzero(np.abs(op) > UNITARY_TOL) if self.op.kind == "matrix"
                          else (op, np.arange(len(op))))
        digits = np.indices(self.tdims).reshape(len(self.tdims), -1)
        return frozenset(t for t, d in zip(self.targets, digits) if np.any(d[images] != d[inputs]))


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary from the builtin library, or an explicit matrix.

    An explicit ``matrix`` is a read-only complex array, applied as stored; gates
    therefore compare by identity.  A field the name does not use is a ProtocolShapeError.
    """

    name: str
    targets: tuple[str, ...]
    matrix: np.ndarray | None = None
    perm: tuple[int, ...] | None = None
    group: tuple[int, ...] | None = None
    _forms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for key, users in (("matrix", ("matrix",)), ("perm", ("permutation",)),
                           ("group", ("fourier", "controlled-add"))):
            if getattr(self, key) is not None and self.name not in users:
                raise ProtocolShapeError(f"a {self.name!r} gate takes no {key}")

    def resolved(self, tdims: tuple[int, ...], at: tuple | None = None) -> ResolvedGate:
        """The checked form for target dims ``tdims`` and frozen target values ``at`` (None
        for a live target, all live by default), kept from its first build (a race builds
        two); a build that raises keeps nothing."""
        at = at or (None,) * len(tdims)
        form = self._forms.get((tdims, at))
        if form is None:
            form = (_resolve_gate(self, tdims) if all(v is None for v in at)
                    else _restrict(self.resolved(tdims), at))
            self._forms[(tdims, at)] = form
        return form

    def to_json(self) -> dict:
        data: dict = {"op": "unitary", "name": self.name, "targets": list(self.targets)}
        if self.matrix is not None:
            data["matrix"] = [[[z.real, z.imag] for z in row] for row in np.asarray(self.matrix)]
        if self.perm is not None:
            data["perm"] = list(self.perm)
        if self.group is not None:
            data["group"] = list(self.group)
        return data


@dataclass(frozen=True)
class Query:
    y_reg: str
    x_reg: str | None = None
    x_const: int | None = None

    def __post_init__(self) -> None:
        if (self.x_reg is None) == (self.x_const is None):
            raise ProtocolShapeError("query needs exactly one of x_reg / x_const")

    @property
    def targets(self) -> tuple[str, ...]:
        return (self.y_reg,) if self.x_reg is None else (self.y_reg, self.x_reg)

    def to_json(self) -> dict:
        data: dict = {"op": "query", "y": self.y_reg}
        if self.x_reg is not None:
            data["x_reg"] = self.x_reg
        else:
            data["x_const"] = self.x_const
        return data


def query_count(program) -> int:
    """How many oracle queries a program makes."""
    return sum(1 for i in program if isinstance(i, Query))


def instruction_from_json(data) -> "Gate | Query":
    """Inverse of ``Gate.to_json``/``Query.to_json``; a mistyped field is a ProtocolShapeError."""
    with _shape_errors():
        op = _typed(data["op"], str, "instruction op")
        if op == "query":
            return Query(
                y_reg=_typed(data["y"], str, "query y"),
                x_reg=_optional(data, "x_reg", str),
                x_const=_optional(data, "x_const", int),
            )
        if op != "unitary":
            raise ProtocolShapeError(f"unknown instruction op {op!r}")
        matrix = None
        if "matrix" in data:
            matrix = _read_only([[_complex(z) for z in _typed(row, list, "matrix row")]
                                 for row in _typed(data["matrix"], list, "matrix")])
        perm, group = data.get("perm"), data.get("group")
        return Gate(
            name=_typed(data["name"], str, "gate name"),
            targets=tuple(_typed_list(data["targets"], str, "gate target")),
            matrix=matrix,
            perm=None if perm is None else tuple(_typed_list(perm, int, "perm entry")),
            group=None if group is None else tuple(_typed_list(group, int, "group factor")),
        )


def _read_only(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    m.setflags(write=False)
    return m


def matrix_gate(matrix, targets) -> Gate:
    return Gate("matrix", tuple(targets), matrix=_read_only(matrix))


def permutation_gate(perm, targets) -> Gate:
    return Gate("permutation", tuple(targets), perm=tuple(int(i) for i in perm))


def fourier_gate(target: str, group: GroupSpec | None = None) -> Gate:
    return Gate("fourier", (target,), group=None if group is None else group.factors)


def hadamard_gate(target: str) -> Gate:
    return Gate("hadamard", (target,))


def controlled_add_gate(src: str, dst: str, group: GroupSpec | None = None) -> Gate:
    return Gate(
        "controlled-add", (src, dst), group=None if group is None else group.factors
    )


def function_permutation(dims, fn) -> np.ndarray:
    """Table of a tuple function on a product space; resolving its gate checks it is a bijection."""
    dims = tuple(int(d) for d in dims)
    perm = np.empty(math.prod(dims), dtype=np.int64)
    for j, digits in enumerate(np.ndindex(*dims)):
        out = tuple(int(v) for v in fn(*digits))
        if len(out) != len(dims) or any(not 0 <= v < d for v, d in zip(out, dims)):
            raise DomainError(f"function output {out} outside register dims {dims}")
        perm[j] = int(np.ravel_multi_index(out, dims))
    return perm


@dataclass(frozen=True)
class Step:
    party: str
    program: tuple
    message: str | None = None


@dataclass(frozen=True)
class Protocol:
    """Registers, rounds and Alice's final map; d, the no-final-query flag, each
    round's message kind and the ensemble registers are computed from them.
    ``oracle`` is the one ``OracleSpec`` built from ``domain_size`` and ``group``;
    every state a run of the protocol builds carries it."""

    name: str
    group: GroupSpec
    domain_size: int
    registers: tuple[ProtocolRegister, ...]
    rounds: tuple[Step, ...]
    final_a_program: tuple
    key_reg_a: str
    key_reg_b: str
    amplitude_cap: int = DEFAULT_AMPLITUDE_CAP

    # -- facts the programs fix, each derived on first read ----------------

    @cached_property
    def oracle(self) -> OracleSpec:
        return OracleSpec(self.domain_size, self.group)

    @cached_property
    def reg_dims(self) -> Mapping[str, int]:
        return MappingProxyType({r.name: r.dim for r in self.registers})

    @cached_property
    def message_reg(self) -> str:
        for r in self.registers:
            if r.role == ROLE_MESSAGE:
                return r.name
        raise ProtocolShapeError("protocol declares no quantum message register")

    def regs_with_role(self, *roles) -> list[str]:
        return [r.name for r in self.registers if r.role in roles]

    @cached_property
    def alice_side(self) -> tuple[str, ...]:
        return tuple(self.regs_with_role(ROLE_ALICE, ROLE_TRANSCRIPT))

    def message_kind(self, step: Step) -> str:
        """"quantum" when the round sends the register of role M, else "classical"."""
        return "quantum" if step.message in self.regs_with_role(ROLE_MESSAGE) else "classical"

    @cached_property
    def classical_messages(self) -> tuple[str, ...]:
        return tuple(s.message for s in self.rounds
                     if s.message and self.message_kind(s) == "classical")

    @cached_property
    def query_budget(self) -> int:
        """d: the most oracle queries one honest party makes."""
        counts = {ROLE_ALICE: query_count(self.final_a_program), ROLE_BOB: 0}
        for step in self.rounds:
            counts[step.party] = counts.get(step.party, 0) + query_count(step.program)
        return max(counts.values())

    @cached_property
    def alice_no_final_query(self) -> bool:
        """Whether Alice's final map stays off the oracle, as the attack requires."""
        return query_count(self.final_a_program) == 0

    @cached_property
    def ensemble_regs(self) -> tuple[str, ...]:
        """Bob's registers other than his key, measured to split his message."""
        return tuple(r for r in self.regs_with_role(ROLE_BOB) if r != self.key_reg_b)

    @cached_property
    def _run_dims(self) -> Mapping[str, int]:
        """``reg_dims``, once every register an instruction targets is known to be in it."""
        programs = [(f"round {i}", s.program) for i, s in enumerate(self.rounds)]
        for where, program in programs + [("final map", self.final_a_program)]:
            for t in (t for instr in program for t in instr.targets if t not in self.reg_dims):
                raise ProtocolShapeError(f"{where}: unknown register {t!r}")
        return self.reg_dims

    @cached_property
    def _measure_points(self) -> tuple[int | None, ...]:
        """Instructions run before each round's classical message is measured (None: no message)."""
        return tuple(
            None if s.message is None or self.message_kind(s) != "classical"
            else max((i + 1 for i, instr in enumerate(s.program)
                      if _moves(instr, self._run_dims, {s.message})), default=0)
            for s in self.rounds)

    @cached_property
    def _final_writes_m(self) -> bool:
        return any(_moves(i, self._run_dims, {self.message_reg}) for i in self.final_a_program)

    @cached_property
    def _layout_registers(self) -> tuple[Register, ...]:
        return tuple(Register(r.name, r.dim) for r in self.registers)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "group": self.group.to_json(),
            "domain_size": self.domain_size,
            "registers": [[r.name, r.dim, r.role] for r in self.registers],
            "rounds": [
                {
                    "party": s.party,
                    "program": [i.to_json() for i in s.program],
                    "message": s.message,
                    "message_kind": self.message_kind(s),
                }
                for s in self.rounds
            ],
            "final_a": {
                "program": [i.to_json() for i in self.final_a_program],
                "key_reg": self.key_reg_a,
            },
            "final_b": {"key_reg": self.key_reg_b},
            "ensemble_regs": list(self.ensemble_regs),
            "query_budget": self.query_budget,
            "alice_no_final_query": self.alice_no_final_query,
            "amplitude_cap": self.amplitude_cap,
        }

    @classmethod
    def from_json(cls, data) -> "Protocol":
        """Inverse of ``to_json``; malformed input raises ProtocolShapeError.

        ``amplitude_cap`` may be absent (descriptions written before it
        was recorded) and then takes the default.  ``query_budget``, ``alice_no_final_query``,
        ``ensemble_regs`` and a round's ``message_kind`` may be absent; a stated one must
        equal the value the programs give.
        """
        with _shape_errors():
            return cls._parse_json(data)

    @classmethod
    def _parse_json(cls, data) -> "Protocol":
        p = cls(
            name=_typed(data["name"], str, "name"),
            group=GroupSpec.from_json(data["group"], ProtocolShapeError),
            domain_size=_typed(data["domain_size"], int, "domain_size"),
            registers=tuple(
                ProtocolRegister(_typed(n, str, "register name"), _typed(d, int, "register dim"),
                                 _typed(role, str, "register role"))
                for n, d, role in data["registers"]
            ),
            rounds=tuple(
                Step(
                    party=_typed(s["party"], str, "round party"),
                    program=tuple(instruction_from_json(i) for i in s["program"]),
                    message=_optional(s, "message", str),
                )
                for s in data["rounds"]
            ),
            final_a_program=tuple(
                instruction_from_json(i) for i in data["final_a"]["program"]
            ),
            key_reg_a=_typed(data["final_a"]["key_reg"], str, "final_a key_reg"),
            key_reg_b=_typed(data["final_b"]["key_reg"], str, "final_b key_reg"),
            amplitude_cap=_typed(data.get("amplitude_cap", DEFAULT_AMPLITUDE_CAP), int,
                                 "amplitude_cap"),
        )
        stated = [(data, "query_budget", p.query_budget, "query_budget"),
                  (data, "alice_no_final_query", p.alice_no_final_query, "alice_no_final_query"),
                  (data, "ensemble_regs", list(p.ensemble_regs), "ensemble_regs")]
        for i, (s, step) in enumerate(zip(data["rounds"], p.rounds)):
            kind = _typed(s.get("message_kind", "classical"), str, "round message_kind")
            if kind not in ("classical", "quantum"):
                raise ProtocolShapeError(f"round {i}: unknown message kind {kind!r}")
            stated.append((s, "message_kind", p.message_kind(step), f"round {i} message_kind"))
        for where, key, derived, what in stated:
            if _typed(where.get(key, derived), type(derived), what) != derived:
                raise ProtocolShapeError(
                    f"protocol JSON states {what} {where[key]!r}; its programs give {derived!r}")
        return p


def _typed(value, kind, what: str):
    return typed(value, kind, "protocol JSON " + what, ProtocolShapeError)


def _typed_list(value, kind, what: str) -> list:
    return [_typed(v, kind, what) for v in _typed(value, list, what + " list")]


def _complex(pair) -> complex:
    re_part, im_part = _typed_list(pair, (int, float), "matrix entry")
    return complex(re_part, im_part)


def _optional(data, key: str, kind):
    """``data[key]`` type-checked, or None when the key is absent or null."""
    value = data.get(key)
    return None if value is None else _typed(value, kind, key)


@contextmanager
def _shape_errors():
    """Report a malformed JSON walk (missing key, wrong container) as ProtocolShapeError."""
    try:
        yield
    except QromlabError:
        raise
    except KeyError as exc:
        raise ProtocolShapeError(f"protocol JSON lacks the key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ProtocolShapeError(f"malformed protocol JSON: {exc}") from None


# -- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(p: Protocol) -> ValidationReport:
    """Structural checks; violations break the shape, notices inform (a final
    map that queries the oracle, which the attack does not cover)."""
    rep = ValidationReport()
    names = [r.name for r in p.registers]
    if len(set(names)) != len(names):
        rep.violations.append(f"duplicate register names: {names}")
        return rep
    dims = p.reg_dims
    roles = {r.name: r.role for r in p.registers}
    try:
        p.oracle  # every run reads it; an empty domain has none
    except DomainError as exc:
        rep.violations.append(str(exc))

    quantum_msg = p.regs_with_role(ROLE_MESSAGE)
    if len(quantum_msg) != 1:
        rep.violations.append(
            f"CC1QM shape: exactly one quantum message register required, got {quantum_msg}"
        )
        return rep

    if not p.rounds:
        rep.violations.append("CC1QM shape: protocol has no rounds")
        return rep
    if p.rounds[0].party != ROLE_ALICE:
        rep.violations.append("CC1QM shape: the first round must be Alice's")
    quantum_steps = [i for i, s in enumerate(p.rounds) if s.message == p.message_reg]
    if quantum_steps != [len(p.rounds) - 1]:
        rep.violations.append(
            "CC1QM shape: exactly one quantum message allowed, and only as the last round"
        )
    last = p.rounds[-1]
    if last.party != ROLE_BOB or last.message != p.message_reg:
        rep.violations.append(
            "CC1QM shape: the last round must be Bob sending the quantum message register"
        )

    seen_msgs = set()
    for i, step in enumerate(p.rounds):
        announced = step.message is not None and step.message != p.message_reg
        if step.party not in (ROLE_ALICE, ROLE_BOB):
            rep.violations.append(f"round {i}: unknown party {step.party!r}")
            continue
        if announced:
            if step.message not in dims or roles[step.message] != ROLE_TRANSCRIPT:
                rep.violations.append(
                    f"round {i}: classical message {step.message!r} is not a transcript register"
                )
            elif step.message in seen_msgs:
                rep.violations.append(
                    f"round {i}: transcript register {step.message!r} announced twice"
                )
        allowed = {ROLE_TRANSCRIPT}
        allowed.add(ROLE_ALICE if step.party == ROLE_ALICE else ROLE_BOB)
        if step.party == ROLE_BOB:
            allowed.add(ROLE_MESSAGE)
        _check_program(p, step.program, f"round {i}", allowed, dims, roles, rep, seen_msgs)
        if announced:
            seen_msgs.add(step.message)

    final_allowed = {ROLE_ALICE, ROLE_TRANSCRIPT, ROLE_MESSAGE}
    _check_program(p, p.final_a_program, "final map", final_allowed, dims, roles, rep,
                   seen_msgs)

    if not p.alice_no_final_query:
        rep.notices.append(
            "alice-final-query: the final map queries the oracle; the active attack "
            "does not cover this protocol"
        )

    for key_reg, role in ((p.key_reg_a, ROLE_ALICE), (p.key_reg_b, ROLE_BOB)):
        if key_reg not in dims or roles[key_reg] != role or dims[key_reg] not in (2, 3):
            rep.violations.append(
                f"key register {key_reg!r} must be a dim-2 or dim-3 register of role {role}"
            )

    # a purified run stores only the cells some query can address
    cells = set()
    for program in [s.program for s in p.rounds] + [p.final_a_program]:
        for q in (i for i in program if isinstance(i, Query)):
            cells.update([q.x_const] if q.x_reg is None else range(dims.get(q.x_reg, 0)))
    total = math.prod(dims.values()) * p.group.order**len(cells)
    if total > p.amplitude_cap:
        rep.violations.append(
            f"purified layout needs {total} amplitudes, cap is {p.amplitude_cap}"
        )
    return rep


def _check_program(p, program, where, allowed_roles, dims, roles, rep, announced) -> None:
    """Append the violations of one program; ``announced`` registers are frozen
    by then, so the program may read them but never change them."""
    for instr in program:
        targets = list(instr.targets)
        for t in targets:
            if t not in dims:
                rep.violations.append(f"{where}: unknown register {t!r}")
            elif roles[t] not in allowed_roles:
                rep.violations.append(
                    f"{where}: register {t!r} (role {roles[t]}) is not accessible here"
                )
        if isinstance(instr, Gate) and all(t in dims for t in targets):
            try:
                if _moves(instr, dims, announced):
                    rep.violations.append(
                        f"{where}: gate {instr.name!r} changes an announced register")
            except QromlabError as exc:
                rep.violations.append(f"{where}: gate {instr.name!r} on {targets}: {exc}")
        if isinstance(instr, Query):
            if _moves(instr, dims, announced):
                rep.violations.append(
                    f"{where}: query writes the announced register {instr.y_reg!r}")
            if instr.y_reg in dims and dims[instr.y_reg] != p.group.order:
                rep.violations.append(
                    f"{where}: query output register {instr.y_reg!r} has the wrong dimension"
                )
            if instr.x_reg is not None and instr.x_reg in dims:
                if dims[instr.x_reg] > p.domain_size:
                    rep.violations.append(
                        f"{where}: address register {instr.x_reg!r} exceeds the domain"
                    )
            if instr.x_const is not None and not 0 <= instr.x_const < p.domain_size:
                rep.violations.append(f"{where}: query address {instr.x_const} out of range")


def _moves(instr, dims: Mapping[str, int], regs) -> bool:
    """Whether an instruction can change a register in ``regs``: a query writes
    its output register, a gate any target some image differs in."""
    if isinstance(instr, Query):
        return instr.y_reg in regs
    return not instr.resolved(tuple(dims[t] for t in instr.targets)).moved.isdisjoint(regs)


# -- instruction application ----------------------------------------------


def _resolve_gate(gate: Gate, tdims: tuple[int, ...]) -> ResolvedGate:
    """The one place a gate is built and checked, for targets of dims ``tdims``."""
    kind, op = _builtin_op(gate, tdims)
    if kind == "matrix":
        op = as_unitary(op, math.prod(tdims))
        inverse = op.conj().T
    else:
        op = as_permutation(op, math.prod(tdims))
        inverse = np.argsort(op)
    return ResolvedGate(CheckedOp(kind, op), CheckedOp(kind, inverse), gate.targets, tdims)


def _builtin_op(gate: Gate, tdims: tuple[int, ...]):
    """("matrix", u) or ("perm", table) for a gate, unchecked."""
    if gate.name == "matrix":
        if gate.matrix is None:
            raise ProtocolShapeError("matrix gate needs an explicit matrix")
        return "matrix", gate.matrix
    if gate.name == "hadamard":
        if tdims != (2,):
            raise ProtocolShapeError("hadamard acts on a single dim-2 register")
        return "matrix", np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    if gate.name == "fourier":
        if len(tdims) != 1:
            raise ProtocolShapeError("fourier acts on a single register")
        g = GroupSpec(gate.group) if gate.group else cyclic(tdims[0])
        if g.order != tdims[0]:
            raise ProtocolShapeError("fourier group order does not match the register")
        return "matrix", g.fourier_matrix
    if gate.name == "permutation":
        if gate.perm is None:
            raise ProtocolShapeError("permutation gate needs a perm table")
        return "perm", np.asarray(gate.perm, dtype=np.int64)
    if gate.name == "controlled-add":
        if len(tdims) != 2:
            raise ProtocolShapeError("controlled-add acts on (source, destination)")
        src_dim, dst_dim = tdims
        g = GroupSpec(gate.group) if gate.group else cyclic(dst_dim)
        if g.order != dst_dim:
            raise ProtocolShapeError("controlled-add group order does not match destination")
        return "perm", function_permutation((src_dim, dst_dim),
                                            lambda a, b: (a, g.add(b, a % dst_dim)))
    raise ProtocolShapeError(f"unknown builtin unitary {gate.name!r}")


def _restrict(form: ResolvedGate, at: tuple) -> ResolvedGate:
    """``form`` on the block of basis states where each target with a value in ``at``
    holds it.  A frozen register may steer the op but never move: an op or inverse
    that takes the block outside itself is rejected."""
    index = tuple(slice(None) if v is None else v for v in at)
    block = np.arange(math.prod(form.tdims)).reshape(form.tdims)[index].ravel()
    full, full_inverse = form.op.array, form.inverse.array
    if form.op.kind == "matrix":
        op, inverse = (m[np.ix_(block, block)] for m in (full, full_inverse))
        if np.abs(np.linalg.norm([op, inverse], axis=1) - 1).max() > UNITARY_TOL:
            raise UnsupportedProtocolError("matrix moves a frozen register")
    else:
        position = np.full(len(full), -1)
        position[block] = np.arange(len(block))
        op, inverse = position[full[block]], position[full_inverse[block]]
        if np.any(op < 0):
            raise UnsupportedProtocolError("permutation moves a frozen register")
    live = [i for i, v in enumerate(at) if v is None]
    return ResolvedGate(CheckedOp(form.op.kind, op), CheckedOp(form.op.kind, inverse),
                        tuple(form.targets[i] for i in live), tuple(form.tdims[i] for i in live))


def apply_instruction(state: QuantumState, instr, dims: Mapping[str, int],
                      inverse: bool = False) -> QuantumState:
    """Run one instruction on a state; a query asks the state's own oracle.

    ``dims`` maps every register the instruction names, frozen ones
    included, to its dimension; a gate runs its form for the state's frozen targets.
    """
    if isinstance(instr, Gate):
        form = instr.resolved(tuple(dims[t] for t in instr.targets),
                              tuple(state.fixed.get(t) for t in instr.targets))
        op = form.inverse if inverse else form.op
        if op.kind == "matrix":
            return state.apply_unitary(op, form.targets)
        return state.permute_basis(op, form.targets) if form.targets else state

    if not isinstance(instr, Query):
        raise ProtocolShapeError(f"unknown instruction {instr!r}")
    return qoracle.oracle_query(
        state, instr.y_reg, x_reg=instr.x_reg, x_const=instr.x_const, inverse=inverse
    )


def apply_program(state, program, dims, inverse=False):
    """Run a program of Gate/Query instructions; ``inverse`` undoes it."""
    instrs = list(program)
    if inverse:
        instrs = instrs[::-1]
    for instr in instrs:
        state = apply_instruction(state, instr, dims, inverse=inverse)
    return state


# -- execution --------------------------------------------------------------


@dataclass
class EnsembleComponent:
    weight: float
    vector: np.ndarray
    values: tuple[int, ...]


@dataclass
class Branch:
    """One path of the walk: its transcript, the transcript's probability and the
    state at its end (Bob's key frozen in it, for a sampled run)."""

    transcript: tuple[int, ...]
    probability: float
    state: QuantumState


def _initial_state(p: Protocol, table) -> QuantumState:
    if table is None:
        return qoracle.init_purified(p.oracle, p._layout_registers, amplitude_cap=p.amplitude_cap)
    return qoracle.init_table(p.oracle, p._layout_registers, table, amplitude_cap=p.amplitude_cap)


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


def _walk(p: Protocol, table, choose) -> list[tuple[QuantumState, tuple, tuple]]:
    """Walk the rounds, following at each classical message the symbols ``choose`` picks.

    A message is measured right after its round's last write (its measurement
    point), and the rest of the round runs on each branch with it frozen: measurement
    commutes with instructions that only read it.  ``choose(state, message,
    position)`` sees the state at that point and the number of symbols already
    sent.  Returns ``(state, transcript, per-message probabilities)`` for each
    path, depth first.  Each followed symbol is frozen into its branch
    (``collapse_register``), and a measured parent state is dropped as soon as
    its branches exist.
    """
    dims = p._run_dims
    done = []
    todo = [(0, _initial_state(p, table), (), ())]
    while todo:
        first, state, transcript, probs = todo.pop()
        for r in range(first, len(p.rounds)):
            step, cut = p.rounds[r], p._measure_points[r]
            if cut is None:
                state = apply_program(state, step.program, dims)
                continue
            state = apply_program(state, step.program[:cut], dims)
            # pushed last symbol first, so the first is walked first
            for sym in reversed(choose(state, step.message, len(transcript))):
                child, pr = state.collapse_register(step.message, sym)
                child = apply_program(child, step.program[cut:], dims)
                todo.append((r + 1, child, transcript + (sym,), probs + (pr,)))
                del child  # the worklist holds the only reference
            break
        else:
            done.append((state, transcript, probs))
    return done


def _leading_vector(mat: np.ndarray, what: str) -> np.ndarray:
    """Leading left singular vector in canonical phase; ``mat`` must have rank one."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if len(s) > 1 and s[1] > _PRODUCT_TOL * s[0]:
        raise UnsupportedProtocolError(f"{what} (second singular value {s[1]:.3e})")
    return canonical_phase(u[:, 0])


def message_ensemble(state: QuantumState, p: Protocol) -> list[EnsembleComponent]:
    """Decompose the outgoing message by measuring Bob's ensemble registers.

    Every branch must leave the message register in a pure state that is
    in a product with the rest of the system; protocols are required to
    be written so this holds (Bob's registers other than his key must
    purify the message).
    """
    m_reg = p.message_reg
    ens_dims = [state.layout.dim(r) for r in p.ensemble_regs]
    blocks = state.split([*p.ensemble_regs, m_reg]).reshape(
        math.prod(ens_dims), state.layout.dim(m_reg), -1)
    components: list[EnsembleComponent] = []
    for values, mat in zip(np.ndindex(*ens_dims), blocks):
        q = float(np.sum(np.abs(mat) ** 2))
        if q < _BRANCH_TOL:
            continue
        vector = _leading_vector(mat, "message register is not pure given the ensemble registers")
        components.append(EnsembleComponent(q, vector, tuple(int(v) for v in values)))
    total = sum(c.weight for c in components)
    for c in components:
        c.weight /= total
    return components


def _sampled_run(p: Protocol, table, seed) -> Branch:
    """One sampled run, purified (table=None) or concrete, with Bob's sampled key frozen."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    [(state, transcript, probs)] = _walk(
        p, table, lambda s, message, _: [_sample(rng, s.probabilities(message))])
    state, _ = state.collapse_register(p.key_reg_b, _sample(rng, state.probabilities(p.key_reg_b)))
    return Branch(transcript, float(math.prod(probs)), state)


def final_map(p: Protocol, state: QuantumState) -> tuple[np.ndarray, QuantumState]:
    """Alice's final map on ``state``; its queries ask the state's own oracle.

    Returns her key distribution over {0, 1, bottom} and the state after
    the map.
    """
    final = apply_program(state, p.final_a_program, p._run_dims)
    probs = final.probabilities(p.key_reg_a)
    dist = np.zeros(3)
    dist[: len(probs)] = probs
    return dist, final


def extract_alice_state(state: QuantumState, p: Protocol) -> QuantumState:
    """Alice's side of a fixed-oracle run as a pure state.

    Given the transcript and the table, the two labs must sit in a
    product state; anything else means the protocol sneaks correlations
    outside the model and is rejected.  The result keeps the state's
    oracle and frozen registers but Bob's key, so Alice's final map can
    query the table.
    """
    side = [n for n in p.alice_side if not state.is_fixed(n)]
    vector = _leading_vector(state.split(side), "Alice's conditioned state is not pure")
    layout = state.layout.with_registers(state.layout.register(n) for n in side)
    fixed = {n: v for n, v in state.fixed.items() if n != p.key_reg_b}
    return QuantumState.from_vector(layout, vector, fixed)


def run_purified(p: Protocol, seed=None) -> Branch:
    """Sample one purified execution: every party plus the oracle in one state."""
    return _sampled_run(p, None, seed)


def run_concrete(p: Protocol, table, seed=None) -> Branch:
    """Sample one run against a fixed oracle table."""
    return _sampled_run(p, table, seed)


def run_conditioned(p: Protocol, transcript, table=None) -> tuple[QuantumState, float]:
    """Run all rounds with the classical messages forced to ``transcript``.

    Returns the joint state just before Bob's key measurement together
    with the probability of that transcript.  A transcript the protocol
    cannot produce raises ZeroProbabilityError.  A symbol is an integer or a
    numpy integer; a bool, a float or a string is a DomainError.
    """
    transcript = tuple(transcript)
    if not all(map(is_int, transcript)):
        raise DomainError(f"transcript symbols must be integers, got {transcript!r}")
    transcript = tuple(map(int, transcript))
    expected = len(p.classical_messages)
    if len(transcript) != expected:
        raise DomainError(f"transcript has {len(transcript)} symbols, protocol sends {expected}")
    [(state, _, probs)] = _walk(p, table, lambda state, message, k: [transcript[k]])
    return state, float(math.prod(probs))


# -- exhaustive enumeration -------------------------------------------------


def _every_symbol(state: QuantumState, message: str, _) -> list[int]:
    probs = state.probabilities(message)
    return [sym for sym in range(len(probs)) if probs[sym] >= _BRANCH_TOL]


def enumerate_branches(p: Protocol, table=None) -> list[Branch]:
    """All transcript branches with their probabilities and final states."""
    return [Branch(transcript, float(math.prod(probs)), state)
            for state, transcript, probs in _walk(p, table, _every_symbol)]


def joint_distribution(p: Protocol, table=None) -> dict:
    """Exact distribution over (transcript, k_B, k_A)."""
    dist: dict = {}
    for branch in enumerate_branches(p, table=table):
        kb_probs = branch.state.probabilities(p.key_reg_b)
        for k_B in range(len(kb_probs)):
            if kb_probs[k_B] < _BRANCH_TOL:
                continue
            conditioned, pr_b = branch.state.collapse_register(p.key_reg_b, k_B)
            ka_probs, _ = final_map(p, conditioned)
            for k_A in range(3):
                w = branch.probability * pr_b * float(ka_probs[k_A])
                if w < _BRANCH_TOL:
                    continue
                key = (branch.transcript, k_B, k_A)
                dist[key] = dist.get(key, 0.0) + w
    return dist


def averaged_concrete_distribution(p: Protocol) -> dict:
    """joint_distribution averaged uniformly over every oracle table."""
    total: dict = {}
    count = 0
    for table in p.oracle.all_tables():
        for key, w in joint_distribution(p, table=table).items():
            total[key] = total.get(key, 0.0) + w
        count += 1
    return {k: v / count for k, v in total.items()}


def distribution_tv(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


# -- Alice's final map on a delivered message -------------------------------


def deliver(p: Protocol, state: QuantumState, vector) -> tuple[np.ndarray, QuantumState]:
    """Put one message vector on M and run Alice's final map: (key dist, final state).

    An M the state already holds (Eve's simulated message) is kept under the
    name M + ``SIM_MESSAGE_SUFFIX``.  A basis vector is held frozen, like a
    sent symbol, when the final map never changes M (the write test
    ``validate`` runs on announced registers); any other vector is attached
    as a live register.
    """
    m = p.message_reg
    dim = p.reg_dims[m]
    vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != dim or not abs(np.linalg.norm(vec) - 1.0) <= 1e-9:
        raise DomainError(f"message must be a unit vector of length {dim}, got {vec}")
    if m in state.layout or state.is_fixed(m):
        state = state.rename_register(m, m + SIM_MESSAGE_SUFFIX)
    support = np.flatnonzero(np.abs(vec) > _BRANCH_TOL)
    if len(support) == 1 and not p._final_writes_m:
        state = state.attach_fixed(m, int(support[0]))
    else:
        state = state.attach_register(Register(m, dim), vector=vec)
    return final_map(p, state)


def alice_final(p: Protocol, alice_state: QuantumState, message) -> np.ndarray:
    """Distribution over Alice's key {0, 1, bottom} given a delivered message.

    ``message`` is a vector or a density operator on the message register;
    each pure state of its spectral ensemble goes through ``deliver``.
    Oracle queries in the final map ask ``alice_state``'s own oracle (the
    real table, for a state from ``extract_alice_state``); on a state
    without one they raise LayoutError.
    """
    pure = message.eig_ensemble() if isinstance(message, DensityOperator) else [(1.0, message)]
    return sum(prob * deliver(p, alice_state, vec)[0] for prob, vec in pure)
