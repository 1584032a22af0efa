"""Ready-made protocols the experiments run against.

All of them agree on a key on every branch at their shipped parameters;
correctness is checked exhaustively in the tests.  Keys are the low bit
of an oracle value so the same constructions work for any range group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupSpec, cyclic
from .errors import DomainError
from .protocol import (
    Protocol,
    ProtocolRegister,
    Query,
    Step,
    controlled_add_gate,
    fourier_gate,
    function_permutation,
    hadamard_gate,
    permutation_gate,
    query_count,
)


def _lsb_into_key(group: GroupSpec, y_reg: str, key_reg: str):
    """key ^= low bit of the group value sitting in y_reg."""
    perm = function_permutation(
        (group.order, 2), lambda y, k: (y, k ^ group.lsb(y))
    )
    return permutation_gate(perm, (y_reg, key_reg))


def _swap_key(ka: int, target: int) -> int:
    """Transposition 0 <-> target on the 3-valued key register."""
    if target == 0 or ka not in (0, target):
        return ka
    return target if ka == 0 else 0


def _compare_into_key(group: GroupSpec, m_reg: str, ref_reg: str, key_reg: str):
    """KA := low bit of M when M matches the reference value, else bottom."""

    def fn(m, ref, ka):
        target = group.lsb(m) if m == ref else 2
        return (m, ref, _swap_key(ka, target))

    perm = function_permutation((group.order, group.order, 3), fn)
    return permutation_gate(perm, (m_reg, ref_reg, key_reg))


def announced_query_protocol(domain_size: int, group: GroupSpec | None = None) -> Protocol:
    """Alice announces a random address; both query it; key = low bit.

    The simplest insecure baseline: the announced address makes the one
    heavy query obvious, so an eavesdropper who can query the oracle
    learns the key from the transcript alone.
    """
    g = group or cyclic(2)
    if domain_size < 2:
        raise DomainError("domain size must be at least 2")
    o = g.order
    return Protocol(
        name="announced-query",
        group=g,
        domain_size=domain_size,
        registers=(
            ProtocolRegister("T1", domain_size, "T"),
            ProtocolRegister("YA", o, "A"),
            ProtocolRegister("KA", 3, "A"),
            ProtocolRegister("YB", o, "B"),
            ProtocolRegister("KB", 2, "B"),
            ProtocolRegister("M", o, "M"),
        ),
        rounds=(
            Step(
                party="A",
                program=(fourier_gate("T1"), Query("YA", x_reg="T1")),
                message="T1",
            ),
            Step(
                party="B",
                program=(
                    Query("YB", x_reg="T1"),
                    _lsb_into_key(g, "YB", "KB"),
                    controlled_add_gate("YB", "M", group=g),
                ),
                message="M",
            ),
        ),
        final_a_program=(_compare_into_key(g, "M", "YA", "KA"),),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def merkle_ka_protocol(
    domain_size: int, group: GroupSpec | None = None, puzzle_count: int = 2
) -> Protocol:
    """Puzzle-style agreement: Alice solves every puzzle up front, Bob one.

    Alice queries addresses 0..P-1, keeps the answers, and announces a
    whitening bit that both sides fold into the key.  Bob picks one
    puzzle at random, queries it, announces which one he picked, and
    sends the answer as the quantum message.  Alice compares it against
    her stored copy.  Two classical rounds, then the quantum message.
    """
    g = group or cyclic(2)
    if not 2 <= puzzle_count <= domain_size:
        raise DomainError("puzzle count must be between 2 and the domain size")
    o = g.order
    ya_names = tuple(f"YA{j}" for j in range(puzzle_count))
    registers = (
        (ProtocolRegister("T1", 2, "T"),)
        + tuple(ProtocolRegister(n, o, "A") for n in ya_names)
        + (
            ProtocolRegister("KA", 3, "A"),
            ProtocolRegister("T2", puzzle_count, "T"),
            ProtocolRegister("YB", o, "B"),
            ProtocolRegister("KB", 2, "B"),
            ProtocolRegister("M", o, "M"),
        )
    )

    def final_fn(c, t2, m, *rest):
        yas, ka = rest[:-1], rest[-1]
        target = (g.lsb(m) ^ c) if m == yas[t2] else 2
        return (c, t2, m) + tuple(yas) + (_swap_key(ka, target),)

    final_perm = function_permutation(
        (2, puzzle_count, o) + (o,) * puzzle_count + (3,), final_fn
    )
    return Protocol(
        name="merkle",
        group=g,
        domain_size=domain_size,
        registers=registers,
        rounds=(
            Step(
                party="A",
                program=(hadamard_gate("T1"),)
                + tuple(Query(ya_names[j], x_const=j) for j in range(puzzle_count)),
                message="T1",
            ),
            Step(
                party="B",
                program=(
                    fourier_gate("T2"),
                    Query("YB", x_reg="T2"),
                    _lsb_into_key(g, "YB", "KB"),
                    controlled_add_gate("T1", "KB"),
                    controlled_add_gate("YB", "M", group=g),
                ),
                message="T2",
            ),
            Step(party="B", program=(), message="M"),
        ),
        final_a_program=(
            permutation_gate(final_perm, ("T1", "T2", "M") + ya_names + ("KA",)),
        ),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def trivial_last_message_protocol(domain_size: int, group: GroupSpec | None = None) -> Protocol:
    """Bob queries a random address and sends the address itself.

    Alice has to query the oracle after receiving the message, so the
    no-final-query hypothesis fails; validate points that out.  The
    message is maximally mixed from the outside, which is exactly why
    the eavesdropping strategy used elsewhere has nothing to grab.
    """
    g = group or cyclic(2)
    if domain_size < 2:
        raise DomainError("domain size must be at least 2")
    o = g.order

    def dec_fn(y, ka):
        return (y, _swap_key(ka, g.lsb(y)))

    key_perm = function_permutation((o, 3), dec_fn)
    return Protocol(
        name="trivial-last-message",
        group=g,
        domain_size=domain_size,
        registers=(
            ProtocolRegister("YA", o, "A"),
            ProtocolRegister("KA", 3, "A"),
            ProtocolRegister("EB", domain_size, "B"),
            ProtocolRegister("YB", o, "B"),
            ProtocolRegister("KB", 2, "B"),
            ProtocolRegister("M", domain_size, "M"),
        ),
        rounds=(
            Step(party="A", program=()),
            Step(
                party="B",
                program=(
                    fourier_gate("M"),
                    Query("YB", x_reg="M"),
                    _lsb_into_key(g, "YB", "KB"),
                    controlled_add_gate("M", "EB", group=cyclic(domain_size)),
                ),
                message="M",
            ),
        ),
        final_a_program=(
            Query("YA", x_reg="M"),
            permutation_gate(key_perm, ("YA", "KA")),
        ),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def constant_key_protocol(domain_size: int = 2, group: GroupSpec | None = None) -> Protocol:
    """No oracle use at all; both keys are the constant 0."""
    g = group or cyclic(2)
    return Protocol(
        name="constant-key",
        group=g,
        domain_size=domain_size,
        registers=(
            ProtocolRegister("KA", 3, "A"),
            ProtocolRegister("KB", 2, "B"),
            ProtocolRegister("M", 2, "M"),
        ),
        rounds=(
            Step(party="A", program=()),
            Step(party="B", program=(), message="M"),
        ),
        final_a_program=(),
        key_reg_a="KA",
        key_reg_b="KB",
    )


@dataclass(frozen=True)
class QpkeScheme:
    """One-bit public-key encryption with a classical public key.

    The pieces are straight-line programs over the registers below, so
    the key-agreement reduction can splice them into a protocol.  PK is
    the announced public key, KB the plaintext bit on Bob's side, M the
    ciphertext register, KA where decryption writes its output.
    """

    name: str
    group: GroupSpec
    domain_size: int
    registers: tuple
    gen_program: tuple
    enc_program: tuple
    dec_program: tuple

    @property
    def dec_queries_oracle(self) -> bool:
        return query_count(self.dec_program) > 0


def toy_qpke(
    domain_size: int, group: GroupSpec | None = None, querying_dec: bool = False
) -> QpkeScheme:
    """pk is a random address, the secret is the low bit of its oracle value.

    Enc(pk, b) = |b xor lsb(h(pk))>.  In the standard variant key
    generation queries the oracle and stores the secret bit, so Dec is
    query-free.  With ``querying_dec`` the secret stays implicit and Dec
    itself queries h(pk), which puts the scheme outside what the
    eavesdropper machinery covers.
    """
    g = group or cyclic(2)
    if domain_size < 2:
        raise DomainError("domain size must be at least 2")
    o = g.order
    registers = (
        ProtocolRegister("PK", domain_size, "T"),
        ProtocolRegister("YA", o, "A"),
        ProtocolRegister("SK", 2, "A"),
        ProtocolRegister("KA", 3, "A"),
        ProtocolRegister("YB", o, "B"),
        ProtocolRegister("KB", 2, "B"),
        ProtocolRegister("M", 2, "M"),
    )
    enc_perm = function_permutation(
        (2, o, 2), lambda k, y, m: (k, y, m ^ k ^ g.lsb(y))
    )
    enc_program = (
        Query("YB", x_reg="PK"),
        permutation_gate(enc_perm, ("KB", "YB", "M")),
    )
    if querying_dec:
        dec_perm = function_permutation(
            (2, o, 3), lambda m, y, ka: (m, y, _swap_key(ka, m ^ g.lsb(y)))
        )
        return QpkeScheme(
            name="toy-qpke-querying-dec",
            group=g,
            domain_size=domain_size,
            registers=registers,
            gen_program=(fourier_gate("PK"),),
            enc_program=enc_program,
            dec_program=(
                Query("YA", x_reg="PK"),
                permutation_gate(dec_perm, ("M", "YA", "KA")),
            ),
        )
    dec_perm = function_permutation(
        (2, 2, 3), lambda m, sk, ka: (m, sk, _swap_key(ka, m ^ sk))
    )
    return QpkeScheme(
        name="toy-qpke",
        group=g,
        domain_size=domain_size,
        registers=registers,
        gen_program=(
            fourier_gate("PK"),
            Query("YA", x_reg="PK"),
            _lsb_into_key(g, "YA", "SK"),
        ),
        enc_program=enc_program,
        dec_program=(permutation_gate(dec_perm, ("M", "SK", "KA")),),
    )


def ka_from_qpke(scheme: QpkeScheme) -> Protocol:
    """Key agreement from a one-bit scheme: announce pk, encrypt a coin.

    Alice runs key generation and announces pk.  Bob flips his key bit,
    encrypts it under pk, and sends the ciphertext as the quantum
    message.  Alice's final map is decryption, so the protocol is inside
    the attack's hypothesis exactly when Dec makes no query; its d is the
    larger of Alice's Gen-plus-Dec and Bob's Enc query counts.
    """
    rounds = (
        Step(party="A", program=tuple(scheme.gen_program), message="PK"),
        Step(
            party="B",
            program=(hadamard_gate("KB"),) + tuple(scheme.enc_program),
            message="M",
        ),
    )
    return Protocol(
        name=f"ka-from-{scheme.name}",
        group=scheme.group,
        domain_size=scheme.domain_size,
        registers=tuple(scheme.registers),
        rounds=rounds,
        final_a_program=tuple(scheme.dec_program),
        key_reg_a="KA",
        key_reg_b="KB",
    )


def standard_zoo(domain_size: int = 4, group: GroupSpec | None = None) -> dict[str, Protocol]:
    """The protocols exercised by the exhaustive checks, by name."""
    g = group or cyclic(2)
    return {
        "announced-query": announced_query_protocol(domain_size, g),
        "merkle": merkle_ka_protocol(domain_size, g, puzzle_count=2),
        "trivial-last-message": trivial_last_message_protocol(domain_size, g),
        "constant-key": constant_key_protocol(domain_size, g),
        "ka-from-toy-qpke": ka_from_qpke(toy_qpke(domain_size, g)),
    }
