"""Eve's active attack on protocols whose final map skips the oracle.

The attack composes the pieces built elsewhere: run the protocol against a
fixed table while holding back Bob's quantum message, learn the heavy oracle
points from the transcript, rebuild Bob's lab inside Eve's simulator, and
run Alice's final map against the simulated oracle to read off the key.  The
intercepted message is then repaired (measure, uncompute) and delivered to
the real Alice.

Everything here is exact linear algebra on small dense states, so the
diagnostics (eq_find, eq_simulatedm, eq_agrees) are computed to numerical
precision rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedProtocolError
from .learner import LearnerOutcome, learn
from .oracle import all_weights, check_table, fourier_support_size
from .protocol import (
    KEY_ABORT,
    Gate,
    Protocol,
    Query,
    alice_final,
    apply_program,
    final_map,
    run_concrete,
)
from .qstate import (
    KIND_MESSAGE,
    DensityOperator,
    QuantumState,
    Register,
    RegisterLayout,
)
from .zoo import QpkeScheme, ka_from_qpke

_DEAD_COMPONENT_TOL = 1e-12
SIM_MESSAGE_SUFFIX = "__sim"


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream: same master seed, any trial order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,)))


def random_table(rng: np.random.Generator, p: Protocol) -> tuple:
    """A uniformly random oracle table for ``p``, drawn from ``rng``."""
    return tuple(int(v) for v in rng.integers(0, p.group.order, size=p.domain_size))


def default_cap(p: Protocol, eps: float, lam: float) -> int:
    """The learner's query cap when none is given: ceil(d / (lam * eps)), at least 1."""
    return max(1, math.ceil(p.query_budget / (lam * eps)))


@dataclass
class AttackOutcome:
    """One full run of the attack against one oracle table."""

    k_E: int
    k_A: int | None
    k_B: int
    l_size: int
    aborted: bool
    eq_find: float
    eq_simulatedm: float
    eq_agrees: float
    components_agree: bool
    conjecture_relevant: bool
    transcript: tuple
    table: tuple
    learner: LearnerOutcome
    artifacts: dict | None = field(default=None, repr=False)

    @property
    def success(self) -> bool:
        """Shared non-bottom key and a learner that stayed within budget."""
        return (
            not self.aborted
            and self.k_A is not None
            and self.k_A != KEY_ABORT
            and self.k_E == self.k_A == self.k_B
        )

    @property
    def key_match(self) -> bool:
        return self.k_E == self.k_B

    def to_json(self) -> dict:
        def num(v):
            return None if math.isnan(v) else v

        return {
            "k_E": self.k_E,
            "k_A": self.k_A,
            "k_B": self.k_B,
            "L_size": self.l_size,
            "aborted": self.aborted,
            "eq_find": num(self.eq_find),
            "eq_simulatedm": num(self.eq_simulatedm),
            "eq_agrees": num(self.eq_agrees),
        }


def _message_address_only(p: Protocol) -> bool:
    """True when the final map only ever reads the message as a query address."""
    m = p.message_reg()
    for instr in p.final_a_program:
        if isinstance(instr, Gate) and m in instr.targets:
            return False
        if isinstance(instr, Query) and instr.y_reg == m:
            return False
    return True


def _attach_component(sim_state: QuantumState, p: Protocol, vector) -> QuantumState:
    """Swap Eve's simulated message out for one real-message component.

    The simulated message register keeps its contents under a shadow name so
    the simulator state stays intact; Alice's final map then acts on the real
    component.  Basis-vector components of address-only protocols are pinned
    classically, which keeps large message registers off the tensor product.
    """
    m = p.message_reg()
    dim = p.register(m).dim
    vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != dim:
        raise DomainError(f"message component has length {len(vec)}, register wants {dim}")
    shadowed = sim_state.rename_register(m, m + SIM_MESSAGE_SUFFIX)
    support = np.nonzero(np.abs(vec) > 1e-12)[0]
    if len(support) == 1 and _message_address_only(p):
        return shadowed.attach_fixed(m, int(support[0]))
    return shadowed.attach_register(Register(m, dim, KIND_MESSAGE), vector=vec)


def _final_on_component(sim_state, p, vector):
    """Alice's final map inside the simulator: returns (key dist, final state)."""
    return final_map(p, _attach_component(sim_state, p, vector))


def eve_message(p: Protocol, post_state: QuantumState) -> DensityOperator:
    """Repair the measured message: uncompute the final map, trace to M.

    ``post_state`` is the simulator state right after the key projection.
    The final map is applied in reverse (matrix adjoints, inverse
    permutations, inverse query kernels) and everything except the real
    message register is traced out.
    """
    m = p.message_reg()
    dim = p.register(m).dim
    if post_state.is_fixed(m):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[post_state.fixed[m]] = 1.0
        return DensityOperator.from_pure([Register(m, dim, KIND_MESSAGE)], vec)
    undone = apply_program(post_state, p.final_a_program, p.reg_dims(), inverse=True)
    return undone.partial_trace([m])


def _repair(p: Protocol, components, finals, dists, k_E: int):
    """Measure, uncompute and mix: Eve's repaired message over the components.

    ``finals[i]`` and ``dists[i]`` are component i's simulator state after
    Alice's final map and its key distribution.  Returns ``(eq_simulatedm,
    rho, posts)``: the worst overlap of a repaired component with the real
    one, the mix weighted by ``weight * Pr[k_E]`` (the maximally mixed state
    when nothing survives the projection), and each live component's state
    right after the key projection.
    """
    m_reg = p.message_reg()
    m_dim = p.register(m_reg).dim
    eq_simulatedm = 1.0
    mixed = np.zeros((m_dim, m_dim), dtype=np.complex128)
    mass = 0.0
    posts = []
    for comp, dist, final in zip(components, dists, finals):
        p_i = float(dist[k_E])
        if p_i < _DEAD_COMPONENT_TOL:
            # the projection annihilated this component; Eve cannot
            # reproduce it at all
            eq_simulatedm = 0.0
            continue
        post, _ = final.postselect(p.key_reg_a, k_E)
        rho_i = eve_message(p, post)
        eq_simulatedm = min(eq_simulatedm, rho_i.overlap(comp.vector))
        mixed += comp.weight * p_i * rho_i.matrix
        mass += comp.weight * p_i
        posts.append(post)
    if mass < _DEAD_COMPONENT_TOL:
        # nothing survived; send noise so the run still completes
        mixed = np.eye(m_dim, dtype=np.complex128) / m_dim
        eq_simulatedm = 0.0
    else:
        mixed /= mass
    return eq_simulatedm, DensityOperator([Register(m_reg, m_dim, KIND_MESSAGE)], mixed), posts


def full_attack(
    p: Protocol,
    eps: float,
    lam: float,
    table,
    seed=None,
    cap: int | None = None,
    guess_only: bool = False,
    force_simulated_oracle: bool = False,
    keep_states: bool = False,
) -> AttackOutcome:
    """One end-to-end run of Eve's attack against one oracle table.

    Flow: run the real protocol up to Bob's message (holding the message
    back), learn heavy points from the transcript with threshold ``eps``
    and query cap ``cap`` (default ceil(d / (lam * eps))), guess the key
    component by component, repair the message, deliver it, and let the
    real Alice finish.  ``guess_only`` stops after the key guess (the
    repair diagnostics come back NaN), which is all the key-recovery
    experiments need.  ``keep_states`` retains the dense intermediate
    states for check_inequalities and for dumping.
    """
    if not p.alice_no_final_query and not force_simulated_oracle:
        raise UnsupportedProtocolError(
            "final map queries the oracle; the attack only covers protocols "
            "whose final map is oracle-free"
        )
    if not 0 < lam < 1:
        raise DomainError(f"failure budget must be in (0,1), got {lam}")
    if not 0 < eps < 1:
        raise DomainError(f"threshold must be in (0,1), got {eps}")
    rng = np.random.default_rng(seed)
    table = check_table(p.oracle_spec(), table)
    if cap is None:
        cap = default_cap(p, eps, lam)

    trace = run_concrete(p, table, seed=rng, honest=False)
    sim = learn(p, trace.transcript, eps, table, cap=cap)

    dists, finals = zip(*(_final_on_component(sim.simulated_state, p, comp.vector)
                          for comp in trace.ensemble))

    k_E = int(np.argmax(dists[0][:2]))
    components_agree = all(int(np.argmax(d[:2])) == k_E for d in dists)
    eq_find = min(float(d[k_E]) for d in dists)

    artifacts = None
    if guess_only:
        k_A = None
        eq_simulatedm = float("nan")
        eq_agrees = float("nan")
    else:
        eq_simulatedm, rho, _ = _repair(p, trace.ensemble, finals, dists, k_E)
        alice_dist = alice_final(p, trace.alice_state, rho)
        eq_agrees = float(alice_dist[k_E])
        k_A = int(rng.choice(3, p=alice_dist / alice_dist.sum()))
        if keep_states:
            artifacts = {
                "simulated_state": sim.simulated_state,
                "message_components": list(trace.ensemble),
                "rho_prime": rho,
                "alice_state": trace.alice_state,
            }

    conjecture_relevant = (
        p.alice_no_final_query
        and not force_simulated_oracle
        and (not components_agree or eq_find < 1.0 - lam)
    )
    return AttackOutcome(
        k_E=k_E,
        k_A=k_A,
        k_B=trace.k_B,
        l_size=sim.queries_made,
        aborted=sim.aborted,
        eq_find=eq_find,
        eq_simulatedm=eq_simulatedm,
        eq_agrees=eq_agrees,
        components_agree=components_agree,
        conjecture_relevant=conjecture_relevant,
        transcript=trace.transcript,
        table=table,
        learner=sim,
        artifacts=artifacts,
    )


def _trace_then_uncompute(p: Protocol, post: QuantumState) -> DensityOperator:
    """The other operator order: discard Bob's lab first, then uncompute."""
    m = p.message_reg()
    keep = [n for n in p.alice_side() if n in post.layout]
    keep.append(m)
    rho = post.partial_trace(keep)
    layout = RegisterLayout(rho.registers, amplitude_cap=post.layout.amplitude_cap)
    acc = np.zeros((p.register(m).dim,) * 2, dtype=np.complex128)
    for prob, vec in rho.eig_ensemble():
        pure = QuantumState.from_vector(layout, vec, post.fixed)
        undone = apply_program(pure, p.final_a_program, p.reg_dims(), inverse=True)
        acc += prob * undone.partial_trace([m]).matrix
    return DensityOperator([rho.registers[-1]], acc)


def check_inequalities(p: Protocol, outcome: AttackOutcome, atol: float = 1e-9) -> dict:
    """Recompute every attack diagnostic from the retained states.

    Verifies the recorded eq values, that the final map left the oracle
    weights (and their support size) alone, and that uncompute-then-trace
    and trace-then-uncompute produce the same repaired message.  Needs an
    outcome produced with ``keep_states=True``.
    """
    if outcome.artifacts is None:
        raise DomainError("outcome carries no retained states; rerun with keep_states=True")
    art = outcome.artifacts
    comps = art["message_components"]
    m_reg = p.message_reg()

    sim = art["simulated_state"]
    w_before = all_weights(sim)
    s_before = fourier_support_size(sim)
    dists, finals = zip(*(_final_on_component(sim, p, comp.vector) for comp in comps))
    drift = max(float(np.max(np.abs(all_weights(final) - w_before))) for final in finals)
    support_ok = all(fourier_support_size(final) == s_before for final in finals)
    eq_find = min(float(d[outcome.k_E]) for d in dists)
    eq_sim, rho, posts = _repair(p, comps, finals, dists, outcome.k_E)

    order_gap = 0.0
    if p.alice_no_final_query:
        for post in posts:
            if not post.is_fixed(m_reg):
                gap = eve_message(p, post).matrix - _trace_then_uncompute(p, post).matrix
                order_gap = max(order_gap, float(np.max(np.abs(gap))))
    rho_gap = float(np.max(np.abs(rho.matrix - art["rho_prime"].matrix)))
    alice_dist = alice_final(p, art["alice_state"], rho)
    eq_agrees = float(alice_dist[outcome.k_E])

    matches = (
        abs(eq_find - outcome.eq_find) <= atol
        and abs(eq_sim - outcome.eq_simulatedm) <= atol
        and abs(eq_agrees - outcome.eq_agrees) <= atol
        and rho_gap <= atol
    )
    return {
        "eq_find": eq_find,
        "eq_simulatedm": eq_sim,
        "eq_agrees": eq_agrees,
        "matches_recorded": matches,
        "h_weight_drift": drift,
        "support_preserved": support_ok,
        "uncompute_order_gap": order_gap,
        "rho_gap": rho_gap,
    }


def ind_cpa_game(scheme: QpkeScheme, trials: int, eps: float, lam: float, seed: int) -> dict:
    """Key-recovery game against the key agreement built from a scheme.

    Each trial draws a fresh oracle table, runs the protocol with Bob's
    plaintext bit uniform, and lets Eve guess it from the public key and
    the ciphertext.  A trial is a win when Eve's guess equals Bob's bit.
    """
    if scheme.dec_queries_oracle:
        raise UnsupportedProtocolError(
            f"scheme {scheme.name!r} decrypts by querying the oracle; "
            "the attack does not apply"
        )
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    p = ka_from_qpke(scheme)
    wins = 0
    outcomes = []
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        out = full_attack(p, eps, lam, random_table(rng, p), seed=rng, guess_only=True)
        wins += out.key_match
        outcomes.append(out)
    return {
        "trials": trials,
        "wins": wins,
        "win_rate": wins / trials,
        "outcomes": outcomes,
    }
