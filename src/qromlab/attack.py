"""Eve's active attack on protocols whose final map skips the oracle.

The attack composes the pieces built elsewhere: run the protocol against a
fixed table while holding back Bob's quantum message, split the run into Bob's
message ensemble and Alice's pure state (the only caller that does), learn the
heavy oracle points from the transcript, and run Alice's final map against the
simulated oracle to read off the key.  Each intercepted component is repaired
(measure, uncompute) as soon as it is read, and the repaired mix goes to the
real Alice.  Every delivery is ``protocol.deliver``: a basis component that the
final map only reads is a frozen register, like a sent symbol, so its repair is
the frozen value itself.

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
from .protocol import (KEY_ABORT, Protocol, _sampled_run, alice_final, apply_program, deliver,
                       extract_alice_state, message_ensemble)
from .qstate import DensityOperator, QuantumState, Register
from .zoo import QpkeScheme, ka_from_qpke

_DEAD_COMPONENT_TOL = 1e-12


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
    def l_size(self) -> int:
        return self.learner.queries_made

    @property
    def aborted(self) -> bool:
        return self.learner.aborted

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


def eve_message(p: Protocol, post_state: QuantumState) -> DensityOperator:
    """Repair the measured message: uncompute the final map, trace to M.

    ``post_state`` is the simulator state right after the key projection.  A
    frozen M comes back as its own value; a live one has the final map run in
    reverse (adjoints, inverse permutations and query kernels) and the rest traced out.
    """
    m = p.message_reg
    dim = p.reg_dims[m]
    if post_state.is_fixed(m):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[post_state.fixed[m]] = 1.0
        return DensityOperator.from_pure([Register(m, dim)], vec)
    undone = apply_program(post_state, p.final_a_program, p.reg_dims, inverse=True)
    return undone.partial_trace([m])


def _repair(p: Protocol, state: QuantumState, components, k_E: int | None = None,
            guess_only: bool = False, inspect=lambda final, post, rho: None):
    """Eve's one pass over Bob's components, one delivered state at a time.

    Each component goes through ``deliver`` into ``state``; ``k_E`` defaults to
    component 0's likelier key bit.  Unless ``guess_only``, it is then measured at
    ``k_E`` and repaired: a frozen M is its own repair, a live one is postselected and
    uncomputed.  ``inspect(final, post, rho)`` sees both states and the repaired message
    (post and rho None when unrepaired) before they are dropped.  Returns ``(k_E, key
    laws, eq_simulatedm, rho)``: the worst overlap of a repaired component with the real
    one and the ``weight * Pr[k_E]`` mix (maximally mixed when nothing survives), or NaN
    and None when ``guess_only``.
    """
    m_reg = p.message_reg
    m_dim = p.reg_dims[m_reg]
    dists, eq_simulatedm, mass = [], 1.0, 0.0
    mixed = np.zeros((m_dim, m_dim), dtype=np.complex128)
    for comp in components:
        dist, final = deliver(p, state, comp.vector)
        dists.append(dist)
        if k_E is None:
            k_E = int(np.argmax(dist[:2]))
        p_i = float(dist[k_E])
        post = rho_i = None
        if p_i < _DEAD_COMPONENT_TOL:
            # the projection annihilated this component; Eve cannot reproduce it
            eq_simulatedm = 0.0
        elif not guess_only:
            post = final if final.is_fixed(m_reg) else final.postselect(p.key_reg_a, k_E)[0]
            rho_i = eve_message(p, post)
            eq_simulatedm = min(eq_simulatedm, rho_i.overlap(comp.vector))
            mixed += comp.weight * p_i * rho_i.matrix
            mass += comp.weight * p_i
        inspect(final, post, rho_i)
        del final, post, rho_i  # dropped before the next delivery
    if guess_only:
        return k_E, dists, float("nan"), None
    if mass < _DEAD_COMPONENT_TOL:
        # nothing survived; send noise so the run still completes
        mixed = np.eye(m_dim, dtype=np.complex128) / m_dim
        eq_simulatedm = 0.0
    else:
        mixed /= mass
    # a convex mix of density matrices is positive semidefinite by construction
    return k_E, dists, eq_simulatedm, DensityOperator._positive([Register(m_reg, m_dim)], mixed)


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
    back), split the run into Bob's ensemble and Alice's state, learn heavy
    points from the transcript with threshold ``eps`` and query cap ``cap``
    (default ceil(d / (lam * eps))), read Bob's message components one at a
    time (key guess, then repair), deliver the repaired mix, and let the real
    Alice finish.  ``guess_only`` stops after the key
    guess (the repair diagnostics come back NaN), which is all the
    key-recovery experiments need.  ``keep_states`` retains the dense intermediate
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
    table = check_table(p.oracle, table)
    if cap is None:
        cap = default_cap(p, eps, lam)

    run = _sampled_run(p, table, rng)
    ensemble = message_ensemble(run.state, p)
    alice_state = extract_alice_state(run.state, p)
    sim = learn(p, run.transcript, eps, table, cap=cap)

    k_E, dists, eq_simulatedm, rho = _repair(p, sim.simulated_state, ensemble,
                                             guess_only=guess_only)
    components_agree = all(int(np.argmax(d[:2])) == k_E for d in dists)
    eq_find = min(float(d[k_E]) for d in dists)

    artifacts = None
    if guess_only:
        k_A, eq_agrees = None, float("nan")
    else:
        alice_dist = alice_final(p, alice_state, rho)
        eq_agrees = float(alice_dist[k_E])
        k_A = int(rng.choice(3, p=alice_dist / alice_dist.sum()))
        if keep_states:
            artifacts = {
                "simulated_state": sim.simulated_state,
                "message_components": ensemble,
                "rho_prime": rho,
                "alice_state": alice_state,
            }

    conjecture_relevant = (
        p.alice_no_final_query
        and not force_simulated_oracle
        and (not components_agree or eq_find < 1.0 - lam)
    )
    return AttackOutcome(
        k_E=k_E,
        k_A=k_A,
        k_B=run.state.fixed[p.key_reg_b],
        eq_find=eq_find,
        eq_simulatedm=eq_simulatedm,
        eq_agrees=eq_agrees,
        components_agree=components_agree,
        conjecture_relevant=conjecture_relevant,
        transcript=run.transcript,
        table=table,
        learner=sim,
        artifacts=artifacts,
    )


def _trace_then_uncompute(p: Protocol, post: QuantumState) -> DensityOperator:
    """The other operator order: discard Bob's lab first, then uncompute."""
    m = p.message_reg
    keep = [n for n in p.alice_side if n in post.layout] + [m]
    rho = post.partial_trace(keep)
    layout = post.layout.with_registers(rho.registers)
    acc = np.zeros((p.reg_dims[m],) * 2, dtype=np.complex128)
    for prob, vec in rho.eig_ensemble():
        pure = QuantumState.from_vector(layout, vec, post.fixed)
        undone = apply_program(pure, p.final_a_program, p.reg_dims, inverse=True)
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
    sim = art["simulated_state"]
    w_before, s_before = all_weights(sim), fourier_support_size(sim)
    drifts, supports, gaps = [], [], [0.0]

    def read(final, post, rho_i):
        drifts.append(float(np.max(np.abs(all_weights(final) - w_before))))
        supports.append(fourier_support_size(final) == s_before)
        if p.alice_no_final_query and post is not None and not post.is_fixed(p.message_reg):
            gap = rho_i.matrix - _trace_then_uncompute(p, post).matrix
            gaps.append(float(np.max(np.abs(gap))))

    _, dists, eq_sim, rho = _repair(p, sim, art["message_components"], outcome.k_E, inspect=read)
    eq_find = min(float(d[outcome.k_E]) for d in dists)
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
        "h_weight_drift": max(drifts),
        "support_preserved": all(supports),
        "uncompute_order_gap": max(gaps),
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
