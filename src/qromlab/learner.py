"""Heavy-query learner: turn a transcript into a simulated protocol state.

The eavesdropper cannot run the parties' circuits against the real
oracle, but she can run them against her own purified oracle register,
conditioned on the transcript she observed.  Whenever some domain point
carries noticeable weight in that simulation she queries the real oracle
there classically and projects her simulation onto the answer.  The loop
stops when no point reaches the threshold; a cap turns runaway loops
into an explicit abort instead.

Everything here is deterministic given the protocol, transcript, oracle
table and threshold: weights are computed exactly from the dense state
and ties are broken by taking the smallest domain point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .oracle import PartialOracle, all_weights, check_table, project_partial
from .protocol import Protocol, run_conditioned
from .qstate import QuantumState


@dataclass
class LearnerOutcome:
    simulated_state: QuantumState
    learned: PartialOracle
    aborted: bool
    max_residual_weight: float

    @property
    def queries_made(self) -> int:
        """Classical queries asked: one per learned point."""
        return len(self.learned)


def find_heavy(state: QuantumState, eps: float, exclude=frozenset()) -> int | None:
    """Smallest domain point outside ``exclude`` with weight at least eps.

    Weight exactly equal to the threshold counts as heavy.
    """
    if not 0 < eps < 1:
        raise DomainError(f"threshold must be in (0,1), got {eps}")
    return _first_heavy(all_weights(state), eps, exclude)


def _first_heavy(weights, eps: float, exclude=()) -> int | None:
    for x, w in enumerate(weights):
        if x not in exclude and w >= eps:
            return x
    return None


def learn(
    p: Protocol,
    transcript,
    eps: float,
    table,
    cap: int | None = None,
) -> LearnerOutcome:
    """Simulate the protocol on transcript ``transcript`` and learn heavy points.

    ``table`` is the real oracle; it is only ever read at the points the
    loop decides to query, so the number of classical queries equals the
    size of the learned partial oracle.  ``cap`` bounds that size; when
    yet another point is heavy at the cap the outcome is marked aborted.
    ``cap=None`` means unbounded (the loop always terminates because each
    projection removes the learned cell's weight for good).
    """
    if not 0 < eps < 1:
        raise DomainError(f"threshold must be in (0,1), got {eps}")
    table = check_table(p.oracle, table)
    if cap is not None and cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")

    state, _ = run_conditioned(p, transcript)
    learned = PartialOracle(())
    aborted = False
    # One weight pass per state serves the next heavy-point search and, once
    # the loop stops, the residual; a learned cell is frozen and weighs 0.
    weights = all_weights(state)
    while True:
        x = _first_heavy(weights, eps)
        if x is None:
            break
        if cap is not None and len(learned) >= cap:
            aborted = True
            break
        y = table[x]
        state, _ = project_partial(state, PartialOracle(((x, y),)))
        learned = learned.extended(x, y)
        weights = all_weights(state)

    return LearnerOutcome(
        simulated_state=state,
        learned=learned,
        aborted=aborted,
        max_residual_weight=float(weights.max()),
    )
