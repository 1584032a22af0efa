"""Sparse-and-light state predicates and the compatibility search.

Two purified oracle states are compatible when some full function table
carries mass in both of them.  The interesting question is whether every
pair of states that are individually sparse (few disturbed cells) and
light (no cell disturbed much) stays compatible; this module provides the
predicates, an exact compatibility test by enumeration, and a seeded
random search for violating pairs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import cyclic
from .circuits import light_random_ops, run_purified
from .errors import DomainError, QromlabError, typed
from .oracle import (
    OracleSpec,
    add_cells,
    all_weights,
    check_table,
    computational_support,
    fourier_support_size,
    init_purified,
    spec_of,
)
from .protocol import Protocol, run_conditioned
from .qstate import QuantumState


@dataclass(frozen=True)
class GoodStateReport:
    sparsity: int
    max_weight: float
    is_d_sparse: bool
    is_delta_light: bool

    @property
    def good(self) -> bool:
        return self.is_d_sparse and self.is_delta_light

    def to_json(self) -> dict:
        return asdict(self)


def is_goodstate(state: QuantumState, delta: float, d: int) -> GoodStateReport:
    """Measure sparsity and lightness of a purified oracle state.

    Sparsity counts the most disturbed cells any mass-carrying basis
    state exhibits; lightness bounds the per-cell disturbance.  Cells a
    learner already extracted are classical bookkeeping and count for
    neither (their weight is spent).
    """
    if not 0 < delta <= 1:
        raise DomainError(f"lightness bound must be in (0,1], got {delta}")
    if d < 0:
        raise DomainError(f"sparsity bound must be nonnegative, got {d}")
    sparsity = fourier_support_size(state)
    weights = all_weights(state)
    max_weight = float(weights.max()) if len(weights) else 0.0
    return GoodStateReport(
        sparsity=sparsity,
        max_weight=max_weight,
        is_d_sparse=sparsity <= d,
        is_delta_light=max_weight <= delta,
    )


def _supports(phi: QuantumState, psi: QuantumState):
    """Both computational supports, once each, and the oracle they share."""
    spec = spec_of(phi)
    if spec != spec_of(psi):
        raise DomainError("states talk to different oracles")
    return computational_support(phi), computational_support(psi), spec


def compatible(phi: QuantumState, psi: QuantumState) -> bool:
    """Exact test for a shared mass-carrying function table."""
    supp_phi, supp_psi, _ = _supports(phi, psi)
    return bool(supp_phi & supp_psi)


def support_overlap_margin(phi: QuantumState, psi: QuantumState) -> float:
    """Size of the shared support relative to the number of tables."""
    supp_phi, supp_psi, spec = _supports(phi, psi)
    return len(supp_phi & supp_psi) / spec.function_count()


@dataclass
class SearchHit:
    """An incompatible pair of goodstates, with the circuits that made it."""

    trial: int
    ops_a: list
    ops_b: list
    state_a: QuantumState
    state_b: QuantumState
    report_a: GoodStateReport
    report_b: GoodStateReport

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "ops_a": [op.to_json() for op in self.ops_a],
            "ops_b": [op.to_json() for op in self.ops_b],
            "state_a": self.state_a.dump(),
            "state_b": self.state_b.dump(),
            "report_a": self.report_a.to_json(),
            "report_b": self.report_b.to_json(),
        }


@dataclass
class SearchResult:
    hit: SearchHit | None
    trials: int
    goodstate_pairs: int
    min_margin: float | None


def search_counterexample(
    spec: OracleSpec, delta: float, d: int, trials: int, seed: int
) -> SearchResult:
    """Randomized hunt for an incompatible pair of sparse-and-light states.

    Each trial draws two independent circuits of at most ``d`` queries,
    biased toward light oracle disturbance, runs them against fresh
    purified oracles, keeps the pair only when both ends pass the
    goodstate filter, and tests compatibility exactly.  Returns on the
    first hit; a hit at sensible parameters would be a finding worth
    writing up, so the hit carries everything needed to replay it.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if not 0 < delta <= 1:
        raise DomainError(f"lightness bound must be in (0,1], got {delta}")
    if d < 0:
        raise DomainError(f"sparsity bound must be nonnegative, got {d}")
    rng = np.random.default_rng(seed)
    goodstate_pairs = 0
    min_margin: float | None = None
    for trial in range(trials):
        ops_a = light_random_ops(spec, rng, d, delta)
        ops_b = light_random_ops(spec, rng, d, delta)
        phi = run_purified(spec, ops_a)
        psi = run_purified(spec, ops_b)
        report_a = is_goodstate(phi, delta, d)
        report_b = is_goodstate(psi, delta, d)
        if not (report_a.good and report_b.good):
            continue
        goodstate_pairs += 1
        margin = support_overlap_margin(phi, psi)
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if margin == 0.0:
            return SearchResult(
                hit=SearchHit(trial, ops_a, ops_b, phi, psi, report_a, report_b),
                trials=trial + 1,
                goodstate_pairs=goodstate_pairs,
                min_margin=0.0,
            )
    return SearchResult(hit=None, trials=trials, goodstate_pairs=goodstate_pairs,
                        min_margin=min_margin)


def pin_cell(state: QuantumState, spec: OracleSpec, x: int, value: int) -> QuantumState:
    """Force cell ``x`` to the computational value ``value``, keeping it live.

    The cell stays a quantum register (weight 1 - 1/|Y|), unlike a
    learner extraction which turns it classical.  Assumes the cell is
    still in the flat state; an untouched cell is made live first.
    """
    q = spec.group.order
    if not 0 <= value < q:
        raise DomainError(f"value {value} outside the oracle range (order {q})")
    fourier = spec.group.fourier_matrix
    swap = np.eye(q, dtype=np.complex128)
    if value:
        swap[[0, value]] = swap[[value, 0]]
    # first column is the Fourier-coordinate vector of |value>
    pin = fourier.conj().T @ swap
    return add_cells(state, [x]).apply_unitary(pin, [spec.cell_name(x)])


def collapsed_pair_fixture(spec: OracleSpec | None = None):
    """Two states pinning cell 0 to different values: never compatible.

    Both are 1-sparse but carry weight 1 - 1/|Y| on the pinned cell, so
    they only pass the goodstate filter once the lightness bound reaches
    that level; at strict bounds the filter rejects them, which is the
    whole point of having one.
    """
    spec = spec or OracleSpec(2, cyclic(2))
    base = init_purified(spec, [])
    phi = pin_cell(base, spec, 0, 0)
    psi = pin_cell(base, spec, 0, 1)
    return phi, psi


def check_attack_dump(dump: dict) -> dict:
    """Recompute the compatibility facts for a dumped attack run.

    The dump names the protocol, the transcript, and the learner's
    simulated state.  The checker rebuilds the transcript-conditioned
    state independently and reports whether the pair is compatible and
    whether each side passes the goodstate filter at the dumped bounds.
    A dump that is both all-good and incompatible would be a violation
    of the compatibility conjecture at those parameters.  A missing or
    mistyped field is a QromlabError.
    """
    try:
        p = Protocol.from_json(dump["protocol"])
        transcript = tuple(dump["transcript"])
        sim = QuantumState.load(dump["simulated_state"])
        delta, d = typed(dump["delta"], (int, float), "delta"), typed(dump["d"], int, "d")
        table = check_table(p.oracle_spec(), dump["table"]) if "table" in dump else None
    except (KeyError, TypeError, ValueError) as exc:
        raise QromlabError(f"attack dump is damaged ({type(exc).__name__}: {exc})") from None
    real, _ = run_conditioned(p, transcript)
    report_real = is_goodstate(real, delta, d)
    report_sim = is_goodstate(sim, delta, d)
    supp_real, supp_sim, spec = _supports(real, sim)
    shared = supp_real & supp_sim
    comp = bool(shared)
    out = {
        "compatible": comp,
        "margin": len(shared) / spec.function_count(),
        "real": report_real.to_json(),
        "simulated": report_sim.to_json(),
        "both_goodstates": report_real.good and report_sim.good,
        "contradicts_conjecture": report_real.good and report_sim.good and not comp,
    }
    if table is not None:
        out["table_in_both_supports"] = table in shared
    return out
