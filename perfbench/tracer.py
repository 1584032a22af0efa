"""Outside-in tracer for qromlab's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each function in ``TARGETS``, under every name a ``qromlab`` module binds it
to (``learner.run_conditioned``, ``attack.learn``, ``qromlab.learn`` ...),
with a wrapper that records a span and a few counters.  ``uninstall`` puts
every original object back, so an untraced run executes no wrapper at all.

A span is ``(id, name, start, end, parent id, trial id)``.  Spans stay in
memory until ``drain`` hands them over; ``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, home module, attribute); a dotted attribute is a method.
TARGETS = (
    ("qstate.apply_unitary", "qromlab.qstate", "QuantumState.apply_unitary"),
    ("qstate.permute_basis", "qromlab.qstate", "QuantumState.permute_basis"),
    ("oracle.oracle_query", "qromlab.oracle", "oracle_query"),
    ("oracle.all_weights", "qromlab.oracle", "all_weights"),
    ("oracle.project_partial", "qromlab.oracle", "project_partial"),
    ("oracle.computational_support", "qromlab.oracle", "computational_support"),
    ("oracle.fourier_support_size", "qromlab.oracle", "fourier_support_size"),
    ("protocol.run_concrete", "qromlab.protocol", "run_concrete"),
    ("protocol.run_conditioned", "qromlab.protocol", "run_conditioned"),
    ("protocol.message_ensemble", "qromlab.protocol", "message_ensemble"),
    ("protocol.alice_final", "qromlab.protocol", "alice_final"),
    ("learner.learn", "qromlab.learner", "learn"),
    ("attack.full_attack", "qromlab.attack", "full_attack"),
    ("attack.repair", "qromlab.attack", "eve_message"),
    ("circuits.light_random_ops", "qromlab.circuits", "light_random_ops"),
    ("circuits.run_purified", "qromlab.circuits", "run_purified"),
    ("pcc.is_goodstate", "qromlab.pcc", "is_goodstate"),
    ("pcc.support_overlap_margin", "qromlab.pcc", "support_overlap_margin"),
    ("cli.run_experiment", "qromlab.cli", "run_experiment"),
    ("zoo.standard_zoo", "qromlab.zoo", "standard_zoo"),
)

# Not a layer: the CLI's pool threads call trial_rng(seed, trial) first
# thing in every trial, which is how their spans learn their trial id.
TRIAL_MARKER = ("qromlab.attack", "trial_rng")

KERNELS = ("qstate.apply_unitary", "qstate.permute_basis", "oracle.oracle_query")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def bindings(module: str, attr: str) -> list[tuple[object, str]]:
    """Every (namespace, name) in qromlab that binds the target object."""
    importlib.import_module("qromlab.cli")  # binds every layer it imports
    owner, name = _resolve(module, attr)
    original = vars(owner)[name]
    if isinstance(owner, type):
        return [(owner, name)]
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "qromlab" and not mod_name.startswith("qromlab."):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return found


def all_bindings() -> list[tuple[object, str]]:
    """Every binding the tracer replaces, markers included."""
    out = []
    for _, module, attr in TARGETS:
        out.extend(bindings(module, attr))
    out.extend(bindings(*TRIAL_MARKER))
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Tracer:
    """Span and counter recorder around qromlab's public functions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []
        self._main_stack: list[tuple[int, str]] = []
        self._main_thread = None
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_state_bytes = 0
        self.transcripts: set = set()

    # -- install / restore ---------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        for span_name, module, attr in TARGETS:
            for owner, name in bindings(module, attr):
                self._patch(owner, name, self._wrap(span_name, vars(owner)[name]))
        for owner, name in bindings(*TRIAL_MARKER):
            self._patch(owner, name, self._mark_trial(vars(owner)[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trial(self, trial) -> None:
        self._local.trial = trial

    def _mark_trial(self, fn):
        tracer = self

        @functools.wraps(fn)
        def marker(master_seed, trial):
            tracer.set_trial(f"{master_seed}/{trial}")
            return fn(master_seed, trial)

        return marker

    def _wrap(self, span_name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main_thread and tracer._main_stack:
                # a pool thread: its caller is whatever the main thread has open
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append((span_id, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            record = (span_id, span_name, start, end, parent and parent[0],
                      getattr(tracer._local, "trial", None))
            with tracer._lock:
                tracer.spans.append(record)
                tracer._count(span_name, args, kwargs, result, parent)
            return result

        return wrapper

    def _count(self, span_name, args, kwargs, result, parent) -> None:
        c = self.counters
        c[span_name + ".calls"] += 1
        if span_name in KERNELS:
            state = args[0]
            c[span_name + ".amps"] += state.amps.size
            self.peak_state_bytes = max(self.peak_state_bytes, state.amps.nbytes,
                                        result.amps.nbytes)
        elif span_name == "protocol.run_conditioned":
            p, transcript = args[0], args[1]
            table = args[2] if len(args) > 2 else kwargs.get("table")
            self.transcripts.add((p.name, p.domain_size, tuple(int(v) for v in transcript),
                                  None if table is None else tuple(table)))
        elif span_name == "learner.learn":
            c["learner.iterations"] += result.queries_made
            c["learner.aborts"] += int(result.aborted)
        elif span_name == "protocol.run_concrete" and parent and parent[1] == "attack.full_attack":
            # the run the attack intercepts: its ensemble is Bob's message
            c["attack.components"] += len(result.ensemble)

    def drain(self) -> dict:
        """Hand over what was recorded since the last drain and start afresh."""
        with self._lock:
            out = {
                "spans": self.spans,
                "counters": dict(self.counters),
                "peak_state_bytes": self.peak_state_bytes,
                "transcripts": len(self.transcripts),
            }
            self._reset()
        return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds (outermost spans) and self seconds.

    Self time is a span's duration minus the part of it covered by its
    child spans, which may run on other threads.
    """
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span_id, name, start, end, parent, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["self"] += (end - start) - _union_length(children.get(span_id, ()), start, end)
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        if not nested:
            row["total"] += end - start
    return dict(out)


def write_spans(path, batches) -> None:
    """One JSON line per span: batch, id, name, start, end, parent, trial."""
    with open(path, "w") as handle:
        for batch, spans in enumerate(batches):
            for span_id, name, start, end, parent, trial in spans:
                handle.write(json.dumps([batch, span_id, name, start, end, parent, trial]))
                handle.write("\n")
