"""Traced replay of a differentiated solve, span by span.

``replay`` runs the same steps as ``differentiable_solve`` followed by the
workload's derivative calls, through the library's public functions, and
records a span around each call.  The factorization is wrapped so that the
``fact.solve`` calls made inside ``backward`` and ``recover_duals`` become
child spans of those calls.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from qpdiff import (
    DifferentiableSolution,
    SolveFailedError,
    assemble_reduced_kkt,
    backward,
    diagnose,
    differentiable_solve,
    factorize,
    get_backend,
    identify,
    recover_duals,
    residuals,
)
from qpdiff.identification import DEFAULT_EPS_ACTIVE
from qpdiff.kkt import DIRECT
from qpdiff.solvers import SOLVED

LAYERS = ("solvers", "identification", "kkt", "differentiation", "metrics")


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    instance: int

    @property
    def ms(self):
        return (self.end_ns - self.start_ns) * 1e-6


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name, instance):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(sid, name, time.perf_counter_ns(), 0, parent, instance)
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def write(self, path):
        origin = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as fh:
            for s in self.spans:
                row = asdict(s)
                row["start_ns"] -= origin
                row["end_ns"] -= origin
                fh.write(json.dumps(row) + "\n")


class _TracedFactorization:
    """Delegates to a KktFactorization, recording each solve as a span."""

    def __init__(self, fact, tracer, instance):
        self._fact = fact
        self._tracer = tracer
        self._instance = instance

    def solve(self, rhs):
        with self._tracer.span("kkt.solve", self._instance):
            return self._fact.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._fact, name)


@dataclass(frozen=True)
class InstanceStats:
    """Counts one traced instance contributes to the per-layer metrics."""

    instance: int
    iterations: int
    order: int
    nnz: int
    rank_deficit: int
    least_squares: bool
    recovered_duals: bool
    active_size: int
    weakly_active: int


def replay(problem, workload, settings, grad_z, tracer, instance):
    """Step-by-step ``differentiable_solve`` plus the workload's derivatives.

    Returns ``(solution, derivative outputs, InstanceStats)``.
    """
    with tracer.span("instance", instance):
        with tracer.span("solvers.solve", instance):
            point = get_backend(workload.backend).solve(problem, settings)
        if point.status != SOLVED:
            raise SolveFailedError(
                f"backend '{workload.backend}' returned status '{point.status}'", point
            )
        with tracer.span("identification.identify", instance):
            active = identify(problem, point.z, DEFAULT_EPS_ACTIVE)
        with tracer.span("kkt.assemble", instance):
            kkt = assemble_reduced_kkt(problem, active)
        with tracer.span("kkt.factorize", instance):
            fact = factorize(kkt)
        traced_fact = _TracedFactorization(fact, tracer, instance)
        recovered = not point.has_duals
        if recovered:
            with tracer.span("differentiation.recover_duals", instance):
                point.lam, point.mu = recover_duals(problem, point.z, active, traced_fact)
        with tracer.span("metrics.residuals", instance):
            res = residuals(problem, point)
        point.r_p, point.r_d = res.r_p, res.r_d
        with tracer.span("identification.diagnose", instance):
            diag = diagnose(problem, point, active, DEFAULT_EPS_ACTIVE)
        sol = DifferentiableSolution(
            problem=problem, point=point, active=active, fact=traced_fact,
            diagnosis=diag,
        )

        def traced_backward(s, g):
            with tracer.span("differentiation.backward", instance):
                return backward(s, g)

        outputs = workload.derive(sol, grad_z, traced_backward)
    rank = fact.rank if fact.rank is not None else kkt.order
    stats = InstanceStats(
        instance=instance, iterations=point.iterations, order=kkt.order,
        nnz=kkt.matrix.nnz, rank_deficit=kkt.order - rank,
        least_squares=fact.mode != DIRECT, recovered_duals=recovered,
        active_size=active.size, weakly_active=diag.weakly_active.size,
    )
    return sol, outputs, stats


def _same_array(a, b):
    if hasattr(a, "indptr") or hasattr(b, "indptr"):
        return (
            a.shape == b.shape
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("indptr", "indices", "data"))
        )
    return np.array_equal(a, b)


def _same_outputs(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    blocks = ("grad_P", "grad_q", "grad_A", "grad_b", "grad_C", "grad_d")
    return len(a) == len(b) and all(
        _same_array(getattr(x, k), getattr(y, k))
        for x, y in zip(a, b) for k in blocks
    )


def replay_fidelity(problem, workload, settings, grad_z):
    """What differs between the traced replay and the library's own pipeline."""
    sol = differentiable_solve(problem, workload.backend, settings)
    outputs = workload.derive(sol, grad_z)
    rsol, routputs, _ = replay(problem, workload, settings, grad_z, Tracer(), -1)
    diffs = []
    if not np.array_equal(sol.point.z, rsol.point.z):
        diffs.append("z")
    if not np.array_equal(sol.active.indices, rsol.active.indices):
        diffs.append("active set")
    if sol.fact.mode != rsol.fact.mode:
        diffs.append("factorization mode")
    if not _same_outputs(outputs, routputs):
        diffs.append("gradients")
    return diffs


def self_times(spans):
    """Self time in ms of each span: its duration minus its children's."""
    own = {s.id: s.ms for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.ms
    return own


def self_time_by_name(spans):
    """Summed self time in ms per span name, the instance roots left out."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        if s.name != "instance":
            totals[s.name] = totals.get(s.name, 0.0) + own[s.id]
    return totals


def layer_of(name):
    return name.split(".", 1)[0]


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(stats, spans, attempted, failed_solves, traced_ms, untraced_ms):
    """Per-layer metrics: per-instance medians, counts and self times."""
    own = self_times(spans)
    by_instance: dict[int, list[Span]] = {}
    for s in spans:
        by_instance.setdefault(s.instance, []).append(s)

    def per_instance(fn):
        return _median([fn(by_instance[r.instance]) for r in stats])

    def total(name):
        return lambda ss: sum(s.ms for s in ss if s.name == name)

    def call_median(name, value):
        return lambda ss: _median([value(s) for s in ss if s.name == name])

    def layer_self(layer):
        return lambda ss: sum(own[s.id] for s in ss if layer_of(s.name) == layer)

    is_backward_solve = {
        s.id for s in spans
        if s.name == "kkt.solve" and s.parent is not None
        and spans[s.parent].name == "differentiation.backward"
    }
    m = {
        "solvers.solve_ms": per_instance(total("solvers.solve")),
        "solvers.iterations": _median([r.iterations for r in stats]),
        "solvers.ms_per_iter": _median([
            total("solvers.solve")(by_instance[r.instance]) / max(r.iterations, 1)
            for r in stats
        ]),
        "solvers.failed_frac": failed_solves / max(attempted, 1),
        "kkt.assemble_ms": per_instance(total("kkt.assemble")),
        "kkt.factorize_ms": per_instance(total("kkt.factorize")),
        "kkt.solve_ms": per_instance(
            lambda ss: _median([s.ms for s in ss if s.id in is_backward_solve])
        ),
        "kkt.order": _median([r.order for r in stats]),
        "kkt.nnz": _median([r.nnz for r in stats]),
        "kkt.rank_deficit": _median([r.rank_deficit for r in stats]),
        "kkt.least_squares_frac": sum(r.least_squares for r in stats)
        / max(len(stats), 1),
        "differentiation.backward_ms": per_instance(
            call_median("differentiation.backward", lambda s: s.ms)
        ),
        "differentiation.assembly_ms": per_instance(
            call_median("differentiation.backward", lambda s: own[s.id])
        ),
        "differentiation.recover_duals_calls": float(
            sum(r.recovered_duals for r in stats)
        ),
        "identification.identify_ms": per_instance(total("identification.identify")),
        "identification.diagnose_ms": per_instance(total("identification.diagnose")),
        "identification.active_size": _median([r.active_size for r in stats]),
        "identification.weakly_active": float(sum(r.weakly_active for r in stats)),
        "metrics.residuals_ms": per_instance(total("metrics.residuals")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_instance(layer_self(layer))
    m["trace.e2e_ms_p50"] = _median(traced_ms)
    m["trace.overhead_ms"] = _median(traced_ms) - _median(untraced_ms)
    m["trace.instances"] = float(len(stats))
    return m
