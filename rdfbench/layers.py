"""Traced run: benchmark-side wrappers around each layer's public calls.

:class:`Tracer` patches the public functions listed in :data:`WRAPS`
with thin timing wrappers (installed from here; nothing under ``src/``
changes) and records one span per call.  Private stages the program
already times with ``repro.obs.tracing.trace`` are imported from its
span recorder (:data:`PROGRAM_SPANS`).  The benchmark's own request
intervals are the roots.  Parents are assigned by interval containment
— everything runs on one thread, so calls nest — and a layer's self
time is its span time minus its children's; a root's self time is the
``unattributed`` residual.

A wrap target that no longer exists (renamed or removed) leaves its
layer reported as absent; the run carries on without it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["PROGRAM_SPANS", "ROOTS", "TraceTable", "Tracer", "WRAPS", "per_layer_metrics"]

#: ``(layer, module, attribute path)`` of every wrapped public call.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("store.ingest", "repro.fleet.store", "FleetStore.ingest"),
    ("store.serve", "repro.fleet.store", "FleetStore.trajectory"),
    ("executor.map", "repro.runtime.executor", "DeterministicExecutor.map_ordered"),
    ("tracker.plan", "repro.core.tracking", "RupsTracker.plan_update"),
    ("tracker.absorb", "repro.core.tracking", "RupsTracker.absorb_update"),
    ("tracker.absorb", "repro.core.tracking", "RupsTracker.absorb_retry"),
    ("tracker.stream_update", "repro.core.tracking", "RupsTracker.stream_update"),
    ("builder.append", "repro.core.trajectory", "TrajectoryBuilder.append"),
    ("builder.serve", "repro.core.trajectory", "TrajectoryBuilder.trajectory"),
    ("binding.extend", "repro.core.binding", "DriveBindingIndex.extend"),
    ("engine.batch", "repro.core.engine", "RupsEngine.estimate_relative_distance_batch"),
    ("engine.anchored", "repro.core.engine", "RupsEngine.estimate_relative_distance_anchored"),
    ("syn.search", "repro.core.engine", "find_syn_points_batch"),
    ("syn.search", "repro.core.engine", "find_syn_points_anchored"),
    ("sweep", "repro.core.syn", "correlation_matrix"),
    ("sweep", "repro.core.syn", "fused_sweep_many"),
    ("sweep", "repro.core.syn", "fused_sweep"),
    ("rescore", "repro.core.syn", "trajectory_correlation_rows"),
    ("features.lookup", "repro.core.trajectory", "GsmTrajectory.window_features"),
    ("features.seed", "repro.core.trajectory", "seed_window_features"),
    ("features.seed", "repro.core.engine", "seed_window_features"),
    ("features.build", "repro.core.trajectory", "normalized_window_features"),
)

#: Program span name -> layer, for private stages timed inside ``src/``.
PROGRAM_SPANS: dict[str, str] = {
    "fleet.plan": "service.plan",
    "fleet.search_wave": "service.search_wave",
    "fleet.search_chunk": "service.search_chunk",
    "fleet.absorb": "service.absorb",
    "fleet.retry_absorb": "service.absorb",
    "engine.reduce": "engine.reduce",
    "engine.resolve": "engine.resolve",
}

#: Benchmark-side request intervals (see ``replay.Replay.roots``).
ROOTS = ("bench.tick", "bench.ingest", "bench.period")


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` of a wrap target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Installs the wrappers and collects spans while installed.

    Each span is ``(layer, start_s, end_s, request, query_id, rows)``
    where ``rows`` is the row count of a feature build (else ``None``).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        try:
            from repro.obs.events import current_query_id
        except ImportError:
            def current_query_id():
                return None
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        present: set[str] = set()

        def wrap(layer, fn, rows):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
                spans.append(
                    (layer, t0, t1, tracer.request, current_query_id(),
                     result.shape[0] if rows else None)
                )
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        for layer, module_name, path in WRAPS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            setattr(owner, attr, wrap(layer, original, layer == "features.build"))
            self._patched.append((owner, attr, original))
            present.add(layer)
        self.absent = sorted({layer for layer, _, _ in WRAPS} - present)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def adopt_program_spans(self, recorder) -> None:
        """Import the recorder's private-stage spans, then empty it."""
        for span in recorder.spans:
            layer = PROGRAM_SPANS.get(span.name)
            if layer is not None:
                self.spans.append(
                    (layer, span.start_s, span.start_s + span.wall_s, self.request, None, None)
                )
        recorder.clear()


class TraceTable:
    """The span tree of a traced replay and its per-layer totals."""

    def __init__(self, spans: list[tuple], roots: list[tuple[str, float, float, int]]) -> None:
        nodes = list(spans) + [(name, t0, t1, k, None, None) for name, t0, t1, k in roots]
        nodes.sort(key=lambda s: (s[1], -s[2]))
        parent = [-1] * len(nodes)
        child_s = [0.0] * len(nodes)
        stack: list[int] = []
        for i, (_, t0, t1, *_rest) in enumerate(nodes):
            while stack and nodes[stack[-1]][2] <= t0:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                child_s[stack[-1]] += t1 - t0
            stack.append(i)
        self.nodes = nodes
        self.parent = parent
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.feature_rows = {"cold": 0, "seeded": 0}
        self.feature_calls = {"cold": 0, "seeded": 0}
        self.feature_busy_s = {"cold": 0.0, "seeded": 0.0}
        for i, (layer, t0, t1, _, _, rows) in enumerate(nodes):
            dur = t1 - t0
            self.calls[layer] += 1
            self.self_s[layer] += dur - child_s[i]
            if layer not in self._ancestors(i):
                self.busy_s[layer] += dur  # outermost call of its layer
            if layer == "features.build":
                caller = next(
                    (a for a in self._ancestors(i) if a in ("features.seed", "features.lookup")),
                    None,
                )
                kind = "seeded" if caller == "features.seed" else "cold"
                self.feature_rows[kind] += rows or 0
                self.feature_calls[kind] += 1
                self.feature_busy_s[kind] += dur

    def _ancestors(self, i: int):
        j = self.parent[i]
        while j >= 0:
            yield self.nodes[j][0]
            j = self.parent[j]

    def unattributed_frac(self, roots: tuple[str, ...]) -> float:
        """Root time covered by no named layer, over the root time."""
        total = sum(self.busy_s[name] for name in roots)
        return sum(self.self_s[name] for name in roots) / total if total else 0.0

    def render(self) -> str:
        """Self-time table, largest first, as shares of all root time."""
        total = sum(self.busy_s[name] for name in ROOTS) or 1.0
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        lines = [f"{'layer':<24}{'calls':>9}{'busy_s':>11}{'self_s':>11}{'self%':>8}"]
        for layer, self_s in rows:
            name = "unattributed:" + layer if layer in ROOTS else layer
            lines.append(
                f"{name:<24}{self.calls[layer]:>9}{self.busy_s[layer]:>11.4f}"
                f"{self_s:>11.4f}{100.0 * self_s / total:>7.1f}%"
            )
        return "\n".join(lines)

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span (name, start, end, parent, request, query id)."""
        base = self.nodes[0][1] if self.nodes else 0.0
        spans = [
            [layer, round(t0 - base, 7), round(t1 - base, 7), self.parent[i], k, qid]
            for i, (layer, t0, t1, k, qid, _) in enumerate(self.nodes)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {**meta, "fields": ["name", "start_s", "end_s", "parent", "request", "query_id"],
                 "spans": spans}
            )
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    plain, traced, table: TraceTable, factor: float, overhead_frac: float
) -> dict:
    """Every per-layer metric of a traced run, each with its unit.

    Busy times come from the traced replay's wrappers (``*.busy_s``) or
    from the program's ``span.*`` histogram sums for private stages, and
    are divided by the traced replay's host ``factor``; counts come from
    the program's registry, which tracing leaves unchanged.
    ``obs.*`` come from the untraced replay; ``overhead_frac`` is the
    traced replay's busy time over the untraced one's, both at reference
    host speed, minus one.
    """
    snap = traced.registry.snapshot()
    c = snap["counters"].get
    hist = snap["histograms"]

    def span_sum(*names: str) -> float:
        return sum(hist[n]["sum"] for n in names if n in hist)

    def span_count(*names: str) -> int:
        return sum(hist[n]["count"] for n in names if n in hist)

    busy, calls = table.busy_s, table.calls
    mapped = busy["executor.map"]
    events = len(plain.ledger) + plain.ledger.dropped
    updates = c("tracker.updates", 0)
    anchored = c("tracker.updates.anchored", 0)
    reductions = c("engine.cache.reduction.hit", 0) + c("engine.cache.reduction.miss", 0)
    lookups = calls["features.lookup"]
    cold = table.feature_calls["cold"]
    searches = span_count("span.fleet.search_wave")
    s, n, r = "s", "count", "ratio"
    values = {
        "store.ingest.calls": (c("fleet.store.ingests", 0), n),
        "store.ingest.busy_s": (busy["store.ingest"], s),
        "store.ingest.measurements": (c("fleet.store.measurements", 0), n),
        "store.serve.busy_s": (busy["store.serve"], s),
        "service.plan.busy_s": (span_sum("span.fleet.plan"), s),
        "service.search_wave.busy_s": (span_sum("span.fleet.search_wave"), s),
        "service.absorb.busy_s": (span_sum("span.fleet.absorb", "span.fleet.retry_absorb"), s),
        "service.pairs_per_wave": (_ratio(c("fleet.searches", 0), searches), r),
        "service.retry_rounds": (span_count("span.fleet.retry_absorb"), n),
        "executor.map.busy_s": (mapped, s),
        "executor.overhead_s": (
            mapped - span_sum("span.fleet.search_chunk") if mapped else 0.0, s
        ),
        "tracker.plan.busy_s": (busy["tracker.plan"], s),
        "tracker.absorb.busy_s": (busy["tracker.absorb"], s),
        "tracker.stream_update.busy_s": (busy["tracker.stream_update"], s),
        "tracker.locked_frac": (_ratio(c("tracker.updates.locked", 0), updates), r),
        "tracker.lock_drops": (
            c("tracker.lock_dropped.staleness", 0) + c("tracker.lock_dropped.failures", 0), n
        ),
        "tracker.full_retries": (c("tracker.full_retries", 0), n),
        "tracker.anchored_frac": (_ratio(anchored, updates), r),
        "tracker.anchor_retry_frac": (_ratio(c("tracker.anchor_retries", 0), anchored), r),
        "builder.append.busy_s": (busy["builder.append"], s),
        "builder.serve.busy_s": (busy["builder.serve"], s),
        "features.cold.calls": (cold, n),
        "features.cold.rows": (table.feature_rows["cold"], n),
        "features.cold.busy_s": (table.feature_busy_s["cold"], s),
        "features.seeded.rows": (table.feature_rows["seeded"], n),
        "features.warm_frac": (1.0 - _ratio(cold, lookups) if lookups else 0.0, r),
        "features.cold_calls_per_query": (_ratio(cold, traced.attempted), r),
        "binding.extend.calls": (calls["binding.extend"], n),
        "binding.extend.busy_s": (busy["binding.extend"], s),
        "engine.batch.busy_s": (busy["engine.batch"], s),
        "engine.resolve.busy_s": (span_sum("span.engine.resolve"), s),
        "engine.anchored.busy_s": (busy["engine.anchored"], s),
        "engine.reduce.busy_s": (span_sum("span.engine.reduce"), s),
        "engine.reduce.hit_frac": (_ratio(c("engine.cache.reduction.hit", 0), reductions), r),
        "syn.search.busy_s": (busy["syn.search"], s),
        "syn.windows": (c("syn.windows", 0), n),
        "syn.accept_frac": (_ratio(c("syn.accepted", 0), c("syn.windows", 0)), r),
        "sweep.busy_s": (busy["sweep"], s),
        "rescore.busy_s": (busy["rescore"], s),
        "obs.events_per_query": (_ratio(events, plain.attempted), r),
        "obs.dropped_spans": (plain.recorder.dropped, n),
        "trace.unattributed_frac": (
            table.unattributed_frac(("bench.tick", "bench.period")), r
        ),
        "trace.overhead_frac": (overhead_frac, r),
    }
    return {
        name: {"value": float(v) / factor if unit == s else float(v), "unit": unit}
        for name, (v, unit) in values.items()
    }
