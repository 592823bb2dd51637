"""Measured replays: the program's public request paths, timed per request.

``fleet-*`` replays go through ``FleetStore.ingest`` and
``FleetService.submit``/``tick``; ``stream-track`` goes through a peer
``TrajectoryBuilder`` plus ``RupsTracker.stream_update``.  Inputs for a
request are cut from the generated drives *before* its clock starts, so
only the program's own calls are timed.  Each replay runs against a
fresh metrics registry, event ledger and span recorder, so its counts
start from zero and never depend on what ran earlier in the process.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.tracking import RupsTracker
from repro.core.trajectory import TrajectoryBuilder
from repro.fleet import FleetQuery, FleetService, FleetStore
from repro.obs.events import EventLedger, use_ledger
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import SpanRecorder, use_recorder
from repro.runtime import shared as shared_store

from scenarios import WARMUP_REQUESTS, FleetScenario, StreamScenario

__all__ = ["Replay", "open_session", "replay", "warm_up"]

clock = time.perf_counter


@dataclass
class Replay:
    """Raw outcome of one replay.

    ``latencies_s`` holds one sample per answered query (fleet: the wall
    time of the tick that answered it) or per period (stream), and
    ``sample_request`` the tick/period index each sample came from.
    ``roots`` are the benchmark-side request intervals
    ``(name, start, end, request)``, used by the traced run to attribute
    time.
    """

    latencies_s: list[float] = field(default_factory=list)
    sample_request: list[int] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    resolved: int = 0
    errors_m: list[float] = field(default_factory=list)
    roots: list[tuple[str, float, float, int]] = field(default_factory=list)
    digest: str = ""
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    ledger: EventLedger = field(default_factory=EventLedger)
    recorder: SpanRecorder = field(default_factory=SpanRecorder)


class _Digest:
    """Order-sensitive SHA-256 over every answer, with exact float bits."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, key: str, resolved: bool, distance_m: float | None, mode: str) -> None:
        bits = b"-" if distance_m is None else struct.pack("<d", float(distance_m))
        self._h.update(f"{key}|{int(resolved)}|{mode}|".encode() + bits + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def _cut(record, t: float, start: int):
    """The record's newly heard scan chunk and its track as known at ``t``."""
    track = record.estimated.until(t)
    stop = int(np.searchsorted(record.scan.times_s, float(track.times_s[-1]), side="right"))
    return record.scan.slice(start, stop), track, stop


# -- sessions -----------------------------------------------------------
@dataclass
class FleetSession:
    """Program state of one fleet replay plus the generator's cursors."""

    store: FleetStore
    service: FleetService
    cuts: list[int]
    last_uplink_s: list[float]
    next_request: int = 0
    next_query: int = 0

    def close(self) -> None:
        self.service.close()


@dataclass
class StreamSession:
    """One tracking session, the peer's resident builder, and cursors."""

    tracker: RupsTracker
    peer: TrajectoryBuilder
    front_cut: int = 0
    rear_cut: int = 0
    next_request: int = 0

    def close(self) -> None:
        pass


def open_session(scn: FleetScenario | StreamScenario) -> FleetSession | StreamSession:
    """Fresh program state: store + inline service, or tracker + peer."""
    cfg = scn.config
    if isinstance(scn, FleetScenario):
        store = FleetStore(cfg, n_shards=8)
        return FleetSession(
            store=store,
            service=FleetService(store, jobs=1),
            cuts=[0] * len(scn.records),
            last_uplink_s=[0.0] * (len(scn.records) // 2),
        )
    return StreamSession(
        tracker=RupsTracker(cfg),
        peer=TrajectoryBuilder(spacing_m=cfg.spacing_m, context_length_m=cfg.context_length_m),
    )


def warm_up(scn, session) -> Replay:
    """Run the warm-up requests (counted as set-up, never as samples)."""
    shared_store.clear()  # no worker-resident engine left from a prior replay
    return replay(scn, session, WARMUP_REQUESTS)


def replay(scn, session, stop: int | None = None, on_request=None) -> Replay:
    """Replay requests from the session's cursor up to ``stop`` (or the end).

    ``on_request(index)`` runs after each request, outside its timed
    region; the traced run uses it to drain the program's spans.
    """
    out = Replay()
    with use_registry(out.registry), use_ledger(out.ledger), use_recorder(out.recorder):
        if isinstance(session, FleetSession):
            _replay_fleet(scn, session, stop, on_request, out)
        else:
            _replay_stream(scn, session, stop, on_request, out)
    return out


def _replay_fleet(scn: FleetScenario, s: FleetSession, stop, on_request, out: Replay) -> None:
    digest = _Digest()
    ids = scn.vehicle_ids
    stop = len(scn.ticks) if stop is None else stop
    while s.next_request < stop:
        k = s.next_request
        s.next_request += 1
        t = float(scn.ticks[k])
        inputs = []
        for v, record in enumerate(scn.records):
            pair, leader = v // 2, v % 2 == 0
            if leader and not scn.delivered[k, pair]:
                continue  # the leader's uplink lost this chunk; it arrives later
            chunk, track, s.cuts[v] = _cut(record, t, s.cuts[v])
            inputs.append((ids[v], chunk, track))
            if leader:
                s.last_uplink_s[pair] = t
        pairs = scn.arrivals[k]
        queries = [
            FleetQuery(
                query_id=f"q{s.next_query + i:05d}",
                own_id=ids[2 * p + 1],
                other_id=ids[2 * p],
                context_age_s=t - s.last_uplink_s[p],
            )
            for i, p in enumerate(pairs)
        ]
        s.next_query += len(queries)
        out.attempted += len(queries)

        t0 = clock()
        for vehicle_id, chunk, track in inputs:
            s.store.ingest(vehicle_id, chunk, track)
        t1 = clock()
        for q in queries:
            s.service.submit(q)
        t2 = clock()
        try:
            answers = s.service.tick(at_time_s=t)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            answers = []
        t3 = clock()
        out.busy_s += t3 - t0
        out.roots.append(("bench.ingest", t0, t1, k))
        out.roots.append(("bench.tick", t2, t3, k))
        if len(answers) != len(queries):
            out.failed += len(queries)
        else:
            for p, q, est in zip(pairs, queries, answers):
                out.latencies_s.append(t3 - t2)
                out.sample_request.append(k)
                digest.add(q.query_id, est.resolved, est.distance_m, est.mode)
                if est.error is not None:
                    out.failed += 1
                elif est.resolved:
                    out.resolved += 1
                    out.errors_m.append(abs(float(est.distance_m) - scn.truth_m(p, t)))
        if on_request is not None:
            on_request(k)
    out.digest = digest.hexdigest()


def _replay_stream(scn: StreamScenario, s: StreamSession, stop, on_request, out: Replay) -> None:
    digest = _Digest()
    front, rear = scn.pair.front, scn.pair.rear
    stop = len(scn.events) if stop is None else stop
    while s.next_request < stop:
        k = s.next_request
        s.next_request += 1
        t = float(scn.events[k])
        front_chunk, front_track, s.front_cut = _cut(front, t, s.front_cut)
        rear_chunk, rear_track, s.rear_cut = _cut(rear, t, s.rear_cut)
        out.attempted += 1
        t0 = clock()
        try:
            s.peer.append(front_chunk, front_track)
            update = s.tracker.stream_update(rear_chunk, rear_track, other=s.peer.trajectory())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            update = None
        t1 = clock()
        out.busy_s += t1 - t0
        out.roots.append(("bench.period", t0, t1, k))
        if update is None:
            out.failed += 1
        else:
            est = update.estimate
            out.latencies_s.append(t1 - t0)
            out.sample_request.append(k)
            digest.add(f"u{k:05d}", est.resolved, est.distance_m, update.mode)
            if est.resolved:
                out.resolved += 1
                out.errors_m.append(abs(float(est.distance_m) - scn.truth_m(t)))
        if on_request is not None:
            on_request(k)
    out.digest = digest.hexdigest()
