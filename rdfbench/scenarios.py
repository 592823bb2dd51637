"""Seeded input generators for the three service workloads.

Inputs have two parts, both drawn here in the benchmark process:

* the **corpus** — city, routes, vehicle motions, their sensing and the
  lossy uplink's delivery trace — from the fixed :data:`CORPUS_SEED`,
  like a recorded drive dataset;
* the **load** on it — the order in which fleet pairs query, the stream
  session's update instants — from the ``--seed`` argument.

The corpus is fixed because accuracy is a property of the scenario: one
session's SYN offset persists for the whole drive, so error percentiles
move 30-60% between generated scenarios (and 15-30% across 20-pair
fleets), and a fresh loss trace moves fleet-lossy latency by 20%, more
than any regression bound can hold.  Varying the load
keeps every metric steady across seeds while still exercising the
program on different request sequences.  The program under test only
ever sees what a deployment would hand it — scan chunks, dead-reckoned
tracks and queries — so the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RupsConfig
from repro.experiments.stream import event_grid
from repro.experiments.traces import DrivePair, drive_pair
from repro.gsm.band import EVAL_SUBSET_115, RGSM900
from repro.gsm.routefield import build_route_field
from repro.gsm.scanner import RadioGroup
from repro.roads.network import RoadNetworkConfig, generate_network
from repro.roads.route import random_route
from repro.roads.types import RoadType
from repro.util.rng import RngFactory
from repro.v2v.faults import GilbertElliott
from repro.vehicles.drive import DriveRecord, simulate_drive
from repro.vehicles.idm import follow_leader
from repro.vehicles.kinematics import MotionProfile, urban_speed_profile

__all__ = [
    "CORPUS_SEED",
    "FLEET_PAIRS",
    "FleetScenario",
    "PERIOD_S",
    "StreamScenario",
    "UPLINK_LOSS",
    "WARMUP_REQUESTS",
    "fleet_scenario",
    "stream_scenario",
]

#: Seed of the drive corpus shared by every run of a workload.
CORPUS_SEED = 2016
#: Tick / tracking period of every workload [s].
PERIOD_S = 0.5
#: Leader/follower pairs in the fleet workloads (40 vehicles).
FLEET_PAIRS = 20
#: Queries per tick: 8/s fleet-wide, each pair queried every 2.5 s.
QUERIES_PER_TICK = 4
#: Lossy leader uplink, one Markov step per tick: the bursty 35%-loss
#: operating point of the repository's loss sweep
#: (``repro.experiments.lossy``, burstiness 0.8).  Its mean bad burst of
#: 5 ticks (2.5 s) outlasts the tracker's 2 s staleness budget.
UPLINK_LOSS = GilbertElliott.from_average_loss(0.35, 0.8)
#: Leading requests of every replay that warm the program up (backlog
#: ingest and lock acquisition, then the first incremental extend);
#: they count as set-up.
WARMUP_REQUESTS = 2
#: Largest offset of a stream update from its nominal instant [s].
CLOCK_JITTER_S = 0.2
#: Drive time before the query window can open, generously covering the
#: slowest follower's context warm-up (600 m fleet / 1 km stream) [s].
_FLEET_WARMUP_S = 240.0
_STREAM_WARMUP_S = 300.0


@dataclass
class FleetScenario:
    """Generated inputs of one fleet replay.

    ``arrivals[k]`` lists the pair index of every query arriving before
    tick ``k`` (the follower asks about its leader; the seed draws the
    order in which pairs take their turns); ``delivered[k, p]``
    says whether pair ``p``'s leader uplink got through at tick ``k``
    (all true without losses).  Vehicle ``2p`` is pair ``p``'s leader,
    ``2p + 1`` its follower.  The first of the :data:`WARMUP_REQUESTS`
    ticks queries every pair once (each session locks); warm-up ticks
    always deliver.
    """

    config: RupsConfig
    vehicle_ids: list[str]
    records: list[DriveRecord]
    motions: list[MotionProfile]
    ticks: np.ndarray
    arrivals: list[list[int]]
    delivered: np.ndarray

    def truth_m(self, pair: int, t: float) -> float:
        """Exact leader-minus-follower arc length at ``t`` [m]."""
        lead, rear = self.motions[2 * pair], self.motions[2 * pair + 1]
        return float(lead.arc_length_at(t)) - float(rear.arc_length_at(t))


def _until(motion: MotionProfile, t: float) -> MotionProfile:
    """The motion's samples up to and including time ``t``."""
    m = int(np.searchsorted(motion.times_s, t, side="right"))
    return MotionProfile(motion.times_s[:m], motion.s_m[:m], motion.v_ms[:m])


def fleet_scenario(seed: int, n_ticks: int, lossy: bool) -> FleetScenario:
    """20 IDM leader/follower pairs on one generated city route.

    Mirrors the repository's t-fleet generator (same city, route field,
    speed profiles and radios), sized to ``n_ticks`` measured service
    ticks after the warm-up ticks.
    """
    factory = RngFactory(CORPUS_SEED)
    load = RngFactory(seed)
    plan = EVAL_SUBSET_115
    config = RupsConfig(context_length_m=600.0, window_channels=30)
    network = generate_network(
        RoadNetworkConfig(blocks_x=6, blocks_y=3), seed=factory.child("city")
    )
    # Motions first, over a generous horizon; the drives are then cut
    # just past the last tick, so sensing is only simulated where used.
    n_all = WARMUP_REQUESTS + n_ticks
    horizon_s = _FLEET_WARMUP_S + n_all * PERIOD_S + 5.0
    route = random_route(
        network,
        min_length_m=horizon_s * 13.0 + 300.0,
        rng=factory.generator("route"),
    )
    motions: list[MotionProfile] = []
    for p in range(FLEET_PAIRS):
        lead = urban_speed_profile(
            duration_s=horizon_s,
            speed_limit_ms=13.0,
            rng=factory.child("pair", p).generator("lead"),
            s0_m=40.0,
        )
        motions += [lead, follow_leader(lead, initial_gap_m=30.0)]
    t_start = max(
        float(rear.time_at_distance(rear.s_m[0] + config.context_length_m + 50.0))
        for rear in motions[1::2]
    )
    ticks = event_grid(t_start, horizon_s - 2.0, PERIOD_S)[:n_all]
    if ticks.size < n_all:
        raise RuntimeError(f"query window holds {ticks.size} ticks, {n_all} needed")
    stop_s = float(ticks[-1]) + 2.0
    motions = [_until(m, stop_s) for m in motions]
    if max(m.s_m[-1] for m in motions) > route.length - 10.0:
        raise RuntimeError("drive overruns the route")

    field = build_route_field(network, route, plan=plan, seed=factory.child("fields"))
    group = RadioGroup(plan, n_radios=4)
    vehicle_ids: list[str] = []
    records: list[DriveRecord] = []
    for v, motion in enumerate(motions):
        key = ("front", "rear")[v % 2]
        vehicle_ids.append(f"p{v // 2:02d}.{key}")
        records.append(
            simulate_drive(
                field,
                motion,
                group,
                seed=factory.child("pair", v // 2),
                vehicle_key=key,
                with_gps=False,
            )
        )

    # Every follower tracks its leader once per 5-tick cycle, in a fresh
    # seeded order each cycle: 8 queries/s fleet-wide, the same count
    # every tick, every pair equally often.
    order = load.generator("queries")
    measured: list[list[int]] = []
    while len(measured) < n_ticks:
        perm = [int(p) for p in order.permutation(FLEET_PAIRS)]
        measured += [
            perm[i : i + QUERIES_PER_TICK] for i in range(0, FLEET_PAIRS, QUERIES_PER_TICK)
        ]
    arrivals = [list(range(FLEET_PAIRS))] + [[]] * (WARMUP_REQUESTS - 1) + measured[:n_ticks]
    delivered = np.ones((n_all, FLEET_PAIRS), dtype=bool)
    if lossy:
        for p in range(FLEET_PAIRS):
            rng = factory.generator("uplink", p)
            state = UPLINK_LOSS.initial_state(rng)
            for k in range(WARMUP_REQUESTS, n_all):
                state = UPLINK_LOSS.step(state, rng)
                delivered[k, p] = rng.random() >= UPLINK_LOSS.loss_prob(state)
    return FleetScenario(
        config=config,
        vehicle_ids=vehicle_ids,
        records=records,
        motions=motions,
        ticks=ticks,
        arrivals=arrivals,
        delivered=delivered,
    )


@dataclass
class StreamScenario:
    """Generated inputs of one streaming session (one drive pair)."""

    config: RupsConfig
    pair: DrivePair
    events: np.ndarray

    def truth_m(self, t: float) -> float:
        return float(self.pair.scenario.true_relative_distance(t))


def stream_scenario(seed: int, n_periods: int) -> StreamScenario:
    """One urban two-car drive at the paper-default 1 km context.

    Same geometry and 39-channel plan as the repository's streaming
    bench; ``n_periods`` measured periods follow the warm-up periods.
    The seed jitters every update instant by up to
    :data:`CLOCK_JITTER_S` (an application's period timer is never
    exact), which also makes every scan chunk a different size.
    """
    config = RupsConfig()
    n_all = WARMUP_REQUESTS + n_periods
    pair = drive_pair(
        road_type=RoadType.URBAN_4LANE,
        duration_s=_STREAM_WARMUP_S + n_all * PERIOD_S + 5.0,
        n_radios=4,
        plan=RGSM900.subset(np.arange(0, RGSM900.n_channels, 5), name="bench-39"),
        seed=CORPUS_SEED,
    )
    t0, t1 = pair.query_window(context_length_m=config.context_length_m)
    events = event_grid(t0, t1 - CLOCK_JITTER_S, PERIOD_S)[:n_all]
    if events.size < n_all:
        raise RuntimeError(f"query window holds {events.size} periods, {n_all} needed")
    jitter = RngFactory(seed).generator("clock").uniform(-1.0, 1.0, n_all)
    events = events + CLOCK_JITTER_S * jitter
    return StreamScenario(config=config, pair=pair, events=events)
