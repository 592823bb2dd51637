#!/usr/bin/env python3
"""Steady service benchmark for the RUPS fleet service and streaming tracker.

Usage (from the repository root)::

    python3 rdfbench/run.py --workload fleet-locked --seed 1 --seconds 20 --trace 0

Workloads: ``fleet-locked``, ``fleet-lossy``, ``stream-track`` (see
``rdfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
exits non-zero without a result when the program's sources are missing.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: on a shared 2-core host
# a second BLAS thread measures the scheduler, not the program.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".rdfbench"

#: Per workload: generator arguments, requests measured per ``--seconds``
#: (sized so a run measures roughly that long on a 2-core x86 host), and
#: the sanity limits a correct program meets on every seed.
WORKLOADS = {
    "fleet-locked": {
        "kind": "fleet", "lossy": False, "per_second": 15,
        "min_resolved": 0.98, "max_error_p50_m": 3.0, "max_error_p90_m": 8.0,
    },
    "fleet-lossy": {
        "kind": "fleet", "lossy": True, "per_second": 20,
        "min_resolved": 0.9, "max_error_p50_m": 6.0, "max_error_p90_m": 30.0,
    },
    "stream-track": {
        "kind": "stream", "per_second": 75,
        "min_resolved": 0.98, "max_error_p50_m": 3.0, "max_error_p90_m": 8.0,
    },
}
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration units kept per block after every request and before a
#: set-up (see ``calibrate.py``).
CALIBRATION_BLOCK = 1
SETUP_CALIBRATION = 15
#: Fewest requests (ticks / periods) allowed beyond the tail percentile.
MIN_TAIL_REQUESTS = 10
#: The tail percentile.  Queries answered by one tick share one latency,
#: so the effective sample count is ticks, and p99 would rest on ~3.
TAIL_Q = 95


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or ``None`` when unknowable."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_fingerprint() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": _blas_threads(),
        "blas_env": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def tail(samples: list[float], requests: list[int], q: float) -> tuple[float, int, int]:
    """Percentile ``q`` of ``samples`` with the samples and the distinct
    requests strictly beyond it."""
    import numpy as np

    value = float(np.percentile(samples, q))
    beyond = [k for x, k in zip(samples, requests) if x > value]
    return value, len(beyond), len(set(beyond))


def _status_mb(field: str) -> float | None:
    """One ``/proc/self/status`` memory field [MB], or ``None``."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def reset_peak_rss() -> float | None:
    """Hand freed heap back to the kernel, reset its resident high-water
    mark to the current resident set and return that [MB]; ``None``
    where the mark cannot be reset."""
    import ctypes

    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the baseline keeps the allocator's free pages
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        return None
    return _status_mb("VmRSS")


def peak_rss_mb(since_reset: bool) -> float:
    """Resident high-water mark [MB]: since :func:`reset_peak_rss`, or
    since process start."""
    if since_reset:
        return _status_mb("VmHWM")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload instance: generation, set-up, replays."""

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        from calibrate import Calibrator

        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.n_requests = self.spec["per_second"] * seconds
        self.setup_calibrator = Calibrator()

    def generate(self):
        from scenarios import fleet_scenario, stream_scenario

        if self.spec["kind"] == "stream":
            return stream_scenario(self.seed, self.n_requests)
        return fleet_scenario(self.seed, self.n_requests, lossy=self.spec["lossy"])

    def setup(self):
        """Generate, open a session and warm it up; returns the timing too."""
        from replay import open_session, warm_up

        gc.collect()
        self.setup_calibrator.block(SETUP_CALIBRATION)
        t0 = time.perf_counter()
        scn = self.generate()
        session = open_session(scn)
        warm = warm_up(scn, session)
        return time.perf_counter() - t0, scn, session, warm

    def replay(self, scn, session, calibrator, on_request=None):
        """Replay the measured requests with a calibration block after
        each, so every request starts from the same preceding state."""
        from replay import replay

        def after(k: int) -> None:
            if on_request is not None:
                on_request(k)
            calibrator.block(CALIBRATION_BLOCK)

        gc.collect()
        return replay(scn, session, on_request=after)


def check(run: Run, r, notes: list[str]) -> bool:
    """Ground-truth and sample-size checks; appends a note per failure."""
    import numpy as np

    spec = run.spec
    ok = True

    def fail(msg: str) -> None:
        nonlocal ok
        ok = False
        notes.append(msg)

    if r.failed:
        fail(f"{r.failed} of {r.attempted} queries failed (exception or error answer)")
    frac = r.resolved / r.attempted if r.attempted else 0.0
    if frac < spec["min_resolved"]:
        fail(f"resolved_frac {frac:.3f} < {spec['min_resolved']}")
    if not r.errors_m:
        fail("no resolved answers")
    else:
        p50, p90 = np.percentile(r.errors_m, [50, 90])
        if not p50 <= spec["max_error_p50_m"]:
            fail(f"error_p50_m {p50:.2f} > {spec['max_error_p50_m']}")
        if not p90 <= spec["max_error_p90_m"]:
            fail(f"error_p90_m {p90:.2f} > {spec['max_error_p90_m']}")
    if not r.latencies_s or min(r.latencies_s) <= 0:
        fail("missing or non-positive latency samples")
    else:
        _, _, beyond = tail(r.latencies_s, r.sample_request, TAIL_Q)
        if beyond < MIN_TAIL_REQUESTS:
            fail(f"only {beyond} requests beyond p{TAIL_Q} (< {MIN_TAIL_REQUESTS})")
    return ok


def check_warm_up(failed: int, notes: list[str]) -> bool:
    if failed:
        notes.append(f"{failed} warm-up queries failed")
    return not failed


def end_to_end(run: Run, r, factor: float, setup_times: list[float], peak_mb: float) -> dict:
    """The end-to-end metrics; times are divided by their host factor."""
    import numpy as np

    setup_factor = run.setup_calibrator.factor()
    p50, n50, k50 = tail(r.latencies_s, r.sample_request, 50)
    p95, n95, k95 = tail(r.latencies_s, r.sample_request, TAIL_Q)
    n, k = len(r.latencies_s), len(set(r.sample_request))
    unit = "ticks" if run.spec["kind"] == "fleet" else "periods"
    print(f"host factor {factor:.4f} replay, {setup_factor:.4f} set-up")
    print(f"samples {n} over {k} {unit}; raw times, before the host factor:")
    print(f"  p50 {p50 * 1e3:.3f} ms, beyond: {n50} samples / {k50} {unit}")
    print(f"  p{TAIL_Q} {p95 * 1e3:.3f} ms, beyond: {n95} samples / {k95} {unit}")
    print(f"  busy {r.busy_s:.3f} s, setup repeats {[round(x, 4) for x in setup_times]} s")
    err50, err90 = (float(v) for v in np.percentile(r.errors_m, [50, 90]))
    values = {
        "latency_p50_ms": (p50 * 1e3 / factor, "ms"),
        "latency_p95_ms": (p95 * 1e3 / factor, "ms"),
        "answers_per_busy_s": ((r.attempted - r.failed) * factor / r.busy_s, "1/s"),
        "resolved_frac": (r.resolved / r.attempted, "ratio"),
        "error_p50_m": (err50, "m"),
        "error_p90_m": (err90, "m"),
        "setup_s": (statistics.median(setup_times) / setup_factor, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_untraced(run: Run, notes: list[str]):
    from calibrate import Calibrator

    setup_times, session, warm_failed = [], None, 0
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = scn = None  # free the previous copy before the next
        elapsed, scn, session, warm = run.setup()
        setup_times.append(elapsed)
        warm_failed += warm.failed
    calibrator = Calibrator()
    # The memory metric covers the program's state from the end of set-up
    # on, not the generator's peak: reset the high-water mark here.
    gc.collect()
    setup_rss = reset_peak_rss()
    try:
        r = run.replay(scn, session, calibrator)
    finally:
        session.close()
    peak = peak_rss_mb(since_reset=setup_rss is not None)
    if setup_rss is None:
        print(f"peak RSS {peak:.1f} MB since process start (high-water mark not resettable)")
    else:
        print(f"RSS {setup_rss:.1f} MB at set-up end, peak {peak:.1f} MB over the replay")
    ok = check(run, r, notes) & check_warm_up(warm_failed, notes)
    print(f"digest {r.digest}")
    return ok, r, end_to_end(run, r, calibrator.factor(), setup_times, peak)


def run_traced(run: Run, notes: list[str]):
    from calibrate import Calibrator
    from layers import Tracer, TraceTable, per_layer_metrics
    from replay import open_session, warm_up

    from repro.obs.tracing import get_recorder

    _, scn, session, warm = run.setup()
    plain_cal, traced_cal = Calibrator(), Calibrator()
    try:
        plain = run.replay(scn, session, plain_cal)
    finally:
        session.close()
    session = open_session(scn)
    tracer = Tracer()

    def drain(k: int) -> None:
        tracer.adopt_program_spans(get_recorder())
        tracer.request = k + 1

    try:
        rewarm = warm_up(scn, session)
        tracer.install()
        tracer.request = session.next_request
        traced = run.replay(scn, session, traced_cal, on_request=drain)
    finally:
        tracer.uninstall()
        session.close()
    ok = check(run, plain, notes) & check(run, traced, notes)
    ok &= check_warm_up(warm.failed + rewarm.failed, notes)
    if traced.digest != plain.digest:
        ok = False
        notes.append(f"traced answers differ: {traced.digest} != {plain.digest}")
    before, after = (r.registry.snapshot()["counters"] for r in (plain, traced))
    moved = sorted(
        name for name in set(before) | set(after)
        if not name.startswith("trace.") and before.get(name) != after.get(name)
    )
    if moved:
        ok = False
        notes.append(f"tracing changed counters: {moved[:5]}")
    print(f"digest {traced.digest}")

    table = TraceTable(tracer.spans, traced.roots)
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    print(table.render())
    path = TRACE_DIR / f"trace-{run.name}-s{run.seed}.json"
    table.dump(path, {"workload": run.name, "seed": run.seed, "absent": tracer.absent})
    print(f"spans written: {path.relative_to(ROOT)} ({len(table.nodes)} spans)")
    factor = traced_cal.factor()
    overhead = (traced.busy_s / factor) / (plain.busy_s / plain_cal.factor()) - 1.0
    print(f"host factor {factor:.4f} traced replay")
    return ok, traced, per_layer_metrics(plain, traced, table, factor, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy  # noqa: F401  (import time is not set-up time)
    import replay  # noqa: F401
    import repro.fleet  # noqa: F401

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    run = Run(args.workload, args.seed, args.seconds)
    print(f"workload {run.name} seed {run.seed} requests {run.n_requests} trace {args.trace}")
    notes: list[str] = []
    if args.trace:
        ok, r, metrics = run_traced(run, notes)
    else:
        ok, r, metrics = run_untraced(run, notes)
    for note in notes:
        print(f"CHECK FAILED: {note}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": ok, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
