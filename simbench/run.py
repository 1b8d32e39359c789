"""Two-clock serving benchmark of the PIM simulator.

Run from the repository root::

    python3 simbench/run.py --workload scan_cluster4 --seed 1 --seconds 10 --trace 0

Two clocks are measured and never mixed:

* **host** -- what the simulator costs to run: wall seconds and bytes
  (``sim_req_per_s``, ``setup_s``, ``host_peak_rss_mb``);
* **modeled** -- the virtual ns and J the PIM device would spend
  (``modeled_*``, ``served_fraction``), deterministic for a seed.

A run repeats *rounds* for ``--seconds`` of wall time, at least three.
A round builds the workload's data, index, backend and arrival stream
from the seed (timed as set-up), then one caller submits the events in a
closed loop through :class:`repro.api.PimSession` and drains.  Host speed
is timed after a warm-up prefix of each round, scaled to a reference host
speed that a calibration loop measures before and after the round, and
reported as the median over rounds.  Modeled metrics come from the first
round, and every later round must reproduce its SHA-256 fingerprint of
per-request outcomes exactly.  The first round's outputs are checked against NumPy oracles;
any mismatch makes the run incorrect.

``--trace 1`` instead serves one untraced and one traced round and
reports per-layer numbers (see ``layers.py``).  The last line of standard
output is always the JSON result; the line before it carries details
(fingerprint, p99 sample count, skipped trace boundaries).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Share of each round's events served before host timing starts.
WARMUP_FRACTION = 0.1
MIN_ROUNDS = 3
#: Set-up is also timed on its own until this many samples exist.
MIN_SETUPS = 5
#: Iterations of the calibration loop, and the wall seconds it takes on
#: the reference host.  Host-time metrics are scaled to that speed: the
#: speed of a shared machine drifts by up to 2x over seconds to minutes,
#: and the drift slows the loop and the simulator alike.
CALIBRATION_ITERATIONS = 25_000
REFERENCE_CALIBRATION_S = 0.0133
#: Events between two calibrations in a round's timed phase.
LAP_EVENTS = 400

def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def fingerprint(futures: List[Any]) -> str:
    """SHA-256 of the modeled per-request outcomes, in event order:
    status, start/finish ns, energy and value bytes."""
    digest = hashlib.sha256()
    for future in futures:
        record = future.record
        energy = record.metrics.energy_j if record.metrics is not None else None
        digest.update(
            f"{future.status}|{record.rejected_reason}|{record.start_ns!r}|"
            f"{record.finish_ns!r}|{energy!r}|".encode()
        )
        value = record.value
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that calls no program code.

    Dict updates, tuple allocation, comparisons and a sort: interpreter
    work of the kind the simulator does.  It measures how fast the host
    is at that moment, and no change to the program can move it.
    """
    started = time.perf_counter()
    table: Dict[int, float] = {}
    rows = []
    peak = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        if i % 7 == 0:
            rows.append((key, peak))
        peak = max(peak, table[key] - key)
    rows.sort()
    return time.perf_counter() - started


class HostClock:
    """Times work in wall seconds and in reference-host seconds.

    Each :meth:`lap` closes an interval and calibrates the host.  The
    interval's wall time is divided by the host's *slowness* around it:
    the mean calibration time at its two ends over
    ``REFERENCE_CALIBRATION_S``.  Calibration time itself is not counted.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._slowness = calibrate() / REFERENCE_CALIBRATION_S
        self._started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._started
        slowness = calibrate() / REFERENCE_CALIBRATION_S
        self.wall_s += elapsed
        self.reference_s += elapsed * 2.0 / (self._slowness + slowness)
        self._slowness = slowness
        self._started = time.perf_counter()


def serve_round(workload, seed: int, requests: int, recorder=None) -> Dict[str, Any]:
    """Set up and serve one round; returns its host timings and outputs.

    Untraced rounds lap the host clock every ``LAP_EVENTS`` events; a
    traced round laps only at its ends, so no calibration runs between
    its spans.
    """
    setup = HostClock()
    round_ = workload.build(seed, requests)
    setup.lap()
    session, events = round_.session, round_.events
    warm = int(len(events) * WARMUP_FRACTION)
    futures = []
    with recorder if recorder is not None else contextlib.nullcontext():
        for position, event in enumerate(events):
            if position == warm:
                clock = HostClock()
            elif recorder is None and position > warm and (position - warm) % LAP_EVENTS == 0:
                clock.lap()
            if recorder is not None:
                recorder.request = position
            futures.append(
                session.submit(
                    event.request,
                    priority=event.priority,
                    deadline_ns=event.deadline_ns,
                    at_ns=event.arrival_ns,
                )
            )
        if recorder is not None:
            recorder.request = -1
        session.drain()
        clock.lap()
        report = session.report()
    timed = len(events) - warm
    return {
        "round": round_,
        "futures": futures,
        "report": report,
        "setup_s": setup.reference_s,
        "sim_req_per_s": timed / clock.reference_s,
        "wall_req_per_s": timed / clock.wall_s,
        "fingerprint": fingerprint(futures),
    }


def modeled_metrics(served: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The modeled end-to-end metrics of a round, plus details."""
    responses = [future.response() for future in served["futures"]]
    completed = [r for r in responses if r.completed]
    offered = len(responses)
    sojourn = np.array([r.sojourn_ns for r in completed])
    p50, p99 = (float(v) for v in np.percentile(sojourn, [50.0, 99.0]))
    makespan_ms = served["report"].makespan_ns / 1e6
    metrics = {
        "modeled_throughput_req_per_ms": len(completed) / makespan_ms,
        "modeled_sojourn_p50_us": p50 / 1e3,
        "modeled_sojourn_p99_us": p99 / 1e3,
        "modeled_energy_nj_per_req": sum(r.energy_j for r in completed) / len(completed) * 1e9,
        "served_fraction": len(completed) / offered,
    }
    details = {
        "offered": offered,
        "completed": len(completed),
        "rejected_fraction": (offered - len(completed)) / offered,
        "samples_beyond_p99": int((sojourn > p99).sum()),
    }
    return metrics, details


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, requests: int):
    """Rounds for ``seconds`` of wall time (at least ``MIN_ROUNDS``);
    host metrics are medians, at reference host speed."""
    rounds: List[Dict[str, float]] = []
    errors: List[str] = []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    # Start a round only if it should end by the deadline.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        started = time.perf_counter()
        served = serve_round(workload, seed, requests)
        if not rounds:
            reference = served["fingerprint"]
            errors.extend(served["round"].check(served["futures"]))
            model, details = modeled_metrics(served)
        elif served["fingerprint"] != reference:
            errors.append(f"round {len(rounds)} is not bit-identical to round 0")
        rounds.append({k: served[k] for k in ("setup_s", "sim_req_per_s", "wall_req_per_s")})
        del served
        gc.collect()
        round_s = time.perf_counter() - started
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setup = HostClock()
        workload.build(seed, requests)
        setup.lap()
        setups.append(setup.reference_s)
    metrics = {
        "sim_req_per_s": statistics.median(r["sim_req_per_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "host_peak_rss_mb": _peak_rss_mb(),
        **model,
    }
    details.update(
        fingerprint=reference,
        rounds=len(rounds),
        sim_req_per_s_rounds=[r["sim_req_per_s"] for r in rounds],
        wall_req_per_s_rounds=[r["wall_req_per_s"] for r in rounds],
        setup_s_samples=setups,
    )
    return metrics, details, errors


def run_traced(workload, seed: int, requests: int):
    """One untraced round, then one traced round; per-layer metrics."""
    from layers import SpanRecorder, layer_metrics

    untraced = serve_round(workload, seed, requests)
    untraced_rate = untraced["sim_req_per_s"]
    errors = untraced["round"].check(untraced["futures"])
    reference = untraced["fingerprint"]
    del untraced
    recorder = SpanRecorder()
    served = serve_round(workload, seed, requests, recorder)
    if served["fingerprint"] != reference:
        errors.append("the traced round is not bit-identical to the untraced one")
    metrics = layer_metrics(recorder, served)
    metrics["trace.overhead_ratio"] = untraced_rate / served["sim_req_per_s"]
    path = HERE / "out" / f"spans_{workload.name}.json.gz"
    recorder.write(path)
    details = {
        "fingerprint": reference,
        "spans": len(recorder.spans),
        "spans_file": str(path.relative_to(ROOT)),
        "skipped_boundaries": recorder.skipped,
    }
    return metrics, details, errors, len(served["futures"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None, help="events per round (default: the workload's)"
    )
    args = parser.parse_args(argv)
    spec = _benchmark_spec()
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    requests = args.requests or workload.requests

    if args.trace:
        metrics, details, errors, offered = run_traced(workload, args.seed, requests)
        wanted = spec["per_layer"]
    else:
        metrics, details, errors = run_untraced(workload, args.seed, args.seconds, requests)
        offered = details["offered"]
        wanted = spec["end_to_end"]
    details.update(workload=workload.name, seed=args.seed, errors=errors[:20])
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": offered,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
