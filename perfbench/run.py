"""Repository benchmark: four simulator workloads, measured end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload lan128-1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all four workloads at default seeds

Every measurement runs in a fresh single-threaded worker process
(``worker.py``), one after another. With ``--trace 0`` the run times
set-up in several processes, then repeats the untraced experiment's set
of simulation seeds while another set fits in ``--seconds`` of host
time, and prints the end-to-end metrics named in ``BENCHMARK.json``.
``wall_s`` and ``setup_s`` are host seconds normalized to a reference
host speed by a calibration kernel timed around them (``worker.py``).
With ``--trace 1`` it runs the experiment once untraced, once with spans
and once under cProfile, and prints the per-layer metrics.

Every run checks correctness: no oracle violation, no more unique
committed than batched transactions, durable recovery from the
replica's own checkpoint, and identical simulation results (commit hash
and every simulated metric) in every worker of the run. The last line of
standard output is one JSON object: ``correct``, ``attempted``
(transactions batched by replicas that never crash), ``failed`` (those
of them never committed, even after the drain) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Set-up samples taken before the timed repetitions; one more follows
#: every repetition. Each is its own fresh process.
SETUP_SAMPLES = 4
#: Wall-clock budget for the whole run; the contract allows 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(started: float, workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion; its last stdout line is JSON."""
    remaining = DEADLINE_S - (time.perf_counter() - started)
    if remaining <= 1.0:
        raise BenchError(f"out of time before {mode} worker")
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded the deadline")
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker exited {proc.returncode}:\n{stderr.strip()}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def fire_chain_events_per_s(events: int = 200_000) -> float:
    """Host calibration: the simulator's empty fire chain (no work per
    event beyond heap push, pop and a trivial callback)."""
    from repro.sim import Simulator

    sim = Simulator()

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule_fire(0.001, tick, remaining - 1)

    sim.schedule_fire(0.001, tick, events)
    began = time.perf_counter()
    sim.run_until(math.inf)
    return events / (time.perf_counter() - began)


def check_agreement(results: list[dict]) -> list[str]:
    """Simulated metrics and commit hash must not depend on the process."""
    first = results[0]
    failures = []
    for result in results:
        failures.extend(result["failures"])
        if result["context"]["commit_hash"] != first["context"]["commit_hash"]:
            failures.append("commit hash differs between workers")
        if result["values"] != first["values"]:
            failures.append("simulated metrics differ between workers")
    return failures


def measure(workload, seed: int, seconds: int, trace: bool,
            started: float) -> tuple[dict, list[list[dict]]]:
    """Run the workers; returns metric values and, per simulation seed,
    the results of every worker that ran it."""
    name = workload.name
    if trace:
        untraced = spawn(started, name, seed, "run")
        traced = spawn(started, name, seed, "trace")
        profiled = spawn(started, name, seed, "profile")
        values = dict(untraced["values"])
        values.update(traced["layers"])
        values.update(profiled["layers"])
        untraced_s = untraced["host_wall_s"]
        values["sim.events_per_s"] = values["sim.events"] / untraced_s
        values["trace.overhead"] = traced["host_wall_s"] / untraced_s
        return values, [[untraced, traced, profiled]]

    # The first process compiles bytecode if the checkout is fresh.
    spawn(started, name, seed, "setup")
    setups = [spawn(started, name, seed, "setup")
              for _ in range(SETUP_SAMPLES)]
    runs: list[list[dict]] = [[] for _ in workload.sim_seeds(seed)]
    # Repeat whole sets of seeds while another set still fits the budget.
    timed_from = time.perf_counter()
    set_seconds = 0.0
    while (not runs[0] or
           time.perf_counter() - timed_from + set_seconds <= seconds):
        set_from = time.perf_counter()
        for sim_seed, results in zip(workload.sim_seeds(seed), runs):
            results.append(spawn(started, name, sim_seed, "run"))
            # Host speed drifts over seconds; spread set-up samples out.
            setups.append(spawn(started, name, seed, "setup"))
        set_seconds = time.perf_counter() - set_from
    # Simulated metrics: median over the simulation seeds (exact per
    # seed; a mean would follow how many seeds land in a rare regime).
    # Host time: the seeds' median wall times added up, one set's worth
    # of work.
    values = {
        key: statistics.median(results[0]["values"][key] for results in runs)
        for key in runs[0][0]["values"]
    }
    values["wall_s"] = sum(
        statistics.median(result["wall_s"] for result in results)
        for results in runs
    )
    every = [result for results in runs for result in results]
    values["setup_s"] = statistics.median(
        result["setup_s"] for result in setups + every
    )
    # Context, not gated: the same medians in unnormalized host seconds.
    values["host_setup_s"] = statistics.median(
        result["host_setup_s"] for result in setups + every
    )
    values["peak_rss_mb"] = statistics.median(
        result["peak_rss_mb"] for result in every
    )
    return values, runs


def report(workload, seed: int, seconds: int, trace: bool,
           declared: list[dict]) -> int:
    """Measure one workload and print its metrics and result line."""
    started = time.perf_counter()
    try:
        calibration = statistics.median(
            fire_chain_events_per_s() for _ in range(3)
        )
        values, runs = measure(workload, seed, seconds, trace, started)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    if trace:
        # Kinds BENCHMARK.json does not list (new or unused message kinds).
        names = {metric["name"] for metric in declared}
        values["net.bytes.other"] = sum(
            value for name, value in values.items()
            if name.startswith("net.bytes.") and name not in names
        )
    failures = []
    attempted = failed = 0
    print(f"workload {workload.name} seed {seed} trace {int(trace)}")
    print(f"host calibration: empty fire chain "
          f"{calibration:,.0f} events/s (context, not gated)")
    for results in runs:
        failures.extend(check_agreement(results))
        run = results[0]["context"]
        # Only the sliced untraced workers have a normalized loop time.
        normalized = [round(result["wall_s"], 3) for result in results
                      if "wall_s" in result]
        host = [round(result["host_wall_s"], 3) for result in results]
        attempted += run["attempted_tx"]
        failed += run["failed_tx"]
        print(
            f"sim seed {results[0]['seed']}: commit_hash {run['commit_hash']}"
            f"; offered {run['emitted_tx']} tx, batched {run['batched_tx']} "
            f"({run['attempted_tx']} by never-crashed replicas, "
            f"{run['failed_tx']} of them uncommitted), unique committed "
            f"{run['unique_tx']} (MetricsHub counts {run['hub_committed_tx']})"
            f"; microblock references {run['mb_references']}, repeats "
            f"{run['mb_repeats']}; latency over {run['latency_samples']} "
            f"microblocks / {run['latency_tx']:.0f} tx; recoveries "
            f"{run['recoveries']}; wall_s {normalized} (host seconds "
            f"{host})"
        )
    print(f"tx_failed_share {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} tx; context, carried by the result "
          f"line's attempted and failed)")
    if not trace:
        print(f"host_setup_s {values['host_setup_s']:.6g} (context: setup_s "
              f"before normalization to the reference host speed)")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:32s} {value:>16.6g} {metric['unit']}")
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="default: every workload, one after another")
    parser.add_argument("--seed", type=int,
                        help="default: each workload's default seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("no repro sources under src/; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    declared = spec["per_layer" if args.trace else "end_to_end"]
    status = 0
    for name in [args.workload] if args.workload else names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        status = max(status, report(
            workload, seed, args.seconds, bool(args.trace), declared
        ))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
