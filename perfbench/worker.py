"""One benchmark measurement in a fresh, single-threaded process.

Usage (``run.py`` spawns it; it prints one JSON line)::

    python3 perfbench/worker.py --workload NAME --seed N \
        --mode setup|run|trace|profile

``setup`` times repro import, config, ``build_experiment`` and oracle
attach, then exits. ``run`` also runs the event loop untraced. ``trace``
wraps the public entry points in spans (``spans.py``); ``profile`` runs
the loop under cProfile for the layers that have no public entry point.
Every mode that runs reports the same deterministic simulation metrics,
so ``run.py`` can require them to agree across processes.

Host time is reported twice: as measured (``host_*``) and normalized to
a reference host speed (``setup_s``, and ``wall_s`` in ``run`` mode).
The normalized figure divides each timed stretch by a stdlib-only
calibration kernel timed right around it, so the speed of a shared
host, which drifts by a factor of up to two within minutes, cancels
out. ``run`` mode times the event loop in slices of about
``SLICE_S`` host seconds (``SlicedLoop``) for that.
"""

import heapq
import time

#: Iterations of the calibration kernel: about 30 ms on the host the
#: README's numbers come from.
CALIBRATION_OPS = 40_000
#: The kernel's time on the reference host. A normalized time is host
#: seconds times this over the kernel time measured around them.
REFERENCE_CALIBRATION_S = 0.030
#: Host seconds of event loop between two calibrations.
SLICE_S = 0.25


def calibrate(ops: int = CALIBRATION_OPS) -> float:
    """Seconds for a fixed kernel of heap and dict work, the event
    loop's staple operations. It runs no repro code, so no change to
    the program can move it."""
    heap = [(index, index) for index in range(1024)]
    table = {}
    began = time.perf_counter()
    for index in range(ops):
        key = (index * 7919) % 1_000_003
        heapq.heapreplace(heap, (key, index))
        table[index & 1023] = key
    return time.perf_counter() - began


def normalize(host_s: float, before: float, after: float) -> float:
    return host_s * REFERENCE_CALIBRATION_S / ((before + after) / 2)


CALIBRATION_AT_START = calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Recovery sources that prove the restarted replica used its own
#: durable state rather than starting empty.
DURABLE_SOURCES = ("checkpoint", "checkpoint+wal")
#: Network-model functions the event loop calls directly (no public
#: entry point), attributed from the cProfile pass.
DELIVERY_CALLBACKS = frozenset({
    "_uplink_drain", "_start_next", "_resume", "_ingress_finish",
    "accept", "_transfer_wake", "_fair_flush", "_complete",
    "_dispatch_copy", "_should_drop", "_deliver_copy", "_deliver",
    "_dispatch",
})
PUSH_SPANS = {"PabEngine.push", "ShardPabEngine.push"}
BODY_BROADCASTS = {"Network.broadcast[mb]", "Network.broadcast[mb.shard]"}
CRYPTO_VERIFY = (
    "verify_quorum_cert", "verify_availability_proof", "verify_signature"
)
WAL_SPANS = {"WriteAheadLog.append", "WriteAheadLog.sync"}


def build(workload, seed: int, data_dir: str):
    """Config, oracle suite with the commit ledger, wired experiment."""
    from repro.harness import build_experiment
    from repro.verification import OracleSuite, standard_suite

    from perfbench.ledger import CommitLedger

    config = workload.config(seed, data_dir if workload.durable else None)
    ledger = CommitLedger(workload.warmup, workload.load_end)
    suite = OracleSuite(standard_suite().oracles + [ledger])
    experiment = build_experiment(config, suite)
    experiment.sim.schedule_at(workload.load_end, experiment.generator.stop)
    return experiment, ledger


def simulated_metrics(workload, experiment, ledger) -> tuple[dict, list]:
    """Deterministic metrics of one run, and the correctness failures."""
    from repro.metrics import commit_sequence_hash
    from repro.metrics.collector import FaultWindow
    from repro.mempool.base import MessageKinds

    metrics = experiment.metrics
    stats = experiment.network.stats
    emitted = experiment.generator.emitted_tx_count
    failures = [f"oracle {v.oracle}/{v.kind}: {v.message}"
                for v in experiment.oracles.violations]
    if ledger.unique_tx > ledger.batched_tx:
        failures.append(
            f"{ledger.unique_tx} unique committed tx > "
            f"{ledger.batched_tx} batched"
        )

    faults = metrics.fault_report()
    if faults:
        outage = max(entry["commit_gap"] for entry in faults)
        recover = max(entry["time_to_recover"] for entry in faults)
    else:
        # No fault: the longest commit-free interval under load, and the
        # time from load stop until the backlog's last commit.
        outage = metrics.commit_gap(
            FaultWindow("load", workload.warmup, workload.load_end)
        )
        last = ledger.unique_commits[-1][0] if ledger.unique_commits else math.inf
        recover = last - workload.load_end
    if not (math.isfinite(outage) and math.isfinite(recover)):
        failures.append(f"no recovery: outage {outage}, recover {recover}")
        outage = recover = workload.end

    # A crashed replica loses the transactions it batched but had not
    # yet made available; the fault model allows that, so the failed
    # operations are those of replicas that never crashed (inclusion).
    from repro.faults.schedule import CrashReplica

    schedule = experiment.config.faults
    crashed = frozenset(
        event.node for event in (schedule.events if schedule else ())
        if isinstance(event, CrashReplica)
    )
    attempted, failed = ledger.uncommitted_tx(crashed)

    recoveries = metrics.recovery_report()
    if workload.durable:
        sources = [entry["source"] for entry in recoveries]
        if not sources or any(s not in DURABLE_SOURCES for s in sources):
            failures.append(f"recovery sources {sources}")

    blocks = max(1, len(ledger.blocks))
    microblocks = max(1, len(ledger.created))
    fetches = metrics.fetch_count
    sim_end = experiment.sim.now
    topology = experiment.topology
    n = experiment.config.protocol.n
    known_kinds = [
        value for key, value in vars(MessageKinds).items()
        if key.isupper() and isinstance(value, str)
    ]
    values = {
        "committed_tps": ledger.committed_tps(
            workload.warmup, workload.load_end
        ),
        "latency_p50_ms": ledger.latency.percentile(50) * 1000,
        "latency_p99_ms": ledger.latency.percentile(99) * 1000,
        "outage_s": outage,
        "recover_s": recover,
        "sim.events": experiment.sim.processed,
        "sim.compactions": experiment.sim.compactions,
        "net.bytes_per_tx": stats.total_bytes() / max(1, ledger.unique_tx),
        "net.max_uplink_util": max(
            stats.node_bytes(node) * 8 / (topology.bandwidth(node) * sim_end)
            for node in range(n)
        ),
        "net.messages": sum(stats.messages_sent.values()),
        "net.dropped": stats.messages_dropped,
        "mempool.microblocks": len(ledger.created),
        "mempool.mb_per_block": ledger.references / blocks,
        "mempool.dup_commit_share": ledger.repeats / max(1, ledger.references),
        "pab.stable_p50_ms": metrics.stable_times.percentile(50) * 1000,
        "pab.stable_p99_ms": metrics.stable_times.percentile(99) * 1000,
        "dlb.forwards": metrics.forwarded_microblocks,
        "dlb.forward_share": metrics.forwarded_microblocks / microblocks,
        "fetch.count": fetches,
        "fetch.abandoned_share": (
            metrics.fetch_abandoned_count / fetches if fetches else 0.0
        ),
        "consensus.blocks": len(ledger.blocks),
        "consensus.tx_per_block": ledger.unique_tx / blocks,
        "consensus.view_changes": metrics.view_change_count,
        "recovery.wal_blocks_replayed": sum(
            entry.get("wal_blocks_replayed", 0) for entry in recoveries
        ),
        "workload.emitted_tx": emitted,
    }
    for kind in set(known_kinds).union(kind for _, kind in stats.bytes_sent):
        values[f"net.bytes.{kind}"] = stats.kind_bytes(kind)
    context = {
        "commit_hash": commit_sequence_hash(metrics.commits),
        "emitted_tx": emitted,
        "batched_tx": ledger.batched_tx,
        "unique_tx": ledger.unique_tx,
        "attempted_tx": attempted,
        "failed_tx": failed,
        "hub_committed_tx": metrics.committed_tx_total,
        "mb_references": ledger.references,
        "mb_repeats": ledger.repeats,
        "latency_samples": len(ledger.latency),
        "latency_tx": ledger.latency.total_weight,
        "recoveries": [entry["source"] for entry in recoveries],
    }
    return {"values": values, "context": context}, failures


def install_spans(protocol):
    """Wrap every public hot-path entry point.

    Returns the recorder and the list of checkpoint sizes written (a
    replica's restart replaces its store object, so the stores' own
    counters do not survive the run)."""
    import repro.crypto.certificates as certificates
    import repro.crypto.proofs as proofs
    import repro.crypto.signatures as signatures
    import repro.sharding.certificate as shard_certificate
    from repro.consensus import CONSENSUS_CLASSES
    from repro.durability import DurableKVStore
    from repro.durability.wal import WriteAheadLog
    from repro.kvstore import KVStore
    from repro.kvstore.store import kv_digest
    from repro.mempool import MEMPOOL_CLASSES
    from repro.mempool.stratus.pab import PabEngine
    from repro.replica import Replica
    from repro.sharding.pab import ShardPabEngine
    from repro.sim import Network, Simulator
    from repro.verification import OracleSuite

    from perfbench.spans import SpanRecorder

    spans = SpanRecorder()
    checkpoint_sizes: list[int] = []

    def note_checkpoint(args) -> None:
        checkpoint_sizes.append(args[0].checkpoint_bytes)

    spans.patch_method("sim", Simulator, "run_until")
    for attr in ("handle", "on_client_batch"):
        spans.patch_method("replica", Replica, attr)
    mempool_cls = MEMPOOL_CLASSES[protocol.mempool]
    for attr in ("on_message", "make_payload", "verify_payload", "prepare",
                 "resolve", "on_commit"):
        spans.patch_method("mempool", mempool_cls, attr)
    for engine in (PabEngine, ShardPabEngine):
        spans.patch_method("mempool", engine, "push")
    spans.patch_method(
        "consensus", CONSENSUS_CLASSES[protocol.consensus],
        "on_message",
    )
    spans.patch_method("net", Network, "send")
    spans.patch_method("net", Network, "broadcast", key_arg=2)
    for fn in (certificates.make_quorum_cert, certificates.verify_quorum_cert,
               proofs.make_availability_proof,
               proofs.verify_availability_proof,
               signatures.verify_signature):
        spans.patch_function("crypto", fn)
    for fn in (shard_certificate.make_shard_certificate,
               shard_certificate.verify_shard_certificate):
        spans.patch_function("sharding", fn)
    spans.patch_function("kv", kv_digest)
    spans.patch_method("kv", KVStore, "apply_block")
    spans.patch_method("durability", WriteAheadLog, "append")
    spans.patch_method("durability", WriteAheadLog, "sync")
    spans.patch_method("durability", DurableKVStore, "write_checkpoint",
                       after=note_checkpoint)
    spans.patch_attr("durability", os, "fsync", "os.fsync")
    for attr in ("on_local_commit", "on_microblock_created",
                 "on_block_resolved"):
        spans.patch_method("oracle", OracleSuite, attr)
    return spans, checkpoint_sizes


def span_metrics(spans, checkpoint_sizes: list) -> dict:
    summary = spans.summary()
    layer = spans.layer_self_s(summary)

    def count(name: str) -> int:
        return summary.get(name, {}).get("count", 0)

    pushes = sum(count(name) for name in PUSH_SPANS)
    body_broadcasts = sum(count(name) for name in BODY_BROADCASTS)
    first_pushes = spans.count_spans(BODY_BROADCASTS, PUSH_SPANS)
    return {
        "sim.self_s": layer.get("sim", 0.0),
        "net.self_s": layer.get("net", 0.0),
        "replica.handled": count("Replica.handle"),
        "replica.self_s": layer.get("replica", 0.0),
        "pab.repush_ratio": (
            (body_broadcasts - first_pushes) / pushes if pushes else 0.0
        ),
        "mempool.self_s": layer.get("mempool", 0.0),
        "shard.certs": count("make_shard_certificate"),
        "sharding.self_s": layer.get("sharding", 0.0),
        "consensus.self_s": layer.get("consensus", 0.0),
        "crypto.verify_calls": sum(count(name) for name in CRYPTO_VERIFY),
        "crypto.self_s": layer.get("crypto", 0.0),
        "kv.digest_calls": count("kv_digest"),
        "kv.digest_s": summary.get("kv_digest", {}).get("total_s", 0.0),
        "kv.apply_s": summary.get("KVStore.apply_block", {}).get("self_s", 0.0),
        "wal.appends": count("WriteAheadLog.append"),
        "wal.fsyncs": spans.count_spans({"os.fsync"}, WAL_SPANS),
        "durability.checkpoints": count("DurableKVStore.write_checkpoint"),
        "durability.checkpoint_bytes": sum(checkpoint_sizes),
        "durability.self_s": layer.get("durability", 0.0),
        "oracle.self_s": layer.get("oracle", 0.0),
        "trace.spans": len(spans.name),
    }


def profile_metrics(profiler) -> dict:
    import pstats

    from benchmarks.perf.run_perf import profile_breakdown

    packages = profile_breakdown(profiler)["subsystem_tottime_s"]
    delivery = sum(
        tottime
        for (filename, _line, function), (_cc, _nc, tottime, _ct, _callers)
        in pstats.Stats(profiler).stats.items()
        if filename.replace("\\", "/").endswith("repro/sim/network.py")
        and function in DELIVERY_CALLBACKS
    )
    return {
        "net.deliver_self_s": delivery,
        "workload.self_s": packages.get("repro.workload", 0.0),
        "config.self_s": packages.get("repro.config", 0.0),
    }


class SlicedLoop:
    """Runs ``Simulator.run_until`` in slices of about ``SLICE_S`` host
    seconds, with the calibration kernel between slices.

    Slicing does not change the simulation: a slice stops before the
    first event past its end and leaves the clock at that end, and the
    next slice goes on from there (``run.py --trace 1`` checks that the
    sliced run and the unsliced traced and profiled runs agree)."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.normalized_s = 0.0
        self.slices = 0

    def install(self) -> None:
        from repro.sim import Simulator

        original = Simulator.run_until
        loop = self

        def run_until(sim, end_time, max_events=None):
            if max_events is not None or not math.isfinite(end_time):
                return original(sim, end_time, max_events)
            position = sim.now
            step = (end_time - position) / 64
            executed = 0
            before = calibrate()
            while True:
                until = min(end_time, position + step)
                began = time.perf_counter()
                executed += original(sim, until)
                host_s = time.perf_counter() - began
                after = calibrate()
                loop.host_s += host_s
                loop.normalized_s += normalize(host_s, before, after)
                loop.slices += 1
                if until >= end_time:
                    return executed
                position, before = until, after
                step *= min(4.0, max(0.25, SLICE_S / max(host_s, 1e-3)))

        Simulator.run_until = run_until


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "profile"))
    args = parser.parse_args()

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    data_dir = str(ROOT / ".bench_out" / f"data-{os.getpid()}")
    shutil.rmtree(data_dir, ignore_errors=True)
    spans = None
    if args.mode == "trace":
        # Wrap before building: replicas bind handlers at construction.
        protocol = workload.config(args.seed, data_dir).protocol
        spans, checkpoint_sizes = install_spans(protocol)
    experiment, ledger = build(workload, args.seed, data_dir)
    host_setup_s = time.perf_counter() - T0
    out = {
        "seed": args.seed,
        "host_setup_s": host_setup_s,
        "setup_s": normalize(host_setup_s, CALIBRATION_AT_START, calibrate()),
    }
    try:
        if args.mode != "setup":
            profiler = None
            sliced = SlicedLoop() if args.mode == "run" else None
            if sliced is not None:
                sliced.install()
                before_run = calibrate()
            if spans is not None:
                spans.clear()
            if args.mode == "profile":
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
            result = experiment.run()
            if profiler is not None:
                profiler.disable()
            out["host_wall_s"] = result.wall_clock_s
            if sliced is not None and sliced.slices:
                out["host_wall_s"] = sliced.host_s
                out["wall_s"] = sliced.normalized_s
            elif sliced is not None:
                # The loop no longer goes through run_until: normalize
                # the whole loop by the kernel times around it.
                out["wall_s"] = normalize(
                    result.wall_clock_s, before_run, calibrate()
                )
            sim, failures = simulated_metrics(workload, experiment, ledger)
            out.update(sim, failures=failures)
            if spans is not None:
                spans.restore()
                out["layers"] = span_metrics(spans, checkpoint_sizes)
            if profiler is not None:
                out["layers"] = profile_metrics(profiler)
    finally:
        for replica in experiment.replicas:
            close = getattr(replica.executor, "close", None)
            if close is not None:
                close()
        shutil.rmtree(data_dir, ignore_errors=True)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
