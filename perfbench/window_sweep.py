"""How much the measurement window moves committed throughput.

Usage, from the repository root::

    python3 perfbench/window_sweep.py

Batching mempools commit in bursts: a microblock waits up to the batch
flush period, and a block carries whole microblocks. A window only a few
flush periods long therefore reads a quantized rate. This script runs
``lan128-1m`` at its default seed and one BENCH_sharding n=16 cell
(4 shards, 1.0 s flush), each once, and reads committed tx/s over
windows of growing length from the same run, counting both ways: every
committed block's tx (``MetricsHub``) and each microblock id once (the
benchmark's ledger). The numbers are quoted in ``README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.run_sharding import build_cell_config  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402
from perfbench.worker import build  # noqa: E402

LENGTHS = (1.0, 2.0, 2.5, 3.0, 4.0, 5.0)


def sharding_n16(seed, warmup, duration, data_dir):
    config = build_cell_config(16, 4)
    config.seed, config.warmup, config.duration = seed, warmup, duration
    return config


def sweep(workload: Workload, seed: int, offered: float) -> None:
    experiment, ledger = build(workload, seed, str(ROOT / ".bench_out"))
    experiment.run()
    print(f"\n{workload.name} seed {seed}, offered {offered:,.0f} tx/s, "
          f"windows start at t={workload.warmup:g} s")
    print(f"{'window s':>9} {'MetricsHub tx/s':>16} {'unique tx/s':>12} "
          f"{'unique/offered':>15}")
    for length in LENGTHS:
        start, end = workload.warmup, workload.warmup + length
        unique = ledger.committed_tps(start, end)
        print(f"{length:>9g} {experiment.metrics.throughput_tps(start, end):>16,.0f}"
              f" {unique:>12,.0f} {unique / offered:>15.3f}")


def main() -> int:
    sweep(WORKLOADS["lan128-1m"], 1, 250_000.0)
    cell = Workload("sharding-n16-s4", 1, warmup=1.5, window=5.0, drain=2.0,
                    make=sharding_n16)
    sweep(cell, 1, build_cell_config(16, 4).rate_tps)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
