"""The benchmark's four simulator workloads.

Every workload is open loop: the generator emits on a fixed per-tick
schedule whatever the system does, so generator lateness is 0 by
construction and a slow system shows up as a growing backlog. The load
runs for ``warmup + window`` simulated seconds, then stops; the run goes
on for ``drain`` more seconds so the backlog can commit. Offered
transactions still uncommitted at the end are the run's failed
operations.

The seed reaches the simulator's RNG registry only (network jitter,
PAB fetch sampling, DLB probes). Arrival schedules are fixed by rate and
skew, so one seed always produces the same inputs and the same
commit sequence. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import ShardingConfig
from repro.durability import DurabilityConfig
from repro.harness import ExperimentConfig, chaos_schedule, tuned_protocol


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    warmup: float
    window: float
    drain: float
    #: Builds the protocol/topology config; the harness adds timing.
    make: Callable[..., ExperimentConfig]
    #: The workload writes per-replica WAL and checkpoint files.
    durable: bool = False
    #: Simulations per run; their simulated metrics are reported as
    #: medians. Used where one seed moves a metric by several percent:
    #: the time from a fault healing to the next commit, and the WAN
    #: cell's tail latency, both of which have two regimes across seeds.
    seeds_per_run: int = 1

    @property
    def load_end(self) -> float:
        return self.warmup + self.window

    @property
    def end(self) -> float:
        return self.load_end + self.drain

    def sim_seeds(self, seed: int) -> list[int]:
        """The run's simulation seeds; the first is ``seed`` itself."""
        return [seed + index * 10_007 for index in range(self.seeds_per_run)]

    def config(self, seed: int, data_dir: Optional[str] = None) -> ExperimentConfig:
        return self.make(
            seed=seed,
            warmup=self.warmup,
            # The experiment's own window covers load and drain; the
            # benchmark stops the generator at ``load_end`` itself.
            duration=self.window + self.drain,
            data_dir=data_dir,
        )


def _wan16_zipf1(seed, warmup, duration, data_dir):
    # The Fig. 10 Zipf1 cell (benchmarks/test_fig10_load_balance.py).
    protocol = tuned_protocol(
        "S-HS", n=16, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1, lb_samples=3,
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=30_000.0,
        selector="zipf1", seed=seed, warmup=warmup, duration=duration,
        label="wan16-zipf1",
    )


def _lan128(preset: str, label: str, **overrides):
    # The perf cell ``stratus-hotstuff-128``: 1 Gb/s LAN, one million
    # offered clients generated flow-level.
    def make(seed, warmup, duration, data_dir):
        protocol = tuned_protocol(
            preset, n=128, topology_kind="lan", **overrides
        )
        return ExperimentConfig(
            protocol=protocol, topology_kind="lan", rate_tps=250_000.0,
            workload_mode="aggregate", offered_clients=1_000_000,
            seed=seed, warmup=warmup, duration=duration, label=label,
        )
    return make


def _crash8_durable(seed, warmup, duration, data_dir):
    protocol = tuned_protocol(
        "S-HS", n=8, topology_kind="lan", view_timeout=0.5
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="lan", rate_tps=5_000.0,
        faults=chaos_schedule("crash-partition", 8),
        # fsync "interval" made wall_s twice as noisy as any other
        # workload's on a shared disk; checkpoints still fsync.
        durability=DurabilityConfig(fsync="off"), data_dir=data_dir,
        seed=seed, warmup=warmup, duration=duration, label="crash8-durable",
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("wan16-zipf1", 7, warmup=3.0, window=6.0, drain=6.0,
                 make=_wan16_zipf1, seeds_per_run=5),
        Workload("lan128-1m", 1, warmup=1.0, window=5.0, drain=2.0,
                 make=_lan128("S-HS", "lan128-1m")),
        Workload("shard128-1m", 1, warmup=1.0, window=5.0, drain=2.0,
                 make=_lan128("SS-HS", "shard128-1m",
                              sharding=ShardingConfig(shards=4))),
        Workload("crash8-durable", 1, warmup=1.0, window=5.0, drain=2.0,
                 make=_crash8_durable, durable=True, seeds_per_run=5),
    )
}
