"""Refactor guard: commit-sequence hashes of three short Stratus cells.

Each cell exercises one path of the Stratus mempool and its PAB engine
that the perf and sharding benches cover only at scale: DLB forwarding
under skewed load, Byzantine censoring senders, and sharded
certificate-only ordering with an executor fetching foreign-shard
bodies. A behaviour-preserving refactor keeps every hash; a change that
moves one must say why, cell by cell.
"""

import pytest

from repro.config import ShardingConfig
from repro.harness import ExperimentConfig, build_experiment, tuned_protocol
from repro.metrics import commit_sequence_hash


def shs_wan_zipf1():
    protocol = tuned_protocol(
        "S-HS", n=16, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1, lb_samples=3,
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=30_000.0,
        selector="zipf1", seed=7, warmup=1.0, duration=4.0,
    )


def shs_censor():
    protocol = tuned_protocol("S-HS", n=7, batch_timeout=0.05)
    return ExperimentConfig(
        protocol=protocol, rate_tps=2_000.0, seed=3, warmup=0.5,
        duration=3.0, fault="censor", fault_count=2,
    )


def sshs_executor():
    protocol = tuned_protocol(
        "SS-HS", n=16, batch_timeout=0.05,
        sharding=ShardingConfig(shards=4),
    )
    return ExperimentConfig(
        protocol=protocol, rate_tps=4_000.0, seed=5, warmup=0.5,
        duration=3.0, attach_executor=True,
    )


CELLS = {
    "shs-wan16-zipf1": (
        shs_wan_zipf1,
        "07da71563958f4845a465776df36fa3a4834c0def7f4ad2282f87cfc5c5ec8ce",
    ),
    "shs-n7-censor2": (
        shs_censor,
        "3d1f12cf8d5c09e1f39bdf557da58b2abe4f893b3350a97c3a0089ba9f229f07",
    ),
    "sshs-n16-4shards-executor": (
        sshs_executor,
        "29a681552b12601745e3dccfe3f8263cf21bf1b255b497c33519c24d9db217e2",
    ),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_commit_sequence_hash_is_pinned(cell):
    make, expected = CELLS[cell]
    experiment = build_experiment(make())
    result = experiment.run()
    assert result.committed_tx > 0
    if cell == "shs-wan16-zipf1":
        assert experiment.metrics.forwarded_microblocks > 0
    else:
        # Censored bodies and foreign-shard bodies are both fetched.
        assert experiment.metrics.fetch_count > 0
    assert commit_sequence_hash(experiment.metrics.commits) == expected
