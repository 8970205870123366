"""Shared test fixtures: a minimal replica harness for component tests.

``make_cluster`` builds a real simulator + network + replicas with the
requested mempool/consensus, small enough for unit-style protocol tests
but using the production wiring from the harness.
"""

from __future__ import annotations

from repro.config import ProtocolConfig
from repro.harness import ExperimentConfig, build_experiment
from repro.types import TxBatch


def make_cluster(
    n=4,
    mempool="stratus",
    consensus="hotstuff",
    topology="lan",
    rate_tps=0.0,
    duration=5.0,
    warmup=0.0,
    seed=1,
    fault="none",
    fault_count=0,
    selector="uniform",
    attach_executor=False,
    protocol_overrides=None,
    **experiment_overrides,
):
    """Build a running experiment with zero default client load.

    Tests inject traffic explicitly via ``inject`` or rely on the
    generator by passing ``rate_tps``.
    """
    overrides = dict(protocol_overrides or {})
    overrides.setdefault("mempool", mempool)
    overrides.setdefault("consensus", consensus)
    overrides.setdefault("batch_bytes", 4 * 128)  # 4 txs per microblock
    overrides.setdefault("batch_timeout", 0.05)
    overrides.setdefault("empty_view_delay", 0.002)
    protocol = ProtocolConfig(n=n, **overrides)
    config = ExperimentConfig(
        protocol=protocol,
        topology_kind=topology,
        rate_tps=rate_tps,
        duration=duration,
        warmup=warmup,
        seed=seed,
        fault=fault,
        fault_count=fault_count,
        selector=selector,
        attach_executor=attach_executor,
        **experiment_overrides,
    )
    return build_experiment(config)


def inject(experiment, replica_id, count=4, payload=128):
    """Hand one client batch to a replica at the current sim time."""
    replica = experiment.replicas[replica_id]
    batch = TxBatch(
        count=count, payload_bytes=payload,
        mean_arrival=experiment.sim.now,
    )
    replica.on_client_batch(batch)
    return batch


def freeze_consensus(experiment):
    """Stop engines from proposing so tests can inspect mempool state."""
    for replica in experiment.replicas:
        replica.consensus._try_propose = lambda *args, **kwargs: None


def make_stratus_cluster(mempool="stratus", **kwargs):
    """A Stratus cluster under either availability scheme.

    Plain Stratus runs n=4. Sharded Stratus runs n=8 split into two
    4-member shards, so a push reaches a strict subset of the replicas
    and every shard still tolerates one fault.
    """
    if mempool == "sharded-stratus":
        from repro.config import ShardingConfig

        kwargs.setdefault("n", 8)
        overrides = dict(kwargs.pop("protocol_overrides", None) or {})
        overrides.setdefault("sharding", ShardingConfig(shards=2))
        kwargs["protocol_overrides"] = overrides
    return make_cluster(mempool=mempool, **kwargs)


def fanout(experiment, node):
    """Replicas a push from ``node`` reaches: its scheme's targets + itself."""
    return set(experiment.replicas[node].mempool.pab.targets) | {node}
