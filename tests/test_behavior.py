"""Unit tests for Byzantine behaviour strategies."""

from repro.replica.behavior import (
    CensoringSender,
    HonestBehavior,
    LyingProxy,
    SilentReplica,
)

from tests.helpers import make_cluster


def test_honest_defaults():
    behavior = HonestBehavior()
    assert not behavior.silent
    assert behavior.acks_microblocks
    assert behavior.serves_fetches
    assert behavior.handles_forwards
    assert behavior.share_targets(None, [1, 2, 3]) == [1, 2, 3]
    assert behavior.load_status(0.5) == 0.5


def test_silent_contributes_nothing():
    behavior = SilentReplica()
    assert behavior.silent
    assert not behavior.acks_microblocks
    assert behavior.share_targets(None, [1, 2]) == []
    assert behavior.load_status(0.5) is None


def test_censoring_sender_without_proof_targets_leader_only():
    exp = make_cluster(n=7, mempool="simple", fault="censor", fault_count=2)
    host = exp.replicas[6]
    behavior = host.behavior
    assert isinstance(behavior, CensoringSender)
    targets = behavior.share_targets(
        host, [node for node in range(7) if node != 6])
    leader = host.consensus.current_leader()
    assert targets == [leader]


def test_censoring_sender_with_proof_reaches_quorum():
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    host = exp.replicas[6]
    targets = host.behavior.share_targets(
        host, [node for node in range(7) if node != 6])
    leader = host.consensus.current_leader()
    assert leader in targets
    # Leader plus at least quorum-1 witnesses (its own ack completes q).
    assert len(targets) >= exp.config.protocol.stability_quorum - 1
    assert 6 not in targets


def test_lying_proxy_advertises_zero():
    behavior = LyingProxy()
    assert behavior.load_status(5.0) == 0.0
    assert behavior.load_status(None) == 0.0
    assert not behavior.handles_forwards
    assert not behavior.serves_fetches


def test_proof_withholder_wastes_bandwidth_but_cannot_block_others():
    """Section VIII: withheld proofs keep the attacker's own microblocks
    out of proposals while honest traffic is unaffected."""
    from repro.mempool.base import MessageKinds
    from repro.replica.behavior import ProofWithholder

    exp = make_cluster(n=4, mempool="stratus")
    exp.replicas[3].behavior = ProofWithholder()
    exp.replicas[3].leader_set = (0, 1, 2)
    for replica in exp.replicas:
        replica.leader_set = (0, 1, 2)  # keep the attacker out of leadership
    from tests.helpers import inject
    inject(exp, 3, count=4)   # attacker's clients
    inject(exp, 0, count=4)   # honest clients
    exp.sim.run_until(5.0)
    # The attacker's body was broadcast (bandwidth burned)...
    mb_bytes = exp.network.stats.node_bytes(3, MessageKinds.MICROBLOCK)
    assert mb_bytes > 0
    # ...but only the honest microblock committed.
    assert exp.metrics.committed_tx_total == 4
    # Honest replicas hold the attacker's body yet never saw a proof.
    attacker_mb = exp.replicas[3].mempool.store.ids[0]
    assert attacker_mb in exp.replicas[0].mempool.store
    assert exp.replicas[0].mempool.pab.proof_for(attacker_mb) is None


def test_censoring_sender_under_sharded_stratus():
    """The censor reaches only the leader plus a shard quorum's worth of
    witnesses; its microblock still certifies and commits, and the
    honest shard members it skipped fetch the body. The leader sits in
    the other shard, so its ack cannot count as a witness."""
    from repro.config import ShardingConfig
    from repro.mempool.base import MessageKinds
    from repro.sim.interfaces import Channel
    from tests.helpers import inject

    exp = make_cluster(
        n=8, mempool="sharded-stratus", fault="censor", fault_count=2,
        protocol_overrides={"sharding": ShardingConfig(shards=2)},
    )
    sender = 6
    host = exp.replicas[sender]
    scheme = host.mempool.scheme
    assert isinstance(host.behavior, CensoringSender)
    pushed = []
    broadcast = exp.network.broadcast

    def record(src, kind, size, payload, channel=Channel.DATA,
               recipients=None, **options):
        if src == sender and kind == MessageKinds.SHARD_MICROBLOCK:
            pushed.append(set(recipients))
        broadcast(src, kind, size, payload, channel,
                  recipients=recipients, **options)

    exp.network.broadcast = record
    leader = host.consensus.current_leader()
    assert leader not in scheme.members
    inject(exp, sender, count=4)
    exp.sim.run_until(0.2)
    mb_id = host.mempool.store.ids[0]
    witnesses = pushed[0] - {leader}
    assert witnesses <= set(scheme.members)
    assert len(witnesses) == scheme.quorum - 1
    exp.sim.run_until(5.0)
    assert all(recipients <= pushed[0] for recipients in pushed)
    assert exp.metrics.committed_tx_total >= 4
    skipped = set(scheme.members) - pushed[0] - {sender}
    assert skipped
    for node in skipped:
        assert mb_id in exp.replicas[node].mempool.store
    assert exp.metrics.fetch_count > 0
    # Replicas outside the shard stay lazy: no executor needs the body.
    for node in set(range(8)) - set(scheme.members) - {leader}:
        assert mb_id not in exp.replicas[node].mempool.store
