"""Integration tests for provably available broadcast inside Stratus.

Tests whose behaviour both availability schemes share take a ``kind``
argument defaulting to plain Stratus and run again under sharded Stratus
through ``test_shared_behaviour_under_sharded_stratus``.
"""

import pytest

from repro.mempool.base import MessageKinds
from repro.sim.interfaces import Channel

from tests.helpers import (
    fanout, freeze_consensus, inject, make_cluster, make_stratus_cluster,
)


def stratus_of(experiment, node):
    return experiment.replicas[node].mempool


def test_push_delivers_body_to_all_correct_replicas(kind="stratus"):
    exp = make_stratus_cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    mempool = stratus_of(exp, 0)
    assert len(mempool.store) >= 1
    mb_id = mempool.store.ids[0]
    for node in fanout(exp, 0):
        assert mb_id in stratus_of(exp, node).store


def test_proof_reaches_every_replica(kind="stratus"):
    exp = make_stratus_cluster(kind)
    inject(exp, 1, count=4)
    exp.sim.run_until(1.0)
    mb_id = stratus_of(exp, 1).store.ids[0]
    quorum = stratus_of(exp, 1).scheme.quorum
    for node in range(exp.config.protocol.n):
        proof = stratus_of(exp, node).pab.proof_for(mb_id)
        assert proof is not None
        assert len(proof.signers) >= quorum


def test_sender_records_stable_time(kind="stratus"):
    exp = make_stratus_cluster(kind)
    inject(exp, 2, count=4)
    exp.sim.run_until(1.0)
    assert stratus_of(exp, 2).estimator.sample_count >= 1
    assert exp.metrics.stable_times.mean > 0


def test_quorum_parameter_respected():
    exp = make_cluster(
        n=7, mempool="stratus", protocol_overrides={"pab_quorum": 5},
    )
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    mb_id = stratus_of(exp, 0).store.ids[0]
    proof = stratus_of(exp, 0).pab.proof_for(mb_id)
    assert proof is not None
    assert len(proof.signers) >= 5


def test_censoring_sender_body_recovered_via_fetch():
    """PAB-Provable Availability: even when a Byzantine sender shares the
    body with only a quorum's worth of replicas, every correct replica
    eventually fetches and delivers it."""
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    byzantine = sorted(exp.config.byzantine_ids)
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(0.2)
    sender_store = stratus_of(exp, byzantine[0]).store
    assert len(sender_store) == 1
    mb_id = sender_store.ids[0]
    exp.sim.run_until(5.0)
    correct = [n for n in range(7) if n not in exp.config.byzantine_ids]
    for node in correct:
        assert mb_id in stratus_of(exp, node).store, f"replica {node} missing"
    assert exp.metrics.fetch_count > 0


def test_censored_microblock_still_commits():
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    byzantine = sorted(exp.config.byzantine_ids)
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total >= 4


def test_microblocks_propose_and_commit_end_to_end(kind="stratus"):
    exp = make_stratus_cluster(kind)
    n = exp.config.protocol.n
    for node in range(n):
        inject(exp, node, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4 * n
    assert exp.metrics.view_change_count == 0


def test_no_duplicate_commits_across_views(kind="stratus"):
    exp = make_stratus_cluster(kind)
    for _ in range(3):
        inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    # Each injected batch fills exactly one microblock; commits must not
    # double-count any of them.
    assert exp.metrics.committed_tx_total == 12


SHARED = [
    test_push_delivers_body_to_all_correct_replicas,
    test_proof_reaches_every_replica,
    test_sender_records_stable_time,
    test_microblocks_propose_and_commit_end_to_end,
    test_no_duplicate_commits_across_views,
]


@pytest.mark.parametrize("check", SHARED, ids=lambda check: check.__name__)
def test_shared_behaviour_under_sharded_stratus(check):
    check(kind="sharded-stratus")


# -- sharded-only rules ------------------------------------------------------

def test_non_member_commits_foreign_block_without_fetching():
    exp = make_stratus_cluster("sharded-stratus")
    inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4
    mb_id = stratus_of(exp, 0).store.ids[0]
    outsiders = set(range(exp.config.protocol.n)) - fanout(exp, 0)
    for node in outsiders:
        assert mb_id in stratus_of(exp, node)._committed
        assert mb_id not in stratus_of(exp, node).store
    assert exp.metrics.fetch_count == 0


def test_member_that_missed_the_push_fetches_eagerly():
    """The member fetches on the certificate alone: with consensus
    frozen no commit ever asks it to resolve the body."""
    exp = make_stratus_cluster("sharded-stratus")
    freeze_consensus(exp)
    missed = max(fanout(exp, 0) - {0})
    broadcast = exp.network.broadcast

    def drop_push(src, kind, size, payload, channel=Channel.DATA,
                  recipients=None, **options):
        if kind == MessageKinds.SHARD_MICROBLOCK:
            recipients = [node for node in recipients if node != missed]
        broadcast(src, kind, size, payload, channel,
                  recipients=recipients, **options)

    exp.network.broadcast = drop_push
    inject(exp, 0, count=4)
    exp.sim.run_until(0.2)
    mb_id = stratus_of(exp, 0).store.ids[0]
    assert mb_id not in stratus_of(exp, missed).store
    assert stratus_of(exp, missed).pab.proof_for(mb_id) is not None
    exp.sim.run_until(3.0)
    assert mb_id in stratus_of(exp, missed).store
    assert exp.metrics.fetch_count > 0
