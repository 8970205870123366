"""Unit/integration tests for Stratus mempool bookkeeping (Algorithm 3).

Tests whose behaviour both availability schemes share take a ``kind``
argument defaulting to plain Stratus and run again under sharded Stratus
through ``test_shared_behaviour_under_sharded_stratus``.
"""

import pytest

from repro.crypto import GENESIS_QC, AvailabilityProof
from repro.sharding import ShardCertificate
from repro.types.proposal import Payload, PayloadEntry, Proposal, make_block_id

from tests.helpers import (
    fanout, freeze_consensus, inject, make_stratus_cluster,
)


def stratus_of(exp, node):
    return exp.replicas[node].mempool


def test_payload_entries_carry_proofs(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    payload = stratus_of(exp, 0).make_payload()
    assert payload.entries
    for entry in payload.entries:
        assert entry.proof is not None
        assert entry.proof.mb_id == entry.mb_id


def test_make_payload_drains_ava_queue(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    first = mempool.make_payload()
    second = mempool.make_payload()
    assert not first.is_empty
    assert second.is_empty  # ids are not proposed twice


def test_proposal_cap_respected(kind="stratus"):
    exp = make_stratus_cluster(
        kind,
        protocol_overrides={"proposal_max_microblocks": 2},
    )
    freeze_consensus(exp)
    for _ in range(5):
        inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    payload = mempool.make_payload()
    assert len(payload.entries) <= 2


def test_verify_payload_accepts_honest_and_rejects_forged(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 1)
    honest = stratus_of(exp, 0).make_payload()
    assert mempool.verify_payload(honest)
    proof = AvailabilityProof(mb_id=42, signers=(0, 1), forged=True)
    cert = ShardCertificate(
        mb_id=42, shard=0, origin=0, tx_count=4, mean_arrival=0.0,
        signers=(0, 2), forged=True,
    )
    for forged in (proof, cert):
        payload = Payload(entries=(PayloadEntry(mb_id=42, proof=forged),))
        assert not mempool.verify_payload(payload)
    # Valid evidence of the other scheme's type is rejected too.
    other = honest.entries[0]
    foreign = (
        ShardCertificate(
            mb_id=other.mb_id, shard=0, origin=0, tx_count=4,
            mean_arrival=0.0, signers=other.proof.signers,
        )
        if isinstance(other.proof, AvailabilityProof)
        else AvailabilityProof(mb_id=other.mb_id, signers=other.proof.signers)
    )
    assert not mempool.verify_payload(Payload(entries=(
        PayloadEntry(mb_id=other.mb_id, proof=foreign),
    )))
    missing_proof = Payload(entries=(PayloadEntry(mb_id=42),))
    assert not mempool.verify_payload(missing_proof)


def test_garbage_collect_blocks_reproposal(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    payload = mempool.make_payload()
    proposal = Proposal(
        block_id=make_block_id(0, 500), view=9, height=9, proposer=0,
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )
    # Commit hooks as base.on_commit runs them: mark_committed fires
    # synchronously at commit time, garbage_collect after resolution.
    mempool.mark_committed(proposal)
    mempool.garbage_collect(proposal)
    mempool.on_abandoned(proposal)  # even if the fork is later abandoned,
    follow_up = mempool.make_payload()
    assert follow_up.is_empty  # committed ids never re-enter avaQue


def test_abandoned_unreferenced_ids_requeue(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    payload = mempool.make_payload()
    proposal = Proposal(
        block_id=make_block_id(0, 501), view=9, height=9, proposer=0,
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )
    mempool.on_abandoned(proposal)  # fork lost without committing
    requeued = mempool.make_payload()
    assert {e.mb_id for e in requeued.entries} == {
        e.mb_id for e in payload.entries
    }


def test_remote_proof_populates_ava_queue(kind="stratus"):
    exp = make_stratus_cluster(kind)
    inject(exp, 2, count=4)
    exp.sim.run_until(1.0)
    # Replica 0 saw only the proof broadcast, yet can propose the id.
    payload = stratus_of(exp, 0).make_payload()
    ids = [entry.mb_id for entry in payload.entries]
    assert stratus_of(exp, 2).store.ids[0] in ids or not ids
    # (if consensus already proposed it, the queue is legitimately empty —
    # then the id must be referenced)
    if not ids:
        mb_id = stratus_of(exp, 2).store.ids[0]
        assert mb_id in stratus_of(exp, 0)._referenced


def test_resolve_produces_full_block(kind="stratus"):
    exp = make_stratus_cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    # A replica the push reached (any replica under plain Stratus).
    mempool = stratus_of(exp, min(fanout(exp, 0) - {0}))
    payload = stratus_of(exp, 0).make_payload()
    proposal = Proposal(
        block_id=make_block_id(0, 502), view=9, height=9, proposer=0,
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )
    blocks = []
    mempool.resolve(proposal, blocks.append)
    exp.sim.run_until(3.0)
    assert len(blocks) == 1
    assert blocks[0].is_full
    assert blocks[0].tx_count == 4


def test_garbage_collection_discards_bodies_after_retention(kind="stratus"):
    exp = make_stratus_cluster(
        kind,
        protocol_overrides={"gc_retention": 1.0},
    )
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    mempool = stratus_of(exp, 0)
    assert exp.metrics.committed_tx_total == 4
    # The committed microblock's body survives the retention window...
    exp.sim.run_until(2.5)
    # ...then is discarded everywhere along with its proof.
    exp.sim.run_until(6.0)
    for node in range(exp.config.protocol.n):
        assert len(stratus_of(exp, node).store) == 0
    assert mempool._proofs == {}
    assert mempool.pab.proof_for(next(iter(mempool._committed))) is None


def test_gc_disabled_keeps_bodies(kind="stratus"):
    exp = make_stratus_cluster(
        kind,
        protocol_overrides={"gc_retention": 0.0},
    )
    inject(exp, 0, count=4)
    exp.sim.run_until(6.0)
    assert exp.metrics.committed_tx_total == 4
    assert len(stratus_of(exp, 0).store) == 1


SHARED = [
    test_payload_entries_carry_proofs,
    test_make_payload_drains_ava_queue,
    test_proposal_cap_respected,
    test_verify_payload_accepts_honest_and_rejects_forged,
    test_garbage_collect_blocks_reproposal,
    test_abandoned_unreferenced_ids_requeue,
    test_remote_proof_populates_ava_queue,
    test_resolve_produces_full_block,
    test_garbage_collection_discards_bodies_after_retention,
    test_gc_disabled_keeps_bodies,
]


@pytest.mark.parametrize("check", SHARED, ids=lambda check: check.__name__)
def test_shared_behaviour_under_sharded_stratus(check):
    check(kind="sharded-stratus")


def test_both_mempool_kinds_share_one_class():
    from repro.mempool import MEMPOOL_CLASSES

    assert MEMPOOL_CLASSES["stratus"] is MEMPOOL_CLASSES["sharded-stratus"]


# -- sharded-only rules ------------------------------------------------------

def test_commit_metrics_come_from_certificates_before_resolution():
    """With an executor attached a non-member must fetch foreign-shard
    bodies, yet its commit is accounted at once from the certificates'
    tx counts and arrival means."""
    exp = make_stratus_cluster("sharded-stratus", attach_executor=True)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    payload = stratus_of(exp, 0).make_payload()
    assert payload.entries
    proposal = Proposal(
        block_id=make_block_id(0, 503), view=9, height=9, proposer=0,
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )
    outsider = min(set(range(exp.config.protocol.n)) - fanout(exp, 0))
    mempool = stratus_of(exp, outsider)
    mb_id = payload.entries[0].mb_id
    assert mb_id not in mempool.store
    now = exp.sim.now
    mempool.on_commit(proposal, now)
    # Accounted before the body arrives.
    assert mb_id not in mempool.store
    assert exp.metrics.committed_tx_total == 4
    record = exp.metrics.commits[-1]
    assert (record.block_id, record.tx_count, record.microblock_count) == (
        proposal.block_id, 4, 1,
    )
    exp.sim.run_until(3.0)
    assert mb_id in mempool.store  # the executor's fetch resolved it
