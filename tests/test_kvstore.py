"""Unit tests for the KV state machine."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import GENESIS_QC
from repro.durability import DurabilityConfig, DurableKVStore
from repro.kvstore import KVStore, kv_digest
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal


def make_block(mb_counts=(4,), proposer=1, counter=0):
    microblocks = {}
    entries = []
    for index, count in enumerate(mb_counts):
        mb = MicroBlock(
            id=make_microblock_id(proposer, counter * 100 + index),
            origin=proposer, tx_count=count, tx_payload=128,
            created_at=0.0, sum_arrival=0.0,
        )
        microblocks[mb.id] = mb
        entries.append(PayloadEntry(mb_id=mb.id))
    proposal = Proposal(
        block_id=counter + 1, view=counter + 1, height=counter + 1,
        proposer=proposer, parent_id=counter, justify=GENESIS_QC,
        payload=Payload(entries=tuple(entries)),
    )
    return Block(proposal=proposal, microblocks=microblocks)


def test_apply_counts_transactions():
    store = KVStore()
    store.apply_block(make_block((4, 6)))
    assert store.tx_applied == 10
    assert store.applied_block_ids == [1]


def test_same_blocks_same_state():
    a, b = KVStore(), KVStore()
    for counter in range(3):
        block = make_block((4,), counter=counter)
        a.apply_block(block)
        b.apply_block(block)
    assert a.state_digest() == b.state_digest()


def test_different_blocks_different_state():
    a, b = KVStore(), KVStore()
    a.apply_block(make_block((4,), counter=0))
    b.apply_block(make_block((5,), counter=0))
    assert a.state_digest() != b.state_digest()


def test_partial_block_rejected():
    block = make_block((4,))
    missing_id = next(iter(block.microblocks))
    del block.microblocks[missing_id]
    with pytest.raises(ValueError):
        KVStore().apply_block(block)


def test_get_defaults_to_zero():
    assert KVStore().get(123) == 0


def test_writes_visible():
    store = KVStore(key_space=10)
    store.apply_block(make_block((20,)))
    assert any(store.get(key) > 0 for key in range(10))


def test_invalid_key_space():
    with pytest.raises(ValueError):
        KVStore(key_space=0)


def test_digest_is_stable_hex_not_process_salted():
    """The digest must be reproducible in another process: sha256-based,
    never the per-process-salted builtin ``hash``."""
    store = KVStore()
    store.apply_block(make_block((4, 6)))
    digest = store.state_digest()
    assert isinstance(digest, str)
    assert len(digest) == 64
    int(digest, 16)  # valid hex
    # Recompute from first principles: XOR of per-pair sha256 digests.
    acc = bytearray(32)
    for key in range(10_000):
        value = store.get(key)
        if value:
            pair = hashlib.sha256(f"{key}:{value}".encode()).digest()
            acc = bytearray(a ^ b for a, b in zip(acc, pair))
    assert digest == bytes(acc).hex()


def test_digest_order_independent():
    assert kv_digest({1: 2, 3: 4}) == kv_digest({3: 4, 1: 2})
    assert kv_digest({}) == "0" * 64


#: Digests recorded with the byte-wise XOR kernel that wrote every
#: checkpoint before the 256-bit fold. They must never move: a stored
#: checkpoint is rejected unless its digest recomputes exactly.
KNOWN_DIGESTS = [
    ({}, "0" * 64),
    ({1: 2, 3: 4},
     "5de5a0d3408fb37fa521861fcfcdc137aa35587833bb18ee4351c029a83dbace"),
    ({k: (k * 7919) % 1000 + 1 for k in range(10_000)},
     "557df4cd554e86ec0dad1b193bcf00b55d59758b76011804f732940286a217c0"),
]


@pytest.mark.parametrize("data,digest", KNOWN_DIGESTS,
                         ids=["empty", "two-keys", "10k-keys"])
def test_digest_known_answers(data, digest):
    assert kv_digest(data) == digest


def test_empty_block_keeps_digest_memo_and_write_clears_it():
    store = KVStore(key_space=50)
    store.apply_block(make_block((4,), counter=0))
    before = store.state_digest()
    store.apply_block(make_block((), counter=1))
    store.apply_block(make_block((), counter=2))
    assert store._digest == before
    store.apply_block(make_block((3,), counter=3))
    assert store._digest is None
    assert store.state_digest() == kv_digest(store._data) != before


def payload_of(store: KVStore) -> tuple:
    """``state.snap`` payload of an in-memory store (a peer that is ahead)."""
    return (store.last_height, store.last_block_id, store.state_digest(),
            store.tx_applied, store.blocks_applied, dict(store._data))


store_ops = st.lists(
    st.one_of(
        # An empty count list is an empty block.
        st.tuples(st.just("apply"),
                  st.lists(st.integers(1, 5), max_size=3)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("snapshot"),
                  st.lists(st.integers(1, 5), min_size=1, max_size=3)),
    ),
    max_size=20,
)


@given(ops=store_ops)
@settings(max_examples=40, deadline=None)
def test_state_digest_memo_matches_full_recompute(tmp_path_factory, ops):
    """Whatever mix of empty and non-empty blocks, checkpoints, restarts
    and snapshot installs a durable store goes through, its memoized
    digest equals a full recompute, and a forged snapshot is refused
    while the memo is warm."""
    directory = str(tmp_path_factory.mktemp("memo"))
    config = DurabilityConfig(fsync="off", checkpoint_interval=3)
    store = DurableKVStore(directory, config=config, key_space=50)
    peer = KVStore(key_space=50)  # applies the same chain, and runs ahead

    def next_block(counts):
        return make_block(tuple(counts), counter=peer.last_height)

    for op in ops:
        if op[0] == "apply":
            block = next_block(op[1])
            peer.apply_block(block)
            store.apply_block(block)
        elif op[0] == "checkpoint":
            store.write_checkpoint()
        elif op[0] == "reopen":
            store = store.reopen()
        else:
            peer.apply_block(next_block(op[1]))
            genuine = payload_of(peer)
            warm = store.state_digest()
            forged_digest = genuine[:2] + (warm,) + genuine[3:]
            tampered = dict(genuine[5])
            tampered[next(iter(tampered))] += 1
            forged_data = genuine[:5] + (tampered,)
            for forged in (forged_digest, forged_data):
                assert not store.install_snapshot(forged)
                assert store.state_digest() == warm
            assert store.install_snapshot(genuine)
        assert store.state_digest() == kv_digest(store._data)
        assert store.state_digest() == peer.state_digest()
        assert store.last_height == peer.last_height
    store.close()


def test_apply_tracks_height_cursor():
    store = KVStore()
    store.apply_block(make_block((4,), counter=0))
    store.apply_block(make_block((4,), counter=1))
    assert store.last_height == 2
    assert store.last_block_id == 2
    assert store.blocks_applied == 2
