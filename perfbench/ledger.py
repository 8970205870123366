"""Commit ledger: counts each committed microblock id once.

``MetricsHub`` deduplicates by *block* id, so a microblock referenced by
two committed blocks counts twice there (sharded n=128 reports more
committed than offered transactions). This observer rides the oracle
tap instead and credits a microblock's transactions at the first commit
of its id, by any honest replica.
"""

from __future__ import annotations

from repro.metrics import WeightedDigest
from repro.verification.oracles import Oracle


class CommitLedger(Oracle):
    name = "bench-ledger"

    def __init__(self, window_start: float, window_end: float) -> None:
        super().__init__()
        self.window = (window_start, window_end)

    def on_attach(self) -> None:
        # mb_id -> (tx_count, mean client arrival time, origin)
        self.created: dict[int, tuple[int, float, int]] = {}
        self.blocks: set[int] = set()
        self.committed: set[int] = set()
        self.references = 0
        self.repeats = 0
        self.batched_tx = 0
        self.unique_tx = 0
        #: (commit time, tx) at each microblock id's first commit.
        self.unique_commits: list[tuple[float, int]] = []
        self.latency = WeightedDigest()

    def on_microblock_created(self, replica, microblock) -> None:
        if microblock.id not in self.created:
            self.created[microblock.id] = (
                microblock.tx_count, microblock.mean_arrival, microblock.origin
            )
            self.batched_tx += microblock.tx_count

    def on_local_commit(self, replica, proposal) -> None:
        if proposal.block_id in self.blocks:
            return
        self.blocks.add(proposal.block_id)
        now = self.suite.now
        start, end = self.window
        for mb_id in proposal.payload.microblock_ids:
            self.references += 1
            if mb_id in self.committed:
                self.repeats += 1
                continue
            self.committed.add(mb_id)
            # A fabricated id has no creation record; the suite's ledger
            # oracle reports it, and it credits no transactions here.
            tx_count, arrival, _ = self.created.get(mb_id, (0, now, -1))
            if not tx_count:
                continue
            self.unique_tx += tx_count
            self.unique_commits.append((now, tx_count))
            if start <= now < end:
                self.latency.add(max(0.0, now - arrival), float(tx_count))

    def committed_tps(self, start: float, end: float) -> float:
        """Unique committed transactions per second over ``[start, end)``."""
        return sum(
            tx for when, tx in self.unique_commits if start <= when < end
        ) / (end - start)

    def uncommitted_tx(self, origins_excluded: frozenset) -> tuple[int, int]:
        """(batched, never committed) transactions, skipping the given
        origins' microblocks."""
        batched = missing = 0
        for mb_id, (tx_count, _, origin) in self.created.items():
            if origin in origins_excluded:
                continue
            batched += tx_count
            if mb_id not in self.committed:
                missing += tx_count
        return batched, missing
