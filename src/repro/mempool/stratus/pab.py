"""Provably available broadcast (PAB) — Algorithms 1 and 2.

**Push phase.** The pusher broadcasts the microblock body; every receiver
stores it and returns a signed ack. Once ``q`` distinct acks accumulate
(the pusher's own counts), the pusher aggregates them into availability
evidence and reports it via ``on_available``. With ``q >= f + 1`` at
least one ack came from a correct replica, so the body is retrievable
forever.

**Recovery phase.** Whoever owns the PAB instance broadcasts the
evidence; replicas that verify evidence for a body they lack fetch it
from a random sample of its signers, retrying every ``delta`` seconds
(:class:`repro.mempool.fetching.FetchManager`). Recovery traffic stays
off the consensus critical path: requests ride the control channel and
the returned bodies ride the data channel.

Fan-out, quorum, evidence format and who recovers eagerly come from an
availability scheme (:mod:`repro.mempool.stratus.availability`): every
peer and concatenated proofs for Stratus, the pusher's shard and
aggregate certificates for sharded Stratus.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.crypto import Signature, sign
from repro.mempool.base import MessageKinds
from repro.mempool.fetching import (
    FetchManager,
    RETRY_STABLE_TIME_FACTOR,
    adaptive_retry_delay,
    sampled_signers,
)
from repro.mempool.store import MicroBlockStore
from repro.mempool.stratus.availability import Evidence, Scheme
from repro.sim.network import Channel, Envelope
from repro.types import sizes
from repro.types.microblock import MicroBlock, MicroBlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

OnAvailable = Callable[[MicroBlockId, Evidence], None]

#: EWMA smoothing weight for the push->first-remote-ack RTT sample.
RTT_EWMA_ALPHA = 0.2

__all__ = ["PabEngine", "RETRY_STABLE_TIME_FACTOR"]


class _PushState:
    """Ack bookkeeping for one PAB instance at its pusher."""

    __slots__ = (
        "microblock", "acks", "signers", "started_at", "on_available",
        "done", "targets", "timer", "rounds",
    )

    def __init__(
        self,
        microblock: MicroBlock,
        started_at: float,
        on_available: OnAvailable,
        targets,
    ) -> None:
        self.microblock = microblock
        self.acks: list[Signature] = []
        #: Distinct ack signers, maintained incrementally — the quorum
        #: check is O(1) per ack instead of rebuilding a set every time.
        self.signers: set[int] = set()
        self.started_at = started_at
        self.on_available = on_available
        self.done = False
        self.targets = targets
        self.timer = None
        self.rounds = 1


class PabEngine:
    """One replica's PAB endpoint (pusher, witness, and recoverer roles)."""

    def __init__(
        self,
        host: "Replica",
        config: ProtocolConfig,
        store: MicroBlockStore,
        fetcher: FetchManager,
        scheme: Scheme,
        on_proof: OnAvailable,
        on_stable: Optional[Callable[[MicroBlockId, float], None]] = None,
        retry_floor: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self._host = host
        self._config = config
        self._store = store
        self._fetcher = fetcher
        self._on_proof = on_proof
        self._on_stable = on_stable
        #: Current stable-time estimate in seconds (None = no data yet);
        #: scales the retransmission interval under congestion.
        self._retry_floor = retry_floor
        #: EWMA of the push->first-remote-ack interval: an RTT-like
        #: congestion signal that warms up within one push, long before
        #: the stable-time estimator has a full window.
        self._ack_rtt: Optional[float] = None
        self._pushes: dict[MicroBlockId, _PushState] = {}
        self._proofs: dict[MicroBlockId, Evidence] = {}
        self.scheme = scheme
        # Hot-path constants, read once per push or ack.
        self._quorum = scheme.quorum
        #: Default push fan-out.
        self.targets: tuple[int, ...] = scheme.targets
        #: Signers a push starts with: 1 when the pusher's copy counts.
        self._self_signers = 1 if scheme.self_acks else 0
        self._push_kind = scheme.push_kind
        self._ack_kind = scheme.ack_kind
        self._proof_kind = scheme.evidence_kind

    # -- pusher role -------------------------------------------------------

    def push_own(
        self, microblock: MicroBlock, on_available: OnAvailable
    ) -> None:
        """Push a microblock this replica originated.

        The replica's behaviour picks the recipients from the scheme's
        fan-out: honest replicas keep it, Byzantine senders restrict it
        to mount the censoring attack of Fig. 8.
        """
        host = self._host
        targets = host.behavior.share_targets(host, list(self.targets))
        self.push(microblock, on_available, targets=targets)

    def push(
        self,
        microblock: MicroBlock,
        on_available: OnAvailable,
        targets: Optional[list[int]] = None,
    ) -> None:
        """Start the push phase for ``microblock``.

        ``targets`` defaults to the scheme's fan-out. The pusher's own
        ack is counted immediately when the scheme lets it witness
        (Algorithm 1, quorum includes the sender).
        """
        host = self._host
        node_id = host.node_id
        self._store.add(microblock)
        if targets is None:
            targets = self.targets
        state = _PushState(microblock, host.sim.now, on_available, targets)
        self._pushes[microblock.id] = state
        if self._self_signers:
            state.acks.append(sign(node_id, microblock.id))
            state.signers.add(node_id)
        host.network.broadcast(
            node_id,
            self._push_kind,
            microblock.size_bytes,
            microblock,
            recipients=targets,
        )
        self._arm_retry(state)
        self._maybe_complete(state)

    def repush_pending(self) -> int:
        """Immediately retransmit pushes that never reached a quorum.

        Hardened recovery path for crash-restart: acks sent while the
        pusher was down were dropped with its ingress queue, so without a
        nudge a stalled instance waits a full backoff period after the
        restart. Returns the number of instances retransmitted.
        """
        stalled = [
            state for state in self._pushes.values() if not state.done
        ]
        for state in stalled:
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._retry_push(state)
        return len(stalled)

    def _arm_retry(self, state: _PushState) -> None:
        stable = self._retry_floor() if self._retry_floor else None
        pending = len(state.targets) - max(0, len(state.signers) - 1)
        delay = adaptive_retry_delay(
            self._config, state.rounds, self._host,
            state.microblock.size_bytes, max(1, pending),
            stable_estimate=stable, rtt_estimate=self._ack_rtt,
        )
        state.timer = self._host.sim.schedule(
            delay, lambda: self._retry_push(state)
        )

    def _retry_push(self, state: _PushState) -> None:
        """Retransmit the body to targets that have not acked yet.

        The prototype gets push-phase reliability from TCP; the simulated
        network drops messages permanently (loss windows, partitions,
        crashed receivers), so without retransmission a push below quorum
        stalls forever and its transactions are never proposable.
        """
        if state.done or state.microblock.id not in self._pushes:
            return
        state.rounds += 1
        acked = state.signers
        missing = [node for node in state.targets if node not in acked]
        if missing:
            self._host.network.broadcast(
                self._host.node_id,
                self._push_kind,
                state.microblock.size_bytes,
                state.microblock,
                recipients=missing,
            )
        self._arm_retry(state)

    def broadcast_proof(self, mb_id: MicroBlockId, proof: Evidence) -> None:
        """Start the recovery phase: disseminate the evidence."""
        self._proofs[mb_id] = proof
        self._host.network.broadcast(
            self._host.node_id,
            self._proof_kind,
            proof.size_bytes,
            (mb_id, proof),
            Channel.CONTROL,
        )

    def proof_for(self, mb_id: MicroBlockId) -> Optional[Evidence]:
        return self._proofs.get(mb_id)

    def discard(self, mb_id: MicroBlockId) -> None:
        """Garbage-collect proof state for a committed microblock.

        Any outstanding recovery fetch is cancelled too — once the body
        is discarded everywhere, its retry timer would otherwise keep
        polling peers (and leak the pending entry) until the run ends.
        """
        self._proofs.pop(mb_id, None)
        state = self._pushes.pop(mb_id, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
        self._fetcher.cancel(mb_id)

    def fetch(self, mb_id: MicroBlockId, proof: Evidence) -> None:
        """``PAB-Fetch``: retrieve a missing body from the proof's signers.

        The first round is deferred by a grace period: in the normal case
        the body is still in flight (per-peer FIFO in the prototype means
        it precedes the proof), and fetching immediately would duplicate
        the transfer. Recovery uses background bandwidth (Section IV-B).
        """
        provider = sampled_signers(
            self._config, self._host.rng, proof.signers, self._host.node_id
        )
        self._fetcher.request(
            mb_id, provider, delay=self._config.effective_recovery_delay
        )

    # -- message handling ----------------------------------------------

    def on_message(self, envelope: Envelope) -> bool:
        """Process PAB traffic; returns False for non-PAB kinds."""
        kind = envelope.kind
        if kind == self._push_kind or kind == MessageKinds.MICROBLOCK_FETCH:
            self._on_body(envelope)
            return True
        if kind == self._ack_kind:
            self._on_ack(envelope)
            return True
        if kind == self._proof_kind:
            self._on_proof_message(envelope)
            return True
        if kind == MessageKinds.FETCH_REQUEST:
            self._fetcher.handle_request(envelope.src, envelope.payload)
            return True
        return False

    def _on_body(self, envelope: Envelope) -> None:
        microblock: MicroBlock = envelope.payload
        self._store.add(microblock)
        if (
            envelope.kind == self._push_kind
            and self._host.behavior.acks_microblocks
        ):
            # Witness: ack back to the pusher, even for duplicates — a
            # proxy re-pushing an already-seen body needs its own quorum.
            self._host.network.send(
                self._host.node_id,
                envelope.src,
                self._ack_kind,
                sizes.ACK,
                sign(self._host.node_id, microblock.id),
                Channel.CONTROL,
            )

    def _on_ack(self, envelope: Envelope) -> None:
        ack: Signature = envelope.payload
        state = self._pushes.get(ack.digest)
        if state is None or state.done:
            return
        if len(state.signers) == self._self_signers and state.rounds == 1:
            # First remote ack of an un-retried push: a clean RTT sample.
            sample = self._host.sim.now - state.started_at
            if self._ack_rtt is None:
                self._ack_rtt = sample
            else:
                self._ack_rtt += RTT_EWMA_ALPHA * (sample - self._ack_rtt)
        state.acks.append(ack)
        state.signers.add(ack.signer)
        self._maybe_complete(state)

    def _maybe_complete(self, state: _PushState) -> None:
        if len(state.signers) < self._quorum:
            return
        proof = self.scheme.make(state.microblock, state.acks)
        if proof is None:
            return
        state.done = True
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        elapsed = self._host.sim.now - state.started_at
        if self._on_stable is not None:
            self._on_stable(state.microblock.id, elapsed)
        del self._pushes[state.microblock.id]
        state.on_available(state.microblock.id, proof)

    def _on_proof_message(self, envelope: Envelope) -> None:
        mb_id, proof = envelope.payload
        if not self.scheme.verify(proof, mb_id):
            return
        first_time = mb_id not in self._proofs
        self._proofs[mb_id] = proof
        if mb_id not in self._store and self.scheme.fetches_eagerly(proof):
            self.fetch(mb_id, proof)
        if first_time:
            self._on_proof(mb_id, proof)
