"""Availability schemes: the evidence format behind the one PAB engine.

Stratus disseminates every microblock by provably available broadcast
(PAB): a push collects ``q`` witness acks into *evidence* that at least
one correct replica holds the body, and consensus orders ids together
with that evidence. Deployments differ only in who a push fans out to,
how many acks make evidence, what the evidence looks like and who must
materialize which bodies. A scheme fixes those choices for
:class:`repro.mempool.stratus.pab.PabEngine` and
:class:`repro.mempool.stratus.mempool.StratusMempool`:

* :class:`ProofScheme` (``stratus``) — fan-out to every peer,
  ``config.stability_quorum`` acks, a concatenated
  :class:`repro.crypto.AvailabilityProof`; every replica fetches every
  proven body it lacks. DLB runs on top of it.
* :class:`ShardScheme` (``sharded-stratus``) — fan-out to the pusher's
  shard members (:class:`repro.sharding.map.ShardMap`), ``f_s + 1``
  member acks, an aggregate
  :class:`repro.sharding.certificate.ShardCertificate` that also carries
  the commit-accounting scalars. Only members fetch eagerly; other
  replicas resolve a foreign shard's bodies only for an executor.

Each scheme also owns the three wire kinds of its push, ack and evidence
broadcast, so bandwidth accounting keeps the two apart.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import ProtocolConfig
from repro.crypto import (
    AvailabilityProof,
    ProofError,
    Signature,
    make_availability_proof,
    verify_availability_proof,
)
from repro.mempool.base import MessageKinds
from repro.sharding.certificate import (
    CertificateError,
    ShardCertificate,
    make_shard_certificate,
    verify_shard_certificate,
)
from repro.sharding.map import ShardMap
from repro.types.microblock import MicroBlock, MicroBlockId

#: What a completed push produces and a proposal entry carries.
Evidence = Union[AvailabilityProof, ShardCertificate]


class ProofScheme:
    """Plain Stratus: every peer witnesses, proofs concatenate acks."""

    push_kind = MessageKinds.MICROBLOCK
    ack_kind = MessageKinds.ACK
    evidence_kind = MessageKinds.PROOF
    #: DLB proxies hand proofs back to the origin; only this scheme
    #: runs the load balancer.
    load_balancing = True
    #: Whether evidence carries ``tx_count``/``mean_arrival``, so
    #: commits are accounted from it instead of from resolved bodies.
    commit_scalars = False
    #: Whether a replica without an executor may skip bodies it does not
    #: :meth:`~ShardScheme.holds`; proofs make every body resolvable.
    lazy_bodies = False

    def __init__(self, config: ProtocolConfig, node_id: int) -> None:
        self.n = config.n
        self.quorum = config.stability_quorum
        #: Default push fan-out: everyone else.
        self.targets: tuple[int, ...] = tuple(
            node for node in range(config.n) if node != node_id
        )
        #: The pusher's own copy counts toward the quorum (Algorithm 1).
        self.self_acks = True

    def make(
        self, microblock: MicroBlock, acks: list[Signature]
    ) -> Optional[AvailabilityProof]:
        try:
            return make_availability_proof(
                microblock.id, acks, self.quorum, self.n
            )
        except ProofError:
            return None

    def verify(self, proof: Evidence, mb_id: MicroBlockId) -> bool:
        return type(proof) is AvailabilityProof and verify_availability_proof(
            proof, mb_id, self.quorum, self.n
        )

    def fetches_eagerly(self, proof: AvailabilityProof) -> bool:
        """Every replica recovers every proven body it lacks."""
        return True


class ShardScheme:
    """Sharded Stratus: per-shard quorums mint aggregate certificates."""

    push_kind = MessageKinds.SHARD_MICROBLOCK
    ack_kind = MessageKinds.SHARD_ACK
    evidence_kind = MessageKinds.SHARD_CERT
    load_balancing = False
    commit_scalars = True
    lazy_bodies = True

    def __init__(self, config: ProtocolConfig, node_id: int) -> None:
        self.n = config.n
        self.node_id = node_id
        self.map = ShardMap.for_protocol(config)
        #: The shard this replica's own microblocks land in.
        self.shard = self.map.shard_of_origin(node_id)
        self.members = self.map.members(self.shard)
        self.quorum = self.map.quorum(self.shard)
        self.targets: tuple[int, ...] = tuple(
            node for node in self.members if node != node_id
        )
        self.self_acks = self.map.is_member(node_id, self.shard)

    def make(
        self, microblock: MicroBlock, acks: list[Signature]
    ) -> Optional[ShardCertificate]:
        try:
            return make_shard_certificate(
                microblock, self.shard, acks, self.members, self.quorum,
                self.n,
            )
        except CertificateError:
            return None

    def verify(self, cert: Evidence, mb_id: MicroBlockId) -> bool:
        return type(cert) is ShardCertificate and verify_shard_certificate(
            cert, mb_id, self.map
        )

    def fetches_eagerly(self, cert: ShardCertificate) -> bool:
        """A member that missed the push recovers at once: it is part of
        the availability quorum peers fetch from. Everyone else stays
        lazy, since the certificate alone is enough to vote."""
        return self.map.is_member(self.node_id, cert.shard)

    def holds(self, mb_id: MicroBlockId) -> bool:
        """Whether this replica materializes the body without an executor:
        only members of the microblock's shard do."""
        return self.map.is_member(
            self.node_id, self.map.shard_of_microblock(mb_id)
        )


Scheme = Union[ProofScheme, ShardScheme]


def availability_scheme(config: ProtocolConfig, node_id: int) -> Scheme:
    """The scheme the configured mempool kind runs."""
    if config.mempool == "sharded-stratus":
        return ShardScheme(config, node_id)
    return ProofScheme(config, node_id)
