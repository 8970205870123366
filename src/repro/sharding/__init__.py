"""Shard structure for sharded Stratus (Arma / BigDipper directions).

:class:`ShardMap` partitions the microblock space into shards with
their own memberships and quorums, and :class:`ShardCertificate` is the
compact evidence a shard quorum mints. Neither runs a protocol: the one
Stratus mempool and PAB engine consume them through the shard
availability scheme (:mod:`repro.mempool.stratus.availability`), and
consensus orders certificates instead of bodies. See DESIGN.md
"Sharding" for the architecture.
"""

from repro.config import ShardingConfig
from repro.sharding.certificate import (
    CertificateError,
    ShardCertificate,
    make_shard_certificate,
    verify_shard_certificate,
)
from repro.sharding.map import ShardMap

__all__ = [
    "CertificateError",
    "ShardCertificate",
    "ShardMap",
    "ShardingConfig",
    "make_shard_certificate",
    "verify_shard_certificate",
]
