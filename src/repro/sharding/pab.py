"""Per-shard provably available broadcast.

The sharded mempool runs the one Stratus PAB engine under the shard
availability scheme (:class:`repro.mempool.stratus.availability.ShardScheme`);
this name is kept for callers that import the shard engine directly.
"""

from repro.mempool.stratus.pab import PabEngine

ShardPabEngine = PabEngine

__all__ = ["ShardPabEngine"]
