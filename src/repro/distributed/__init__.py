"""Sharded sampling cluster: partition-aware shards with walker migration.

The distributed tier runs one :class:`~repro.distributed.shard.ShardRuntime`
per contiguous vertex-range partition (Section V-A partitioning) and moves
walkers between shards KnightKing-style whenever a step carries their
frontier across a partition boundary -- walk-kernel walkers as one column
batch per destination, every other program's as per-walker envelopes.  Results -- including cost totals --
are bit-identical for every shard count and transport; see
``docs/distributed.md`` for the model and the invariance contract.
"""

from repro.distributed.coordinator import ClusterResult, ShardedSamplingCluster
from repro.distributed.router import (
    MigrationRouter,
    WalkerBatch,
    WalkerEnvelope,
    bucket_by_shard,
    routing_vertex,
)
from repro.distributed.shard import ShardReport, ShardRuntime, walker_program_seed
from repro.distributed.transport import (
    ClusterTransportError,
    InProcessTransport,
    MultiprocessTransport,
)

__all__ = [
    "ClusterResult",
    "ClusterTransportError",
    "InProcessTransport",
    "MigrationRouter",
    "MultiprocessTransport",
    "ShardReport",
    "ShardRuntime",
    "ShardedSamplingCluster",
    "WalkerBatch",
    "WalkerEnvelope",
    "bucket_by_shard",
    "routing_vertex",
    "walker_program_seed",
]
