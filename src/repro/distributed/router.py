"""Cross-shard walker migration: column batches, envelopes, exchange.

The sharded cluster follows KnightKing's walker-migration model: a sampling
instance ("walker") lives on the shard that owns its current frontier, and
when a depth step moves the frontier into another shard's vertex range the
walker is shipped there before the next step.  Walkers travel in one of two
forms, fixed per run by the program's step resolution:

* :class:`~repro.compiled.walk_kernel.WalkerBatch` -- walk-kernel walkers
  (``resolve_step(...).kernel == "walk"``: the four walk algorithms on the
  compiled tier) as the walk kernel's own rows: global instance id,
  segmented frontier pool, ``prev`` vertex (node2vec's dynamic bias keeps
  working after a hop) and the walker's private *warp cursor*.  A shard
  ships its emigrants as one batch per destination (KnightKing's
  per-destination message batching), carrying the trace context once per
  batch; the batch is also the shard's resident form.  It is defined with
  the kernel and re-exported here.
* :class:`WalkerEnvelope` -- one object per walker, for every other run:
  the stateful programs, non-walk coalescable programs and any run with
  the compiled tier off (``REPRO_COMPILED=0``).  It carries the
  :class:`~repro.api.instance.InstanceState` itself (frontier pool, sampled
  edges, visited set, ``prev_vertex``), the warp cursor, the per-selection
  iteration counts accumulated so far and, for programs whose hooks consume
  a private RNG stream (``supports_coalescing = False``: forest fire,
  Metropolis-Hastings, jump/restart), the per-walker program object itself,
  mid-stream state and all.

Warp ids are mixed into the counter RNG's stream coordinates, so carrying the
cursor is what makes selection independent of where a step executes (the
shard-count invariance contract, see ``docs/distributed.md``).

Bucketing is vectorised in both forms: one
:func:`~repro.graph.partition.range_owners` call maps every migrating
walker's routing vertex to its destination shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.instance import InstanceState
from repro.compiled.walk_kernel import WalkerBatch
from repro.graph.partition import range_owners

__all__ = [
    "WalkerBatch",
    "WalkerEnvelope",
    "routing_vertex",
    "bucket_by_shard",
    "MigrationRouter",
]

@dataclass
class WalkerEnvelope:
    """One migrating walker: instance state plus its execution context
    (every run that is not on the walk kernel, see the module docstring)."""

    instance: InstanceState
    #: Next warp id of the instance's private warp stream.
    warp_cursor: int = 0
    #: Per-selection do-while iteration counts accumulated so far.
    iterations: List[int] = field(default_factory=list)
    #: Stateful program travelling with the walker (``None`` = use the
    #: shard's shared program; see the module docstring).
    program: Optional[SamplingProgram] = None
    #: Telemetry trace context (``repro.telemetry.trace.TraceContext``)
    #: riding along so shard runtimes join the request's span tree;
    #: ``None`` whenever tracing is inactive.
    trace_ctx: Optional[tuple] = None

    @property
    def instance_id(self) -> int:
        """Cluster-global id of the enclosed instance."""
        return int(self.instance.instance_id)


def routing_vertex(instance: InstanceState) -> int:
    """The vertex that decides which shard advances ``instance`` next.

    Single-vertex (walk-style) frontiers route exactly like KnightKing
    walkers -- to the shard owning the walker's current vertex.  Wider
    frontier pools are coordinated by the shard owning the first pool
    vertex; the rule only needs to be a deterministic function of instance
    state so placement is identical for every shard count.
    """
    return int(instance.frontier_pool[0])


def bucket_by_shard(
    envelopes: Sequence[WalkerEnvelope],
    bounds: np.ndarray,
    *,
    stride: Optional[int] = None,
) -> Dict[int, List[WalkerEnvelope]]:
    """Group envelopes by destination shard (one vectorised owner lookup)."""
    if not envelopes:
        return {}
    vertices = np.fromiter(
        (routing_vertex(env.instance) for env in envelopes),
        dtype=np.int64,
        count=len(envelopes),
    )
    owners = range_owners(bounds, vertices, stride=stride)
    buckets: Dict[int, List[WalkerEnvelope]] = {}
    for dst in np.unique(owners):
        indices = np.nonzero(owners == dst)[0]
        buckets[int(dst)] = [envelopes[i] for i in indices]
    return buckets


#: What one shard ships to one destination in one epoch.
Walkers = Union[WalkerBatch, List[WalkerEnvelope]]


class MigrationRouter:
    """Merges per-shard outboxes into per-shard inboxes once per depth step.

    Delivery is deterministic -- source shards are drained in index order --
    though results never depend on it: every walker carries its own RNG
    coordinates, so arrival order only affects in-memory layout.  Outboxes
    hold column batches or envelope lists (one form per run); either merges
    with ``+`` and counts its walkers with ``len``.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        #: Total walkers shipped between shards so far.
        self.migrations = 0

    def exchange(
        self, outboxes: Sequence[Mapping[int, Walkers]]
    ) -> Dict[int, Walkers]:
        """Combine every shard's outbox into per-destination inboxes.

        ``outboxes[src]`` maps destination shard to the walkers ``src``
        emits this step; the result maps each destination to its merged
        arrivals, in source order.
        """
        if len(outboxes) != self.num_shards:
            raise ValueError(
                f"expected one outbox per shard ({self.num_shards}), "
                f"got {len(outboxes)}"
            )
        inboxes: Dict[int, Walkers] = {}
        for src, outbox in enumerate(outboxes):
            for dst in sorted(outbox):
                walkers = outbox[dst]
                if not len(walkers):
                    continue
                if not (0 <= dst < self.num_shards):
                    raise ValueError(f"shard {src} routed to unknown shard {dst}")
                if dst == src:
                    raise ValueError(f"shard {src} routed walkers to itself")
                merged = inboxes.get(dst)
                inboxes[dst] = walkers if merged is None else merged + walkers
                self.migrations += len(walkers)
        return inboxes
