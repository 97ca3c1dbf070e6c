"""Request/response dataclasses of the sampling service.

A :class:`SampleRequest` names a loaded graph, a registered algorithm and the
seed vertices to sample from; everything else (depth, NeighborSize, collision
strategy, RNG seed) arrives as overrides on the algorithm's default
:class:`~repro.api.config.SamplingConfig`.  The service coalesces requests
whose :meth:`SampleRequest.class_key` matches into one engine batch, so the
key is exactly the tuple that determines execution: graph, algorithm,
resolved config and program constructor arguments.

Both types are plain picklable dataclasses -- they cross the process
boundary between the service front-end and its workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import SamplingConfig
from repro.api.results import SampleColumns

__all__ = ["SampleRequest", "SampleResponse"]

_request_ids = itertools.count()

SeedSpec = Union[Sequence[int], Sequence[Sequence[int]], np.ndarray]


def _normalize_seeds(seeds: SeedSpec) -> Tuple:
    """Seeds as a hashable, picklable tuple (flat or nested, as provided)."""
    if isinstance(seeds, np.ndarray):
        seeds = seeds.tolist()
    seeds = list(seeds)
    if seeds and isinstance(seeds[0], (list, tuple, np.ndarray)):
        return tuple(tuple(int(v) for v in np.asarray(s).reshape(-1)) for s in seeds)
    return tuple(int(v) for v in seeds)


@dataclass(frozen=True)
class SampleRequest:
    """One sampling query against the service.

    Attributes
    ----------
    graph:
        Name of a graph previously loaded into the service's store.
    algorithm:
        A :mod:`repro.algorithms.registry` algorithm name.
    seeds:
        Seed vertices -- a flat sequence (one per instance) or a sequence of
        sequences (multi-seed instances), exactly as
        :func:`~repro.api.instance.make_instances` accepts them.
    num_instances:
        Optional instance count (seeds are reused round-robin to reach it).
    epoch:
        Optional *pinned* graph epoch.  ``None`` (default) samples the
        latest epoch at submission time; an integer pins the request to
        that published version -- it fails if the epoch was never published
        or has already been retired and released.
    config_overrides:
        Overrides applied to the algorithm's default config (``depth``,
        ``neighbor_size`` -- the sampling budget -- ``seed``, ``strategy``,
        ...).
    program_kwargs:
        Constructor arguments of the algorithm's program (e.g. node2vec's
        ``p`` / ``q``).
    tenant:
        Which tenant the request is billed to.  The service's gateway
        charges the request's predicted cost against this tenant's quota
        and reports per-tenant counters; it never affects execution or
        results (so it is *not* part of :meth:`class_key` -- requests of
        different tenants may share an engine batch).
    priority:
        Dispatch priority lane (higher runs first).  Requests drain from
        the service queue in descending priority, FIFO within a lane.
        Like ``tenant``, purely a scheduling hint -- results are
        bit-identical whatever the priority.
    request_id:
        Service-unique id; autogenerated when not given.
    """

    graph: str
    algorithm: str
    seeds: Tuple = ()
    num_instances: Optional[int] = None
    epoch: Optional[int] = None
    config_overrides: Dict[str, object] = field(default_factory=dict)
    program_kwargs: Dict[str, object] = field(default_factory=dict)
    tenant: str = "default"
    priority: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        # Deferred import: the registry's algorithm modules themselves import
        # from repro.api, so a module-level import would be cyclic.
        from repro.algorithms.registry import default_config
        from repro.planner.errors import SeedValidationError

        object.__setattr__(self, "seeds", _normalize_seeds(self.seeds))
        if not self.seeds:
            raise SeedValidationError("at least one seed is required")
        if self.num_instances is not None and self.num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if self.epoch is not None and self.epoch < 0:
            raise ValueError("epoch must be >= 0 (or None for latest)")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        object.__setattr__(self, "priority", int(self.priority))
        # Detach from the caller's dicts (a reused-and-mutated overrides dict
        # must not retroactively change an already-submitted request) and
        # resolve the config once -- this also fails fast on unknown
        # algorithms and bad overrides.
        object.__setattr__(self, "config_overrides", dict(self.config_overrides))
        object.__setattr__(self, "program_kwargs", dict(self.program_kwargs))
        object.__setattr__(
            self,
            "_resolved_config",
            default_config(self.algorithm, **self.config_overrides),
        )

    # ------------------------------------------------------------------ #
    def resolve_config(self) -> SamplingConfig:
        """The request's full :class:`SamplingConfig` (defaults + overrides)."""
        return self._resolved_config

    def class_key(self) -> Tuple:
        """Coalescing key: requests with equal keys may share an engine batch.

        The pinned epoch is part of the key; the service additionally groups
        by the epoch it *resolves* for the request (a ``None`` pin resolves
        to the latest epoch at submission), so requests never fuse across
        graph versions.  ``tenant`` and ``priority`` are deliberately
        excluded: they are billing/scheduling metadata with no effect on
        results, so cross-tenant fusing is safe and desirable.
        """
        return (
            self.graph,
            self.epoch,
            self.algorithm,
            self.resolve_config(),
            tuple(sorted(self.program_kwargs.items())),
        )

    def instance_count(self) -> int:
        """Number of sampling instances this request creates."""
        if self.num_instances is not None:
            return int(self.num_instances)
        return len(self.seeds)



@dataclass
class SampleResponse:
    """The service's answer to one :class:`SampleRequest`."""

    request_id: int
    graph: str
    algorithm: str
    #: Per-instance samples (views over one columnar container),
    #: bit-identical to a standalone sampler run with the request's config
    #: (see the service determinism contract).
    samples: SampleColumns = field(default_factory=SampleColumns.empty)
    #: Per-selection do-while iteration counts of this request's instances.
    iteration_counts: List[int] = field(default_factory=list)
    #: ``"in_memory"``, ``"sharded"`` or ``"out_of_memory"`` -- which
    #: sampler path ran (sharded = the partition-aware cluster tier).
    route: str = "in_memory"
    #: Graph epoch the request was executed against.
    epoch: int = 0
    #: How many requests shared the engine batch (1 = ran alone).
    coalesced_with: int = 1
    #: Aggregate counters and telemetry annotations: sampled edges and
    #: timings (``latency_s``, ``queue_wait_s`` submit->dispatch,
    #: ``execute_s``), the plan's ``step_tier`` (``"compiled"`` /
    #: ``"interpreted"``), the run's ``kernel_cache_hits`` /
    #: ``kernel_cache_misses`` deltas, and -- when telemetry is enabled --
    #: the request's ``trace_id`` (look its span tree up with
    #: ``repro.telemetry.spans_for``).  Through the service the gateway
    #: adds ``tenant``, ``priority`` and ``cache_hit`` (``True`` when the
    #: answer was served bit-identically from the deterministic result
    #: cache without dispatching any work).
    stats: Dict[str, object] = field(default_factory=dict)
    #: Summary of the :class:`~repro.planner.plan.ExecutionPlan` the service
    #: executed for this request (route, layout, predicted cost and the
    #: ``explain()`` dry-run text); ``None`` outside the service.
    plan: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request completed without error."""
        return self.error is None

    @property
    def num_instances(self) -> int:
        """Number of instances sampled."""
        return len(self.samples)

    @property
    def total_sampled_edges(self) -> int:
        """Total sampled edges across this request's instances."""
        return self.samples.num_edges

    def all_edges(self) -> np.ndarray:
        """All sampled edges as one ``(n, 2)`` array (the container's own)."""
        return self.samples.edges
