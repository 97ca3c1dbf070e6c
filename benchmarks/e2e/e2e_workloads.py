"""The seven workloads: names, sizes and seeded input generation.

Nothing here times anything or touches the service.  ``generate`` turns
``(workload, seed, sizes)`` into a graph, one operation stream per client
thread and (for ``cache_updates``) the edge batches to publish -- the
program under test only ever sees these generated inputs, never the seed.

Every workload has a *fixed operation count*.  The counts below were sized
on the reference 2-core host for a timed window of about
``NOMINAL_SECONDS``; ``--seconds S`` scales all of them by
``S / NOMINAL_SECONDS`` and never below ``MIN_TIMED_OPS``, so a run measures
for roughly ``S`` seconds while two runs with the same ``--seed`` and
``--seconds`` execute bit-identical work (which is what lets ``sim_seps``,
``output_digest`` and the count metrics repeat exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

NOMINAL_SECONDS = 12.0
#: Floor on timed operations: p90 keeps >= 12 samples beyond it.
MIN_TIMED_OPS = 120
#: Every VERIFY_EVERY-th timed operation is replayed through the direct path.
VERIFY_EVERY = 20
GRAPH_NAME = "g"
#: The dataset is fixed; ``--seed`` drives request seeds and update edges.
#: A power-law graph's hubs land differently under every generator seed,
#: which alone moved ``sim_seps`` by 23% and ``peak_rss_mb`` by 16% between
#: seeds -- more than any bound -- while saying nothing about the program.
GRAPH_SEED = 1

Overrides = Tuple[Tuple[str, object], ...]

_WALK_8 = (("depth", 8), ("seed", 7))
_SEED_7 = (("seed", 7),)


@dataclass(frozen=True)
class Op:
    """One operation: a request against the service or a direct call."""

    algorithm: str
    seeds: Tuple[int, ...]
    overrides: Overrides


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"served"`` goes through SamplingClient; ``"direct"`` calls sample_graph.
    kind: str
    vertices: int
    #: Route every response must report (direct workloads run in memory).
    route: str = "in_memory"
    clients: int = 1
    #: Requests a client submits before waiting (1 = plain closed loop).
    burst: int = 1
    #: Round-robin ``(algorithm, instances, config overrides)`` per operation.
    mix: Tuple[Tuple[str, int, Overrides], ...] = ()
    #: Per-client warm-up and timed operation counts at NOMINAL_SECONDS.
    warmup_ops: int = 0
    timed_ops: int = 0
    #: Served requests replayed through each layer in the traced pass.
    replay_ops: int = 200
    #: ``memory_budget_bytes = graph.nbytes // budget_divisor`` when set.
    budget_divisor: Optional[int] = None
    cluster_shards: int = 0
    #: cache_updates only: hot-set size, hot share, ops between updates,
    #: edges per update.
    hot_set: int = 0
    hot_share: float = 0.0
    update_every: int = 0
    update_edges: int = 0

    def service_kwargs(self, graph_nbytes: int) -> Dict[str, object]:
        """The non-default SamplingService arguments this workload needs."""
        kwargs: Dict[str, object] = {}
        if self.budget_divisor:
            kwargs["memory_budget_bytes"] = graph_nbytes // self.budget_divisor
        if self.cluster_shards:
            kwargs["cluster_shards"] = self.cluster_shards
        return kwargs


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="small_served",
        why="1 closed-loop client, 8-seed walks: all fixed per-request floor "
            "(gateway, window, plan, IPC, demux), step loop ~3%",
        kind="served", vertices=50_000,
        mix=(("simple_random_walk", 8, _WALK_8),),
        warmup_ops=50, timed_ops=2000,
    ),
    Workload(
        name="burst_served",
        why="2 clients x bursts of 8 same-class 64-seed deepwalk requests: "
            "coalescing does real work and fused results cross the worker pipe",
        kind="served", vertices=50_000, clients=2, burst=8,
        mix=(("deepwalk", 64, _SEED_7),),
        warmup_ops=80, timed_ops=2000,
    ),
    Workload(
        name="bulk_walk",
        why="direct sample_graph, 4000-instance walks + node2vec: time is in "
            "compiled walk kernels and structure reuse; the service is bypassed",
        kind="direct", vertices=100_000,
        mix=(("simple_random_walk", 4000, _SEED_7),
             ("deepwalk", 4000, _SEED_7),
             ("biased_random_walk", 4000, _SEED_7),
             ("node2vec", 300, _SEED_7)),
        warmup_ops=8, timed_ops=120,
    ),
    Workload(
        name="bulk_sampling",
        why="direct sample_graph, neighbor/layer/forest-fire sampling at equal "
            "cost per call: time is in engine + selection, compiled and interpreted",
        kind="direct", vertices=100_000,
        # Instance counts equalise the four algorithms at ~57 ms per call.
        # At 500 each their medians sat at 45 / 70 / 80 / 90 ms, so the p50
        # of the round-robin mix fell in the gap between two of them and
        # jumped by 18% between seeds.
        mix=(("unbiased_neighbor_sampling", 600, _SEED_7),
             ("biased_neighbor_sampling", 330, _SEED_7),
             ("layer_sampling", 400, _SEED_7),
             ("forest_fire_sampling", 310, _SEED_7)),
        warmup_ops=4, timed_ops=192,
    ),
    Workload(
        name="oom_served",
        why="graph 4x over the memory budget, 256-seed deepwalk: route "
            "out_of_memory, time is partition scheduling and swap-and-drain",
        kind="served", vertices=50_000, route="out_of_memory",
        mix=(("deepwalk", 256, _SEED_7),),
        warmup_ops=5, timed_ops=150, replay_ops=20, budget_divisor=4,
    ),
    Workload(
        name="sharded_served",
        why="same input as oom_served with cluster_shards=4: route sharded, "
            "a cluster is built per request and walkers migrate between shards",
        kind="served", vertices=50_000, route="sharded",
        mix=(("deepwalk", 256, _SEED_7),),
        warmup_ops=5, timed_ops=150, replay_ops=20, budget_divisor=4,
        cluster_shards=4,
    ),
    Workload(
        name="cache_updates",
        why="90% of requests repeat a 32-request hot set beside periodic "
            "update_graph publishes: cache hits, misses and epoch invalidation",
        kind="served", vertices=50_000,
        mix=(("simple_random_walk", 8, _WALK_8),),
        warmup_ops=50, timed_ops=6000,
        hot_set=32, hot_share=0.9, update_every=150, update_edges=64,
    ),
]}


@dataclass(frozen=True)
class Sizes:
    """Concrete per-client counts of one run."""

    vertices: int
    warmup_ops: int
    timed_ops: int
    replay_ops: int


def sizes_for(workload: Workload, seconds: float, smoke: bool) -> Sizes:
    """Scale the nominal counts to ``seconds``; whole bursts/rounds only."""
    group = workload.burst if workload.kind == "served" else len(workload.mix)

    def whole(count: float, floor: int) -> int:
        groups = max(int(round(count / group)), -(-floor // group), 1)
        return groups * group

    if smoke:
        # Self-test sizes: a few operations on a small graph, no floor.
        return Sizes(5_000, whole(2, 1), whole(10, 1), 4)
    scale = seconds / NOMINAL_SECONDS
    floor = -(-MIN_TIMED_OPS // workload.clients)
    return Sizes(
        workload.vertices,
        whole(workload.warmup_ops * min(scale, 1.0), 1),
        whole(workload.timed_ops * scale, floor),
        max(4, int(round(workload.replay_ops * min(scale, 1.0)))),
    )


@dataclass
class Schedule:
    """Generated inputs of one run."""

    graph: object  # CSRGraph
    graph_gen_s: float
    #: ``streams[client]`` = warm-up operations followed by timed ones.
    streams: List[List[Op]]
    #: ``updates[i]`` is published before client 0's operation ``i``.
    updates: Dict[int, np.ndarray]


def generate(workload: Workload, seed: int, sizes: Sizes) -> Schedule:
    """All inputs of one run, a pure function of ``seed`` (the graph is the
    fixed dataset; generating it is timed as input generation, not set-up)."""
    import time

    from repro.graph.generators import powerlaw_graph

    start = time.perf_counter()
    graph = powerlaw_graph(sizes.vertices, avg_degree=8, seed=GRAPH_SEED)
    graph_gen_s = time.perf_counter() - start
    streams, updates = generate_ops(workload, seed, sizes, graph.num_vertices)
    return Schedule(graph, graph_gen_s, streams, updates)


def update_batch(rng, num_vertices: int, count: int) -> np.ndarray:
    """``count`` generated edges to add, as an ``(n, 2)`` array."""
    src = rng.integers(0, num_vertices, count)
    # dst != src: the generator never publishes self loops.
    dst = (src + rng.integers(1, num_vertices, count)) % num_vertices
    return np.column_stack([src, dst]).astype(np.int64)


def generate_ops(workload: Workload, seed: int, sizes: Sizes, num_vertices: int):
    """Operation streams and update batches (no graph needed)."""
    index = list(WORKLOADS).index(workload.name)
    total = sizes.warmup_ops + sizes.timed_ops
    streams: List[List[Op]] = []
    updates: Dict[int, np.ndarray] = {}
    for client in range(workload.clients):
        rng = np.random.default_rng([seed, index, client])

        def fresh(slot: int) -> Op:
            algorithm, instances, overrides = workload.mix[slot % len(workload.mix)]
            seeds = rng.choice(num_vertices, size=instances, replace=False)
            return Op(algorithm, tuple(int(v) for v in seeds), overrides)

        hot = [fresh(0) for _ in range(workload.hot_set)]
        stream: List[Op] = []
        for i in range(total):
            timed_index = i - sizes.warmup_ops
            if (workload.update_every and timed_index >= 0
                    and timed_index % workload.update_every
                    == workload.update_every - 1):
                updates[i] = update_batch(rng, num_vertices, workload.update_edges)
            if hot and rng.random() < workload.hot_share:
                stream.append(hot[int(rng.integers(len(hot)))])
            else:
                stream.append(fresh(i))
        streams.append(stream)
    return streams, updates
