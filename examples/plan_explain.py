"""Dry-run an over-budget graph through the execution planner.

Builds a graph that exceeds a (deliberately tiny) memory budget, routes it
the way the sampling service does -- admission (``plan_admission``) picks
the route and sizes its layout, then ``plan(force_route=...)`` describes
the run -- and prints the plans' ``explain()`` output; no sampling runs.
Shows the three admission outcomes side by side: in-memory (budget fits),
serial out-of-memory partition scheduling (over budget, no shards) and the
sharded cluster tier (over budget, shards available).

    PYTHONPATH=src python examples/plan_explain.py
"""

from __future__ import annotations

from repro.algorithms.registry import default_config
from repro.api.instance import make_instances
from repro.graph.generators import powerlaw_graph
from repro.graph.partition import partition_bounds
from repro.planner.planner import PlanRequest, plan, plan_admission


def main() -> None:
    graph = powerlaw_graph(50_000, avg_degree=8, seed=1)
    budget = graph.nbytes // 4  # force the over-budget tiers
    instances = make_instances(list(range(0, 50_000, 50)))
    config = default_config("deepwalk", depth=8, seed=1)
    print(f"graph footprint: {graph.nbytes / 2**20:.1f} MiB, "
          f"budget: {budget / 2**20:.1f} MiB\n")

    scenarios = [
        ("within budget", graph.nbytes + 1, 0),
        ("over budget, no shards", budget, 0),
        ("over budget, sharded tier", budget, 2),
    ]
    for label, memory_budget_bytes, cluster_shards in scenarios:
        route, layout = plan_admission(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            nbytes=graph.nbytes,
            memory_budget_bytes=memory_budget_bytes,
            cluster_shards=cluster_shards,
        )
        boundaries = None
        if route == "sharded":
            boundaries = partition_bounds(graph, layout.num_partitions)
        execution_plan = plan(PlanRequest(
            graph=graph,
            algorithm="deepwalk",
            config=config,
            instances=instances,
            memory_budget_bytes=memory_budget_bytes,
            oom_config=layout.oom,
            boundaries=boundaries,
            force_route=route,
        ))
        print(f"--- {label} ---")
        print(execution_plan.explain())
        print()


if __name__ == "__main__":
    main()
