"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import from_edge_list
from repro.graph.delta import DeltaGraph
from repro.graph.generators import generate_dataset, powerlaw_graph, ring_graph


@pytest.fixture(scope="session")
def toy_graph():
    """The paper's Fig. 1(a) toy graph (13 vertices, undirected).

    Vertex 8's neighbors are {5, 7, 9, 10, 11}, matching the running example
    used throughout the paper's selection figures.
    """
    edges = [
        (0, 1), (0, 4), (0, 5),
        (1, 2), (1, 5),
        (2, 3), (2, 6),
        (3, 6), (3, 7),
        (4, 5), (4, 7),
        (5, 8), (5, 6),
        (6, 9), (6, 10),
        (7, 8), (7, 11), (7, 3),
        (8, 9), (8, 10), (8, 11), (8, 5), (8, 7),
        (9, 12), (10, 12), (11, 12),
    ]
    return from_edge_list(edges, num_vertices=13, symmetrize=True, dedup=True)


@pytest.fixture(scope="session")
def weighted_toy_graph(toy_graph):
    """The toy graph with deterministic pseudo-random edge weights."""
    rng = np.random.default_rng(11)
    return toy_graph.with_weights(rng.uniform(0.5, 3.0, size=toy_graph.num_edges))


@pytest.fixture(scope="session")
def small_powerlaw_graph():
    """A 500-vertex scale-free graph used by mid-size tests."""
    return powerlaw_graph(500, 8.0, exponent=2.2, seed=3)


@pytest.fixture(scope="session")
def small_weighted_graph(small_powerlaw_graph):
    """The scale-free graph with uniform random weights."""
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.1, 1.0, size=small_powerlaw_graph.num_edges)
    return small_powerlaw_graph.with_weights(weights)


@pytest.fixture(scope="session")
def ring10():
    """A 10-vertex bidirectional ring (every vertex has degree 2)."""
    return ring_graph(10)


@pytest.fixture(scope="session")
def am_dataset():
    """The Table II 'AM' stand-in graph, weighted."""
    return generate_dataset("AM", seed=1, weighted=True)


@pytest.fixture(scope="session")
def mutated_pair():
    """``(delta, fresh)``: a mutated-then-compacted ``DeltaGraph`` and a CSR
    built from scratch out of the same edges, read through the overlay
    before compaction so the two builds share no code."""
    base = powerlaw_graph(200, 5.0, exponent=2.1, seed=13)
    rng = np.random.default_rng(29)
    base = base.with_weights(rng.uniform(0.1, 2.0, size=base.num_edges))
    delta = DeltaGraph(base)
    # A representative mutation mix: inserts (some parallel), deletions,
    # new vertices and a retirement.
    for _ in range(60):
        delta.add_edge(int(rng.integers(200)), int(rng.integers(200)),
                       float(rng.uniform(0.1, 2.0)))
    removed = 0
    for v in rng.permutation(200):
        if removed >= 25:
            break
        neigh = delta.neighbors(int(v))
        if neigh.size:
            delta.remove_edge(int(v), int(neigh[removed % neigh.size]))
            removed += 1
    first_new = delta.add_vertices(3)
    delta.add_edge(first_new, 0, 1.0)
    delta.add_edge(0, first_new + 1, 0.7)
    delta.retire_vertex(150)
    rows = range(delta.num_vertices)
    fresh = from_edge_list(
        [(v, int(d)) for v in rows for d in delta.neighbors(v)],
        num_vertices=delta.num_vertices,
        weights=[float(w) for v in rows for w in delta.neighbor_weights(v)],
    )
    delta.compact()
    return delta, fresh


@pytest.fixture
def resolve_calls():
    """The argument tuples of every ``resolve_step`` call from here on: the
    resolver is wrapped in every module that imported it by name, including
    modules first imported during the test (restored on teardown too)."""
    import sys

    from repro.compiled import compiler

    resolve_step, calls = compiler.resolve_step, []

    def counted(*args, **kwargs):
        calls.append(args)
        return resolve_step(*args, **kwargs)

    def rebind(old, new):
        for module in list(sys.modules.values()):
            if vars(module).get("resolve_step") is old:
                module.resolve_step = new

    rebind(resolve_step, counted)
    yield calls
    rebind(counted, resolve_step)
