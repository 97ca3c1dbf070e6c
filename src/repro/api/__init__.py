"""C-SAW core: the bias-centric sampling framework (Sections III and IV).

The public surface mirrors the paper's API (Fig. 2):

* :class:`~repro.api.bias.SamplingProgram` -- the user-facing triple of
  ``vertex_bias`` / ``edge_bias`` / ``update`` functions (vectorised over
  candidate pools) plus pool-policy knobs, corresponding to the paper's
  ``VERTEXBIAS`` / ``EDGEBIAS`` / ``UPDATE``.
* :class:`~repro.api.config.SamplingConfig` -- the parameter-based options
  (``FrontierSize``, ``NeighborSize``, ``Depth``, collision strategy,
  collision detector, replacement, per-vertex vs per-layer selection scope).
* :class:`~repro.api.sampler.GraphSampler` -- the MAIN loop of Fig. 2(b),
  executing on the simulated GPU with warp-centric SELECT.
* :class:`~repro.api.results.SampleResult` -- per-instance sampled edges plus
  the cost/kernel records the metrics and benchmarks consume.
* :class:`~repro.api.frontier.FrontierQueue` -- the (VertexID, InstanceID,
  CurrDepth) queue structure shared with the out-of-memory engine.
"""

from repro.api.bias import (
    SamplingProgram,
    UniformProgram,
    EdgePool,
    SegmentedEdgePool,
    FrontierPoolView,
)
from repro.api.config import SamplingConfig, SelectionScope, PoolPolicy
from repro.api.frontier import FrontierQueue, FrontierEntry
from repro.api.instance import InstanceBatch, InstanceState, make_instances
from repro.api.requests import SampleRequest, SampleResponse
from repro.api.results import SampleColumns, SampleResult, InstanceSample
from repro.api.sampler import GraphSampler, sample_graph
from repro.api.select import warp_select, gather_neighbors

__all__ = [
    "SamplingProgram",
    "UniformProgram",
    "EdgePool",
    "SegmentedEdgePool",
    "FrontierPoolView",
    "SamplingConfig",
    "SelectionScope",
    "PoolPolicy",
    "FrontierQueue",
    "FrontierEntry",
    "InstanceBatch",
    "InstanceState",
    "make_instances",
    "SampleRequest",
    "SampleResponse",
    "SampleColumns",
    "SampleResult",
    "InstanceSample",
    "GraphSampler",
    "sample_graph",
    "warp_select",
    "gather_neighbors",
]
