"""Multi-GPU sampling (Section V-D).

Sampling instances are independent, so C-SAW scales to multiple GPUs by
splitting the instances into as many equal groups as there are GPUs and
running each group on its own device; no inter-GPU communication is needed.
The total time is the slowest GPU's time, which is why scaling depends on
having enough instances to keep every device busy (Fig. 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.results import SampleResult
from repro.api.sampler import GraphSampler
from repro.algorithms.random_walk import _walk_job
from repro.gpusim.device import Device, DeviceSpec, V100_SPEC, make_device
from repro.graph.csr import CSRGraph

__all__ = ["MultiGPUResult", "run_multi_gpu_sampling", "run_multi_gpu_walks"]


@dataclass
class MultiGPUResult:
    """Per-GPU results plus aggregate throughput.

    With fewer instances than GPUs the surplus devices receive no work and
    are skipped entirely: ``per_gpu`` / ``devices`` hold only the devices
    that ran (their ``device_id`` keeps the original GPU index, so
    heterogeneous ``device_specs`` stay aligned), and ``requested_gpus``
    records how many were asked for.
    """

    per_gpu: List[SampleResult]
    devices: List[Device]
    #: GPUs the job requested (>= ``num_gpus`` when groups were empty).
    requested_gpus: int = 0

    def __post_init__(self) -> None:
        if self.requested_gpus < len(self.per_gpu):
            self.requested_gpus = len(self.per_gpu)

    @property
    def num_gpus(self) -> int:
        """Number of simulated GPUs that actually ran instances."""
        return len(self.per_gpu)

    def instances_per_gpu(self) -> List[int]:
        """Instance count of each GPU that ran, aligned with ``devices``."""
        return [r.num_instances for r in self.per_gpu]

    @property
    def total_sampled_edges(self) -> int:
        """Total sampled edges across all GPUs."""
        return int(sum(r.total_sampled_edges for r in self.per_gpu))

    def makespan(self, spec: Optional[DeviceSpec] = None) -> float:
        """Completion time: the slowest GPU's kernel time."""
        spec = spec or V100_SPEC
        return max((r.kernel_time(spec) for r in self.per_gpu), default=0.0)

    def seps(self, spec: Optional[DeviceSpec] = None) -> float:
        """Aggregate sampled edges per second across the GPUs."""
        time = self.makespan(spec)
        return self.total_sampled_edges / time if time > 0 else 0.0

    def speedup_over(self, single_gpu: "MultiGPUResult", spec: Optional[DeviceSpec] = None) -> float:
        """Speedup of this run relative to a single-GPU run of the same job."""
        ours = self.makespan(spec)
        theirs = single_gpu.makespan(spec)
        return theirs / ours if ours > 0 else 0.0


def run_multi_gpu_sampling(
    graph: CSRGraph,
    program: SamplingProgram,
    config: SamplingConfig,
    seeds: Union[Sequence[int], np.ndarray],
    *,
    num_instances: int,
    num_gpus: int,
    device_specs: Optional[Sequence[DeviceSpec]] = None,
) -> MultiGPUResult:
    """Run a traversal-sampling job divided across ``num_gpus`` simulated GPUs."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_instances < 1:
        raise ValueError("num_instances must be >= 1")
    if device_specs is not None and len(device_specs) < num_gpus:
        raise ValueError("device_specs must cover every requested GPU")
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    if seeds.size == 0:
        raise ValueError("at least one seed is required")
    # Seeds reused round-robin up to num_instances, then one group per GPU
    # (the trailing groups are empty when num_instances < num_gpus).
    groups = np.array_split(np.resize(seeds, num_instances), num_gpus)
    results: List[SampleResult] = []
    devices: List[Device] = []
    for gpu_index, group in enumerate(groups):
        if group.size == 0:  # more GPUs than instances: skip the idle device
            continue
        spec = device_specs[gpu_index] if device_specs else None
        device = Device(spec, device_id=gpu_index) if spec else make_device("gpu", device_id=gpu_index)
        sampler = GraphSampler(graph, program, config.replace(seed=config.seed + gpu_index), device)
        results.append(sampler.run(group.tolist()))
        devices.append(device)
    return MultiGPUResult(per_gpu=results, devices=devices, requested_gpus=num_gpus)


def run_multi_gpu_walks(
    graph: CSRGraph,
    seeds: Union[Sequence[int], np.ndarray],
    *,
    num_walkers: int,
    walk_length: int,
    num_gpus: int,
    biased: bool = False,
    seed: int = 0,
) -> MultiGPUResult:
    """:func:`run_multi_gpu_sampling` on the job ``run_random_walks`` runs."""
    program, config = _walk_job(graph, walk_length, biased, seed)
    return run_multi_gpu_sampling(graph, program, config, seeds,
                                  num_instances=num_walkers, num_gpus=num_gpus)
