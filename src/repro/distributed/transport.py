"""Shard transports: in-process shard array or one OS process per shard.

Both transports drive the same :class:`~repro.distributed.shard.
ShardRuntime` through the same four verbs -- ``admit`` / ``step_all`` /
``collect`` / ``close`` -- so the coordinator is transport-agnostic and the
bit-compatibility tests can assert the two produce identical results.

* :class:`InProcessTransport` keeps the runtimes as plain objects.  This is
  the service's route (a worker serves a sharded graph without spawning
  grandchild processes) and the benchmark configuration.
* :class:`MultiprocessTransport` spawns one OS process per shard and
  publishes the graph once through the service's shared-memory store
  (:mod:`repro.service.store`): every shard process maps the same physical
  CSR copy zero-copy, exactly like service workers do.  Commands and walker
  envelopes travel over per-shard pipes; ``step_all`` is the per-depth
  barrier.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.config import SamplingConfig
from repro.distributed.router import WalkerEnvelope
from repro.distributed.shard import ShardReport, ShardRuntime
from repro.graph.csr import CSRGraph
from repro.service.store import SharedGraphHandle, SharedGraphStore, attach
from repro.telemetry import (
    drain_envelope,
    ingest_envelope,
    profiler as _profiler,
    reset_child,
)

__all__ = ["ClusterTransportError", "InProcessTransport", "MultiprocessTransport"]


class ClusterTransportError(RuntimeError):
    """A shard failed; the shard-side traceback is attached."""


class InProcessTransport:
    """All shard runtimes live in the calling process."""

    name = "in_process"

    def __init__(
        self,
        graph: CSRGraph,
        bounds: np.ndarray,
        algorithm: str,
        program_kwargs: Optional[dict],
        config: SamplingConfig,
    ):
        self.shards = [
            ShardRuntime(i, graph, bounds, algorithm, program_kwargs, config)
            for i in range(len(bounds) - 1)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def admit(self, placement: Dict[int, List[WalkerEnvelope]]) -> None:
        for dst in sorted(placement):
            self.shards[dst].admit(placement[dst])

    def step_all(
        self, depth: int
    ) -> Tuple[List[Dict[int, List[WalkerEnvelope]]], List[int]]:
        """Step every shard once; returns (outboxes, per-shard active counts)."""
        outboxes = [shard.step(depth) for shard in self.shards]
        actives = [shard.active_count() for shard in self.shards]
        return outboxes, actives

    def collect(self) -> List[ShardReport]:
        return [shard.collect() for shard in self.shards]

    def close(self) -> None:
        self.shards = []


# --------------------------------------------------------------------------- #
# Multiprocess transport
# --------------------------------------------------------------------------- #
def _shard_main(
    conn,
    shard_index: int,
    bounds: np.ndarray,
    algorithm: str,
    program_kwargs: Optional[dict],
    config: SamplingConfig,
    handle: SharedGraphHandle,
    profile: bool = False,
) -> None:
    """Shard process: map the shared graph, loop on pipe commands."""
    reset_child(profile=profile)
    mapping = None
    try:
        try:
            mapping = attach(handle)
            runtime = ShardRuntime(
                shard_index, mapping.graph, bounds, algorithm, program_kwargs, config
            )
        except Exception:
            # Fail loudly over the pipe: the coordinator's next receive gets
            # the construction traceback instead of a bare EOF.
            conn.send(("error", traceback.format_exc(limit=8)))
            return
        while True:
            command, payload = conn.recv()
            try:
                if command == "admit":
                    runtime.admit(payload)
                    conn.send(("ok", None))
                elif command == "step":
                    outbox = runtime.step(payload)
                    conn.send(("ok", (outbox, runtime.active_count())))
                elif command == "collect":
                    report = runtime.collect()
                    # The coordinator re-ingests this process's telemetry
                    # so the request's stays in one buffer.
                    report.telemetry = drain_envelope()
                    conn.send(("ok", report))
                elif command == "stop":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol misuse
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc(limit=8)))
    except (EOFError, OSError):  # pragma: no cover - coordinator went away
        pass
    finally:
        if mapping is not None:
            mapping.close()
        conn.close()


class MultiprocessTransport:
    """One OS process per shard, graph shared through :mod:`service.store`."""

    name = "multiprocess"

    def __init__(
        self,
        graph: CSRGraph,
        bounds: np.ndarray,
        algorithm: str,
        program_kwargs: Optional[dict],
        config: SamplingConfig,
        *,
        mp_context: str = "spawn",
        store: Optional[SharedGraphStore] = None,
        graph_name: str = "cluster-graph",
    ):
        # Resolve the context before touching shared memory: an unknown
        # mp_context must not leave published segments behind.
        ctx = multiprocessing.get_context(mp_context)
        self._store = store if store is not None else SharedGraphStore()
        self._owns_store = store is None
        self._graph_name = graph_name
        if graph_name in self._store.names():
            handle = self._store.handle(graph_name)
            self._owns_graph = False
            # The coordinator validated seeds and computed bounds against
            # `graph`; shards must map that same graph, not whatever else
            # was published under the name.
            if (
                handle.num_vertices != graph.num_vertices
                or handle.num_edges != graph.num_edges
            ):
                raise ValueError(
                    f"stored graph {graph_name!r} "
                    f"({handle.num_vertices} vertices, {handle.num_edges} "
                    f"edges) does not match the cluster's graph "
                    f"({graph.num_vertices} vertices, {graph.num_edges} edges)"
                )
        else:
            handle = self._store.put(graph_name, graph)
            self._owns_graph = True
        self._conns = []
        self._procs = []
        try:
            for index in range(len(bounds) - 1):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_main,
                    args=(
                        child,
                        index,
                        np.asarray(bounds, dtype=np.int64),
                        algorithm,
                        dict(program_kwargs or {}),
                        config,
                        handle,
                        _profiler.enabled(),
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except Exception:
            self.close()
            raise

    @property
    def num_shards(self) -> int:
        return len(self._procs)

    # ------------------------------------------------------------------ #
    def _send(self, shard: int, command: str, payload) -> None:
        try:
            self._conns[shard].send((command, payload))
        except (BrokenPipeError, OSError) as exc:
            # The shard died before reading; surface whatever it managed to
            # report (its init traceback) over the still-readable end --
            # _receive either raises with that traceback or with the death.
            self._receive(shard)
            raise ClusterTransportError(  # pragma: no cover - receive raised
                f"shard {shard} process died before accepting {command!r}"
            ) from exc

    def _receive(self, shard: int) -> object:
        try:
            status, payload = self._conns[shard].recv()
        except (EOFError, OSError) as exc:
            raise ClusterTransportError(
                f"shard {shard} process died (pid "
                f"{self._procs[shard].pid}, exitcode "
                f"{self._procs[shard].exitcode})"
            ) from exc
        if status != "ok":
            raise ClusterTransportError(f"shard {shard} failed:\n{payload}")
        return payload

    # ------------------------------------------------------------------ #
    def admit(self, placement: Dict[int, List[WalkerEnvelope]]) -> None:
        targets = sorted(placement)
        for dst in targets:
            self._send(dst, "admit", placement[dst])
        for dst in targets:
            self._receive(dst)

    def step_all(
        self, depth: int
    ) -> Tuple[List[Dict[int, List[WalkerEnvelope]]], List[int]]:
        """Barrier step: every shard advances one depth concurrently."""
        for shard in range(self.num_shards):
            self._send(shard, "step", depth)
        outboxes: List[Dict[int, List[WalkerEnvelope]]] = []
        actives: List[int] = []
        for shard in range(self.num_shards):
            outbox, active = self._receive(shard)
            outboxes.append(outbox)
            actives.append(active)
        return outboxes, actives

    def collect(self) -> List[ShardReport]:
        for shard in range(self.num_shards):
            self._send(shard, "collect", None)
        reports = [self._receive(shard) for shard in range(self.num_shards)]
        for report in reports:
            ingest_envelope(report.telemetry)
            report.telemetry = None
        return reports

    def close(self) -> None:
        for shard, conn in enumerate(self._conns):
            try:
                self._send(shard, "stop", None)
                self._receive(shard)
            except (ClusterTransportError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck shard
                proc.terminate()
                proc.join(timeout=1.0)
        self._conns = []
        self._procs = []
        if self._owns_store:
            self._store.close()
        elif self._owns_graph:
            self._store.release(self._graph_name)
