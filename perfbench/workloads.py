"""The three workloads: serving set-up, warm-up, timed reads, releases.

Each workload drives one public serving entry point from this process
in a closed loop and checks every answer against the oracle:

* ``search-mmap`` — 2 clients, a supervised 2-worker fork
  ``QueryService`` whose workers attach the published ``.mdws`` file;
  20 releases are timed after the reads;
* ``lineage-gateway`` — 1 client, a 2-shard supervised fork
  ``ShardedQueryService`` with 1 worker per shard; 20 releases (apply,
  then ``rebalance``) are timed after the reads;
* ``release-mix`` — 1 reader, a 2-worker thread ``QueryService`` over the
  in-memory model with its OWLPRIME index; 20 releases through
  ``service.snapshots.write`` land between the reads.

``run`` returns every end-to-end metric of the workload.
"""

from __future__ import annotations

import functools
import gc
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.warehouse import MetadataWarehouse
from repro.etl.pipeline import EtlOrchestrator
from repro.server import QueryService, ServiceConfig
from repro.server.sharding import ShardedConfig, ShardedQueryService

from perfbench import streams
from perfbench.measure import LoopResult, closed_loop, median
from perfbench.oracle import Checker, expected_answers

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: timed releases per run, so that their p50 has 10 samples beyond it
RELEASES = 20
#: distinct ops replayed untimed before timing, to fill every cache
WARM_OPS = 60
#: measured and printed, but not in the result line's metrics: on
#: identical code their spread over ten seeds exceeded the 0.25 bound
#: (README.md, "Steadiness"), so they cannot gate a change
UNGATED = ("heavy_p50_ms", "light_p50_ms", "light_p90_ms", "release_p50_ms")


class Workload:
    """One workload's inputs, oracle, serving configuration and releases.

    Releases alternate between two fixed states ``a`` and ``b``
    (``streams.release_states``); the first timed release goes from ``a``
    to ``b``.
    """

    name = ""
    clients = 1
    #: median reads per second measured at medium scale on 2 vCPUs; a
    #: run replays ``ops_per_s * seconds`` reads, a fixed count for a
    #: given ``--seconds`` that takes about ``--seconds`` to read
    ops_per_s = 1.0
    stream: Callable = None

    def __init__(self, scale: str, seed: int, n_ops: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.scape = streams.generate(scale)
        self.warehouse = self.scape.warehouse
        self.ops = type(self).stream(self.scape, seed, n_ops)
        #: every set-up's first answer, and every op the oracle answers
        self.probe = streams.setup_probe(self.scape)
        self.oracle_ops = [self.probe, *self.ops]
        self.n_releases = RELEASES
        self.releases: List[float] = []
        #: (start, end) of each timed release call, before its probe
        self.release_log: List[Tuple[float, float]] = []
        #: (seconds, triples added + removed) of every release applied
        self.applied: List[Tuple[float, int]] = []
        #: set-up and release probes that did not see the expected answer
        self.probe_failures: List[Tuple] = []

    @functools.cached_property
    def states(self) -> Tuple:
        """The release states ``(a, b)``, built on first use: after the
        reads where releases follow them."""
        return streams.release_states(
            self.warehouse.graph, self.seed, self.probe.payload["name"], self.scape.classes.values()
        )

    # -- to be provided per workload -----------------------------------------

    def start(self, index: int):
        """Bring serving up (timed as set-up); returns the handle."""
        raise NotImplementedError

    def release(self, handle, state) -> None:
        """Converge the served model to ``state`` by the configuration's
        own release path."""
        raise NotImplementedError

    def measure(self, handle) -> LoopResult:
        """Warm up, then the timed reads, then the timed releases; returns
        the reads."""
        self.warm(handle)
        loop = self.replay(handle, self.ops)
        self.releases_after_reads(handle)
        return loop

    def execute(self, handle, op):
        return handle.execute(op.kind, **op.payload)

    def worker_pids(self, handle) -> List[int]:
        return handle.worker_pids()

    # -- shared flow ----------------------------------------------------------

    def run(self) -> Dict[str, object]:
        handle, setups = self.setup()
        try:
            loop = self.measure(handle)
        finally:
            handle.close()
        return self.report(loop, setups)

    def setup(self, count: int = SETUPS) -> tuple:
        """``count`` timed set-ups to a first verified answer; the last
        one keeps serving. Returns ``(handle, seconds per set-up)``."""
        times, handle = [], None
        for index in range(count):
            if handle is not None:
                handle.close()
            self.before_start()
            gc.collect()
            start = time.perf_counter()
            handle = self.start(index)
            answer = self.execute(handle, self.probe)
            times.append(time.perf_counter() - start)
            if not self.checker.check(self.probe, answer):
                self.probe_failures.append(("setup", index, answer))
        return handle, times

    def before_start(self) -> None:
        """Hook: untimed preparation of the next set-up."""

    def warm_ops(self) -> list:
        seen, out = set(), []
        for op in self.ops:
            if op.key not in seen:
                seen.add(op.key)
                out.append(op)
        return out[:WARM_OPS]

    def warm(self, handle) -> None:
        """Replay distinct ops untimed so caches and lazy set-up are done."""
        closed_loop(
            lambda op: self.execute(handle, op), self.warm_ops(), self.clients, self.checker.check
        )

    def replay(self, handle, ops) -> LoopResult:
        """The timed reads alone."""
        gc.collect()
        return closed_loop(lambda op: self.execute(handle, op), ops, self.clients, self.checker.check)

    def replay_with_releases(self, handle, ops) -> LoopResult:
        """The timed reads with ``n_releases`` releases between them, one
        after each equal share of the reads (b, a, b, ...).

        Releases run between reads, not beside them: with a writer thread
        beside a reader, sub-millisecond reads either did or did not wait
        for the interpreter lock, and their percentiles jumped between
        those two modes from run to run. The loop's seconds exclude the
        releases, so ``ops_per_s`` counts reads per second of reading.
        """
        every = max(1, len(ops) // (self.n_releases + 1))
        between = [0.0]

        def after_op(done: int) -> None:
            if done % every == 0 and done // every <= self.n_releases:
                paused = time.perf_counter()
                self.timed_release(handle, to_a=done // every % 2 == 0)
                between[0] += time.perf_counter() - paused

        gc.collect()
        loop = closed_loop(
            lambda op: self.execute(handle, op), ops, self.clients, self.checker.check, after_op
        )
        loop.seconds -= between[0]
        if self.n_releases % 2:  # back to a, where the next replay starts
            self.release(handle, self.states[0])
        return loop

    def releases_after_reads(self, handle) -> None:
        """An untimed release from the generated landscape to ``a``, then
        ``n_releases`` timed ones (b, a, b, ...).

        After the reads, not between them: each release replaces the
        fork workers or shards, whose first reads then run cold.
        """
        self.release(handle, self.states[0])
        for i in range(self.n_releases):
            self.timed_release(handle, to_a=i % 2 == 1)

    def timed_release(self, handle, to_a: bool) -> None:
        """One release, timed until a reader's lookup sees the new state.

        It starts after a full collection: otherwise about every third
        release also paid ~150 ms for the garbage of the work before it,
        and the median moved with where those collections fell.
        """
        gc.collect()
        start = time.perf_counter()
        self.release(handle, self.states[0 if to_a else 1])
        released = time.perf_counter()
        found = self.execute(handle, streams.RELEASE_PROBE)
        self.releases.append(time.perf_counter() - start)
        self.release_log.append((start, released))
        if found != ([streams.RELEASE_PROBE_ITEM] if to_a else []):
            self.probe_failures.append(("release", len(self.releases), to_a, found))

    def apply(self, warehouse, state):
        """Apply a release state to ``warehouse`` incrementally."""
        start = time.perf_counter()
        result = EtlOrchestrator(warehouse, validate=False).apply_release(
            desired=state, mode="incremental"
        )
        self.applied.append((time.perf_counter() - start, result.added + result.removed))
        return result

    def report(self, loop: LoopResult, setups: List[float]) -> Dict[str, object]:
        metrics = {
            "ops_per_s": (loop.completed / loop.seconds, "ops/s"),
            "heavy_p50_ms": (loop.p("heavy", 50), "ms"),
            "heavy_p90_ms": (loop.p("heavy", 90), "ms"),
            "light_p50_ms": (loop.p("light", 50), "ms"),
            "light_p90_ms": (loop.p("light", 90), "ms"),
            "release_p50_ms": (median(self.releases) * 1e3, "ms"),
            "setup_s": (median(setups), "s"),
            "success_ratio": (loop.completed / loop.attempted, "ratio"),
        }
        return {
            "correct": not self.checker.mismatches and not self.probe_failures,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: v for k, v in metrics.items() if k not in UNGATED},
            "ungated": {k: v for k, v in metrics.items() if k in UNGATED},
            "mismatches": [*self.checker.mismatches, *self.probe_failures],
        }

    # -- oracles --------------------------------------------------------------

    def warehouse_in(self, state, with_index: bool = False):
        """A fresh landscape converged to ``state``."""
        warehouse = streams.generate(self.scale).warehouse
        if with_index:
            warehouse.build_entailment_index()
        self.apply(warehouse, state)
        return warehouse

    def mapped_answers(self, warehouse, name: str):
        """Direct answers over ``warehouse`` saved as a snapshot file and
        attached in this process, as fork workers and shards read it.

        The storage engines disagree on a few lineage edges (see
        ``storage.memory_mismatches`` in the traced run), so in-memory
        answers would indict the serving stack for a storage difference.
        """
        path = self.workdir / f"oracle-{name}.mdws"
        warehouse.save_snapshot(path)
        return expected_answers(MetadataWarehouse.attach_snapshot(path), self.oracle_ops)


class SearchMmap(Workload):
    name = "search-mmap"
    clients = 2
    # 52.5 ops/s: median of 10 seeds of 1000 reads; two later sets of 10
    # seeds read 58.4 and 50.7
    ops_per_s = 52.0
    stream = staticmethod(streams.search_stream)

    def __init__(self, *args):
        super().__init__(*args)
        # reads run on the generated landscape; releases come after them
        self.checker = Checker(self.mapped_answers(self.warehouse, "base"))

    def start(self, index: int):
        return QueryService(
            self.warehouse,
            ServiceConfig(
                max_workers=2,
                worker_mode="fork",
                supervise=True,
                snapshot_dir=str(self.workdir / f"search-{index}"),
                name=f"bench-search-{index}",
            ),
        )

    def release(self, service, state) -> None:
        # republishes the snapshot file; stale workers re-attach it
        service.snapshots.write(self.apply, state)


class LineageGateway(Workload):
    name = "lineage-gateway"
    clients = 1
    # 433 ops/s: median of 5 seeds of 8000 reads (496, 448, 433, 404, 390);
    # two later sets of 10 seeds read 402 and 373
    ops_per_s = 430.0
    stream = staticmethod(streams.lineage_stream)

    def __init__(self, *args):
        super().__init__(*args)
        self.checker = Checker(self.mapped_answers(self.warehouse, "base"))

    def start(self, index: int):
        return ShardedQueryService(
            self.warehouse,
            ShardedConfig(
                n_shards=2,
                workers_per_shard=1,
                worker_mode="fork",
                supervise=True,
                snapshot_dir=str(self.workdir / f"shards-{index}"),
                name=f"bench-gateway-{index}",
            ),
        )

    def release(self, gateway, state) -> None:
        self.apply(self.warehouse, state)
        gateway.rebalance(self.warehouse.store)


class ReleaseMix(Workload):
    name = "release-mix"
    clients = 1
    # 268 ops/s: median of 10 seeds of 1600 reads (221 to 288); two later
    # sets of 10 seeds read 238 and 233
    ops_per_s = 260.0
    stream = staticmethod(streams.release_mix_stream)

    def __init__(self, *args):
        super().__init__(*args)
        # serving starts in state a; the oracle of each state comes from
        # its own warehouse with its index
        self.state_warehouses = [self.warehouse_in(s, with_index=True) for s in self.states]
        self.expected = [expected_answers(w, self.oracle_ops) for w in self.state_warehouses]
        self.checker = Checker(*self.expected)

    def before_start(self) -> None:
        # set-up includes the index build, so every set-up starts from a
        # fresh landscape in state a (prepared here, outside the timing)
        self._fresh = self.warehouse_in(self.states[0])

    def start(self, index: int):
        self._fresh.build_entailment_index()
        return QueryService(
            self._fresh,
            ServiceConfig(max_workers=2, worker_mode="thread", name=f"bench-release-{index}"),
        )

    def release(self, service, state) -> None:
        service.snapshots.write(self.apply, state)

    def measure(self, service) -> LoopResult:
        self.warm(service)
        return self.replay_with_releases(service, self.ops)


WORKLOADS = {cls.name: cls for cls in (SearchMmap, LineageGateway, ReleaseMix)}


def run(name: str, scale: str, seed: int, seconds: float, workdir: Path) -> Dict[str, object]:
    workload = WORKLOADS[name]
    try:
        return workload(scale, seed, max(40, int(workload.ops_per_s * seconds)), workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
