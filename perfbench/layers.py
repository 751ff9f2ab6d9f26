"""The traced run: per-layer metrics from a ladder of entry points.

With a tracer installed, seeded samples of the three streams go through
each layer's public functions directly and through a ladder of serving
entry points (direct call → thread service → fork service → supervised
fork service → 2-shard gateway). A layer's cost is read from the
difference of adjacent rungs, from timing calls into the layer, or
from spans the program already emits (``index.refresh``, ``frontier``).
A release-mix sample with releases between its reads gives the
``etl``, ``reasoning``, ``server.snapshot`` and plan-cache numbers.
The workload named on the command line is then replayed on a sample,
untraced and traced, for its process accounting and the tracing
overhead. Every answer is still checked against the oracle.

Per-layer numbers come only from here; end-to-end metrics come only
from untraced runs (``workloads.py``).
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.warehouse import MetadataWarehouse
from repro.obs.trace import Tracer, install_tracer, span, trace_scope, uninstall_tracer
from repro.server import QueryService, ServiceConfig
from repro.server.service import dispatch
from repro.server.sharding import ShardedConfig, ShardedQueryService

from perfbench import streams, workloads
from perfbench.measure import CpuMeter, median, pss_mb
from perfbench.oracle import canonical, expected_answers

#: sample sizes of the direct probes and the serving ladder
SEARCH_SAMPLE = 24
LINEAGE_SAMPLE = 60
RELEASE_SAMPLE = 40
LADDER_PASSES = 3
SNAPSHOT_REPEATS = 3
#: seconds of the workload's own stream replayed untraced, then traced
REPLAY_SECONDS = 5.0
#: releases between the reads of the traced release-mix replay
TRACED_RELEASES = 6


class Tally:
    """Answers checked in the traced run, for the result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: List[Tuple] = []

    def add(self, ok: bool, key) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.wrong) < 5:
                self.wrong.append(key)

    def add_loop(self, loop) -> None:
        self.attempted += loop.attempted
        self.failed += loop.failed


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _p50_ms(seconds: Sequence[float]) -> float:
    return median(seconds) * 1e3


# -- direct layer probes ---------------------------------------------------------


def search_and_hierarchy(mdw, ops, metrics, tally, expected) -> List[float]:
    """``services.search`` and ``core.hierarchy`` timed by direct calls."""
    hierarchy = mdw.hierarchy
    search_s, hierarchy_s, hits, sizes = [], [], [], []
    for op in ops:
        dispatch(mdw, op.kind, op.payload)  # warm the caches it fills
        with span("bench.search", "perfbench"):
            seconds, answer = _timed(dispatch, mdw, op.kind, op.payload)
        tally.add(canonical(answer) == expected[op.key], op.key)
        search_s.append(seconds)
        hits.append(len(answer.hits))
        sizes.append(len(pickle.dumps(answer)))
        # the two classes_of calls search makes per matching instance
        with span("bench.hierarchy", "perfbench"):
            start = time.perf_counter()
            for hit in answer.hits:
                hierarchy.classes_of(hit.instance, direct=True)
                hierarchy.classes_of(hit.instance)
            hierarchy_s.append(time.perf_counter() - start)
    metrics["services.search.direct_ms"] = (_p50_ms(search_s), "ms")
    metrics["services.search.hits_per_op"] = (sum(hits) / len(hits), "hits")
    metrics["core.hierarchy.classes_of_ms_per_op"] = (_p50_ms(hierarchy_s), "ms")
    metrics["server.response_bytes.search"] = (sum(sizes) / len(sizes), "bytes")
    return search_s


def lineage(mdw, ops, metrics, tally, expected) -> List[float]:
    """``services.lineage`` timed by direct calls."""
    lineage_s, edges, sizes = [], [], []
    for op in ops:
        with span("bench.lineage", "perfbench"):
            seconds, answer = _timed(dispatch, mdw, op.kind, op.payload)
        tally.add(canonical(answer) == expected[op.key], op.key)
        lineage_s.append(seconds)
        edges.append(len(answer.edges))
        sizes.append(len(pickle.dumps(answer)))
    metrics["services.lineage.direct_ms"] = (_p50_ms(lineage_s), "ms")
    metrics["services.lineage.edges_per_op"] = (sum(edges) / len(edges), "edges")
    metrics["server.response_bytes.lineage"] = (sum(sizes) / len(sizes), "bytes")
    return lineage_s


def storage(mdw, scape, search_ops, lineage_ops, search_s, metrics, workdir, tally, expected):
    """``storage``: snapshot write and attach, and the same search and
    lineage calls answered from the mapped file.

    ``storage.memory_mismatches`` counts answers on which the mapped
    engine and the in-memory engine disagree, over every lineage start
    of both directions and the search sample; it is a count of a known
    disagreement, not a timing.
    """
    path = workdir / "layers.mdws"
    write_s, attach_s = [], []
    for _ in range(SNAPSHOT_REPEATS):
        with span("bench.snapshot_write", "perfbench"):
            write_s.append(_timed(mdw.save_snapshot, path)[0])
    for _ in range(SNAPSHOT_REPEATS):
        with span("bench.attach", "perfbench"):
            seconds, mapped = _timed(MetadataWarehouse.attach_snapshot, path)
        attach_s.append(seconds)
    mapped_expected = expected_answers(mapped, [*search_ops, *lineage_ops])
    mapped_search, mapped_lineage = [], []
    for ops, out in ((search_ops, mapped_search), (lineage_ops, mapped_lineage)):
        for op in ops:
            with span("bench.mapped", "perfbench", kind=op.kind):
                seconds, answer = _timed(dispatch, mapped, op.kind, op.payload)
            tally.add(canonical(answer) == mapped_expected[op.key], op.key)
            out.append(seconds)
    starts = [
        streams.Op("lineage", {"item": item, "direction": direction}, "", (direction, item))
        for direction, items in (("upstream", scape.report_attributes), ("downstream", scape.staging_columns))
        for item in items
    ]
    disagreements = sum(
        canonical(dispatch(mdw, op.kind, op.payload)) != canonical(dispatch(mapped, op.kind, op.payload))
        for op in [*starts, *search_ops]
    )
    metrics["storage.snapshot_write_ms"] = (_p50_ms(write_s), "ms")
    metrics["storage.attach_ms"] = (_p50_ms(attach_s), "ms")
    metrics["storage.bytes_per_triple"] = (path.stat().st_size / len(mdw.graph), "bytes")
    metrics["storage.mapped_search_ms"] = (_p50_ms(mapped_search), "ms")
    metrics["storage.mapped_lineage_ms"] = (_p50_ms(mapped_lineage), "ms")
    metrics["storage.mapped_over_memory"] = (median(mapped_search) / median(search_s), "ratio")
    metrics["storage.memory_mismatches"] = (float(disagreements), "count")
    return mapped_expected


def sparql_and_oracle(mdw, ops, metrics, tally, expected, tracer) -> None:
    """``sparql`` and ``oracle`` (SEM_MATCH SQL) timed by direct calls.

    ``sparql.prepare_ms`` is a query's time outside the evaluator's
    ``plan`` span (parse, plan-cache lookup and preparation); the span
    is the program's own, read from a tracer scoped to these calls.
    """
    sparql_ops = [op for op in ops if op.kind == "query"]
    sql_ops = [op for op in ops if op.kind == "sql"]
    sizes: Dict[str, List[int]] = {"query": [], "sql": []}

    def timed_direct(op) -> float:
        seconds, answer = _timed(dispatch, mdw, op.kind, op.payload)
        tally.add(canonical(answer) == expected[op.key], op.key)
        sizes[op.kind].append(len(pickle.dumps(answer)))
        return seconds

    with trace_scope(Tracer(capacity=1_000_000)) as scoped:
        with span("bench.sparql", "perfbench"):
            sparql_s = [timed_direct(op) for op in sparql_ops]
    spans = scoped.spans()
    tracer.adopt(spans)
    with span("bench.sql", "perfbench"):
        sql_s = [timed_direct(op) for op in sql_ops]
    evaluated = sum(s.duration for s in spans if s.name == "plan" and s.category == "sparql")
    metrics["sparql.direct_ms"] = (_p50_ms(sparql_s), "ms")
    metrics["sparql.prepare_ms"] = (max(sum(sparql_s) - evaluated, 0.0) / len(sparql_s) * 1e3, "ms")
    metrics["oracle.sql_direct_ms"] = (_p50_ms(sql_s), "ms")
    metrics["server.response_bytes.sparql"] = (sum(sizes["query"]) / len(sizes["query"]), "bytes")
    metrics["server.response_bytes.sql"] = (sum(sizes["sql"]) / len(sizes["sql"]), "bytes")


# -- the serving ladder -----------------------------------------------------------


def _serial(execute, ops, expected, tally) -> List[float]:
    """One client, ``LADDER_PASSES`` passes over ``ops`` after a warm pass."""
    for op in ops:
        execute(op)
    out = []
    for _ in range(LADDER_PASSES):
        for op in ops:
            seconds, answer = _timed(execute, op)
            tally.add(canonical(answer) == expected[op.key], op.key)
            out.append(seconds)
    return out


def ladder(mdw, ops, direct_s, metrics, workdir, tally, expected, mapped_expected, tracer) -> None:
    """``server`` and ``server.sharding`` from the lineage sample served
    by each rung; fork rungs attach the published snapshot, as served."""

    def via(service):
        return lambda op: service.execute(op.kind, **op.payload)

    rungs: Dict[str, float] = {"direct": median(direct_s)}
    configs = {
        "thread": (ServiceConfig(max_workers=1, name="ladder-thread"), expected),
        "fork": (
            ServiceConfig(max_workers=1, worker_mode="fork", snapshot_dir=str(workdir / "fork"), name="ladder-fork"),
            mapped_expected,
        ),
        "supervised": (
            ServiceConfig(
                max_workers=1, worker_mode="fork", supervise=True,
                snapshot_dir=str(workdir / "supervised"), name="ladder-supervised",
            ),
            mapped_expected,
        ),
    }
    for rung, (config, answers) in configs.items():
        with QueryService(mdw, config) as service:
            with span("bench.rung", "perfbench", rung=rung):
                rungs[rung] = median(_serial(via(service), ops, answers, tally))
    gateway_config = ShardedConfig(
        n_shards=2, workers_per_shard=1, worker_mode="fork", supervise=True,
        snapshot_dir=str(workdir / "gateway"), name="ladder-gateway",
    )
    with ShardedQueryService(mdw, gateway_config) as gateway:
        before = _shard_completed(gateway)
        marker = len(tracer.spans())
        with span("bench.rung", "perfbench", rung="gateway"):
            rungs["gateway"] = median(_serial(via(gateway), ops, mapped_expected, tally))
        subrequests = _shard_completed(gateway) - before
    rounds = sum(
        1 for s in tracer.spans()[marker:] if s.name == "frontier" and s.category == "gateway"
    )
    sent = len(ops) * (LADDER_PASSES + 1)
    metrics["server.thread_hop_ms"] = ((rungs["thread"] - rungs["direct"]) * 1e3, "ms")
    metrics["server.fork_ipc_ms"] = ((rungs["fork"] - rungs["thread"]) * 1e3, "ms")
    metrics["server.supervision_ms"] = ((rungs["supervised"] - rungs["fork"]) * 1e3, "ms")
    metrics["server.sharding.gateway_ms"] = ((rungs["gateway"] - rungs["supervised"]) * 1e3, "ms")
    metrics["server.sharding.rounds_per_op"] = (rounds / sent, "rounds")
    metrics["server.sharding.subrequests_per_op"] = (subrequests / sent, "requests")


def _shard_completed(gateway) -> int:
    snapshot = gateway.metrics_snapshot()
    return sum(shard["completed"] for shard in snapshot["shards"].values())


# -- releases between reads --------------------------------------------------------


def releases(mix, service, metrics, tally, tracer) -> None:
    """``etl``, ``reasoning``, ``server.snapshot`` and the plan cache,
    from a traced release-mix replay with releases between its reads."""
    cache = service.plan_cache
    before = cache.stats()
    marker = len(tracer.spans())
    loop = mix.replay_with_releases(service, mix.ops)
    tally.add_loop(loop)
    after = cache.stats()
    log = mix.release_log[-mix.n_releases:]
    applied = mix.applied[-mix.n_releases:]
    refresh = sum(
        s.duration for s in tracer.spans()[marker:] if s.name == "index.refresh" and s.category == "reasoning"
    )
    # the first light read after each release meets the new generation
    # cold; the other light reads do not
    light = [(start, end) for slot, start, end in loop.intervals if slot == "light"]
    first = set()
    for _, released in log:
        later = [i for i, (start, _) in enumerate(light) if start >= released]
        if later:
            first.add(later[0])
    stalled = [end - start for i, (start, end) in enumerate(light) if i in first]
    clear = [end - start for i, (start, end) in enumerate(light) if i not in first]
    lookups = sum(after[k] - before[k] for k in ("plan_hits", "plan_misses", "replans"))
    metrics["etl.release_apply_ms"] = (median([a for a, _ in applied]) * 1e3, "ms")
    metrics["etl.delta_triples"] = (median([d for _, d in applied]), "triples")
    metrics["reasoning.dred_ms"] = (refresh / len(log) * 1e3, "ms")
    metrics["server.snapshot.publish_ms"] = (
        median([(end - start) - a for (start, end), (a, _) in zip(log, applied)]) * 1e3,
        "ms",
    )
    metrics["server.snapshot.read_stall_ms"] = (
        (median(stalled) - median(clear)) * 1e3 if stalled and clear else 0.0,
        "ms",
    )
    metrics["sparql.plan_cache_hit_rate"] = ((after["plan_hits"] - before["plan_hits"]) / max(lookups, 1), "ratio")
    metrics["sparql.replans"] = (float(after["replans"] - before["replans"]), "count")


# -- the workload's own stream ------------------------------------------------------


def overhead(workload, metrics, tally, tracer) -> None:
    """Process accounting and tracing overhead on the workload's stream:
    the same ops untraced (tracer uninstalled), then traced."""
    handle, _ = workload.setup(count=1)
    try:
        workload.warm(handle)
        uninstall_tracer()
        meter = CpuMeter(lambda: workload.worker_pids(handle))
        untraced = workload.replay(handle, workload.ops)
        cpu = meter.stop()
        install_tracer(tracer)
        traced = workload.replay(handle, workload.ops)
        workers = workload.worker_pids(handle)
        worker_pss = pss_mb(workers)
        gc.collect()
        pss = pss_mb([os.getpid(), *workers])
    finally:
        install_tracer(tracer)
        handle.close()
    tally.add_loop(untraced)
    tally.add_loop(traced)
    untraced_rate = untraced.completed / untraced.seconds
    traced_rate = traced.completed / traced.seconds
    metrics["process.cpu_ms_per_op"] = (cpu / untraced.attempted * 1e3, "ms")
    metrics["process.worker_pss_mb"] = (worker_pss, "MB")
    metrics["process.pss_mb"] = (pss, "MB")
    metrics["obs.trace_overhead_pct"] = ((untraced_rate - traced_rate) / untraced_rate * 100.0, "%")


def run(name: str, scale: str, seed: int, seconds: float, workdir: Path, trace_path: Path) -> Dict[str, object]:
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(capacity=2_000_000)
    metrics: Dict[str, Tuple[float, str]] = {}
    tally = Tally()
    install_tracer(tracer)
    try:
        scape = streams.generate(scale)
        mdw = scape.warehouse
        search_ops = streams.search_stream(scape, seed, SEARCH_SAMPLE)
        lineage_ops = streams.lineage_stream(scape, seed, LINEAGE_SAMPLE)
        expected = expected_answers(mdw, [*search_ops, *lineage_ops])
        search_s = search_and_hierarchy(mdw, search_ops, metrics, tally, expected)
        lineage_s = lineage(mdw, lineage_ops, metrics, tally, expected)
        mapped_expected = storage(
            mdw, scape, search_ops, lineage_ops, search_s, metrics, workdir, tally, expected
        )
        ladder(mdw, lineage_ops, lineage_s, metrics, workdir, tally, expected, mapped_expected, tracer)

        n_ops = max(40, int(workloads.WORKLOADS[name].ops_per_s * min(seconds, REPLAY_SECONDS)))
        mix_ops = max(RELEASE_SAMPLE, n_ops if name == "release-mix" else 0)
        mix = workloads.ReleaseMix(scale, seed, mix_ops, workdir)
        mix.n_releases = TRACED_RELEASES
        sparql_and_oracle(mix.state_warehouses[0], mix.warm_ops(), metrics, tally, mix.expected[0], tracer)
        handle, _ = mix.setup(count=1)
        try:
            mix.warm(handle)
            releases(mix, handle, metrics, tally, tracer)
        finally:
            handle.close()
        workload = mix if name == "release-mix" else workloads.WORKLOADS[name](scale, seed, n_ops, workdir)
        overhead(workload, metrics, tally, tracer)
        used = [mix] if workload is mix else [mix, workload]
        tally.failed += sum(len(w.probe_failures) for w in used)
    finally:
        uninstall_tracer()
        trace_path.write_text(json.dumps(tracer.to_chrome()))
        shutil.rmtree(workdir, ignore_errors=True)
    # warm-up answers are checked too, though no tally counts them
    checker_wrong = [key for w in used for key in (*w.checker.mismatches, *w.probe_failures)]
    return {
        "correct": tally.failed == 0 and not checker_wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": dict(sorted(metrics.items())),
        "mismatches": [*tally.wrong, *checker_wrong],
    }
