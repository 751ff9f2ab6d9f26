"""S1 — concurrent query service: throughput and tail latency vs workers.

Regression-tracked serving benchmark: a Listing 1/2 request mix (the
deterministic :func:`make_service_workload` stream) driven by client
threads against :class:`QueryService` at several worker counts, plus the
deadline-enforcement check.

Two acceptance properties:

* **no divergence** — every configuration returns bit-identical rows to
  a single-threaded direct run (checked at *every* scale, including the
  CI smoke);
* **scaling** — at ``medium``+ scale, 4 fork-mode workers deliver at
  least 2.5x the throughput of 1 worker on the same mix. Asserted only
  when the machine actually has >= 4 usable cores — process parallelism
  cannot beat the hardware, and on a single-core CI box extra workers
  are pure context-switch and copy-on-write overhead. The measured
  numbers and the core count are recorded either way. Thread-mode
  numbers are recorded too (they show the interpreter-lock ceiling) but
  not asserted against.

Results land in ``BENCH_query_service.json``. Scale via
``MDW_BENCH_SCALE`` (``small`` default / ``medium`` / ``paper``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.server import (
    DeadlineExceeded,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)
from repro.synth import (
    LandscapeConfig,
    generate_landscape,
    make_scatter_workload,
    make_service_workload,
)

SCALE = os.environ.get("MDW_BENCH_SCALE", "small").lower()
_CONFIGS = {
    "small": LandscapeConfig.small,
    "medium": LandscapeConfig.medium,
    "paper": LandscapeConfig.paper_scale,
}
_N_OPS = {"small": 60, "medium": 200, "paper": 300}
if SCALE not in _CONFIGS:
    raise ValueError(f"MDW_BENCH_SCALE must be one of {sorted(_CONFIGS)}, got {SCALE!r}")

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_query_service.json"

#: Cores this process may actually run on (affinity-aware: a 64-core box
#: with a 1-core cgroup quota must not be treated as 64).
CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)

#: Worker counts swept (1 is the serial baseline).
WORKER_COUNTS = (1, 2, 4)

#: Shard counts swept by the sharded-gateway benchmark.
SHARD_COUNTS = (1, 2, 4)

#: The adversarial deadline probe: an unconstrained cross product.
HOG_QUERY = (
    "SELECT ?a ?b ?c WHERE { ?a dm:hasName ?n1 . ?b dm:hasName ?n2 . "
    "?c dm:hasName ?n3 }"
)


@pytest.fixture(scope="module")
def warehouse():
    return generate_landscape(_CONFIGS[SCALE](seed=2009)).warehouse


@pytest.fixture(scope="module")
def workload(warehouse):
    return make_service_workload(warehouse, n_ops=_N_OPS[SCALE], seed=2009)


def _canonical_result(kind, result) -> object:
    """A comparable, order-insensitive form of any endpoint's result."""
    if kind in ("query", "sql"):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.asdict().items()))
            for row in result
        )
    if kind == "search":
        return sorted((hit.instance.n3(), hit.name) for hit in result.hits)
    if kind == "lineage":
        return sorted(
            (edge.source.n3(), edge.target.n3()) for edge in result.edges
        )
    return repr(result)


def _drive(service, ops, clients: int):
    """Replay ``ops`` from ``clients`` threads; returns (elapsed, results).

    ``results[i]`` is the canonicalized answer of ``ops[i]`` regardless
    of which client/worker executed it.
    """
    results: List[object] = [None] * len(ops)
    errors: List[BaseException] = []
    shards = [list(range(i, len(ops), clients)) for i in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(indices):
        try:
            barrier.wait(timeout=60)
            for i in indices:
                op = ops[i]
                results[i] = _canonical_result(
                    op.kind, service.execute(op.kind, **op.payload)
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(shard,), daemon=True)
        for shard in shards
        if shard
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=1200)
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return elapsed, results


def _save(section: str, payload: Dict[str, object]) -> None:
    data: Dict[str, object] = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("scale", SCALE)
    if data.get("scale") != SCALE:
        data = {"scale": SCALE}
    data[section] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _reference_results(warehouse, ops):
    """The single-threaded direct-warehouse truth for the whole mix."""
    from repro.server.service import dispatch

    return [_canonical_result(op.kind, dispatch(warehouse, op.kind, op.payload)) for op in ops]


def _sweep(warehouse, ops, mode: str, reference) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for workers in WORKER_COUNTS:
        config = ServiceConfig(
            max_workers=workers,
            max_queue=max(64, len(ops)),
            worker_mode=mode,
            name=f"bench-{mode}-{workers}",
        )
        with warehouse.serve(config) as service:
            elapsed, results = _drive(service, ops, clients=max(4, workers))
            snap = service.metrics_snapshot()
        assert results == reference, (
            f"{mode} mode with {workers} worker(s) diverged from the "
            "single-threaded reference"
        )
        per_endpoint = {
            kind: {"p50": summary["p50"], "p99": summary["p99"]}
            for kind, summary in snap["endpoints"].items()
        }
        out[str(workers)] = {
            "seconds": round(elapsed, 6),
            "throughput_rps": round(len(ops) / elapsed, 2),
            "plan_cache_hit_rate": round(snap["plan_cache_hit_rate"], 4),
            "latency": per_endpoint,
        }
    serial = out[str(WORKER_COUNTS[0])]["throughput_rps"]
    for workers in WORKER_COUNTS:
        entry = out[str(workers)]
        entry["speedup_vs_1"] = round(entry["throughput_rps"] / serial, 2)
    return out


def test_throughput_scaling_thread_mode(warehouse, workload, record):
    reference = _reference_results(warehouse, workload)
    sweep = _sweep(warehouse, workload, "thread", reference)
    _save("thread_mode", {"ops": len(workload), "workers": sweep})
    record(
        "S1a",
        f"Service throughput, thread workers ({SCALE}, {len(workload)} ops)",
        [
            (f"{workers} worker(s)", f"{sweep[str(workers)]['throughput_rps']} req/s "
             f"({sweep[str(workers)]['speedup_vs_1']}x)")
            for workers in WORKER_COUNTS
        ],
    )
    # thread mode must at least not collapse under concurrency
    assert sweep["4"]["speedup_vs_1"] >= 0.5


def test_throughput_scaling_fork_mode(warehouse, workload, record):
    reference = _reference_results(warehouse, workload)
    sweep = _sweep(warehouse, workload, "fork", reference)
    _save("fork_mode", {"ops": len(workload), "cores": CORES, "workers": sweep})
    record(
        "S1b",
        f"Service throughput, fork workers ({SCALE}, {len(workload)} ops, {CORES} core(s))",
        [
            (f"{workers} worker(s)", f"{sweep[str(workers)]['throughput_rps']} req/s "
             f"({sweep[str(workers)]['speedup_vs_1']}x)")
            for workers in WORKER_COUNTS
        ],
    )
    if SCALE != "small" and CORES >= 4:
        # the acceptance bar: real parallel evaluation
        assert sweep["4"]["speedup_vs_1"] >= 2.5, (
            f"4 fork workers only reached {sweep['4']['speedup_vs_1']}x"
        )


def test_supervision_overhead_fork_mode(warehouse, workload, record, tmp_path_factory):
    """The self-healing fleet must be invisible on the hot path: a
    supervised 4-worker fork service stays within 5% of unsupervised
    throughput on the same mix (the supervisor only ever takes a slot
    lock the owner thread is not holding, and only between requests)."""
    reference = _reference_results(warehouse, workload)
    workers = min(4, max(WORKER_COUNTS))
    runs: Dict[str, object] = {}
    for label, supervise in (("unsupervised", False), ("supervised", True)):
        config = ServiceConfig(
            max_workers=workers,
            max_queue=max(64, len(workload)),
            worker_mode="fork",
            name=f"bench-{label}",
            snapshot_dir=str(tmp_path_factory.mktemp(f"snaps-{label}")),
            supervise=supervise,
            heartbeat_interval=0.25,
        )
        with warehouse.serve(config) as service:
            elapsed, results = _drive(service, workload, clients=max(4, workers))
            snap = service.metrics_snapshot()
        assert results == reference, f"{label} run diverged from the reference"
        runs[label] = {
            "seconds": round(elapsed, 6),
            "throughput_rps": round(len(workload) / elapsed, 2),
            "worker_restarts": snap["worker_restarts"],
        }
    ratio = runs["supervised"]["throughput_rps"] / runs["unsupervised"]["throughput_rps"]
    _save(
        "supervised",
        {
            "ops": len(workload),
            "cores": CORES,
            "workers": workers,
            "runs": runs,
            "throughput_ratio": round(ratio, 4),
        },
    )
    record(
        "S1d",
        f"Supervision overhead, {workers} fork workers ({SCALE}, {len(workload)} ops)",
        [
            ("unsupervised", f"{runs['unsupervised']['throughput_rps']} req/s"),
            ("supervised", f"{runs['supervised']['throughput_rps']} req/s"),
            ("ratio", f"{ratio:.3f} (bar: >= 0.95)"),
        ],
    )
    if SCALE != "small" and CORES >= 4:
        assert ratio >= 0.95, (
            f"supervision cost {1 - ratio:.1%} of throughput (budget 5%)"
        )


@pytest.fixture(scope="module")
def scatter_workload(warehouse):
    return make_scatter_workload(warehouse, n_ops=_N_OPS[SCALE], seed=2009)


def test_throughput_scaling_sharded(warehouse, scatter_workload, record, tmp_path_factory):
    """S1e — sharded scatter-gather: throughput vs shard count.

    One supervised fork worker per shard, so added throughput comes from
    the *partitioning* (each worker scans 1/N of the fact graph), not
    from extra workers on the full graph. Bit-identity against the
    single-node services is asserted at every shard count; the >= 2.5x
    bar at 4 shards holds under the same gating as the fork-worker sweep
    (medium+ scale on a >= 4 core machine).
    """
    ops = scatter_workload
    reference = _reference_results(warehouse, ops)
    out: Dict[str, object] = {}
    for n_shards in SHARD_COUNTS:
        config = ShardedConfig(
            n_shards=n_shards,
            workers_per_shard=1,
            worker_mode="fork",
            supervise=True,
            max_queue=max(64, len(ops)),
            name=f"bench-sharded-{n_shards}",
            snapshot_dir=str(tmp_path_factory.mktemp(f"shards-{n_shards}")),
        )
        with ShardedQueryService(warehouse, config) as service:
            elapsed, results = _drive(service, ops, clients=max(4, n_shards))
            health = service.health()
        assert results == reference, (
            f"{n_shards}-shard gateway diverged from the single-node reference"
        )
        assert health["status"] in ("healthy", "recovering"), health["status"]
        out[str(n_shards)] = {
            "seconds": round(elapsed, 6),
            "throughput_rps": round(len(ops) / elapsed, 2),
        }
    serial = out[str(SHARD_COUNTS[0])]["throughput_rps"]
    for n_shards in SHARD_COUNTS:
        entry = out[str(n_shards)]
        entry["speedup_vs_1"] = round(entry["throughput_rps"] / serial, 2)
    _save(
        "sharded",
        {
            "ops": len(ops),
            "cores": CORES,
            "workers_per_shard": 1,
            "shards": out,
        },
    )
    record(
        "S1e",
        f"Sharded gateway throughput ({SCALE}, {len(ops)} ops, {CORES} core(s))",
        [
            (f"{n_shards} shard(s)", f"{out[str(n_shards)]['throughput_rps']} req/s "
             f"({out[str(n_shards)]['speedup_vs_1']}x)")
            for n_shards in SHARD_COUNTS
        ],
    )
    if SCALE != "small" and CORES >= 4:
        assert out["4"]["speedup_vs_1"] >= 2.5, (
            f"4 shards only reached {out['4']['speedup_vs_1']}x"
        )


def test_deadline_enforcement_under_load(warehouse, record):
    """A deadline-exceeding query fails typed and fast while the service
    keeps answering concurrent well-behaved requests."""
    timeout = 0.2
    with warehouse.serve(max_workers=2, max_queue=32) as service:
        probe = "SELECT ?s WHERE { ?s dm:hasName ?n } LIMIT 5"
        background = [service.submit("query", text=probe) for _ in range(4)]
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.query(HOG_QUERY, timeout=timeout)
        wall = time.perf_counter() - started
        survivors = [len(ticket.result(timeout=120)) for ticket in background]
        after = len(service.query(probe, timeout=120))
        snapshot = service.metrics_snapshot()

    assert excinfo.value.timeout == timeout
    assert wall <= timeout * 1.5, f"timeout surfaced after {wall:.3f}s (budget {timeout}s)"
    assert all(n > 0 for n in survivors)
    assert after > 0
    assert snapshot["timeouts"] >= 1

    # search and lineage keep the same promise: an every-item search and
    # a trace down one long mapping chain, each several budgets long
    probe = _deadline_probe_warehouse(DEADLINE_PROBE_ITEMS)
    endpoint_walls = {}
    with probe.serve(max_workers=2, max_queue=32) as service:
        background = [
            service.submit("search", term=f"item_{DEADLINE_PROBE_ITEMS - 1}") for _ in range(4)
        ]
        for kind, payload in (
            ("search", {"term": "item"}),
            ("lineage", {"item": "item_0", "direction": "downstream"}),
        ):
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded) as excinfo:
                service.execute(kind, timeout=timeout, **payload)
            endpoint_walls[kind] = time.perf_counter() - started
            assert excinfo.value.timeout == timeout
        survivors = [len(ticket.result(timeout=120)) for ticket in background]
    for kind, seconds in endpoint_walls.items():
        assert seconds <= timeout * 1.5, (
            f"{kind} timeout surfaced after {seconds:.3f}s (budget {timeout}s)"
        )
    assert survivors == [1] * len(survivors)

    _save(
        "deadline",
        {
            "budget_s": timeout,
            "observed_s": round(wall, 4),
            "ratio": round(wall / timeout, 2),
            **{f"{kind}_observed_s": round(s, 4) for kind, s in endpoint_walls.items()},
        },
    )
    record(
        "S1c",
        f"Deadline enforcement ({SCALE})",
        [
            ("budget", f"{timeout * 1000:.0f} ms"),
            ("typed error after", f"{wall * 1000:.0f} ms"),
            *(
                (f"{kind} typed error after", f"{s * 1000:.0f} ms")
                for kind, s in endpoint_walls.items()
            ),
            ("bound", "<= 1.5x budget"),
        ],
    )


#: Items of the search/lineage deadline probe: large enough that an
#: every-item search and a full trace of the chain each run ~1 s.
DEADLINE_PROBE_ITEMS = 30_000


def _deadline_probe_warehouse(n: int):
    """``n`` named items ``item_0 .. item_{n-1}`` on one mapping chain."""
    import gc

    from repro.core import MetadataWarehouse, TERMS
    from repro.rdf.namespace import RDF
    from repro.rdf.terms import Literal, Triple

    mdw = MetadataWarehouse()
    cls = mdw.schema.declare_class("Column")
    items = [mdw.facts.namespace.term(f"n{i:06d}") for i in range(n)]
    for i, item in enumerate(items):
        mdw.graph.add(Triple(item, RDF.type, cls))
        mdw.graph.add(Triple(item, TERMS.has_name, Literal(f"item_{i}")))
    for source, target in zip(items, items[1:]):
        mdw.graph.add(Triple(source, TERMS.is_mapped_to, target))
    gc.collect()  # the build's garbage, not the timed calls'
    return mdw
