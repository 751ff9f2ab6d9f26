"""A6 — ablation: vocabulary walk vs. instance scan.

At the paper's scale a search should stay interactive. The vocabulary of
distinct names in a bank's meta-data is small relative to the number of
named items (column names repeat across hundreds of tables). Search
walks the graph's own ``(dm:hasName, ?name, ?item)`` index and tests
each distinct name once; the ablation is the instance scan it replaced,
kept here as a naive reference: every named item, its name looked up,
then the pattern. The hits must be bit-identical either way.
"""

import re
import time

from repro.core.vocabulary import TERMS

TERM = "customer"


def instance_scan(mdw, term):
    """The replaced path: one name lookup and one match per named item."""
    pattern = re.compile(re.escape(term), re.IGNORECASE)
    hits = []
    for instance in sorted(set(mdw.graph.subjects(TERMS.has_name, None)), key=lambda t: t.sort_key()):
        name = mdw.facts.name_of(instance)
        if name is not None and pattern.search(name):
            hits.append(instance)
    return hits


def test_a6_walk_vs_scan(benchmark, medium_landscape, record):
    mdw = medium_landscape.warehouse

    t0 = time.perf_counter()
    scanned = instance_scan(mdw, TERM)
    scan_seconds = time.perf_counter() - t0

    walked = benchmark(lambda: mdw.search.search(TERM))
    assert [h.instance for h in walked.hits] == scanned

    t0 = time.perf_counter()
    mdw.search.search(TERM)
    walk_seconds = time.perf_counter() - t0

    named_items = len(set(mdw.graph.subjects(TERMS.has_name, None)))
    distinct_names = len(set(mdw.graph.objects(None, TERMS.has_name)))
    record(
        "A6",
        "Vocabulary walk vs instance scan (medium landscape)",
        [
            ("named items / distinct names", f"{named_items:,} / {distinct_names:,}"),
            ("instance scan (name matching only)", f"{scan_seconds * 1000:.1f} ms"),
            ("vocabulary walk (full search)", f"{walk_seconds * 1000:.1f} ms"),
            ("results identical", "True"),
            ("speedup", f"{scan_seconds / max(walk_seconds, 1e-9):.1f}x"),
        ],
    )
