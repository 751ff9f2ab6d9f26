"""Deadlines on the search and lineage endpoints.

docs/serving.md promises the typed ``DeadlineExceeded`` within 1.5x the
budget for every request kind. The warehouse here is built so that an
unbounded search (every item matches) and an unbounded downstream trace
(one long mapping chain) each run for several budgets, so only the
cooperative checks in the name walk, the hit loop and the BFS can end
them in time.
"""

import gc
import time

import pytest

from repro.core import MetadataWarehouse, TERMS
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, Triple
from repro.server import DeadlineExceeded

ITEMS = 20_000
BUDGET = 0.1


@pytest.fixture(scope="module")
def service():
    mdw = MetadataWarehouse()
    cls = mdw.schema.declare_class("Column")
    items = [mdw.facts.namespace.term(f"n{i:06d}") for i in range(ITEMS)]
    add = mdw.graph.add
    for i, item in enumerate(items):
        add(Triple(item, RDF.type, cls))
        add(Triple(item, TERMS.has_name, Literal(f"item_{i}")))
    for source, target in zip(items, items[1:]):
        add(Triple(source, TERMS.is_mapped_to, target))
    with mdw.serve(max_workers=2) as svc:
        # collect the build's garbage now, not inside the first timed call
        gc.collect()
        yield svc


def assert_typed_within_bound(call):
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded) as excinfo:
        call()
    wall = time.monotonic() - started
    assert excinfo.value.timeout == BUDGET
    assert wall <= BUDGET * 1.5, f"took {wall:.3f}s for a {BUDGET}s deadline"


def test_search_deadline_within_bound(service):
    assert_typed_within_bound(lambda: service.search("item", timeout=BUDGET))


def test_regex_search_deadline_within_bound(service):
    assert_typed_within_bound(lambda: service.search("^item_", regex=True, timeout=BUDGET))


def test_lineage_deadline_within_bound(service):
    assert_typed_within_bound(
        lambda: service.lineage("item_0", direction="downstream", timeout=BUDGET)
    )


def test_service_answers_after_timeouts(service):
    with pytest.raises(DeadlineExceeded):
        service.search("item", timeout=BUDGET)
    assert [h.name for h in service.search("item_19999", timeout=30).hits] == ["item_19999"]
