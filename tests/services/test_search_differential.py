"""Differential search test: served answers against a naive reference.

The reference is written here, independent of the service's candidate
walk: every ``dm:hasName`` subject, its name, the (expanded) patterns,
then the filters, in ``sort_key`` order. Served search must return the
same hits — same instances, names, matched terms and class tuples, in
the same order — on the in-memory engine, on an attached ``.mdws``
snapshot, and through a 2-shard gateway.
"""

import random
import re

import pytest

from repro.core import MetadataWarehouse, TERMS, World
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.server import ShardedConfig, ShardedQueryService
from repro.services import SearchFilters
from repro.synth import LandscapeConfig, generate_landscape


def reference(mdw, term, filters=None, expand_synonyms=False, regex=False):
    """Hits of a naive scan over every named item."""
    filters = filters or SearchFilters()
    graph, hierarchy, schema = mdw.graph, mdw.hierarchy, mdw.schema
    terms = mdw.search.thesaurus.expand(term) if expand_synonyms else [term]
    patterns = [re.compile(t if regex else re.escape(t), re.IGNORECASE) for t in terms]
    narrowing = [
        hierarchy.subclasses(schema.class_by_label(label), include_self=True)
        for label in filters.classes
    ]
    if filters.world is not None:
        narrowing.append({c for c in schema.classes() if schema.world(c) is filters.world})
    valid = set.intersection(*narrowing) if narrowing else None
    hits = []
    for instance in sorted(set(graph.subjects(TERMS.has_name, None)), key=lambda t: t.sort_key()):
        name = mdw.facts.name_of(instance)
        if name is None:
            continue
        matched = next((t for p, t in zip(patterns, terms) if p.search(name)), None)
        if matched is None:
            continue
        if filters.areas and graph.value(instance, TERMS.in_area, None) not in filters.areas:
            continue
        direct = set(graph.objects(instance, RDF.type))
        if valid is not None and not direct & valid:
            continue
        inherited = {s for c in direct for s in hierarchy.superclasses(c, include_self=True)}
        hits.append(
            (
                instance,
                name,
                matched,
                tuple(sorted(direct, key=lambda c: c.value)),
                tuple(sorted(inherited, key=lambda c: c.value)),
            )
        )
    return terms, hits


def served(results):
    return results.expanded_terms, [
        (h.instance, h.name, h.matched_term, h.direct_classes, h.all_classes)
        for h in results.hits
    ]


CASES = {
    "plain-customer": ("customer", {}),
    "plain-id": ("id", {}),
    "plain-upper": ("CUSTOMER", {}),
    "plain-none": ("zz_no_such_name", {}),
    "synonym-customer": ("customer", {"expand_synonyms": True}),
    "synonym-client": ("client", {"expand_synonyms": True}),
    "regex-prefix": ("^customer_", {"regex": True}),
    "regex-suffix": ("_(id|code|name)$", {"regex": True}),
    "class": ("id", {"filters": SearchFilters(classes=["Attribute"])}),
    # not "Column": two classes carry that label, and which one a label
    # resolves to is engine order, not search
    "class-pair": ("a", {"filters": SearchFilters(classes=["Item", "Attribute"])}),
    "area": ("id", {"filters": SearchFilters(areas=[TERMS.area_integration])}),
    "world-business": ("customer", {"filters": SearchFilters(world=World.BUSINESS)}),
    "world-technical": ("a", {"filters": SearchFilters(classes=["Item"], world=World.TECHNICAL)}),
}


@pytest.fixture(scope="module")
def landscape():
    return generate_landscape(LandscapeConfig.tiny(seed=13)).warehouse


@pytest.fixture(scope="module")
def expected(landscape):
    return {case: reference(landscape, term, **kw) for case, (term, kw) in CASES.items()}


@pytest.fixture(scope="module")
def mapped(landscape, tmp_path_factory):
    path = tmp_path_factory.mktemp("search") / "tiny.mdws"
    landscape.save_snapshot(path)
    return MetadataWarehouse.attach_snapshot(path)


@pytest.fixture(scope="module")
def gateway(landscape):
    config = ShardedConfig(n_shards=2, workers_per_shard=1, worker_mode="thread", supervise=False)
    with ShardedQueryService(landscape, config) as service:
        yield service


class TestDifferential:
    def test_reference_is_not_vacuous(self, expected):
        for form in ("plain", "synonym", "regex", "class", "area", "world"):
            assert any(hits for case, (_, hits) in expected.items() if case.startswith(form)), form

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_in_memory(self, landscape, expected, case):
        term, kw = CASES[case]
        assert served(landscape.search.search(term, **kw)) == expected[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_attached_snapshot(self, mapped, expected, case):
        term, kw = CASES[case]
        assert served(mapped.search.search(term, **kw)) == expected[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_shard_gateway(self, gateway, expected, case):
        term, kw = CASES[case]
        results = gateway.search(term, **kw)
        assert served(results) == expected[case]
        assert not results.degraded

    def test_independent_of_index_grouping(self, landscape, expected, monkeypatch):
        """Rows of one name need not arrive together: the walk must give
        the same answer when the engine interleaves them."""
        plain = Graph.triples_ids

        def interleaved(self, s=None, p=None, o=None):
            rows = list(plain(self, s, p, o))
            random.Random(7).shuffle(rows)
            return iter(rows)

        monkeypatch.setattr(Graph, "triples_ids", interleaved)
        for case, (term, kw) in CASES.items():
            assert served(landscape.search.search(term, **kw)) == expected[case], case


class TestBehaviour:
    @pytest.fixture
    def mdw(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        for i, name in enumerate(["customer_id", "customer_name", "trade_amount", "customer_id"]):
            mdw.facts.add_instance(f"item_{i}", cls, display_name=name)
        return mdw

    def test_shared_name_finds_every_item(self, mdw):
        results = mdw.search.search("customer_id")
        assert len(results) == 2
        assert {h.name for h in results.hits} == {"customer_id"}

    def test_substring_and_case(self, mdw):
        assert len(mdw.search.search("customer")) == 3
        assert len(mdw.search.search("CUSTOMER")) == 3
        assert len(mdw.search.search("trade")) == 1
        assert len(mdw.search.search("zzz")) == 0

    def test_listing1_regex(self, mdw):
        assert len(mdw.search.search("^customer_(id|name)$", regex=True)) == 3

    def test_added_name_found_at_once(self, mdw):
        cls = mdw.schema.class_by_label("Column")
        mdw.facts.add_instance("late", cls, display_name="customer_late")
        assert [h.name for h in mdw.search.search("customer_late").hits] == ["customer_late"]

    def test_retired_item_disappears(self, mdw):
        (victim,) = [h.instance for h in mdw.search.search("trade").hits]
        mdw.facts.retire_instance(victim, force=True)
        assert len(mdw.search.search("trade")) == 0

    def test_sparql_insert_found_at_once(self, mdw):
        mdw.update('INSERT DATA { cs:new_one dm:hasName "customer_fresh" }')
        assert [h.name for h in mdw.search.search("customer_fresh").hits] == ["customer_fresh"]
