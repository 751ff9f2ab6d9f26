"""Seeded inputs of the three benchmark workloads.

The landscape itself is fixed (``LANDSCAPE_SEED``), so every seed runs
against the same 27.7k-triple warehouse at medium scale; ``--seed``
chooses the op stream and the release churn. Each stream has a fixed
share of each op form, so two seeds issue the same amount of work of
each kind and differ only in which items and terms they touch.

Why each workload exists (the full layer map is in README.md):

* ``search-mmap`` — Listing-1 search is the slowest endpoint, and its
  time goes to the instance scan, hierarchy and page decode: search,
  storage and hierarchy changes show here, serving-stack changes not.
* ``lineage-gateway`` — a trace costs well under a millisecond direct
  but several served, so queue, IPC, supervision and frontier rounds
  dominate: serving and gateway changes show here, search changes not.
* ``release-mix`` — the only workload with SEM_MATCH SQL, SPARQL, the
  plan cache, ETL, DRed and snapshot publication, with releases landing
  between the reads; it uses no mmap and no fork.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.vocabulary import TERMS
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Triple
from repro.services.search import SearchFilters
from repro.synth import LandscapeConfig, generate_landscape
from repro.synth.names import BUSINESS_ENTITIES

LANDSCAPE_SEED = 2009

SCALES = {"tiny": LandscapeConfig.tiny, "medium": LandscapeConfig.medium}

#: share of the model's triples one release changes
CHURN_FRACTION = 0.02

#: names and IRIs of the instances a release state adds
NEW_ITEM_PREFIX = "release_delta_item_"
NEW_ITEM_NS = "http://www.credit-suisse.com/dwh/release_delta/item_"

#: classes of the Figure 6 drill-down; each holds a few hundred
#: instances at medium scale, so a drill-down scans a slice, not the model
DRILLDOWN_CLASSES = (
    "Source_Column",
    "Entity",
    "Table",
    "Interface_Item",
    "View_Column",
    "Business_Concept",
    "Conceptual_Attribute",
    "Report_Attribute",
)

#: business vocabulary searched with ``expand_synonyms`` (Section IV.A)
BUSINESS_TERMS = ("client", "partner", "party", "trade", "deposit", "security", "customer")

#: Listing 1's search over the generated landscape: items whose name
#: matches a term, through the OWLPRIME entailment index
LISTING_1_SQL = """
SELECT object FROM TABLE(SEM_MATCH(
    {{?object dm:hasName ?term}},
    SEM_MODELS('DWH_CURR'),
    SEM_RULEBASES('OWLPRIME'),
    SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
    null))
WHERE regexp_like(term, '{term}', 'i')
GROUP BY object
"""

#: Listing 2's question ("where does this item come from?"), one hop
LISTING_2_SPARQL = """
    SELECT ?source ?sourceName WHERE {{
        ?item dm:hasName "{name}" .
        ?source dt:isMappedTo ?item .
        ?source dm:hasName ?sourceName .
    }}
"""


@dataclass(frozen=True)
class Op:
    """One request: the service kind, its payload, and the latency slot.

    ``slot`` is ``heavy`` or ``light``: every workload issues two read
    kinds, one slow and one fast, and reports each one's percentiles
    separately (a pooled percentile of two modes jumps between them).
    ``key`` identifies the op for the oracle (payloads are not hashable).
    """

    kind: str
    payload: Dict[str, object]
    slot: str
    key: Tuple


def generate(scale: str):
    """The fixed landscape of ``scale`` (data generation is not timed)."""
    return generate_landscape(SCALES[scale](seed=LANDSCAPE_SEED))


def _forms(rng: random.Random, n: int, forms: List[str]) -> List[str]:
    """``n`` form labels in the exact proportions of ``forms``, shuffled."""
    out = [forms[i % len(forms)] for i in range(n)]
    rng.shuffle(out)
    return out


class _Balanced:
    """Draws from ``pool`` so that every item is used equally often
    (to within one): a fresh seeded permutation each pass. Two seeds then
    differ in order and pairing, not in how much each item is asked for."""

    def __init__(self, rng: random.Random, pool):
        self._rng = rng
        self._pool = list(pool)
        self._pending: List = []

    def __call__(self):
        if not self._pending:
            self._pending = list(self._pool)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def search_stream(scape, seed: int, n: int) -> List[Op]:
    """Listing-1 searches: half unfiltered, half class drill-downs.

    Unfiltered forms (``heavy``) scan every named instance: a plain
    entity word, a business term with synonym expansion, and the
    Listing-1 regex form. Drill-downs (``light``) narrow to one
    Figure-6 class first.
    """
    rng = random.Random(seed)
    word = _Balanced(rng, BUSINESS_ENTITIES)
    business_term = _Balanced(rng, BUSINESS_TERMS)
    drilldown = _Balanced(rng, [scape.classes[label] for label in DRILLDOWN_CLASSES])
    ops: List[Op] = []
    for form in _forms(rng, n, ["plain", "synonym", "regex", "drill", "drill", "drill"]):
        if form == "plain":
            payload = {"term": word()}
        elif form == "synonym":
            payload = {"term": business_term(), "expand_synonyms": True}
        elif form == "regex":
            payload = {"term": f"^{word()}_(code|name|rating|type|category)", "regex": True}
        else:
            payload = {"term": word(), "filters": SearchFilters(classes=[drilldown()])}
        key = (form, payload["term"], str(payload.get("filters", "")))
        ops.append(Op("search", payload, "light" if form == "drill" else "heavy", key))
    return ops


def lineage_stream(scape, seed: int, n: int) -> List[Op]:
    """Unbounded ``(isMappedTo)*`` traces: upstream from report
    attributes (depth 3, ``heavy``), downstream from staging columns
    (depth 1-2, ``light``)."""
    rng = random.Random(seed)
    pick = {
        "upstream": _Balanced(rng, sorted(scape.report_attributes, key=lambda t: t.sort_key())),
        "downstream": _Balanced(rng, sorted(scape.staging_columns, key=lambda t: t.sort_key())),
    }
    ops: List[Op] = []
    for form in _forms(rng, n, ["upstream", "downstream"]):
        item = pick[form]()
        ops.append(
            Op(
                "lineage",
                {"item": item, "direction": form, "max_depth": None},
                "heavy" if form == "upstream" else "light",
                (form, item),
            )
        )
    return ops


def release_mix_stream(scape, seed: int, n: int) -> List[Op]:
    """Listing-1 SEM_MATCH SQL over 30 entity words (fits the plan
    cache, ``heavy``) and Listing-2 SPARQL over every distinct item name
    (~1.3k texts, overflows it, ``light``), three SPARQL per SQL."""
    rng = random.Random(seed)
    graph = scape.warehouse.graph
    names = sorted(
        {o.lexical for _, _, o in graph.triples(None, TERMS.has_name, None) if isinstance(o, Literal)}
    )
    word_of, name_of = _Balanced(rng, BUSINESS_ENTITIES), _Balanced(rng, names)
    ops: List[Op] = []
    for form in _forms(rng, n, ["sql", "sparql", "sparql", "sparql"]):
        if form == "sql":
            word = word_of()
            ops.append(Op("sql", {"sql": LISTING_1_SQL.format(term=word)}, "heavy", ("sql", word)))
        else:
            name = name_of()
            ops.append(
                Op("query", {"text": LISTING_2_SPARQL.format(name=name)}, "light", ("sparql", name))
            )
    return ops


def release_states(graph: Graph, seed: int, keep_name: str, classes) -> Tuple[Graph, Graph]:
    """The two release states releases alternate between.

    Each state renames its own seeded slice of items and adds its own
    new instances of existing classes, typed and named, so a release
    touches the name index, hierarchy memberships and the entailment
    index. Going from one state to the other undoes one slice and
    applies the other: every release changes ~2% of the triples, each
    release costs the same in either direction, and the model never
    drifts. New instances belong to ``classes`` (the landscape's domain
    classes); items named ``keep_name`` (the set-up probe) keep their name.
    """
    rng = random.Random(seed)
    per_state = max(2, int(len(graph) * CHURN_FRACTION) // 8)
    names = [
        t
        for t in sorted(graph.triples(None, TERMS.has_name, None), key=lambda t: t.subject.sort_key())
        if t.object.lexical != keep_name
    ]
    renamed = rng.sample(names, 2 * per_state)
    classes = sorted(classes, key=lambda c: c.sort_key())
    # both states add instances of the same classes: the entailment work
    # of a release is then the same in either direction
    new_classes = [rng.choice(classes) for _ in range(per_state)]
    states = []
    for label, chosen in (("a", renamed[:per_state]), ("b", renamed[per_state:])):
        desired = graph.copy(name=f"release-{label}")
        for t in chosen:
            desired.discard(t)
            desired.add(Triple(t.subject, t.predicate, Literal(f"{t.object.lexical}_{label}")))
        for i in range(per_state):
            item = IRI(f"{NEW_ITEM_NS}{label}{i}")
            desired.add(Triple(item, RDF.type, new_classes[i]))
            desired.add(Triple(item, TERMS.has_name, Literal(f"{NEW_ITEM_PREFIX}{label}{i}")))
        states.append(desired)
    return states[0], states[1]


def setup_probe(scape) -> Op:
    """The first answer every set-up must verify: a fixed point lookup,
    the same for every seed, answered by every shard of a gateway."""
    graph = scape.warehouse.graph
    first = min(scape.staging_columns, key=lambda t: t.sort_key())
    name = graph.value(first, TERMS.has_name, None).lexical
    return Op("lookup", {"name": name}, "probe", ("lookup", name))


#: the probe that tells the two release states apart: the first new
#: item of state ``a`` exists in that state only
RELEASE_PROBE = Op("lookup", {"name": f"{NEW_ITEM_PREFIX}a0"}, "probe", ("lookup", "a0"))
RELEASE_PROBE_ITEM = IRI(f"{NEW_ITEM_NS}a0")
