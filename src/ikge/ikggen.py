"""Deterministic generator for a desk-scale intent knowledge graph.

The graph couples an intent/expectation skeleton with a service-class
hierarchy (video, voice and data leaves), network resource classes split
into guaranteed and non-guaranteed bit-rate families, KPI parameters and
string-literal KPI values. Link triples (``icm:targetResource``,
``icm:hasParameter``, ``icm:valueBy``) are drawn with a seeded generator
until the requested triple count is met exactly, so a fixed spec always
produces a byte-identical graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import require_number
from .pipeline import RDF_TYPE, RDFS_SUBCLASS, ROLE_ANCHORS, ROLE_RESOURCE, ROLE_SERVICE
from .rdf import Graph, Term, Triple

PREFIXES = {
    "icm": "http://intent.example/icm#",
    "service": "http://intent.example/service#",
    "nonmcptt": "http://intent.example/service/nonmcptt#",
    "kpi": "http://intent.example/kpi#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}

COUNT_TOLERANCE = 0.02

_NAMED_SERVICES = (
    ("nonmcptt:ConvVideo", "video"),
    ("nonmcptt:StreamVideo", "video"),
    ("nonmcptt:ConvVoice", "voice"),
    ("nonmcptt:PttVoice", "voice"),
    ("nonmcptt:WebData", "data"),
    ("nonmcptt:BulkData", "data"),
)
_FAMILY_CLASSES = {
    "video": "service:VideoService",
    "voice": "service:VoiceService",
    "data": "service:DataService",
}
_NAMED_RESOURCES = (
    ("service:NonMcpttGBRService", "gbr"),
    ("service:McpttGBRService", "gbr"),
    ("service:NonGBRService", "nongbr"),
    ("service:BestEffortService", "nongbr"),
)
_RESOURCE_PARENTS = {"gbr": "service:GBR", "nongbr": "service:NonGBR"}
_NAMED_KPIS = (
    "kpi:latency",
    "kpi:throughput",
    "kpi:jitter",
    "kpi:packetLoss",
    "kpi:availability",
    "kpi:reliability",
    "kpi:bandwidth",
    "kpi:coverage",
)
_VALUES_PER_KPI = 12
_THEMED_VALUES = {
    "kpi:latency": (
        "150ms", "50ms", "100ms", "200ms", "250ms", "300ms",
        "10ms", "20ms", "30ms", "75ms", "125ms", "175ms",
    ),
    "kpi:throughput": (
        "10mbps", "50mbps", "100mbps", "1gbps", "5mbps", "25mbps",
        "250mbps", "500mbps", "2gbps", "75mbps", "150mbps", "20mbps",
    ),
    "kpi:jitter": (
        "1ms", "2ms", "3ms", "4ms", "5ms", "6ms",
        "7ms", "8ms", "9ms", "0.5ms", "1.5ms", "2.5ms",
    ),
}


class InfeasibleSpecError(Exception):
    """The requested triple count cannot be met within tolerance."""


@dataclass
class IkgGenSpec:
    seed: int = 42
    n_services: int = 60
    n_resources: int = 15
    n_kpis: int = 12
    target_triples: int = 1575

    def __post_init__(self):
        for name in ("seed", "n_services", "n_resources", "n_kpis", "target_triples"):
            require_number(name, getattr(self, name), integer=True)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_services < 1:
            raise ValueError("n_services must be at least 1")
        if self.n_resources < 1:
            raise ValueError("n_resources must be at least 1")
        if self.n_kpis < 0:
            raise ValueError("n_kpis must be non-negative")
        if self.target_triples < 1:
            raise ValueError("target_triples must be positive")


_HAS_EXPECTATION = Term.iri("icm:hasExpectation")
_HAS_TARGET = Term.iri("icm:hasTarget")
_HAS_PARAMETER = Term.iri("icm:hasParameter")
_TARGET_RESOURCE = Term.iri("icm:targetResource")
_VALUE_BY = Term.iri("icm:valueBy")


def _names(named: tuple, n: int, extra) -> list:
    """The first ``n`` of ``named``, then ``extra(0)``, ``extra(1)``, ... up to ``n``."""
    return [*named[:n], *(extra(i) for i in range(n - len(named)))]


def _service_name(i: int) -> tuple[str, str]:
    family = ("video", "voice", "data")[i % 3]
    return f"nonmcptt:{family.capitalize()}Svc{i:02d}", family


def _resource_name(i: int) -> tuple[str, str]:
    kind, label = ("gbr", "GbrResource") if i % 2 == 0 else ("nongbr", "NonGbrResource")
    return f"service:{label}{i:02d}", kind


def _value_pool(kpi: str) -> list[Term]:
    themed = _THEMED_VALUES.get(kpi)
    if themed is None:
        local = kpi.partition(":")[2]
        themed = tuple(f"{local}-level{j:02d}" for j in range(_VALUES_PER_KPI))
    return [Term.literal(v, "xsd:string") for v in themed]


def gen_ikg(spec: IkgGenSpec) -> Graph:
    """Build the desk IKG; triple count hits the target exactly when feasible."""
    rng = np.random.default_rng(spec.seed)
    # A dict as an ordered set: insertion order is the output order.
    triples: dict[Triple, None] = {}

    def add(head: Term, relation: Term, tail: Term) -> None:
        triples.setdefault(Triple(head, relation, tail))

    intent = Term.iri("icm:Intent")
    expectation = Term.iri("icm:Expectation")
    prop_expectation = Term.iri("icm:PropertyExpectation")
    target = ROLE_ANCHORS[ROLE_SERVICE]
    prop_parameter = Term.iri("icm:PropertyParameter")
    network_resource = ROLE_ANCHORS[ROLE_RESOURCE]

    add(intent, _HAS_EXPECTATION, expectation)
    add(expectation, RDFS_SUBCLASS, prop_expectation)
    add(expectation, _HAS_TARGET, target)
    add(prop_expectation, _HAS_PARAMETER, prop_parameter)
    for family_class in _FAMILY_CLASSES.values():
        add(target, RDFS_SUBCLASS, Term.iri(family_class))
    for parent in _RESOURCE_PARENTS.values():
        add(network_resource, RDFS_SUBCLASS, Term.iri(parent))

    services = [
        (Term.iri(n), f) for n, f in _names(_NAMED_SERVICES, spec.n_services, _service_name)
    ]
    for i, (leaf, family) in enumerate(services):
        add(Term.iri(_FAMILY_CLASSES[family]), RDFS_SUBCLASS, leaf)
        add(leaf, RDF_TYPE, target)
        add(prop_expectation, _HAS_TARGET, leaf)
        # Named anchor leaves also hang off the generic expectation node,
        # mirroring their fuller context in the source ontology.
        if i < len(_NAMED_SERVICES):
            add(expectation, _HAS_TARGET, leaf)

    resources = [
        (Term.iri(n), k) for n, k in _names(_NAMED_RESOURCES, spec.n_resources, _resource_name)
    ]
    for leaf, kind in resources:
        add(Term.iri(_RESOURCE_PARENTS[kind]), RDFS_SUBCLASS, leaf)
        add(leaf, RDF_TYPE, network_resource)

    kpis = [Term.iri(name) for name in _names(_NAMED_KPIS, spec.n_kpis, "kpi:metric{:02d}".format)]
    pools = {k.text: _value_pool(k.text) for k in kpis}
    for k in kpis:
        add(prop_parameter, RDFS_SUBCLASS, k)
        add(k, RDF_TYPE, prop_parameter)

    service_terms = [s for s, _ in services]
    resource_terms = [r for r, _ in resources]

    # Fixed anchor links come first so they survive any spec size.
    conv_video = service_terms[0]
    add(conv_video, _TARGET_RESOURCE, resource_terms[0])
    if len(resource_terms) > 1:
        add(conv_video, _TARGET_RESOURCE, resource_terms[1])
    if kpis:
        add(conv_video, _HAS_PARAMETER, kpis[0])
        add(kpis[0], _VALUE_BY, pools[kpis[0].text][0])

    for leaf in service_terms[1:]:
        add(leaf, _TARGET_RESOURCE, resource_terms[rng.integers(len(resource_terms))])
    if kpis:
        for leaf in service_terms[1:]:
            add(leaf, _HAS_PARAMETER, kpis[rng.integers(len(kpis))])
        for k in kpis:
            for value in pools[k.text][:2]:
                add(k, _VALUE_BY, value)

    lower = int(np.floor(spec.target_triples * (1.0 - COUNT_TOLERANCE)))
    upper = int(np.ceil(spec.target_triples * (1.0 + COUNT_TOLERANCE)))
    if len(triples) > upper:
        raise InfeasibleSpecError(
            f"mandatory structure needs {len(triples)} triples, above the "
            f"+{COUNT_TOLERANCE:.0%} bound of target {spec.target_triples}"
        )

    extras: list[Triple] = []
    for s in service_terms:
        for r in resource_terms:
            t = Triple(s, _TARGET_RESOURCE, r)
            if t not in triples:
                extras.append(t)
        for k in kpis:
            t = Triple(s, _HAS_PARAMETER, k)
            if t not in triples:
                extras.append(t)
    for k in kpis:
        for value in pools[k.text]:
            t = Triple(k, _VALUE_BY, value)
            if t not in triples:
                extras.append(t)
    if len(triples) + len(extras) < lower:
        raise InfeasibleSpecError(
            f"spec can produce at most {len(triples) + len(extras)} triples, below the "
            f"-{COUNT_TOLERANCE:.0%} bound of target {spec.target_triples}"
        )
    remaining = min(spec.target_triples - len(triples), len(extras))
    if remaining > 0:
        order = rng.permutation(len(extras))
        triples.update(dict.fromkeys(extras[i] for i in order[:remaining]))

    return Graph(triples, PREFIXES)


def build_report(spec: IkgGenSpec, graph: Graph) -> dict:
    return {
        **asdict(spec),
        "n_triples": len(graph),
        "n_prefixes": len(graph.prefix_map),
        "note": (
            "the triple count covers asserted (positive) facts only; "
            "training negatives are sampled on the fly, never stored"
        ),
    }
