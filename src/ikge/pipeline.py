"""Natural-language intent to verified network-intent translation.

The pipeline runs six steps: keyword extraction over a gazetteer corpus
(A), template construction from a blueprint with ``???`` slots (B), in
slot-id order (C), top-k link prediction per slot (D), slot completion
under ontology admissibility and keyword hints (E) and verification of
every triple the model can score, refusing an intent with none (F).

Slots are typed by the relation of their triple: ``icm:hasTarget`` fills a
service, ``icm:targetResource`` a resource and ``icm:valueBy`` a literal
value. A later slotted triple may reference an earlier slot through the
role's anchor class (for example ``icm:Target`` in head position), which
is substituted with the entity chosen for that slot before prediction.

An IKG ``Graph`` has one OntologyIndex: ``ontology_index`` builds it on
first use, in a single O(n) pass over the graph's n triples, and keeps it
on the graph, so later ``translate`` and value-slot ``predict_candidates``
calls on the same ``Graph`` object read it without re-indexing; a copy,
an unpickled graph or a fresh parse builds its own. After it, a value
slot's membership test is an O(1) dict lookup, the value pool costs one
vocabulary lookup per observed literal, and every other pool is the
vocabulary's cached array of non-literal entity ids, which reads no index.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from . import model as kg2e
from .rdf import (
    Graph,
    ParseError,
    Term,
    TermKind,
    Triple,
    VocabError,
    require_complete,
    term_from_text,
    term_to_text,
)

log = logging.getLogger(__name__)

ROLE_SERVICE = "service"
ROLE_RESOURCE = "resource"
ROLE_KPI = "kpi"
ROLE_VALUE = "value"
CORPUS_ROLES = (ROLE_SERVICE, ROLE_RESOURCE, ROLE_KPI, ROLE_VALUE)

# Slot typing by relation and the ontology class anchoring each role.
ROLE_BY_RELATION = {
    "icm:hasTarget": ROLE_SERVICE,
    "icm:targetResource": ROLE_RESOURCE,
    "icm:valueBy": ROLE_VALUE,
}
ROLE_ANCHORS = {
    ROLE_SERVICE: Term.iri("icm:Target"),
    ROLE_RESOURCE: Term.iri("service:NetworkResource"),
}

_TOKEN = re.compile(r"[a-z0-9]+")  # a word of free text; keywords are sequences of these

RDF_TYPE = Term.iri("rdf:type")
RDFS_SUBCLASS = Term.iri("rdfs:subclass")


class PipelineError(Exception):
    """Base class for pipeline failures."""


class BlueprintError(PipelineError):
    """A blueprint that cannot become a template (step B)."""


class UnresolvedSlotError(PipelineError):
    def __init__(self, slot_id: int, role: str, k: int):
        super().__init__(
            f"slot {slot_id} ({role}): no admissible candidate within top-{k} predictions"
        )
        self.slot_id = slot_id
        self.role = role


class VerificationFailedError(PipelineError):
    def __init__(self, intent: "NetworkIntent"):
        self.failing = [t for t, v in zip(intent.triples, intent.verdicts) if v and not v[1]]
        names = "; ".join(str(t) for t in self.failing)
        super().__init__(f"intent {intent.intent_id!r} failed verification: {names}")
        self.intent = intent


@dataclass(frozen=True)
class CorpusHint:
    role: str
    term: Term


@dataclass
class KeywordCorpus:
    """Gazetteer mapping lower-case keywords to role-tagged graph terms."""

    entries: dict[str, list[CorpusHint]]


@dataclass(frozen=True)
class KeywordMatch:
    keyword: str
    hints: tuple[CorpusHint, ...]


@dataclass(frozen=True)
class Slot:
    triple: Triple
    slot_id: int
    role: str
    position: str  # "head" or "tail"


@dataclass
class IntentTemplate:
    intent_id: str
    complete: list[Triple]
    slotted: list[Slot]
    prefixes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Prediction:
    candidate: Term
    score: float
    rank: int


@dataclass
class SlotResolution:
    slot_id: int
    role: str
    triple: Triple
    term: Term
    rank: int
    score: float
    classified: bool | None = None
    note: str | None = None

    def to_document(self) -> dict:
        return {
            "slot_id": self.slot_id,
            "role": self.role,
            "triple": str(self.triple),
            "term": term_to_text(self.term),
            "rank": self.rank,
            "score": self.score,
            "classified": self.classified,
            "note": self.note,
        }


@dataclass
class NetworkIntent:
    intent_id: str
    triples: list[Triple]
    resolutions: list[SlotResolution]
    verified: bool | None = None
    prefixes: dict[str, str] = field(default_factory=dict)
    verdicts: list[tuple[float, bool] | None] = field(default_factory=list)

    def to_graph(self) -> Graph:
        return Graph(self.triples, self.prefixes)

    def report_document(self) -> dict:
        return {
            "intent_id": self.intent_id,
            "verified": self.verified,
            "n_triples": len(self.triples),
            "slots": [r.to_document() for r in self.resolutions],
        }


def load_corpus(text: str, ikg: Graph) -> KeywordCorpus:
    """Parse tab-separated ``keyword<TAB>role<TAB>term`` corpus lines.

    Keywords are lower-cased and must be words of ``[a-z0-9]+``, the tokens
    ``extract_keywords`` matches, or they could never match; every term
    must be a term of the IKG, which must be complete, so hints can never
    point outside the graph.
    """
    require_complete(ikg)
    entries: dict[str, list[CorpusHint]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ParseError("expected 3 tab-separated fields", lineno, 1)
        keyword = parts[0].strip().lower()
        role = parts[1].strip()
        if not keyword:
            raise ParseError("empty keyword", lineno, 1)
        if not all(_TOKEN.fullmatch(word) for word in keyword.split()):
            raise ParseError(
                f"keyword {keyword!r} can never match: words must be [a-z0-9]+", lineno, 1
            )
        if role not in CORPUS_ROLES:
            raise ParseError(f"unknown role {role!r}", lineno, 1)
        try:
            term = term_from_text(parts[2].strip())
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from None
        if term not in ikg.terms:
            raise ParseError(f"hint term {parts[2].strip()} not in the IKG vocabulary", lineno, 1)
        entries.setdefault(keyword, []).append(CorpusHint(role, term))
    return KeywordCorpus(entries)


def extract_keywords(text: str, corpus: KeywordCorpus) -> list[KeywordMatch]:
    """Case-insensitive longest-match scan; duplicates keep first position."""
    tokens = _TOKEN.findall(text.lower())
    keyed = {tuple(k.split()): k for k in corpus.entries}
    max_len = max((len(k) for k in keyed), default=0)
    matches: list[str] = []
    seen: set[str] = set()
    i = 0
    while i < len(tokens):
        for length in range(min(max_len, len(tokens) - i), 0, -1):
            phrase = tuple(tokens[i : i + length])
            if phrase in keyed:
                keyword = keyed[phrase]
                if keyword not in seen:
                    seen.add(keyword)
                    matches.append(keyword)
                i += length
                break
        else:
            i += 1
    return [KeywordMatch(k, tuple(corpus.entries[k])) for k in matches]


def merge_hints(matches) -> dict[str, list[Term]]:
    """Role-keyed hint terms in match order, first occurrence kept."""
    hints: dict[str, list[Term]] = {}
    for match in matches:
        for hint in match.hints:
            bucket = hints.setdefault(hint.role, [])
            if hint.term not in bucket:
                bucket.append(hint.term)
    return hints


def build_template(matches, ikg: Graph, blueprint: Graph) -> IntentTemplate:
    """Split a blueprint into complete triples and typed slots.

    Each slotted triple must contain exactly one placeholder and use a
    relation with a known role mapping. A prefix the IKG binds must be
    bound to the same IRI, if the blueprint binds it at all.
    """
    complete: list[Triple] = []
    slots: list[Slot] = []
    for triple in blueprint.triples:
        count = triple.placeholder_count
        if count == 0:
            complete.append(triple)
            continue
        if count > 1:
            raise BlueprintError(f"multiple placeholders in one triple: {triple}")
        role = ROLE_BY_RELATION.get(triple.relation.text)
        if role is None:
            raise BlueprintError(
                f"no role mapping for slotted relation {term_to_text(triple.relation)}"
            )
        position = "head" if triple.head.is_placeholder else "tail"
        slot_id = triple.head.slot if position == "head" else triple.tail.slot
        slots.append(Slot(triple, slot_id, role, position))
    slots.sort(key=lambda s: s.slot_id)
    keywords = [m.keyword for m in matches]
    intent_id = "intent-" + "-".join(k.replace(" ", "_") for k in keywords) if keywords else "intent"
    prefixes = dict(ikg.prefix_map)
    for label, iri in blueprint.prefix_map.items():
        # Terms match by their text, so a label must mean what it means in the IKG.
        if prefixes.setdefault(label, iri) != iri:
            raise BlueprintError(
                f"blueprint binds prefix '{label}:' to <{iri}>, the IKG to <{prefixes[label]}>"
            )
    return IntentTemplate(intent_id, complete, slots, prefixes)


class OntologyIndex:
    """Subclass closure, type assertions and literal pools of one IKG.

    Built in one pass over the triples: each distinct relation is classified
    once. ``literal_tails`` maps a relation's text to its distinct literal
    tails, the keys of a dict in first-seen order: the value pool of a tail
    value slot, and the O(1) membership test of its admissibility. The
    pipeline shares one index per graph (``ontology_index``), so an index
    keeps no reference to its graph and memoizes only the closures of
    classes with subclass edges, which are terms of the graph.
    """

    def __init__(self, ikg: Graph):
        self.children: dict[Term, list[Term]] = {}
        self.types: dict[Term, set[Term]] = {}
        self.literal_tails: dict[str, dict[Term, None]] = {}
        # relation -> 1 for subclass edges, 2 for type assertions, 0 otherwise
        kinds: dict[Term, int] = {}
        literal = TermKind.LITERAL
        for t in ikg.triples:
            relation = t.relation
            kind = kinds.get(relation)
            if kind is None:
                kind = kinds[relation] = (
                    1 if relation == RDFS_SUBCLASS else 2 if relation == RDF_TYPE else 0
                )
            if kind == 1:
                self.children.setdefault(t.head, []).append(t.tail)
            elif kind == 2:
                self.types.setdefault(t.head, set()).add(t.tail)
            if t.tail.kind is literal:
                self.literal_tails.setdefault(relation.text, {})[t.tail] = None
        self._closures: dict[Term, frozenset[Term]] = {}

    def closure(self, root: Term) -> frozenset[Term]:
        """``root`` plus everything reachable along subclass edges."""
        cached = self._closures.get(root)
        if cached is not None:
            return cached
        if root not in self.children:
            return frozenset((root,))
        out = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in self.children.get(node, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        result = frozenset(out)
        self._closures[root] = result
        return result

    def admissible(self, candidate: Term, role: str, relation: Term) -> bool:
        """Ontology admissibility of a candidate for a slot role.

        Service and resource candidates must sit strictly below the role's
        anchor class in the subclass hierarchy or be typed (rdf:type) with
        a class from that closure. Value candidates must be literals
        observed as objects of the slot's relation.
        """
        if role == ROLE_VALUE:
            return candidate.is_literal and candidate in self.literal_tails.get(
                relation.text, ()
            )
        anchor = ROLE_ANCHORS.get(role)
        if anchor is None:
            return not candidate.is_literal
        closure = self.closure(anchor)
        if candidate in closure and candidate != anchor:
            return True
        return not closure.isdisjoint(self.types.get(candidate, ()))

    def hint_consistent(self, candidate: Term, hint_terms) -> bool:
        return any(candidate in self.closure(h) for h in hint_terms)


def ontology_index(ikg: Graph) -> OntologyIndex:
    """The OntologyIndex of ``ikg``: built on first use and kept on the
    graph, so every later call with the same ``Graph`` object returns it."""
    index = ikg._ontology_index
    if index is None:
        index = OntologyIndex(ikg)
        object.__setattr__(ikg, "_ontology_index", index)
    return index


def predict_candidates(model: kg2e.Kg2eModel, slot: Slot, k: int, ikg: Graph) -> list[Prediction]:
    """Top-k completions for one slot, scores non-increasing, ranks 1..k.

    A value-role tail slot draws candidates only from the literals observed
    for the slot's relation in the IKG; every other slot, a value-role head
    slot included, draws from all non-literal entities, since a literal is
    never a subject. Ties order by entity id. Only a value-role tail slot
    reads the graph's OntologyIndex (``ontology_index``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    vocab = model.vocab
    triple = slot.triple
    r = vocab.relation_id(triple.relation)
    if slot.position == "tail":
        h = vocab.entity_id(triple.head)
        scores = kg2e.score_candidates(model, h, r, 0, position="tail")
    else:
        t = vocab.entity_id(triple.tail)
        scores = kg2e.score_candidates(model, 0, r, t, position="head")

    if slot.role == ROLE_VALUE and slot.position == "tail":
        pool = []
        for lit in ontology_index(ikg).literal_tails.get(triple.relation.text, ()):
            try:
                pool.append(vocab.entity_id(lit))
            except VocabError:
                continue  # a literal the model was not trained on
        pool = np.array(sorted(pool), dtype=np.int64)
    else:
        pool = vocab.non_literal_ids
    if len(pool) == 0:
        return []
    pool_scores = scores[pool]
    order = np.lexsort((pool, -pool_scores))
    top = order[:k]
    return [
        Prediction(candidate=vocab.entities[pool[i]], score=float(pool_scores[i]), rank=rank)
        for rank, i in enumerate(top, start=1)
    ]


def _fill(slot: Slot, term: Term) -> Triple:
    if slot.position == "head":
        return Triple(term, slot.triple.relation, slot.triple.tail)
    return Triple(slot.triple.head, slot.triple.relation, term)


def complete_template(
    template: IntentTemplate,
    model: kg2e.Kg2eModel,
    ikg: Graph,
    hints: dict[str, list[Term]] | None = None,
    k: int = 10,
) -> NetworkIntent:
    """Resolve every slot, in the slot-id order ``build_template`` gives,
    with the best admissible prediction.

    Selection precedence: ontology admissibility, then hint consistency,
    then prediction rank. When hints exclude every admissible candidate
    the hint constraint is dropped and the conflict is logged.
    """
    hints = hints or {}
    index = ontology_index(ikg)
    anchor_substitutions: dict[Term, Term] = {}
    resolutions: list[SlotResolution] = []

    for slot in template.slotted:
        triple = slot.triple
        if anchor_substitutions:
            head = anchor_substitutions.get(triple.head, triple.head)
            tail = anchor_substitutions.get(triple.tail, triple.tail)
            if head is not triple.head or tail is not triple.tail:
                triple = Triple(head, triple.relation, tail)
                slot = Slot(triple, slot.slot_id, slot.role, slot.position)

        predictions = predict_candidates(model, slot, k, ikg)
        admissible = [
            p for p in predictions if index.admissible(p.candidate, slot.role, triple.relation)
        ]
        if not admissible:
            raise UnresolvedSlotError(slot.slot_id, slot.role, k)
        hint_terms = hints.get(slot.role)
        consistent = (p for p in admissible if index.hint_consistent(p.candidate, hint_terms))
        chosen = next(consistent, None) if hint_terms else admissible[0]
        note = None
        if chosen is None:
            chosen = admissible[0]
            note = "hint conflict: no hint-consistent admissible candidate; admissibility wins"
            log.warning("slot %d (%s): %s", slot.slot_id, slot.role, note)

        resolution = SlotResolution(
            slot_id=slot.slot_id,
            role=slot.role,
            triple=_fill(slot, chosen.candidate),
            term=chosen.candidate,
            rank=chosen.rank,
            score=chosen.score,
            note=note,
        )
        resolutions.append(resolution)
        anchor = ROLE_ANCHORS.get(slot.role)
        if anchor is not None:
            anchor_substitutions[anchor] = chosen.candidate

    triples = list(template.complete) + [r.triple for r in resolutions]
    return NetworkIntent(template.intent_id, triples, resolutions, prefixes=dict(template.prefixes))


def verify_intent(
    intent: NetworkIntent, model: kg2e.Kg2eModel, thresholds: kg2e.ThresholdTable
) -> NetworkIntent:
    """Judge each triple whose three terms the model knows, true iff its score
    reaches its relation's threshold, and skip the rest; verified iff every
    judged triple is true. Sets ``verdicts``, per triple ``(score, classified)``
    or None, and each resolution's ``classified``. A placeholder, or no triple
    to judge, raises ValueError."""
    verdicts = []
    for triple in intent.triples:
        if triple.placeholder_count:
            raise ValueError(f"intent still contains a placeholder: {triple}")
        ids = model.vocab.find_ids(triple)
        s = None if ids is None else kg2e.score(model, *ids)
        verdicts.append(None if s is None else (s, s >= thresholds.lookup(ids[1])))
    # A triple given twice gets the same verdict twice, so one entry stands for both.
    classified = {t: v[1] for t, v in zip(intent.triples, verdicts) if v}
    if not classified:
        raise ValueError("intent contains no triples the model can classify")
    intent.verdicts, intent.verified = verdicts, all(classified.values())
    for resolution in intent.resolutions:
        resolution.classified = classified.get(resolution.triple)
    return intent


def translate(
    text: str,
    model: kg2e.Kg2eModel,
    ikg: Graph,
    corpus: KeywordCorpus,
    blueprint: Graph,
    k: int = 10,
) -> NetworkIntent:
    """End-to-end pipeline from free text to a NetworkIntent verified with
    the model's thresholds.

    Raises UnresolvedSlotError when a slot has no admissible candidate, and
    VerificationFailedError (carrying the candidate intent) or ValueError
    when :func:`verify_intent` finds a false triple or none to judge.
    """
    thresholds = kg2e.require_thresholds(model)
    matches = extract_keywords(text, corpus)
    template = build_template(matches, ikg, blueprint)
    intent = complete_template(template, model, ikg, hints=merge_hints(matches), k=k)
    verify_intent(intent, model, thresholds)
    if not intent.verified:
        raise VerificationFailedError(intent)
    return intent
