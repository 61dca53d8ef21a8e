"""Immutable knowledge-graph data model.

Entities and relation types are interned to dense integer ids in
first-appearance order.  Names are normalized (NFC + lowercase) before
interning, so case-variant surface forms share one id.  Graphs are frozen
after construction and safe to share across threads; every operation here is
a pure function of its inputs.  The one lazily filled field, the mention
index, depends only on the entity names, so two threads racing to fill it
store equal values.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

EntityId = int
RelationId = int


class MalformedLineError(ValueError):
    """A triple-TSV line with the wrong field count or an empty field."""

    def __init__(self, line_number: int, message: str = ""):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message or 'malformed triple line'}")


class InvalidFractionError(ValueError):
    pass


class UnknownEntityError(LookupError):
    pass


def normalize_name(name: str) -> str:
    return unicodedata.normalize("NFC", name).lower()


@dataclass(frozen=True)
class Triple:
    head: EntityId
    relation: RelationId
    tail: EntityId


@dataclass(frozen=True)
class LoadSummary:
    n_lines: int
    n_triples: int
    n_duplicates: int


class KnowledgeGraph:
    """Interned entities/relations plus a duplicate-free ordered triple set."""

    __slots__ = ("entity_names", "relation_names", "triples",
                 "_entity_index", "_relation_index", "_adjacency", "_mentions")

    def __init__(self, entity_names: Sequence[str], relation_names: Sequence[str],
                 triples: Sequence[Triple]):
        self.entity_names = tuple(entity_names)
        self.relation_names = tuple(relation_names)
        self.triples = tuple(triples)
        self._entity_index = {n: i for i, n in enumerate(self.entity_names)}
        self._relation_index = {n: i for i, n in enumerate(self.relation_names)}
        if len(self._entity_index) != len(self.entity_names):
            raise ValueError("duplicate entity names")
        if len(self._relation_index) != len(self.relation_names):
            raise ValueError("duplicate relation names")
        adj: list[list[tuple[RelationId, EntityId]]] = [[] for _ in self.entity_names]
        for t in self.triples:
            if not (0 <= t.head < self.n_entities and 0 <= t.tail < self.n_entities
                    and 0 <= t.relation < self.n_relations):
                raise ValueError(f"triple {t} references unknown ids")
            adj[t.head].append((t.relation, t.tail))
        self._adjacency = tuple(tuple(edges) for edges in adj)
        self._mentions = None  # built by the first link_mentions call

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> EntityId:
        key = normalize_name(name)
        if key not in self._entity_index:
            raise UnknownEntityError(name)
        return self._entity_index[key]

    def relation_id(self, name: str) -> RelationId:
        return self._relation_index[normalize_name(name)]

    def has_entity(self, name: str) -> bool:
        return normalize_name(name) in self._entity_index

    def named_triples(self) -> list[tuple[str, str, str]]:
        return [(self.entity_names[t.head], self.relation_names[t.relation],
                 self.entity_names[t.tail]) for t in self.triples]

    def __eq__(self, other) -> bool:
        return (isinstance(other, KnowledgeGraph)
                and self.entity_names == other.entity_names
                and self.relation_names == other.relation_names
                and self.triples == other.triples)

    def __repr__(self) -> str:
        return (f"KnowledgeGraph(|V|={self.n_entities}, |R|={self.n_relations}, "
                f"|T|={len(self.triples)})")


def from_named_triples(named: Iterable[tuple[str, str, str]]) -> tuple[KnowledgeGraph, int]:
    """Intern names in first-appearance order; returns (graph, n_duplicates)."""
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    entity_names: list[str] = []
    relation_names: list[str] = []
    triples: list[Triple] = []
    seen: set[tuple[int, int, int]] = set()
    n_dup = 0

    def ent(name: str) -> int:
        key = normalize_name(name)
        if key not in entity_index:
            entity_index[key] = len(entity_names)
            entity_names.append(key)
        return entity_index[key]

    def rel(name: str) -> int:
        key = normalize_name(name)
        if key not in relation_index:
            relation_index[key] = len(relation_names)
            relation_names.append(key)
        return relation_index[key]

    for h, r, t in named:
        trip = (ent(h), rel(r), ent(t))
        if trip in seen:
            n_dup += 1
            continue
        seen.add(trip)
        triples.append(Triple(*trip))
    return KnowledgeGraph(entity_names, relation_names, triples), n_dup


def load_triples_tsv(path) -> tuple[KnowledgeGraph, LoadSummary]:
    """Load `head<TAB>relation<TAB>tail` lines; `#` lines are comments.

    Duplicate triples are dropped; the count is reported in the summary.
    """
    named: list[tuple[str, str, str]] = []
    n_lines = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            n_lines = lineno
            line = raw.rstrip("\n")
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLineError(lineno, f"expected 3 fields, got {len(fields)}")
            fields = [f.strip() for f in fields]
            if any(not f for f in fields):
                raise MalformedLineError(lineno, "empty field")
            named.append((fields[0], fields[1], fields[2]))
    graph, n_dup = from_named_triples(named)
    return graph, LoadSummary(n_lines=n_lines, n_triples=len(graph.triples), n_duplicates=n_dup)


def save_triples_tsv(g: KnowledgeGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in g.named_triples():
            fh.write(f"{h}\t{r}\t{t}\n")


def subgraph_fraction(g: KnowledgeGraph, fraction: float, seed: int) -> KnowledgeGraph:
    """Sample ceil(fraction * |T|) triples uniformly without replacement.

    Retained entities/relations are exactly those incident to retained
    triples, re-interned densely in surviving-triple order.
    """
    if not (isinstance(fraction, (int, float)) and math.isfinite(fraction)
            and 0.0 < fraction <= 1.0):
        raise InvalidFractionError(f"fraction must be in (0, 1], got {fraction!r}")
    n = len(g.triples)
    k = min(n, math.ceil(fraction * n))
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    keep = np.sort(rng.choice(n, size=k, replace=False))
    named = g.named_triples()
    sub, _ = from_named_triples(named[i] for i in keep)
    return sub


def neighbors(g: KnowledgeGraph, e: EntityId) -> list[tuple[RelationId, EntityId]]:
    """Outgoing (relation, tail) pairs of ``e`` in triple insertion order."""
    if not (0 <= e < g.n_entities):
        raise UnknownEntityError(e)
    return list(g._adjacency[e])


def _mention_index(entity_names: Sequence[str]
                   ) -> dict[str, tuple[tuple[tuple[str, ...], EntityId], ...]]:
    """First token -> (name tokens, entity id) candidates, longest first."""
    by_first: dict[str, list[tuple[tuple[str, ...], EntityId]]] = {}
    for eid, name in enumerate(entity_names):
        parts = tuple(name.split())
        if parts:
            by_first.setdefault(parts[0], []).append((parts, eid))
    return {first: tuple(sorted(cands, key=lambda c: -len(c[0])))
            for first, cands in by_first.items()}


def link_mentions(g: KnowledgeGraph, tokens: Sequence[str]) -> tuple[list[EntityId], list[RelationId]]:
    """Link entity surface forms occurring in ``tokens`` (already normalized).

    Left-to-right scan with longest match at each position; each token is
    consumed by at most one mention.  Relations are the deduplicated outgoing
    relations of the linked entities, in first-discovery order.
    """
    by_first = g._mentions
    if by_first is None:
        by_first = g._mentions = _mention_index(g.entity_names)
    entities: list[EntityId] = []
    seen_ent: set[EntityId] = set()
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for parts, eid in by_first.get(tokens[i], ()):  # longest first
            m = len(parts)
            if i + m <= n and tuple(tokens[i:i + m]) == parts:
                if eid not in seen_ent:
                    seen_ent.add(eid)
                    entities.append(eid)
                i += m
                matched = True
                break
        if not matched:
            i += 1

    relations: list[RelationId] = []
    seen_rel: set[RelationId] = set()
    for eid in entities:
        for rel, _tail in g._adjacency[eid]:
            if rel not in seen_rel:
                seen_rel.add(rel)
                relations.append(rel)
    return entities, relations
