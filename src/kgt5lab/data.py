"""Synthetic KG/QA world generation and SQuAD v1.1 ingestion.

The synthetic world has people, cities, countries and occupations connected
by four relation types.  Every triple gets one templated corpus sentence
(pretraining text), and three QA categories probe one-edge recall (hop1),
distractor-resistant reading (context) and two-edge composition (hop2).
Questions always mention the subject's surface form verbatim, so exact
mention linking recovers the gold entities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import seed_seq
from .kg import KnowledgeGraph, atomic_write, from_named_triples

BORN_IN = "born_in"
LOCATED_IN = "located_in"
WORKS_AS = "works_as"
CAPITAL_OF = "capital_of"

DEFAULT_OCCUPATIONS = ("teacher", "doctor", "farmer", "singer", "pilot",
                       "chef", "lawyer", "nurse", "painter", "miner")

CATEGORIES = ("hop1", "context", "hop2")


class InfeasibleCountError(ValueError):
    def __init__(self, category: str, requested: int, available: int):
        self.category = category
        super().__init__(f"category {category}: requested {requested}, "
                         f"only {available} available")


class BadRatiosError(ValueError):
    pass


class SchemaError(ValueError):
    def __init__(self, json_path: str, message: str = "missing or invalid field"):
        self.json_path = json_path
        super().__init__(f"{json_path}: {message}")


class OffsetError(ValueError):
    def __init__(self, qa_id: str):
        self.qa_id = qa_id
        super().__init__(f"answer_start does not match answer text for qa {qa_id!r}")


@dataclass
class SyntheticKGSpec:
    n_people: int = 240
    n_cities: int = 24
    n_countries: int = 12
    occupations: tuple[str, ...] = DEFAULT_OCCUPATIONS
    seed: int = 0

    def __post_init__(self):
        if min(self.n_people, self.n_cities, self.n_countries) < 1:
            raise ValueError("entity counts must be >= 1")
        if not self.occupations:
            raise ValueError("need at least one occupation")


@dataclass
class QAExample:
    question: str
    answer: str
    category: str
    gold_entities: list[int]
    gold_relations: list[int]


@dataclass
class SquadAnswer:
    text: str
    answer_start: int


@dataclass
class SquadExample:
    id: str
    context: str
    question: str
    answers: list[SquadAnswer]


_SENTENCES = {
    BORN_IN: "{h} was born in {t}",
    LOCATED_IN: "{h} is located in {t}",
    WORKS_AS: "{h} works as {t}",
    CAPITAL_OF: "{h} is the capital of {t}",
}


def gen_synthetic_kg(spec: SyntheticKGSpec) -> tuple[KnowledgeGraph, list[str]]:
    """Seeded world: every person has exactly one birth city and occupation,
    every city one country, every country with cities one capital.  Returns
    the graph and one corpus sentence per triple."""
    rng = np.random.default_rng(seed_seq(spec.seed, "world"))
    people = [f"person_{i}" for i in range(spec.n_people)]
    cities = [f"city_{i}" for i in range(spec.n_cities)]
    countries = [f"country_{i}" for i in range(spec.n_countries)]
    occupations = list(spec.occupations)

    birth_city = rng.integers(0, spec.n_cities, size=spec.n_people)
    occupation = rng.integers(0, len(occupations), size=spec.n_people)
    city_country = rng.integers(0, spec.n_countries, size=spec.n_cities)

    named: list[tuple[str, str, str]] = []
    for i, p in enumerate(people):
        named.append((p, BORN_IN, cities[birth_city[i]]))
    for i, p in enumerate(people):
        named.append((p, WORKS_AS, occupations[occupation[i]]))
    for i, c in enumerate(cities):
        named.append((c, LOCATED_IN, countries[city_country[i]]))
    for k in range(spec.n_countries):
        local = [i for i in range(spec.n_cities) if city_country[i] == k]
        if local:
            capital = local[int(rng.integers(0, len(local)))]
            named.append((cities[capital], CAPITAL_OF, countries[k]))

    graph, n_dup = from_named_triples(named)
    assert n_dup == 0
    corpus = [_SENTENCES[r].format(h=h, t=t) for h, r, t in graph.named_triples()]
    return graph, corpus


def _person_facts(kg: KnowledgeGraph) -> dict[int, dict[str, int]]:
    """entity id -> {relation name: tail id} for person-style entities."""
    facts: dict[int, dict[str, int]] = {}
    rel_names = kg.relation_names
    for e in range(kg.n_entities):
        out = {}
        for rel, tail in kg._adjacency[e]:
            out[rel_names[rel]] = tail
        if out:
            facts[e] = out
    return facts


def gen_qa(kg: KnowledgeGraph, per_category: dict[str, int],
           seed: int) -> list[QAExample]:
    """Template QA over the generated world, sampled without replacement per
    category.  hop2 composes born_in with located_in."""
    facts = _person_facts(kg)
    names = kg.entity_names
    born = kg.relation_id(BORN_IN)
    works = kg.relation_id(WORKS_AS)
    located = kg.relation_id(LOCATED_IN)

    hop1_cands = sorted(e for e, f in facts.items() if BORN_IN in f)
    ctx_cands = sorted(e for e, f in facts.items() if WORKS_AS in f)
    distractors = hop1_cands  # distractor facts are birth-city sentences
    hop2_cands = sorted(e for e, f in facts.items()
                        if BORN_IN in f and LOCATED_IN in facts.get(f[BORN_IN], {}))
    if len(distractors) < 2:
        ctx_cands = []

    available = {"hop1": hop1_cands, "context": ctx_cands, "hop2": hop2_cands}
    examples: list[QAExample] = []
    for category in CATEGORIES:
        count = per_category.get(category, 0)
        cands = available[category]
        if count > len(cands):
            raise InfeasibleCountError(category, count, len(cands))
        if count == 0:
            continue
        rng = np.random.default_rng(seed_seq(seed, "qa", category))
        chosen = rng.choice(len(cands), size=count, replace=False)
        for ci in chosen:
            p = cands[int(ci)]
            if category == "hop1":
                city = facts[p][BORN_IN]
                examples.append(QAExample(
                    question=f"where was {names[p]} born",
                    answer=names[city], category="hop1",
                    gold_entities=[p], gold_relations=[born]))
            elif category == "context":
                pool = [d for d in distractors if d != p]
                d = pool[int(rng.integers(0, len(pool)))]
                d_city = facts[d][BORN_IN]
                occ = facts[p][WORKS_AS]
                examples.append(QAExample(
                    question=(f"{names[d]} was born in {names[d_city]} . "
                              f"what does {names[p]} work as"),
                    answer=names[occ], category="context",
                    gold_entities=[p], gold_relations=[works]))
            else:
                city = facts[p][BORN_IN]
                country = facts[city][LOCATED_IN]
                examples.append(QAExample(
                    question=f"which country was {names[p]} born in",
                    answer=names[country], category="hop2",
                    gold_entities=[p], gold_relations=[born, located]))
    return examples


def split(dataset: Sequence[QAExample], ratios: tuple[float, float],
          seed: int) -> tuple[list[QAExample], list[QAExample]]:
    """Seeded shuffle then contiguous split, stratified by category."""
    train_ratio, test_ratio = ratios
    if train_ratio <= 0 or test_ratio <= 0:
        raise BadRatiosError(f"ratios must be positive, got {ratios}")
    if abs(train_ratio + test_ratio - 1.0) > 1e-9:
        raise BadRatiosError(f"ratios must sum to 1.0, got {ratios}")
    rng = np.random.default_rng(seed_seq(seed, "split"))
    train: list[QAExample] = []
    test: list[QAExample] = []
    categories = []
    for ex in dataset:
        if ex.category not in categories:
            categories.append(ex.category)
    for category in categories:
        items = [ex for ex in dataset if ex.category == category]
        order = rng.permutation(len(items))
        n_train = round(train_ratio * len(items))
        train.extend(items[i] for i in order[:n_train])
        test.extend(items[i] for i in order[n_train:])
    return train, test


# ---------------------------------------------------------------------------
# QA JSON-lines export (gold ids written as names so files survive
# re-interning)
# ---------------------------------------------------------------------------

def save_qa_jsonl(dataset: Sequence[QAExample], kg: KnowledgeGraph, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for ex in dataset:
            fh.write(json.dumps({
                "question": ex.question,
                "answer": ex.answer,
                "category": ex.category,
                "gold_entities": [kg.entity_names[e] for e in ex.gold_entities],
                "gold_relations": [kg.relation_names[r] for r in ex.gold_relations],
            }, sort_keys=True) + "\n")


def _gold_ids(rec, key: str, json_path: str, lookup) -> list[int]:
    names = _require(rec, key, json_path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{json_path}.{key}", "expected a list of names")
    try:
        return [lookup(n) for n in names]
    except LookupError as exc:  # UnknownEntityError or UnknownRelationError
        raise SchemaError(f"{json_path}.{key}", f"unknown name {exc}") from exc


def load_qa_jsonl(path, kg: KnowledgeGraph) -> list[QAExample]:
    """Read ``save_qa_jsonl`` output; a malformed record raises SchemaError
    naming its line (counted from 1)."""
    out: list[QAExample] = []
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            where = f"line {n}: $"
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SchemaError(where, f"not a UTF-8 JSON record ({exc})") from exc
            text = [_require(rec, key, where) for key in ("question", "answer", "category")]
            if not all(isinstance(t, str) for t in text):
                raise SchemaError(where, "question, answer and category must be strings")
            if text[2] not in CATEGORIES:
                raise SchemaError(f"{where}.category", f"unknown category {text[2]!r}")
            out.append(QAExample(*text,
                                 gold_entities=_gold_ids(rec, "gold_entities", where,
                                                         kg.entity_id),
                                 gold_relations=_gold_ids(rec, "gold_relations", where,
                                                          kg.relation_id)))
    return out


# ---------------------------------------------------------------------------
# SQuAD v1.1 ingestion
# ---------------------------------------------------------------------------

def _require(obj, key, json_path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{json_path}.{key}")
    return obj[key]


def ingest_squad(path) -> list[SquadExample]:
    """Flatten SQuAD v1.1 JSON to one example per qa, validating offsets.

    Input that is not UTF-8 JSON or breaks the schema (such as an empty
    answer text) raises SchemaError;
    an answer whose ``answer_start`` (a non-negative int, not a bool) does
    not locate its text in the context raises OffsetError."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not a UTF-8 JSON document ({exc})") from exc
    data = _require(doc, "data", "$")
    if not isinstance(data, list):
        raise SchemaError("$.data", "expected a list")
    out: list[SquadExample] = []
    for ai, article in enumerate(data):
        apath = f"$.data[{ai}]"
        paragraphs = _require(article, "paragraphs", apath)
        if not isinstance(paragraphs, list):
            raise SchemaError(f"{apath}.paragraphs", "expected a list")
        for pi, para in enumerate(paragraphs):
            ppath = f"{apath}.paragraphs[{pi}]"
            context = _require(para, "context", ppath)
            if not isinstance(context, str):
                raise SchemaError(f"{ppath}.context", "expected a string")
            qas = _require(para, "qas", ppath)
            if not isinstance(qas, list):
                raise SchemaError(f"{ppath}.qas", "expected a list")
            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                qa_id = _require(qa, "id", qpath)
                question = _require(qa, "question", qpath)
                if not isinstance(qa_id, str) or not isinstance(question, str):
                    raise SchemaError(qpath, "id and question must be strings")
                answers = _require(qa, "answers", qpath)
                if not isinstance(answers, list) or not answers:
                    raise SchemaError(f"{qpath}.answers", "v1.1 answers must be nonempty")
                parsed = []
                for ki, ans in enumerate(answers):
                    kpath = f"{qpath}.answers[{ki}]"
                    text = _require(ans, "text", kpath)
                    start = _require(ans, "answer_start", kpath)
                    if not isinstance(text, str) or not text or type(start) is not int:
                        raise SchemaError(kpath, "bad answer types or empty text")
                    if start < 0 or context[start:start + len(text)] != text:
                        raise OffsetError(qa_id)
                    parsed.append(SquadAnswer(text=text, answer_start=start))
                out.append(SquadExample(id=qa_id, context=context,
                                        question=question, answers=parsed))
    return out


# Example count of the official SQuAD v1.1 dev file, pinned as a regression
# constant; the matching test is skipped when the file is not present.
SQUAD_V11_DEV_EXPECTED_COUNT = 10570
