"""Synthetic world generation, QA sampling, splits and SQuAD ingestion."""

import functools
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt5lab.data import (BadRatiosError, CATEGORIES, InfeasibleCountError,
                          OffsetError, SQUAD_V11_DEV_EXPECTED_COUNT,
                          SchemaError, SyntheticKGSpec, gen_qa,
                          gen_synthetic_kg, ingest_squad, load_qa_jsonl,
                          save_qa_jsonl, split)
from kgt5lab.kg import UnknownRelationError, from_named_triples, link_mentions
from kgt5lab.model import tokenize

FIXTURES = Path(__file__).parent / "fixtures"
SQUAD_FIXTURE = (FIXTURES / "squad_v11_fixture.json").read_bytes()


@functools.cache
def qa_world():
    """A small graph and the bytes of a two-record QA file over it."""
    kg = gen_synthetic_kg(SyntheticKGSpec(n_people=4, n_cities=2, n_countries=2,
                                          occupations=("weaver",), seed=0))[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "qa.jsonl"
        save_qa_jsonl(gen_qa(kg, {"hop1": 1, "hop2": 1}, seed=0), kg, path)
        return kg, path.read_bytes()


class TestGenSyntheticKg:
    def test_count_audit(self):
        spec = SyntheticKGSpec(n_people=4, n_cities=3, n_countries=2,
                               occupations=("weaver", "smith"), seed=1)
        kg, corpus = gen_synthetic_kg(spec)
        assert kg.n_entities == 4 + 3 + 2 + 2
        n_capitals = sum(1 for h, r, t in kg.named_triples() if r == "capital_of")
        assert len(kg.triples) == 4 + 4 + 3 + n_capitals
        assert 11 <= len(kg.triples) <= 13
        assert len(corpus) == len(kg.triples)

    def test_deterministic(self):
        spec = SyntheticKGSpec(n_people=6, n_cities=3, n_countries=2, seed=9)
        a = gen_synthetic_kg(spec)
        b = gen_synthetic_kg(spec)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_every_person_has_one_born_in_and_works_as(self):
        spec = SyntheticKGSpec(n_people=15, n_cities=5, n_countries=3, seed=2)
        kg, _ = gen_synthetic_kg(spec)
        for i in range(15):
            edges = [r for h, r, t in kg.named_triples() if h == f"person_{i}"]
            assert edges.count("born_in") == 1
            assert edges.count("works_as") == 1

    def test_every_city_located_each_country_at_most_one_capital(self):
        spec = SyntheticKGSpec(n_people=5, n_cities=7, n_countries=3, seed=4)
        kg, _ = gen_synthetic_kg(spec)
        named = kg.named_triples()
        for i in range(7):
            assert sum(1 for h, r, t in named
                       if h == f"city_{i}" and r == "located_in") == 1
        for k in range(3):
            assert sum(1 for h, r, t in named
                       if r == "capital_of" and t == f"country_{k}") <= 1

    def test_corpus_sentences_mention_their_triples(self):
        spec = SyntheticKGSpec(n_people=3, n_cities=2, n_countries=2, seed=0)
        kg, corpus = gen_synthetic_kg(spec)
        for (h, r, t), sentence in zip(kg.named_triples(), corpus):
            assert h in sentence
            assert t in sentence


def walk_answer(kg, gold_entities, gold_relations) -> set[str]:
    """Independent oracle: entity names reached from the gold entities by
    following the gold relations in order, scanning every triple per hop."""
    frontier = set(gold_entities)
    for rel in gold_relations:
        frontier = {t.tail for t in kg.triples
                    if t.head in frontier and t.relation == rel}
    return {kg.entity_names[e] for e in frontier}


class TestGenQa:
    def world(self, seed=0, people=20):
        spec = SyntheticKGSpec(n_people=people, n_cities=6, n_countries=3, seed=seed)
        return gen_synthetic_kg(spec)[0]

    def test_hop2_composition_by_construction(self):
        kg = self.world()
        examples = gen_qa(kg, {"hop2": 5}, seed=1)
        for ex in examples:
            assert ex.category == "hop2"
            person = kg.entity_names[ex.gold_entities[0]]
            assert person in ex.question
            assert ex.answer.startswith("country_")
            assert ex.answer in walk_answer(kg, ex.gold_entities, ex.gold_relations)

    def test_infeasible_count(self):
        kg = self.world(people=5)
        with pytest.raises(InfeasibleCountError):
            gen_qa(kg, {"hop1": 6}, seed=0)

    def test_graph_without_a_template_relation_raises_typed_error(self):
        kg, _ = from_named_triples([("person_0", "born_in", "city_0"),
                                    ("person_0", "works_as", "smith")])
        with pytest.raises(UnknownRelationError, match="located_in"):
            gen_qa(kg, {"hop1": 1}, seed=0)

    def test_linking_recovers_gold_entity_superset(self):
        kg = self.world()
        examples = gen_qa(kg, {"hop1": 10, "context": 10, "hop2": 10}, seed=3)
        for ex in examples:
            ents, _ = link_mentions(kg, tokenize(ex.question))
            assert set(ex.gold_entities) <= set(ents)

    def test_every_answer_walks_from_gold(self):
        kg = self.world(seed=5)
        examples = gen_qa(kg, {"hop1": 12, "context": 12, "hop2": 12}, seed=7)
        for ex in examples:
            assert ex.answer in walk_answer(kg, ex.gold_entities, ex.gold_relations)

    def test_context_has_distractor_sentence(self):
        kg = self.world()
        examples = gen_qa(kg, {"context": 8}, seed=2)
        for ex in examples:
            first, second = ex.question.split(" . ")
            subject = kg.entity_names[ex.gold_entities[0]]
            assert subject in second
            assert "was born in" in first
            assert subject not in first

    def test_deterministic(self):
        kg = self.world()
        a = gen_qa(kg, {"hop1": 5, "hop2": 5}, seed=11)
        b = gen_qa(kg, {"hop1": 5, "hop2": 5}, seed=11)
        assert a == b

    def test_sampling_without_replacement_per_category(self):
        kg = self.world()
        examples = gen_qa(kg, {"hop1": 15}, seed=0)
        subjects = [tuple(ex.gold_entities) for ex in examples]
        assert len(set(subjects)) == len(subjects)


class TestSplit:
    def make_dataset(self, n_per=(40, 30, 30)):
        kg = gen_synthetic_kg(SyntheticKGSpec(n_people=50, n_cities=8,
                                              n_countries=4, seed=0))[0]
        counts = dict(zip(CATEGORIES, n_per))
        return gen_qa(kg, counts, seed=0)

    def test_stratified_counts(self):
        ds = self.make_dataset((40, 30, 30))
        train, test = split(ds, (0.8, 0.2), seed=0)
        by_cat = lambda items, c: sum(1 for e in items if e.category == c)
        assert by_cat(test, "hop1") == 8
        assert by_cat(test, "context") == 6
        assert by_cat(test, "hop2") == 6
        assert len(train) == 80

    def test_bad_ratios(self):
        ds = self.make_dataset((5, 5, 5))
        with pytest.raises(BadRatiosError):
            split(ds, (0.5, 0.4), seed=0)
        with pytest.raises(BadRatiosError):
            split(ds, (1.2, -0.2), seed=0)

    def test_deterministic_and_disjoint_union(self):
        ds = self.make_dataset((10, 10, 10))
        a_train, a_test = split(ds, (0.7, 0.3), seed=5)
        b_train, b_test = split(ds, (0.7, 0.3), seed=5)
        assert a_train == b_train
        assert a_test == b_test
        key = lambda e: (e.question, e.answer)
        train_keys = {key(e) for e in a_train}
        test_keys = {key(e) for e in a_test}
        assert not (train_keys & test_keys)
        assert len(a_train) + len(a_test) == len(ds)
        assert {key(e) for e in ds} == train_keys | test_keys


class TestQaJsonl:
    def test_round_trip(self, tmp_path):
        kg = gen_synthetic_kg(SyntheticKGSpec(n_people=8, n_cities=3,
                                              n_countries=2, seed=0))[0]
        ds = gen_qa(kg, {"hop1": 4, "hop2": 4}, seed=0)
        path = tmp_path / "qa.jsonl"
        save_qa_jsonl(ds, kg, path)
        loaded = load_qa_jsonl(path, kg)
        assert loaded == ds

    def test_failed_write_keeps_previous_file(self, tmp_path):
        kg = gen_synthetic_kg(SyntheticKGSpec(n_people=8, n_cities=3,
                                              n_countries=2, seed=0))[0]
        ds = gen_qa(kg, {"hop1": 4}, seed=0)
        path = tmp_path / "qa.jsonl"
        save_qa_jsonl(ds, kg, path)
        before = path.read_bytes()
        # the first lines are written before the out-of-range gold id fails
        bad = ds[:2] + [replace(ds[2], gold_entities=[kg.n_entities])]
        with pytest.raises(IndexError):
            save_qa_jsonl(bad, kg, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


    @pytest.mark.parametrize("bad", [
        b"{",  # not JSON
        b"[1, 2]",  # not an object
        b"\xff{}",  # not UTF-8
        b'{"answer": "x", "category": "hop1", "gold_entities": [], "gold_relations": []}',
        b'{"question": 3, "answer": "x", "category": "hop1", "gold_entities": [], '
        b'"gold_relations": []}',
        b'{"question": "q", "answer": "x", "category": "hop1", "gold_entities": "p", '
        b'"gold_relations": []}',
        b'{"question": "q", "answer": "x", "category": "hop1", "gold_entities": [1], '
        b'"gold_relations": []}',
        b'{"question": "q", "answer": "x", "category": "hop1", "gold_entities": ["nobody"], '
        b'"gold_relations": []}',
        b'{"question": "q", "answer": "x", "category": "hop1", "gold_entities": [], '
        b'"gold_relations": ["no_such_relation"]}',
        b'{"question": "q", "answer": "x", "category": "hop3", "gold_entities": [], '
        b'"gold_relations": []}',
    ], ids=["not-json", "not-object", "not-utf8", "no-question", "int-question",
            "names-not-list", "int-name", "unknown-entity", "unknown-relation",
            "unknown-category"])
    def test_malformed_record_names_its_line(self, tmp_path, bad):
        kg, blob = qa_world()
        path = tmp_path / "qa.jsonl"
        path.write_bytes(blob.splitlines(keepends=True)[0] + b"\n" + bad + b"\n")
        with pytest.raises(SchemaError) as exc:
            load_qa_jsonl(path, kg)
        assert str(exc.value).startswith("line 3: $")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_byte_mutants_load_or_raise_schema_error(self, data):
        kg, blob = qa_world()
        mutant = bytearray(blob)
        mutant[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "qa.jsonl"
            path.write_bytes(bytes(mutant))
            try:
                load_qa_jsonl(path, kg)
            except SchemaError:
                pass


def squad_to_json(examples) -> dict:
    """Re-serialize parsed examples: consecutive same-context examples share
    one paragraph, all under a single article."""
    paragraphs = []
    for ex in examples:
        qa = {"id": ex.id, "question": ex.question,
              "answers": [{"text": a.text, "answer_start": a.answer_start}
                          for a in ex.answers]}
        if paragraphs and paragraphs[-1]["context"] == ex.context:
            paragraphs[-1]["qas"].append(qa)
        else:
            paragraphs.append({"context": ex.context, "qas": [qa]})
    return {"data": [{"title": "", "paragraphs": paragraphs}], "version": "1.1"}


class TestIngestSquad:
    def test_fixture_loads_with_valid_offsets(self):
        examples = ingest_squad(FIXTURES / "squad_v11_fixture.json")
        assert len(examples) == 3
        assert examples[0].id == "q1"
        assert examples[0].answers[0].text == "Paris"
        assert examples[2].answers[1].text == "two Nobel Prizes"

    def test_off_by_one_offset(self, tmp_path):
        doc = json.loads((FIXTURES / "squad_v11_fixture.json").read_text())
        doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(OffsetError) as exc:
            ingest_squad(bad)
        assert exc.value.qa_id == "q1"

    def test_missing_field_schema_error_with_path(self, tmp_path):
        doc = json.loads((FIXTURES / "squad_v11_fixture.json").read_text())
        del doc["data"][0]["paragraphs"][1]["qas"][0]["question"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            ingest_squad(bad)
        assert "paragraphs[1].qas[0].question" in str(exc.value)

    def test_empty_answers_rejected_for_v11(self, tmp_path):
        doc = json.loads((FIXTURES / "squad_v11_fixture.json").read_text())
        doc["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            ingest_squad(bad)

    @pytest.mark.parametrize("text, start, error", [
        ("abc", -7, OffsetError), ("abc", True, SchemaError), ("abc", 8, OffsetError),
        ("abc", 0.0, SchemaError), ("", 7, SchemaError)])
    def test_answer_is_nonempty_text_at_a_nonnegative_int_offset(self, tmp_path, text, start,
                                                                 error):
        doc = {"data": [{"paragraphs": [{"context": "abc def", "qas": [
            {"id": "q", "question": "?", "answers": [{"text": text,
                                                     "answer_start": start}]}]}]}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(error):
            ingest_squad(bad)

    @pytest.mark.parametrize("blob", [b'{"data": [}', SQUAD_FIXTURE.replace(b"Paris", b"P\xe9ris"),
                                      b"\xef\xbb\xbf" + SQUAD_FIXTURE],
                             ids=["not-json", "latin-1", "utf-8-bom"])
    def test_undecodable_or_invalid_json_is_schema_error(self, tmp_path, blob):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        with pytest.raises(SchemaError) as exc:
            ingest_squad(bad)
        assert exc.value.json_path == "$"

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(SQUAD_FIXTURE) - 1), st.integers(0, 255))
    def test_one_byte_mutants_load_or_raise_typed_errors(self, pos, value):
        mutant = bytearray(SQUAD_FIXTURE)
        mutant[pos] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "squad.json"
            path.write_bytes(bytes(mutant))
            try:
                ingest_squad(path)
            except (SchemaError, OffsetError):
                pass

    def test_reserialize_reparse_round_trip(self, tmp_path):
        examples = ingest_squad(FIXTURES / "squad_v11_fixture.json")
        out = tmp_path / "round.json"
        out.write_text(json.dumps(squad_to_json(examples)))
        again = ingest_squad(out)
        assert again == examples

    def test_file_order_preserved(self):
        examples = ingest_squad(FIXTURES / "squad_v11_fixture.json")
        assert [e.id for e in examples] == ["q1", "q2", "q3"]

    @pytest.mark.skipif(not os.environ.get("SQUAD_V11_DEV_PATH"),
                        reason="official dev file not available offline")
    def test_official_dev_count_regression(self):
        examples = ingest_squad(os.environ["SQUAD_V11_DEV_PATH"])
        assert len(examples) == SQUAD_V11_DEV_EXPECTED_COUNT
