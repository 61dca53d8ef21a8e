"""Knowledge-graph data model tests."""

import math

import numpy as np
import pytest

from kgt5lab.kg import (InvalidFractionError, KnowledgeGraph,
                        MalformedLineError, UnknownEntityError,
                        from_named_triples, link_mentions, load_triples_tsv,
                        neighbors, save_triples_tsv, subgraph_fraction)


def write(tmp_path, text, name="kg.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadTriplesTsv:
    def test_basic_load(self, tmp_path):
        g, summary = load_triples_tsv(write(tmp_path, "a\tr\tb\nb\tr\tc\n"))
        assert g.n_entities == 3
        assert g.n_relations == 1
        assert len(g.triples) == 2
        assert summary.n_duplicates == 0

    def test_duplicate_dropped_and_reported(self, tmp_path):
        g, summary = load_triples_tsv(write(tmp_path, "a\tr\tb\na\tr\tb\n"))
        assert len(g.triples) == 1
        assert summary.n_duplicates == 1

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(MalformedLineError) as exc:
            load_triples_tsv(write(tmp_path, "a\tb\n"))
        assert exc.value.line_number == 1

    def test_empty_field(self, tmp_path):
        with pytest.raises(MalformedLineError) as exc:
            load_triples_tsv(write(tmp_path, "a\tr\tb\nx\t\ty\n"))
        assert exc.value.line_number == 2

    def test_comment_lines_ignored(self, tmp_path):
        g, _ = load_triples_tsv(write(tmp_path, "# header\na\tr\tb\n"))
        assert len(g.triples) == 1

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_triples_tsv(tmp_path / "nope.tsv")

    def test_names_normalized_nfc_lowercase(self, tmp_path):
        g, _ = load_triples_tsv(write(tmp_path, "Paris\tin\tFRANCE\nparis\tin\tfrance\n"))
        assert g.n_entities == 2
        assert len(g.triples) == 1

    def test_first_appearance_id_order(self, tmp_path):
        g, _ = load_triples_tsv(write(tmp_path, "a\tr\tb\nb\ts\tc\n"))
        assert g.entity_names == ("a", "b", "c")
        assert g.relation_names == ("r", "s")

    def test_round_trip(self, tmp_path):
        g, _ = load_triples_tsv(write(tmp_path, "a\tr\tb\nb\tr\tc\na\ts\tc\n"))
        out = tmp_path / "out.tsv"
        save_triples_tsv(g, out)
        g2, _ = load_triples_tsv(out)
        assert g2 == g


class TestSubgraphFraction:
    def make_graph(self, n=100):
        named = [(f"e{i}", "r", f"e{(i + 1) % n}") for i in range(n)]
        g, _ = from_named_triples(named)
        return g

    def test_half_fraction_count_and_incidence(self):
        # brute-force audit over the output graph
        g = self.make_graph(100)
        sub = subgraph_fraction(g, 0.5, seed=7)
        assert len(sub.triples) == 50
        incident = set()
        for t in sub.triples:
            incident.add(t.head)
            incident.add(t.tail)
        assert incident == set(range(sub.n_entities))

    @pytest.mark.parametrize("fraction", [0.1, 0.33, 0.77, 1.0])
    def test_ceil_count_law(self, fraction):
        g = self.make_graph(37)
        sub = subgraph_fraction(g, fraction, seed=3)
        assert len(sub.triples) == math.ceil(fraction * 37)

    def test_full_fraction_is_identity(self):
        g = self.make_graph(20)
        sub = subgraph_fraction(g, 1.0, seed=123)
        assert set(sub.named_triples()) == set(g.named_triples())

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.2])
    def test_invalid_fraction(self, fraction):
        g = self.make_graph(10)
        with pytest.raises(InvalidFractionError):
            subgraph_fraction(g, fraction, seed=0)

    def test_deterministic_in_seed(self):
        g = self.make_graph(60)
        a = subgraph_fraction(g, 0.4, seed=11)
        b = subgraph_fraction(g, 0.4, seed=11)
        c = subgraph_fraction(g, 0.4, seed=12)
        assert a == b
        assert a != c  # different seeds may (and here do) differ


class TestNeighbors:
    def test_insertion_order(self):
        g, _ = from_named_triples([("a", "r", "b"), ("a", "s", "c")])
        assert neighbors(g, g.entity_id("a")) == [
            (g.relation_id("r"), g.entity_id("b")),
            (g.relation_id("s"), g.entity_id("c"))]

    def test_no_outgoing_edges(self):
        g, _ = from_named_triples([("a", "r", "b")])
        assert neighbors(g, g.entity_id("b")) == []

    def test_out_of_range(self):
        g, _ = from_named_triples([("a", "r", "b")])
        with pytest.raises(UnknownEntityError):
            neighbors(g, g.n_entities)

    def test_count_matches_head_occurrences(self):
        rng = np.random.default_rng(5)
        named = [(f"e{rng.integers(8)}", f"r{rng.integers(3)}", f"e{rng.integers(8)}")
                 for _ in range(40)]
        g, _ = from_named_triples(named)
        for e in range(g.n_entities):
            expected = sum(1 for t in g.triples if t.head == e)
            assert len(neighbors(g, e)) == expected


def brute_force_mentions(g: KnowledgeGraph, tokens):
    """Independent oracle: enumerate all matching (start, length) windows,
    then take them longest-first at each position left to right."""
    matches = []
    for start in range(len(tokens)):
        for end in range(start + 1, len(tokens) + 1):
            name = " ".join(tokens[start:end])
            if g.has_entity(name):
                matches.append((start, end - start, g.entity_id(name)))
    matches.sort(key=lambda m: (m[0], -m[1]))
    consumed = set()
    picked = []
    for start, length, eid in matches:
        span = set(range(start, start + length))
        if span & consumed:
            continue
        consumed |= span
        picked.append(eid)
    return picked


class TestLinkMentions:
    def test_exact_match_with_relation(self):
        g, _ = from_named_triples([("marie curie", "born_in", "warsaw")])
        ents, rels = link_mentions(g, "where was marie curie born".split())
        assert ents == [g.entity_id("marie curie")]
        assert rels == [g.relation_id("born_in")]

    def test_no_match(self):
        g, _ = from_named_triples([("a", "r", "b")])
        assert link_mentions(g, ["nothing", "here"]) == ([], [])

    def test_longest_match_wins(self):
        g, _ = from_named_triples([("new york", "r", "x"), ("york", "r", "y")])
        tokens = "new york city".split()
        ents, _ = link_mentions(g, tokens)
        assert ents == [g.entity_id("new york")]
        assert ents == brute_force_mentions(g, tokens)

    def test_matches_brute_force_on_random_worlds(self):
        rng = np.random.default_rng(9)
        words = ["alpha", "beta", "gamma", "delta", "eps"]
        for trial in range(30):
            n_ent = int(rng.integers(1, 6))
            names = set()
            while len(names) < n_ent:
                k = int(rng.integers(1, 3))
                names.add(" ".join(rng.choice(words, size=k)))
            named = [(n, "r", "sink") for n in names]
            g, _ = from_named_triples(named)
            tokens = list(rng.choice(words, size=int(rng.integers(1, 10))))
            ents, _ = link_mentions(g, tokens)
            oracle = brute_force_mentions(g, tokens)
            seen = set()
            deduped = [e for e in oracle if not (e in seen or seen.add(e))]
            assert ents == deduped, (tokens, sorted(names))

    def test_linked_names_are_contiguous_subsequences(self):
        g, _ = from_named_triples([("big apple", "r", "x"), ("apple", "r", "y")])
        tokens = "i love the big apple and apple pie".split()
        ents, _ = link_mentions(g, tokens)
        for e in ents:
            parts = g.entity_names[e].split()
            found = any(tokens[i:i + len(parts)] == parts
                        for i in range(len(tokens)))
            assert found

    def test_relations_first_discovery_order_deduped(self):
        g, _ = from_named_triples([("a", "r", "b"), ("a", "s", "c"),
                                   ("b", "r", "c"), ("b", "t", "a")])
        ents, rels = link_mentions(g, ["a", "b"])
        assert ents == [g.entity_id("a"), g.entity_id("b")]
        assert rels == [g.relation_id("r"), g.relation_id("s"), g.relation_id("t")]

    def test_repeated_calls_and_graphs_with_the_same_names_agree(self):
        named = [("new york", "r", "x"), ("york", "s", "y"), ("x", "t", "york")]
        tokens = "from new york to york and x".split()
        g, _ = from_named_triples(named)
        first = link_mentions(g, tokens)
        assert first == ([g.entity_id("new york"), g.entity_id("york"),
                          g.entity_id("x")],
                         [g.relation_id("r"), g.relation_id("s"), g.relation_id("t")])
        assert link_mentions(g, tokens) == first
        assert link_mentions(g, ["york"]) == ([g.entity_id("york")],
                                              [g.relation_id("s")])
        twin, _ = from_named_triples(named)
        assert link_mentions(twin, tokens) == first
        other, _ = from_named_triples([("to", "r", "and")])
        assert link_mentions(other, tokens) == ([other.entity_id("to"),
                                                 other.entity_id("and")],
                                                [other.relation_id("r")])
