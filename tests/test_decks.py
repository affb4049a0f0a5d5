"""Deck computation and deck algebra.

The reference deck oracle below groups vertex subsets by pairwise
isomorphism through networkx, entirely independent of the package's
canonical labeling.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from deckcensus import canon
from deckcensus.canon import canonical_key
from deckcensus.decks import (
    Deck,
    UnrealizableDeckError,
    compute_deck,
    connected_card_count,
    count_j_vertices,
    deck_equal,
    derive_subdeck,
    edge_count_from_deck,
    parse_deck,
    phi_vector,
    serialize_deck,
)
from deckcensus.graphs import (
    Graph,
    claw_subdivided,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    induced_subgraph,
    named_graph,
    path_graph,
)

from .helpers import permuted, random_graph


def reference_deck_sizes(g: Graph, k: int) -> list[int]:
    """Multiset of class multiplicities via the networkx isomorphism oracle."""
    cards = []
    for subset in combinations(range(g.n), k):
        h = nx.Graph()
        h.add_nodes_from(subset)
        h.add_edges_from(
            (u, v) for u, v in g.edges() if u in subset and v in subset
        )
        cards.append(h)
    classes: list[tuple[nx.Graph, int]] = []
    for card in cards:
        for i, (rep, mult) in enumerate(classes):
            if nx.is_isomorphic(card, rep):
                classes[i] = (rep, mult + 1)
                break
        else:
            classes.append((card, 1))
    return sorted(mult for _, mult in classes)


K3 = complete_graph(3)
C5K1 = named_graph("cycle5+empty1")
KPP = claw_subdivided(2)  # claw with two subdivided edges


def test_deck_of_triangle():
    deck = compute_deck(K3, 2)
    assert deck.entries == {canonical_key(path_graph(2)): 3}


def test_golden_deck_cycle5_plus_isolated():
    deck = compute_deck(C5K1, 3)
    expected = {
        canonical_key(path_graph(3)): 5,
        canonical_key(disjoint_union(path_graph(2), empty_graph(1))): 10,
        canonical_key(empty_graph(3)): 5,
    }
    assert deck.entries == expected


def test_deck_of_path3():
    deck = compute_deck(path_graph(3), 2)
    assert deck.entries == {
        canonical_key(path_graph(2)): 2,
        canonical_key(empty_graph(2)): 1,
    }


def test_total_multiplicity_and_reference_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        k = rng.randint(1, g.n)
        deck = compute_deck(g, k)
        assert sum(deck.entries.values()) == comb(g.n, k)
        if g.n <= 6:
            assert sorted(deck.entries.values()) == reference_deck_sizes(g, k)


def test_cards_match_induced_subgraph_oracle():
    # every k-subset taken one at a time, cold memo and then warm
    rng = random.Random(43)
    for n in range(1, 10):
        for _ in range(3):
            g = random_graph(rng, n)
            for k in range(1, n + 1):
                oracle = Counter(
                    canonical_key(induced_subgraph(g, subset))
                    for subset in combinations(range(n), k)
                )
                canon.clear_cache()
                assert compute_deck(g, k).entries == oracle
                assert compute_deck(g, k).entries == oracle


def test_clear_cache_is_transparent_for_decks():
    rng = random.Random(47)
    graphs = [random_graph(rng, rng.randint(2, 8)) for _ in range(30)]
    cases = [(g, rng.randint(2, g.n)) for g in graphs]

    def decks_and_subdecks():
        out = []
        for g, k in cases:
            deck = compute_deck(g, k)
            out.append((deck, derive_subdeck(deck)))
        return out

    warm = decks_and_subdecks()
    canon.clear_cache()
    assert not canon._memo
    assert decks_and_subdecks() == warm


def test_deck_is_relabeling_invariant():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        k = rng.randint(1, g.n)
        h = permuted(g, rng.sample(range(g.n), g.n))
        assert deck_equal(compute_deck(g, k), compute_deck(h, k))


def test_deck_equality_of_sharpness_pair():
    assert deck_equal(compute_deck(C5K1, 3), compute_deck(KPP, 3))
    assert not deck_equal(compute_deck(C5K1, 4), compute_deck(KPP, 4))


def test_deck_equal_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        deck_equal(compute_deck(K3, 2), compute_deck(path_graph(3), 3))
    with pytest.raises(ValueError):
        deck_equal(compute_deck(K3, 2), compute_deck(path_graph(4), 2))


def test_compute_deck_range_errors():
    with pytest.raises(ValueError):
        compute_deck(K3, 0)
    with pytest.raises(ValueError):
        compute_deck(K3, 4)


def test_derive_subdeck_examples():
    sub = derive_subdeck(compute_deck(C5K1, 3))
    assert sub.entries == {
        canonical_key(path_graph(2)): 5,
        canonical_key(empty_graph(2)): 10,
    }
    assert derive_subdeck(compute_deck(K3, 2)).entries == {"@": 3}
    twice = derive_subdeck(derive_subdeck(compute_deck(KPP, 3)))
    assert twice.entries == {"@": 6}


def test_derive_subdeck_matches_direct_computation():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        k = rng.randint(2, g.n)
        assert derive_subdeck(compute_deck(g, k)) == compute_deck(g, k - 1)


def test_derive_subdeck_flags_unrealizable():
    # three triangles and one path cannot be the 3-deck of any 4-vertex graph
    entries = {canonical_key(complete_graph(3)): 3, canonical_key(path_graph(3)): 1}
    fake = Deck(3, 4, entries)
    with pytest.raises(UnrealizableDeckError, match="not a realizable deck"):
        derive_subdeck(fake)


def test_count_j_vertices_goldens():
    deck = compute_deck(C5K1, 3)
    assert count_j_vertices(deck, 2) == 5
    assert count_j_vertices(deck, 1) == 30
    assert count_j_vertices(deck, 0) == 25
    with pytest.raises(ValueError):
        count_j_vertices(deck, 3)


def test_phi_vector_goldens():
    assert phi_vector(compute_deck(C5K1, 3)) == (25, 30, 5)
    assert phi_vector(compute_deck(K3, 2)) == (0, 6)
    assert sum(phi_vector(compute_deck(C5K1, 3))) == 3 * comb(6, 3)


def test_phi_vector_normalization_property():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        k = rng.randint(1, g.n)
        assert sum(phi_vector(compute_deck(g, k))) == k * comb(g.n, k)


def test_edge_count_from_deck():
    assert edge_count_from_deck(compute_deck(C5K1, 3)) == 5
    assert edge_count_from_deck(compute_deck(KPP, 3)) == 5
    four = compute_deck(disjoint_union(complete_graph(4), empty_graph(2)), 4)
    assert edge_count_from_deck(four) == 6


def test_connected_card_count():
    assert connected_card_count(compute_deck(path_graph(7), 4)) == 4
    assert connected_card_count(compute_deck(C5K1, 3)) == 5
    assert connected_card_count(compute_deck(empty_graph(4), 2)) == 0


def test_complement_duality():
    rng = random.Random(47)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        k = rng.randint(1, g.n)
        comp_deck = compute_deck(complement(g), k)
        flipped = {}
        for key, mult in compute_deck(g, k).entries.items():
            flipped_key = canonical_key(complement(from_graph6(key)))
            flipped[flipped_key] = flipped.get(flipped_key, 0) + mult
        assert comp_deck.entries == flipped


def test_digest_is_stable_and_screens_first():
    a = compute_deck(C5K1, 3)
    b = compute_deck(KPP, 3)
    assert a.digest == b.digest
    assert a.digest_hex == b.digest_hex
    assert len(a.digest_hex) == 32
    c = compute_deck(cycle_graph(6), 3)
    assert c.digest != a.digest


def test_deck_validation():
    with pytest.raises(ValueError):
        Deck(2, 3, {"A_": 2})  # total 2 != C(3,2)
    with pytest.raises(ValueError):
        Deck(2, 3, {"Bw": 3})  # card on wrong vertex count
    with pytest.raises(ValueError):
        Deck(2, 3, {"A_": 4, "A?": -1})


def test_serialization_roundtrip():
    deck = compute_deck(C5K1, 3)
    text = serialize_deck(deck)
    lines = text.splitlines()
    assert lines[0] == "k=3 n=6"
    assert lines[1:] == sorted(lines[1:])
    assert parse_deck(text) == deck


def test_parse_deck_rejects_garbage():
    with pytest.raises(ValueError):
        parse_deck("")
    with pytest.raises(ValueError):
        parse_deck("k=2 n=3\nBw\t3\n")  # 3-vertex card in a 2-deck
    with pytest.raises(ValueError):
        parse_deck("k=2 n=3\nA_\t2\nA_\t1\n")  # duplicate key
