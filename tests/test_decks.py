"""Deck computation and deck algebra.

The reference deck oracle below groups vertex subsets by pairwise
isomorphism through networkx, entirely independent of the package's
canonical labeling.
"""

import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from deckcensus import canon, decks
from deckcensus.canon import canonical_key
from deckcensus.census import GRAPH_COUNTS, deck_classes, enumerate_graphs
from deckcensus.decks import (
    Deck,
    UnrealizableDeckError,
    _card_key,
    _card_levels,
    _cards_of_key,
    _deck_tally,
    _degree_counts_of_key,
    _graph_of_key,
    _key_is_connected,
    _triangles_of_key,
    compute_deck,
    connected_card_count,
    deck_equal,
    derive_subdeck,
    edge_count_from_deck,
    parse_deck,
    phi_vector,
    serialize_deck,
)
from deckcensus.graphs import (
    Graph,
    _g6_from_bits,
    _gather_tables,
    _rows_from_bits,
    _triangle_bits,
    claw_subdivided,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    named_graph,
    path_graph,
)

from .helpers import (
    binom,
    brute_force_min_bits,
    complement,
    induced_deck,
    permuted,
    random_graph,
)


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
                oracle = induced_deck(g, k)
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


def test_decode_cache_is_bounded_above_every_small_family():
    # every graph on at most 8 vertices fits per card size (the card
    # tallies are kept per key and size), and an n = 9 family streams
    # past every per-key cache
    assert sum(GRAPH_COUNTS[:8]) == 13598
    for cached in (_graph_of_key, _degree_counts_of_key, _key_is_connected,
                   _triangles_of_key, _cards_of_key):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None, cached.__name__
        assert maxsize >= 13598, cached.__name__


def test_gather_tables_equal_the_bit_by_bit_definition():
    # entry ``row`` of the table of subset S: the bits of row on S, the
    # first vertex of S most significant; subsets in colex order
    for m in range(10):
        for size in range(m + 1):
            subsets = sorted(combinations(range(m), size), key=lambda s: s[::-1])
            expected = tuple(
                [sum((row >> v & 1) << (size - 1 - i) for i, v in enumerate(subset))
                 for row in range(1 << m)]
                for subset in subsets
            )
            assert _gather_tables(m, size) == expected, (m, size)


def test_cards_of_key_is_the_deck_of_the_key():
    for n in range(1, 7):
        for key in enumerate_graphs(n).members:
            g = from_graph6(key)
            for size in range(1, n + 1):
                assert _cards_of_key(key, size) == compute_deck(g, size).entries, (
                    key, size)
    rng = random.Random(59)
    for _ in range(20):
        g = random_graph(rng, 8)
        key = canonical_key(g)
        for size in range(4, 8):
            assert _cards_of_key(key, size) == compute_deck(g, size).entries, (
                key, size)


def test_cards_of_key_is_read_only():
    # every caller shares the one cached tally
    tally = _cards_of_key(canonical_key(path_graph(4)), 3)
    with pytest.raises(TypeError):
        tally[canonical_key(path_graph(3))] = 1
    assert tally == compute_deck(path_graph(4), 3).entries


def test_deck_tally_matches_oracle_across_parents_and_card_sizes():
    # siblings (the same first n-1 vertices) follow each other, so the
    # kept parent is reused; orders 1 and 2 follow each other, although
    # neither parent has a pair of vertices; and k changes between calls
    # on one parent
    rng = random.Random(53)
    graphs = [complete_graph(1), complete_graph(2), empty_graph(2), complete_graph(1)]
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        edges = [e for e in g.edges() if e[1] < n - 1]
        last = [(u, n - 1) for u in range(n - 1) if rng.random() < 0.5]
        graphs += [g, Graph(n, edges + last)]
    canon.clear_cache()
    for k in range(1, 8):
        for g in graphs:
            if k <= g.n:
                assert _deck_tally(g.rows, k) == induced_deck(g, k), (g, k)
    for g in graphs:
        for k in rng.sample(range(1, g.n + 1), g.n):
            assert _deck_tally(g.rows, k) == induced_deck(g, k), (g, k)


def test_card_key_is_the_brute_force_minimum_on_every_small_graph():
    # one cold memo through every labelled graph on n <= 5 vertices, so
    # later labellings of a class also meet the relabelled-probe hit
    canon.clear_cache()
    for n in range(1, 6):
        for tri in range(1 << comb(n, 2)):
            bits = 1 << comb(n, 2) | tri
            g = Graph.from_rows(_rows_from_bits(n, bits))
            least = 0
            for bit in brute_force_min_bits(g):
                least = least << 1 | bit
            assert _card_key(n, bits) == _g6_from_bits(n, least), (n, tri)


def test_card_key_of_relabelled_members_is_the_members_key(family6, family7):
    rng = random.Random(59)
    for family in (family6, family7):
        n = family.order
        perms = [rng.sample(range(n), n) for _ in range(3)]
        cases = [
            (key, 1 << comb(n, 2) | _triangle_bits(permuted(from_graph6(key), perm).rows))
            for key in family.members for perm in perms
        ]
        # cold, then cold again in the reverse order, so other labellings
        # are the ones searched
        for ordered in (cases, cases[::-1]):
            canon.clear_cache()
            for key, bits in ordered:
                assert _card_key(n, bits) == key


def test_relabelled_probe_spares_most_card_searches(family7, monkeypatch):
    # counted where the helper calls it, which is also the binding the
    # benchmark's tracer wraps
    calls = []
    search = decks._key_for_rows

    def counted(n, rows):
        calls.append(n)
        return search(n, rows)

    monkeypatch.setattr(decks, "_key_for_rows", counted)
    canon.clear_cache()
    decks._parent_cards.cache_clear()
    deck_classes(family7, 6)
    labelled = {bits for key in family7.members
                for bits in _card_levels(from_graph6(key).rows, 6)[6]}
    # one search per labelled card would be 1719
    assert len(labelled) == 1719
    assert len(calls) == 235


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
    # asked again, from cached tallies, it names the same first card
    with pytest.raises(UnrealizableDeckError) as raised:
        derive_subdeck(fake)
    assert str(raised.value) == (
        "not a realizable deck: count 11 of card 'A_' is not divisible by 2")


def test_count_j_vertices_goldens():
    deck = compute_deck(C5K1, 3)
    assert phi_vector(deck)[2] == 5
    assert phi_vector(deck)[1] == 30
    assert phi_vector(deck)[0] == 25
    assert len(phi_vector(deck)) == 3  # no degree 3 on a 3-vertex card


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


def brute_force_triangles(g: Graph) -> int:
    return sum(
        g.rows[a] >> b & g.rows[a] >> c & g.rows[b] >> c & 1
        for a, b, c in combinations(range(g.n), 3)
    )


def test_phi_vector_fixes_the_edge_count(family6):
    # each card contributes twice its edges, and each edge lies on
    # C(n-2, k-2) cards
    for key in family6.members:
        g = from_graph6(key)
        for k in range(1, g.n + 1):
            phi = phi_vector(compute_deck(g, k))
            assert sum(j * p for j, p in enumerate(phi)) == (
                2 * len(g.edges()) * binom(g.n - 2, k - 2)
            )


def test_card_triangles_total_the_graph_triangles(family6):
    # each triangle lies on C(n-3, k-3) cards
    for key in family6.members:
        g = from_graph6(key)
        t = brute_force_triangles(g)
        assert _triangles_of_key(key) == t
        for k in range(3, g.n + 1):
            deck = compute_deck(g, k)
            total = sum(
                m * brute_force_triangles(from_graph6(c))
                for c, m in deck.entries.items()
            )
            assert total == t * comb(g.n - 3, k - 3)


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
    # the 3-deck of C5+K1 with relabelled, non-canonical card keys
    with pytest.raises(ValueError, match="'B_'"):
        parse_deck("k=3 n=6\nB?\t5\nB_\t10\nBo\t5\n")
    # the header holds k and n once each, in either order, and nothing else
    body = "\nB?\t5\nBG\t10\nBW\t5\n"
    assert parse_deck("n=6 k=3" + body) == compute_deck(C5K1, 3)
    for header in ("k=3 n=6 n=6 colour=red", "n=6 k=3 k=4", "k=3 n=6 k=3",
                   "k=3 n=6 colour=red", "k=3", "k=3 n=6=6"):
        with pytest.raises(ValueError, match="bad deck header"):
            parse_deck(header + body)
