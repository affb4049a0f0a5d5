"""Canonical keys: exact minimality, invariance, and isomorphism semantics."""

import random
from itertools import permutations

import networkx as nx
from hypothesis import given, settings, strategies as st

from deckcensus import canon
from deckcensus.canon import canonical_graph, canonical_key, is_isomorphic
from deckcensus.census import enumerate_graphs
from deckcensus.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    degree_list,
    disjoint_union,
    empty_graph,
    from_graph6,
    named_graph,
    path_graph,
    claw_subdivided,
)

from .helpers import brute_force_isomorphic, brute_force_min_bits, graph6_bits, permuted, random_graph


def test_key_is_global_minimum_over_orders():
    # exhaustive reference on every labeled graph with up to 5 vertices
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(60):
            g = random_graph(rng, n)
            key = canonical_key(g)
            assert graph6_bits(from_graph6(key), range(n)) == brute_force_min_bits(g)


def test_relabeling_invariance_small():
    g = path_graph(3)
    h = Graph(3, [(0, 2), (2, 1)])
    assert canonical_key(g) == canonical_key(h)


def test_different_degree_lists_different_keys():
    a = named_graph("cycle4+empty1")
    b = claw_subdivided(1)
    assert degree_list(a) != degree_list(b)
    assert canonical_key(a) != canonical_key(b)


def test_self_complementary_cycle5():
    assert canonical_key(complement(cycle_graph(5))) == canonical_key(cycle_graph(5))
    assert brute_force_isomorphic(cycle_graph(5), complement(cycle_graph(5)))


def test_idempotence():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        key = canonical_key(g)
        assert canonical_key(from_graph6(key)) == key


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabeling_invariance_property(data):
    n = data.draw(st.integers(1, 7))
    mask = data.draw(st.integers(0, 2**21 - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    perm = data.draw(st.permutations(range(n)))
    assert canonical_key(permuted(g, perm)) == canonical_key(g)


def test_is_isomorphic_matches_brute_force():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 6)
        a = random_graph(rng, n)
        if rng.random() < 0.5:
            b = permuted(a, rng.sample(range(n), n))
        else:
            b = random_graph(rng, n)
        assert is_isomorphic(a, b) == brute_force_isomorphic(a, b)


def test_is_isomorphic_matches_networkx():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 7)
        a, b = random_graph(rng, n), random_graph(rng, n)
        na = nx.Graph(a.edges())
        na.add_nodes_from(range(n))
        nb = nx.Graph(b.edges())
        nb.add_nodes_from(range(n))
        assert is_isomorphic(a, b) == nx.is_isomorphic(na, nb)


def test_examples_from_small_zoo():
    assert not is_isomorphic(named_graph("cycle5+empty1"), claw_subdivided(2))
    assert is_isomorphic(path_graph(4), complement(path_graph(4)))
    assert not is_isomorphic(claw_subdivided(0), path_graph(4))
    assert not is_isomorphic(
        disjoint_union(complete_graph(3), empty_graph(1)), claw_subdivided(0)
    )


def test_high_automorphism_graphs_are_fast_and_right():
    # complete/empty graphs stress the tie pruning
    for n in (8, 9, 10):
        assert canonical_graph(complete_graph(n)) == complete_graph(n)
        assert canonical_graph(empty_graph(n)) == empty_graph(n)
    star = Graph(10, [(9, i) for i in range(9)])
    assert canonical_key(star) == canonical_key(permuted(star, list(range(9, -1, -1))))


def test_memo_is_transparent():
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randint(1, 7)) for _ in range(40)]
    warm = [canonical_key(g) for g in graphs]
    canon.clear_cache()
    cold = [canonical_key(g) for g in graphs]
    assert warm == cold


def test_relabeled_family_members_key_back(family5, family6, family7):
    rng = random.Random(53)
    families = [enumerate_graphs(n) for n in range(1, 5)] + [family5, family6, family7]
    for family in families:
        n = family.order
        perms = [rng.sample(range(n), n) for _ in range(3)]
        for key in family.members:
            g = from_graph6(key)
            for perm in perms:
                assert canonical_key(permuted(g, perm)) == key


def test_exhaustive_n4_against_reference():
    # every labeled 4-vertex graph, every permutation: keys collide exactly
    # when the reference bit strings do
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    seen = {}
    for mask in range(2**6):
        g = Graph(4, [p for i, p in enumerate(pairs) if mask >> i & 1])
        seen.setdefault(brute_force_min_bits(g), set()).add(canonical_key(g))
    for keys in seen.values():
        assert len(keys) == 1
    assert len(seen) == 11
    for p in permutations(range(4)):
        g = permuted(path_graph(4), p)
        assert canonical_key(g) == canonical_key(path_graph(4))
