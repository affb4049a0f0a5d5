"""Graph construction and the basic operations."""

import random

import pytest

from deckcensus.graphs import (
    Graph,
    claw_subdivided,
    complete_graph,
    cycle_graph,
    degree_counts,
    degree_list,
    disjoint_union,
    empty_graph,
    is_connected,
    named_graph,
    path_graph,
)

from .helpers import complement, induced_subgraph, random_graph


def test_vertex_bound_enforced():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(11)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_from_rows_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph.from_rows((2, 0))  # 0->1 set but 1->0 missing


def test_graphs_are_immutable_and_hashable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert len({g, path_graph(3)}) == 1


def test_named_builders_degree_lists():
    assert degree_list(named_graph("cycle5+empty1")) == (2, 2, 2, 2, 2, 0)
    assert degree_list(claw_subdivided(2)) == (3, 2, 2, 1, 1, 1)
    assert degree_list(claw_subdivided(1)) == (3, 2, 1, 1, 1)
    assert degree_list(claw_subdivided(0)) == (3, 1, 1, 1)
    assert degree_list(disjoint_union(complete_graph(4), empty_graph(2))) == (
        3, 3, 3, 3, 0, 0,
    )


def test_induced_subgraph_examples():
    assert induced_subgraph(path_graph(3), [0, 2]) == empty_graph(2)
    assert induced_subgraph(cycle_graph(5), [0, 1, 2]) == path_graph(3)
    for subset in [(0, 1, 2), (0, 1, 3), (1, 2, 3)]:
        assert induced_subgraph(complete_graph(4), subset) == complete_graph(3)


def test_induced_subgraph_relabels_ascending():
    g = Graph(5, [(1, 4), (1, 3)])
    sub = induced_subgraph(g, {4, 1, 3})
    assert sub.edges() == [(0, 1), (0, 2)]


def test_induced_subgraph_errors():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [])
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 7])


def test_induced_degrees_never_exceed_originals():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8))
        k = rng.randint(1, g.n)
        subset = sorted(rng.sample(range(g.n), k))
        sub = induced_subgraph(g, subset)
        for i, v in enumerate(subset):
            assert sub.rows[i].bit_count() <= g.rows[v].bit_count()


def test_complement_examples():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(complement(path_graph(4))) == path_graph(4)


def test_complement_degree_duality():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        dg = degree_list(g)
        dc = degree_list(complement(g))
        n = g.n
        assert dc == tuple(sorted((n - 1 - d for d in dg), reverse=True))


def test_edge_count_consistency():
    rng = random.Random(9)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        assert sum(degree_list(g)) == 2 * len(g.edges())
        assert len(g.edges()) <= g.n * (g.n - 1) // 2
        assert sum(degree_counts(g)) == g.n


def test_connectivity():
    assert not is_connected(named_graph("cycle5+empty1"))
    assert is_connected(claw_subdivided(2))
    assert is_connected(Graph(1))
    assert is_connected(path_graph(10))
    assert not is_connected(disjoint_union(path_graph(2), path_graph(2)))
