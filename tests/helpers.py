"""Shared test helpers: random graphs, relabelings, reference oracles."""

import random
from collections import Counter
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Sequence

from deckcensus import canon
from deckcensus.census import ClassReport, GraphFamily
from deckcensus.graphs import Graph

# Published counts of n-vertex graphs up to isomorphism.  Used only as an
# external sanity cross-check; the in-repo dual enumerators are the oracle.
KNOWN_GRAPH_COUNTS = (0, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def binom(p: int, q: int) -> int:
    """C(p, q) with the explicit out-of-range-is-zero convention."""
    if q < 0 or p < 0 or q > p:
        return 0
    return comb(p, q)


def phi_term_by_term(x: Sequence[int], n: int, k: int, j: int) -> int:
    """Reference counting identity: the sum of x[i] * C(i, j) *
    C(n-1-i, k-1-j) over i in [j, j + n - k], one term at a time."""
    return sum(
        x[i] * binom(i, j) * binom(n - 1 - i, k - 1 - j)
        for i in range(j, j + n - k + 1)
    )


def partition(report: ClassReport) -> tuple[tuple[str, ...], ...]:
    """Every deck class of ``report``, singletons included, as its sorted
    members; the classes in sorted order.  Two classes that share a label
    stay two classes."""
    singles = [(line.split("\t")[1],) for line in report.singletons]
    return tuple(sorted([*report.shared, *singles]))


def random_graph(rng: random.Random, n: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [p for p in pairs if rng.random() < 0.5])


def graph6_bitwise(text: str) -> Graph:
    """Reference graph6 decoder for valid text with no header: the data
    bytes' 6-bit groups, most significant bit first, read one bit at a
    time as x(0,1), x(0,2), x(1,2), x(0,3), ..."""
    n = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> (5 - p) & 1 for c in text[1:] for p in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def permuted(g: Graph, perm) -> Graph:
    """Relabel: vertex v of ``g`` becomes perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0..|S|-1 in ascending
    original order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("vertex set must be nonempty")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError(f"vertex set {vs} out of range for n={g.n}")
    rows = []
    for u in vs:
        row = 0
        src = g.rows[u]
        for i, v in enumerate(vs):
            row |= (src >> v & 1) << i
        rows.append(row)
    return Graph.from_rows(rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)]
    return Graph.from_rows(rows)


def induced_deck(g: Graph, k: int) -> Counter:
    """Reference k-deck entries: the canonical key of each induced
    k-vertex subgraph, one vertex subset at a time."""
    return Counter(
        canon.canonical_key(induced_subgraph(g, subset))
        for subset in combinations(range(g.n), k)
    )


def graph6_bits(g: Graph, order) -> tuple[int, ...]:
    """Upper-triangle bit sequence of ``g`` relabeled by ``order``."""
    pos = {v: i for i, v in enumerate(order)}
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        adj[pos[u]][pos[v]] = adj[pos[v]][pos[u]] = 1
    return tuple(adj[i][j] for j in range(1, g.n) for i in range(j))


def brute_force_min_bits(g: Graph) -> tuple[int, ...]:
    """Reference canonical form: minimum bit sequence over all n! orders."""
    return min(graph6_bits(g, p) for p in permutations(range(g.n)))


def brute_force_family(n: int) -> GraphFamily:
    """Reference enumerator: deduplicate all 2^C(n,2) edge subsets (n <= 6)."""
    if not 1 <= n <= 6:
        raise ValueError(f"brute-force enumeration is restricted to n <= 6, got {n}")
    pairs = list(combinations(range(n), 2))
    keys = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        keys.add(canon._key_for_rows(n, tuple(rows)))
    return GraphFamily(n, tuple(sorted(keys)))


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Reference isomorphism test over all n! bijections."""
    if a.n != b.n:
        return False
    edges_b = set(b.edges())
    for p in permutations(range(a.n)):
        mapped = {tuple(sorted((p[u], p[v]))) for u, v in a.edges()}
        if mapped == edges_b:
            return True
    return False
