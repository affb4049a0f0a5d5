"""Canonical labeling for small graphs.

The canonical key of a graph is the lexicographically smallest graph6
text over all vertex relabelings, so two graphs are isomorphic exactly
when their keys are equal.  Because every graph6 text for a fixed
``n`` has the same length and the byte values grow monotonically with
the underlying 6-bit groups, minimizing the text is the same as
minimizing the packed upper-triangle bit string.

The search is an exact branch and bound over vertex orderings: vertices
are placed one position at a time, and a partial ordering is abandoned
as soon as the column bits it has committed to exceed the best complete
ordering found so far.  A search node costs O(n):

- every unplaced vertex carries its column against the placed prefix,
  and placing a vertex appends one bit to each (``col << 1 | bit``)
  instead of recomputing the columns from the ordering;
- each node knows whether its committed prefix still equals the
  incumbent's, so a candidate is compared with one incumbent column
  rather than with the whole prefix.

Two prunings keep worst cases (complete graphs, stars, unions with many
isolated vertices) tame:

- candidates at each position are tried in increasing column order, so
  the first descent is greedy and yields a strong incumbent;
- a candidate is skipped when an already-tried candidate at the same
  position is its twin (identical neighborhoods outside the pair), since
  swapping twins is an automorphism fixing everything already placed.

Both prunings only discard orderings whose bit string provably cannot
beat the incumbent, so the result is the true minimum.

Keys of graphs with at most ``_MEMO_MAX_N`` vertices are memoized in
``_memo``, the only key memo.  It maps a labeling of a graph, as one
int, to the graph's key: a leading 1 bit at position C(n, 2), which
fixes ``n``, above the graph6 upper-triangle bits x(0,1), x(0,2),
x(1,2), x(0,3), ...  Every labeling of one graph maps to the same key,
so one key may sit under several ints.  :func:`_key_for_rows` stores
the labeling it is given.  ``decks`` builds the int incrementally for
each card and probes ``_memo`` itself; on a miss it probes again with
the card relabeled by vertex signature, and it stores the key under
both ints.
"""

from __future__ import annotations

from .graphs import Graph, _g6_from_bits, _triangle_bits
from .graphs import from_graph6  # noqa: F401 (perfbench/tracing.py binds it)

# Keys of graphs this small are memoized; larger graphs (census
# enumeration, the n = 9 census's 274668 members) would mostly miss and
# only bloat memory.
_MEMO_MAX_N = 7

_memo: dict[int, str] = {}


def clear_cache() -> None:
    """Drop memoized canonical keys (results are unaffected)."""
    _memo.clear()


def _min_cols(n: int, rows: tuple[int, ...]) -> list[int]:
    """Per-position column bits of the minimal ordering.

    ``cols[d-1]`` holds the d bits x(0,d)..x(d-1,d) of the relabeled
    upper triangle, most significant bit first.
    """
    # twin[v]: bitmask of vertices whose neighborhoods match v's outside
    # the pair; transposing such a pair is an automorphism.
    twin = [0] * n
    for u in range(n):
        ru = rows[u]
        for w in range(u + 1, n):
            if ru & ~(1 << w) == rows[w] & ~(1 << u):
                twin[u] |= 1 << w
                twin[w] |= 1 << u
    # Placing v turns the entry col << 4 | u of each unplaced u into
    # (col << 1 | x(u,v)) << 4 | u, that is entry * 2 + step[v][u].
    step = [[((r >> u & 1) << 4) - u for u in range(n)] for r in rows]

    best: list[int] = []
    cols = [0] * n  # cols[d] is the column committed when filling position d

    def place(depth: int, cand: list[int], tight: bool) -> bool:
        """Fill position ``depth`` from ``cand``, the sorted entries
        ``col << 4 | v`` of the unplaced vertices.  ``tight`` says the
        committed prefix equals the incumbent's; otherwise it is smaller
        (or there is no incumbent yet).  Returns whether the incumbent
        improved, after which this node's prefix equals the new
        incumbent's.
        """
        nonlocal best
        improved = False
        tried = 0
        for entry in cand:
            v = entry & 15
            if twin[v] & tried:
                continue
            tried |= 1 << v
            col = entry >> 4
            if tight:
                # a greater column can never win, and later candidates
                # only have larger columns
                if col > best[depth]:
                    break
                equal = col == best[depth]
            else:
                equal = False
            cols[depth] = col
            if depth + 1 == n:
                # one candidate is left; a tie leaves the incumbent
                if equal:
                    return False
                best = cols.copy()
                return True
            sv = step[v]
            child = [e + e + sv[e & 15] for e in cand if e != entry]
            child.sort()
            if place(depth + 1, child, equal):
                improved = tight = True
        return improved

    place(0, list(range(n)), False)
    return best[1:]


def _key_for_rows(n: int, rows: tuple[int, ...]) -> str:
    memoized = n <= _MEMO_MAX_N
    if memoized:
        labeled = 1 << (n * (n - 1) // 2) | _triangle_bits(rows)
        cached = _memo.get(labeled)
        if cached is not None:
            return cached
    bits = 0
    for i, col in enumerate(_min_cols(n, rows), start=1):
        bits = (bits << i) | col
    key = _g6_from_bits(n, bits)
    if memoized:
        _memo[labeled] = key
    return key


def canonical_key(g: Graph) -> str:
    """Relabeling-invariant identity: the minimum graph6 text of ``g``."""
    return _key_for_rows(g.n, g.rows)
