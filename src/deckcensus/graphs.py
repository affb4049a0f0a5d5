"""Small labeled simple graphs stored as packed adjacency bitmasks.

Graphs are capped at 10 vertices so that every adjacency row fits in a
single machine word and permutation search stays tractable.  All values
are immutable; every operation returns a new ``Graph``.

The module also implements the graph6 interchange codec (single-byte
size form only): byte 0 is ``63 + n``, and the upper triangle
x(0,1), x(0,2), x(1,2), x(0,3), ... is packed column-wise into big-endian
6-bit groups, each offset by 63, with the final group zero-padded.
Every bit table is a subset sum (``_subset_sums``).  Decoding graph6
text, or a card's triangle bits, sums one table entry per 6-bit group:
the adjacency the group sets, as n 16-bit rows packed in one int.
"""

from __future__ import annotations

import sys
from functools import cache, reduce
from itertools import combinations
from operator import getitem
from typing import Iterable, Sequence

MAX_VERTICES = 10

_G6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text; the message names the offending byte offset."""


class Graph:
    """Immutable simple graph on ``n`` labeled vertices (1 <= n <= 10).

    ``rows[v]`` is the neighbor bitmask of vertex ``v``: bit ``u`` is set
    iff ``u`` and ``v`` are adjacent.  Rows are kept symmetric with a zero
    diagonal.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """Build a graph from neighbor bitmasks (validated)."""
        n = len(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        for v in range(n):
            if g.rows[v] >> n:
                raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
            if g.rows[v] >> v & 1:
                raise ValueError(f"row {v} has a set diagonal bit")
            for u in range(v):
                if (g.rows[u] >> v & 1) != (g.rows[v] >> u & 1):
                    raise ValueError(f"rows {u} and {v} are not symmetric")
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.rows[u] >> v & 1
        ]


# ---------------------------------------------------------------------------
# graph6 codec


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """Entry c is the OR of ``weights[i]`` over the set bits i of c."""
    table = [0]
    for w in weights:
        table += [entry | w for entry in table]
    return table


@cache
def _gather_tables(m: int, size: int) -> tuple[list[int], ...]:
    """One table per size-subset S of range(m), in colex order (the order
    of the card walk's levels in ``decks``): entry ``row`` is the column
    of a vertex with neighbourhood ``row`` against S, the first vertex of
    S most significant."""
    subsets = sorted(combinations(range(m), size), key=lambda s: s[::-1])
    return tuple(
        _subset_sums([1 << size - 1 - s.index(v) if v in s else 0 for v in range(m)])
        for s in subsets
    )


# _COLUMNS[j][row]: column j, x(0,j) first, of a vertex j adjacent to ``row``.
_COLUMNS = tuple(_gather_tables(j, j)[0] for j in range(MAX_VERTICES))


def _triangle_bits(rows: Sequence[int]) -> int:
    """Upper-triangle bits packed into one int, x(0,1) as the MSB."""
    val = 0
    for j in range(1, len(rows)):
        val = val << j | _COLUMNS[j][rows[j] & ((1 << j) - 1)]
    return val


def _g6_from_bits(n: int, bits: int) -> str:
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    chars = [chr(63 + n)]
    for shift in range(nbits + pad - 6, -1, -6):
        chars.append(chr(63 + (bits >> shift & 63)))
    return "".join(chars)


def to_graph6(g: Graph) -> str:
    """Encode ``g`` as graph6 text (no header, zero padding bits)."""
    return _g6_from_bits(g.n, _triangle_bits(g.rows))


@cache
def _group_tables(n: int) -> tuple[list[int], ...]:
    """The decode tables of n-vertex graph6 text, one per data byte:
    entry c of table d (c in 63..126) is the adjacency set by the
    triangle bits 6d..6d+5 that the group c - 63 carries, as n 16-bit
    rows in one int, row i at bit 16 * i.  Padding bits, and entries
    below 63, are 0.  No two bytes set the same bit, so a graph's rows
    are the sum of its bytes' entries."""
    # triangle bit x(i, j) sets bit j of row i and bit i of row j
    weights = [
        1 << 16 * i + j | 1 << 16 * j + i for j in range(1, n) for i in range(j)
    ]
    weights += [0] * (-len(weights) % 6)
    # the group's last bit is its least significant
    return tuple(
        [0] * 63 + _subset_sums(weights[first:first + 6][::-1])
        for first in range(0, len(weights), 6)
    )


def _unpack_rows(n: int, packed: int) -> tuple[int, ...]:
    """The rows in a sum of ``_group_tables`` entries, row i at bit 16i."""
    return tuple(memoryview(packed.to_bytes(2 * n, sys.byteorder)).cast("H"))


def _rows_from_bits(n: int, bits: int) -> tuple[int, ...]:
    """Rows of the n-vertex graph whose upper-triangle bits, x(0,1) as
    the MSB, are the low C(n, 2) bits of ``bits``; higher bits are
    ignored.  The bits are padded to whole 6-bit groups, as graph6 pads
    them, and each group, last first, is read through its decode table."""
    tables = _group_tables(n)
    bits <<= 6 * len(tables) - n * (n - 1) // 2
    packed = 0
    for table in reversed(tables):
        packed += table[63 + (bits & 63)]
        bits >>= 6
    return _unpack_rows(n, packed)


def from_graph6(text: str) -> Graph:
    """Decode graph6 text into a graph, strictly.

    An optional ``>>graph6<<`` header is stripped.  Raises
    :class:`Graph6Error` on malformed length, out-of-range size byte,
    characters outside the printable 6-bit range, or nonzero padding
    bits; messages name the byte offset within the (header-stripped)
    text.
    """
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise Graph6Error("empty graph6 text at byte 0")
    size = ord(text[0]) - 63
    if not 1 <= size <= MAX_VERTICES:
        raise Graph6Error(
            f"size byte at offset 0 encodes n={size}, supported range is "
            f"1..{MAX_VERTICES}"
        )
    nbits = size * (size - 1) // 2
    ndata = (nbits + 5) // 6
    if len(text) < 1 + ndata:
        raise Graph6Error(
            f"graph6 text truncated at byte {len(text)}: expected {1 + ndata} bytes"
        )
    if len(text) > 1 + ndata:
        raise Graph6Error(f"trailing garbage at byte {1 + ndata}")
    data = text[1:]
    if data and (min(data) < "?" or max(data) > "~"):  # chr(63), chr(126)
        for off in range(1, 1 + ndata):
            if not 63 <= ord(text[off]) <= 126:
                raise Graph6Error(f"byte at offset {off} outside graph6 range 63..126")
    data = data.encode()
    pad = 6 * ndata - nbits
    if pad and (data[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error(f"nonzero padding bits in final byte at offset {ndata}")
    packed = sum(map(getitem, _group_tables(size), data))
    # rows decoded from upper-triangle bits are symmetric with a zero
    # diagonal by construction, so they skip from_rows's checks
    g = Graph.__new__(Graph)
    object.__setattr__(g, "n", size)
    object.__setattr__(g, "rows", _unpack_rows(size, packed))
    return g


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse newline-separated graph6 text (optional header line)."""
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == _G6_HEADER:
            continue
        graphs.append(from_graph6(line))
    return graphs


# ---------------------------------------------------------------------------
# named constructors (fixed, documented labelings)


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; requires n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def claw_subdivided(t: int) -> Graph:
    """The claw (star with three leaves) with ``t`` of its edges subdivided.

    Vertex 0 is the center, vertices 1..3 the leaves; subdividing edge
    0-(j+1) inserts vertex 4+j, so the result has 4 + t vertices.
    """
    if not 0 <= t <= 2:
        raise ValueError(f"subdivided edge count must be 0, 1, or 2, got {t}")
    edges = []
    for j in range(3):
        if j < t:
            edges += [(0, 4 + j), (4 + j, j + 1)]
        else:
            edges.append((0, j + 1))
    return Graph(4 + t, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of ``h`` are shifted up by ``g.n``."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union has {n} vertices, exceeding the {MAX_VERTICES} cap")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph.from_rows(rows)


# Each named-graph atom: its builder, and the size it takes when the spec
# gives none (None: the atom needs one).
_NAMED_ATOMS = {
    "path": (path_graph, None),
    "cycle": (cycle_graph, None),
    "complete": (complete_graph, None),
    "empty": (empty_graph, None),
    "claw": (claw_subdivided, 0),
}


def _named_atom(part: str) -> Graph:
    part = part.strip()
    for prefix, (builder, default) in _NAMED_ATOMS.items():
        if part.startswith(prefix):
            arg = part[len(prefix):]
            break
    else:
        raise ValueError(f"unknown named-graph atom {part!r}")
    if arg.isdecimal():
        return builder(int(arg))
    if arg or default is None:
        raise ValueError(f"atom {part!r} needs an integer size")
    return builder(default)


def named_graph(spec: str) -> Graph:
    """Build a graph from a textual spec like ``"cycle5+empty1"``.

    Atoms: ``path<n>``, ``cycle<n>``, ``complete<n>``, ``empty<n>``,
    ``claw`` and ``claw<t>`` (the claw with t subdivided edges, t in
    0..2).  ``+`` joins atoms by disjoint union.
    """
    return reduce(disjoint_union, map(_named_atom, spec.strip().lower().split("+")))


# ---------------------------------------------------------------------------
# basic operations


def degree_list(g: Graph) -> tuple[int, ...]:
    """Vertex degrees as a nonincreasing tuple."""
    return tuple(sorted((r.bit_count() for r in g.rows), reverse=True))


def degree_counts(g: Graph) -> tuple[int, ...]:
    """Vector a_0..a_{n-1} where a_i is the number of degree-i vertices."""
    counts = [0] * g.n
    for r in g.rows:
        counts[r.bit_count()] += 1
    return tuple(counts)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    reached = 1
    while True:
        frontier = reached
        mask = reached
        while mask:
            low = mask & -mask
            frontier |= g.rows[low.bit_length() - 1]
            mask ^= low
        if frontier == reached:
            break
        reached = frontier
    return reached == (1 << g.n) - 1
