"""Small labeled simple graphs stored as packed adjacency bitmasks.

Graphs are capped at 10 vertices so that every adjacency row fits in a
single machine word and permutation search stays tractable.  All values
are immutable; every operation returns a new ``Graph``.

The module also implements the graph6 interchange codec (single-byte
size form only): byte 0 is ``63 + n``, and the upper triangle
x(0,1), x(0,2), x(1,2), x(0,3), ... is packed column-wise into big-endian
6-bit groups, each offset by 63, with the final group zero-padded.
"""

from __future__ import annotations

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.rows[u] >> v & 1
        ]

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


# ---------------------------------------------------------------------------
# graph6 codec


# _REVERSED[j][c] is the j-bit value c with its bit order reversed.
_REVERSED = [
    [int(format(c, f"0{j}b")[::-1], 2) if j else 0 for c in range(1 << j)]
    for j in range(MAX_VERTICES)
]


def _triangle_bits(rows: Sequence[int]) -> int:
    """Upper-triangle bits packed into one int, x(0,1) as the MSB."""
    val = 0
    for j in range(1, len(rows)):
        val = val << j | _REVERSED[j][rows[j] & ((1 << j) - 1)]
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
    val = 0
    for off in range(1, 1 + ndata):
        group = ord(text[off]) - 63
        if not 0 <= group <= 63:
            raise Graph6Error(f"byte at offset {off} outside graph6 range 63..126")
        val = (val << 6) | group
    pad = 6 * ndata - nbits
    if pad and val & ((1 << pad) - 1):
        raise Graph6Error(f"nonzero padding bits in final byte at offset {ndata}")
    val >>= pad
    rows = [0] * size
    pos = nbits
    for j in range(1, size):
        for i in range(j):
            pos -= 1
            if val >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph.from_rows(rows)


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


_NAMED_PREFIXES = ("path", "cycle", "complete", "empty", "claw")


def named_graph(spec: str) -> Graph:
    """Build a graph from a textual spec like ``"cycle5+empty1"``.

    Atoms: ``path<n>``, ``cycle<n>``, ``complete<n>``, ``empty<n>``,
    ``claw`` and ``claw<t>`` (the claw with t subdivided edges, t in
    0..2).  ``+`` joins atoms by disjoint union.
    """
    parts = spec.strip().lower().split("+")
    result: Graph | None = None
    for part in parts:
        part = part.strip()
        for prefix in _NAMED_PREFIXES:
            if part.startswith(prefix):
                arg = part[len(prefix):]
                break
        else:
            raise ValueError(f"unknown named-graph atom {part!r}")
        if prefix == "claw":
            t = int(arg) if arg else 0
            g = claw_subdivided(t)
        else:
            if not arg.isdigit():
                raise ValueError(f"atom {part!r} needs an integer size")
            builder = {
                "path": path_graph,
                "cycle": cycle_graph,
                "complete": complete_graph,
                "empty": empty_graph,
            }[prefix]
            g = builder(int(arg))
        result = g if result is None else disjoint_union(result, g)
    if result is None:
        raise ValueError("empty named-graph spec")
    return result


# ---------------------------------------------------------------------------
# basic operations


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


def degree_list(g: Graph) -> tuple[int, ...]:
    """Vertex degrees as a nonincreasing tuple."""
    return tuple(sorted((r.bit_count() for r in g.rows), reverse=True))


def degree_counts(g: Graph) -> tuple[int, ...]:
    """Vector a_0..a_{n-1} where a_i is the number of degree-i vertices."""
    counts = [0] * g.n
    for r in g.rows:
        counts[r.bit_count()] += 1
    return tuple(counts)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)]
    return Graph.from_rows(rows)


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
