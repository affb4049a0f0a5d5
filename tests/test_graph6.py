"""graph6 codec tests, cross-checked against networkx as reference codec."""

import random
import re
from math import comb

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from deckcensus.graphs import (
    Graph,
    Graph6Error,
    _rows_from_bits,
    _triangle_bits,
    complete_graph,
    empty_graph,
    from_graph6,
    named_graph,
    path_graph,
    read_graph6_lines,
    to_graph6,
)

from .helpers import graph6_bitwise, random_graph


def nx_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_triangle_encodes_to_Bw():
    assert to_graph6(complete_graph(3)) == "Bw"


def test_Bw_decodes_to_triangle():
    g = from_graph6("Bw")
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_Bg_decodes_to_path():
    g = from_graph6("Bg")
    assert g.edges() == [(0, 1), (1, 2)]


def test_Bq_empty_graph():
    assert from_graph6("B?") == empty_graph(3)
    assert to_graph6(empty_graph(3)) == "B?"


def test_cycle5_plus_isolated_golden():
    # cross-checked against the reference encoder below
    g = named_graph("cycle5+empty1")
    text = to_graph6(g)
    assert text == "Ehc?"
    assert text[0] == chr(63 + 6)
    assert text == nx_encode(g)


def test_header_is_stripped():
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)


@pytest.mark.parametrize(
    "text, offset_word",
    [
        ("", "byte 0"),
        ("~", "offset 0"),  # multi-byte size form is rejected
        (chr(63 + 11), "offset 0"),  # size beyond the supported bound
        ("B", "byte 1"),  # truncated
        ("Bww", "byte 2"),  # trailing garbage
        ("B\x1c", "offset 1"),  # byte below the printable range
        ("A@", "offset 1"),  # nonzero padding bits (n=2 uses 1 of 6 bits)
    ],
)
def test_decode_errors_name_offsets(text, offset_word):
    with pytest.raises(Graph6Error) as err:
        from_graph6(text)
    assert offset_word in str(err.value)


def text_of_bits(n: int, triangle: int) -> str:
    """The graph6 text of the n-vertex graph whose C(n, 2) upper-triangle
    bits, x(0,1) as the MSB, are ``triangle``, packed by hand."""
    nbits = comb(n, 2)
    pad = -nbits % 6
    bits = triangle << pad
    return chr(63 + n) + "".join(
        chr(63 + (bits >> shift & 63)) for shift in range(nbits + pad - 6, -1, -6)
    )


def test_decoder_matches_bitwise_reference_on_every_small_graph():
    # every bit pattern of the upper triangle for n <= 5, padding zero
    for n in range(1, 6):
        for mask in range(1 << comb(n, 2)):
            text = text_of_bits(n, mask)
            g = from_graph6(text)
            assert g == graph6_bitwise(text), text
            assert type(g.rows) is tuple and all(type(r) is int for r in g.rows)


def test_decoder_matches_bitwise_reference_on_random_graphs():
    rng = random.Random(2022)
    for n in range(6, 11):
        for _ in range(400):
            g = random_graph(rng, n)
            text = to_graph6(g)
            assert from_graph6(text) == graph6_bitwise(text) == g, text


def test_rows_from_bits_match_bitwise_reference():
    # every triangle for n <= 5 under the leading bit of a card's memo
    # key, then seeded ints for n = 6..10 with junk above bit C(n, 2):
    # only the low C(n, 2) bits are read
    rng = random.Random(2025)
    cases = [(n, 1 << comb(n, 2) | tri) for n in range(1, 6)
             for tri in range(1 << comb(n, 2))]
    cases += [(n, (rng.getrandbits(20) | 1) << comb(n, 2) | rng.getrandbits(comb(n, 2)))
              for n in range(6, 11) for _ in range(300)]
    for n, bits in cases:
        rows = _rows_from_bits(n, bits)
        triangle = bits & ((1 << comb(n, 2)) - 1)
        assert rows == graph6_bitwise(text_of_bits(n, triangle)).rows, (n, bits)
        assert _triangle_bits(rows) == triangle, (n, bits)
        assert _rows_from_bits(n, _triangle_bits(rows)) == rows, (n, bits)


def test_decoder_errors_name_every_data_offset_at_n10():
    # n = 10: 45 triangle bits in 8 data bytes, the last with 3 padding bits
    valid = to_graph6(complete_graph(10))
    assert len(valid) == 9
    for off in range(1, 9):
        for bad in (">", "\x7f", "\xe9", "\udc80"):
            text = valid[:off] + bad + valid[off + 1:]
            message = f"byte at offset {off} outside graph6 range 63..126"
            with pytest.raises(Graph6Error, match=f"^{re.escape(message)}$"):
                from_graph6(text)
    # a bad byte is reported before nonzero padding
    with pytest.raises(Graph6Error, match="^byte at offset 3 "):
        from_graph6(valid[:3] + ">" + valid[4:8] + "~")
    for low in (1, 2, 4, 7):
        text = valid[:8] + chr(ord(valid[8]) + low)  # group 56 + low
        message = "nonzero padding bits in final byte at offset 8"
        with pytest.raises(Graph6Error, match=f"^{re.escape(message)}$"):
            from_graph6(text)


def test_roundtrip_is_identity_on_labelings():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10))
        assert from_graph6(to_graph6(g)) == g


def test_codec_agrees_with_reference_both_ways():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        text = to_graph6(g)
        assert text == nx_encode(g)
        back = nx.from_graph6_bytes(text.encode())
        assert sorted(back.edges()) == g.edges()


@given(st.integers(1, 10), st.integers(0, 2**45 - 1))
def test_roundtrip_property(n, mask):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    g = Graph(n, edges)
    assert from_graph6(to_graph6(g)) == g


def test_read_graph6_lines_with_header():
    text = ">>graph6<<\nBw\nB?\n\n"
    gs = read_graph6_lines(text)
    assert gs == [complete_graph(3), empty_graph(3)]


def test_named_graph_atoms():
    assert named_graph("path4") == path_graph(4)
    assert named_graph("claw").n == 4
    assert named_graph("claw2").n == 6
    for spec, message in [
        ("blob3", "unknown named-graph atom 'blob3'"),
        ("", "unknown named-graph atom ''"),
        ("pathx", "atom 'pathx' needs an integer size"),
        ("clawx", "atom 'clawx' needs an integer size"),
        ("claw-1", "atom 'claw-1' needs an integer size"),
        ("claw3", "subdivided edge count must be 0, 1, or 2, got 3"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            named_graph(spec)
    with pytest.raises(ValueError):
        named_graph("cycle9+path9")  # exceeds the vertex cap
