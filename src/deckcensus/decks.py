"""k-decks: multisets of induced k-vertex cards, plus deck algebra.

A deck stores one entry per card isomorphism class, keyed by canonical
graph6 text with a positive multiplicity.  Multiplicities are exact
integers throughout; the only place the module tolerates division is
the sub-deck law, where non-divisibility is diagnostic of a deck no
graph realizes.

Cards come from one walk that adds a graph's vertices one at a time:
vertex v turns each (j-1)-card S on range(v) into the j-card S + {v},
whose labeled upper-triangle bits are S's bits followed by v's column
against S, read from a ``graphs`` gather table.  Those bits are the key
of the canonical-key memo (``canon._memo``), which is probed inline.
On a miss, :func:`_card_key` decodes the card's rows like graph6, sorts
the vertices by degree and neighbour degrees, and probes the memo again
with that relabelling; only when both miss does it hand the rows to
``canon._key_for_rows``.  A graph's k-cards are its parent's (the graph
on its first n-1 vertices) plus the last vertex's step, and the last
parent walked is kept, so graphs with the same parent walk it once.
Every deck takes this one path (:func:`_deck_tally`): :func:`compute_deck`,
the census, and :func:`_cards_of_key`, which keeps the deck entries of a
graph named by its canonical key for the sub-deck law and the
realization search, which meet the same graphs query after query.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .canon import _MEMO_MAX_N, _key_for_rows, _memo, canonical_key
from .graphs import Graph, _gather_tables, _rows_from_bits, degree_counts
from .graphs import from_graph6, is_connected


class UnrealizableDeckError(ValueError):
    """No graph can realize the deck at hand."""


class Deck:
    """Multiset of k-cards of an n-vertex graph.

    ``entries`` maps the canonical key of each card class to its
    multiplicity.  A deck is its card size, origin order and entries:
    equality uses exactly those, and :func:`entry_text` is the entries'
    one text form.
    """

    __slots__ = ("card_size", "origin_order", "entries")

    def __init__(self, card_size: int, origin_order: int, entries: Mapping[str, int]):
        if not 1 <= card_size <= origin_order:
            raise ValueError(
                f"card size {card_size} out of range for order {origin_order}"
            )
        size_byte = chr(63 + card_size)
        total = 0
        for key, mult in entries.items():
            if not key or key[0] != size_byte:
                raise ValueError(f"card key {key!r} is not a {card_size}-vertex graph")
            if mult <= 0:
                raise ValueError(f"multiplicity of {key!r} must be positive")
            total += mult
        if total != comb(origin_order, card_size):
            raise ValueError(
                f"total multiplicity {total} != C({origin_order}, {card_size})"
            )
        object.__setattr__(self, "card_size", card_size)
        object.__setattr__(self, "origin_order", origin_order)
        object.__setattr__(self, "entries", dict(entries))

    def __setattr__(self, name, value):
        raise AttributeError("Deck is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Deck)
            and self.card_size == other.card_size
            and self.origin_order == other.origin_order
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"Deck(k={self.card_size}, n={self.origin_order}, "
            f"classes={len(self.entries)})"
        )


# The per-key caches (decoded graph, degree counts, connectedness,
# triangle count, and the card tallies of :func:`_cards_of_key`) have
# room for every graph on at most 8 vertices (13598 keys, the A000088
# counts summed), while an n = 9 census or query streams past them
# instead of keeping a value for each of its 274668 members.  The card
# tallies are keyed by (key, size), so for them that room holds per card
# size only: a process that tallies every 8-vertex graph at several
# sizes evicts.  One benchmark ``queries`` set-up and unit fill 651-715
# tally entries (seeds 1001-1003), so the benchmark evicts nothing.
_KEY_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _graph_of_key(key: str) -> Graph:
    return from_graph6(key)


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _degree_counts_of_key(key: str) -> tuple[int, ...]:
    return degree_counts(_graph_of_key(key))


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _key_is_connected(key: str) -> bool:
    return is_connected(_graph_of_key(key))


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _triangles_of_key(key: str) -> int:
    g = _graph_of_key(key)
    # each triangle is counted once from each of its three edges
    return sum((g.rows[u] & g.rows[v]).bit_count() for u, v in g.edges()) // 3


def _tally_cards(k: int, card_bits: Iterable[int], tally: dict[str, int]) -> None:
    """Count into ``tally[key]`` each k-card memo key in ``card_bits``,
    ``key`` being the card's canonical key."""
    probe = _memo.get
    for bits in card_bits:
        key = probe(bits)
        if key is None:
            key = _card_key(k, bits)
        tally[key] = tally.get(key, 0) + 1


def _card_key(k: int, bits: int) -> str:
    """Canonical key of the k-card whose memo key is ``bits``;
    :func:`_tally_cards` calls it only when ``bits`` misses the memo.

    A card of at most ``_MEMO_MAX_N`` vertices is first relabelled by a
    vertex signature that no relabelling changes, its degree and the
    multiset of its neighbours' degrees, ties kept in label order.
    Two labellings of one card often relabel to the same int, so the
    memo is probed again with that one, and only a second miss runs the
    search.  The key is memoized under both ints.
    """
    rows = _rows_from_bits(k, bits)
    if k > _MEMO_MAX_N:
        return _key_for_rows(k, rows)
    # a signature is the degree above 4 bits per degree d, which count
    # the degree-d neighbours (fewer than k <= _MEMO_MAX_N < 16)
    weight = [1 << 4 * row.bit_count() for row in rows]
    signature = []
    for row in rows:
        sig = row.bit_count() << 4 * k
        while row:
            low = row & -row
            sig += weight[low.bit_length() - 1]
            row ^= low
        signature.append(sig)
    order = sorted(range(k), key=signature.__getitem__)
    relabelled = 1
    for j in range(1, k):
        row = rows[order[j]]
        for u in order[:j]:
            relabelled = relabelled << 1 | row >> u & 1
    key = _memo.get(relabelled)
    if key is None:
        key = _memo[relabelled] = _key_for_rows(k, rows)
    _memo[bits] = key
    return key


def _extend(cards: list[int], size: int, v: int, row: int) -> list[int]:
    """The step of the walk: memo keys of the cards S + {v}, for the
    size-vertex cards S on range(v) whose keys ``cards`` lists in colex
    order, v having neighbourhood ``row``."""
    row &= (1 << v) - 1
    tables = _gather_tables(v, size)
    return [bits << size | table[row] for bits, table in zip(cards, tables)]


def _card_levels(rows: Sequence[int], k: int) -> list[list[int]]:
    """``levels[j]`` lists the memo keys of the j-vertex cards of the graph
    with adjacency ``rows`` in colex order of their vertex sets, for
    j = k-1 and k.  Vertex v appends to level j the step from level j-1;
    a level too small to reach k-1 with the vertices still to come stops
    growing, so levels below k-1 come out incomplete."""
    n = len(rows)
    levels = [[1]] + [[] for _ in range(k)]
    for v, row in enumerate(rows):
        for j in range(min(k, v + 1), max(0, k - 1 - n + v), -1):
            levels[j] += _extend(levels[j - 1], j - 1, v, row)
    return levels


@lru_cache(maxsize=1)
def _parent_cards(parent: tuple[int, ...], k: int) -> tuple[dict[str, int], list[int]]:
    """The k-card tally and the (k-1)-card keys of ``parent``, kept for
    the next call: a sorted family lists siblings (graphs with the same
    first n-1 vertices) together, so a census walks each parent once."""
    levels = _card_levels(parent, k)
    tally: dict[str, int] = {}
    _tally_cards(k, levels[k], tally)
    return tally, levels[k - 1]


def _deck_tally(rows: Sequence[int], k: int) -> dict[str, int]:
    """The k-deck entries of the graph with adjacency ``rows``, as a
    fresh dict: its parent's k-cards (those that avoid the last vertex),
    plus the walk's step through the last vertex."""
    n = len(rows)
    low = (1 << (n - 1)) - 1
    base, cards = _parent_cards(tuple(row & low for row in rows[:-1]), k)
    tally = base.copy()
    _tally_cards(k, _extend(cards, k - 1, n - 1, rows[-1]), tally)
    return tally


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _cards_of_key(key: str, size: int) -> Mapping[str, int]:
    """The ``size``-deck entries of the graph whose canonical key is
    ``key``, read-only because every caller shares them, and kept per key
    so that sub-deck derivations and realization searches walk each
    graph once per process."""
    return MappingProxyType(_deck_tally(_graph_of_key(key).rows, size))


def compute_deck(g: Graph, k: int) -> Deck:
    """The multiset of all C(n, k) induced k-vertex cards of ``g``."""
    if not 1 <= k <= g.n:
        raise ValueError(f"card size {k} out of range for n={g.n}")
    return Deck(k, g.n, _deck_tally(g.rows, k))


def deck_equal(a: Deck, b: Deck) -> bool:
    """Entry-exact equality of two decks with the same k and n."""
    if a.card_size != b.card_size or a.origin_order != b.origin_order:
        raise ValueError(
            f"cannot compare decks with k={a.card_size}, n={a.origin_order} "
            f"and k={b.card_size}, n={b.origin_order}"
        )
    return a.entries == b.entries


def derive_subdeck(deck: Deck) -> Deck:
    """The (k-1)-deck determined by a k-deck.

    Every (k-1)-card arises from exactly n-k+1 of the k-cards, so the
    accumulated counts divide exactly for any genuine deck; a remainder
    means no graph realizes the input.
    """
    k = deck.card_size
    n = deck.origin_order
    if k < 2:
        raise ValueError("sub-deck derivation needs card size >= 2")
    acc: dict[str, int] = {}
    for key, mult in deck.entries.items():
        for subkey, count in _cards_of_key(key, k - 1).items():
            acc[subkey] = acc.get(subkey, 0) + mult * count
    divisor = n - k + 1
    entries: dict[str, int] = {}
    for subkey, total in acc.items():
        if total % divisor:
            raise UnrealizableDeckError(
                f"not a realizable deck: count {total} of card {subkey!r} is "
                f"not divisible by {divisor}"
            )
        entries[subkey] = total // divisor
    return Deck(k - 1, n, entries)


def phi_vector(deck: Deck) -> tuple[int, ...]:
    """Degree-occurrence totals (phi(0), ..., phi(k-1)) of the deck."""
    k = deck.card_size
    totals = [0] * k
    for key, mult in deck.entries.items():
        counts = _degree_counts_of_key(key)
        for j in range(k):
            totals[j] += mult * counts[j]
    return tuple(totals)


_K2_KEY = "A_"  # canonical single edge


def edge_count_from_deck(deck: Deck) -> int:
    """Edge count of any realizing graph, read off the derived 2-deck."""
    if deck.card_size < 2:
        raise ValueError("edge count needs card size >= 2")
    d = deck
    while d.card_size > 2:
        d = derive_subdeck(d)
    return d.entries.get(_K2_KEY, 0)


def connected_card_count(deck: Deck) -> int:
    """Total multiplicity of connected cards."""
    return sum(mult for key, mult in deck.entries.items() if _key_is_connected(key))


# ---------------------------------------------------------------------------
# text serialization (census cache format)


def entry_text(entries: Mapping[str, int]) -> str:
    """Deck entries as ``key<TAB>mult`` lines sorted by key, joined by
    newlines.  Graph6 keys hold no tab or newline, so two texts are equal
    exactly when the entries are."""
    return "\n".join(f"{key}\t{mult}" for key, mult in sorted(entries.items()))


def serialize_deck(deck: Deck) -> str:
    """Header line ``k=<k> n=<n>``, then the :func:`entry_text` lines."""
    return f"k={deck.card_size} n={deck.origin_order}\n{entry_text(deck.entries)}\n"


def parse_deck(text: str) -> Deck:
    """Inverse of :func:`serialize_deck`, with full validation: the header
    holds exactly the fields k and n, once each and in either order, and
    every card key must be the canonical key of its card."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty deck text")
    header = lines[0].split()
    try:
        fields = dict(item.split("=", 1) for item in header)
        if len(header) != 2 or fields.keys() != {"k", "n"}:
            raise ValueError
        k, n = int(fields["k"]), int(fields["n"])
    except ValueError as exc:
        raise ValueError(f"bad deck header {lines[0]!r}") from exc
    entries: dict[str, int] = {}
    for line in lines[1:]:
        try:
            key, mult_text = line.split("\t")
            mult = int(mult_text)
        except ValueError as exc:
            raise ValueError(f"bad deck entry line {line!r}") from exc
        if key in entries:
            raise ValueError(f"duplicate deck entry for {key!r}")
        card = from_graph6(key)
        if card.n != k:
            raise ValueError(f"card {key!r} does not have {k} vertices")
        canonical = canonical_key(card)
        if canonical != key:
            raise ValueError(f"card {key!r} is not canonical; its key is {canonical!r}")
        entries[key] = mult
    return Deck(k, n, entries)
