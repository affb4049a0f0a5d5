"""k-decks: multisets of induced k-vertex cards, plus deck algebra.

A deck stores one entry per card isomorphism class, keyed by canonical
graph6 text with a positive multiplicity.  Multiplicities are exact
integers throughout; the only place the module tolerates division is
the sub-deck law, where non-divisibility is diagnostic of a deck no
graph realizes.

Cards are extracted by prefix-sharing recursion over vertex subsets:
each added vertex shifts its column against the chosen prefix into the
labeled upper-triangle bits, so every card's bits come out without
building its rows.  Those bits are the key of the canonical-key memo
(``canon._memo``), which is probed inline; only on a miss are the
card's rows built and handed to ``canon._key_for_rows``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping

from .canon import _key_for_rows, _memo
from .graphs import Graph, from_graph6, induced_subgraph, is_connected

# FNV-1a, 128-bit variant: stable, fast, non-cryptographic.  Collisions
# are resolved by full entry comparison, so the digest is only ever an
# accelerator.
_FNV_OFFSET = 0x6C62272E07BB014262B821756295C58D
_FNV_PRIME = 0x0000000001000000000000000000013B
_FNV_MASK = (1 << 128) - 1


def _fnv128(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
    return h


class UnrealizableDeckError(ValueError):
    """No graph can realize the deck at hand."""


class Deck:
    """Multiset of k-cards of an n-vertex graph.

    ``entries`` maps the canonical key of each card class to its
    multiplicity.  The digest is a pure function of the sorted
    (key, multiplicity) sequence.
    """

    __slots__ = ("card_size", "origin_order", "entries", "digest")

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
        object.__setattr__(self, "digest", _fnv128(_entry_blob(entries)))

    def __setattr__(self, name, value):
        raise AttributeError("Deck is immutable")

    @property
    def digest_hex(self) -> str:
        return f"{self.digest:032x}"

    def sorted_entries(self) -> list[tuple[str, int]]:
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Deck)
            and self.card_size == other.card_size
            and self.origin_order == other.origin_order
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.card_size, self.origin_order, self.digest))

    def __repr__(self) -> str:
        return (
            f"Deck(k={self.card_size}, n={self.origin_order}, "
            f"classes={len(self.entries)})"
        )


def _entry_blob(entries: Mapping[str, int]) -> bytes:
    return "\n".join(f"{k}\t{m}" for k, m in sorted(entries.items())).encode()


@lru_cache(maxsize=None)
def _graph_of_key(key: str) -> Graph:
    return from_graph6(key)


@lru_cache(maxsize=None)
def _degree_counts_of_key(key: str) -> tuple[int, ...]:
    g = _graph_of_key(key)
    counts = [0] * g.n
    for r in g.rows:
        counts[r.bit_count()] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _key_is_connected(key: str) -> bool:
    return is_connected(_graph_of_key(key))


def _add_cards(g: Graph, k: int, tally: dict[str, int], mult: int) -> None:
    """Add ``mult`` to ``tally[key]`` for each of the C(n, k) induced
    k-vertex cards of ``g``, ``key`` being the card's canonical key."""
    n = g.n
    rows = g.rows
    if k == 1:
        key = _key_for_rows(1, (0,))
        tally[key] = tally.get(key, 0) + n * mult
        return
    last = k - 1
    chosen = [0] * k

    def extend(depth: int, start: int, bits: int, cols: list[int]) -> None:
        # Place chosen[depth] >= start.  ``bits`` is the memo key of the
        # card on chosen[:depth]; ``cols[i]`` is the column of vertex
        # start + i against that prefix, first vertex most significant.
        for i in range(n - last + depth - start):
            v = start + i
            chosen[depth] = v
            rv = rows[v]
            prefix = bits << depth | cols[i]
            if depth + 1 < last:
                extend(depth + 1, v + 1, prefix, [
                    c << 1 | (rv >> u & 1) for u, c in enumerate(cols[i + 1:], v + 1)
                ])
                continue
            # chosen[last] = w completes a card
            prefix <<= last
            for w, c in enumerate(cols[i + 1:], v + 1):
                card_bits = prefix | c << 1 | (rv >> w & 1)
                key = _memo.get(card_bits)
                if key is None:
                    chosen[last] = w
                    key = _key_for_rows(k, induced_subgraph(g, chosen).rows)
                tally[key] = tally.get(key, 0) + mult

    extend(0, 0, 1, [0] * n)


def compute_deck(g: Graph, k: int) -> Deck:
    """The multiset of all C(n, k) induced k-vertex cards of ``g``."""
    if not 1 <= k <= g.n:
        raise ValueError(f"card size {k} out of range for n={g.n}")
    entries: dict[str, int] = {}
    _add_cards(g, k, entries, 1)
    return Deck(k, g.n, entries)


def deck_equal(a: Deck, b: Deck) -> bool:
    """Entry-exact equality; digests screen first, entries decide."""
    if a.card_size != b.card_size or a.origin_order != b.origin_order:
        raise ValueError(
            f"cannot compare decks with k={a.card_size}, n={a.origin_order} "
            f"and k={b.card_size}, n={b.origin_order}"
        )
    if a.digest != b.digest:
        return False
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
        _add_cards(_graph_of_key(key), k - 1, acc, mult)
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


def count_j_vertices(deck: Deck, j: int) -> int:
    """Total number of degree-j vertices over all cards, with multiplicity."""
    if not 0 <= j <= deck.card_size - 1:
        raise ValueError(f"degree {j} out of range for card size {deck.card_size}")
    return sum(
        mult * _degree_counts_of_key(key)[j] for key, mult in deck.entries.items()
    )


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


def serialize_deck(deck: Deck) -> str:
    """Header line ``k=<k> n=<n>``, then ``key<TAB>mult`` lines sorted by key."""
    lines = [f"k={deck.card_size} n={deck.origin_order}"]
    lines += [f"{key}\t{mult}" for key, mult in deck.sorted_entries()]
    return "\n".join(lines) + "\n"


def parse_deck(text: str) -> Deck:
    """Inverse of :func:`serialize_deck`, with full validation."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty deck text")
    header = lines[0].split()
    try:
        fields = dict(item.split("=", 1) for item in header)
        k = int(fields["k"])
        n = int(fields["n"])
    except (ValueError, KeyError) as exc:
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
        if from_graph6(key).n != k:
            raise ValueError(f"card {key!r} does not have {k} vertices")
        entries[key] = mult
    return Deck(k, n, entries)
