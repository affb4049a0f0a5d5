"""Exhaustive censuses: enumerate all n-vertex graphs up to isomorphism,
partition a family by k-deck, and check invariants across each class.

Enumeration is orderly (Read, "Every one a winner", 1978): every
canonical (n-1)-vertex key is decoded in its canonical labelling and
extended by a new last vertex with each of the 2^(n-1) possible
neighbourhoods, and a child is kept exactly when its own labelling is
canonical.  The lex-min key is hereditary: in the canonical labelling of
a graph the first n-1 vertices carry their own subgraph's canonical
labelling, because their upper triangle is the first C(n-1, 2) bits of
the graph6 text and is compared first.  So each class is emitted once,
by one parent and one neighbourhood, and no dedup set is needed.

Family members are independent work items; augmentation and deck
computation shard by member index across processes and concatenate, so
results are identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from pathlib import Path
from typing import NamedTuple, Sequence

from . import canon
from .counting import phi_formula  # noqa: F401 (perfbench/tracing.py binds it)
from .decks import Deck, compute_deck, deck_equal, derive_subdeck, phi_vector
from .decks import UnrealizableDeckError, _degree_counts_of_key, _graph_of_key
from .decks import _deck_tally, _key_is_connected, _triangles_of_key, entry_text
from .decks import edge_count_from_deck  # noqa: F401 (perfbench/tracing.py binds it)
from .graphs import (
    _REVERSED,
    Graph,
    _g6_from_bits,
    _triangle_bits,
    claw_subdivided,
    cycle_graph,
    degree_list,
    disjoint_union,
    empty_graph,
    path_graph,
)

# Published counts of n-vertex graphs up to isomorphism (OEIS A000088),
# n = 1..MAX_CENSUS_ORDER; an enumerated family of any other size is
# rejected.
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)

# The only order bound: the orders whose family size and file are pinned.
MAX_CENSUS_ORDER = len(GRAPH_COUNTS)

# sha256 of each family file, graphs_n{n}.g6, n = 1..MAX_CENSUS_ORDER:
# the sorted canonical keys, one per line.  A reload must match its pin.
FAMILY_SHA256 = (
    "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    "4779a12d9a07b2a2e13924257ea8b573ba0bd3af65d263532115d2ee564e7762",
    "20785da1cf32ff06b5c7830950a3525a00c0ffc56e24213a2047c413effdf161",
    "6ba261a8381f12c8b4b59ae2c7715cee98a31b3f4c6b5a6bea5ef4eba006a0fc",
    "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f",
    "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867",
    "0577f590f96e98da745054103d3ce8b4fc9c088892be55bd9631951893def3c0",
)

# FNV-1a, 128-bit variant: a stable, non-cryptographic label for a deck
# class in class TSVs and cache files.  Grouping never reads it.
_FNV_OFFSET = 0x6C62272E07BB014262B821756295C58D
_FNV_PRIME = 0x0000000001000000000000000000013B
_FNV_MASK = (1 << 128) - 1


def _fnv128(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
    return h


def _class_label(text: str) -> str:
    """Hex FNV-1a digest of a deck's ``decks.entry_text``."""
    return f"{_fnv128(text.encode()):032x}"


@dataclass(frozen=True)
class GraphFamily:
    """All n-vertex graphs up to isomorphism, one canonical key each."""

    order: int
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


class DeckClass(NamedTuple):
    """One deck class: its label and its sorted members.  A named tuple,
    because a class-file reload builds one per class."""

    digest_hex: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    key_a: str
    key_b: str
    witness: str


@dataclass(frozen=True)
class ClassReport:
    """Deck-class partition of a family, optionally with invariant checks."""

    order: int
    card_size: int
    classes: tuple[DeckClass, ...]
    invariant: str | None = None
    violations: tuple[Violation, ...] = ()


# ---------------------------------------------------------------------------
# worker pool


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")


def _map_chunks(fn, items: Sequence, jobs: int, *args) -> list:
    """``fn(chunk, *args)`` concatenated over chunks of ``items``: one
    chunk in this process, or 4 * ``jobs`` chunks over ``jobs`` workers."""
    if jobs == 1 or len(items) < 2:
        return fn(items, *args)
    step = -(-len(items) // (4 * jobs))
    chunks = [items[i : i + step] for i in range(0, len(items), step)]
    out: list = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(fn, chunks, *([arg] * len(chunks) for arg in args)):
            out.extend(part)
    return out


# ---------------------------------------------------------------------------
# enumeration


def _augmentations(parent_key: str) -> list[str]:
    """Keys of the children of ``parent_key`` whose labelling is canonical."""
    parent = _graph_of_key(parent_key)
    m = parent.n
    high = _triangle_bits(parent.rows) << m
    out = []
    for mask in range(1 << m):
        rows = [r | ((mask >> v & 1) << m) for v, r in enumerate(parent.rows)]
        rows.append(mask)
        key = canon._key_for_rows(m + 1, tuple(rows))
        # the child's own graph6: the parent's triangle, then column m
        if key == _g6_from_bits(m + 1, high | _REVERSED[m][mask]):
            out.append(key)
    return out


def _augment_chunk(parent_keys: Sequence[str]) -> list[str]:
    return [key for parent in parent_keys for key in _augmentations(parent)]


def enumerate_graphs(
    n: int,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> GraphFamily:
    """One canonical representative per isomorphism class of n-vertex graphs.

    A cached family is reloaded only if it matches its pin (see
    ``CensusCache``), so a stale parent file fails at load, before any
    augmentation.  Raises ``ValueError``, before anything is stored, if
    the augmented family still comes out the wrong size.
    """
    if not 1 <= n <= MAX_CENSUS_ORDER:
        raise ValueError(f"census order must be in [1, {MAX_CENSUS_ORDER}], got {n}")
    _check_jobs(jobs)
    if cache is not None:
        cached = cache.load_family(n)
        if cached is not None:
            return cached
    if n == 1:
        family = GraphFamily(1, ("@",))
    else:
        parents = enumerate_graphs(n - 1, jobs=jobs, cache=cache)
        keys = sorted(_map_chunks(_augment_chunk, parents.members, jobs))
        if len(keys) != GRAPH_COUNTS[n - 1]:
            raise ValueError(
                f"{len(keys)} graphs on {n} vertices, not {GRAPH_COUNTS[n - 1]}: "
                f"the {n - 1}-vertex family holds non-canonical keys"
            )
        family = GraphFamily(n, tuple(keys))
    if cache is not None:
        cache.store_family(family)
    return family


# ---------------------------------------------------------------------------
# deck-class partition


def _deck_chunk(keys: Sequence[str], k: int) -> list[tuple[str, str]]:
    """Each member's k-deck as its ``entry_text``, by the same card walk
    as ``compute_deck``.  Siblings (members with the same first n-1
    vertices) are contiguous in a sorted family, so each run of them
    walks its parent once (see ``decks._deck_tally``)."""
    return [
        (key, entry_text(_deck_tally(_graph_of_key(key).rows, k)))
        for key in keys
    ]


def deck_classes(
    family: GraphFamily,
    k: int,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> ClassReport:
    """Partition ``family`` by k-deck.

    Members are grouped by the entry text of their decks, so two members
    share a class exactly when their decks are equal.  Each class is then
    labeled with the FNV-1a digest of that text, which only names it in
    class TSVs and cache files: a (vanishingly unlikely) collision yields
    two classes that share a label, never a merged class.  A class file
    names classes by label only, so it is stored only when the labels
    are pairwise distinct.
    """
    if not 1 <= k <= family.order:
        raise ValueError(f"card size {k} out of range for order {family.order}")
    _check_jobs(jobs)
    if cache is not None:
        cached = cache.load_classes(family, k)
        if cached is not None:
            return cached
    rows = _map_chunks(_deck_chunk, family.members, jobs, k)

    by_text: dict[str, list[str]] = {}
    for key, text in rows:
        by_text.setdefault(text, []).append(key)
    classes = [
        DeckClass(_class_label(text), tuple(sorted(members)))
        for text, members in by_text.items()
    ]
    classes.sort()
    report = ClassReport(family.order, k, tuple(classes))
    if cache is not None and len({cls.digest_hex for cls in classes}) == len(classes):
        cache.store_classes(report)
    return report


INVARIANTS = ("degree_list", "connectedness", "isomorphism")


def _member_value(invariant: str, key: str):
    """The value of ``invariant`` on one family member."""
    if invariant == "degree_list":
        return degree_list(_graph_of_key(key))
    if invariant == "connectedness":
        return _key_is_connected(key)
    # distinct canonical keys in one deck class are non-isomorphic
    return key


def _pair_witness(invariant: str, value_a, value_b) -> str | None:
    if value_a == value_b:
        return None
    if invariant == "degree_list":
        fmt = lambda d: "(" + ",".join(map(str, d)) + ")"
        return f"degree lists {fmt(value_a)} vs {fmt(value_b)}"
    if invariant == "connectedness":
        word = lambda c: "connected" if c else "disconnected"
        return f"{word(value_a)} vs {word(value_b)}"
    return "non-isomorphic graphs sharing a deck"


def _check_invariant(invariant: str) -> None:
    if invariant not in INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}; choose from {INVARIANTS}")


def verify_invariant(report: ClassReport, invariant: str) -> ClassReport:
    """Attach every in-class pair that disagrees on ``invariant``.

    Each member of a class with two or more members is decoded once.
    """
    _check_invariant(invariant)
    violations: list[Violation] = []
    for cls in report.classes:
        if len(cls.members) < 2:
            continue
        valued = [(key, _member_value(invariant, key)) for key in cls.members]
        for (key_a, value_a), (key_b, value_b) in combinations(valued, 2):
            witness = _pair_witness(invariant, value_a, value_b)
            if witness is not None:
                violations.append(Violation(key_a, key_b, witness))
    violations.sort(key=lambda v: (v.key_a, v.key_b))
    return ClassReport(
        report.order,
        report.card_size,
        report.classes,
        invariant,
        tuple(violations),
    )


def count_violations(report: ClassReport, invariant: str) -> int:
    """How many pairs ``verify_invariant`` would attach, counted without
    listing them: a class of m members on which ``invariant`` takes each
    value v c_v times has C(m, 2) - sum_v C(c_v, 2) disagreeing pairs.
    Linear in the family, so it also serves classes too large to list."""
    _check_invariant(invariant)
    count = 0
    for cls in report.classes:
        m = len(cls.members)
        if m < 2:
            continue
        values = Counter(_member_value(invariant, key) for key in cls.members)
        count += comb(m, 2) - sum(comb(c, 2) for c in values.values())
    return count


# ---------------------------------------------------------------------------
# realization search


@lru_cache(maxsize=8)
def _members_by_counts(members: tuple[str, ...]) -> dict[tuple[int, ...], list[int]]:
    """Indices of ``members`` grouped by degree counts; n = 8 has 1213
    groups.

    A reloaded family is the one ``GraphFamily`` that
    ``CensusCache.load_family`` decoded for its order, so each command
    finds its entry by identity, and only hashes the member tuple.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(members):
        groups.setdefault(_degree_counts_of_key(key), []).append(i)
    return groups


@lru_cache(maxsize=None)
def _phi_columns(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of ``phi_formula`` for n-vertex graphs and
    k-decks: entry i of column j < k is C(i, j) * C(n-1-i, k-1-j), what
    one vertex of degree i adds to phi(j)."""
    return tuple(
        tuple(comb(i, j) * comb(n - 1 - i, k - 1 - j) for i in range(n))
        for j in range(k)
    )


def _phi_of_counts(counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The phi vector of the k-deck of any graph with degree counts
    ``counts``: phi(j) is column j of ``_phi_columns`` dotted with them."""
    return tuple(sum(map(mul, counts, col)) for col in _phi_columns(len(counts), k))


@lru_cache(maxsize=8)
def _members_by_phi(members: tuple[str, ...], k: int) -> dict[tuple[int, ...], list[int]]:
    """Sorted indices of ``members`` grouped by the phi vector of their
    k-decks, computed once per degree-count vector from the coefficient
    table ``_phi_columns``.  Distinct count vectors can share a phi vector."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for counts, indices in _members_by_counts(members).items():
        groups.setdefault(_phi_of_counts(counts, k), []).extend(indices)
    for indices in groups.values():
        indices.sort()
    return groups


def find_reconstructions(deck: Deck, family: GraphFamily) -> tuple[str, ...]:
    """Canonical keys of every member of ``family`` whose k-deck equals
    ``deck``, which must have the family's order.

    An empty result means no member realizes the deck.  By Kelly's lemma
    the deck fixes the count of every induced subgraph on at most k
    vertices, and (``derive_subdeck``) every smaller deck, so exact
    screens are read off the deck once:

    - phi: the deck's degree-occurrence totals must equal those of the
      member's degree counts (this also fixes the edge count, since
      sum_j j * phi(j) = 2e * C(n-2, k-2)).  The family is indexed by
      phi once per card size and process, from a per-(n, k) table of
      the coefficients of ``phi_formula``, so this screen is one dict
      lookup;
    - triangles (k >= 3): the member must have sum(mult * t(card)) /
      C(n-3, k-3) triangles, and a total that does not divide means no
      graph realizes the deck;
    - the 4-deck (k > 4): the member's 4-deck must equal the one derived
      from the deck, and a derivation that does not divide means no
      graph realizes the deck.  A 4-deck has only 11 card classes, all
      held by the canonical-key memo after the first few cards.

    Only a member that passes every screen has its k-deck built and
    compared.  The screens are implied by deck equality, so they never
    change the result.
    """
    n = family.order
    if deck.origin_order != n:
        raise ValueError(f"deck has origin order {deck.origin_order}, expected {n}")
    k = deck.card_size
    triangles = four = None
    if k >= 3:
        total = sum(mult * _triangles_of_key(key) for key, mult in deck.entries.items())
        triangles, rest = divmod(total, comb(n - 3, k - 3))
        if rest:
            return ()
    if k > 4:
        four = deck
        try:
            while four.card_size > 4:
                four = derive_subdeck(four)
        except UnrealizableDeckError:
            return ()
    members = family.members
    found = []
    for i in _members_by_phi(members, k).get(phi_vector(deck), ()):
        key = members[i]
        if triangles is not None and _triangles_of_key(key) != triangles:
            continue
        g = _graph_of_key(key)
        if four is not None and compute_deck(g, 4).entries != four.entries:
            continue
        if deck_equal(compute_deck(g, k), deck):
            found.append(key)
    return tuple(found)


def reconstructibility_number(g: Graph, family: GraphFamily) -> int:
    """Largest l such that all decks of cards missing at most l vertices
    single out ``g`` within ``family``, which must have ``g``'s order.

    Returns 0 when even the deck missing one vertex is shared.
    """
    n = g.n
    if n != family.order:
        raise ValueError(f"graph has order {n}, expected {family.order}")
    for l in range(1, n):
        matches = find_reconstructions(compute_deck(g, n - l), family)
        if len(matches) > 1:
            return l - 1
    return n - 1


# ---------------------------------------------------------------------------
# known deck-equal pairs


def known_pairs(l: int) -> tuple[tuple[Graph, Graph, int], ...]:
    """Known pairs of non-isomorphic graphs sharing a deck of l-vertex
    cards, each as (g, h, l).

    ``l`` is the card size, not the number of deleted vertices: the
    pair (C_{l+1} + P_{l-1}, P_{2l}) misses l of its 2l vertices, but at
    l = 3 the two subdivided-claw pairs, on 5 and 6 vertices, miss 2
    and 3.
    """
    if not 2 <= l <= 4:
        raise ValueError(f"pair parameter must be in [2, 4], got {l}")
    pairs = [
        (disjoint_union(cycle_graph(l + 1), path_graph(l - 1)), path_graph(2 * l), l)
    ]
    if l == 3:
        pairs.append(
            (disjoint_union(cycle_graph(4), empty_graph(1)), claw_subdivided(1), 3)
        )
        pairs.append(
            (disjoint_union(cycle_graph(5), empty_graph(1)), claw_subdivided(2), 3)
        )
    return tuple(pairs)


# ---------------------------------------------------------------------------
# persistent cache

# Families that ``CensusCache.load_family`` decoded, by order.  Each was
# decoded from bytes that matched the order's pin, so an order has one
# possible content and an entry can never go stale.
_DECODED_FAMILIES: dict[int, GraphFamily] = {}


class CensusCache:
    """Directory-backed cache of families and class partitions.

    ``graphs_n{n}.g6`` holds one canonical graph6 key per line, sorted;
    ``classes_n{n}_k{k}.tsv`` holds ``digestHex<TAB>canonicalKey`` lines
    sorted by digest then key, and a reload reads them in order,
    starting a class at each new digest.  Files are written atomically
    (write-then-rename).  A family file whose sha256 is not its pin in
    ``FAMILY_SHA256``, a class file whose member count is wrong, or a
    class line that is not ``digest<TAB>key`` or not greater than the
    line before it, raises ``ValueError`` naming the file (and line).

    Every load of a family file hashes its bytes, but each order is
    decoded at most once per process: all loads that match the pin
    return the same ``GraphFamily``.  The memo is keyed by verified
    content, so it never goes stale.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _family_path(self, n: int) -> Path:
        return self.directory / f"graphs_n{n}.g6"

    def _classes_path(self, n: int, k: int) -> Path:
        return self.directory / f"classes_n{n}_k{k}.tsv"

    def _write_atomic(self, path: Path, text: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load_family(self, n: int) -> GraphFamily | None:
        path = self._family_path(n)
        if not path.exists():
            return None
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != FAMILY_SHA256[n - 1]:
            raise ValueError(
                f"{path}: not the {GRAPH_COUNTS[n - 1]} graphs on {n} "
                f"vertices (sha256 differs from its pin)"
            )
        family = _DECODED_FAMILIES.get(n)
        if family is None:
            members = tuple(data.decode().split())  # graph6 has no whitespace
            family = _DECODED_FAMILIES[n] = GraphFamily(n, members)
        return family

    def store_family(self, family: GraphFamily) -> None:
        self._write_atomic(
            self._family_path(family.order), "\n".join(family.members) + "\n"
        )

    def load_classes(self, family: GraphFamily, k: int) -> ClassReport | None:
        path = self._classes_path(family.order, k)
        if not path.exists():
            return None
        grouped: list[tuple[str, list[str]]] = []
        digest, previous = None, ""
        for number, line in enumerate(path.read_text().splitlines(), 1):
            try:
                label, key = line.split("\t")
            except ValueError:
                raise ValueError(
                    f"{path}: line {number} is not digest<TAB>key"
                ) from None
            if line <= previous:
                raise ValueError(f"{path}: line {number} is out of order")
            previous = line
            if label != digest:
                digest = label
                members: list[str] = []
                grouped.append((label, members))
            members.append(key)
        count = sum(len(keys) for _, keys in grouped)
        if count != len(family):
            raise ValueError(
                f"{path}: {count} members, but the family has {len(family)}"
            )
        classes = tuple(DeckClass(label, tuple(keys)) for label, keys in grouped)
        return ClassReport(family.order, k, classes)

    def store_classes(self, report: ClassReport) -> None:
        self._write_atomic(
            self._classes_path(report.order, report.card_size),
            "\n".join(_class_lines(report)) + "\n",
        )


# ---------------------------------------------------------------------------
# report rendering


def _class_lines(report: ClassReport) -> list[str]:
    """Sorted ``digest<TAB>key`` lines, one per member: the class file."""
    return sorted(
        f"{cls.digest_hex}\t{key}" for cls in report.classes for key in cls.members
    )


def summary_line(report: ClassReport, violations: int | None = None) -> str:
    """The one-line summary of a class report, with a violation count
    when one is given."""
    line = f"n={report.order} k={report.card_size} classes={len(report.classes)}"
    if violations is not None:
        line += f" violations={violations}"
    return line + "\n"


def emit_report(report: ClassReport, fmt: str = "summary") -> str:
    """Render a class report deterministically.

    ``summary`` is a single line; ``tsv`` lists classes (or violations,
    when an invariant was checked) under a header line.
    """
    if fmt == "summary":
        checked = report.invariant is not None
        return summary_line(report, len(report.violations) if checked else None)
    if fmt == "tsv":
        if report.invariant is not None:
            lines = ["key_a\tkey_b\twitness"]
            lines += [
                f"{v.key_a}\t{v.key_b}\t{v.witness}" for v in report.violations
            ]
        else:
            lines = ["digest\tkey"] + _class_lines(report)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose summary or tsv")
