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

import hashlib
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb
from operator import lt
from pathlib import Path
from typing import Sequence

from . import canon
from .counting import _phi_of_counts, counts_to_degree_list
from .counting import phi_formula  # noqa: F401 (perfbench/tracing.py binds it)
from .decks import Deck, compute_deck, derive_subdeck, phi_vector
from .decks import deck_equal  # noqa: F401 (perfbench/tracing.py binds it)
from .decks import UnrealizableDeckError, _degree_counts_of_key, _graph_of_key
from .decks import _cards_of_key, _deck_tally, _key_is_connected, _triangles_of_key
from .decks import entry_text
from .decks import edge_count_from_deck  # noqa: F401 (perfbench/tracing.py binds it)
from .graphs import degree_list  # noqa: F401 (perfbench/tracing.py binds it)
from .graphs import (
    _COLUMNS,
    Graph,
    _g6_from_bits,
    _triangle_bits,
    claw_subdivided,
    cycle_graph,
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


_LABEL_DIGITS = b"0123456789abcdef"  # what _class_label writes, 32 of them


@dataclass(frozen=True)
class GraphFamily:
    """All n-vertex graphs up to isomorphism, one canonical key each,
    sorted."""

    order: int
    members: tuple[str, ...]
    # degree counts -> members with those counts, in family order; filled
    # once by ``_phi_index``
    _by_counts: dict[tuple[int, ...], list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # card size -> phi vector -> members with that phi, in family order;
    # filled by ``find_reconstructions``
    _by_phi: dict[int, dict[tuple[int, ...], list[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # card size -> (bytes, read) of the shared file that
    # ``CensusCache._read_derived`` last accepted for this family; only a
    # file of equal bytes is served from it
    _shared_reads: dict[int, tuple[bytes, SharedClasses]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[str]:
        """The members, for the membership checks of cache files."""
        return frozenset(self.members)


@dataclass(frozen=True)
class Violation:
    key_a: str
    key_b: str
    witness: str


@dataclass(frozen=True)
class SharedClasses:
    """What ``verify`` and a class summary read of a deck-class partition.

    ``members`` is the size of the family.  ``shared`` holds the sorted
    members of each class of two or more members, in label order; only
    they can hold a violation.  ``labels`` holds their labels, in the same
    order, for the shared file.  Every other member is a class of its
    own, so the partition has ``members - sum(len(keys) - 1 for keys in
    shared)`` classes, and no object is built for a singleton.

    The object also keeps, per invariant name, the pairs that
    ``verify_invariant`` listed, so it values each member and builds the
    pairs once per object.  A family serves a shared file whose bytes
    equal the last one it accepted for that card size as the same
    object (``GraphFamily._shared_reads``), so repeated checks of an
    unchanged file value nothing again, while any other file, another
    family object or a fresh census gives an object that starts empty.
    """

    order: int
    card_size: int
    members: int
    shared: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]
    # invariant name -> what ``verify_invariant`` returns for it; only it
    # fills this, since ``count_violations`` serves classes too large to list
    _violations: dict[str, tuple[Violation, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class ClassReport(SharedClasses):
    """Deck-class partition of a family, as its two cache files hold it:
    its shared classes, and in ``singletons`` the sorted
    ``digest<TAB>key`` line of each class of one member, the class
    file's body (so ``members == len(singletons) + sum(map(len,
    shared))``).  ``emit_report`` merges the two into the body of
    ``classes --format tsv``."""

    singletons: tuple[str, ...]


# ---------------------------------------------------------------------------
# worker pool


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_CENSUS_ORDER:
        raise ValueError(f"census order must be in [1, {MAX_CENSUS_ORDER}], got {n}")


def _map_chunks(fn, items: Sequence, jobs: int, *args) -> list:
    """``fn(chunk, *args)`` concatenated over chunks of ``items``: one
    chunk in this process, or 4 * ``jobs`` chunks over ``jobs`` workers."""
    if jobs == 1 or len(items) < 2:
        return fn(items, *args)
    import concurrent.futures  # only a pool needs it; it is slow to import

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
        if key == _g6_from_bits(m + 1, high | _COLUMNS[m][mask]):
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
    augmentation, and the parents are always the canonical family.
    Raises ``ValueError``, before anything is stored, if the augmented
    family still comes out the wrong size, which only a faulty
    augmentation can cause.
    """
    _check_order(n)
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
                f"augmenting the {n - 1}-vertex family went wrong"
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


def _check_partition(family: GraphFamily, k: int, jobs: int) -> None:
    if not 1 <= k <= family.order:
        raise ValueError(f"card size {k} out of range for order {family.order}")
    _check_jobs(jobs)


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
    two classes that share a label, never a merged class.  The report
    holds the members of each class of two or more members and the
    ``digest<TAB>key`` line of each class of one, what the shared and
    class files hold (see ``ClassReport``).  Cache files name
    classes by label only, so they are stored only when the labels are
    pairwise distinct.  The cached shared and class files are read
    instead when both are exactly what this function would store; any
    other files there are recomputed and overwritten (see
    ``CensusCache``).
    """
    _check_partition(family, k, jobs)
    if cache is not None:
        cached = cache.load_classes(family, k)
        if cached is not None:
            return cached
    return _fresh_classes(family, k, jobs, cache)


def shared_classes(
    family: GraphFamily,
    k: int,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> SharedClasses:
    """The member count and shared classes of ``family``'s k-deck
    partition, all that ``verify`` and a class summary read.

    A cached shared file is read when it is exactly what
    ``CensusCache.store_classes`` would write, and no member line is
    built.  Otherwise the partition comes from a fresh census, which
    stores both cache files.
    """
    _check_partition(family, k, jobs)
    if cache is not None:
        cached = cache.load_shared(family, k)
        if cached is not None:
            return cached
    return _fresh_classes(family, k, jobs, cache)


def _fresh_classes(
    family: GraphFamily, k: int, jobs: int, cache: "CensusCache | None"
) -> ClassReport:
    """``deck_classes`` without the cache files: walk every member's
    cards (at k = n, read its one card off its key), and store the
    result when its labels are distinct."""
    if k == family.order:
        # a member's one n-card is the member, and members are canonical
        rows = [(key, entry_text({key: 1})) for key in family.members]
    else:
        rows = _map_chunks(_deck_chunk, family.members, jobs, k)

    by_text: dict[str, list[str]] = {}
    for key, text in rows:
        by_text.setdefault(text, []).append(key)
    # one sort serves both files: the shared classes in label order, and
    # the singleton lines, which sort as their (label, [key]) pairs do
    classes = sorted((_class_label(text), members) for text, members in by_text.items())
    shared = [(label, tuple(sorted(members))) for label, members in classes
              if len(members) > 1]
    report = ClassReport(
        family.order, k, len(rows), tuple(m for _, m in shared),
        tuple(label for label, _ in shared),
        tuple(f"{label}\t{members[0]}" for label, members in classes
              if len(members) == 1),
    )
    if cache is not None and len({label for label, _ in classes}) == len(classes):
        cache.store_classes(report)
    return report


# The invariants ``verify`` checks, one row each: name -> (its value on a
# member, read from the member's canonical key; the witness text for two
# differing values).  Rows look ``_degree_counts_of_key`` and
# ``_key_is_connected`` up on this module at call time, so they call
# whatever is bound there; both keep their value per key, so a fresh read
# of a file in the same process decodes and counts no member again.
# Degree counts are equal exactly when degree lists are, and the witness
# prints lists.
INVARIANTS = {
    "degree_list": (
        lambda key: _degree_counts_of_key(key),
        lambda *counts: "degree lists " + " vs ".join(
            "(" + ",".join(map(str, counts_to_degree_list(c))) + ")" for c in counts),
    ),
    "connectedness": (
        lambda key: _key_is_connected(key),
        lambda *cs: " vs ".join("connected" if c else "disconnected" for c in cs),
    ),
    # distinct canonical keys in one deck class are non-isomorphic
    "isomorphism": (lambda key: key, lambda *_: "non-isomorphic graphs sharing a deck"),
}


def _disagreeing_classes(report: SharedClasses, invariant: str):
    """``invariant``'s witness, and the (members, values) of each shared
    class whose members do not all take one value of it."""
    if invariant not in INVARIANTS:
        choices = tuple(INVARIANTS)
        raise ValueError(f"unknown invariant {invariant!r}; choose from {choices}")
    value, witness = INVARIANTS[invariant]
    classes = []
    for members in report.shared:
        values = tuple(map(value, members))
        if values.count(values[0]) < len(values):
            classes.append((members, values))
    return witness, classes


def verify_invariant(report: SharedClasses, invariant: str) -> tuple[Violation, ...]:
    """Every in-class pair that disagrees on ``invariant`` (see ``INVARIANTS``), sorted.

    Only the shared classes are read (a singleton has no pair), and only
    those whose members disagree are searched for pairs.  The result is
    kept on ``report`` per invariant.
    """
    found = report._violations.get(invariant)
    if found is None:
        witness, classes = _disagreeing_classes(report, invariant)
        violations = [
            Violation(key_a, key_b, witness(value_a, value_b))
            for members, values in classes
            for (key_a, value_a), (key_b, value_b)
            in combinations(zip(members, values), 2)
            if value_a != value_b
        ]
        violations.sort(key=lambda v: (v.key_a, v.key_b))
        found = report._violations[invariant] = tuple(violations)
    return found


def count_violations(report: SharedClasses, invariant: str) -> int:
    """How many pairs ``verify_invariant`` would return, counted without
    listing them: a shared class of m members on which ``invariant`` (a
    name in ``INVARIANTS``) takes each value v c_v times has C(m, 2) -
    sum_v C(c_v, 2) disagreeing pairs.  Linear in the shared members, so
    it also serves classes too large to list."""
    _, classes = _disagreeing_classes(report, invariant)
    return sum(
        comb(len(values), 2) - sum(comb(c, 2) for c in Counter(values).values())
        for _, values in classes
    )


# ---------------------------------------------------------------------------
# realization search


def _phi_index(family: GraphFamily, k: int) -> dict[tuple[int, ...], list[str]]:
    """``family``'s members grouped by the phi vector of their k-decks,
    in family order.  Phi is computed once per degree-count vector
    (``family._by_counts``, whose lists the index shares), by dot
    products with ``counting._phi_columns``; the groups of count vectors
    that share a phi vector are merged by sorting."""
    by_counts = family._by_counts
    if not by_counts:
        for key in family.members:
            by_counts.setdefault(_degree_counts_of_key(key), []).append(key)
    groups: dict[tuple[int, ...], list[list[str]]] = {}
    for counts, keys in by_counts.items():
        groups.setdefault(_phi_of_counts(counts, k), []).append(keys)
    return {
        phi: runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))
        for phi, runs in groups.items()
    }


def find_reconstructions(deck: Deck, family: GraphFamily) -> tuple[str, ...]:
    """Canonical keys of every member of ``family`` whose k-deck equals
    ``deck``, which must have the family's order.

    An empty result means no member realizes the deck.  By Kelly's lemma
    the deck fixes the count of every induced subgraph on at most k
    vertices, and (``derive_subdeck``) every smaller deck, so exact
    screens are read off the deck once:

    - phi: the deck's degree-occurrence totals must equal those of the
      member's degree counts (this also fixes the edge count, since
      sum_j j * phi(j) = 2e * C(n-2, k-2)).  The family object groups
      its members by degree counts once, and indexes them by phi once
      per card size (``_phi_index``, one phi per count vector, from the
      one table of the identity's coefficients,
      ``counting._phi_columns``), so this screen is one dict lookup;
    - triangles (k >= 3): the member must have sum(mult * t(card)) /
      C(n-3, k-3) triangles, and a total that does not divide means no
      graph realizes the deck;
    - the 4-deck (k > 4): the member's 4-deck must equal the one derived
      from the deck, and a derivation that does not divide means no
      graph realizes the deck.

    A member that passes every screen is kept when its k-deck entries
    equal the deck's.  Member decks, and the card tallies behind a
    derivation, come from the per-key cache ``decks._cards_of_key``, so
    each is walked once per process.  The screens are implied by deck
    equality, so they never change the result.
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
    index = family._by_phi.get(k)
    if index is None:
        index = family._by_phi[k] = _phi_index(family, k)
    found = []
    for key in index.get(phi_vector(deck), ()):
        if triangles is not None and _triangles_of_key(key) != triangles:
            continue
        if four is not None and _cards_of_key(key, 4) != four.entries:
            continue
        if _cards_of_key(key, k) == deck.entries:
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

# Families that ``CensusCache.load_family`` decoded, by order, each with
# the bytes it was decoded from.  Those bytes matched the order's pin, so
# an order has one possible content and an entry can never go stale; a
# load of equal bytes is served without hashing them again.  Every
# command in a process that loads an order reads this one object, and so
# one grouping by degree counts (``GraphFamily._by_counts``) and one phi
# index per card size (``GraphFamily._by_phi``).
_DECODED_FAMILIES: dict[int, tuple[bytes, GraphFamily]] = {}


def _read_or_none(path: Path) -> bytes | None:
    """The bytes of ``path``, or None if there is no such file (also one
    deleted since it was listed)."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


class CensusCache:
    """Directory-backed cache of families and class partitions.

    ``graphs_n{n}.g6`` holds one canonical graph6 key per line, sorted.
    Two files derived from a k-deck partition hold each member's label
    once.  ``shared_n{n}_k{k}.tsv`` starts with the header
    ``#deckcensus-shared v1 n=N k=K members=M sha256=H``, where M is the
    family size and H the sha256 of the rest of the file: one
    ``digestHex<TAB>key<TAB>key...`` line per class of two or more
    members, its keys sorted, the lines in label order.
    ``classes_n{n}_k{k}.tsv`` starts with ``#deckcensus-classes v2 n=N
    k=K members=M sha256=H`` and holds the sorted ``digestHex<TAB>key``
    line of each class of one member.  Files are written atomically
    (write-then-rename).

    The pins in ``FAMILY_SHA256`` are the trust root: a family file
    whose sha256 is not its pin raises ``ValueError`` naming the file
    and the remedy, delete it to recompute.  An order outside
    [1, MAX_CENSUS_ORDER] raises ``ValueError`` naming it.  A derived
    file is read only when it is exactly what ``store_classes`` writes
    for this family and card size: that header, a final newline, and
    lines that ``_parse_derived`` accepts, each label 32 lowercase hex
    digits.  Any other file (a v1 class file too) gets one stderr line
    and is treated as missing: the partition is recomputed from the
    cards, and both files are overwritten.

    ``verify`` and class summaries read only the shared file: at n = 8
    it holds 888 classes (1937 keys) for k = 4, 4 for k = 5 and none for
    k = 6 and 7.  Only ``classes --format tsv`` reads the class file; a
    loaded ``ClassReport`` holds its lines as they are.  Every load
    reads its file, but each order is decoded at most once per process:
    all loads that match the pin return the same ``GraphFamily``, and so
    share its phi index, and a load whose bytes equal the decoded ones
    returns it without hashing them.  Likewise a family serves a shared
    file whose bytes equal the last one it accepted for that card size
    without checking it again (see ``_read_derived``); a class file gets
    every check on every load.  A one-shot command reads each file once
    anyway.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _family_path(self, n: int) -> Path:
        return self.directory / f"graphs_n{n}.g6"

    def _derived_path(self, kind: str, n: int, k: int) -> Path:
        return self.directory / f"{kind}_n{n}_k{k}.tsv"

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

    def _read_derived(self, family: GraphFamily, k: int,
                      shared: SharedClasses | None = None):
        """``_parse_derived`` of ``family``'s shared file for card size
        ``k``, or with ``shared`` (read from it) of its class file, or
        None: silently if there is no file, else with one stderr line
        when its header or final newline is not what ``_write_derived``
        writes or ``_parse_derived`` returns None.

        The file is read on every call.  A shared file whose bytes equal
        those that ``family._shared_reads`` holds for ``k`` is served
        from it without being hashed, parsed or validated again: those
        bytes passed every check for this family.  An accepted shared
        file replaces what is held for ``k``, and a rejected one is never
        kept.  A class file gets every check on every load, since its
        validity depends on the shared file."""
        kind = "shared" if shared is None else "classes"
        path = self._derived_path(kind, family.order, k)
        data = _read_or_none(path)
        if data is None:
            return None
        held = family._shared_reads.get(k) if shared is None else None
        if held is not None and held[0] == data:
            return held[1]
        header, _, body = data.partition(b"\n")
        expected = _class_header(family.order, k, len(family), body, kind).encode()
        lines = body.decode(errors="replace").split("\n")
        # the last split is empty when the body ends in a newline
        parsed = (_parse_derived(family, k, lines, shared)
                  if header == expected and not lines.pop() else None)
        if parsed is None:
            print(f"{path}: not this census's {kind} file; recomputing it",
                  file=sys.stderr)
        elif shared is None:
            family._shared_reads[k] = data, parsed
        return parsed

    def _write_derived(self, kind: str, report: SharedClasses, lines) -> None:
        body = "\n".join([*lines, ""])  # each line ends in a newline
        n, k = report.order, report.card_size
        header = _class_header(n, k, report.members, body.encode(), kind)
        self._write_atomic(self._derived_path(kind, n, k), header + "\n" + body)

    def load_family(self, n: int) -> GraphFamily | None:
        _check_order(n)
        path = self._family_path(n)
        data = _read_or_none(path)
        if data is None:
            return None
        decoded = _DECODED_FAMILIES.get(n)
        if decoded is not None and decoded[0] == data:
            return decoded[1]
        if hashlib.sha256(data).hexdigest() != FAMILY_SHA256[n - 1]:
            wrong = f"not the {GRAPH_COUNTS[n - 1]} graphs on {n} vertices"
            raise ValueError(
                f"{path}: {wrong} (sha256 differs from its pin); delete it to recompute"
            )
        # bytes that pass the pin equal any held ones, so none are held yet
        members = tuple(data.decode().split())  # graph6 has no whitespace
        family = GraphFamily(n, members)
        _DECODED_FAMILIES[n] = data, family
        return family

    def store_family(self, family: GraphFamily) -> None:
        self._write_atomic(
            self._family_path(family.order), "\n".join(family.members) + "\n"
        )

    def load_classes(self, family: GraphFamily, k: int) -> ClassReport | None:
        """The partition from a valid shared file and class file."""
        shared = self.load_shared(family, k)
        return None if shared is None else self._read_derived(family, k, shared)

    def store_classes(self, report: ClassReport) -> None:
        """Write the class file, then the shared file."""
        self._write_derived("classes", report, report.singletons)
        self._write_derived("shared", report, (
            "\t".join([label, *members])
            for label, members in zip(report.labels, report.shared)
        ))

    def load_shared(self, family: GraphFamily, k: int) -> SharedClasses | None:
        return self._read_derived(family, k)


def _parse_derived(family: GraphFamily, k: int, lines: list[str],
                   shared: SharedClasses | None):
    """What the ``label<TAB>key...`` lines of ``family``'s shared file
    for card size ``k`` hold, or with ``shared`` (read from that file)
    what they and the lines of its class file hold; None unless the
    rules of both files hold: each label is what ``_class_label``
    writes, the labels strictly increase, and every key is a member,
    none twice.  A shared line then has two or more keys, in increasing
    order.  A class line has one key and no shared class's label, and
    its keys and the shared ones are each member once."""
    # a line is a label, which is 32 characters long, a tab and the keys
    labels = [line[:32] for line in lines]
    if not (set(map(len, labels)) <= {32}
            and not "".join(labels).encode().translate(None, _LABEL_DIGITS)
            and all(map(lt, labels, islice(labels, 1, None)))
            and {line[32:33] for line in lines} <= {"\t"}):
        return None
    if shared is None:
        keys = [line[33:].split("\t") for line in lines]
        flat = list(chain.from_iterable(keys))
        if (min(map(len, keys), default=2) > 1 and keys == list(map(sorted, keys))
                and len(family._member_set.intersection(flat)) == len(flat)):
            return SharedClasses(family.order, k, len(family),
                                 tuple(map(tuple, keys)), tuple(labels))
        return None
    # a key is a member, so it holds no tab
    keys = [line[33:] for line in lines]
    members = family._member_set.difference(chain.from_iterable(shared.shared))
    if (len(members.intersection(keys)) == len(keys) == len(members)
            and set(shared.labels).isdisjoint(labels)):
        return ClassReport(family.order, k, shared.members, shared.shared,
                           shared.labels, tuple(lines))
    return None


# Format version of each file derived from a family's k-deck partition.
_DERIVED_VERSIONS = {"classes": "v2", "shared": "v1"}


def _class_header(n: int, k: int, members: int, body: bytes, kind: str) -> str:
    """The first line of a class or shared file: its kind, format version,
    order, card size, member count and the sha256 of the lines below it."""
    digest = hashlib.sha256(body).hexdigest()
    version = _DERIVED_VERSIONS[kind]
    return f"#deckcensus-{kind} {version} n={n} k={k} members={members} sha256={digest}"


# ---------------------------------------------------------------------------
# report rendering


def summary_line(report: SharedClasses, violations: int | None = None) -> str:
    """The one-line summary of a class partition, with a violation count
    when one is given."""
    merged = sum(len(members) - 1 for members in report.shared)
    line = f"n={report.order} k={report.card_size} classes={report.members - merged}"
    if violations is not None:
        line += f" violations={violations}"
    return line + "\n"


def emit_report(report: SharedClasses, fmt: str = "summary") -> str:
    """Render a class partition deterministically.

    ``summary`` is a single line; ``tsv`` lists every member's
    ``digest<TAB>key`` line, sorted, under a header line, so it needs a
    ``ClassReport``: its singleton lines merged with a line for each
    member of its shared classes.
    """
    if fmt == "summary":
        return summary_line(report)
    if fmt == "tsv":
        lines = [*report.singletons, *(
            f"{label}\t{key}"
            for label, members in zip(report.labels, report.shared)
            for key in members
        )]
        lines.sort()  # a merge of two sorted runs
        return "\n".join(["digest\tkey", *lines]) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose summary or tsv")
