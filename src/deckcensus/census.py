"""Exhaustive censuses: enumerate all n-vertex graphs up to isomorphism,
partition a family by k-deck, and check invariants across each class.

Enumeration grows families by vertex augmentation: every canonical
(n-1)-vertex representative is extended by one new vertex with each of
the 2^(n-1) possible neighborhoods, canonicalized, and deduplicated.
A 2^C(n,2) brute-force enumerator is kept as an independent oracle for
small n.

Family members are independent work items; deck computation shards by
member index across processes and merges by commutative multiset union,
so reports are identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import enum
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from . import canon
from .counting import phi_formula
from .decks import Deck, compute_deck, deck_equal, edge_count_from_deck, phi_vector
from .decks import UnrealizableDeckError, _degree_counts_of_key, _graph_of_key
from .decks import _key_is_connected
from .graphs import (
    Graph,
    claw_subdivided,
    cycle_graph,
    degree_list,
    disjoint_union,
    empty_graph,
    path_graph,
)

MAX_CENSUS_ORDER = 9
DEFAULT_CENSUS_CEILING = 8


@dataclass(frozen=True)
class GraphFamily:
    """All n-vertex graphs up to isomorphism, one canonical key each."""

    order: int
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DeckClass:
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


class Connectedness(enum.Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    AMBIGUOUS = "ambiguous"


# ---------------------------------------------------------------------------
# enumeration


def _augmentations(parent_key: str) -> set[str]:
    parent = _graph_of_key(parent_key)
    n = parent.n + 1
    out = set()
    for mask in range(1 << parent.n):
        rows = [r | ((mask >> v & 1) << (n - 1)) for v, r in enumerate(parent.rows)]
        rows.append(mask)
        out.add(canon._key_for_rows(n, tuple(rows)))
    return out


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")


def _chunks(items: Sequence, jobs: int) -> list[Sequence]:
    step = (len(items) + jobs - 1) // jobs
    return [items[i : i + step] for i in range(0, len(items), step)]


def _augment_chunk(parent_keys: Sequence[str]) -> set[str]:
    out: set[str] = set()
    for key in parent_keys:
        out |= _augmentations(key)
    return out


def enumerate_graphs(
    n: int,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> GraphFamily:
    """One canonical representative per isomorphism class of n-vertex graphs."""
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
        keys: set[str] = set()
        if jobs > 1 and len(parents.members) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                for part in pool.map(_augment_chunk, _chunks(parents.members, jobs)):
                    keys |= part
        else:
            keys = _augment_chunk(parents.members)
        family = GraphFamily(n, tuple(sorted(keys)))
    if cache is not None:
        cache.store_family(family)
    return family


def brute_force_family(n: int) -> GraphFamily:
    """Independent oracle: deduplicate all 2^C(n,2) edge subsets (n <= 6)."""
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


# ---------------------------------------------------------------------------
# deck-class partition


def _member_deck(args: tuple[str, int]) -> tuple[str, str, tuple[tuple[str, int], ...]]:
    key, k = args
    deck = compute_deck(_graph_of_key(key), k)
    return key, deck.digest_hex, tuple(deck.sorted_entries())


def _deck_chunk(args: tuple[Sequence[str], int]):
    keys, k = args
    return [_member_deck((key, k)) for key in keys]


def deck_classes(
    family: GraphFamily,
    k: int,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> ClassReport:
    """Partition ``family`` by k-deck.

    Members are grouped by deck digest first; digest ties are confirmed
    by full entry comparison, so a (vanishingly unlikely) collision
    yields two classes that happen to share a digest rather than a
    merged class.
    """
    if not 1 <= k <= family.order:
        raise ValueError(f"card size {k} out of range for order {family.order}")
    _check_jobs(jobs)
    if cache is not None:
        cached = cache.load_classes(family, k)
        if cached is not None:
            return cached
    rows: list[tuple[str, str, tuple[tuple[str, int], ...]]] = []
    if jobs > 1 and len(family.members) > 1:
        chunk_args = [(chunk, k) for chunk in _chunks(family.members, jobs * 4)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_deck_chunk, chunk_args):
                rows.extend(part)
    else:
        rows = [_member_deck((key, k)) for key in family.members]

    by_digest: dict[str, list[tuple[str, tuple[tuple[str, int], ...]]]] = {}
    for key, digest, entries in rows:
        by_digest.setdefault(digest, []).append((key, entries))
    classes: list[DeckClass] = []
    for digest, bucket in by_digest.items():
        by_entries: dict[tuple[tuple[str, int], ...], list[str]] = {}
        for key, entries in bucket:
            by_entries.setdefault(entries, []).append(key)
        for members in by_entries.values():
            classes.append(DeckClass(digest, tuple(sorted(members))))
    classes.sort(key=lambda c: (c.digest_hex, c.members))
    report = ClassReport(family.order, k, tuple(classes))
    if cache is not None:
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


def verify_invariant(report: ClassReport, invariant: str) -> ClassReport:
    """Attach every in-class pair that disagrees on ``invariant``.

    Each member of a class with two or more members is decoded once.
    """
    if invariant not in INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}; choose from {INVARIANTS}")
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


# ---------------------------------------------------------------------------
# realization search


def find_reconstructions(
    deck: Deck,
    n: int,
    family: GraphFamily | None = None,
    jobs: int = 1,
    cache: "CensusCache | None" = None,
) -> tuple[str, ...]:
    """Canonical keys of every n-vertex graph whose k-deck equals ``deck``.

    An empty result means no graph realizes the deck.  Edge-count and
    degree-occurrence screens discard most candidates before the full
    deck comparison; both are implied by deck equality, so they never
    change the result.
    """
    if deck.origin_order != n:
        raise ValueError(f"deck has origin order {deck.origin_order}, expected {n}")
    if n > DEFAULT_CENSUS_CEILING:
        raise ValueError(f"realization search is capped at n={DEFAULT_CENSUS_CEILING}")
    k = deck.card_size
    if family is None:
        family = enumerate_graphs(n, jobs=jobs, cache=cache)
    target_edges: int | None = None
    if k >= 2:
        try:
            target_edges = edge_count_from_deck(deck)
        except UnrealizableDeckError:
            return ()
    phi = phi_vector(deck)
    found = []
    for key in family.members:
        g = _graph_of_key(key)
        if target_edges is not None and g.edge_count != target_edges:
            continue
        counts = _degree_counts_of_key(key)
        if any(phi_formula(counts, n, k, j) != phi[j] for j in range(k)):
            continue
        if deck_equal(compute_deck(g, k), deck):
            found.append(key)
    return tuple(found)


def decide_connectedness(
    deck: Deck,
    n: int,
    family: GraphFamily | None = None,
    cache: "CensusCache | None" = None,
) -> Connectedness:
    """Consensus connectedness over all realizations of ``deck``."""
    keys = find_reconstructions(deck, n, family=family, cache=cache)
    if not keys:
        raise UnrealizableDeckError(
            f"unrealizable deck: no {n}-vertex graph has this {deck.card_size}-deck"
        )
    verdicts = {_key_is_connected(key) for key in keys}
    if len(verdicts) == 2:
        return Connectedness.AMBIGUOUS
    return Connectedness.CONNECTED if verdicts.pop() else Connectedness.DISCONNECTED


def reconstructibility_number(
    g: Graph,
    family: GraphFamily | None = None,
    cache: "CensusCache | None" = None,
) -> int:
    """Largest l such that all decks of cards missing at most l vertices
    single out ``g`` within the full n-vertex family.

    Returns 0 when even the deck missing one vertex is shared.
    """
    n = g.n
    if n > DEFAULT_CENSUS_CEILING:
        raise ValueError(f"reconstructibility is capped at n={DEFAULT_CENSUS_CEILING}")
    if family is None:
        family = enumerate_graphs(n, cache=cache)
    for l in range(1, n):
        k = n - l
        matches = find_reconstructions(compute_deck(g, k), n, family=family)
        if len(matches) > 1:
            return l - 1
    return n - 1


# ---------------------------------------------------------------------------
# known deck-equal pairs


def known_pairs(
    l: int, include_claw_pairs: bool | None = None
) -> tuple[tuple[Graph, Graph, int], ...]:
    """Known pairs of non-isomorphic graphs sharing an l-deck.

    Always contains (C_{l+1} + P_{l-1}, P_{2l}) at card size l; the two
    subdivided-claw pairs (card size 3) ride along when l = 3 or on
    request.  Every returned pair is checked to share its stated deck.
    """
    if not 2 <= l <= 4:
        raise ValueError(f"pair parameter must be in [2, 4], got {l}")
    if include_claw_pairs is None:
        include_claw_pairs = l == 3
    pairs = [
        (disjoint_union(cycle_graph(l + 1), path_graph(l - 1)), path_graph(2 * l), l)
    ]
    if include_claw_pairs:
        pairs.append(
            (disjoint_union(cycle_graph(4), empty_graph(1)), claw_subdivided(1), 3)
        )
        pairs.append(
            (disjoint_union(cycle_graph(5), empty_graph(1)), claw_subdivided(2), 3)
        )
    for g, h, k in pairs:
        if not deck_equal(compute_deck(g, k), compute_deck(h, k)):
            raise AssertionError(
                f"known pair on {g.n} vertices fails to share its {k}-deck"
            )
    return tuple(pairs)


# ---------------------------------------------------------------------------
# persistent cache


class CensusCache:
    """Directory-backed cache of families and class partitions.

    ``graphs_n{n}.g6`` holds one canonical graph6 key per line, sorted;
    ``classes_n{n}_k{k}.tsv`` holds ``digestHex<TAB>canonicalKey`` lines
    sorted by digest then key.  Files are written atomically
    (write-then-rename).
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
        members = tuple(
            line.strip() for line in path.read_text().splitlines() if line.strip()
        )
        return GraphFamily(n, members)

    def store_family(self, family: GraphFamily) -> None:
        self._write_atomic(
            self._family_path(family.order), "\n".join(family.members) + "\n"
        )

    def load_classes(self, family: GraphFamily, k: int) -> ClassReport | None:
        path = self._classes_path(family.order, k)
        if not path.exists():
            return None
        grouped: dict[str, list[str]] = {}
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            digest, key = line.split("\t")
            grouped.setdefault(digest, []).append(key)
        classes = tuple(
            DeckClass(digest, tuple(sorted(members)))
            for digest, members in sorted(grouped.items())
        )
        return ClassReport(family.order, k, classes)

    def store_classes(self, report: ClassReport) -> None:
        lines = [
            f"{cls.digest_hex}\t{key}"
            for cls in report.classes
            for key in cls.members
        ]
        lines.sort()
        self._write_atomic(
            self._classes_path(report.order, report.card_size),
            "\n".join(lines) + "\n",
        )


# ---------------------------------------------------------------------------
# report rendering


def emit_report(report: ClassReport, fmt: str = "summary") -> str:
    """Render a class report deterministically.

    ``summary`` is a single line; ``tsv`` lists classes (or violations,
    when an invariant was checked) under a header line.
    """
    if fmt == "summary":
        line = f"n={report.order} k={report.card_size} classes={len(report.classes)}"
        if report.invariant is not None:
            line += f" violations={len(report.violations)}"
        return line + "\n"
    if fmt == "tsv":
        if report.invariant is not None:
            lines = ["key_a\tkey_b\twitness"]
            lines += [
                f"{v.key_a}\t{v.key_b}\t{v.witness}" for v in report.violations
            ]
        else:
            lines = ["digest\tkey"]
            lines += sorted(
                f"{cls.digest_hex}\t{key}"
                for cls in report.classes
                for key in cls.members
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose summary or tsv")
