"""Acceptance suite: the full desk-scale verification slice.

Each test covers one numbered criterion and registers a PASS line once
its assertions hold; the terminal summary prints one line per criterion
(see conftest).  Budgets are generous on purpose — the whole suite runs
in a few minutes on one core.
"""

import time

from deckcensus.canon import canonical_key
from deckcensus.census import deck_classes, enumerate_graphs, verify_invariant
from deckcensus.counting import (
    deck_difference,
    phi_diff_residual,
    phi_formula,
    reconstruct_degree_list,
)
from deckcensus.decks import (
    compute_deck,
    connected_card_count,
    deck_equal,
    derive_subdeck,
    phi_vector,
)
from deckcensus.graphs import (
    claw_subdivided,
    degree_counts,
    degree_list,
    disjoint_union,
    empty_graph,
    from_graph6,
    is_connected,
    named_graph,
    path_graph,
)

from .helpers import brute_force_family, partition

CRITERIA = {
    1: "golden 3-deck of C5+K1 and equality with the doubly subdivided claw",
    2: "three sharpness pairs share 3-decks and disagree as stated",
    3: "n=7, k=4 census: zero degree-list violations (family size 1044)",
    4: "n=7, k=4 census: zero connectedness violations",
    5: "n=6 and n=5 censuses: clean at k=4, sharp pairs at k=3",
    6: "(n-2)-deck classes are singletons for n in {6,7,8}",
    7: "deck-side and formula-side degree totals agree for all n<=6",
    8: "degree-list recovery round-trips for all 1044 7-vertex graphs",
    9: "sub-deck law matches direct decks for all n<=7, k>=2",
    10: "difference residuals vanish on every deck-equal pair found",
    11: "every connected 7-vertex graph has >= 2 connected 4-cards",
    12: "n=8 censuses: the 5-deck fixes degree list and connectedness, "
    "the 4-deck does not (G?Che?/G?Cid?)",
}
RESULTS: dict[int, str] = {}

C5K1 = named_graph("cycle5+empty1")
KPP = claw_subdivided(2)
C4K1 = named_graph("cycle4+empty1")
KP = claw_subdivided(1)


def _record(num: int) -> None:
    RESULTS[num] = "PASS"
    print(f"PASS criterion {num}: {CRITERIA[num]}")


def test_criterion_01_golden_deck():
    start = time.time()
    deck = compute_deck(C5K1, 3)
    expected = {
        canonical_key(path_graph(3)): 5,
        canonical_key(disjoint_union(path_graph(2), empty_graph(1))): 10,
        canonical_key(empty_graph(3)): 5,
    }
    assert deck.entries == expected
    assert deck_equal(deck, compute_deck(KPP, 3))
    assert time.time() - start < 1.0
    _record(1)


def test_criterion_02_sharpness_pairs():
    start = time.time()
    pairs = [(C4K1, KP), (C5K1, KPP), (disjoint_union(named_graph("cycle4"), path_graph(2)), path_graph(6))]
    for g, h in pairs:
        assert deck_equal(compute_deck(g, 3), compute_deck(h, 3))
        assert is_connected(g) != is_connected(h)
    # the claw pairs also split on degree list; the cycle-plus-path pair
    # does not, which is exactly what makes it interesting
    assert degree_list(C4K1) != degree_list(KP)
    assert degree_list(C5K1) != degree_list(KPP)
    g, h = pairs[2]
    assert degree_list(g) == degree_list(h)
    assert time.time() - start < 1.0
    _record(2)


def test_criterion_03_degree_list_census_n7(family7):
    start = time.time()
    # dual-enumerator oracle chain: brute force validates augmentation
    # through n=6, and the n=7 family size is pinned
    assert brute_force_family(6) == enumerate_graphs(6)
    assert len(family7) == 1044
    report = deck_classes(family7, 4)
    assert verify_invariant(report, "degree_list") == ()
    assert time.time() - start < 120
    _record(3)


def test_criterion_04_connectedness_census_n7(family7):
    report = deck_classes(family7, 4)
    assert verify_invariant(report, "connectedness") == ()
    _record(4)


def test_criterion_05_n6_and_n5_censuses(family5, family6):
    start = time.time()
    rep64 = deck_classes(family6, 4)
    assert verify_invariant(rep64, "degree_list") == ()
    assert verify_invariant(rep64, "connectedness") == ()

    rep63 = deck_classes(family6, 3)
    pair6 = tuple(sorted([canonical_key(C5K1), canonical_key(KPP)]))
    for invariant in ("degree_list", "connectedness"):
        violations = verify_invariant(rep63, invariant)
        assert violations
        assert pair6 in {(v.key_a, v.key_b) for v in violations}

    rep53 = deck_classes(family5, 3)
    pair5 = tuple(sorted([canonical_key(C4K1), canonical_key(KP)]))
    for invariant in ("degree_list", "connectedness"):
        violations = verify_invariant(rep53, invariant)
        assert pair5 in {(v.key_a, v.key_b) for v in violations}
    assert time.time() - start < 30
    _record(5)


def test_criterion_06_two_reconstructibility(family6, family7, family8):
    start = time.time()
    for family in (family6, family7, family8):
        report = deck_classes(family, family.order - 2)
        assert report.shared == ()  # every class is a singleton
    assert time.time() - start < 1800
    _record(6)


def test_criterion_07_identity_oracle_equivalence():
    start = time.time()
    for n in range(1, 7):
        for key in enumerate_graphs(n).members:
            g = from_graph6(key)
            counts = degree_counts(g)
            for k in range(1, n + 1):
                deck = compute_deck(g, k)
                for j in range(k):
                    assert phi_vector(deck)[j] == phi_formula(counts, n, k, j)
    assert time.time() - start < 120
    _record(7)


def test_criterion_08_degree_recovery_roundtrip(family7):
    start = time.time()
    for key in family7.members:
        g = from_graph6(key)
        counts = degree_counts(g)
        high = {i: counts[i] for i in range(4, 7)}
        assert reconstruct_degree_list(compute_deck(g, 4), high) == counts
    assert time.time() - start < 300
    _record(8)


def test_criterion_09_subdeck_multiplicity_law(family7):
    start = time.time()
    for n in range(2, 8):
        family = enumerate_graphs(n) if n < 7 else family7
        for key in family.members:
            g = from_graph6(key)
            decks = [compute_deck(g, k) for k in range(1, n + 1)]
            for k in range(2, n + 1):
                assert derive_subdeck(decks[k - 1]) == decks[k - 2]
    assert time.time() - start < 300
    _record(9)


def test_criterion_10_difference_residuals(family5, family6, family7):
    reports = [
        deck_classes(family7, 4),
        deck_classes(family6, 4),
        deck_classes(family6, 3),
        deck_classes(family5, 3),
    ]
    pairs_checked = 0
    for report in reports:
        n, k = report.order, report.card_size
        for members in report.shared:  # a singleton class has no pair
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    g = from_graph6(members[i])
                    h = from_graph6(members[j])
                    diffs = deck_difference(g, h)
                    for degree in range(k):
                        assert phi_diff_residual(diffs, n, k, degree) == 0
                    pairs_checked += 1
    assert pairs_checked > 0
    # the hand-derived instance
    diffs = deck_difference(C5K1, KPP)
    assert diffs == (1, -3, 3, -1, 0, 0)
    assert phi_diff_residual(diffs, 6, 3, 2) == 0
    assert phi_diff_residual(diffs, 6, 3, 1) == 0
    _record(10)


def test_criterion_11_connected_cards(family7):
    for key in family7.members:
        g = from_graph6(key)
        if is_connected(g):
            assert connected_card_count(compute_deck(g, 4)) >= 2
    _record(11)


def test_criterion_12_n8_censuses(family8):
    start = time.time()
    # l = 3: every 5-deck class agrees on both invariants
    rep85 = deck_classes(family8, 5)
    assert len(partition(rep85)) == 12342
    assert verify_invariant(rep85, "degree_list") == ()
    assert verify_invariant(rep85, "connectedness") == ()
    # l = 4 is sharp: 4-deck classes split on both
    rep84 = deck_classes(family8, 4)
    assert len(partition(rep84)) == 11297
    assert len(verify_invariant(rep84, "degree_list")) == 6
    connectedness = verify_invariant(rep84, "connectedness")
    assert len(connectedness) == 4
    assert ("G?Che?", "G?Cid?") in {(v.key_a, v.key_b) for v in connectedness}
    assert time.time() - start < 300
    _record(12)
