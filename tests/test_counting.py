"""Degree-counting identities, back-solving, and threshold utilities."""

import math
import random
from itertools import combinations_with_replacement, product

import pytest

from deckcensus.counting import (
    InconsistentCountsError,
    _is_graphical,
    counts_to_degree_list,
    deck_difference,
    degree_list_threshold,
    phi_diff_residual,
    phi_formula,
    reconstruct_degree_list,
)
from deckcensus.decks import Deck, compute_deck, phi_vector
from deckcensus.graphs import (
    claw_subdivided,
    complete_graph,
    degree_counts,
    from_graph6,
    named_graph,
    path_graph,
)

from .helpers import random_graph

C5K1 = named_graph("cycle5+empty1")
KPP = claw_subdivided(2)


def test_phi_formula_goldens():
    assert phi_formula((0, 2, 1), 3, 2, 1) == 4
    a = degree_counts(C5K1)
    assert a == (1, 0, 5, 0, 0, 0)
    assert phi_formula(a, 6, 3, 2) == 5
    assert phi_formula(a, 6, 3, 1) == 30


def test_phi_formula_range_and_shape_errors():
    with pytest.raises(ValueError):
        phi_formula((0, 2, 1), 3, 2, 2)
    with pytest.raises(ValueError):
        phi_formula((0, 2, 1), 3, 4, 1)
    with pytest.raises(ValueError):
        phi_formula((0, 2), 3, 2, 1)
    with pytest.raises(ValueError):
        phi_formula((0, 2, 2), 3, 2, 1)


def test_formula_matches_deck_counts_randomized():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        counts = degree_counts(g)
        for k in range(1, g.n + 1):
            deck = compute_deck(g, k)
            for j in range(k):
                assert phi_vector(deck)[j] == phi_formula(counts, g.n, k, j)


def test_reconstruct_under_true_high_counts():
    deck = compute_deck(C5K1, 3)
    counts = reconstruct_degree_list(deck, {3: 0, 4: 0, 5: 0})
    assert counts == (1, 0, 5, 0, 0, 0)
    assert counts_to_degree_list(counts) == (2, 2, 2, 2, 2, 0)


def test_reconstruct_under_other_consistent_high_counts():
    # the same deck under the subdivided-claw's high counts: both answers
    # are genuinely consistent, which is exactly why the high counts are an
    # explicit argument
    deck = compute_deck(C5K1, 3)
    counts = reconstruct_degree_list(deck, {3: 1, 4: 0, 5: 0})
    assert counts == (0, 3, 2, 1, 0, 0)
    assert counts_to_degree_list(counts) == (3, 2, 2, 1, 1, 1)
    assert counts == degree_counts(KPP)


def test_reconstruct_randomized_roundtrip():
    # every k, so back-substitution runs down every column of the table
    rng = random.Random(59)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 7))
        counts = degree_counts(g)
        for k in range(1, g.n + 1):
            high = {i: counts[i] for i in range(k, g.n)}
            assert reconstruct_degree_list(compute_deck(g, k), high) == counts, k


def test_reconstruct_rejects_impossible_high_counts():
    deck = compute_deck(C5K1, 3)
    with pytest.raises(InconsistentCountsError, match="inconsistent high-degree"):
        reconstruct_degree_list(deck, {3: 0, 4: 0, 5: 1})
    with pytest.raises(ValueError):
        reconstruct_degree_list(deck, {3: 0, 4: 0})  # missing degree 5
    with pytest.raises(ValueError):
        reconstruct_degree_list(deck, {i: 0 for i in range(3, 7)})  # stray degree 6
    with pytest.raises(ValueError, match="nonnegative"):
        reconstruct_degree_list(deck, {3: -1, 4: 0, 5: 0})


def test_reconstruct_with_zero_high_counts():
    zeros = {3: 0, 4: 0, 5: 0}
    assert reconstruct_degree_list(compute_deck(C5K1, 3), zeros) == (1, 0, 5, 0, 0, 0)
    # K4's 3-deck forces negative low counts once the high ones are zeroed
    with pytest.raises(InconsistentCountsError):
        reconstruct_degree_list(compute_deck(complete_graph(4), 3), {3: 0})


def test_graphical_test_accepts_exactly_the_degree_lists_of_graphs(family5, family6):
    # every count vector on n vertices, against the degree counts of the
    # family members, the only graphs there are
    for family in (family5, family6):
        n = family.order
        realized = {degree_counts(from_graph6(key)) for key in family.members}
        for counts in product(range(n + 1), repeat=n):
            if sum(counts) == n:
                assert _is_graphical(counts_to_degree_list(counts)) == (
                    counts in realized), counts


# A deck on n = 5 vertices, k = 3, that parses (canonical keys, C(5, 3)
# cards) but that no graph realizes; with no vertex of degree 3 or 4 it
# solves to degree list (2,0,0,0,0).
UNREALIZED_DECK = Deck(3, 5, {"B?": 8, "BG": 1, "BW": 1})


def test_non_graphical_solution_is_refused():
    with pytest.raises(InconsistentCountsError,
                       match=r"no graph realizes this deck .*\(2,0,0,0,0\)"):
        reconstruct_degree_list(UNREALIZED_DECK, {3: 0, 4: 0})


def test_every_degree_answer_at_n5_k3_belongs_to_a_graph(family5):
    # every deck that parses at n = 5, k = 3 (ten cards from the four
    # 3-vertex graphs), under every high-count vector of sum at most 5
    realized = {degree_counts(from_graph6(key)) for key in family5.members}
    answered = 0
    for cards in combinations_with_replacement(("B?", "BG", "BW", "Bw"), 10):
        deck = Deck(3, 5, {key: cards.count(key) for key in set(cards)})
        for a3, a4 in product(range(6), repeat=2):
            if a3 + a4 <= 5:
                try:
                    counts = reconstruct_degree_list(deck, {3: a3, 4: a4})
                except InconsistentCountsError:
                    continue
                assert counts in realized, (cards, a3, a4)
                answered += 1
    # each graph's own deck is answered under its own high counts
    assert answered >= len(family5.members)


def test_deck_difference_goldens():
    c = deck_difference(C5K1, KPP)
    assert c == (1, -3, 3, -1, 0, 0)
    assert deck_difference(KPP, KPP) == (0,) * 6
    c5 = deck_difference(claw_subdivided(1), named_graph("cycle4+empty1"))
    assert c5 == (-1, 3, -3, 1, 0)
    assert sum(c) == 0 and sum(c5) == 0
    with pytest.raises(ValueError):
        deck_difference(C5K1, path_graph(3))


def test_phi_diff_residual_hand_instances():
    c = deck_difference(C5K1, KPP)
    # dominating-vertex case: c2 + 3c3 + 6c4 + 10c5 = 3 - 3 + 0 + 0
    assert phi_diff_residual(c, 6, 3, 2) == 0
    # next case down: 4c1 + 6c2 + 6c3 + 4c4 = -12 + 18 - 6 + 0
    assert phi_diff_residual(c, 6, 3, 1) == 0
    assert phi_diff_residual((0,) * 6, 6, 3, 2) == 0
    assert phi_diff_residual((0,) * 5, 5, 4, 1) == 0


def test_phi_diff_residual_nonzero_for_unequal_decks():
    c = deck_difference(path_graph(4), claw_subdivided(0))
    assert any(phi_diff_residual(c, 4, 3, j) != 0 for j in range(3))


def test_zero_residuals_do_not_imply_equal_decks():
    # Vanishing residuals are necessary for deck equality, not sufficient:
    # these 7-vertex count vectors differ yet zero out every residual at
    # k=4.  The censuses confirm no such pair actually shares a deck.
    a = (0, 0, 3, 1, 0, 3, 0)
    b = (0, 1, 0, 3, 2, 0, 1)
    c = tuple(x - y for x, y in zip(a, b))
    assert all(phi_diff_residual(c, 7, 4, j) == 0 for j in range(4))


# Frozen after confirming ~43.4 by direct evaluation of the formula.
THRESHOLD_AT_3 = 43.41238392842587


def test_threshold_golden():
    value = degree_list_threshold(3)
    assert value == pytest.approx(THRESHOLD_AT_3, rel=1e-9)
    assert round(value, 1) == 43.4


def test_threshold_sanity_envelope():
    v10 = degree_list_threshold(10)
    assert 0 < v10 < math.e * 10 + 40
    assert degree_list_threshold(4) > 0
    assert degree_list_threshold(5) > 0
    with pytest.raises(ValueError):
        degree_list_threshold(2)
