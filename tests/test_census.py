"""Enumeration, deck-class partitions, invariant checks, and realization
search over small families."""

import concurrent.futures

import pytest

from deckcensus.canon import canonical_key
from deckcensus.census import (
    CensusCache,
    Connectedness,
    brute_force_family,
    deck_classes,
    decide_connectedness,
    emit_report,
    enumerate_graphs,
    find_reconstructions,
    known_pairs,
    reconstructibility_number,
    verify_invariant,
)
from deckcensus.decks import UnrealizableDeckError, compute_deck, deck_equal
from deckcensus.graphs import (
    claw_subdivided,
    complete_graph,
    cycle_graph,
    degree_list,
    disjoint_union,
    empty_graph,
    from_graph6,
    named_graph,
    path_graph,
)

from .helpers import KNOWN_GRAPH_COUNTS

C5K1_KEY = canonical_key(named_graph("cycle5+empty1"))
KPP_KEY = canonical_key(claw_subdivided(2))
C4K1_KEY = canonical_key(named_graph("cycle4+empty1"))
KP_KEY = canonical_key(claw_subdivided(1))


def _pair(a, b):
    return tuple(sorted((a, b)))


def test_family_sizes_match_published_sequence(family5, family6, family7):
    for n in range(1, 5):
        assert len(enumerate_graphs(n)) == KNOWN_GRAPH_COUNTS[n]
    assert len(family5) == 34
    assert len(family6) == 156
    assert len(family7) == 1044


def test_dual_enumerators_agree_up_to_5(family5):
    for n in range(1, 5):
        assert brute_force_family(n) == enumerate_graphs(n)
    assert brute_force_family(5) == family5


def test_family_members_are_canonical_and_sorted(family6):
    assert list(family6.members) == sorted(family6.members)
    for key in family6.members[:20]:
        g = from_graph6(key)
        assert g.n == 6
        assert canonical_key(g) == key


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_graphs(0)
    with pytest.raises(ValueError):
        enumerate_graphs(10)
    with pytest.raises(ValueError):
        brute_force_family(7)


def test_nonpositive_jobs_are_rejected(monkeypatch, family5):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="worker count"):
            enumerate_graphs(5, jobs=jobs)
        with pytest.raises(ValueError, match="worker count"):
            deck_classes(family5, 3, jobs=jobs)


def test_parallel_enumeration_matches_serial(family6):
    assert enumerate_graphs(6, jobs=3) == family6


def test_deck_classes_partition(family5, family6):
    rep = deck_classes(family5, 3)
    all_members = sorted(key for cls in rep.classes for key in cls.members)
    assert all_members == list(family5.members)
    # the subdivided claw shares its class with the 4-cycle plus isolated
    cls = next(c for c in rep.classes if C4K1_KEY in c.members)
    assert KP_KEY in cls.members

    rep6 = deck_classes(family6, 3)
    cls6 = next(c for c in rep6.classes if C5K1_KEY in c.members)
    assert KPP_KEY in cls6.members


def test_deck_classes_jobs_parity(family6):
    assert deck_classes(family6, 3, jobs=3) == deck_classes(family6, 3)


def test_n6_k4_classes_all_singletons(family6):
    rep = deck_classes(family6, 4)
    assert all(len(c.members) == 1 for c in rep.classes)


def test_verify_invariant_reports(family6):
    rep = deck_classes(family6, 3)
    deg = verify_invariant(rep, "degree_list")
    conn = verify_invariant(rep, "connectedness")
    assert _pair(C5K1_KEY, KPP_KEY) in {(v.key_a, v.key_b) for v in deg.violations}
    conn_pairs = {(v.key_a, v.key_b) for v in conn.violations}
    assert _pair(C5K1_KEY, KPP_KEY) in conn_pairs
    witness = next(
        v.witness
        for v in conn.violations
        if (v.key_a, v.key_b) == _pair(C5K1_KEY, KPP_KEY)
    )
    assert "connected" in witness and "disconnected" in witness
    # violations come out ordered for stable reports
    assert all(v.key_a < v.key_b for v in deg.violations)
    assert [(v.key_a, v.key_b) for v in deg.violations] == sorted(
        (v.key_a, v.key_b) for v in deg.violations
    )
    with pytest.raises(ValueError):
        verify_invariant(rep, "chromatic_number")


def test_isomorphism_invariant_counts_shared_decks(family5):
    rep = verify_invariant(deck_classes(family5, 4), "isomorphism")
    assert not rep.violations  # 5-vertex graphs are singled out by 4-decks
    rep3 = verify_invariant(deck_classes(family5, 3), "isomorphism")
    assert _pair(C4K1_KEY, KP_KEY) in {(v.key_a, v.key_b) for v in rep3.violations}


def test_find_reconstructions_exhaustive(family6):
    deck = compute_deck(named_graph("cycle5+empty1"), 3)
    keys = find_reconstructions(deck, 6, family=family6)
    # three graphs realize this deck: the cycle plus isolated vertex and
    # two trees (the doubly subdivided claw and the spider with legs 3,1,1)
    assert C5K1_KEY in keys and KPP_KEY in keys
    assert len(keys) == 3
    assert all(deck_equal(compute_deck(from_graph6(k), 3), deck) for k in keys)


def test_find_reconstructions_always_contains_origin(family6):
    for key in family6.members[::25]:
        g = from_graph6(key)
        for k in (3, 4):
            assert key in find_reconstructions(compute_deck(g, k), 6, family=family6)


def test_find_reconstructions_simple_cases(family7):
    deck = compute_deck(path_graph(7), 4)
    assert find_reconstructions(deck, 7, family=family7) == (
        canonical_key(path_graph(7)),
    )
    assert find_reconstructions(compute_deck(complete_graph(3), 2), 3) == (
        canonical_key(complete_graph(3)),
    )


def test_decide_connectedness(family6, family7):
    assert (
        decide_connectedness(compute_deck(path_graph(7), 4), 7, family=family7)
        is Connectedness.CONNECTED
    )
    assert (
        decide_connectedness(
            compute_deck(named_graph("cycle5+empty1"), 3), 6, family=family6
        )
        is Connectedness.AMBIGUOUS
    )
    assert (
        decide_connectedness(compute_deck(named_graph("cycle4+empty1"), 3), 5)
        is Connectedness.AMBIGUOUS
    )
    two_parts = disjoint_union(cycle_graph(4), cycle_graph(3))
    assert (
        decide_connectedness(compute_deck(two_parts, 5), 7, family=family7)
        is Connectedness.DISCONNECTED
    )


def test_decide_connectedness_unrealizable(family5):
    from deckcensus.decks import Deck

    # ten paths force 20/3 edges, so no 5-vertex graph realizes this deck
    fake = Deck(3, 5, {canonical_key(path_graph(3)): 10})
    with pytest.raises(UnrealizableDeckError, match="unrealizable deck"):
        decide_connectedness(fake, 5, family=family5)
    # K5 is the unique realization of the all-triangles deck
    full = Deck(3, 5, {canonical_key(complete_graph(3)): 10})
    assert decide_connectedness(full, 5, family=family5) is Connectedness.CONNECTED


def test_reconstructibility_numbers(family5, family6):
    assert reconstructibility_number(path_graph(6), family=family6) == 2
    assert (
        reconstructibility_number(named_graph("cycle4+empty1"), family=family5) == 1
    )
    # the two 2-vertex graphs share their 1-deck
    assert reconstructibility_number(path_graph(2)) == 0


def test_known_pairs():
    pairs3 = known_pairs(3)
    assert len(pairs3) == 3
    (g, h, k) = pairs3[0]
    assert {canonical_key(g), canonical_key(h)} == {
        canonical_key(disjoint_union(cycle_graph(4), path_graph(2))),
        canonical_key(path_graph(6)),
    }
    assert k == 3
    keys3 = {
        frozenset((canonical_key(g), canonical_key(h))) for g, h, _ in pairs3
    }
    assert frozenset((C5K1_KEY, KPP_KEY)) in keys3
    assert frozenset((C4K1_KEY, KP_KEY)) in keys3

    pairs2 = known_pairs(2)
    assert len(pairs2) == 1
    g, h, k = pairs2[0]
    assert k == 2
    assert {canonical_key(g), canonical_key(h)} == {
        canonical_key(disjoint_union(cycle_graph(3), path_graph(1))),
        canonical_key(path_graph(4)),
    }

    assert len(known_pairs(4)) == 1
    assert len(known_pairs(2, include_claw_pairs=True)) == 3
    with pytest.raises(ValueError):
        known_pairs(5)


def test_cache_roundtrip(tmp_path, family5):
    cache = CensusCache(tmp_path)
    fam = enumerate_graphs(5, cache=cache)
    assert (tmp_path / "graphs_n5.g6").exists()
    assert cache.load_family(5) == fam
    # a second enumeration must come straight from the file
    assert enumerate_graphs(5, cache=cache) == family5

    rep = deck_classes(fam, 3, cache=cache)
    path = tmp_path / "classes_n5_k3.tsv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 2 for line in lines)
    reloaded = deck_classes(fam, 3, cache=cache)
    assert reloaded.classes == rep.classes


def test_emit_report_formats(family5):
    rep = deck_classes(family5, 3)
    summary = emit_report(rep, "summary")
    assert summary == f"n=5 k=3 classes={len(rep.classes)}\n"
    checked = verify_invariant(rep, "degree_list")
    line = emit_report(checked, "summary")
    assert line.startswith("n=5 k=3 classes=") and "violations=" in line
    tsv = emit_report(checked, "tsv")
    assert tsv.splitlines()[0] == "key_a\tkey_b\twitness"
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")
