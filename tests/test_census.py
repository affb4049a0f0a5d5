"""Enumeration, deck-class partitions, invariant checks, and realization
search over small families."""

import bisect
import concurrent.futures
import hashlib
import io
import json
import random
import re
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from deckcensus import census, counting, decks
from deckcensus.canon import canonical_key
from deckcensus.census import (
    CensusCache,
    GraphFamily,
    SharedClasses,
    Violation,
    count_violations,
    deck_classes,
    emit_report,
    enumerate_graphs,
    find_reconstructions,
    known_pairs,
    reconstructibility_number,
    shared_classes,
    verify_invariant,
)
from deckcensus.cli import dispatch
from deckcensus.counting import _phi_of_counts, phi_diff_residual, phi_formula
from deckcensus.decks import Deck, _cards_of_key, _key_is_connected, compute_deck
from deckcensus.decks import _degree_counts_of_key
from deckcensus.decks import deck_equal, derive_subdeck
from deckcensus.decks import entry_text, serialize_deck
from deckcensus.graphs import (
    claw_subdivided,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_graph6,
    named_graph,
    path_graph,
    to_graph6,
)

from .helpers import (
    KNOWN_GRAPH_COUNTS,
    brute_force_family,
    complement,
    induced_deck,
    partition,
    permuted,
)
from .helpers import phi_term_by_term

C5K1_KEY = canonical_key(named_graph("cycle5+empty1"))
KPP_KEY = canonical_key(claw_subdivided(2))
C4K1_KEY = canonical_key(named_graph("cycle4+empty1"))
# the label of C4 + K1's 3-deck class, which is shared
C4K1_LABEL = census._class_label(
    entry_text(compute_deck(named_graph("cycle4+empty1"), 3).entries))
KP_KEY = canonical_key(claw_subdivided(1))


def _pair(a, b):
    return tuple(sorted((a, b)))


def test_family_sizes_match_published_sequence(family5, family6, family7):
    for n in range(1, 5):
        assert len(enumerate_graphs(n)) == KNOWN_GRAPH_COUNTS[n]
    assert len(family5) == 34
    assert len(family6) == 156
    assert len(family7) == 1044


def test_order_bound_is_the_published_counts():
    assert census.MAX_CENSUS_ORDER == len(census.GRAPH_COUNTS)
    assert census.GRAPH_COUNTS == KNOWN_GRAPH_COUNTS[1:]


def test_no_test_enumerates_nine_vertices(monkeypatch, tmp_path):
    # the conftest guard: n = 9 fails at once, through the CLI too.  With
    # the bound lowered, a missing guard fails fast instead of enumerating.
    monkeypatch.setattr(census, "MAX_CENSUS_ORDER", 8)
    for call in (lambda: census.enumerate_graphs(9), lambda: enumerate_graphs(9, jobs=2),
                 lambda: dispatch(["classes", "-n", "9", "-k", "5",
                                   "--cache-dir", str(tmp_path)])):
        with pytest.raises(AssertionError, match="9 vertices"):
            call()
    assert not any(tmp_path.iterdir())


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


def test_each_class_is_emitted_once(family5, family6):
    families = {5: family5, 6: family6}
    for n in range(2, 8):
        parents = families.get(n - 1) or enumerate_graphs(n - 1)
        emitted = sum(len(census._augmentations(p)) for p in parents.members)
        assert emitted == census.GRAPH_COUNTS[n - 1]


def test_non_canonical_parents_raise_before_storing(tmp_path, family5):
    # every member relabelled by reversing its vertex order
    relabelled = [
        to_graph6(permuted(from_graph6(key), range(4, -1, -1)))
        for key in family5.members
    ]
    assert sum(a != b for a, b in zip(relabelled, family5.members)) > 20
    (tmp_path / "graphs_n5.g6").write_text("\n".join(relabelled) + "\n")
    # the parent file fails its pin at load, before any augmentation
    with pytest.raises(ValueError, match=r"graphs_n5\.g6: .*sha256"):
        enumerate_graphs(6, cache=CensusCache(tmp_path))
    assert not (tmp_path / "graphs_n6.g6").exists()


def test_wrong_size_family_is_never_stored(monkeypatch, tmp_path, family5):
    CensusCache(tmp_path).store_family(family5)
    real = census._augment_chunk
    monkeypatch.setattr(census, "_augment_chunk", lambda parents: real(parents)[1:])
    with pytest.raises(ValueError, match="155 graphs on 6 vertices, not 156"):
        enumerate_graphs(6, cache=CensusCache(tmp_path))
    assert not (tmp_path / "graphs_n6.g6").exists()


def test_family_pins_match_enumeration(family5, family6, family7, family8):
    assert len(census.FAMILY_SHA256) == census.MAX_CENSUS_ORDER
    families = {5: family5, 6: family6, 7: family7, 8: family8}
    for n in range(1, 9):
        text = "\n".join((families.get(n) or enumerate_graphs(n)).members) + "\n"
        assert census.FAMILY_SHA256[n - 1] == hashlib.sha256(text.encode()).hexdigest()
    # the benchmark pins the same files (n = 9 is too slow to enumerate here)
    pins = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench/data/pins.json").read_text()
    )
    benchmark = [pins["families"][str(n)]["sha256"] for n in range(2, 8)]
    assert list(census.FAMILY_SHA256[1:7]) == benchmark
    assert census.FAMILY_SHA256[7] == pins["family_n8"]["sha256"]


def test_family_reloads_share_one_decoding(tmp_path, family5):
    CensusCache(tmp_path / "a").store_family(family5)
    CensusCache(tmp_path / "b").store_family(family5)
    first = CensusCache(tmp_path / "a").load_family(5)
    assert first == family5
    assert CensusCache(tmp_path / "a").load_family(5) is first
    assert CensusCache(tmp_path / "b").load_family(5) is first


def test_rewritten_family_file_is_rejected_on_next_load(tmp_path, family5):
    cache = CensusCache(tmp_path)
    cache.store_family(family5)
    assert cache.load_family(5) == family5
    path = tmp_path / "graphs_n5.g6"
    path.write_text("\n".join(reversed(family5.members)) + "\n")
    with pytest.raises(ValueError, match=r"graphs_n5\.g6: .*sha256"):
        cache.load_family(5)


def test_family_order_outside_the_pins_is_rejected(tmp_path, family5):
    cache = CensusCache(tmp_path)
    cache.store_family(family5)
    data = (tmp_path / "graphs_n5.g6").read_bytes()
    for n in (0, 10):
        (tmp_path / f"graphs_n{n}.g6").write_bytes(data)
        with pytest.raises(ValueError, match=rf"order must be in \[1, 9\], got {n}$"):
            cache.load_family(n)


def test_parallel_enumeration_matches_serial(family6):
    assert enumerate_graphs(6, jobs=3) == family6


def test_deck_classes_partition(family5, family6):
    rep = deck_classes(family5, 3)
    all_members = sorted(key for members in partition(rep) for key in members)
    assert all_members == list(family5.members)
    # the subdivided claw shares its class with the 4-cycle plus isolated
    members = next(c for c in partition(rep) if C4K1_KEY in c)
    assert KP_KEY in members

    rep6 = deck_classes(family6, 3)
    members6 = next(c for c in partition(rep6) if C5K1_KEY in c)
    assert KPP_KEY in members6


def test_deck_classes_jobs_parity(family6):
    assert deck_classes(family6, 3, jobs=3) == deck_classes(family6, 3)


def _oracle_entries(keys, k):
    # built inline from the reference deck: the oracle does not share
    # entry_text with the code it checks
    return [
        (key, "\n".join(f"{card}\t{mult}" for card, mult in
                        sorted(induced_deck(from_graph6(key), k).items())))
        for key in keys
    ]


def test_census_decks_match_induced_subgraph_oracle(family5, family6, family7):
    for family in (family5, family6, family7):
        for k in range(1, family.order + 1):
            keys = family.members
            assert census._deck_chunk(keys, k) == _oracle_entries(keys, k), k


def test_census_decks_match_compute_deck(family5, family6, family7):
    # the census keeps one parent's cards across members; a lone deck
    # query must give the same tally for every member
    for family in (family5, family6, family7):
        for k in range(1, family.order + 1):
            keys = family.members
            lone = [
                (key, entry_text(compute_deck(from_graph6(key), k).entries))
                for key in keys
            ]
            assert census._deck_chunk(keys, k) == lone, k


def test_census_decks_do_not_need_sorted_or_canonical_members(family6):
    rng = random.Random(61)
    shuffled = list(family6.members)
    rng.shuffle(shuffled)
    # one relabelling of the first five vertices keeps siblings together
    # under a parent labelling that is not canonical; random relabellings
    # break the runs up
    fixed = [3, 0, 4, 1, 2, 5]
    kept = [to_graph6(permuted(from_graph6(key), fixed)) for key in family6.members]
    scattered = [
        to_graph6(permuted(from_graph6(key), rng.sample(range(6), 6)))
        for key in family6.members
    ]
    assert sum(key != canonical_key(from_graph6(key)) for key in kept) > 100
    for keys in (shuffled, kept, scattered):
        for k in range(1, 7):
            assert census._deck_chunk(keys, k) == _oracle_entries(keys, k), k


def _parent_rows(key):
    g = from_graph6(key)
    low = (1 << (g.n - 1)) - 1
    return tuple(row & low for row in g.rows[:-1])


def test_census_chunks_may_split_a_sibling_run(family7):
    keys = family7.members
    # members i - 1 and i share their first six vertices
    splits = [
        i for i in range(1, len(keys))
        if _parent_rows(keys[i - 1]) == _parent_rows(keys[i])
    ][::97]
    assert len(splits) >= 5
    for k in (1, 3, 5, 7):
        whole = census._deck_chunk(keys, k)
        for i in splits:
            halves = census._deck_chunk(keys[:i], k) + census._deck_chunk(keys[i:], k)
            assert halves == whole, (k, i)


def test_class_label_is_stable():
    def label(g):
        return census._class_label(entry_text(compute_deck(g, 3).entries))

    a = label(named_graph("cycle5+empty1"))
    assert a == "003378c69d6f5c9ee228d1ac73aaec94"
    assert label(claw_subdivided(2)) == a  # the claw pair shares its 3-deck
    assert len(a) == 32
    assert label(cycle_graph(6)) == "e7d1a66451d419c590817a0dcc37db78"


def test_grouping_never_reads_the_label(monkeypatch, family6):
    monkeypatch.setattr(census, "_class_label", lambda text: "0" * 32)
    assert len(partition(deck_classes(family6, 3))) == 112
    assert len(partition(deck_classes(family6, 4))) == 156


def test_colliding_labels_are_never_stored(monkeypatch, tmp_path, family5):
    # a class file names classes by label only, so a reload would merge
    # classes that share one
    expected = partition(deck_classes(family5, 3))
    monkeypatch.setattr(census, "_class_label", lambda text: "0" * 32)
    cache = CensusCache(tmp_path)
    first = deck_classes(family5, 3, cache=cache)
    assert shared_classes(family5, 3, cache=cache).shared == first.shared
    assert not (tmp_path / "classes_n5_k3.tsv").exists()
    assert not (tmp_path / "shared_n5_k3.tsv").exists()
    assert partition(deck_classes(family5, 3, cache=cache)) == partition(first)
    assert partition(first) == expected


def test_entry_text_is_deck_identity(family6):
    for k in (3, 4):
        decks = [compute_deck(from_graph6(key), k) for key in family6.members]
        texts = [entry_text(deck.entries) for deck in decks]
        for i, (deck, text) in enumerate(zip(decks, texts)):
            # the text does not depend on the order the entries were tallied
            assert entry_text(dict(reversed(deck.entries.items()))) == text
            assert serialize_deck(deck) == f"k={k} n=6\n{text}\n"
            for other, other_text in zip(decks[i + 1:], texts[i + 1:]):
                assert (text == other_text) == (deck == other), (k, i)
        assert len(set(texts)) == len(partition(deck_classes(family6, k)))
        for key, text in list(zip(family6.members, texts))[::31]:
            out = io.StringIO()
            assert dispatch(["deck", "--g6", key, "-k", str(k), "--format", "tsv"],
                            out=out) == 0
            assert out.getvalue() == text + "\n"


def test_n6_k4_classes_all_singletons(family6):
    rep = deck_classes(family6, 4)
    assert all(len(members) == 1 for members in partition(rep))


def test_verify_invariant_reports(family6):
    rep = deck_classes(family6, 3)
    deg = verify_invariant(rep, "degree_list")
    conn = verify_invariant(rep, "connectedness")
    assert _pair(C5K1_KEY, KPP_KEY) in {(v.key_a, v.key_b) for v in deg}
    conn_pairs = {(v.key_a, v.key_b) for v in conn}
    assert _pair(C5K1_KEY, KPP_KEY) in conn_pairs
    witness = next(
        v.witness
        for v in conn
        if (v.key_a, v.key_b) == _pair(C5K1_KEY, KPP_KEY)
    )
    assert "connected" in witness and "disconnected" in witness
    # violations come out ordered for stable reports
    assert all(v.key_a < v.key_b for v in deg)
    assert [(v.key_a, v.key_b) for v in deg] == sorted(
        (v.key_a, v.key_b) for v in deg
    )
    message = ("unknown invariant 'chromatic_number'; choose from "
               "('degree_list', 'connectedness', 'isomorphism')")
    for check in (verify_invariant, count_violations):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(rep, "chromatic_number")


def test_isomorphism_invariant_counts_shared_decks(family5):
    # 5-vertex graphs are singled out by 4-decks
    assert verify_invariant(deck_classes(family5, 4), "isomorphism") == ()
    violations = verify_invariant(deck_classes(family5, 3), "isomorphism")
    assert _pair(C4K1_KEY, KP_KEY) in {(v.key_a, v.key_b) for v in violations}


def _families_up_to_7(family5, family6, family7):
    return [{5: family5, 6: family6, 7: family7}.get(n) or enumerate_graphs(n)
            for n in range(1, 8)]


def _pairwise_violations(report, invariant):
    """``invariant``'s violations in ``report`` by definition: each pair
    of one shared class whose values differ, as (key, key, witness)."""
    value, witness = census.INVARIANTS[invariant]
    return sorted(
        (a, b, witness(value(a), value(b)))
        for members in report.shared
        for a, b in combinations(members, 2)
        if value(a) != value(b)
    )


def _checked(report, invariant):
    """``verify_invariant`` as (key, key, witness) rows, and ``count_violations``."""
    found = verify_invariant(report, invariant)
    return [(v.key_a, v.key_b, v.witness) for v in found], count_violations(
        report, invariant)


def test_violation_scan_equals_the_pairwise_definition(family5, family6, family7):
    for family in _families_up_to_7(family5, family6, family7):
        n = family.order
        for k in range(2, n):
            report = shared_classes(family, k)
            for invariant in census.INVARIANTS:
                pairs = _pairwise_violations(report, invariant)
                # the second listing reads what the first kept on the report
                for _ in range(2):
                    assert _checked(report, invariant) == (pairs, len(pairs)), (
                        n, k, invariant)


def _edge_counts(family):
    return {key: sum(map(int.bit_count, from_graph6(key).rows)) // 2
            for key in family.members}


def _assert_sizes_mirror(report, edges):
    """The members of ``report``'s classes with e edges, counted by
    class size, are those with C(n, 2) - e edges."""
    sizes = Counter(
        (e, size)
        for members in partition(report)
        for e, size in Counter(edges[key] for key in members).items()
    )
    n, k = report.order, report.card_size
    assert sizes == Counter(
        {(comb(n, 2) - e, size): c for (e, size), c in sizes.items()}
    ), (n, k)


def test_complement_maps_the_deck_partition_onto_itself(family5, family6, family7):
    # The k-cards of a complement are the complements of the k-cards, so
    # complementing maps each deck class onto a deck class and e edges
    # onto C(n, 2) - e.  Checked without reading any class label.
    for family in _families_up_to_7(family5, family6, family7):
        n = family.order
        edges = _edge_counts(family)
        flip = {key: canonical_key(complement(from_graph6(key)))
                for key in family.members}
        for k in range(1, n + 1):
            report = deck_classes(family, k)
            _assert_sizes_mirror(report, edges)
            shared = set(report.shared)
            assert {tuple(sorted(map(flip.get, members))) for members in shared} == (
                shared), (n, k)


def test_complement_keeps_class_sizes_at_n8(family8, classes8):
    # the class sizes half of the check above, at every card size
    edges = _edge_counts(family8)
    for k in range(1, 9):
        _assert_sizes_mirror(classes8(k), edges)


def test_find_reconstructions_exhaustive(family6):
    deck = compute_deck(named_graph("cycle5+empty1"), 3)
    keys = find_reconstructions(deck, family6)
    # three graphs realize this deck: the cycle plus isolated vertex and
    # two trees (the doubly subdivided claw and the spider with legs 3,1,1)
    assert C5K1_KEY in keys and KPP_KEY in keys
    assert len(keys) == 3
    assert all(deck_equal(compute_deck(from_graph6(k), 3), deck) for k in keys)


def test_find_reconstructions_always_contains_origin(family6):
    for key in family6.members[::25]:
        g = from_graph6(key)
        for k in (3, 4):
            assert key in find_reconstructions(compute_deck(g, k), family6)


def _assert_matches_deck_classes(family, reports, members):
    for report in reports:
        k = report.card_size
        classes = {
            key: members
            for members in partition(report)
            for key in members
        }
        for key in members:
            deck = compute_deck(from_graph6(key), k)
            found = find_reconstructions(deck, family)
            assert found == classes[key], (key, k)


def test_phi_table_equals_phi_formula(family5, family6, family7, family8):
    # the one coefficient table, read through each of its three users,
    # against the identity summed term by term
    families = {5: family5, 6: family6, 7: family7, 8: family8}
    for n in range(1, 9):
        family = families.get(n) or enumerate_graphs(n)
        vectors = list(dict.fromkeys(map(_degree_counts_of_key, family.members)))
        for k in range(1, n + 1):
            # the cutoff: column j is nonzero exactly on [j, j + n - k]
            for j, column in enumerate(counting._phi_columns(n, k)):
                support = [i for i, entry in enumerate(column) if entry]
                assert support == list(range(j, j + n - k + 1)), (n, k, j)
            for counts in vectors:
                want = tuple(phi_term_by_term(counts, n, k, j) for j in range(k))
                assert counting._phi_of_counts(counts, k) == want, (counts, k)
                assert tuple(phi_formula(counts, n, k, j) for j in range(k)) == want
                diffs = tuple(a - b for a, b in zip(counts, vectors[0]))
                residuals = tuple(phi_diff_residual(diffs, n, k, j) for j in range(k))
                assert residuals == tuple(
                    phi_term_by_term(diffs, n, k, j) for j in range(k)
                ), (diffs, k)


def test_find_reconstructions_matches_deck_classes_n6(family6):
    reports = (deck_classes(family6, k) for k in range(1, 7))
    _assert_matches_deck_classes(family6, reports, family6.members)


def test_find_reconstructions_matches_deck_classes_n7(family7):
    reports = (deck_classes(family7, k) for k in range(3, 7))
    _assert_matches_deck_classes(family7, reports, family7.members)


def test_find_reconstructions_matches_deck_classes_n8(family8, classes8):
    sample = random.Random(8).sample(family8.members, 60)
    _assert_matches_deck_classes(family8, map(classes8, range(4, 8)), sample)


def test_four_deck_screen_spares_the_k_decks(monkeypatch, family7):
    # a member alone in its 4-deck class: every other candidate that
    # passes the phi and triangle screens fails on its 4-deck
    singles = [members[0] for members in partition(deck_classes(family7, 4))
               if len(members) == 1]
    read = []

    # the search reads member decks from the per-key tally cache
    def tallied(key, size):
        read.append(size)
        return _cards_of_key(key, size)

    monkeypatch.setattr(census, "_cards_of_key", tallied)
    screened = 0
    for key in singles[::50]:
        deck = compute_deck(from_graph6(key), 6)
        read.clear()
        assert find_reconstructions(deck, family7) == (key,)
        assert read.count(6) == 1, key
        screened += read.count(4) - 1
    # the screen turned candidates away
    assert screened > 0


def test_repeated_screens_walk_no_graph(monkeypatch, family7):
    # member decks and the tallies behind sub-deck derivations are walked
    # once per process; asked again, the search walks no graph at all
    card_levels = decks._card_levels
    walked = []

    def counted_walk(rows, k):
        walked.append(len(rows))
        return card_levels(rows, k)

    keys = family7.members[::25]
    queries = [compute_deck(from_graph6(key), 5) for key in keys]
    for deck in queries:
        find_reconstructions(deck, family7)
    # a deck whose card keys were all met before: P6's 4-cards are P7's
    derive_subdeck(compute_deck(path_graph(7), 4))
    fresh, expected = compute_deck(path_graph(6), 4), compute_deck(path_graph(6), 3)
    monkeypatch.setattr(decks, "_card_levels", counted_walk)
    for key, deck in zip(keys, queries):
        assert find_reconstructions(deck, family7) == (key,)
        assert walked == [], key
    assert derive_subdeck(fresh) == expected
    assert walked == []


def test_phi_index_is_built_once_per_family_and_card_size(monkeypatch, family7):
    # the index lives on the family object: built by the first query at a
    # card size, and never part of the family's equality, hash or repr
    phi_index = census._phi_index
    built = []

    def counted(family, k):
        built.append(k)
        return phi_index(family, k)

    monkeypatch.setattr(census, "_phi_index", counted)
    family7._by_phi.clear()  # an earlier test may have indexed it
    queries = [(key, 5) for key in family7.members[500:502]]
    queries.append((family7.members[500], 4))
    for key, k in queries:
        assert key in find_reconstructions(compute_deck(from_graph6(key), k), family7)
    assert built == [5, 4]
    # the degree-count groups are filled once, and are private too
    assert sum(map(len, family7._by_counts.values())) == len(family7)
    fresh = GraphFamily(7, family7.members)
    assert fresh._by_counts == {} and fresh._by_phi == {}
    assert fresh == family7
    assert hash(fresh) == hash(family7)
    assert repr(fresh) == repr(family7)
    assert "_by_phi" not in repr(family7)
    assert "_by_counts" not in repr(family7)


def test_phi_index_groups_members_by_phi_in_family_order(family7):
    for k in range(1, 7):
        expected: dict = {}
        for key in family7.members:
            phi = _phi_of_counts(_degree_counts_of_key(key), k)
            expected.setdefault(phi, []).append(key)
        assert census._phi_index(family7, k) == expected, k


def test_find_reconstructions_simple_cases(family6, family7):
    deck = compute_deck(path_graph(7), 4)
    assert find_reconstructions(deck, family7) == (canonical_key(path_graph(7)),)
    triangle = compute_deck(complete_graph(3), 2)
    assert find_reconstructions(triangle, enumerate_graphs(3)) == (
        canonical_key(complete_graph(3)),
    )
    # a deck and a family of different orders
    with pytest.raises(ValueError, match="origin order 7, expected 6"):
        find_reconstructions(deck, family6)


def test_decide_connectedness(family5, family6, family7):
    # connectedness is decided when all realizations of the deck agree on it
    def verdicts(deck, family):
        return {_key_is_connected(key) for key in find_reconstructions(deck, family)}

    assert verdicts(compute_deck(path_graph(7), 4), family7) == {True}
    assert verdicts(compute_deck(named_graph("cycle5+empty1"), 3), family6) == {
        True, False
    }
    assert verdicts(compute_deck(named_graph("cycle4+empty1"), 3), family5) == {
        True, False
    }
    two_parts = disjoint_union(cycle_graph(4), cycle_graph(3))
    assert verdicts(compute_deck(two_parts, 5), family7) == {False}


def test_decide_connectedness_unrealizable(family5):
    # ten paths force 20/3 edges, so no 5-vertex graph realizes this deck
    fake = Deck(3, 5, {canonical_key(path_graph(3)): 10})
    assert find_reconstructions(fake, family5) == ()
    # K5 is the unique realization of the all-triangles deck
    full = Deck(3, 5, {canonical_key(complete_graph(3)): 10})
    assert find_reconstructions(full, family5) == (canonical_key(complete_graph(5)),)


def test_reconstructibility_numbers(family5, family6):
    assert reconstructibility_number(path_graph(6), family6) == 2
    assert (
        reconstructibility_number(named_graph("cycle4+empty1"), family5) == 1
    )
    # the two 2-vertex graphs share their 1-deck
    assert reconstructibility_number(path_graph(2), enumerate_graphs(2)) == 0
    with pytest.raises(ValueError, match="order 6, expected 5"):
        reconstructibility_number(path_graph(6), family5)


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
    with pytest.raises(ValueError):
        known_pairs(5)
    # every pair is non-isomorphic and shares its deck of l-vertex cards
    for l in (2, 3, 4):
        for g, h, k in known_pairs(l):
            assert k == l
            assert canonical_key(g) != canonical_key(h)
            assert deck_equal(compute_deck(g, k), compute_deck(h, k))


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
    header, *lines = path.read_text().splitlines()
    assert header.startswith("#deckcensus-classes v2 n=5 k=3 members=34 sha256=")
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 2 for line in lines)
    reloaded = deck_classes(fam, 3, cache=cache)
    assert reloaded == rep
    with pytest.raises(AttributeError):
        reloaded.shared = ()


def _labeled_classes(family, k):
    """``family``'s k-deck classes, grouped here by the entry text of
    each member's ``compute_deck`` and labeled directly, as sorted
    (label, members) pairs."""
    by_text = {}
    for key in family.members:
        text = entry_text(compute_deck(from_graph6(key), k).entries)
        by_text.setdefault(text, []).append(key)
    return sorted(
        (census._class_label(text), tuple(members)) for text, members in by_text.items()
    )


def test_reload_builds_only_shared_classes(tmp_path, family5, family6):
    for family in (family5, family6):
        n = family.order
        for k in range(1, n + 1):
            cache = CensusCache(tmp_path)
            cold = deck_classes(family, k, cache=cache)
            assert (tmp_path / f"classes_n{n}_k{k}.tsv").exists()
            warm = deck_classes(family, k, cache=cache)
            assert warm == cold
            labeled = _labeled_classes(family, k)
            assert partition(warm) == tuple(sorted(c for _, c in labeled))
            # only the classes of two or more members, in label order
            assert warm.shared == tuple(c for _, c in labeled if len(c) >= 2)
            assert census.summary_line(warm) == f"n={n} k={k} classes={len(labeled)}\n"


def test_full_card_census_reads_each_card_off_its_key(
        monkeypatch, family5, family6, family7, family8):
    # at k = n a member's one card is the member itself
    for family in _families_up_to_7(family5, family6, family7):
        n = family.order
        labeled = _labeled_classes(family, n)
        report = deck_classes(family, n)
        assert report.shared == report.labels == ()
        assert report.singletons == tuple(f"{label}\t{key}" for label, (key,) in labeled)
    calls = _counted(monkeypatch, "_key_for_rows", decks)
    report = deck_classes(family8, 8)
    assert calls == []
    assert len(report.singletons) == len(family8) and report.shared == ()


def test_class_count_keeps_colliding_classes_apart(monkeypatch, family6):
    monkeypatch.setattr(census, "_class_label", lambda text: "0" * 32)
    rep = deck_classes(family6, 3)
    assert census.summary_line(rep) == "n=6 k=3 classes=112\n"
    assert all(len(members) >= 2 for members in rep.shared)
    assert sorted(key for members in partition(rep) for key in members) == list(
        family6.members
    )


# Damages of classes_n5_k3.tsv (n = 5, k = 3, 34 members): a wrong
# header over the stored lines ...
HEADER_DAMAGES = {
    "version": lambda header: header.replace(" v2 ", " v3 "),
    "members": lambda header: header.replace("members=34", "members=33"),
    "sha256": lambda header: header.replace("sha256=", "sha256=0"),
    "extra-field": lambda header: header + " extra",
    "empty-header": lambda header: "",
}
def _relabeled(line, label):
    return label + "\t" + line.split("\t", 1)[1]


def _under_shared_label(lines):
    """``lines`` with the first line whose label exceeds C4K1_LABEL
    relabeled with it, so that the lines stay sorted."""
    i = bisect.bisect(lines, C4K1_LABEL)
    return lines[:i] + [_relabeled(lines[i], C4K1_LABEL)] + lines[i + 1:]


# ... and wrong lines behind a header that matches them
LINE_DAMAGES = {
    "no-tab": lambda ls: ls[:3] + ["no tab here"] + ls[4:],
    "two-tabs": lambda ls: ls[:3] + [ls[3] + "\tx"] + ls[4:],
    # one line with a tab too many and another one short of a tab
    "tab-moved": lambda ls: (
        ls[:2] + [ls[2] + "\tx"] + ls[3:5] + [ls[5].replace("\t", "")] + ls[6:]),
    "swapped-lines": lambda ls: ls[:3] + [ls[4], ls[3]] + ls[5:],
    "repeated-line": lambda ls: ls[:4] + [ls[3]] + ls[5:],
    "one-line-short": lambda ls: ls[:-1],
    "one-line-long": lambda ls: ls + ["ffffffffffffffffffffffffffffffff\tD~{"],
    # the first singleton line names a member of a shared class instead
    "shared-member-key": lambda ls: [ls[0].split("\t")[0] + "\t" + C4K1_KEY, *ls[1:]],
    # a singleton line under a shared class's label
    "shared-label": _under_shared_label,
    # one line's key moved onto the line before it
    "key-moved": lambda ls: (
        ls[:2] + [_line_with(ls[2], ls[3].split("\t")[1]), ls[3].split("\t")[0]]
        + ls[4:]),
}


def _damaged(damage, header, lines):
    """The text of classes_n5_k3.tsv after ``damage``."""
    if damage in HEADER_DAMAGES:
        return HEADER_DAMAGES[damage](header) + "\n" + "".join(
            line + "\n" for line in lines)
    return _rehashed("classes", 5, 3, 34, LINE_DAMAGES[damage](lines))


@pytest.mark.parametrize("damage", [*HEADER_DAMAGES, *LINE_DAMAGES])
def test_damaged_class_file_is_recomputed(tmp_path, capsys, family5, damage):
    cache = CensusCache(tmp_path)
    report = deck_classes(family5, 3, cache=cache)
    path = tmp_path / "classes_n5_k3.tsv"
    stored = path.read_bytes()
    header, *lines = stored.decode().splitlines()
    path.write_text(_damaged(damage, header, lines))
    assert cache.load_classes(family5, 3) is None
    assert str(path) in capsys.readouterr().err
    # the recompute overwrites the file with what a fresh cache stores
    assert deck_classes(family5, 3, cache=cache) == report
    assert str(path) in capsys.readouterr().err
    assert path.read_bytes() == stored
    assert cache.load_classes(family5, 3) == report
    assert capsys.readouterr().err == ""


def test_emit_report_formats(family5):
    rep = deck_classes(family5, 3)
    summary = emit_report(rep, "summary")
    assert summary == f"n=5 k=3 classes={len(partition(rep))}\n"
    tsv = emit_report(rep, "tsv")
    # every member's line, labeled here from its own deck, sorted
    lines = sorted(
        census._class_label(entry_text(compute_deck(from_graph6(key), 3).entries))
        + "\t" + key
        for key in family5.members
    )
    assert tsv == "digest\tkey\n" + "".join(line + "\n" for line in lines)
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


def _shared_of(report):
    return SharedClasses(report.order, report.card_size, report.members,
                         report.shared, report.labels)


def test_shared_file_lists_the_shared_classes(tmp_path, family5, family6):
    for n in range(1, 7):
        family = {5: family5, 6: family6}.get(n) or enumerate_graphs(n)
        cache = CensusCache(tmp_path / str(n))
        for k in range(1, n + 1):
            report = deck_classes(family, k)
            assert report.members == len(family) == len(report.singletons) + sum(
                map(len, report.shared))
            assert deck_classes(family, k, cache=cache) == report
            path = tmp_path / str(n) / f"shared_n{n}_k{k}.tsv"
            header, *lines = path.read_text().splitlines()
            assert header.startswith(
                f"#deckcensus-shared v1 n={n} k={k} members={len(family)} sha256=")
            assert [line.split("\t")[1:] for line in lines] == list(
                map(list, report.shared))
            assert cache.load_shared(family, k) == _shared_of(report), (n, k)
            assert shared_classes(family, k, cache=cache) == _shared_of(report)
            # the class file lists the singleton classes, so each member
            # appears exactly once across the two files
            singles = (path.parent / f"classes_n{n}_k{k}.tsv").read_text().splitlines()
            header = singles.pop(0)
            assert header.startswith(
                f"#deckcensus-classes v2 n={n} k={k} members={len(family)} sha256=")
            single_keys = [line.split("\t")[1] for line in singles]
            assert len(set(line.split("\t")[0] for line in singles)) == len(singles)
            assert tuple(singles) == report.singletons
            assert sorted(single_keys + [key for keys in report.shared
                                         for key in keys]) == list(family.members)


def _counted(monkeypatch, name, *modules, calls=None):
    """Patch ``name`` on each of ``modules`` with one wrapper of the first
    module's binding, and return the list (``calls``, if given) of the
    argument tuples it is called with."""
    calls = [] if calls is None else calls
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _counted_tallies(monkeypatch):
    """Patch ``_deck_tally`` wherever it is bound, and return the list of
    its calls."""
    return _counted(monkeypatch, "_deck_tally", decks, census)


def test_warm_n8_class_tsv_is_the_pinned_cold_tsv(
        monkeypatch, tmp_path, capsys, family8, classes8):
    # the files that a cold census stores, then the command warm: it
    # reads 888 shared classes and 10409 singleton lines, walks no card
    # and prints the cold output, which the benchmark pins
    cold = classes8(4)
    assert (len(cold.shared), len(cold.singletons)) == (888, 10409)
    cache = CensusCache(tmp_path)
    cache.store_family(family8)
    cache.store_classes(cold)
    calls = _counted_tallies(monkeypatch)
    out = io.StringIO()
    argv = ["classes", "-n", "8", "-k", "4", "--format", "tsv", "--cache-dir", str(tmp_path)]
    assert dispatch(argv, out=out) == 0
    assert calls == [] and capsys.readouterr().err == ""
    assert out.getvalue() == emit_report(cold, "tsv")
    pins = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench/data/pins.json").read_text())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == pins["classes"]["4"]["tsv_sha256"]


def test_missing_shared_file_is_recomputed(monkeypatch, tmp_path, family6):
    fresh = tmp_path / "fresh"
    report = deck_classes(family6, 3, cache=CensusCache(fresh))
    cache = CensusCache(tmp_path / "cache")
    deck_classes(family6, 3, cache=cache)
    names = ["shared_n6_k3.tsv", "classes_n6_k3.tsv"]
    # the class file no longer holds the shared members, so a missing
    # shared file comes back, with the class file, from the cards
    (tmp_path / "cache" / names[0]).unlink()
    calls = _counted_tallies(monkeypatch)
    assert shared_classes(family6, 3, cache=cache) == report
    assert calls
    for name in names:
        assert (tmp_path / "cache" / name).read_bytes() == (fresh / name).read_bytes()


def test_warm_verify_reads_no_class_file(monkeypatch, tmp_path, family6):
    CensusCache(tmp_path).store_family(family6)
    commands = [["classes"]] + [
        ["verify", "--invariant", invariant] for invariant in census.INVARIANTS
    ]
    argvs = [[*command, "-n", "6", "-k", str(k), "--format", fmt,
              "--cache-dir", str(tmp_path)]
             for k in (3, 4) for command in commands for fmt in ("summary", "tsv")
             if (command[0], fmt) != ("classes", "tsv")]

    def run(argv):
        out = io.StringIO()
        return dispatch(argv, out=out), out.getvalue()

    cold = [run(argv) for argv in argvs]
    loads = []
    monkeypatch.setattr(CensusCache, "load_classes",
                        lambda *args: loads.append(args))
    calls = _counted_tallies(monkeypatch)
    assert [run(argv) for argv in argvs] == cold
    assert loads == calls == []


# Damages of shared_n5_k3.tsv (n = 5, k = 3, 34 members, two lines of two
# keys): a wrong header over the stored lines ...
SHARED_HEADER_DAMAGES = {
    "version": lambda header: header.replace(" v1 ", " v2 "),
    "members": lambda header: header.replace("members=34", "members=33"),
    "sha256": lambda header: header.replace("sha256=", "sha256=0"),
    "class-header": lambda header: header.replace("-shared ", "-classes "),
}


def _line_with(line, key):
    label, *keys = line.split("\t")
    return "\t".join([label, *sorted({*keys, key})])


# ... and wrong lines behind a header that matches them
SHARED_LINE_DAMAGES = {
    "one-key-line": lambda ls: [ls[0].rsplit("\t", 1)[0], *ls[1:]],
    "keys-out-of-order": lambda ls: [
        "\t".join([ls[0].split("\t")[0], *reversed(ls[0].split("\t")[1:])]),
        *ls[1:]],
    "swapped-lines": lambda ls: ls[::-1],
    "repeated-line": lambda ls: [ls[0], *ls],
    "key-on-two-lines": lambda ls: [ls[0], _line_with(ls[1], ls[0].split("\t")[1])],
    "no-label": lambda ls: [line.split("\t", 1)[1] for line in ls],
    "empty-label": lambda ls: [_relabeled(ls[0], ""), *ls[1:]],
    "non-hex-label": lambda ls: [_relabeled(ls[0], ls[0].split("\t")[0].upper()), *ls[1:]],
    # every line under the first line's label, the lines still sorted
    "label-twice": lambda ls: sorted(_relabeled(line, ls[0].split("\t")[0]) for line in ls),
    # a key replaced by one that is not a member: C4 + K1 in its named,
    # non-canonical labelling
    "non-member-key": lambda ls: [
        _line_with(ls[0].rsplit("\t", 1)[0], to_graph6(named_graph("cycle4+empty1"))),
        *ls[1:]],
}


def _rehashed(kind, n, k, members, lines):
    """A ``kind`` file of ``lines`` under the header that matches them."""
    body = "".join(line + "\n" for line in lines)
    return census._class_header(n, k, members, body.encode(), kind) + "\n" + body


def _damaged_shared(damage, header, lines):
    """The text of shared_n5_k3.tsv after ``damage``."""
    if damage in SHARED_HEADER_DAMAGES:
        return SHARED_HEADER_DAMAGES[damage](header) + "\n" + "".join(
            line + "\n" for line in lines)
    return _rehashed("shared", 5, 3, 34, SHARED_LINE_DAMAGES[damage](lines))


@pytest.mark.parametrize("damage", [*SHARED_HEADER_DAMAGES, *SHARED_LINE_DAMAGES])
def test_damaged_shared_file_is_rebuilt(monkeypatch, tmp_path, capsys, family5, damage):
    fresh = tmp_path / "fresh"
    report = deck_classes(family5, 3, cache=CensusCache(fresh))
    cache = CensusCache(tmp_path / "cache")
    deck_classes(family5, 3, cache=cache)
    path = tmp_path / "cache" / "shared_n5_k3.tsv"
    header, *lines = path.read_text().splitlines()
    assert len(lines) == 2 and all(line.count("\t") == 2 for line in lines)
    path.write_text(_damaged_shared(damage, header, lines))
    assert cache.load_shared(family5, 3) is None
    assert str(path) in capsys.readouterr().err
    # recomputed from the cards, with one stderr line, and both files
    # come back as a fresh cache stores them
    calls = _counted_tallies(monkeypatch)
    assert shared_classes(family5, 3, cache=cache) == report
    err = capsys.readouterr().err
    assert str(path) in err and err.count("\n") == 1
    assert calls
    for name in (path.name, "classes_n5_k3.tsv"):
        assert (tmp_path / "cache" / name).read_bytes() == (fresh / name).read_bytes()
    assert cache.load_shared(family5, 3) == _shared_of(report)
    assert capsys.readouterr().err == ""


def test_shared_reads_are_memoized_only_for_unchanged_files(tmp_path, capsys, family6):
    # fresh family objects, so that no other test has filled their memos
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    report = _shared_of(deck_classes(family, 3, cache=cache))
    path = tmp_path / "shared_n6_k3.tsv"
    stored = path.read_bytes()
    first = cache.load_shared(family, 3)
    assert first == report
    assert cache.load_shared(family, 3) is first
    header, *lines = stored.decode().splitlines()
    # a key replaced by a non-member behind a header that matches it, the
    # stored header over a class less, and the stored body under a wrong
    # header
    non_member = to_graph6(named_graph("cycle5+empty1"))
    assert non_member not in family.members
    damaged = [_line_with(lines[0].rsplit("\t", 1)[0], non_member), *lines[1:]]
    for text in (
        _rehashed("shared", 6, 3, 156, damaged),
        "".join(line + "\n" for line in [header, *lines[:-1]]),
        header.replace("members=156", "members=155") + stored.decode()[len(header):],
    ):
        path.write_text(text)
        assert cache.load_shared(family, 3) is None
        err = capsys.readouterr().err
        assert str(path) in err and err.count("\n") == 1
    # the rejected files left the held read in place
    path.write_bytes(stored)
    assert cache.load_shared(family, 3) is first
    # a valid file with a class less is read as it is, and is held instead
    path.write_text(_rehashed("shared", 6, 3, 156, lines[:-1]))
    fewer = cache.load_shared(family, 3)
    assert fewer.shared == report.shared[:-1]
    assert cache.load_shared(family, 3) is fewer
    # the restored file is a new read with the same answers, and another
    # family object with the same members parses it for itself
    path.write_bytes(stored)
    restored = cache.load_shared(family, 3)
    assert restored == first and restored is not first
    for invariant in census.INVARIANTS:
        assert verify_invariant(restored, invariant) == verify_invariant(first, invariant)
    assert cache.load_shared(family, 3) is restored
    other = GraphFamily(6, family6.members)
    again = cache.load_shared(other, 3)
    assert again == first and again is not first
    assert cache.load_shared(other, 3) is again
    assert capsys.readouterr().err == ""


def test_warm_loads_of_unchanged_files_hash_nothing(monkeypatch, tmp_path, family6):
    cache = CensusCache(tmp_path)
    cache.store_family(family6)
    family = cache.load_family(6)
    report = deck_classes(family, 3, cache=cache)
    shared = cache.load_shared(family, 3)
    classes = cache.load_classes(family, 3)
    assert classes == report
    hashed = _counted(monkeypatch, "sha256", hashlib)
    parsed = _counted(monkeypatch, "_parse_derived", census)
    # each file is read again, and its bytes are the ones already accepted
    assert cache.load_family(6) is family
    assert cache.load_shared(family, 3) is shared
    assert hashed == parsed == []
    # a class file gets every check, beside the held shared read
    warm = cache.load_classes(family, 3)
    assert warm == classes and warm is not classes
    body = (tmp_path / "classes_n6_k3.tsv").read_bytes().partition(b"\n")[2]
    assert hashed == [(body,)]
    assert len(parsed) == 1 and parsed[0][3] is shared


def test_changed_shared_body_misses_the_memo(monkeypatch, tmp_path, capsys, family6):
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    report = deck_classes(family, 3, cache=cache)
    path = tmp_path / "shared_n6_k3.tsv"
    stored = path.read_bytes()
    first = cache.load_shared(family, 3)
    assert cache.load_shared(family, 3) is first
    # one label digit of the last line changed: the length and the header
    # stay, and the header's sha256 no longer matches the body
    i = stored.rindex(b"\n", 0, -1) + 1
    changed = stored[:i] + (b"1" if stored[i:i + 1] == b"0" else b"0") + stored[i + 1:]
    assert len(changed) == len(stored)
    assert changed.split(b"\n")[0] == stored.split(b"\n")[0]
    path.write_bytes(changed)
    calls = _counted_tallies(monkeypatch)
    assert shared_classes(family, 3, cache=cache) == report
    err = capsys.readouterr().err
    assert str(path) in err and err.count("\n") == 1
    assert calls
    # the recompute writes the stored bytes back, which the memo serves
    assert path.read_bytes() == stored
    assert cache.load_shared(family, 3) is first
    assert capsys.readouterr().err == ""


def test_class_file_is_checked_on_every_load(tmp_path, capsys, family6):
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    report = deck_classes(family, 3, cache=cache)
    shared_path, class_path = (tmp_path / f"{kind}_n6_k3.tsv"
                               for kind in ("shared", "classes"))
    stored_shared, stored_classes = shared_path.read_bytes(), class_path.read_bytes()
    first = cache.load_classes(family, 3)
    assert first == report
    assert cache.load_classes(family, 3) == first

    def rejected(path):
        err = capsys.readouterr().err
        return str(path) in err and err.count("\n") == 1

    # a class file changed after a load is rejected: a line less, under
    # the header that matches it
    lines = stored_classes.decode().splitlines()[1:]
    class_path.write_text(_rehashed("classes", 6, 3, 156, lines[:-1]))
    assert cache.load_classes(family, 3) is None
    assert rejected(class_path)
    class_path.write_bytes(stored_classes)
    assert cache.load_classes(family, 3) == first
    # beside a valid shared file with a class less, the stored class file
    # fails: the dropped class's members are on no line of either file
    lines = stored_shared.decode().splitlines()[1:]
    shared_path.write_text(_rehashed("shared", 6, 3, 156, lines[:-1]))
    assert cache.load_classes(family, 3) is None
    assert rejected(class_path)
    # both files as stored: the same partition is read again
    shared_path.write_bytes(stored_shared)
    assert cache.load_classes(family, 3) == first
    assert capsys.readouterr().err == ""


def test_one_shared_read_is_held_per_family_and_card_size(tmp_path, capsys, family6):
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    for k in (3, 4):
        deck_classes(family, k, cache=cache)
    four = cache.load_shared(family, 4)
    path = tmp_path / "shared_n6_k3.tsv"
    stored = path.read_bytes()
    fewer = _rehashed("shared", 6, 3, 156, stored.decode().splitlines()[2:])
    # the stored file A, a valid file B with a class less, then A again
    first = cache.load_shared(family, 3)
    path.write_text(fewer)
    assert len(cache.load_shared(family, 3).shared) == len(first.shared) - 1
    path.write_bytes(stored)
    third = cache.load_shared(family, 3)
    assert third == first and third is not first
    # one slot per card size, holding the file last accepted for it
    assert sorted(family._shared_reads) == [3, 4]
    assert family._shared_reads[3] == (stored, third)
    assert cache.load_shared(family, 4) is four
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["graphs_n6.g6", "shared_n6_k3.tsv"])
def test_cache_file_gone_before_its_read_is_recomputed(
        monkeypatch, tmp_path, capsys, name):
    argv = ["verify", "-n", "6", "-k", "3", "--invariant", "isomorphism",
            "--cache-dir", str(tmp_path)]
    out = io.StringIO()
    assert dispatch(argv, out=out) == 0
    cold = out.getvalue()
    path = tmp_path / name
    stored = path.read_bytes()
    # the file is there when it is listed, and gone when it is read, once
    gone = [path]
    real = Path.read_bytes

    def vanishing(self):
        if self in gone:
            gone.remove(self)
            raise FileNotFoundError(2, "No such file or directory", str(self))
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", vanishing)
    calls = _counted_tallies(monkeypatch)
    out = io.StringIO()
    assert dispatch(argv, out=out) == 0
    assert gone == []
    # a family comes back from the smaller one, a shared file from the cards
    assert bool(calls) == name.startswith("shared")
    assert out.getvalue() == cold
    assert capsys.readouterr().err == ""
    assert path.read_bytes() == stored


def _counted_values(monkeypatch):
    """Patch the member values that ``census.INVARIANTS`` reads, and
    return the one list of their calls, each a (key,) tuple."""
    valued = []
    for name in ("_degree_counts_of_key", "_key_is_connected"):
        _counted(monkeypatch, name, census, calls=valued)
    return valued


def test_checks_of_a_shared_read_value_each_member_once(
        monkeypatch, tmp_path, family6):
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    deck_classes(family, 3, cache=cache)
    report = cache.load_shared(family, 3)
    shared_keys = sorted((key,) for members in report.shared for key in members)
    expected = {invariant: _pairwise_violations(report, invariant)
                for invariant in ("degree_list", "connectedness")}
    valued = _counted_values(monkeypatch)

    def rows(read, invariant):
        return [(v.key_a, v.key_b, v.witness) for v in verify_invariant(read, invariant)]

    # counting values every shared member on each call, and keeps nothing
    for invariant, pairs in expected.items():
        for _ in range(2):
            assert count_violations(report, invariant) == len(pairs)
            assert sorted(valued) == shared_keys, invariant
            valued.clear()
    assert report._violations == {}
    # an invariant's first listing values every shared member once ...
    for invariant, pairs in expected.items():
        assert rows(report, invariant) == pairs
        assert sorted(valued) == shared_keys, invariant
        valued.clear()
    # ... and every later one, through the memoized read too, values none
    for invariant, pairs in expected.items():
        for read in (report, cache.load_shared(family, 3)):
            assert rows(read, invariant) == pairs
    assert valued == []
    # an unknown name still raises, and is not kept
    for check in (verify_invariant, count_violations):
        with pytest.raises(ValueError, match="unknown invariant 'girth'"):
            check(report, "girth")
    assert set(report._violations) == set(expected)
    # a valid file without the class of the first degree-list violation
    # is a read of its own, with its own answer
    path = tmp_path / "shared_n6_k3.tsv"
    stored = path.read_bytes()
    lines = stored.decode().splitlines()[1:]
    key = expected["degree_list"][0][0]
    path.write_text(_rehashed("shared", 6, 3, 156, [
        line for line in lines if key not in line.split("\t")]))
    fewer = cache.load_shared(family, 3)
    assert len(fewer.shared) == len(report.shared) - 1
    for invariant in expected:
        pairs = _pairwise_violations(fewer, invariant)
        assert _checked(fewer, invariant) == (pairs, len(pairs))
    assert _checked(fewer, "degree_list")[0] != expected["degree_list"]
    # the restored file is a new read with the same answers: its first
    # listing values every shared member once again
    path.write_bytes(stored)
    valued.clear()
    restored = cache.load_shared(family, 3)
    assert restored == report and restored is not report
    assert rows(restored, "degree_list") == expected["degree_list"]
    assert sorted(valued) == shared_keys


def test_verify_invariant_keeps_its_pairs_on_the_read(tmp_path, family6):
    family = GraphFamily(6, family6.members)
    cache = CensusCache(tmp_path)
    deck_classes(family, 3, cache=cache)
    report = cache.load_shared(family, 3)
    # counting lists no pair: it also serves classes too large to list
    for invariant in census.INVARIANTS:
        count_violations(report, invariant)
    assert report._violations == {}
    pairs = verify_invariant(report, "degree_list")
    assert pairs == tuple(Violation(*row) for row in
                          _pairwise_violations(report, "degree_list"))
    assert verify_invariant(report, "degree_list") is pairs
    assert verify_invariant(cache.load_shared(family, 3), "degree_list") is pairs
    # an unknown name still raises, and is not kept
    with pytest.raises(ValueError, match="unknown invariant 'girth'"):
        verify_invariant(report, "girth")
    assert set(report._violations) == {"degree_list"}
    # another read of the same file lists its pairs for itself
    other = CensusCache(tmp_path).load_shared(GraphFamily(6, family6.members), 3)
    assert verify_invariant(other, "degree_list") == pairs
    assert verify_invariant(other, "degree_list") is not pairs
