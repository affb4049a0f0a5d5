"""Enumeration, deck-class partitions, invariant checks, and realization
search over small families."""

import concurrent.futures
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from deckcensus import census
from deckcensus.canon import canonical_key
from deckcensus.census import (
    CensusCache,
    deck_classes,
    emit_report,
    enumerate_graphs,
    find_reconstructions,
    known_pairs,
    reconstructibility_number,
    verify_invariant,
)
from deckcensus.cli import dispatch
from deckcensus.counting import phi_formula
from deckcensus.decks import Deck, _key_is_connected, compute_deck, deck_equal
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

from .helpers import KNOWN_GRAPH_COUNTS, brute_force_family, induced_deck, permuted

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
    assert len(deck_classes(family6, 3).classes) == 112
    assert len(deck_classes(family6, 4).classes) == 156


def test_colliding_labels_are_never_stored(monkeypatch, tmp_path, family5):
    # a class file names classes by label only, so a reload would merge
    # classes that share one
    expected = deck_classes(family5, 3).classes
    monkeypatch.setattr(census, "_class_label", lambda text: "0" * 32)
    cache = CensusCache(tmp_path)
    first = deck_classes(family5, 3, cache=cache)
    assert not (tmp_path / "classes_n5_k3.tsv").exists()
    assert deck_classes(family5, 3, cache=cache).classes == first.classes
    assert sorted(c.members for c in first.classes) == sorted(
        c.members for c in expected
    )


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
        assert len(set(texts)) == len(deck_classes(family6, k).classes)
        for key, text in list(zip(family6.members, texts))[::31]:
            out = io.StringIO()
            assert dispatch(["deck", "--g6", key, "-k", str(k), "--format", "tsv"],
                            out=out) == 0
            assert out.getvalue() == text + "\n"


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


def _assert_matches_deck_classes(family, card_sizes, members):
    for k in card_sizes:
        classes = {
            key: cls.members
            for cls in deck_classes(family, k).classes
            for key in cls.members
        }
        for key in members:
            deck = compute_deck(from_graph6(key), k)
            found = find_reconstructions(deck, family)
            assert found == classes[key], (key, k)


def test_phi_table_equals_phi_formula(family5, family6, family7, family8):
    families = {5: family5, 6: family6, 7: family7, 8: family8}
    for n in range(1, 9):
        family = families.get(n) or enumerate_graphs(n)
        for counts in census._members_by_counts(family.members):
            for k in range(1, n + 1):
                want = tuple(phi_formula(counts, n, k, j) for j in range(k))
                assert census._phi_of_counts(counts, k) == want, (counts, k)


def test_find_reconstructions_matches_deck_classes_n6(family6):
    _assert_matches_deck_classes(family6, range(1, 7), family6.members)


def test_find_reconstructions_matches_deck_classes_n7(family7):
    _assert_matches_deck_classes(family7, range(3, 7), family7.members)


def test_find_reconstructions_matches_deck_classes_n8(family8):
    sample = random.Random(8).sample(family8.members, 60)
    _assert_matches_deck_classes(family8, range(4, 8), sample)


def test_four_deck_screen_spares_the_k_decks(monkeypatch, family7):
    # a member alone in its 4-deck class: every other candidate that
    # passes the phi and triangle screens fails on its 4-deck
    singles = [cls.members[0] for cls in deck_classes(family7, 4).classes
               if len(cls.members) == 1]
    built = []

    def counted(g, k):
        built.append(k)
        return compute_deck(g, k)

    monkeypatch.setattr(census, "compute_deck", counted)
    screened = 0
    for key in singles[::50]:
        deck = compute_deck(from_graph6(key), 6)
        built.clear()
        assert find_reconstructions(deck, family7) == (key,)
        assert built.count(6) == 1, key
        screened += built.count(4) - 1
    # the screen turned candidates away
    assert screened > 0


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
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 2 for line in lines)
    reloaded = deck_classes(fam, 3, cache=cache)
    assert reloaded.classes == rep.classes
    with pytest.raises(AttributeError):
        reloaded.classes[0].members = ()


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
