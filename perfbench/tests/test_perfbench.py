"""Tests of the benchmark itself: pinned inputs, seeded queries, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests

Run from the repository root.  The traced-run tests start real worker
interpreters; the classes one takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deckcensus.canon import canonical_key  # noqa: E402
from deckcensus.graphs import from_graph6  # noqa: E402

# The layers each workload must reach, by span-name prefix.
LAYERS = {
    "enumerate": ("canon", "census", "decks", "graphs"),
    "classes": ("canon", "census", "decks", "graphs", "cli"),
    "queries": ("canon", "census", "decks", "graphs", "counting", "cli"),
}


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.fixture(scope="module")
def family(pins):
    return workloads.load_family(pins)


def test_pinned_family_is_sorted_distinct_and_canonical(pins, family):
    assert len(family) == pins["family_n8"]["count"] == 12346
    assert list(family) == sorted(set(family))
    assert all(canonical_key(from_graph6(key)) == key for key in family)


def test_corrupted_family_is_refused(pins, tmp_path, monkeypatch):
    bad = tmp_path / "graphs_n8.g6"
    bad.write_bytes(workloads.FAMILY_FILE.read_bytes().replace(b"G?????\n", b""))
    monkeypatch.setattr(workloads, "FAMILY_FILE", bad)
    with pytest.raises(workloads.PinError):
        workloads.load_family(pins)


def test_pins_hold_the_paper_facts(pins):
    assert {n: fam["count"] for n, fam in pins["families"].items()} == {
        "2": 2, "3": 4, "4": 11, "5": 34, "6": 156, "7": 1044,
    }
    assert {k: v["classes"] for k, v in pins["classes"].items()} == {
        "4": 11297, "5": 12342, "6": 12346, "7": 12346,
    }
    violations = {
        (k, inv): v["violations"]
        for k, by_inv in pins["verify"].items()
        for inv, v in by_inv.items()
    }
    assert violations[("4", "degree_list")] == 6
    assert violations[("4", "connectedness")] == 4
    assert violations[("5", "degree_list")] == violations[("5", "connectedness")] == 0
    assert pins["paper_pair"]["keys"] == ["G?Che?", "G?Cid?"]
    assert pins["shared_decks"]["6"] == []
    shared4 = {key for cls in pins["shared_decks"]["4"] for key in cls}
    assert {"G?Che?", "G?Cid?"} <= shared4


def test_query_inputs_follow_the_seed(family):
    first = workloads.query_round(7, 0, family)
    assert first == workloads.query_round(7, 0, family)
    assert first != workloads.query_round(8, 0, family)
    assert first != workloads.query_round(7, 1, family)


def test_a_query_round_draws_once_from_every_stratum(family):
    keys = {q.key for q in workloads.query_round(7, 0, family)}
    assert [len(keys & set(block)) for block in workloads.strata(family)] == [
        1
    ] * workloads.QUERY_STRATA


def test_relabelled_inputs_are_isomorphic_to_their_source(family):
    def nx_graph(text):
        return nx.from_graph6_bytes(text.encode())

    for q in workloads.query_round(3, 0, family) + workloads.query_round(3, 1, family):
        source = nx_graph(q.key)
        assert nx.is_isomorphic(source, nx_graph(q.g6))
        assert nx.is_isomorphic(source, nx_graph(q.g6_other))
        degrees = [d for _, d in source.degree()]
        assert q.degree_counts == tuple(degrees.count(i) for i in range(8))


def test_wrappers_restore_module_attributes():
    table = tracing.bindings()
    before = [vars(owner)[attr] for owner, attr, _ in table]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(o)[a] is not f for (o, a, _), f in zip(table, before))
            canonical_key(from_graph6("G?Che?"))
            raise RuntimeError
    assert all(vars(o)[a] is f for (o, a, _), f in zip(table, before))
    assert tracer.stats[tracing.CANON][0] == 1


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_run_reaches_every_layer(workload, tmp_path):
    runner = run.Runner(ROOT, workload, seed=5, workdir=tmp_path)
    result = runner.worker("--trace")
    assert all(op["ok"] for op in result["unit"]["ops"])
    calls = {}
    for name, (n, _, _) in result["trace"]["stats"].items():
        layer = name.split(".", 1)[0]
        calls[layer] = calls.get(layer, 0) + n
    assert {layer: calls.get(layer, 0) > 0 for layer in LAYERS[workload]} == {
        layer: True for layer in LAYERS[workload]
    }


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digest_lines_matches_the_family_file(pins):
    data = workloads.FAMILY_FILE.read_bytes()
    members = data.decode().split()
    assert workloads.digest_lines(members) == hashlib.sha256(data).hexdigest()
