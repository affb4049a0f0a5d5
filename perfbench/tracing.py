"""Per-layer spans for deckcensus, installed from the benchmark's side.

Each span wraps one function *as its caller binds it*: ``census`` and
``decks`` call ``canon._key_for_rows`` directly, ``census`` holds its own
``compute_deck`` and ``_graph_of_key`` names, and so on.  Wrapping only
the public names would leave most of the real calls unseen, so
``bindings()`` lists every (owner, attribute) pair the workloads reach.

Spans are aggregated in memory: calls, total time and self time (total
minus the time of child spans) per span name, plus call counts per
parent span and child span (``edges[parent][child]``, parent ``""`` for
a span with no traced parent).  Spans the benchmark opens itself, with
no traced parent, are also kept one by one with their unit number.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

CANON = "canon.key_for_rows"
COMPUTE_DECK = "decks.compute_deck"
AUGMENT_CHUNK = "census.augment_chunk"
CARD_SIZES = (4, 5, 6, 7)


def bindings() -> tuple:
    """(owner, attribute, span name) triples; a name's prefix is its layer."""
    from deckcensus import canon, census, cli, counting, decks, graphs

    return (
        (canon, "_key_for_rows", CANON),
        (decks, "_key_for_rows", CANON),
        (graphs, "from_graph6", "graphs.from_graph6"),
        (decks, "from_graph6", "graphs.from_graph6"),
        (canon, "from_graph6", "graphs.from_graph6"),
        (census, "degree_list", "graphs.degree_list"),
        (decks, "is_connected", "graphs.is_connected"),
        (census, "compute_deck", COMPUTE_DECK),
        (decks, "compute_deck", COMPUTE_DECK),
        (census, "deck_equal", "decks.deck_equal"),
        (decks, "deck_equal", "decks.deck_equal"),
        (decks, "derive_subdeck", "decks.derive_subdeck"),
        (census, "edge_count_from_deck", "decks.edge_count_from_deck"),
        (census, "phi_vector", "decks.phi_vector"),
        (counting, "phi_vector", "decks.phi_vector"),
        (census, "_graph_of_key", "decks.graph_of_key"),
        (decks, "_graph_of_key", "decks.graph_of_key"),
        (census, "_degree_counts_of_key", "decks.degree_counts_of_key"),
        (census, "_key_is_connected", "decks.key_is_connected"),
        (census, "phi_formula", "counting.phi_formula"),
        (counting, "reconstruct_degree_list", "counting.reconstruct_degree_list"),
        (counting, "counts_to_degree_list", "counting.counts_to_degree_list"),
        (census, "enumerate_graphs", "census.enumerate_graphs"),
        (census, "_augmentations", "census.augmentations"),
        (census, "_augment_chunk", AUGMENT_CHUNK),
        (census, "deck_classes", "census.deck_classes"),
        (census, "verify_invariant", "census.verify_invariant"),
        (census, "find_reconstructions", "census.find_reconstructions"),
        (census, "emit_report", "census.emit_report"),
        (census.CensusCache, "load_family", "census.cache.load_family"),
        (census.CensusCache, "load_classes", "census.cache.load_classes"),
        (census.CensusCache, "store_family", "census.cache.store_family"),
        (census.CensusCache, "store_classes", "census.cache.store_classes"),
        (cli, "dispatch", "cli.dispatch"),
    )


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.edges: dict[str, dict[str, int]] = {}
        self.distinct = 0  # keys kept by augment_chunk after deduplication
        self.top: list[tuple[int, str, float, float]] = []
        self.unit = 0
        self.canon_seen: set[tuple[int, tuple[int, ...]]] = set()
        self.canon_repeats = 0

    def _close(self, frame: list, end: float) -> None:
        name, start, child = frame
        dur = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            children = self.edges.setdefault(parent[0], {})
        else:
            self.top.append((self.unit, name, start, end))
            children = self.edges.setdefault("", {})
        children[name] = children.get(name, 0) + 1

    def wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        return traced

    def wrap_canon(self, fn):
        inner = self.wrap(CANON, fn)
        seen = self.canon_seen

        def traced(n, rows):
            if (n, rows) in seen:
                self.canon_repeats += 1
            else:
                seen.add((n, rows))
            return inner(n, rows)

        return traced

    def wrap_augment_chunk(self, fn):
        # One call returns the deduplicated keys of one enumeration level.
        inner = self.wrap(AUGMENT_CHUNK, fn)

        def traced(parent_keys):
            keys = inner(parent_keys)
            self.distinct += len(keys)
            return keys

        return traced

    def wrap_compute_deck(self, fn):
        by_k: dict[int, object] = {}

        def traced(g, k):
            inner = by_k.get(k)
            if inner is None:
                inner = by_k[k] = self.wrap(f"{COMPUTE_DECK}.k{k}", fn)
            return inner(g, k)

        return traced

    def _wrapper(self, name: str, fn):
        if name == CANON:
            return self.wrap_canon(fn)
        if name == COMPUTE_DECK:
            return self.wrap_compute_deck(fn)
        if name == AUGMENT_CHUNK:
            return self.wrap_augment_chunk(fn)
        return self.wrap(name, fn)

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore
        the exact objects found there."""
        table = bindings()
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in table]
        try:
            for (owner, attr, name), (_, _, fn) in zip(table, originals):
                setattr(owner, attr, self._wrapper(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "edges": self.edges,
            "distinct": self.distinct,
            "top": self.top,
            "canon_repeats": self.canon_repeats,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several traced workers (one per fresh interpreter)."""
    stats: dict[str, list] = {}
    edges: dict[str, dict[str, int]] = {}
    top: list = []
    repeats = distinct = 0
    for d in dumps:
        for name, (calls, total, self_s) in d["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for parent, counts in d["edges"].items():
            children = edges.setdefault(parent, {})
            for child, n in counts.items():
                children[child] = children.get(child, 0) + n
        top.extend(d["top"])
        repeats += d["canon_repeats"]
        distinct += d["distinct"]
    return {"stats": stats, "edges": edges, "top": top,
            "canon_repeats": repeats, "distinct": distinct}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(trace: dict, units: int, cache_bytes: float) -> dict[str, float]:
    """Per-layer figures, per unit of work where they are totals."""
    stats, edges = trace["stats"], trace["edges"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(s[2] for name, s in stats.items() if _layer(name) == layer)

    def under(parent, child):
        return edges.get(parent, {}).get(child, 0)

    def rate(num, den):
        return num / den if den else 0.0

    canon_calls = calls(CANON)
    children = under("census.augmentations", CANON)
    queries = calls("census.find_reconstructions")
    deck_names = [n for n in stats if n.startswith(COMPUTE_DECK + ".k")]
    deck_s = total(*deck_names)
    cards = sum(under(n, CANON) for n in deck_names)
    m = {
        "canon.calls": canon_calls / units,
        "canon.self_s": own(CANON) / units,
        "canon.keys_per_s": rate(canon_calls, total(CANON)),
        "canon.repeat_ratio": rate(trace["canon_repeats"], canon_calls),
        "census.children": children / units,
        "census.distinct_ratio": rate(trace["distinct"], children),
        "census.augment_self_s": own("census.augmentations") / units,
        "census.group_self_s": own("census.deck_classes") / units,
        "census.verify_s": total("census.verify_invariant") / units,
        "census.cache_read_s": total(
            "census.cache.load_family", "census.cache.load_classes"
        ) / units,
        "census.cache_write_s": total(
            "census.cache.store_family", "census.cache.store_classes"
        ) / units,
        "census.cache_bytes": cache_bytes,
        "census.scanned_per_query": rate(
            under("census.find_reconstructions", "decks.graph_of_key"), queries
        ),
        "census.deck_compares_per_query": rate(
            under("census.find_reconstructions", "decks.deck_equal"), queries
        ),
        "decks.compute_deck_calls": sum(calls(n) for n in deck_names) / units,
        "decks.cards_per_s": rate(cards, deck_s),
        "decks.self_s": layer_self("decks") / units,
    }
    for k in CARD_SIZES:
        name = f"{COMPUTE_DECK}.k{k}"
        m[f"decks.k{k}.compute_deck_calls"] = calls(name) / units
        m[f"decks.k{k}.cards_per_s"] = rate(under(name, CANON), total(name))
        m[f"decks.k{k}.self_s"] = own(name) / units
    m.update({
        "decks.deck_equal_calls": calls("decks.deck_equal") / units,
        "decks.derive_subdeck_s": total("decks.derive_subdeck") / units,
        "counting.phi_formula_calls": calls("counting.phi_formula") / units,
        "counting.self_s": layer_self("counting") / units,
        "graphs.from_graph6_calls": calls("graphs.from_graph6") / units,
        "graphs.self_s": layer_self("graphs") / units,
        "cli.self_s": layer_self("cli") / units,
    })
    return m
