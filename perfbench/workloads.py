"""The benchmark's workloads: inputs, timed units and answer checks.

A unit is the fixed piece of work a workload repeats; every operation in
a unit is timed on its own and checked against the pinned answers in
``data/pins.json``.  The program is driven only through public entry
points, looked up on their modules at call time so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from deckcensus import canon, census, cli, graphs

from gauge import Gauge

DATA = Path(__file__).resolve().parent / "data"
FAMILY_FILE = DATA / "graphs_n8.g6"
PINS_FILE = DATA / "pins.json"

CENSUS_N = 8
ENUMERATE_N = 7
CLASS_CARD_SIZES = (4, 5, 6, 7)
INVARIANTS = ("degree_list", "connectedness")
QUERY_CARD_SIZES = (4, 5, 6)
DEGREE_CARD_SIZE = 5
COMPARE_CARD_SIZE = 5
SMALL_ORDERS = (2, 3, 4, 5, 6)  # one round of cold enumerations below ENUMERATE_N
SMALL_ROUNDS = 8  # rounds after each cold n = ENUMERATE_N enumeration
RELOADS_PER_ROUND = 125  # family reloads at the end of each round
WARM_VERIFY_ROUNDS = 12  # warm verify rounds after each cold census
QUERY_STRATA = 32
GAUGE = Gauge()  # host speed, sampled while a unit runs


class PinError(RuntimeError):
    """A pinned input no longer matches its recorded hash."""


def digest_lines(lines) -> str:
    """sha256 of the lines joined by newlines, with a final newline."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def load_family(pins: dict) -> tuple[str, ...]:
    """The pinned n=8 family, refused unless its content hash matches."""
    data = FAMILY_FILE.read_bytes()
    if hashlib.sha256(data).hexdigest() != pins["family_n8"]["sha256"]:
        raise PinError(f"{FAMILY_FILE} does not match its pinned sha256")
    return tuple(data.decode().split())


def relabel(key: str, perm: list[int]) -> str:
    """graph6 text of the graph ``key`` with vertex v renamed perm[v]."""
    g = graphs.from_graph6(key)
    rows = [0] * g.n
    for u, row in enumerate(g.rows):
        for v in range(g.n):
            if row >> v & 1:
                rows[perm[u]] |= 1 << perm[v]
    return graphs.to_graph6(graphs.Graph.from_rows(rows))


@dataclass(frozen=True)
class Query:
    key: str  # canonical key of the sampled family member
    g6: str  # the member under one seeded relabelling
    g6_other: str  # the member under a second relabelling
    degree_counts: tuple[int, ...]


def _degree_counts(key: str) -> tuple[int, ...]:
    """How many vertices of the graph have each degree 0 .. n-1."""
    g = graphs.from_graph6(key)
    counts = [0] * g.n
    for row in g.rows:
        counts[bin(row).count("1")] += 1
    return tuple(counts)


def _query(key: str, rng: random.Random) -> Query:
    perms = []
    for _ in range(2):
        perm = list(range(CENSUS_N))
        rng.shuffle(perm)
        perms.append(perm)
    return Query(key, relabel(key, perms[0]), relabel(key, perms[1]),
                 _degree_counts(key))


def strata(family: tuple[str, ...]) -> list[list[str]]:
    """The family cut into ``QUERY_STRATA`` equal blocks by the number of
    members that share a member's degree counts.

    ``reconstructions`` builds and compares the deck of every member whose
    edge count and degree-based screens match the query's, and those are
    about the members with its degree counts; their number, from 1 to 184,
    sets a query's cost.
    """
    counts = {key: _degree_counts(key) for key in family}
    shared = Counter(counts.values())
    ordered = sorted(family, key=lambda key: (shared[counts[key]], key))
    size = len(ordered) / QUERY_STRATA
    return [ordered[round(i * size):round((i + 1) * size)]
            for i in range(QUERY_STRATA)]


def query_round(seed: int, number: int, family: tuple[str, ...]) -> list[Query]:
    """Round ``number`` of the seeded relabelled family members: one from
    every stratum, in seeded order, so that every round has about the same
    mix of cheap and dear queries."""
    rng = random.Random(f"{seed}/{number}")
    blocks = strata(family)
    rng.shuffle(blocks)
    return [_query(rng.choice(block), rng) for block in blocks]


@dataclass
class Op:
    kind: str
    seconds: float  # scaled to the nominal host speed once its unit ends
    ok: bool
    error: str
    start: float  # perf_counter() readings around the call
    end: float

    def scale(self) -> None:
        """Take out the gauge's own samples and scale to the nominal speed."""
        busy = GAUGE.busy(self.start, self.end)
        self.seconds = (self.seconds - busy) * GAUGE.scale(self.start, self.end)


@dataclass
class Unit:
    """One unit of a workload's work, with every operation it timed."""

    ops: list[Op] = field(default_factory=list)
    graphs: int = 0  # graphs the unit processed in its ``graph_kinds`` ops


def run_command(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    status = cli.dispatch(argv, out=out)
    return status, out.getvalue()


def _timed(unit: Unit, kind: str, label: str, call, check):
    """Run ``call()``, time it, record whether ``check`` finds its result
    right (an empty string), and return the result."""
    start = time.perf_counter()
    try:
        result = call()
        end = time.perf_counter()
        error = check(result)
    except Exception as exc:  # an uncaught error or unreadable output fails it
        unit.ops.append(Op(kind, 0.0, False, f"{label}: {exc!r}", start, start))
        return None
    unit.ops.append(Op(kind, end - start, not error, error, start, end))
    return result


def _timed_cli(unit: Unit, kind: str, argv: list[str], check) -> None:
    """Run one command, time it, and record whether its answer holds."""
    _timed(unit, kind, str(argv), lambda: run_command(argv),
           lambda out: f"{argv}: exit {out[0]}" if out[0] else check(out[1]))


def census_argv(command: str, k: int, cache_dir: Path, *extra: str) -> list[str]:
    """A ``classes``/``verify`` command over the n=8 family, TSV output."""
    return [command, "-n", str(CENSUS_N), "-k", str(k), *extra,
            "--format", "tsv", "--cache-dir", str(cache_dir)]


def _distinct_classes(tsv: str) -> int:
    return len({line.split("\t")[0] for line in tsv.splitlines()[1:]})


# ---------------------------------------------------------------------------
# enumerate: cold serial enumeration of all 7-vertex graphs, then rounds of
# cold enumerations of every smaller order and reloads of the stored family.


class Enumerate:
    name = "enumerate"
    # About seven cold n = 7 enumerations fit in a run, too few for a 90th
    # percentile, and ``wall_s`` and ``graphs_per_s`` cover them.  The
    # percentiles are taken over the cold enumerations of the orders in
    # SMALL_ORDERS, one of each per round, each after clearing the
    # canonical-key memo (the decode caches of ``decks`` stay warm).  With
    # five equally frequent orders the median falls among the n = 4
    # enumerations and the 90th percentile among the n = 6 ones, so each
    # reads the middle of one kind of operation.  The reloads' own 90th
    # percentile, the tail of a 0.12 ms file read, moved by a fifth between
    # runs of the same code.
    latency_kinds = ("small",)
    warm_kinds = ("warm",)
    wall_kinds = graph_kinds = ("cold",)
    min_processes = 1

    def __init__(self, seed: int, index: int, workdir: Path):
        pins = load_pins()
        self.sha256 = {int(n): fam["sha256"] for n, fam in pins["families"].items()}
        self.cache_dir = workdir / "cache"

    def check(self, n: int, family) -> str:
        if digest_lines(family.members) == self.sha256[n]:
            return ""
        return f"n={n} family differs"

    def run_unit(self) -> Unit:
        unit = Unit()
        family = _timed(unit, "cold", "enumerate",
                        lambda: census.enumerate_graphs(ENUMERATE_N),
                        lambda fam: self.check(ENUMERATE_N, fam))
        if family is None:
            return unit
        unit.graphs = len(family)
        census.CensusCache(self.cache_dir).store_family(family)
        # The reloads follow each round, so the warm samples spread over
        # the unit instead of its last fraction of a second.
        for _ in range(SMALL_ROUNDS):
            for n in SMALL_ORDERS:
                canon.clear_cache()
                _timed(unit, "small", f"enumerate n={n}",
                       lambda: census.enumerate_graphs(n),
                       lambda fam: self.check(n, fam))
            for _ in range(RELOADS_PER_ROUND):
                _timed(unit, "warm", "reload",
                       lambda: census.enumerate_graphs(
                           ENUMERATE_N, cache=census.CensusCache(self.cache_dir)),
                       lambda again: "" if again.members == family.members
                       else "reload differs")
        return unit


# ---------------------------------------------------------------------------
# classes: cold n=8 deck-class censuses for k = 4..7 (which write the class
# files), each followed by warm invariant checks that read them back.


class Classes:
    name = "classes"
    # The cold censuses are eight commands per run, too few for a 90th
    # percentile, and ``graphs_per_s`` covers them; the percentiles are
    # taken over the warm ``verify`` commands, 192 per run.
    latency_kinds = ("verify",)
    warm_kinds = ("verify",)
    wall_kinds = ("classes", "verify")
    graph_kinds = ("classes",)
    # One unit is a single ~20 s stretch of a host whose speed drifts;
    # two give each run two k = 7 censuses and twice the warm checks.
    min_processes = 2

    def __init__(self, seed: int, index: int, workdir: Path):
        self.pins = load_pins()
        family = load_family(self.pins)
        self.cache_dir = workdir / "cache"
        census.CensusCache(self.cache_dir).store_family(
            census.GraphFamily(CENSUS_N, family)
        )

    def check_classes(self, k: int, tsv: str) -> str:
        pin = self.pins["classes"][str(k)]
        if hashlib.sha256(tsv.encode()).hexdigest() != pin["tsv_sha256"]:
            return f"classes k={k}: tsv differs from the pinned digest"
        if _distinct_classes(tsv) != pin["classes"]:
            return f"classes k={k}: class count differs from {pin['classes']}"
        return ""

    def check_verify(self, k: int, invariant: str, tsv: str) -> str:
        pin = self.pins["verify"][str(k)][invariant]
        if hashlib.sha256(tsv.encode()).hexdigest() != pin["tsv_sha256"]:
            return f"verify k={k} {invariant}: tsv differs from the pinned digest"
        rows = [line.split("\t") for line in tsv.splitlines()[1:]]
        if len(rows) != pin["violations"]:
            return f"verify k={k} {invariant}: {len(rows)} != {pin['violations']}"
        pair = self.pins["paper_pair"]
        if (k, invariant) == (pair["k"], pair["invariant"]):
            if not any(row[:2] == pair["keys"] for row in rows):
                return f"verify k={k} {invariant}: paper pair {pair['keys']} missing"
        return ""

    def run_unit(self) -> Unit:
        unit = Unit(graphs=len(CLASS_CARD_SIZES) * self.pins["family_n8"]["count"])
        # Each card size's warm checks follow its cold census, so the warm
        # samples spread over the whole unit instead of its last seconds.
        for k in CLASS_CARD_SIZES:
            _timed_cli(unit, "classes", census_argv("classes", k, self.cache_dir),
                       lambda text: self.check_classes(k, text))
            for _ in range(WARM_VERIFY_ROUNDS):
                for invariant in INVARIANTS:
                    _timed_cli(
                        unit, "verify", census_argv("verify", k, self.cache_dir,
                                                    "--invariant", invariant),
                        lambda text, inv=invariant: self.check_verify(k, inv, text),
                    )
        return unit


# ---------------------------------------------------------------------------
# queries: one caller, closed loop, warm family cache, one round of inputs
# per process (see ``query_round``).  Each sampled graph is asked for its
# reconstructions at k = 4, 5, 6, its degree counts from the 5-deck, and a
# 5-deck comparison with a second relabelling.


class Queries:
    name = "queries"
    # The median of all five commands would fall in the gap between the
    # fast deck-only commands and the family scans, and swing with the
    # sample; each population gets its own figure instead.
    latency_kinds = ("reconstructions",)
    warm_kinds = ("degrees", "compare")  # answered from the warm key memo
    wall_kinds = graph_kinds = ("reconstructions", "degrees", "compare")
    min_processes = 1

    def __init__(self, seed: int, index: int, workdir: Path):
        pins = load_pins()
        family = load_family(pins)
        self.cache_dir = workdir / "cache"
        census.CensusCache(self.cache_dir).store_family(
            census.GraphFamily(CENSUS_N, family)
        )
        self.shared = {
            int(k): {key: set(cls) for cls in classes for key in cls}
            for k, classes in pins["shared_decks"].items()
        }
        # One untimed query, the same for every seed, fills the decode caches.
        warmup = Unit()
        fixed = _query(family[len(family) // 2], random.Random(0))
        self._reconstructions(warmup, fixed, DEGREE_CARD_SIZE)
        if not warmup.ops[0].ok:
            raise RuntimeError(f"warm-up query failed: {warmup.ops[0].error}")
        self.round = query_round(seed, index, family)

    def expected(self, key: str, k: int) -> set[str]:
        return self.shared.get(k, {}).get(key, {key})

    def check_reconstructions(self, q: Query, k: int, text: str) -> str:
        found = text.splitlines()[1:]
        if q.key not in found:
            return f"reconstructions k={k} of {q.g6}: {q.key} missing"
        want = self.expected(q.key, k)
        if len(found) != len(want) or set(found) != want:
            return f"reconstructions k={k} of {q.g6}: {found} != {sorted(want)}"
        return ""

    @staticmethod
    def check_degrees(q: Query, text: str) -> str:
        counts = text.strip().split("counts=(", 1)[-1].rstrip(")")
        got = tuple(int(c) for c in counts.split(","))
        return "" if got == q.degree_counts else f"degrees of {q.g6}: {got}"

    def _reconstructions(self, unit: Unit, q: Query, k: int) -> None:
        _timed_cli(unit, "reconstructions",
                   ["reconstructions", "--g6", q.g6, "-k", str(k),
                    "--cache-dir", str(self.cache_dir)],
                   lambda text: self.check_reconstructions(q, k, text))

    def run_unit(self) -> Unit:
        unit = Unit(graphs=len(self.round))
        for q in self.round:
            for k in QUERY_CARD_SIZES:
                self._reconstructions(unit, q, k)
            high = ",".join(f"{i}={q.degree_counts[i]}"
                            for i in range(DEGREE_CARD_SIZE, CENSUS_N))
            _timed_cli(unit, "degrees",
                       ["degrees", "--g6", q.g6, "-k", str(DEGREE_CARD_SIZE),
                        "--high", high],
                       lambda text: self.check_degrees(q, text))
            _timed_cli(unit, "compare",
                       ["compare", "--g6a", q.g6, "--g6b", q.g6_other,
                        "-k", str(COMPARE_CARD_SIZE)],
                       lambda text: "" if text == "EQUAL\n" else f"compare: {text!r}")
        return unit


WORKLOADS = {w.name: w for w in (Enumerate, Classes, Queries)}
