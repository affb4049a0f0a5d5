"""Command-line surface.

Exit status: 0 on success, 1 on domain errors (bad graph6, unrealizable
deck, inconsistent counts, ...), 2 on usage errors.  Output is
deterministic: identical invocations produce identical bytes, warm or
cold cache alike.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import census, counting, decks, graphs
from .canon import canonical_key

DEFAULT_CACHE_DIR = "./census-cache"


def _load_graphs(args, suffix: str = "") -> list[graphs.Graph]:
    """The graphs a command names: one from ``--g6``/``--named`` (with
    ``suffix``), or every graph in ``deck --file``."""
    g6 = getattr(args, f"g6{suffix}")
    named = getattr(args, f"named{suffix}")
    if g6 is not None:
        return [graphs.from_graph6(g6)]
    if named is not None:
        return [graphs.named_graph(named)]
    found = graphs.read_graph6_lines(Path(args.file).read_text())
    if not found:
        raise ValueError(f"no graphs found in {args.file}")
    return found


def _int_in(text: str, low: int, high: int | None = None) -> int:
    """An int option value in [low, high], or at least ``low`` when
    ``high`` is None; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
    return value


def _jobs(text: str) -> int:
    """``--jobs`` value: a worker count in [1, number of CPUs]."""
    return _int_in(text, 1, os.cpu_count() or 1)


def _deck_from_args(args, parser: argparse.ArgumentParser) -> decks.Deck:
    if args.deck is not None:
        if args.k is not None:
            parser.error("-k cannot be used with --deck: the deck file's header gives k")
        return decks.parse_deck(Path(args.deck).read_text())
    if args.k is None:
        parser.error("-k is required with --g6/--named input")
    [g] = _load_graphs(args)
    return decks.compute_deck(g, args.k)


def _run_deck(args, parser, out) -> None:
    multi = args.file is not None
    for g in _load_graphs(args):
        deck = decks.compute_deck(g, args.k)
        if multi:
            out.write(f"# {graphs.to_graph6(g)}\n")
        if args.format == "tsv":
            out.write(decks.entry_text(deck.entries) + "\n")
        else:
            out.write(
                f"n={deck.origin_order} k={deck.card_size} "
                f"cards={sum(deck.entries.values())} classes={len(deck.entries)}\n"
            )


def _run_compare(args, parser, out) -> None:
    [a] = _load_graphs(args, "a")
    [b] = _load_graphs(args, "b")
    equal = decks.deck_equal(decks.compute_deck(a, args.k), decks.compute_deck(b, args.k))
    out.write("EQUAL\n" if equal else "DIFFER\n")


def _run_subdeck(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    for _ in range(args.steps):
        deck = decks.derive_subdeck(deck)
    out.write(decks.serialize_deck(deck))


def _parse_high(text: str, k: int, n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    if text.strip():
        for item in text.split(","):
            degree_text, _, value_text = item.partition("=")
            try:
                degree, value = int(degree_text), int(value_text)
            except ValueError:
                raise ValueError(f"bad --high item {item!r}; expected I=A") from None
            if not k <= degree < n:
                raise ValueError(f"--high degree {degree} outside [{k}, {n - 1}]")
            if degree in counts:
                raise ValueError(f"--high degree {degree} given twice")
            counts[degree] = value
    missing = [i for i in range(k, n) if i not in counts]
    if missing:
        raise ValueError(f"--high lacks the counts of degrees {missing}; "
                         f"give one for every degree in [{k}, {n - 1}]")
    return counts


def _run_degrees(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    high = _parse_high(args.high, deck.card_size, deck.origin_order)
    counts = counting.reconstruct_degree_list(deck, high)
    if args.format == "tsv":
        out.write("degree\tcount\n")
        for i, c in enumerate(counts):
            out.write(f"{i}\t{c}\n")
    else:
        degree_text = ",".join(map(str, counting.counts_to_degree_list(counts)))
        counts_text = ",".join(map(str, counts))
        out.write(f"degrees=({degree_text}) counts=({counts_text})\n")


def _run_phi(args, parser, out) -> None:
    [g] = _load_graphs(args)
    deck = decks.compute_deck(g, args.k)
    totals = decks.phi_vector(deck)
    if args.format == "tsv":
        out.write("j\tphi\n")
        for j, value in enumerate(totals):
            out.write(f"{j}\t{value}\n")
    else:
        out.write("phi=(" + ",".join(map(str, totals)) + ")\n")


def _run_census(args, parser, out) -> None:
    """``classes``, and ``verify``, which checks an invariant on its classes.
    Only ``classes --format tsv`` prints member lines; every other form
    reads the shared classes alone."""
    cache = census.CensusCache(args.cache_dir)
    family = census.enumerate_graphs(args.n, jobs=args.jobs, cache=cache)
    member_lines = args.command == "classes" and args.format == "tsv"
    partition = census.deck_classes if member_lines else census.shared_classes
    report = partition(family, args.k, jobs=args.jobs, cache=cache)
    if args.command == "classes":
        out.write(census.emit_report(report, args.format))
    elif args.format == "tsv":
        rows = [f"{v.key_a}\t{v.key_b}\t{v.witness}\n"
                for v in census.verify_invariant(report, args.invariant)]
        out.write("key_a\tkey_b\twitness\n" + "".join(rows))
    else:
        # counted per class, so a class of thousands lists no pairs
        count = census.count_violations(report, args.invariant)
        out.write(census.summary_line(report, count))


def _run_reconstructions(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    n = deck.origin_order
    family = census.enumerate_graphs(
        n, jobs=args.jobs, cache=census.CensusCache(args.cache_dir)
    )
    keys = census.find_reconstructions(deck, family)
    if args.format == "summary":
        out.write(f"n={n} k={deck.card_size} reconstructions={len(keys)}\n")
    for key in keys:
        out.write(key + "\n")


def _run_rho(args, parser, out) -> None:
    [g] = _load_graphs(args)
    family = census.enumerate_graphs(g.n, cache=census.CensusCache(args.cache_dir))
    out.write(f"{census.reconstructibility_number(g, family)}\n")


def _run_pairs(args, parser, out) -> None:
    for g, h, k in census.known_pairs(args.l):
        out.write(f"{canonical_key(g)}\t{canonical_key(h)}\t{k}\tEQUAL\n")


def _run_threshold(args, parser, out) -> None:
    out.write(f"{counting.degree_list_threshold(args.l):.12g}\n")


# Shared argument specs.  A spec is (option string, add_argument keywords);
# in a command's arguments, a list of specs is a required choice of
# exactly one of them.
_G6 = {"metavar": "TEXT", "help": "graph as graph6 text"}
_NAMED = {"metavar": "SPEC",
          "help": "named builder spec, e.g. cycle5+empty1, path6, claw2"}
_GRAPH = [("--g6", _G6), ("--named", _NAMED)]
_DECK_INPUT = (
    [*_GRAPH, ("--deck", {"metavar": "PATH", "help": "deck file "
                          "(header 'k=<k> n=<n>', then key<TAB>mult)"})],
    ("-k", {"type": int, "help": "card size of the source deck "
            "(required with --g6/--named; a deck file's header gives k)"}),
)
_K = ("-k", {"type": int, "required": True, "help": "card size"})
_FORMAT = ("--format", {"choices": ("summary", "tsv"), "default": "summary",
                        "help": "output style (default: summary)"})
_CACHE_DIR = ("--cache-dir", {"default": DEFAULT_CACHE_DIR, "metavar": "DIR",
                              "help": "census cache directory "
                              "(default: ./census-cache)"})
_JOBS = ("--jobs", {"type": _jobs, "default": 1, "metavar": "N",
                    "help": "worker processes, at most the number of CPUs; "
                    "results are identical for any N"})
_CENSUS_ORDER = (
    ("-n", {"type": functools.partial(_int_in, low=1, high=census.MAX_CENSUS_ORDER),
            "required": True,
            "help": f"graph order in [1, {census.MAX_CENSUS_ORDER}]; the first "
            f"n=9 run enumerates all {census.GRAPH_COUNTS[-1]} graphs (minutes), "
            "later runs read the cache"}),
    _K,
)

# One row per subcommand: (name, handler, help, arguments).
_COMMANDS = (
    ("deck", _run_deck, "compute the k-deck of a graph", (
        [*_GRAPH, ("--file", {"metavar": "PATH",
                              "help": "file with one graph6 per line"})],
        _K, _FORMAT)),
    ("compare", _run_compare, "test whether two graphs share a k-deck", (
        [("--g6a", _G6), ("--nameda", _NAMED)],
        [("--g6b", _G6), ("--namedb", _NAMED)], _K)),
    ("subdeck", _run_subdeck, "derive the (k-1)-deck from a k-deck", (
        *_DECK_INPUT,
        ("--steps", {"type": functools.partial(_int_in, low=1), "default": 1,
                     "help": "how many derivation steps (default: 1)"}))),
    ("degrees", _run_degrees, "recover a degree list from a k-deck", (
        *_DECK_INPUT,
        ("--high", {"metavar": "I=A,...", "default": "",
                    "help": "the count of every degree in [k, n-1], "
                    "e.g. '3=1,4=0,5=0' for k=3, n=6"}),
        _FORMAT)),
    ("phi", _run_phi, "degree-occurrence totals of a k-deck", (_GRAPH, _K, _FORMAT)),
    ("classes", _run_census, "partition all n-vertex graphs by k-deck",
     (*_CENSUS_ORDER, _CACHE_DIR, _JOBS, _FORMAT)),
    ("verify", _run_census, "check an invariant across deck classes", (
        *_CENSUS_ORDER,
        ("--invariant", {"required": True, "choices": census.INVARIANTS}),
        _CACHE_DIR, _JOBS, _FORMAT)),
    ("reconstructions", _run_reconstructions,
     "all graphs of the deck's order realizing a deck",
     (*_DECK_INPUT, _CACHE_DIR, _JOBS, _FORMAT)),
    ("rho", _run_rho, "reconstructibility number of a graph",
     (_GRAPH, _CACHE_DIR)),
    ("pairs", _run_pairs, "known deck-equal pairs for a card size l", (
        ("-l", {"type": functools.partial(_int_in, low=2, high=4), "required": True,
                "help": "card size of the shared deck (2..4)"}),)),
    ("threshold", _run_threshold, "degree-list recovery order threshold g(l)", (
        ("-l", {"type": functools.partial(_int_in, low=3), "required": True,
                "help": "deleted-vertex count (>= 3)"}),)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parsing reads it and
    never changes it, and ``--jobs`` checks the CPU count as it parses."""
    parser = argparse.ArgumentParser(
        prog="deckcensus",
        description="k-decks of small graphs, degree-list recovery, and "
        "exhaustive deck censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(run=run)
        for spec in arguments:
            if isinstance(spec, list):
                group = command.add_mutually_exclusive_group(required=True)
                for flag, options in spec:
                    group.add_argument(flag, **options)
            else:
                command.add_argument(spec[0], **spec[1])
    return parser


def dispatch(argv: list[str] | None = None, out=None) -> int:
    """Parse ``argv`` and run the mapped operation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        args.run(args, parser, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
