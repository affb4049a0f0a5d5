"""Command-line surface.

Exit status: 0 on success, 1 on domain errors (bad graph6, unrealizable
deck, inconsistent counts, ...), 2 on usage errors.  Output is
deterministic: identical invocations produce identical bytes, warm or
cold cache alike.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import census, counting, decks, graphs
from .canon import canonical_key

DEFAULT_CACHE_DIR = "./census-cache"


def _graph_source(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--g6{suffix}", metavar="TEXT", help="graph as graph6 text")
    group.add_argument(
        f"--named{suffix}",
        metavar="SPEC",
        help="named builder spec, e.g. cycle5+empty1, path6, claw2",
    )
    if not suffix:
        group.add_argument(
            "--file", metavar="PATH", help="file with one graph6 per line"
        )


def _load_graphs(args, suffix: str = "") -> list[graphs.Graph]:
    g6 = getattr(args, f"g6{suffix}")
    named = getattr(args, f"named{suffix}")
    if g6 is not None:
        return [graphs.from_graph6(g6)]
    if named is not None:
        return [graphs.named_graph(named)]
    text = Path(args.file).read_text()
    found = graphs.read_graph6_lines(text)
    if not found:
        raise ValueError(f"no graphs found in {args.file}")
    return found


def _load_one(args, suffix: str = "") -> graphs.Graph:
    found = _load_graphs(args, suffix)
    if len(found) != 1:
        raise ValueError(f"expected exactly one graph, got {len(found)}")
    return found[0]


def _jobs(text: str) -> int:
    """``--jobs`` value: a worker count in [1, number of CPUs]."""
    ceiling = os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= jobs <= ceiling:
        raise argparse.ArgumentTypeError(f"must be in [1, {ceiling}], got {jobs}")
    return jobs


def _census_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="census cache directory (default: ./census-cache)")
    parser.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                        help="worker processes, at most the number of CPUs; "
                        "results are identical for any N")
    parser.add_argument("--enable-n9", action="store_true",
                        help="allow the n=9 census (large; minutes to hours)")


def _format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("summary", "tsv"), default="summary",
                        help="output style (default: summary)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deckcensus",
        description="k-decks of small graphs, degree-list recovery, and "
        "exhaustive deck censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deck", help="compute the k-deck of a graph")
    _graph_source(p)
    p.add_argument("-k", type=int, required=True, help="card size")
    _format_arg(p)

    p = sub.add_parser("compare", help="test whether two graphs share a k-deck")
    _graph_source(p, "a")
    _graph_source(p, "b")
    p.add_argument("-k", type=int, required=True, help="card size")

    p = sub.add_parser("subdeck", help="derive the (k-1)-deck from a k-deck")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--g6", metavar="TEXT", help="graph as graph6 text")
    group.add_argument("--named", metavar="SPEC", help="named builder spec")
    group.add_argument("--deck", metavar="PATH",
                       help="deck file (header 'k=<k> n=<n>', then key<TAB>mult)")
    p.add_argument("-k", type=int, help="card size of the source deck "
                   "(required with --g6/--named)")
    p.add_argument("--steps", type=int, default=1,
                   help="how many derivation steps (default: 1)")

    p = sub.add_parser("degrees", help="recover a degree list from a k-deck")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--g6", metavar="TEXT", help="graph as graph6 text")
    group.add_argument("--named", metavar="SPEC", help="named builder spec")
    group.add_argument("--deck", metavar="PATH", help="deck file")
    p.add_argument("-k", type=int, help="card size (required with --g6/--named)")
    p.add_argument("--high", metavar="I=A,...", default="",
                   help="counts of degrees >= k, e.g. '3=1,4=0,5=0'; "
                   "omitted degrees default to 0")
    _format_arg(p)

    p = sub.add_parser("phi", help="degree-occurrence totals of a k-deck")
    _graph_source(p)
    p.add_argument("-k", type=int, required=True, help="card size")
    _format_arg(p)

    p = sub.add_parser("classes", help="partition all n-vertex graphs by k-deck")
    p.add_argument("-n", type=int, required=True, help="graph order (<= 8, or 9 "
                   "with --enable-n9)")
    p.add_argument("-k", type=int, required=True, help="card size")
    _census_args(p)
    _format_arg(p)

    p = sub.add_parser("verify", help="check an invariant across deck classes")
    p.add_argument("-n", type=int, required=True, help="graph order")
    p.add_argument("-k", type=int, required=True, help="card size")
    p.add_argument("--invariant", required=True, choices=census.INVARIANTS)
    _census_args(p)
    _format_arg(p)

    p = sub.add_parser("reconstructions",
                       help="all n-vertex graphs realizing a deck")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--g6", metavar="TEXT", help="graph as graph6 text")
    group.add_argument("--named", metavar="SPEC", help="named builder spec")
    group.add_argument("--deck", metavar="PATH", help="deck file")
    p.add_argument("-k", type=int, help="card size (required with --g6/--named)")
    p.add_argument("-n", type=int, help="order of the sought graphs "
                   "(defaults to the deck's origin order)")
    _census_args(p)
    _format_arg(p)

    p = sub.add_parser("rho", help="reconstructibility number of a graph")
    _graph_source(p)
    _census_args(p)

    p = sub.add_parser("pairs", help="known deck-equal pairs for a parameter l")
    p.add_argument("-l", type=int, required=True, help="deleted-vertex count "
                   "(2..4)")
    p.add_argument("--claw-pairs", action="store_true",
                   help="include the subdivided-claw pairs even when l != 3")

    p = sub.add_parser("threshold",
                       help="degree-list recovery order threshold g(l)")
    p.add_argument("-l", type=int, required=True, help="deleted-vertex count "
                   "(>= 3)")
    return parser


def _deck_from_args(args, parser: argparse.ArgumentParser) -> decks.Deck:
    if getattr(args, "deck", None) is not None:
        return decks.parse_deck(Path(args.deck).read_text())
    if args.k is None:
        parser.error("-k is required with --g6/--named input")
    g = _load_one(args)
    return decks.compute_deck(g, args.k)


def _guard_order(n: int, args, parser: argparse.ArgumentParser) -> None:
    ceiling = census.MAX_CENSUS_ORDER if args.enable_n9 else census.DEFAULT_CENSUS_CEILING
    if not 1 <= n <= ceiling:
        parser.error(
            f"-n must be in [1, {ceiling}]"
            + ("" if args.enable_n9 else " (pass --enable-n9 to go to 9)")
        )


def _cache(args) -> census.CensusCache:
    return census.CensusCache(args.cache_dir)


def _run_deck(args, out) -> None:
    multi = getattr(args, "file", None) is not None
    for g in _load_graphs(args):
        deck = decks.compute_deck(g, args.k)
        if multi:
            out.write(f"# {graphs.to_graph6(g)}\n")
        if args.format == "tsv":
            for key, mult in deck.sorted_entries():
                out.write(f"{key}\t{mult}\n")
        else:
            out.write(
                f"n={deck.origin_order} k={deck.card_size} "
                f"cards={sum(deck.entries.values())} classes={len(deck.entries)}\n"
            )


def _run_compare(args, out) -> None:
    a = _load_one(args, "a")
    b = _load_one(args, "b")
    equal = decks.deck_equal(decks.compute_deck(a, args.k), decks.compute_deck(b, args.k))
    out.write("EQUAL\n" if equal else "DIFFER\n")


def _run_subdeck(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    for _ in range(args.steps):
        deck = decks.derive_subdeck(deck)
    out.write(decks.serialize_deck(deck))


def _parse_high(text: str, k: int, n: int) -> dict[int, int]:
    counts = {i: 0 for i in range(k, n)}
    if text.strip():
        for item in text.split(","):
            degree_text, _, value_text = item.partition("=")
            try:
                degree, value = int(degree_text), int(value_text)
            except ValueError:
                raise ValueError(f"bad --high item {item!r}; expected I=A") from None
            if degree not in counts:
                raise ValueError(
                    f"--high degree {degree} outside [{k}, {n - 1}]"
                )
            counts[degree] = value
    return counts


def _run_degrees(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    n = deck.origin_order
    high = _parse_high(args.high, deck.card_size, n)
    counts = counting.reconstruct_degree_list(deck, n, high)
    if args.format == "tsv":
        out.write("degree\tcount\n")
        for i, c in enumerate(counts):
            out.write(f"{i}\t{c}\n")
    else:
        degree_text = ",".join(map(str, counting.counts_to_degree_list(counts)))
        counts_text = ",".join(map(str, counts))
        out.write(f"degrees=({degree_text}) counts=({counts_text})\n")


def _run_phi(args, out) -> None:
    g = _load_one(args)
    deck = decks.compute_deck(g, args.k)
    totals = decks.phi_vector(deck)
    if args.format == "tsv":
        out.write("j\tphi\n")
        for j, value in enumerate(totals):
            out.write(f"{j}\t{value}\n")
    else:
        out.write("phi=(" + ",".join(map(str, totals)) + ")\n")


def _run_classes(args, parser, out) -> None:
    _guard_order(args.n, args, parser)
    family = census.enumerate_graphs(args.n, jobs=args.jobs, cache=_cache(args))
    report = census.deck_classes(family, args.k, jobs=args.jobs, cache=_cache(args))
    out.write(census.emit_report(report, args.format))


def _run_verify(args, parser, out) -> None:
    _guard_order(args.n, args, parser)
    family = census.enumerate_graphs(args.n, jobs=args.jobs, cache=_cache(args))
    report = census.deck_classes(family, args.k, jobs=args.jobs, cache=_cache(args))
    checked = census.verify_invariant(report, args.invariant)
    out.write(census.emit_report(checked, args.format))


def _run_reconstructions(args, parser, out) -> None:
    deck = _deck_from_args(args, parser)
    n = args.n if args.n is not None else deck.origin_order
    _guard_order(n, args, parser)
    if n > census.DEFAULT_CENSUS_CEILING:
        parser.error("realization search is capped at n=8")
    keys = census.find_reconstructions(
        deck, n, jobs=args.jobs, cache=_cache(args)
    )
    if args.format == "summary":
        out.write(f"n={n} k={deck.card_size} reconstructions={len(keys)}\n")
    for key in keys:
        out.write(key + "\n")


def _run_rho(args, parser, out) -> None:
    g = _load_one(args)
    _guard_order(g.n, args, parser)
    if g.n > census.DEFAULT_CENSUS_CEILING:
        parser.error("reconstructibility is capped at n=8")
    out.write(f"{census.reconstructibility_number(g, cache=_cache(args))}\n")


def _run_pairs(args, out) -> None:
    include = True if args.claw_pairs else None
    for g, h, k in census.known_pairs(args.l, include_claw_pairs=include):
        out.write(f"{canonical_key(g)}\t{canonical_key(h)}\t{k}\tEQUAL\n")


def _run_threshold(args, out) -> None:
    out.write(f"{counting.degree_list_threshold(args.l):.12g}\n")


def dispatch(argv: list[str] | None = None, out=None) -> int:
    """Parse ``argv`` and run the mapped operation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        if args.command == "deck":
            _run_deck(args, out)
        elif args.command == "compare":
            _run_compare(args, out)
        elif args.command == "subdeck":
            _run_subdeck(args, parser, out)
        elif args.command == "degrees":
            _run_degrees(args, parser, out)
        elif args.command == "phi":
            _run_phi(args, out)
        elif args.command == "classes":
            _run_classes(args, parser, out)
        elif args.command == "verify":
            _run_verify(args, parser, out)
        elif args.command == "reconstructions":
            _run_reconstructions(args, parser, out)
        elif args.command == "rho":
            _run_rho(args, parser, out)
        elif args.command == "pairs":
            _run_pairs(args, out)
        elif args.command == "threshold":
            _run_threshold(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
