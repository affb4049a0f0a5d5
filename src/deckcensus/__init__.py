"""Exact k-deck machinery for small graphs, with exhaustive censuses.

The package computes decks of induced k-vertex cards, recovers degree
lists from decks through exact counting identities, and verifies
deck-determined invariants (degree list, connectedness, isomorphism)
over every n-vertex graph at desk scale.
"""

from .canon import canonical_key
from .census import (
    CensusCache,
    ClassReport,
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
from .counting import (
    InconsistentCountsError,
    counts_to_degree_list,
    deck_difference,
    degree_list_threshold,
    phi_diff_residual,
    phi_formula,
    reconstruct_degree_list,
)
from .decks import (
    Deck,
    UnrealizableDeckError,
    compute_deck,
    connected_card_count,
    deck_equal,
    derive_subdeck,
    edge_count_from_deck,
    parse_deck,
    phi_vector,
    serialize_deck,
)
from .graphs import (
    Graph,
    Graph6Error,
    claw_subdivided,
    complete_graph,
    cycle_graph,
    degree_counts,
    degree_list,
    disjoint_union,
    empty_graph,
    from_graph6,
    is_connected,
    named_graph,
    path_graph,
    read_graph6_lines,
    to_graph6,
)

__version__ = "0.1.0"
