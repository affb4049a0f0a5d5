"""Degree-counting identities over decks and their consequences.

The central identity expresses the deck-side degree-occurrence total
phi(j) through the graph-side degree counts a_i:

    phi(j) = sum_{i=j}^{j+l} a_i * C(i, j) * C(n-1-i, k-1-j),   l = n - k

with the convention C(p, q) = 0 whenever q < 0 or q > p.  The cutoff is
load-bearing: a vertex of degree i > l + j has too few non-neighbors to
appear with degree exactly j on any card.  ``_phi_columns`` is the one
table of these coefficients; every phi here, and the census's phi
index, is a dot product with one of its columns.  Back-substituting
from j = k-1 down to 0 recovers the full degree count vector from a
deck once the counts of degrees >= k are supplied.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Mapping, Sequence

from .decks import Deck, phi_vector
from .graphs import Graph, degree_counts


class InconsistentCountsError(ValueError):
    """The deck is not realizable under the supplied high-degree counts."""


def _check_ranges(n: int, k: int, j: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"card size {k} out of range for n={n}")
    if not 0 <= j <= k - 1:
        raise ValueError(f"degree {j} out of range for card size {k}")


@lru_cache(maxsize=None)
def _phi_columns(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The identity's coefficients for n-vertex graphs and k-decks: entry
    i of column j < k is C(i, j) * C(n-1-i, k-1-j), what one vertex of
    degree i adds to phi(j); it is zero outside i in [j, j + n - k]."""
    return tuple(
        tuple(math.comb(i, j) * math.comb(n - 1 - i, k - 1 - j) for i in range(n))
        for j in range(k)
    )


def _phi_of_counts(counts: Sequence[int], k: int) -> tuple[int, ...]:
    """The phi vector of the k-deck of any graph with degree counts
    ``counts``: phi(j) is column j of ``_phi_columns`` dotted with them."""
    return tuple(sum(map(mul, counts, col)) for col in _phi_columns(len(counts), k))


def phi_formula(counts: Sequence[int], n: int, k: int, j: int) -> int:
    """Formula-side phi(j) evaluated from degree counts a_0..a_{n-1}."""
    _check_ranges(n, k, j)
    if len(counts) != n:
        raise ValueError(f"expected {n} degree counts, got {len(counts)}")
    if any(c < 0 for c in counts) or sum(counts) != n:
        raise ValueError(f"degree counts {tuple(counts)} do not describe {n} vertices")
    return sum(map(mul, counts, _phi_columns(n, k)[j]))


def reconstruct_degree_list(
    deck: Deck, high_counts: Mapping[int, int]
) -> tuple[int, ...]:
    """Recover the degree count vector of a deck's realizations, which
    have the deck's origin order n.

    ``high_counts`` must give a_i for every i in [k, n-1]; the low
    counts are then forced one at a time by solving the counting
    identity for a_j, descending from j = k-1.  The result is the unique
    vector consistent with the deck *under those high counts*; different
    consistent high counts can yield different (equally valid) answers.

    Raises :class:`InconsistentCountsError` when any solved count comes
    out negative or fractional, or the final vector is not a degree
    count vector of an n-vertex graph: its counts do not sum to n, or
    the degree list they give fails the Erdős–Gallai test.  No graph
    with those high counts then realizes the deck, since any such graph
    would be the unique solution.
    """
    k, n = deck.card_size, deck.origin_order
    missing = [i for i in range(k, n) if i not in high_counts]
    if missing:
        raise ValueError(f"high_counts missing degrees {missing}")
    stray = [i for i in high_counts if not k <= i < n]
    if stray:
        raise ValueError(f"high_counts has degrees {stray} outside [{k}, {n - 1}]")
    if any(high_counts[i] < 0 for i in range(k, n)):
        raise ValueError("high-degree counts must be nonnegative")

    phi = phi_vector(deck)
    columns = _phi_columns(n, k)
    counts = [0] * k + [high_counts[i] for i in range(k, n)]
    for j in range(k - 1, -1, -1):
        # counts[:j + 1] are still zero: subtract what degrees above j add
        remainder = phi[j] - sum(map(mul, counts, columns[j]))
        coeff = columns[j][j]
        if remainder < 0 or remainder % coeff:
            raise InconsistentCountsError(
                f"inconsistent high-degree counts: solving for the count of "
                f"degree-{j} vertices gives {remainder}/{coeff}"
            )
        counts[j] = remainder // coeff
    if sum(counts) != n:
        raise InconsistentCountsError(
            f"inconsistent high-degree counts: solved vector {tuple(counts)} "
            f"is not a degree count vector on {n} vertices"
        )
    degrees = counts_to_degree_list(counts)
    if not _is_graphical(degrees):  # this also checks the parity of the sum
        raise InconsistentCountsError(
            "no graph realizes this deck with these high-degree counts: "
            f"the solved degree list ({','.join(map(str, degrees))}) is not "
            "graphical (Erdos-Gallai)"
        )
    return tuple(counts)


def _is_graphical(degrees: Sequence[int]) -> bool:
    """Whether a nonincreasing list of degrees is some graph's (Erdős and
    Gallai, 1960): its sum is even, and for every r the r largest
    degrees sum to at most r(r-1) + sum_{i>r} min(d_i, r).

    Once d_r < r, every later d_i is below i as well, and step i adds
    2(i - 1 - d_i) >= 0 to the slack of the inequality, so the check
    stops at the first such r."""
    if sum(degrees) % 2:
        return False
    head = 0
    for r, d in enumerate(degrees, 1):
        if d < r:
            return True
        head += d
        if head > r * (r - 1) + sum(min(rest, r) for rest in degrees[r:]):
            return False
    return True


def counts_to_degree_list(counts: Sequence[int]) -> tuple[int, ...]:
    """Degree count vector -> nonincreasing degree list."""
    out: list[int] = []
    for i in range(len(counts) - 1, -1, -1):
        out.extend([i] * counts[i])
    return tuple(out)


def deck_difference(g: Graph, h: Graph) -> tuple[int, ...]:
    """Componentwise degree-count difference c_i between two graphs."""
    if g.n != h.n:
        raise ValueError(f"orders differ: {g.n} vs {h.n}")
    a = degree_counts(g)
    b = degree_counts(h)
    return tuple(x - y for x, y in zip(a, b))


def phi_diff_residual(diffs: Sequence[int], n: int, k: int, j: int) -> int:
    """Signed residual of the differenced counting identity.

    Zero for every valid j whenever the two graphs behind ``diffs``
    share a k-deck.
    """
    _check_ranges(n, k, j)
    if len(diffs) != n:
        raise ValueError(f"expected {n} difference entries, got {len(diffs)}")
    return sum(map(mul, diffs, _phi_columns(n, k)[j]))


def degree_list_threshold(l: int) -> float:
    """Order bound g(l) above which the degree list is determined by the
    deck of cards missing l vertices.

    Only defined for l >= 3, where the denominator (l-1)*log(l) - 1 is
    positive.  This is the lone floating-point computation in the
    package.
    """
    if l < 3:
        raise ValueError(f"threshold needs l >= 3, got {l}")
    log_l = math.log(l)
    e = math.e
    return (l + log_l + 1) * (e + (e * log_l + e + 1) / ((l - 1) * log_l - 1)) + 1
