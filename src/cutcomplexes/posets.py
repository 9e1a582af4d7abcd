"""Composition posets and their order complexes.

C(d, k) is the set of ordered k-tuples of positive integers summing to d
(|C(d, k)| = C(d-1, k-1)).  For m > k the composition poset collects the
compositions of k+1, ..., m into k parts under the coordinatewise order; the
augmented variant adds the bottom tuple (1, ..., 1).  At m = d + k - 1 the
order complex is contractible for k <= d - 1 and a wedge of C(k-1, d-1)
spheres S^(d-2) for k >= d (``expected_order_complex_claim``); the ``poset``
verification suite checks this by computing exact homology.

A poset's elements and its maximal-chain search each spend the 2^cap work
budget of ``limits.budget`` (the cap comes from ``CUTCOMPLEXES_MAX_GROUND``):
an oversized poset is refused before its elements are listed, and an
oversized order complex as soon as its chain search goes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex
from .homology import WedgeClaim
from .limits import budget


def compositions(d, k):
    """All ordered k-tuples of positive integers summing to d, lexicographic."""
    if k < 1 or k > d:
        raise ValueError(f"compositions need 1 <= k <= d, got d={d}, k={k}")
    out = []

    def rec(prefix, remaining, parts_left):
        if parts_left == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - parts_left + 2):
            rec(prefix + (first,), remaining - first, parts_left - 1)

    rec((), d, k)
    return out


@dataclass(frozen=True)
class CompositionPoset:
    """Compositions of k+1..m into k parts under the coordinatewise order."""

    m: int
    k: int
    elements: tuple
    augmented: bool = False

    @staticmethod
    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    def __len__(self):
        return len(self.elements)


def composition_poset(m, k, augmented=False):
    """The poset of compositions of k+1..m into k parts; its C(m, k) - 1
    elements (one more when augmented) are spent up front against the 2^cap
    budget."""
    if m <= k:
        raise ValueError(f"composition poset needs m > k, got m={m}, k={k}")
    budget(f"composition poset of {m} into {k} parts")(comb(m, k) - 1 + int(augmented))
    elements = []
    for total in range(k + 1, m + 1):
        elements.extend(compositions(total, k))
    if augmented:
        elements.append((1,) * k)
    return CompositionPoset(m, k, tuple(sorted(elements)), augmented)


def _cover_relation(poset):
    """covers[i] = indices j such that element j covers element i, ascending.

    b covers a exactly when b is a with one part raised by 1: for a < b,
    raising a part with a_i < b_i gives an element c with a < c <= b.
    """
    index = {a: i for i, a in enumerate(poset.elements)}
    covers = []
    for a in poset.elements:
        raised = (a[:p] + (a[p] + 1,) + a[p + 1:] for p in range(len(a)))
        covers.append(sorted(index[b] for b in raised if b in index))
    return covers


def maximal_chains(poset):
    """All inclusion-maximal chains, as index tuples (ascending); each node
    of the search counts one unit against the 2^cap budget."""
    n = len(poset.elements)
    spend = budget(f"maximal chain search over {n} poset elements")
    covers = _cover_relation(poset)
    has_lower = [False] * n
    for i in range(n):
        for j in covers[i]:
            has_lower[j] = True
    chains = []

    def walk(chain, i):
        spend()
        if not covers[i]:
            chains.append(tuple(chain))
            return
        for j in covers[i]:
            chain.append(j)
            walk(chain, j)
            chain.pop()

    for i in range(n):
        if not has_lower[i]:
            walk([i], i)
    return chains


def order_complex(poset: CompositionPoset):
    """Order complex: one vertex per element (labelled by lexicographic rank,
    1-based), one simplex per chain.  Maximal chains are distinct and never
    nested, so they are the facets as they stand."""
    facets = [sum(1 << i for i in chain) for chain in maximal_chains(poset)]
    return SimplicialComplex._from_masks(range(1, len(poset.elements) + 1), facets)


def expected_order_complex_claim(d, k):
    """Contractible for k <= d-1; a wedge of C(k-1, d-1) spheres S^(d-2) for k >= d."""
    if k <= d - 1:
        return WedgeClaim.contractible()
    return WedgeClaim.spheres(d - 2, comb(k - 1, d - 1))
