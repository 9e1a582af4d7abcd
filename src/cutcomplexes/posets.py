"""Composition posets and their order complexes.

C(d, k) is the set of ordered k-tuples of positive integers summing to d
(|C(d, k)| = C(d-1, k-1)).  For m > k the composition poset collects the
compositions of k+1, ..., m into k parts under the coordinatewise order; the
augmented variant adds the bottom tuple (1, ..., 1).  At m = d + k - 1 the
order complex is contractible for k <= d - 1 and a wedge of C(k-1, d-1)
spheres S^(d-2) for k >= d (``expected_order_complex_claim``); the ``poset``
verification suite checks this by computing exact homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex
from .homology import WedgeClaim
from .limits import POSET_ELEMENT_CAP, SizeCapError


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
    if m <= k:
        raise ValueError(f"composition poset needs m > k, got m={m}, k={k}")
    elements = []
    for total in range(k + 1, m + 1):
        elements.extend(compositions(total, k))
    if augmented:
        elements.append((1,) * k)
    elements = tuple(sorted(elements))
    if len(elements) > POSET_ELEMENT_CAP:
        raise SizeCapError(
            f"composition poset has {len(elements)} elements; capped at {POSET_ELEMENT_CAP}"
        )
    return CompositionPoset(m, k, elements, augmented)


def _cover_relation(poset):
    """covers[i] = indices j such that element j covers element i."""
    elems = poset.elements
    n = len(elems)
    leq = poset.leq
    below = [
        [k for k in range(n) if k != j and leq(elems[k], elems[j])] for j in range(n)
    ]
    covers = [[] for _ in range(n)]
    for j in range(n):
        for i in below[j]:
            # j covers i unless something sits strictly between
            if not any(k != i and leq(elems[i], elems[k]) for k in below[j]):
                covers[i].append(j)
    return covers


def maximal_chains(poset):
    """All inclusion-maximal chains, as index tuples (ascending)."""
    n = len(poset.elements)
    covers = _cover_relation(poset)
    has_lower = [False] * n
    for i in range(n):
        for j in covers[i]:
            has_lower[j] = True
    chains = []

    def walk(chain, i):
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
    1-based), one simplex per chain."""
    chains = maximal_chains(poset)
    ground = range(1, len(poset.elements) + 1)
    facets = [frozenset(i + 1 for i in chain) for chain in chains]
    return SimplicialComplex(ground, facets)


def expected_order_complex_claim(d, k):
    """Contractible for k <= d-1; a wedge of C(k-1, d-1) spheres S^(d-2) for k >= d."""
    if k <= d - 1:
        return WedgeClaim.contractible()
    return WedgeClaim.spheres(d - 2, comb(k - 1, d - 1))
