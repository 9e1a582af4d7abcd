"""Composition posets, order complexes, and their homology claims."""

from itertools import combinations
from math import comb

import pytest

from cutcomplexes import (
    composition_poset,
    compositions,
    order_complex,
    reduced_homology,
)
from cutcomplexes.posets import _cover_relation, expected_order_complex_claim, maximal_chains


def leq(a, b):
    """The coordinatewise order on compositions."""
    return all(x <= y for x, y in zip(a, b))


def test_composition_examples():
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert compositions(3, 3) == [(1, 1, 1)]
    assert len(compositions(5, 3)) == 6
    with pytest.raises(ValueError):
        compositions(3, 4)
    with pytest.raises(ValueError):
        compositions(3, 0)


def test_composition_counts():
    for d in range(1, 9):
        for k in range(1, d + 1):
            assert len(compositions(d, k)) == comb(d - 1, k - 1)


def test_composition_poset_examples():
    p = composition_poset(4, 3)
    assert p.elements == ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert len(composition_poset(5, 2).elements) == 4 + 3 + 2
    chain = composition_poset(3, 1)
    assert chain.elements == ((2,), (3,))
    with pytest.raises(ValueError):
        composition_poset(3, 3)


def test_augmented_poset_has_bottom_and_is_contractible():
    p = composition_poset(4, 2, augmented=True)
    assert (1, 1) in p.elements
    assert reduced_homology(order_complex(p)).is_trivial


def test_poset_axioms():
    for m, k in [(5, 2), (6, 3), (4, 3)]:
        p = composition_poset(m, k)
        elems = p.elements
        for a in elems:
            assert leq(a, a)
        for a in elems:
            for b in elems:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in elems:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)


def test_order_complex_simplices_are_exactly_chains():
    for m, k in [(5, 2), (6, 3), (6, 2)]:
        p = composition_poset(m, k)
        assert len(p.elements) <= 30
        k_cx = order_complex(p)
        top = max((len(c) for c in maximal_chains(p)), default=0)
        elems = p.elements
        for size in range(1, top + 2):
            for idxs in combinations(range(len(elems)), size):
                chain = all(
                    leq(elems[i], elems[j]) or leq(elems[j], elems[i])
                    for i, j in combinations(idxs, 2)
                )
                simplex = {i + 1 for i in idxs}
                assert any(simplex <= f for f in k_cx.facets) == chain


def test_chain_poset_gives_full_simplex():
    # compositions of 2, 3, 4 into one part form a chain of length 3
    p = composition_poset(4, 1)
    k = order_complex(p)
    assert len(k.facets) == 1 and len(next(iter(k.facets))) == 3


def test_order_complex_homology_examples():
    # three pairwise incomparable tuples: two reduced classes in degree 0
    p = composition_poset(4, 3)
    assert reduced_homology(order_complex(p)).groups == ((0, 2, ()),)
    # contractible range
    assert reduced_homology(order_complex(composition_poset(4, 2))).is_trivial


def test_expected_claims():
    assert expected_order_complex_claim(3, 2).shape == "contractible"
    claim = expected_order_complex_claim(2, 3)
    assert claim.sphere_dim == 0 and claim.count == 2
    claim = expected_order_complex_claim(3, 3)
    assert claim.sphere_dim == 1 and claim.count == 1


def cover_relation_by_triple_loop(poset):
    """covers[i] = indices j covering i: j above i with nothing strictly between."""
    elems = poset.elements
    n = len(elems)
    below = [
        [k for k in range(n) if k != j and leq(elems[k], elems[j])] for j in range(n)
    ]
    covers = [[] for _ in range(n)]
    for j in range(n):
        for i in below[j]:
            if not any(k != i and leq(elems[i], elems[k]) for k in below[j]):
                covers[i].append(j)
    return covers


def test_cover_rule_matches_the_triple_loop():
    # 45 (m, k) pairs with m <= 10, each plain and augmented
    count = 0
    for m in range(2, 11):
        for k in range(1, m):
            for augmented in (False, True):
                p = composition_poset(m, k, augmented=augmented)
                assert len(p.elements) == comb(m, k) - 1 + augmented
                assert _cover_relation(p) == cover_relation_by_triple_loop(p)
                count += 1
    assert count == 90


def test_poset_element_cap(monkeypatch):
    from cutcomplexes import SizeCapError

    monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    # 12,869 elements fit in 2^20, but the chain search does not
    with pytest.raises(SizeCapError, match="exceeds the 2\\^20 budget"):
        order_complex(composition_poset(16, 8))
    # C(39, 20) - 1 elements are refused before any is listed
    with pytest.raises(SizeCapError, match="composition poset of 39 into 20 parts"):
        composition_poset(39, 20)


def test_poset_budget_thresholds(monkeypatch):
    from cutcomplexes import SizeCapError

    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "3")
    # the 8 elements of a chain are exactly 2^3; the augmented bottom is one more
    assert order_complex(composition_poset(9, 1)).facet_masks() == [255]
    with pytest.raises(SizeCapError, match="composition poset of 9 into 1 parts"):
        composition_poset(9, 1, augmented=True)
    # 19 elements but 39 chain-search nodes: refused at 2^5, answered at 2^6
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    poset = composition_poset(6, 3)
    with pytest.raises(SizeCapError, match="maximal chain search over 19 poset"):
        order_complex(poset)
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "6")
    assert len(order_complex(poset).facet_masks()) == 27
