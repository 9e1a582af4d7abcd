"""Complex construction: graph complexes, duality, link/deletion, join,
skeleta, JSON input, and the facet representation's invariants."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcomplexes import (
    Graph,
    SimplicialComplex,
    SizeCapError,
    alexander_dual,
    bounded_independence_complex,
    complete,
    complete_multipartite,
    complex_from_json,
    complex_intersection,
    complex_to_json,
    complex_union,
    cycle,
    deletion,
    disjoint_union,
    full_simplex,
    graph_power,
    is_skeleton_full,
    join,
    link,
    path,
    relabel_complex,
    simplex_boundary,
    skeleton,
    total_cut_complex,
    void_complex,
)
from cutcomplexes import complexes
from cutcomplexes.complexes import (
    empty_simplex_complex,
    independent_set_masks,
    minimal_transversals,
)
from cutcomplexes.graphs import delete_vertices
from cutcomplexes.homology import relative_chain_complex
from cutcomplexes.posets import compositions


def all_graphs_on(n):
    for bits in range(1 << (n * (n - 1) // 2)):
        edges = [
            e for i, e in enumerate(combinations(range(1, n + 1), 2)) if bits >> i & 1
        ]
        yield Graph(n, edges)


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    )


ground_sets = st.integers(1, 8).map(lambda n: tuple(range(1, n + 1)))


@st.composite
def random_complexes(draw):
    ground = draw(ground_sets)
    n_facets = draw(st.integers(0, 6))
    facets = [
        draw(st.sets(st.sampled_from(ground), max_size=len(ground)))
        for _ in range(n_facets)
    ]
    return SimplicialComplex.from_facet_candidates(ground, facets)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    return random_graph(n, p, draw(st.randoms(use_true_random=False)))


# -- subset-scan oracles ------------------------------------------------------------
# Both scan all 2^n vertex subsets; the builders find the same facets as
# minimal transversals, and the differential tests below hold them to it.


def bi_by_subset_scan(g, d):
    """Facet masks of BI_d(g): the subsets with independence number < d that
    no added vertex keeps below d, read off the per-subset alpha table."""
    table = g.alpha_table()
    full = (1 << g.n) - 1
    facets = []
    for m in range(full + 1):
        if table[m] >= d:
            continue
        rest = full & ~m
        maximal = True
        while rest:
            low = rest & -rest
            rest ^= low
            if table[m | low] < d:
                maximal = False
                break
        if maximal:
            facets.append(m)
    return facets


def dual_by_subset_scan(k):
    """Facet masks of the Alexander dual: complements of the subsets that are
    not simplices of k while every subset one vertex smaller is."""
    full = (1 << len(k.ground)) - 1
    members = set(k.simplex_masks())
    facets = []
    for m in range(full + 1):
        if m in members:
            continue
        mm = m
        minimal = True
        while mm:
            low = mm & -mm
            mm ^= low
            if (m ^ low) not in members:
                minimal = False
                break
        if minimal:
            facets.append(full ^ m)
    return sorted(facets)


# -- data model ------------------------------------------------------------------


def test_void_versus_empty_simplex():
    v = void_complex([1, 2])
    e = empty_simplex_complex([1, 2])
    assert v.is_void and not e.is_void
    assert v.dim() is None and e.dim() == -1
    assert not v.contains([]) and e.contains([])
    assert v != e


def test_constructor_rejects_nested_facets():
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex([1, 2, 3], [{1, 2}, {1}])
    with pytest.raises(ValueError, match="ground"):
        SimplicialComplex([1, 2], [{3}])


def test_membership_and_simplices():
    k = SimplicialComplex([1, 2, 3, 4], [{1, 2, 3}, {3, 4}])
    assert k.contains([1, 3]) and k.contains([]) and not k.contains([1, 4])
    masks = k.simplex_masks()
    assert masks == sorted(masks)
    simplices = [
        tuple(v for i, v in enumerate(k.ground) if m >> i & 1) for m in masks
    ]
    assert sorted(simplices, key=lambda t: (len(t), t)) == [
        (),
        (1,),
        (2,),
        (3,),
        (4,),
        (1, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (1, 2, 3),
    ]


@settings(max_examples=80, deadline=None)
@given(random_complexes())
def test_downward_closure(k):
    masks = set(k.simplex_masks())
    for m in masks:
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            assert (m ^ low) in masks


def simplices_by_facet_subsets(k):
    """Oracle for the face walk: every subset of every facet, ascending."""
    seen = set()
    for f in k.facet_masks():
        sub = f
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return sorted(seen)


def random_sub_facets(k, rng):
    """Random subsets of a random choice of k's facets (a subcomplex of k)."""
    return [
        {v for v in f if rng.random() < 0.7}
        for f in k.facets
        if rng.random() < 0.6
    ]


def test_face_walk_matches_facet_subsets():
    rng = random.Random(14)
    cases = [void_complex([1, 2]), empty_simplex_complex([1, 2])]
    for _ in range(150):
        # facets of mixed sizes; the last two ground vertices are phantom
        n = rng.randint(1, 9)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(0, n))
            for _ in range(rng.randint(0, 6))
        ]
        cases.append(SimplicialComplex.from_facet_candidates(range(1, n + 3), facets))
    for k in cases:
        faces = simplices_by_facet_subsets(k)
        assert k.simplex_masks() == faces
        if len(faces) > 1:
            # the walk counts each face once against 2^cap
            cap = (len(faces) - 1).bit_length()
            assert len(k.simplex_masks(cap)) == len(faces)
            with pytest.raises(SizeCapError, match="budget"):
                k.simplex_masks(cap - 1)
        # relative bases: the faces of k off a subcomplex, or a refusal when
        # the second complex does not lie in k
        other = rng.choice(cases)
        for l in (
            void_complex(k.ground),
            k,
            SimplicialComplex.from_facet_candidates(k.ground, random_sub_facets(k, rng)),
            SimplicialComplex.from_facet_candidates(
                k.ground, [f for f in other.facets if set(f) <= set(k.ground)]
            ),
        ):
            lfaces = set(simplices_by_facet_subsets(l))
            if not lfaces <= set(faces):
                with pytest.raises(ValueError, match="subcomplex"):
                    relative_chain_complex(k, l)
                continue
            expected = {}
            for m in faces:
                if m not in lfaces:
                    expected.setdefault(m.bit_count() - 1, []).append(m)
            assert relative_chain_complex(k, l).bases == expected


# -- graph complex builders ---------------------------------------------------------


def test_total_cut_examples():
    k = total_cut_complex(cycle(4), 2)
    assert k.facets == frozenset({frozenset({1, 3}), frozenset({2, 4})})
    assert total_cut_complex(complete(3), 2).is_void
    c6 = total_cut_complex(cycle(6), 2)
    # C_6 has C(6,2) - 6 = 9 independent pairs
    assert len(c6.facets) == 9
    assert all(len(f) == 4 for f in c6.facets)
    with pytest.raises(ValueError):
        total_cut_complex(cycle(4), 1)


def test_bounded_independence_examples():
    k = bounded_independence_complex(cycle(5), 2)
    assert k.facets == frozenset(
        frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    )
    assert bounded_independence_complex(complete(4), 3) == full_simplex([1, 2, 3, 4])
    four_cycle = bounded_independence_complex(complete_multipartite(2, 2), 2)
    assert sorted(len(f) for f in four_cycle.facets) == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        bounded_independence_complex(cycle(5), 0)


def test_filtrations_nest():
    # bounded independence complexes grow with d; total cut complexes shrink
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng.randint(4, 8), 0.5, rng)
        alpha = g.alpha_table()[(1 << g.n) - 1]
        for d in range(2, alpha + 1):
            lower = set(bounded_independence_complex(g, d).simplex_masks())
            upper = set(bounded_independence_complex(g, d + 1).simplex_masks())
            assert lower <= upper
            cut_hi = set(total_cut_complex(g, d).simplex_masks())
            if d + 1 <= alpha:
                cut_lo = set(total_cut_complex(g, d + 1).simplex_masks())
                assert cut_lo <= cut_hi


def test_degenerate_total_cut_is_empty_simplex_complex():
    # two isolated vertices: the only independent pair is everything, so the
    # complex is {emptyset} with both vertices phantom
    g = Graph(2, [])
    k = total_cut_complex(g, 2)
    assert k.facets == frozenset({frozenset()})
    assert not k.is_void


def test_builder_simplices_match_closure():
    # the closure of the builder's facets is exactly the subsets with alpha < d
    g = graph_power(cycle(9), 2)
    k = bounded_independence_complex(g, 3)
    table = g.alpha_table()
    assert k.simplex_masks() == [m for m in range(1 << g.n) if table[m] < 3]


def test_independent_set_masks_counts():
    assert len(independent_set_masks(cycle(6), 2)) == 9
    assert len(independent_set_masks(cycle(13), 4)) == 182


# -- Alexander duality ----------------------------------------------------------------


def test_dual_edge_cases():
    assert alexander_dual(full_simplex([1, 2, 3])).is_void
    assert alexander_dual(void_complex([1, 2, 3])) == full_simplex([1, 2, 3])
    assert alexander_dual(empty_simplex_complex([1, 2, 3])) == simplex_boundary([1, 2, 3])
    with pytest.raises(ValueError):
        alexander_dual(void_complex([]))


def test_duality_identity_exhaustive_small():
    # dual(BI_d) equals the total cut complex, simplex for simplex
    for g in all_graphs_on(4):
        alpha = g.alpha_table()[(1 << g.n) - 1]
        for d in range(2, alpha + 1):
            assert alexander_dual(
                bounded_independence_complex(g, d)
            ) == total_cut_complex(g, d)


def test_duality_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng.randint(5, 9), rng.choice([0.3, 0.5, 0.7]), rng)
        alpha = g.alpha_table()[(1 << g.n) - 1]
        for d in range(2, alpha + 1):
            assert alexander_dual(
                bounded_independence_complex(g, d)
            ) == total_cut_complex(g, d)


SPECIAL_COMPLEXES = [
    void_complex([1, 2, 3]),
    empty_simplex_complex([1, 2, 3]),
    full_simplex([1, 2, 3, 4]),
    SimplicialComplex([1, 2, 3, 4, 5], [{1, 2}, {2, 3}]),  # 4 and 5 phantom
    void_complex([1]),
    empty_simplex_complex([1]),
]


def with_special_complexes(test):
    for k in SPECIAL_COMPLEXES:
        test = example(k)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(random_complexes())
@with_special_complexes
def test_dual_involution(k):
    assert alexander_dual(alexander_dual(k)) == k


@settings(max_examples=80, deadline=None)
@given(random_complexes())
@with_special_complexes
def test_dual_matches_subset_scan(k):
    dual = alexander_dual(k)
    assert dual.ground == k.ground
    assert dual.facet_masks() == dual_by_subset_scan(k)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_graph_complexes_match_subset_scans(g):
    for d in (2, 3, 4):
        bi = bounded_independence_complex(g, d)
        assert bi.ground == tuple(g.vertices())
        assert bi.facet_masks() == bi_by_subset_scan(g, d)
        assert alexander_dual(bi).facet_masks() == dual_by_subset_scan(bi)
        cut = total_cut_complex(g, d)
        assert alexander_dual(cut).facet_masks() == dual_by_subset_scan(cut)


def test_minimal_transversals_edge_cases():
    assert minimal_transversals([], 3) == [0]
    assert minimal_transversals([], 0) == [0]
    assert minimal_transversals([0], 3) == []
    assert minimal_transversals([0b011, 0], 3) == []
    # a path 0-1-2 as a hypergraph: vertex covers {1} and {0, 2}
    assert minimal_transversals([0b011, 0b110], 3) == [0b010, 0b101]
    assert minimal_transversals([0b111], 3) == [0b001, 0b010, 0b100]


def test_minimal_transversals_ignore_duplicate_and_nonminimal_edges():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))]
        minimal = [e for e in set(edges) if not any(f != e and f & ~e == 0 for f in edges)]
        padded = edges + edges + [e | rng.randrange(1 << n) for e in edges]
        rng.shuffle(padded)
        found = minimal_transversals(minimal, n)
        assert minimal_transversals(padded, n) == found
        # each answer meets every edge, and dropping any vertex breaks that
        for t in found:
            assert all(t & e for e in minimal)
            bits = [1 << i for i in range(n) if t >> i & 1]
            assert all(any(not (t ^ b) & e for e in minimal) for b in bits)


def test_minimal_transversals_walk_a_pinned_search_tree(monkeypatch):
    # one budget unit per search node, so the unit count pins the tree that
    # the edge choice (fewest candidates, first in input order) walks
    c16_sets = independent_set_masks(cycle(16), 3)
    full = (1 << 16) - 1
    c16_non_faces = [full ^ f for f in bounded_independence_complex(cycle(16), 3).facet_masks()]
    multipartite_sets = independent_set_masks(complete_multipartite(2, 2, 3, 3), 3)
    spent = []
    real_budget = complexes.budget

    def counting_budget(what, cap=None):
        spend = real_budget(what, cap)
        spent.append(0)

        def count(units=1):
            spent[-1] += units
            return spend(units)

        return count

    monkeypatch.setattr(complexes, "budget", counting_budget)
    for edges, n, units, size, first, last in (
        (c16_sets, 16, 477, 104, 0x0FFF, 0xFFF0),
        (c16_non_faces, 16, 456, 352, 0x0015, 0xA800),
        (multipartite_sets, 10, 13, 9, 0x090, 0x240),
    ):
        spent.clear()
        found = minimal_transversals(edges, n)
        assert spent == [units]
        assert (len(found), found[0], found[-1]) == (size, first, last)
    # the minimal non-faces of BI_3(C16) are its independent 3-sets
    assert minimal_transversals(c16_non_faces, 16) == sorted(c16_sets)


# -- link, deletion ---------------------------------------------------------------


def test_link_law_on_cycles():
    # the link of a vertex in the total cut complex is the total cut complex
    # of the graph without that vertex
    for n in range(4, 9):
        for d in (2, 3):
            g = cycle(n)
            k = total_cut_complex(g, d)
            for v in g.vertices():
                if not k.contains([v]):
                    continue
                sub = delete_vertices(g, [v])
                expected = relabel_complex(
                    total_cut_complex(sub, d),
                    {w: sub.original_label(w) for w in sub.vertices()},
                )
                assert link(k, [v]) == expected


def test_phantom_vertex_rules():
    # vertex 4 of this complex is phantom: present in the ground set only
    k = SimplicialComplex([1, 2, 3, 4], [{1, 2}, {2, 3}])
    assert link(k, [4]).is_void
    assert deletion(k, [4]) == k
    with pytest.raises(ValueError):
        link(k, [9])


def test_link_star_deletion_shapes():
    k = SimplicialComplex([1, 2, 3, 4], [{1, 2, 3}, {3, 4}])
    assert link(k, [3]) == SimplicialComplex([1, 2, 4], [{1, 2}, {4}])
    assert deletion(k, [3]) == SimplicialComplex([1, 2, 3, 4], [{1, 2}, {4}])
    assert deletion(k, [1, 2]) == SimplicialComplex([1, 2, 3, 4], [{1, 3}, {2, 3}, {3, 4}])


def vertex_simplices(k):
    """Every simplex of k as a frozenset of vertices, from the facet subsets."""
    return {
        frozenset(v for i, v in enumerate(k.ground) if m >> i & 1)
        for m in simplices_by_facet_subsets(k)
    }


def test_mask_constructions_match_their_definitions():
    # link, deletion, skeleton, union and intersection work on facet masks;
    # each is checked against its definition on the vertex sets of simplices
    assert SimplicialComplex.__slots__ == ("ground", "_facet_masks")
    rng = random.Random(19)
    cases = [void_complex([1, 2, 3]), empty_simplex_complex([1, 2, 3])]
    for _ in range(120):
        # the last ground vertex is phantom in most cases
        n = rng.randint(1, 7)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(0, n))
            for _ in range(rng.randint(0, 5))
        ]
        cases.append(SimplicialComplex.from_facet_candidates(range(1, n + 2), facets))
    for k in cases:
        simplices = vertex_simplices(k)
        assert SimplicialComplex(k.ground, k.facets) == k
        assert k.facets == {s for s in simplices if not any(s < t for t in simplices)}
        assert complex_to_json(k)["facets"] == sorted(sorted(f) for f in k.facets)
        results = []
        for sigma in ([], *([v] for v in k.ground), rng.sample(k.ground, min(2, len(k.ground)))):
            sigma = frozenset(sigma)
            results.append((
                link(k, sigma),
                tuple(v for v in k.ground if v not in sigma),
                {s - sigma for s in simplices if sigma <= s},
            ))
            results.append((
                deletion(k, sigma), k.ground, {s for s in simplices if not sigma <= s}
            ))
        for d in range(4):
            results.append((skeleton(k, d), k.ground, {s for s in simplices if len(s) <= d + 1}))
        other = SimplicialComplex.from_facet_candidates(
            k.ground, [rng.sample(k.ground, rng.randint(0, len(k.ground))) for _ in range(3)]
        )
        results.append((complex_union(k, other), k.ground, simplices | vertex_simplices(other)))
        results.append(
            (complex_intersection(k, other), k.ground, simplices & vertex_simplices(other))
        )
        for result, ground, expected in results:
            assert result.ground == ground
            assert vertex_simplices(result) == expected
            assert result.is_void == (not expected)
            # the facets are maximal: the validating constructor accepts them
            assert SimplicialComplex(ground, result.facets) == result


# -- join and skeleton ---------------------------------------------------------------------


def test_join_rules():
    k = SimplicialComplex([1, 2, 3], [{1, 2}, {2, 3}])
    unit = empty_simplex_complex([9])
    joined = join(k, unit)
    assert joined.facets == k.facets and 9 in joined.ground
    two_points = SimplicialComplex([1, 2], [{1}, {2}])
    other = SimplicialComplex([3, 4], [{3}, {4}])
    square = join(two_points, other)
    assert sorted(sorted(f) for f in square.facets) == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert join(void_complex([1]), other).is_void
    with pytest.raises(ValueError):
        join(k, SimplicialComplex([3, 5], [{3}]))


def test_skeleton_rules():
    k = full_simplex([1, 2, 3, 4])
    edges = skeleton(k, 1)
    assert len(edges.facets) == 6
    assert skeleton(k, k.dim()) == k
    # C(n+1, d+1) facets on the skeleton of a full simplex
    assert len(skeleton(full_simplex(range(1, 7)), 2).facets) == 20


def test_skeleton_fullness_examples():
    assert is_skeleton_full(bounded_independence_complex(cycle(7), 3), 1)
    c4 = total_cut_complex(cycle(4), 2)
    assert is_skeleton_full(c4, 0)
    assert not is_skeleton_full(c4, 1)  # {1,2} has complement {3,4}, an edge
    big = total_cut_complex(graph_power(cycle(11), 3), 2)
    assert is_skeleton_full(big, 2)


def test_skeleton_scans_spend_the_budget(monkeypatch):
    monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    # the complex builds at once, but C(40, 19) subsets would take hours to scan
    k = total_cut_complex(path(40), 2)
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError, match=r"C\(40, 19\) vertex 19-sets exceeds the 2\^20"):
        is_skeleton_full(k, 18)
    assert time.perf_counter() - t0 < 2
    # C(23, 12) = 1,352,078 subsets of the one facet are over 2^20
    with pytest.raises(SizeCapError, match="11-skeleton of a complex on 23 vertices"):
        skeleton(full_simplex(range(1, 24)), 11)


def test_skeleton_scan_thresholds(monkeypatch):
    simplex = full_simplex([1, 2, 3, 4])
    edges = SimplicialComplex([1, 2, 3, 4], [{1, 2}, {3, 4}])
    # exactly 2^2 units: C(4, 1) vertex sets, or C(2, 1) + C(2, 1) facet subsets
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "2")
    assert is_skeleton_full(simplex, 0) and is_skeleton_full(edges, 0)
    assert len(skeleton(simplex, 0).facets) == 4
    assert len(skeleton(edges, 0).facets) == 4
    for scan in (
        lambda: is_skeleton_full(simplex, 1),  # C(4, 2) = 6
        lambda: skeleton(simplex, 1),
        lambda: skeleton(SimplicialComplex([1, 2, 3, 4, 5], [{1, 2}, {3, 4}, {5}]), 0),
    ):
        with pytest.raises(SizeCapError, match="exceeds the 2\\^2 budget"):
            scan()
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "1")
    for scan in (lambda: is_skeleton_full(simplex, 0), lambda: skeleton(edges, 0)):
        with pytest.raises(SizeCapError, match="exceeds the 2\\^1 budget"):
            scan()


# -- disjoint union law ------------------------------------------------------------------------


def union_law_holds(components, d):
    """The bounded independence complex of a disjoint union is the union of
    joins indexed by compositions of d + k - 1 into k parts."""
    g = disjoint_union(*components)
    whole = bounded_independence_complex(g, d)
    k = len(components)
    offsets = []
    base = 0
    for comp in components:
        offsets.append(base)
        base += comp.n

    pieces = []
    for comp_tuple in compositions(d + k - 1, k):
        parts = []
        for comp, dd, off in zip(components, comp_tuple, offsets):
            if dd == 1:
                # every vertex is an independent 1-set: only the empty set is left
                local = empty_simplex_complex(comp.vertices())
            else:
                local = bounded_independence_complex(comp, dd)
            parts.append(relabel_complex(local, {v: v + off for v in comp.vertices()}))
        joined = parts[0]
        for p in parts[1:]:
            joined = join(joined, p)
        pieces.append(joined)
    union = pieces[0]
    for p in pieces[1:]:
        union = complex_union(union, p)
    return union.facets == whole.facets and union.ground == whole.ground


@pytest.mark.parametrize(
    "components,d",
    [
        ([path(2), path(3)], 2),
        ([path(2), path(3)], 3),
        ([path(3), path(3), path(2)], 2),
        ([path(3), path(3), path(2)], 3),
        ([path(2), path(2), path(4)], 4),
    ],
)
def test_disjoint_union_law(components, d):
    assert union_law_holds(components, d)


# -- serialization -------------------------------------------------------------------------------


def test_complex_json_round_trip():
    for k in [
        total_cut_complex(cycle(5), 2),
        void_complex([1, 2]),
        empty_simplex_complex([1, 2]),
    ]:
        assert complex_from_json(complex_to_json(k)) == k


def test_complex_json_validation():
    with pytest.raises(ValueError, match="missing"):
        complex_from_json({"ground": [1]})
    with pytest.raises(ValueError, match="void"):
        complex_from_json({"ground": [1], "facets": [[1]], "void": True})

    def obj(**fields):
        return {"ground": [1, 2], "facets": [[1, 2]], "void": False, **fields}

    bad_facet = r"facets\[0\]: expected a list of integer vertices"
    with pytest.raises(ValueError, match=bad_facet + r", got \[1, \[2\]\]"):
        complex_from_json(obj(facets=[[1, [2]]]))
    with pytest.raises(ValueError, match=bad_facet):
        complex_from_json(obj(facets=[{"a": 1}]))
    with pytest.raises(ValueError, match=r"facets\[1\]"):
        complex_from_json(obj(facets=[[1], [2, True]]))
    with pytest.raises(ValueError, match=r"facets\[0\]"):
        complex_from_json(obj(facets=[3], void=True))
    for void in ("no", 0, 1, None, []):
        with pytest.raises(ValueError, match='"void" must be true or false'):
            complex_from_json(obj(void=void, facets=[]))
    with pytest.raises(ValueError, match='"ground" lists vertex 1 twice'):
        complex_from_json(obj(ground=[1, 1, 2]))
    with pytest.raises(ValueError, match='"ground" must be a list of integers'):
        complex_from_json(obj(ground=[1, True]))
    # a repeat at the end of a long list is found in one pass
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match='"ground" lists vertex 40000 twice'):
        complex_from_json(obj(ground=list(range(1, 40001)) + [40000], facets=[]))
    with pytest.raises(ValueError, match=r"facets\[0\]: vertex 40000 appears twice"):
        complex_from_json(obj(ground=[40000], facets=[[40000] * 40001]))
    assert time.perf_counter() - t0 < 2
    # well-formed input still loads, void included
    assert complex_from_json(obj()) == full_simplex([1, 2])
    assert complex_from_json(obj(facets=[], void=True)) == void_complex([1, 2])
