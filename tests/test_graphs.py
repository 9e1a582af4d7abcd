"""Graph generators and exact graph measurements."""

import math
from collections import deque
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplexes import (
    Graph,
    GraphFormatError,
    SizeCapError,
    chordal_elimination,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    from_descriptor,
    girth,
    graph_from_json,
    graph_power,
    graph_to_json,
    grid,
    independence_number,
    induced_subgraph,
    path,
    rook,
)
from cutcomplexes.graphs import bfs_distances, delete_vertices


def brute_force_isomorphic(g, h):
    """Exhaustive isomorphism test for small graphs (test-only oracle)."""
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    hedges = set(map(frozenset, h.edges()))
    for perm in permutations(range(1, h.n + 1)):
        mapping = dict(zip(range(1, g.n + 1), perm))
        if all(frozenset((mapping[u], mapping[v])) in hedges for u, v in g.edges()):
            return True
    return False


def bfs_oracle(g, u, v):
    """Independent BFS distance, written without the library helper."""
    seen = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if y not in seen:
                seen[y] = seen[x] + 1
                queue.append(y)
    return seen.get(v)


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p])


# -- generators ---------------------------------------------------------------


def test_cycle_six():
    g = cycle(6)
    assert g.n == 6
    assert g.num_edges() == 6
    assert all(len(g.adj[v]) == 2 for v in g.vertices())


def test_cartesian_square_is_four_cycle():
    # the rook graph K2 x K2 is the cartesian square of an edge
    g = rook(2, 2)
    assert brute_force_isomorphic(g, cycle(4))


def test_multipartite_two_three():
    g = complete_multipartite(2, 3)
    assert g.n == 5
    assert g.num_edges() == 6


def test_generator_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        complete_multipartite(2, 0)
    with pytest.raises(ValueError):
        grid()


def test_disjoint_union_contiguous_blocks():
    g = disjoint_union(path(3), path(2))
    assert g.n == 5
    assert sorted(g.edges()) == [(1, 2), (2, 3), (4, 5)]


def test_grid_and_rook_shapes():
    l = grid(3, 3)
    assert l.n == 9 and l.num_edges() == 12
    r = rook(3, 3)
    assert r.n == 9 and r.num_edges() == 18
    assert brute_force_isomorphic(rook(2, 2), cycle(4))
    # edge sets from the definitions: grid neighbours differ by 1 in one
    # coordinate, rook neighbours in exactly one coordinate; vertex i is the
    # i-th coordinate tuple in lexicographic order
    for dims in [(2, 3), (3, 3), (2, 2, 3)]:
        coords = tuple(product(*(range(1, d + 1) for d in dims)))
        for g, adjacent in [
            (grid(*dims), lambda a, b: sum(abs(x - y) for x, y in zip(a, b)) == 1),
            (rook(*dims), lambda a, b: sum(x != y for x, y in zip(a, b)) == 1),
        ]:
            expected = [
                (u, v)
                for u, v in combinations(g.vertices(), 2)
                if adjacent(coords[u - 1], coords[v - 1])
            ]
            assert g.edges() == expected


# -- induced subgraphs ----------------------------------------------------------


def test_induced_subgraph_examples():
    g = cycle(6)
    p = induced_subgraph(g, [1, 2, 3])
    assert p == path(3)
    e = induced_subgraph(g, [1, 3, 5])
    assert e.num_edges() == 0
    assert induced_subgraph(complete(4), [1, 2, 3]) == complete(3)
    with pytest.raises(ValueError):
        induced_subgraph(g, [0])


def test_induced_subgraph_identity():
    g = grid(2, 3)
    h = induced_subgraph(g, list(g.vertices()))
    assert h.n == g.n and set(h.edges()) == set(g.edges())


# -- independence number ----------------------------------------------------------


def test_independence_examples():
    assert independence_number(cycle(6)) == 3
    assert independence_number(graph_power(cycle(7), 2)) == 2
    assert independence_number(graph_power(path(9), 2)) == 3
    assert independence_number(Graph(0)) == 0
    assert independence_number(Graph(5)) == 5


def test_independence_closed_forms():
    # alpha(C_n^r) = floor(n/(r+1)) and alpha(P_n^r) = ceil(n/(r+1));
    # the cycle form needs r + 1 <= n (beyond that the power is complete)
    for n in range(3, 15):
        for r in range(1, 5):
            assert independence_number(graph_power(path(n), r)) == -(-n // (r + 1))
            alpha_c = independence_number(graph_power(cycle(n), r))
            if r + 1 <= n:
                assert alpha_c == n // (r + 1)
            else:
                assert alpha_c == 1


def test_independence_guard(monkeypatch):
    # the branch-and-bound counts its nodes, not the vertices: 25 isolated
    # vertices answer at once, and a 24-vertex perfect matching needs more
    # than 2^15 nodes and at most 2^16
    assert independence_number(Graph(25)) == 25
    matching = Graph(24, [(2 * i + 1, 2 * i + 2) for i in range(12)])
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "15")
    with pytest.raises(SizeCapError, match=r"exceeds the 2\^15 budget"):
        independence_number(matching)
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "16")
    assert independence_number(matching) == 12
    # alpha_table spends its 2^n entries: 6 vertices need a cap of 6
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    with pytest.raises(SizeCapError, match=r"exceeds the 2\^5 budget"):
        Graph(6).alpha_table()
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "6")
    assert len(Graph(6).alpha_table()) == 64


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_alpha_table_matches_branch_and_bound(n, rng):
    g = random_graph(n, 0.5, rng)
    table = g.alpha_table()
    assert table[(1 << n) - 1] == independence_number(g)
    # spot-check some induced subgraphs against the recursive definition
    for mask in range(0, 1 << n, max(1, (1 << n) // 16)):
        sub = induced_subgraph(g, [v for v in g.vertices() if mask >> (v - 1) & 1])
        assert table[mask] == independence_number(sub)


# -- girth, distance, power --------------------------------------------------------


def test_girth_examples():
    assert girth(cycle(5)) == 5
    assert girth(complete(4)) == 3
    assert girth(path(7)) == math.inf
    assert girth(grid(3, 3)) == 4


def test_girth_diameter_bound():
    # exact girths; each is at most 2 * diameter + 1 (diameters 4, 4, 1, 2, 3)
    cases = [
        (cycle(9), 9),
        (grid(3, 3), 4),
        (complete(5), 3),
        (rook(2, 3), 3),
        (graph_power(cycle(10), 2), 3),
    ]
    for g, expected in cases:
        assert girth(g) == expected


def test_power_c8_cubed_edge_count():
    # oracle: count pairs at BFS distance <= 3 directly
    g = cycle(8)
    expected = sum(
        1 for u, v in combinations(range(1, 9), 2) if bfs_oracle(g, u, v) <= 3
    )
    h = graph_power(g, 3)
    assert h.num_edges() == expected == 24
    assert all(len(h.adj[v]) == 6 for v in h.vertices())


def test_power_identity_and_saturation():
    g = grid(2, 3)
    assert graph_power(g, 1) == g
    assert graph_power(path(4), 3) == complete(4)
    # the power saturates exactly at the diameter
    for base, diam in [(cycle(7), 3), (grid(2, 4), 4), (path(6), 5)]:
        assert graph_power(base, diam) == complete(base.n)
        assert graph_power(base, diam - 1) != complete(base.n)


# -- chordality ---------------------------------------------------------------------


def has_induced_long_cycle(g):
    """Direct search for an induced cycle of length >= 4 (test-only oracle)."""
    for size in range(4, g.n + 1):
        for vs in combinations(g.vertices(), size):
            sub = induced_subgraph(g, vs)
            if sub.num_edges() == size and all(len(sub.adj[v]) == 2 for v in sub.vertices()):
                # connected 2-regular graph with |E| = |V| is a single cycle
                if len(bfs_distances(sub, 1)) == size:
                    return True
    return False


def test_chordal_examples():
    order = chordal_elimination(graph_power(path(5), 2))
    assert order is not None and sorted(order) == [1, 2, 3, 4, 5]
    assert chordal_elimination(cycle(4)) is None
    assert chordal_elimination(complete(3)) is not None
    assert chordal_elimination(path(6)) is not None


def test_chordal_matches_induced_cycle_search():
    # exhaustive on 5 vertices, randomized up to 9
    for bits in range(1 << 10):
        edges = [
            e for i, e in enumerate(combinations(range(1, 6), 2)) if bits >> i & 1
        ]
        g = Graph(5, edges)
        assert (chordal_elimination(g) is not None) == (not has_induced_long_cycle(g))
    import random

    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(6, 9), rng.choice([0.3, 0.5, 0.7]), rng)
        assert (chordal_elimination(g) is not None) == (not has_induced_long_cycle(g))


def test_elimination_order_is_perfect():
    # every eliminated vertex is simplicial in the remaining graph
    g = graph_power(path(8), 2)
    order = chordal_elimination(g)
    remaining = set(g.vertices())
    for v in order:
        nbrs = sorted(g.adj[v] & remaining)
        for a, b in combinations(nbrs, 2):
            assert b in g.adj[a]
        remaining.discard(v)


# -- serialization and descriptors ----------------------------------------------------


def test_graph_json_round_trip():
    g = grid(2, 3)
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_diagnostics():
    with pytest.raises(GraphFormatError, match="out of range"):
        graph_from_json({"n": 3, "edges": [[1, 5]]})
    with pytest.raises(GraphFormatError, match="u < v"):
        graph_from_json({"n": 3, "edges": [[2, 1]]})
    with pytest.raises(GraphFormatError, match="duplicate"):
        graph_from_json({"n": 3, "edges": [[1, 2], [1, 2]]})
    with pytest.raises(GraphFormatError, match="missing"):
        graph_from_json({"edges": []})


def test_descriptors():
    assert from_descriptor("cycle:8") == cycle(8)
    assert from_descriptor("cyclepow:8:3") == graph_power(cycle(8), 3)
    assert from_descriptor("multipartite:2,3") == complete_multipartite(2, 3)
    assert from_descriptor("grid:3,3") == grid(3, 3)
    assert from_descriptor("union:path:3+path:3+path:3") == disjoint_union(
        path(3), path(3), path(3)
    )
    with pytest.raises(GraphFormatError):
        from_descriptor("moebius:5")
    with pytest.raises(GraphFormatError):
        from_descriptor("cycle:two")
    with pytest.raises(GraphFormatError):
        from_descriptor("cycle:2")


def test_delete_vertices_renumbers_survivors_in_order():
    assert delete_vertices(cycle(6), [1]) == path(5)
