"""Simple undirected graphs on vertex set {1, ..., n}: generators and exact invariants.

Every graph has vertices 1..n and keeps no record of a graph it was derived
from.  A derived graph (induced subgraph, power, grid or rook graph, disjoint
union) numbers its vertices in the order that its generator's docstring
states.

All measurements are exact: the independence number is computed by
branch-and-bound, and ``alpha_table`` tabulates the independence number of
every induced subgraph at once (one byte per vertex subset) for checks that
read every subset, such as the coloring checks of the structural suite.
Both count their work against the 2^cap budget of ``limits.budget``, whose
cap ``limits.resolve_cap`` sets for all searches.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from math import inf

from .limits import budget


class GraphFormatError(ValueError):
    """Malformed graph JSON or family descriptor."""


class Graph:
    """Immutable simple graph with adjacency sets over vertices 1..n."""

    __slots__ = ("n", "adj", "_open_masks", "_closed_masks", "_alpha")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError(f"graph order must be nonnegative, got {n}")
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self._open_masks = None
        self._closed_masks = None
        self._alpha = None

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def edges(self):
        """Sorted edge list with u < v."""
        return [(u, v) for u in self.vertices() for v in sorted(self.adj[u]) if u < v]

    def num_edges(self):
        return sum(len(s) for s in self.adj.values()) // 2

    def closed_neighbors(self, v):
        return self.adj[v] | {v}

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.edges()))))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # -- bitmask machinery ---------------------------------------------------
    # Vertex v occupies bit v-1.  Masks back every exponential scan below.

    def open_masks(self):
        if self._open_masks is None:
            self._open_masks = tuple(
                sum(1 << (u - 1) for u in self.adj[v]) for v in self.vertices()
            )
        return self._open_masks

    def closed_masks(self):
        if self._closed_masks is None:
            opens = self.open_masks()
            self._closed_masks = tuple(m | (1 << i) for i, m in enumerate(opens))
        return self._closed_masks

    def alpha_table(self):
        """Independence number of every induced subgraph, indexed by vertex bitmask.

        Entry ``t[m]`` is the independence number of the subgraph induced by
        ``{v : bit v-1 of m set}``.  One byte per subset: the table's 2^n
        entries are spent up front against the 2^cap budget.
        """
        if self._alpha is None:
            budget(f"alpha_table over {self.n} vertices")(1 << self.n)
            closed = self.closed_masks()
            table = bytearray(1 << self.n)
            for m in range(1, 1 << self.n):
                low = m & -m
                # either the lowest vertex is excluded, or included with its
                # closed neighborhood removed
                a = table[m ^ low]
                b = 1 + table[m & ~closed[low.bit_length() - 1]]
                table[m] = b if b > a else a
            self._alpha = table
        return self._alpha


# -- generators --------------------------------------------------------------


def path(n):
    """Path on n >= 1 consecutively labelled vertices."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    """Cycle on n >= 3 consecutively labelled vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n):
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, list(combinations(range(1, n + 1), 2)))


def complete_multipartite(*parts):
    """K_{n_1,...,n_k}; vertices of part i form a consecutive block."""
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"multipartite parts must be positive, got {parts}")
    n = sum(parts)
    block = []
    start = 1
    for p in parts:
        block.append(range(start, start + p))
        start += p
    edges = [
        (u, v)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for u in block[i]
        for v in block[j]
    ]
    return Graph(n, edges)


def _product_family(factors, dims):
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"product dimensions must be positive, got {dims}")
    tuples = list(product(*(range(1, d + 1) for d in dims)))
    index = {t: i + 1 for i, t in enumerate(tuples)}
    edges = set()
    for t, i in index.items():
        for axis, fac in enumerate(factors):
            for w in fac.adj[t[axis]]:
                s = t[:axis] + (w,) + t[axis + 1 :]
                j = index[s]
                if i < j:
                    edges.add((i, j))
    return Graph(len(tuples), sorted(edges))


def grid(*dims):
    """Cartesian product of paths P_{d_1} x ... x P_{d_k}; vertex i is the
    i-th coordinate tuple in lexicographic order."""
    return _product_family([path(d) for d in dims], dims)


def rook(*dims):
    """Cartesian product of complete graphs K_{d_1} x ... x K_{d_k}, on the
    vertex order of ``grid``."""
    return _product_family([complete(d) for d in dims], dims)


def disjoint_union(*graphs):
    """Disjoint union: vertex v of the i-th graph becomes v plus the orders of
    the graphs before it, so each component is a contiguous block."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def induced_subgraph(g, vs):
    """Subgraph induced by ``vs``: vertex i is the i-th smallest vertex of ``vs``."""
    keep = sorted(set(vs))
    for v in keep:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    index = {v: i + 1 for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in combinations(keep, 2) if v in g.adj[u]
    ]
    return Graph(len(keep), edges)


def delete_vertices(g, vs):
    """g minus the vertices in ``vs``: vertex i is the i-th smallest survivor."""
    drop = set(vs)
    return induced_subgraph(g, [v for v in g.vertices() if v not in drop])


def graph_power(g, r):
    """Same vertex set; uv is an edge iff the distance in g is at most r."""
    if r < 1:
        raise ValueError(f"graph power needs r >= 1, got {r}")
    edges = []
    for u in g.vertices():
        dist = bfs_distances(g, u)
        edges.extend((u, v) for v, d in dist.items() if u < v and d <= r)
    return Graph(g.n, edges)


# -- measurements ------------------------------------------------------------


def bfs_distances(g, source, skip_edge=None):
    """BFS distance map from ``source``; unreachable vertices are absent.

    ``skip_edge`` suppresses one edge (used by the girth scan).
    """
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if skip_edge and {u, v} == skip_edge:
                continue
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def girth(g):
    """Length of a shortest cycle, or math.inf for forests."""
    best = inf
    for u, v in g.edges():
        detour = bfs_distances(g, u, skip_edge={u, v}).get(v)
        if detour is not None and detour + 1 < best:
            best = detour + 1
            if best == 3:
                break
    return best


def independence_number(g):
    """Exact independence number by branch-and-bound.

    Branches on the highest-degree vertex remaining and prunes with the
    trivial cardinality bound.  Each branch-and-bound node counts one unit
    against the 2^cap budget.
    """
    if g.n == 0:
        return 0
    spend = budget(f"independence number search over {g.n} vertices")
    order = sorted(range(g.n), key=lambda i: -len(g.adj[i + 1]))
    opens = g.open_masks()
    best = 0

    def walk(cand, size):
        nonlocal best
        spend()
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            for i in order:
                if cand >> i & 1:
                    break
            bit = 1 << i
            cand ^= bit
            walk(cand & ~opens[i], size + 1)

    walk((1 << g.n) - 1, 0)
    return best


def _is_simplicial(nb_mask, closed):
    """Is a vertex with (restricted) neighborhood mask ``nb_mask`` simplicial?"""
    m = nb_mask
    while m:
        low = m & -m
        m ^= low
        if nb_mask & ~closed[low.bit_length() - 1]:
            return False
    return True


def chordal_elimination(g):
    """Perfect elimination ordering if g is chordal, else None.

    Repeatedly deletes a simplicial vertex (one whose neighborhood induces a
    complete graph); success is equivalent to chordality.
    """
    closed = g.closed_masks()
    opens = g.open_masks()
    remaining = (1 << g.n) - 1
    order = []
    for _ in range(g.n):
        found = None
        m = remaining
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            if _is_simplicial(opens[i] & remaining, closed):
                found = i
                break
        if found is None:
            return None
        order.append(found + 1)
        remaining ^= 1 << found
    return order


# -- serialization and descriptors --------------------------------------------


def graph_to_json(g):
    """JSON object {"n": ..., "edges": [[u, v], ...]} with u < v, sorted."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json(obj):
    if not isinstance(obj, dict):
        raise GraphFormatError(f"graph JSON must be an object, got {type(obj).__name__}")
    if "n" not in obj:
        raise GraphFormatError('graph JSON is missing the "n" field')
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise GraphFormatError(f'"n" must be a nonnegative integer, got {n!r}')
    raw = obj.get("edges", [])
    if not isinstance(raw, list):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    edges = []
    seen = set()
    for i, e in enumerate(raw):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(_is_int(x) for x in e)
        ):
            raise GraphFormatError(f"edges[{i}]: expected [u, v] integers, got {e!r}")
        u, v = e
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"edges[{i}]: endpoint out of range 1..{n}: {e!r}")
        if u >= v:
            raise GraphFormatError(f"edges[{i}]: endpoints must satisfy u < v: {e!r}")
        if (u, v) in seen:
            raise GraphFormatError(f"edges[{i}]: duplicate edge {e!r}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def _is_int(x):
    # JSON true/false arrive as bool, a subclass of int; they are not integers here
    return isinstance(x, int) and not isinstance(x, bool)


def _int_args(parts, descriptor, count=None):
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError(f"non-integer parameter in descriptor {descriptor!r}") from None
    if count is not None and len(values) != count:
        raise GraphFormatError(
            f"descriptor {descriptor!r} expects {count} parameter(s), got {len(values)}"
        )
    return values


def from_descriptor(text):
    """Build a graph from a family descriptor.

    Grammar: ``path:N``, ``cycle:N``, ``complete:N``, ``pathpow:N:R``,
    ``cyclepow:N:R``, ``multipartite:N1,N2,...``, ``grid:N1,N2,...``,
    ``rook:N1,N2,...``, ``union:DESC+DESC+...`` (components may be any
    non-union descriptor).
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    try:
        if family == "path":
            return path(*_int_args([rest], text, 1))
        if family == "cycle":
            return cycle(*_int_args([rest], text, 1))
        if family == "complete":
            return complete(*_int_args([rest], text, 1))
        if family == "pathpow":
            n, r = _int_args(rest.split(":"), text, 2)
            return graph_power(path(n), r)
        if family == "cyclepow":
            n, r = _int_args(rest.split(":"), text, 2)
            return graph_power(cycle(n), r)
        if family == "multipartite":
            return complete_multipartite(*_int_args(rest.split(","), text))
        if family == "grid":
            return grid(*_int_args(rest.split(","), text))
        if family == "rook":
            return rook(*_int_args(rest.split(","), text))
        if family == "union":
            comps = rest.split("+")
            if any(c.startswith("union") for c in comps):
                raise GraphFormatError("union descriptors cannot nest")
            return disjoint_union(*(from_descriptor(c) for c in comps))
    except ValueError as exc:
        raise GraphFormatError(f"bad descriptor {text!r}: {exc}") from None
    raise GraphFormatError(f"unknown graph family in descriptor {text!r}")
