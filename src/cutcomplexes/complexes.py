"""Simplicial complexes with explicit ground sets, and the graph complexes built on them.

A complex is facet-represented: the ground set is declared (phantom vertices
allowed), the facets are the inclusion-maximal simplices, and the void complex
(no simplices at all) is distinct from ``{emptyset}`` (exactly one empty
facet).  A complex holds its sorted ground tuple and its facets as bitmasks
over it, and nothing else; every construction below works on the masks,
except ``join`` and ``relabel_complex``, which reorder the ground set and go
through vertex sets.  Simplices are enumerated on demand by one budgeted face
walk (``SimplicialComplex.face_levels``).

The two graph complexes:

* ``total_cut_complex(g, d)``: vertex sets whose complement induces a
  subgraph with an independent set of size d.  Its facets are exactly the
  complements of the independent d-sets.
* ``bounded_independence_complex(g, d)``: vertex sets inducing subgraphs
  with independence number below d (the clique complex at d = 2).  Its
  facets are the complements of the minimal transversals of the independent
  d-sets.

The two are Alexander duals of one another, and ``alexander_dual`` finds
its facets with the same ``minimal_transversals`` routine.  The suites build
their identities from link, deletion, join, union, intersection and
relabelling; homology runs on the strong-collapse core (``strong_core``), and
its riders check skeleton fullness and the dual.  Complexes cross the CLI as
JSON (``complex_to_json``, ``complex_from_json``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .graphs import Graph, _is_int
from .limits import budget


def _prune_to_maximal(masks):
    """Inclusion-maximal masks, deduplicated, sorted descending by popcount.

    A mask can lie only inside one of larger popcount, so each is tested
    against those kept masks alone; equal-size masks are never compared.
    """
    kept, larger, size = [], [], None
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        if m.bit_count() != size:
            size, larger = m.bit_count(), kept[:]
        if not any(m & ~k == 0 for k in larger):
            kept.append(m)
    return kept


def _vertex_masks(ground, vertex_sets):
    """The bitmask over ``ground`` of each vertex set, in order."""
    bit = {v: 1 << i for i, v in enumerate(ground)}
    masks = []
    for i, f in enumerate(vertex_sets):
        m = 0
        for v in f:
            if v not in bit:
                raise ValueError(f"facets[{i}]: vertex {v} is not in the ground set")
            m |= bit[v]
        masks.append(m)
    return masks


class SimplicialComplex:
    """Immutable abstract simplicial complex on a declared ground set.

    It holds the sorted ``ground`` tuple and the ascending bitmasks of its
    facets (bit i stands for ``ground[i]``); ``facets`` spells them out as
    vertex sets on demand.
    """

    __slots__ = ("ground", "_facet_masks")

    def __init__(self, ground, facets):
        self.ground = tuple(sorted(set(ground)))
        masks = set(_vertex_masks(self.ground, facets))
        self._facet_masks = sorted(_prune_to_maximal(masks))
        if len(self._facet_masks) != len(masks):
            f = min(masks.difference(self._facet_masks))
            g = next(g for g in self._facet_masks if f & ~g == 0)
            raise ValueError(f"facet {self._unmask(f)} is contained in {self._unmask(g)}")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_facet_candidates(cls, ground, candidates):
        """Build from arbitrary generating sets; dominated sets are pruned."""
        ground = tuple(sorted(set(ground)))
        return cls._from_masks(ground, _prune_to_maximal(_vertex_masks(ground, candidates)))

    @classmethod
    def _from_masks(cls, ground, facet_masks):
        """Trusted fast path: ``ground`` must be sorted and ``facet_masks``
        maximal."""
        self = object.__new__(cls)
        self.ground = tuple(ground)
        self._facet_masks = sorted(facet_masks)
        return self

    def _unmask(self, m):
        ground = self.ground
        out = []
        while m:
            low = m & -m
            m ^= low
            out.append(ground[low.bit_length() - 1])
        return out

    def facet_masks(self):
        return self._facet_masks

    @property
    def facets(self):
        """The facets as a frozenset of vertex frozensets."""
        return frozenset(frozenset(self._unmask(m)) for m in self._facet_masks)

    # -- structure ------------------------------------------------------------

    @property
    def is_void(self):
        return not self._facet_masks

    def dim(self):
        """Dimension; -1 for {emptyset}, None for the void complex."""
        if self.is_void:
            return None
        return max(m.bit_count() for m in self._facet_masks) - 1

    def contains(self, vertices):
        """Membership test: is ``vertices`` a simplex?"""
        try:
            (m,) = _vertex_masks(self.ground, [vertices])
        except ValueError:
            return False
        return any(m & ~f == 0 for f in self._facet_masks)

    def face_levels(self, cap=None):
        """Yield ``(t, set of t-face masks)`` from the largest facets down.

        Level t is the facets of size t and every one-vertex deletion of a
        face in level t+1.  Every face counts against the 2^cap budget
        (``limits.budget``), checked after each coface.  The void complex has
        no levels.
        """
        spend = budget(f"simplex enumeration over {len(self.ground)} ground vertices", cap)
        left = spend(0)
        by_size = {}
        for f in self.facet_masks():
            by_size.setdefault(f.bit_count(), []).append(f)
        level = ()
        for t in range(max(by_size, default=-1), -1, -1):
            below = set(by_size.get(t, ()))
            for m in level:
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    below.add(m ^ low)
                if len(below) > left:
                    spend(len(below))  # more than is left: raises
            left = spend(len(below))
            yield t, below
            level = below

    def simplex_masks(self, cap=None):
        """All simplices as bitmasks, ascending; the face walk's budget applies."""
        return sorted(m for _, level in self.face_levels(cap) for m in level)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self._facet_masks == other._facet_masks

    def __hash__(self):
        return hash((self.ground, tuple(self._facet_masks)))

    def __repr__(self):
        if self.is_void:
            return f"SimplicialComplex(void on {len(self.ground)} vertices)"
        return (
            f"SimplicialComplex({len(self.ground)} ground vertices, "
            f"{len(self._facet_masks)} facets, dim {self.dim()})"
        )


# -- elementary complexes ------------------------------------------------------


def full_simplex(vertices):
    vertices = tuple(sorted(set(vertices)))
    return SimplicialComplex(vertices, [vertices])


def simplex_boundary(vertices):
    """Boundary of the full simplex: all proper subsets of ``vertices``."""
    vertices = tuple(sorted(set(vertices)))
    if not vertices:
        raise ValueError("boundary needs at least one vertex")
    if len(vertices) == 1:
        return SimplicialComplex(vertices, [frozenset()])
    facets = [set(vertices) - {v} for v in vertices]
    return SimplicialComplex(vertices, facets)


def void_complex(ground=()):
    return SimplicialComplex(ground, [])


def empty_simplex_complex(ground=()):
    """The complex {emptyset} (every ground vertex phantom)."""
    return SimplicialComplex(ground, [frozenset()])


# -- hypergraph dualization ----------------------------------------------------


def minimal_transversals(edges, n, cap=None):
    """Minimal transversals of a hypergraph on vertices 0..n-1, ascending.

    ``edges`` are vertex bitmasks; a transversal is a vertex set meeting every
    edge.  MMCS (Murakami-Uno, Discrete Appl. Math. 170, 2014): grow a set S
    one vertex at a time from an uncovered edge with the fewest candidate
    vertices (the first such edge in input order), and prune as soon as some
    vertex of S has no critical edge (an edge meeting S in that vertex alone),
    since no superset of S is then minimal.  Each minimal transversal is found
    once, and the work in practice follows the output, not the 2^n subsets.
    No edges gives ``[0]``; an empty edge gives ``[]``.  Duplicate or
    non-minimal edges do not change the answer.  Each call of the search
    counts one unit against the 2^cap budget.

    The search holds sets of edges as bitmasks over edge indices:
    ``through[v]`` marks the edges that contain vertex v, so adding v to S
    removes ``through[v]`` from the uncovered edges and from every critical
    set, and its own critical set is the uncovered edges it meets.
    """
    edges = list(edges)
    found = []
    spend = budget(f"minimal transversal search over {n} vertices", cap)
    through = [0] * n
    for i, e in enumerate(edges):
        while e:
            low = e & -e
            e ^= low
            through[low.bit_length() - 1] |= 1 << i

    def walk(s, cand, uncov, crit):
        # crit[i] marks the edges meeting s only in its i-th vertex
        spend()
        if not uncov:
            found.append(s)
            return
        best = -1
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            hit = edges[low.bit_length() - 1] & cand
            count = hit.bit_count()
            if best < 0 or count < best:
                best, branch = count, hit
                if not count:
                    return  # no candidate covers this edge: a dead end
        cand ^= branch
        while branch:
            v = branch & -branch
            branch ^= v
            tv = through[v.bit_length() - 1]
            kept = [c & ~tv for c in crit]
            if all(kept):
                walk(s | v, cand, uncov & ~tv, kept + [uncov & tv])
            # later branches may add v, earlier ones may not: no repeats
            cand |= v

    walk(0, (1 << n) - 1, (1 << len(edges)) - 1, [])
    return sorted(found)


# -- graph complexes -----------------------------------------------------------


def independent_set_masks(g: Graph, d, cap=None):
    """Bitmasks of all independent d-subsets of V(g); the C(n, d) subsets
    tried are spent up front against the 2^cap budget."""
    budget(f"scan of the C({g.n}, {d}) vertex {d}-sets", cap)(comb(g.n, d))
    opens = g.open_masks()
    out = []
    for combo in combinations(range(g.n), d):
        m = 0
        ok = True
        for i in combo:
            if m & opens[i]:
                ok = False
                break
            m |= 1 << i
        if ok:
            out.append(m)
    return out


def _total_cut(g: Graph, d, cap=None):
    n = g.n
    ground = range(1, n + 1)
    full = (1 << n) - 1
    indep = independent_set_masks(g, d, cap)
    if not indep:
        return SimplicialComplex._from_masks(ground, [])
    facet_masks = sorted(full ^ s for s in indep)
    k = SimplicialComplex._from_masks(ground, facet_masks)
    return k


def total_cut_complex(g: Graph, d, cap=None):
    """Complex of vertex sets whose complement keeps an independent d-set.

    Facets are the complements of the independent d-sets, found by a scan
    that spends the 2^cap budget (equal-size sets never nest, so they are
    inclusion-maximal).  Void exactly when the independence number is < d.
    """
    if d < 2:
        raise ValueError(f"total cut complex needs d >= 2, got {d}")
    return _total_cut(g, d, cap)


def bounded_independence_complex(g: Graph, d, cap=None):
    """Complex of vertex sets inducing subgraphs with independence number < d.

    A vertex set is a simplex iff its complement meets every independent
    d-set, so the facets are the complements of the minimal transversals of
    the independent d-sets.  At d = 2 this is the clique complex of g.  The
    d-set scan and the transversal search each spend a 2^cap budget.
    """
    if d < 2:
        raise ValueError(f"bounded independence complex needs d >= 2, got {d}")
    n = g.n
    full = (1 << n) - 1
    transversals = minimal_transversals(independent_set_masks(g, d, cap), n, cap)
    return SimplicialComplex._from_masks(
        range(1, n + 1), [full ^ t for t in transversals]
    )


# -- constructions on complexes -------------------------------------------------


def alexander_dual(k: SimplicialComplex, cap=None):
    """Dual complex: sets whose ground-set complement is not a simplex of k.

    The facets of the dual are the complements of the minimal non-faces of k,
    which are the minimal transversals of the facet complements; the dual of
    the full simplex is void and the dual of the void complex is the full
    simplex.  The transversal search spends the 2^cap budget.
    """
    n = len(k.ground)
    if n == 0:
        raise ValueError("Alexander dual needs a nonempty ground set")
    full = (1 << n) - 1
    # the non-faces of k are the sets meeting every facet complement; a void
    # k has no facets, so its one minimal non-face is the empty set
    non_faces = minimal_transversals([full ^ f for f in k.facet_masks()], n, cap)
    return SimplicialComplex._from_masks(k.ground, [full ^ t for t in non_faces])


def strong_core(k: SimplicialComplex):
    """A strong-collapse core of k, homotopy equivalent to k.

    Repeatedly deletes a dominated vertex v: one whose star's facets all share
    some other vertex.  Such a deletion is a strong collapse, which preserves
    homotopy type (Barmak-Minian, DCG 2012).  The core's ground set is the
    surviving vertices; the void complex and {emptyset} come back unchanged,
    as does a complex with no dominated vertex and no phantom vertex.
    """
    facets = k.facet_masks()
    if not facets or facets == [0]:
        return k
    changed = True
    while changed:
        changed = False
        support = 0
        for f in facets:
            support |= f
        while support:
            v = support & -support
            support ^= v
            shared = -1
            for f in facets:
                if f & v:
                    shared &= f
            if shared == v:
                continue
            # v is dominated: replace each star facet f by f ^ v, keeping it
            # only if no facet outside the star contains it; the facets outside
            # stay maximal, since each f ^ v lies inside a former facet
            outside = [f for f in facets if not f & v]
            facets = outside + [
                f ^ v
                for f in facets
                if f & v and not any((f ^ v) & ~h == 0 for h in outside)
            ]
            changed = True
    support = 0
    for f in facets:
        support |= f
    if support == (1 << len(k.ground)) - 1:
        return k  # a deletion would have removed a vertex from the support
    return _restrict(k, support, facets)


def _restrict(k, keep, masks):
    """The complex whose facets are ``masks``, all inside the ground vertices
    that ``keep`` marks, with its ground set cut down to those vertices."""
    positions = [i for i in range(len(k.ground)) if keep >> i & 1]
    compressed = []
    for f in masks:
        m = 0
        for j, i in enumerate(positions):
            if f >> i & 1:
                m |= 1 << j
        compressed.append(m)
    return SimplicialComplex._from_masks([k.ground[i] for i in positions], compressed)


def _sigma_mask(k, sigma):
    sigma = set(sigma)
    for v in sigma:
        if v not in k.ground:
            raise ValueError(f"vertex {v} is not in the ground set")
    return _vertex_masks(k.ground, [sigma])[0]


def link(k: SimplicialComplex, sigma):
    """Link of sigma; ground set drops sigma's vertices.

    Void when sigma is not a simplex (in particular for phantom vertices),
    since then no facet contains it.  Distinct facets through sigma leave
    distinct, maximal links.
    """
    sm = _sigma_mask(k, sigma)
    full = (1 << len(k.ground)) - 1
    return _restrict(k, full ^ sm, [f ^ sm for f in k.facet_masks() if f & sm == sm])


def deletion(k: SimplicialComplex, sigma):
    """Deletion of sigma: simplices not containing sigma.  Ground set unchanged.

    No simplex avoids the empty set, so deleting it leaves the void complex.
    """
    sm = _sigma_mask(k, sigma)
    if not sm:
        return void_complex(k.ground)
    candidates = []
    for f in k.facet_masks():
        if f & sm != sm:
            candidates.append(f)
            continue
        # a facet through sigma keeps each face that misses one vertex of it
        rest = sm
        while rest:
            low = rest & -rest
            rest ^= low
            candidates.append(f ^ low)
    return SimplicialComplex._from_masks(k.ground, _prune_to_maximal(candidates))


def join(k1: SimplicialComplex, k2: SimplicialComplex):
    """Join: unions of a simplex from each; requires disjoint ground sets."""
    if set(k1.ground) & set(k2.ground):
        raise ValueError("join requires disjoint ground sets")
    ground = k1.ground + k2.ground
    facets2 = k2.facets
    facets = [f1 | f2 for f1 in k1.facets for f2 in facets2]
    # facets of a join of facet pairs are automatically maximal
    return SimplicialComplex(ground, facets)


def skeleton(k: SimplicialComplex, d):
    """Subcomplex of simplices with at most d+1 vertices.

    Its facets are the facets of k with at most d+1 vertices and the
    (d+1)-subsets of the larger ones; none of these contains another.  The
    C(|F|, d+1) subsets of every facet F are spent up front against the 2^cap
    budget.
    """
    if d < 0:
        raise ValueError(f"skeleton needs d >= 0, got {d}")
    masks = k.facet_masks()
    budget(f"{d}-skeleton of a complex on {len(k.ground)} vertices")(
        sum(comb(f.bit_count(), d + 1) for f in masks)
    )
    facets = set()
    for f in masks:
        if f.bit_count() <= d + 1:
            facets.add(f)
        else:
            bits = [1 << i for i in range(f.bit_length()) if f >> i & 1]
            facets.update(map(sum, combinations(bits, d + 1)))
    return SimplicialComplex._from_masks(k.ground, facets)


def is_skeleton_full(k: SimplicialComplex, d):
    """Is every (d+1)-subset of the ground set a simplex?

    Fullness of the d-skeleton certifies that the complex is (d-1)-connected.
    The C(n, d+1) subsets scanned are spent up front against the 2^cap budget.
    """
    if d < 0:
        return not k.is_void
    n = len(k.ground)
    budget(f"skeleton scan of the C({n}, {d + 1}) vertex {d + 1}-sets")(comb(n, d + 1))
    fmasks = k.facet_masks()
    bits = [1 << i for i in range(n)]
    for m in map(sum, combinations(bits, d + 1)):
        if not any(m & ~f == 0 for f in fmasks):
            return False
    return True


def complex_union(k1: SimplicialComplex, k2: SimplicialComplex):
    """Union of simplex sets; complexes must share a ground set."""
    if k1.ground != k2.ground:
        raise ValueError("union requires a shared ground set")
    masks = k1.facet_masks() + k2.facet_masks()
    return SimplicialComplex._from_masks(k1.ground, _prune_to_maximal(masks))


def complex_intersection(k1: SimplicialComplex, k2: SimplicialComplex):
    """Intersection of simplex sets; complexes must share a ground set."""
    if k1.ground != k2.ground:
        raise ValueError("intersection requires a shared ground set")
    masks = [f1 & f2 for f1 in k1.facet_masks() for f2 in k2.facet_masks()]
    return SimplicialComplex._from_masks(k1.ground, _prune_to_maximal(masks))


def relabel_complex(k: SimplicialComplex, mapping):
    """Push a complex through an injective vertex relabelling.

    ``mapping`` is a dict or callable old label -> new label.
    """
    f = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    new_ground = [f(v) for v in k.ground]
    if len(set(new_ground)) != len(new_ground):
        raise ValueError("relabelling must be injective")
    return SimplicialComplex(new_ground, [[f(v) for v in fac] for fac in k.facets])


# -- serialization ---------------------------------------------------------------


def complex_to_json(k: SimplicialComplex):
    return {
        "ground": list(k.ground),
        "facets": sorted(k._unmask(m) for m in k.facet_masks()),
        "void": k.is_void,
    }


def complex_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"complex JSON must be an object, got {type(obj).__name__}")
    for field in ("ground", "facets", "void"):
        if field not in obj:
            raise ValueError(f'complex JSON is missing the "{field}" field')
    ground, facets, void = obj["ground"], obj["facets"], obj["void"]
    if not _is_vertex_list(ground):
        raise ValueError('"ground" must be a list of integers')
    if len(set(ground)) != len(ground):
        raise ValueError(f'"ground" lists vertex {_repeated(ground)} twice')
    if not isinstance(void, bool):
        raise ValueError(f'"void" must be true or false, got {void!r}')
    if not isinstance(facets, list):
        raise ValueError('"facets" must be a list of vertex lists')
    first = {}
    for i, f in enumerate(facets):
        if not _is_vertex_list(f):
            raise ValueError(
                f"facets[{i}]: expected a list of integer vertices, got {f!r}"
            )
        if len(set(f)) != len(f):
            raise ValueError(f"facets[{i}]: vertex {_repeated(f)} appears twice")
        j = first.setdefault(frozenset(f), i)
        if j != i:
            raise ValueError(f"facets[{i}] repeats facets[{j}]")
    if void:
        if facets:
            raise ValueError("a void complex cannot list facets")
        return void_complex(ground)
    return SimplicialComplex(ground, facets)


def _repeated(vertices):
    """The first vertex that a list with repeats names a second time."""
    seen = set()
    for v in vertices:
        if v in seen:
            return v
        seen.add(v)


def _is_vertex_list(obj):
    return isinstance(obj, list) and all(_is_int(v) for v in obj)
