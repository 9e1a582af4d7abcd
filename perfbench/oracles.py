"""Answers the benchmark checks the program against, computed without it.

Nothing here imports ``cutcomplexes``.  The closed forms are the paper's
theorems (and the classical results it builds on); the group arithmetic is
the Kunneth formula for joins; the counting helpers count simplices straight
from facet lists.  ``selfcheck`` pins every oracle to cases worked by hand,
so a wrong oracle cannot pass a wrong program.

A homology profile here is a dict ``degree -> (betti, torsion)`` holding only
the nonzero groups, with torsion as a sorted tuple of invariant factors > 1.
A claim is ``("void",)``, ``("contractible",)`` or ``("wedge", dim, count)``.
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from math import comb, gcd

# -- finitely generated abelian groups ------------------------------------------


def _prime_powers(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


def invariant_factors(orders):
    """Invariant factors (> 1, ascending) of the sum of cyclic groups Z/m, m in orders."""
    by_prime = {}
    for m in orders:
        for p, q in _prime_powers(abs(m)):
            by_prime.setdefault(p, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = []
    for i in range(length):
        f = 1
        for qs in by_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return tuple(sorted(factors))


def _tensor(a, b):
    (fa, ta), (fb, tb) = a, b
    torsion = list(ta) * fb + list(tb) * fa + [gcd(s, t) for s in ta for t in tb]
    return fa * fb, torsion


def _tor(a, b):
    return 0, [gcd(s, t) for s in a[1] for t in b[1]]


def _normalize(acc):
    out = {}
    for q, (free, torsion) in acc.items():
        factors = invariant_factors(torsion)
        if free or factors:
            out[q] = (free, factors)
    return out


def join_profile(p, q):
    """Kunneth for joins: H~_{n+1}(A*B) = sum_{i+j=n} H~_i(A) (x) H~_j(B)
    + sum_{i+j=n-1} Tor(H~_i(A), H~_j(B))."""
    acc = {}

    def add(deg, group):
        free, torsion = acc.get(deg, (0, []))
        acc[deg] = (free + group[0], torsion + group[1])

    for i, a in p.items():
        for j, b in q.items():
            add(i + j + 1, _tensor(a, b))
            add(i + j + 2, _tor(a, b))
    return _normalize(acc)


def shift_profile(p, by=1):
    return {q + by: g for q, g in p.items()}


def sphere(dim, count=1):
    return {dim: (count, ())}


RP2_PROFILE = {1: (0, (2,))}
EMPTY_SIMPLEX_PROFILE = {-1: (1, ())}  # the complex {emptyset}, unit for joins

# standard 6-vertex, 10-facet triangulation of the real projective plane
RP2_FACETS = (
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
    (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
)

# -- closed forms from the paper --------------------------------------------------


def claim_text(claim):
    """The report's wording of an expected answer."""
    if claim[0] != "wedge":
        return claim[0]
    _, dim, count = claim
    return f"S^{dim}" if count == 1 else f"{count}*S^{dim}"


def claim_profile(claim):
    """(void flag, profile) a complex of this homotopy type must have."""
    if claim[0] == "void":
        return True, {}
    if claim[0] == "contractible":
        return False, {}
    return False, sphere(claim[1], claim[2])


def profile_text(void, profile):
    """The report's wording of a homology profile."""
    if void:
        return "void"
    if not profile:
        return "0"
    parts = []
    for q in sorted(profile):
        free, torsion = profile[q]
        summands = []
        if free == 1:
            summands.append("Z")
        elif free:
            summands.append(f"Z^{free}")
        summands.extend(f"Z/{t}" for t in torsion)
        parts.append(f"H~{q}={'+'.join(summands)}")
    return ", ".join(parts)


def dual_wedge(claim, n):
    """Alexander duality on n ground vertices: a wedge of S^j becomes S^(n-j-3)."""
    _, dim, count = claim
    return ("wedge", n - dim - 3, count)


def cycle_bi(n, d):
    """BI_d(C_n) = S^(2d-3) for n >= 2d; also C_n^p in the stable range."""
    return ("wedge", 2 * d - 3, 1)


def cycle_cut(n, d):
    """Total d-cut complex of C_n (and of C_n^p in the stable range): S^(n-2d)."""
    return ("wedge", n - 2 * d, 1)


def clique_complex_cycle_power(n, r):
    """Adamaszek: with l the index for which r/n lies in [l/(2l+1), (l+1)/(2l+3)),
    Cl(C_n^r) is a wedge of n-2r-1 spheres S^(2l) on the left end, else S^(2l+1)."""
    if r < 1 or 2 * r >= n:
        raise ValueError(f"need 1 <= r < n/2, got n={n}, r={r}")
    l = 0
    while not (r * (2 * l + 3) < (l + 1) * n):
        l += 1
    if r * (2 * l + 1) == l * n:
        return ("wedge", 2 * l, n - 2 * r - 1)
    return ("wedge", 2 * l + 1, 1)


def cycle_power_cut2(n, r):
    """The paper's case split for the 2-total cut complex of C_n^r: the
    Alexander dual of the clique complex (BI_2 is the clique complex)."""
    return dual_wedge(clique_complex_cycle_power(n, r), n)


def grid_count(dims):
    """Cycle rank E - V + 1 of the grid P_d1 x ... x P_dk (triangle-free)."""
    v = 1
    for d in dims:
        v *= d
    e = sum((d - 1) * (v // d) for d in dims)
    return e - v + 1


def rook_count(dims):
    """K_d1 x ... x K_dk: the clique complex is a union of line simplices
    meeting pairwise in at most a vertex, so a wedge of (k-1)V + 1 - #lines circles."""
    v = 1
    for d in dims:
        v *= d
    return (len(dims) - 1) * v + 1 - sum(v // d for d in dims)


def multipartite_bi(parts, d):
    """BI_d(K_{n1..nk}) is the join of the (d-2)-skeleta of the part simplices."""
    if min(parts) <= d - 1:
        return ("contractible",)
    count = 1
    for p in parts:
        count *= comb(p - 1, d - 1)
    return ("wedge", len(parts) * (d - 1) - 1, count)


def multipartite_cut(parts, d):
    """Independent d-sets lie inside one part: void if no part reaches d."""
    if max(parts) <= d - 1:
        return ("void",)
    bi = multipartite_bi(parts, d)
    if bi[0] == "contractible":
        return bi
    return dual_wedge(bi, sum(parts))


def chordal_union_bi(k, d):
    """BI_d of a disjoint union of k chordal graphs: wedge of C(k-1, d-1) S^(d-2)."""
    if k <= d - 1:
        return ("contractible",)
    return ("wedge", d - 2, comb(k - 1, d - 1))


def poset_order_complex(d, k):
    """Composition poset at m = d + k - 1: wedge of C(k-1, d-1) spheres S^(d-2)."""
    if k <= d - 1:
        return ("contractible",)
    return ("wedge", d - 2, comb(k - 1, d - 1))


def partitions(total):
    """Nondecreasing partitions of ``total`` into at least two parts."""
    out = []

    def rec(remaining, smallest, prefix):
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(tuple(prefix))
            return
        for part in range(smallest, remaining + 1):
            rec(remaining - part, part, prefix + [part])

    rec(total, 1, [])
    return out


# -- closed forms for the ids of the verification report ---------------------------

_UNION_PART = re.compile(r"^(?:(\d+)x)?P(\d+)(?:\^\d+)?$")


def _union_order(tag):
    n = 0
    for piece in tag.split("+"):
        m = _UNION_PART.match(piece)
        if not m:
            raise ValueError(f"unreadable union tag {tag!r}")
        n += int(m.group(1) or 1) * int(m.group(2))
    return n


def _dims(tag):
    return tuple(int(x) for x in tag.split("x"))


def expected_for_id(entry_id):
    """The closed-form claim of a theorem entry, or None for entries that are
    not theorem instances (predicates, informational profiles, range notes)."""
    parts = entry_id.split("/")
    suite = parts[0]

    def num(field):  # "d3" -> 3
        return int(field[1:])

    if suite == "cycles":
        d, n, kind = num(parts[1]), num(parts[2]), parts[3]
        return cycle_cut(n, d) if kind == "totalcut" else cycle_bi(n, d)
    if suite == "cyclepowers":
        family = parts[1]
        if family == "stable":
            d, n, kind = num(parts[2]), num(parts[4]), parts[5]
            return cycle_cut(n, d) if kind == "totalcut" else cycle_bi(n, d)
        if family == "tight":
            return ("wedge", num(parts[2]) - 1, 1)
        if family == "case" and parts[3] != "middle-range":
            return cycle_power_cut2(num(parts[3]), num(parts[2]))
        return None
    if suite == "products":
        dims = _dims(parts[2])
        count = grid_count(dims) if parts[1] == "grid" else rook_count(dims)
        v = 1
        for x in dims:
            v *= x
        return ("wedge", 1, count) if parts[3] == "bi" else ("wedge", v - 4, count)
    if suite == "unions":
        d, k = num(parts[2]), num(parts[3])
        bi = chordal_union_bi(k, d)
        if parts[1] == "bi":
            return bi
        return dual_wedge(bi, _union_order(parts[4]))
    if suite == "poset":
        return poset_order_complex(num(parts[2]), num(parts[3]))
    if suite == "multipartite":
        d, group = num(parts[1]), tuple(int(p) for p in parts[2].split("+"))
        return multipartite_bi(group, d) if parts[3] == "bi" else multipartite_cut(group, d)
    return None


# suites whose entries are all theorem instances, apart from the listed kinds
THEOREM_SUITES = ("cycles", "cyclepowers", "products", "unions", "poset", "multipartite")
NON_THEOREM_IDS = re.compile(r"^cyclepowers/(conjectural/|case/r\d+/middle-range$)")

# -- counting straight from facets ---------------------------------------------------


def reduced_euler_from_facets(n, facet_masks):
    """Reduced Euler characteristic (empty simplex included) of the complex
    generated by ``facet_masks`` on ground bits 0..n-1, counted exhaustively."""
    import numpy as np

    if not facet_masks:
        return 0
    member = np.zeros(1 << n, dtype=bool)
    member[np.asarray(facet_masks, dtype=np.int64)] = True
    for b in range(n):
        view = member.reshape(-1, 2, 1 << b)
        view[:, 0, :] |= view[:, 1, :]
    odd = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1
    n_odd = int(np.count_nonzero(member & (odd == 1)))
    n_even = int(np.count_nonzero(member)) - n_odd
    return n_odd - n_even  # (-1)^(|s|-1) summed over simplices s


def independent_set_masks(n, edges, d):
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    out = []
    for combo in combinations(range(n), d):
        m = 0
        for i in combo:
            m |= 1 << i
        if all(not (adj[i] & m) for i in combo):
            out.append(m)
    return out


def to_mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


# -- planted invariant factors ---------------------------------------------------------


def planted_matrix(rng, blocks, size, rank, shears):
    """A square integer matrix with known invariant factors.

    Each of ``blocks`` diagonal blocks (``size`` x ``size``) starts as a
    divisibility chain of ``rank`` non-unit-stepped entries and is scrambled
    by ``shears`` random elementary row and column operations (unimodular,
    so the Smith normal form is unchanged); rows and columns of the whole
    matrix are then shuffled.  Scrambling within small blocks bounds the
    entry growth, so the matrix costs every seed about the same to reduce.
    Returns (matrix, planted diagonal).
    """
    n = blocks * size
    mat = [[0] * n for _ in range(n)]
    diag = []
    for b in range(blocks):
        block = range(b * size, (b + 1) * size)
        cur = 1
        for i in block[:rank]:
            cur *= rng.choice((1, 1, 2, 3))
            mat[i][i] = cur
            diag.append(cur)
        for _ in range(shears):
            i, j = rng.sample(block, 2)
            c = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                for col in block:
                    mat[i][col] += c * mat[j][col]
            else:
                for row in block:
                    mat[row][i] += c * mat[row][j]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[mat[r][c] for c in cols] for r in rows], diag


def planted_chain_matrix(rng, n, rank, shears):
    """A square integer matrix with known invariant factors, scrambled as a whole.

    ``rank`` diagonal entries drawn from 1, 2, 3, 4 and 6 sit at random places
    on the diagonal.  Each of ``shears`` random elementary operations adds
    +-1 or +-2 times a row (column) to its neighbouring row (column), so the
    scrambling couples every row and column along one chain through the whole
    matrix, and fill-in can run along it.  Rows and columns are then shuffled.
    Returns (matrix, planted diagonal).
    """
    mat = [[0] * n for _ in range(n)]
    diag = []
    for i in sorted(rng.sample(range(n), rank)):
        mat[i][i] = rng.choice((1, 1, 2, 3, 4, 6))
        diag.append(mat[i][i])
    for _ in range(shears):
        i = rng.randrange(n - 1)
        dst, src = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            for col in range(n):
                mat[dst][col] += c * mat[src][col]
        else:
            for row in range(n):
                mat[row][dst] += c * mat[row][src]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[mat[r][c] for c in cols] for r in rows], diag


def bareiss_det(matrix):
    """Exact determinant by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- hand-worked cases ------------------------------------------------------------------


def selfcheck():
    """Raise AssertionError if any oracle disagrees with a case known by hand."""
    import networkx as nx

    def check(cond, what):
        if not cond:
            raise AssertionError(f"oracle self-check failed: {what}")

    # group arithmetic
    check(invariant_factors([2, 3]) == (6,), "Z/2+Z/3 = Z/6")
    check(invariant_factors([4, 6]) == (2, 12), "Z/4+Z/6 = Z/2+Z/12")
    check(invariant_factors([2, 2, 3]) == (2, 6), "Z/2+Z/2+Z/3 = Z/2+Z/6")
    check(invariant_factors([1, 1]) == (), "trivial summands vanish")
    s0 = sphere(0)
    check(join_profile(s0, s0) == sphere(1), "S0*S0 = S1")
    check(join_profile(sphere(1), sphere(2)) == sphere(4), "S1*S2 = S4")
    check(join_profile(RP2_PROFILE, s0) == {2: (0, (2,))}, "suspension of RP2")
    check(
        join_profile(RP2_PROFILE, RP2_PROFILE) == {3: (0, (2,)), 4: (0, (2,))},
        "RP2*RP2 has H~3 = H~4 = Z/2",
    )
    check(join_profile(RP2_PROFILE, EMPTY_SIMPLEX_PROFILE) == RP2_PROFILE, "{0}*K = K")
    z3 = {1: (0, (3,))}
    check(join_profile(RP2_PROFILE, z3) == {}, "Z/2 and Z/3 neither tensor nor Tor")
    check(profile_text(False, {3: (2, (2, 4))}) == "H~3=Z^2+Z/2+Z/4", "profile wording")

    # closed forms at small cases drawn by hand
    check(grid_count((2, 2)) == 1 and grid_count((2, 3)) == 2, "grid cycle rank")
    check(grid_count((3, 3)) == 4 and grid_count((2, 2, 2)) == 5, "grid/cube cycle rank")
    check(rook_count((2, 2)) == 1 and rook_count((3, 3)) == 4, "rook K_a x K_b")
    check(rook_count((2, 2, 2)) == 5, "rook K2^3 is the cube")
    check(multipartite_bi((2, 2), 2) == ("wedge", 1, 1), "K_{2,2} = C4 is a circle")
    check(multipartite_bi((1, 3), 2) == ("contractible",), "a star is a cone")
    check(multipartite_cut((1, 1, 1), 2) == ("void",), "K3 has no independent pair")
    check(multipartite_cut((3, 3), 2) == ("wedge", 6 - 2 - 2, 4), "K_{3,3} cut")
    check(clique_complex_cycle_power(4, 1) == ("wedge", 1, 1), "C4 is a circle")
    check(clique_complex_cycle_power(6, 2) == ("wedge", 2, 1), "octahedron")
    check(clique_complex_cycle_power(8, 3) == ("wedge", 3, 1), "cross-polytope S3")
    check(clique_complex_cycle_power(9, 3) == ("wedge", 2, 2), "C9^3: two 2-spheres")
    check(cycle_power_cut2(8, 3) == ("wedge", 2, 1), "n = 2r+2 gives S^(r-1)")
    check(cycle_cut(6, 2) == ("wedge", 2, 1) and cycle_bi(6, 3) == ("wedge", 3, 1), "cycles")
    check(chordal_union_bi(5, 2) == ("wedge", 0, 4), "five components, four points")
    check(expected_for_id("unions/totalcut/d2/k5/5xP2") == ("wedge", 7, 4), "5xP2 cut")
    check(poset_order_complex(2, 1) == ("contractible",), "poset k < d")
    check(partitions(4) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2)], "partitions of 4")
    check(claim_text(("wedge", 7, 4)) == "4*S^7" and claim_text(("void",)) == "void", "claims")

    # counting straight from facets
    check(reduced_euler_from_facets(3, [0b111]) == 0, "a simplex is acyclic")
    check(reduced_euler_from_facets(3, [0b011, 0b110, 0b101]) == -1, "triangle boundary")
    check(reduced_euler_from_facets(2, [0b01, 0b10]) == 1, "two points")
    check(len(independent_set_masks(5, [(i, i % 5 + 1) for i in range(1, 6)], 2)) == 5, "C5")

    # networkx on hand-drawn graphs
    c5 = nx.cycle_graph(5)
    check(sorted(len(c) for c in nx.find_cliques(c5)) == [2] * 5, "C5 cliques are edges")
    check([sorted(c) for c in nx.find_cliques(nx.complete_graph(4))] == [[0, 1, 2, 3]], "K4")
    check(max(len(c) for c in nx.find_cliques(nx.complement(c5))) == 2, "alpha(C5) = 2")

    # planted factors
    hand = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]  # Smith form diag(2, 6, 12)
    check(abs(bareiss_det(hand)) == 2 * 6 * 12, "determinant of the textbook example")
    rng = random.Random(7)
    mat, diag = planted_matrix(rng, 2, 4, 4, 30)
    check(abs(bareiss_det(mat)) == _product(diag), "planting keeps |det|")
    check(all(b % a == 0 for a, b in zip(diag[:4], diag[1:4])), "planted blocks divide up")
    mat, diag = planted_chain_matrix(rng, 8, 6, 40)
    check(abs(bareiss_det(mat)) == 0 and len(diag) == 6, "a rank-6 plant on 8 rows is singular")
    mat, diag = planted_chain_matrix(rng, 8, 8, 40)
    check(abs(bareiss_det(mat)) == _product(diag), "chain planting keeps |det|")
    check(expected_for_id("multipartite/d2/3+3/totalcut") == ("wedge", 2, 4), "K_{3,3} cut id")


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out
