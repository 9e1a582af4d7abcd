"""Homology engine: Smith normal form, chain complexes, reduced/relative
homology, universal coefficients, and Alexander duality."""

import copy
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplexes import (
    Graph,
    HomologyProfile,
    SimplicialComplex,
    SizeCapError,
    WedgeClaim,
    alexander_duality_holds,
    bounded_independence_complex,
    chain_complex,
    cohomology_from_homology,
    complete_multipartite,
    cycle,
    full_simplex,
    graph_power,
    grid,
    is_skeleton_full,
    join,
    matches_wedge,
    reduced_homology,
    relative_homology,
    rook,
    simplex_boundary,
    skeleton,
    smith_normal_form,
    total_cut_complex,
    verify_alexander_duality,
    void_complex,
)
from cutcomplexes.complexes import empty_simplex_complex, relabel_complex, strong_core
from cutcomplexes.homology import (
    _check_boundary_squares_to_zero,
    homology_of_chain,
    relative_chain_complex,
)
from cutcomplexes import snf
from cutcomplexes.snf import _blocks, _to_rows, _unit_pivots, invariant_chain

# standard 6-vertex, 10-facet triangulation of the real projective plane
RP2_FACETS = [
    {1, 2, 5}, {1, 2, 6}, {1, 3, 4}, {1, 3, 5}, {1, 4, 6},
    {2, 3, 4}, {2, 3, 6}, {2, 4, 5}, {3, 5, 6}, {4, 5, 6},
]


def rp2():
    return SimplicialComplex(range(1, 7), RP2_FACETS)


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    )


@st.composite
def random_complexes(draw, max_ground=7):
    n = draw(st.integers(1, max_ground))
    ground = tuple(range(1, n + 1))
    n_facets = draw(st.integers(0, 5))
    facets = [
        draw(st.sets(st.sampled_from(ground), max_size=n)) for _ in range(n_facets)
    ]
    return SimplicialComplex.from_facet_candidates(ground, facets)


# -- Smith normal form -----------------------------------------------------------
#
# Oracles for the kernel in ``cutcomplexes.snf``, sharing no code with it: a
# textbook dense reduction whose diagonal is normalized by pairwise gcd/lcm
# sweeps, the rank by elimination over the rationals, and invariant factors
# read off prime-power decompositions.


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g > 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def chain_by_sweeps(values):
    """Replace pairs (a, b) with a not dividing b by (gcd, lcm) until none is left."""
    ones = sum(1 for v in values if abs(v) == 1)
    rest = sorted(abs(v) for v in values if abs(v) != 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                a, b = rest[i], rest[j]
                if b % a:
                    g = gcd(a, b)
                    rest[i], rest[j] = g, a * b // g
                    changed = True
        rest.sort()
    return [1] * ones + rest


def smith_normal_form_dense(matrix):
    """Textbook dense reduction; same contract as smith_normal_form."""
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    while True:
        # find a pivot below/right of (top, top-ish)
        pivot = None
        for i in range(top, m):
            for j in range(n):
                if a[i][j]:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            v = a[top][top]
            moved = False
            for i in range(top + 1, m):
                if a[i][top] % v:
                    g, x, y = _xgcd(v, a[i][top])
                    z, w = -(a[i][top] // g), v // g
                    for j in range(n):
                        ai, at = a[i][j], a[top][j]
                        a[top][j] = x * at + y * ai
                        a[i][j] = z * at + w * ai
                    moved = True
                    v = a[top][top]
            for i in range(top + 1, m):
                q = a[i][top] // v
                if q:
                    for j in range(n):
                        a[i][j] -= q * a[top][j]
            for j in range(top + 1, n):
                if a[top][j] % v:
                    g, x, y = _xgcd(v, a[top][j])
                    z, w = -(a[top][j] // g), v // g
                    for i in range(m):
                        at, aj = a[i][top], a[i][j]
                        a[i][top] = x * at + y * aj
                        a[i][j] = z * at + w * aj
                    moved = True
                    v = a[top][top]
            for j in range(top + 1, n):
                q = a[top][j] // v
                if q:
                    for i in range(m):
                        a[i][j] -= q * a[i][top]
            if not moved and all(a[i][top] == 0 for i in range(top + 1, m)) and all(
                a[top][j] == 0 for j in range(top + 1, n)
            ):
                break
        diag.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    factors = chain_by_sweeps(diag)
    return factors, len(factors)


def rational_rank(matrix):
    """Rank over the rationals by Gaussian elimination on fractions."""
    a = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def prime_power_chain(values):
    """Invariant factors of the sum of the Z/v, from each v's prime powers."""
    exponents = {}
    for v in values:
        v, p = abs(v), 2
        while p * p <= v:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
        if v > 1:
            exponents.setdefault(v, []).append(1)
    chain = [1] * len(values)
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            chain[-1 - i] *= p**e
    return chain


def planted_matrix(rng, blocks, size, rank, shears):
    """A square integer matrix with known invariant factors.

    Each of ``blocks`` diagonal blocks (``size`` x ``size``) starts as a
    divisibility chain of ``rank`` entries and is scrambled by ``shears``
    random elementary row and column operations; rows and columns of the
    whole matrix are then shuffled.  Returns (matrix, planted diagonal).
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


def test_snf_examples():
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form({}) == ([], 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)
    # gcd of entries is 2 and |det| = 8, so the chain is 2 | 4
    assert smith_normal_form([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert smith_normal_form_dense([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)


def test_invariant_chain_normalization():
    assert invariant_chain([6, 4]) == [2, 12]
    assert invariant_chain([1, 1, 5]) == [1, 1, 5]
    assert invariant_chain([]) == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-(10**4), 10**4).filter(bool),
            st.sampled_from([1, -1, 2, 3, 4, 6, 8, 9, 12, 18, 36]),
        ),
        max_size=40,
    )
)
def test_invariant_chain_matches_prime_powers(values):
    assert invariant_chain(values) == prime_power_chain(values)


def test_invariant_chain_of_units_is_linear():
    # every verify-all boundary ends with a call on units alone
    start = time.perf_counter()
    assert invariant_chain([1, -1] * 200_000) == [1] * 400_000
    assert time.perf_counter() - start < 2.0


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 10),
    # dense entries in -9..9, or sparse ones in -3..3 that mix unit pivots
    # with a non-unit residual
    st.sampled_from([(9, 1.0), (3, 0.4)]),
    st.randoms(use_true_random=False),
)
def test_snf_sparse_matches_dense_and_bareiss(m, n, entries, rng):
    bound, density = entries
    mat = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    factors, rank = smith_normal_form(mat)
    assert (factors, rank) == smith_normal_form_dense(mat)
    assert rank == rational_rank(mat)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)


def test_snf_big_entries_stay_exact():
    mat = [[2 ** 40, 3 ** 30], [5 ** 25, 7 ** 20]]
    factors, rank = smith_normal_form(mat)
    assert (factors, rank) == smith_normal_form_dense(mat)
    assert rank == 2
    # d1 * d2 = |det|
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert factors[0] * factors[1] == abs(det)


def unimodular_scramble(diag, size, rng, shears=40):
    """diag embedded in a size x size matrix, hit with random elementary ops."""
    mat = [[0] * size for _ in range(size)]
    for i, v in enumerate(diag):
        mat[i][i] = v
    for _ in range(shears):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-3, 3)
        if rng.random() < 0.5:
            for col in range(size):
                mat[i][col] += c * mat[j][col]
        else:
            for row in mat:
                row[i] += c * row[j]
    return mat


def test_snf_recovers_planted_invariant_factors():
    # unimodular operations cannot change the invariant factors
    rng = random.Random(42)
    cases = [
        ([2, 6, 12], 5),
        ([3, 3, 9], 4),
        ([1, 2, 4, 8], 6),
        ([5], 3),
        ([2, 10, 20, 40], 5),
    ]
    for _ in range(30):
        size = rng.randint(3, 9)
        cases.append(
            ([rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(rng.randint(1, size))], size)
        )
    for diag, size in cases:
        mat = unimodular_scramble(diag, size, rng, shears=rng.randint(5, 40))
        factors, rank = smith_normal_form(mat)
        assert rank == len(diag) == rational_rank(mat)
        assert factors == invariant_chain(diag)
        assert (factors, rank) == smith_normal_form_dense(mat)


def test_snf_pivot_column_collector():
    acc = set()
    assert smith_normal_form([[1, 0, 0], [0, -1, 0], [0, 0, 1]], pivot_cols=acc) == (
        [1, 1, 1], 3,
    )
    assert acc == {0, 1, 2}
    # a column that is only reached through the residual is no unit pivot
    acc = set()
    assert smith_normal_form({5: [(0, 1), (1, 2)], 7: [(1, 4)]}, pivot_cols=acc) == (
        [1, 4], 2,
    )
    assert acc == {0}
    acc = set()
    assert smith_normal_form({}, pivot_cols=acc) == ([], 0) and not acc
    # row keys and column keys differ: only the column keys are collected
    acc = set()
    assert smith_normal_form({10: [(3, 1)], 20: [(3, 1), (4, -1)]}, pivot_cols=acc) == (
        [1, 1], 2,
    )
    assert acc == {3, 4}
    # explicit zeros in (column, entry) pair rows are no entries
    assert smith_normal_form({0: [(0, 1), (1, 0)], 1: [(0, 0), (1, 3)]}) == ([1, 3], 2)


def test_snf_leaves_its_input_unchanged():
    rows = {0: [(0, 1), (1, 0), (2, 2)], 3: [(0, 0), (1, -1)], 4: [], 5: [(2, 4), (1, 2)]}
    lists = [[2, 4, 0], [1, 0, 0], [0, 0, 0], [6, 8, 1]]
    for mat in (rows, lists):
        before = copy.deepcopy(mat)
        smith_normal_form(mat, pivot_cols=set())
        assert mat == before
    # homology hands the chain complex's own column lists to the SNF
    for cc in (
        chain_complex(rp2()),
        full_chain_complex(simplex_boundary([1, 2, 3, 4, 5])),
        full_chain_complex(join(rp2(), simplex_boundary([7, 8, 9]))),
    ):
        before = copy.deepcopy(cc.columns)
        homology_of_chain(cc)
        assert cc.columns == before


def _residual_blocks(mat):
    rows = _to_rows(mat)
    _unit_pivots(rows)
    return list(_blocks(rows))


def test_snf_residual_splits_into_blocks():
    # three independent non-unit blocks and a unit part that touches one of them
    blocks = [[[2, 4], [6, 8]], [[3, 6], [9, 3]], [[4]]]
    size = sum(len(block) for block in blocks)
    mat = [[0] * (size + 1) for _ in range(size + 1)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                mat[at + i][at + j] = v
        at += len(block)
    mat[size][size] = 1
    mat[size][0] = 5
    assert len(_residual_blocks(mat)) == 3
    factors, rank = smith_normal_form(mat)
    assert (factors, rank) == smith_normal_form_dense(mat)
    assert factors == invariant_chain([1, 2, 4, 3, 15, 4])


def test_snf_residual_coupled_along_a_chain():
    # every row shares a column with the next one, so the residual is one block
    size = 12
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = 2
        if i + 1 < size:
            mat[i][i + 1] = 4 + 2 * (i % 3)
    assert len(_residual_blocks(mat)) == 1
    factors, rank = smith_normal_form(mat)
    assert (factors, rank) == smith_normal_form_dense(mat)
    assert rank == rational_rank(mat) == size



def test_snf_dense_fill_seeds_stay_fast():
    # one 40 x 40 residual block each, with no unit to start from; reducing
    # them without a bound took 2.1 s (seed 10) and more than 20 s (seed 20)
    for seed in (10, 20):
        mat, diag = planted_matrix(random.Random(seed), 1, 40, 38, 80)
        start = time.perf_counter()
        assert smith_normal_form(mat) == (diag, 38)
        assert time.perf_counter() - start <= 1.0, seed


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 8),
    st.randoms(use_true_random=False),
)
def test_snf_bounded_route_matches_dense(m, n, r, rng):
    # B (m x r) times C (r x n), C's entries near +-2^70: rank at most r and
    # every nonzero entry far past 64 bits, so the reduction runs modulo 2|D|
    big = 2**70
    b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    c = [[rng.choice((-1, 1)) * big + rng.randint(-50, 50) for _ in range(n)] for _ in range(r)]
    mat = [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
    if rng.random() < 0.5:
        mat[rng.randrange(m)] = [0] * n
    if rng.random() < 0.5:
        j = rng.randrange(n)
        for row in mat:
            row[j] = 0
    with mock.patch.object(snf, "_bareiss", wraps=snf._bareiss) as bound:
        factors, rank = smith_normal_form(mat)
    assert (factors, rank) == smith_normal_form_dense(mat)
    assert rank == rational_rank(mat)
    entries = [abs(x) for row in mat for x in row if x]
    if entries and min(entries) >= 2**64:
        assert bound.called


def test_snf_pivot_dividing_its_column():
    # the smallest entry divides the rest of its column, so each row step is
    # a plain subtraction that leaves no remainder, in exact arithmetic (3)
    # and modulo 2|D| (past 64 bits)
    for v in (3, 2**70 + 1):
        mat = [[v, 2 * v], [v, 3 * v], [2 * v, v], [4 * v, 4 * v]]
        assert smith_normal_form(mat) == ([v, v], 2) == smith_normal_form_dense(mat)
        assert smith_normal_form([[v, v], [v, v]]) == ([v], 1)
        assert smith_normal_form([[v], [-v], [5 * v]]) == ([v], 1)


@pytest.mark.slow
def test_snf_planted_sweep():
    for seed in range(300):
        mat, diag = planted_matrix(random.Random(seed), 1, 40, 38, 80)
        start = time.perf_counter()
        assert smith_normal_form(mat) == (diag, 38), seed
        assert time.perf_counter() - start <= 0.25, seed
    # 60 x 60, 180 shears: past 100 s without the bound
    mat, diag = planted_matrix(random.Random(0), 1, 60, 58, 180)
    start = time.perf_counter()
    assert smith_normal_form(mat) == (diag, 58)
    assert time.perf_counter() - start < 5.0

# -- chain complexes ---------------------------------------------------------------


def full_chain_complex(k):
    """Every degree of k assembled, with row indices into the basis below.

    The relative complex of k over the void complex, built from every
    simplex of k: independent of the truncation at the complete skeleton.
    """
    return relative_chain_complex(k, void_complex(k.ground))


def basis(cc, q):
    """Degree-q simplices of an assembled degree, as sorted vertex tuples."""
    return [
        tuple(v for i, v in enumerate(cc.ground) if m >> i & 1) for m in cc.bases[q]
    ]


def boundary_dense(cc, q):
    """Dense boundary matrix (rows: degree q-1 basis, cols: degree q) of a
    fully assembled chain complex."""
    assert cc.complete_to == -2
    mat = [[0] * cc.basis_size(q) for _ in range(cc.basis_size(q - 1))]
    for j, col in enumerate(cc.columns.get(q, ())):
        for i, s in col:
            mat[i][j] = s
    return mat


def boundary_rows(cc, q):
    """Boundary matrix of degree q as (column, entry) pair rows, one row per
    degree q-1 basis element."""
    rows = {}
    for j, col in enumerate(cc.columns.get(q, ())):
        for i, s in col:
            rows.setdefault(i, {})[j] = s
    return {i: list(row.items()) for i, row in rows.items()}


def test_chain_complex_shapes():
    k = simplex_boundary([1, 2, 3])
    # the triangle boundary is the complete 1-skeleton: nothing is assembled
    truncated = chain_complex(k)
    assert truncated.complete_to == 1 and truncated.bases == {}
    cc = full_chain_complex(k)
    for c in (truncated, cc):
        assert [c.basis_size(q) for q in (-1, 0, 1)] == [1, 3, 3]
    assert basis(cc, 1) == [(1, 2), (1, 3), (2, 3)]
    # boundary composition vanishes, independently of the construction check
    d1 = boundary_dense(cc, 1)
    d0 = boundary_dense(cc, 0)
    prod = [
        [sum(d0[i][k] * d1[k][j] for k in range(3)) for j in range(3)]
        for i in range(1)
    ]
    assert prod == [[0, 0, 0]]
    # the path 1-2-3 has every vertex but not every edge: the rows of the
    # edge boundaries are the vertex bitmasks, signed +1 for the lower vertex
    truncated = chain_complex(SimplicialComplex([1, 2, 3], [{1, 2}, {2, 3}]))
    assert truncated.complete_to == 0 and list(truncated.bases) == [1]
    assert truncated.columns[1] == [[(0b010, 1), (0b001, -1)], [(0b100, 1), (0b010, -1)]]


def test_chain_complex_void_and_augmentation():
    assert chain_complex(void_complex([1, 2])).void
    cc = full_chain_complex(empty_simplex_complex([1]))
    assert basis(cc, -1) == [()]
    assert cc.top == -1 == chain_complex(empty_simplex_complex([1])).top
    # each vertex maps to the empty simplex with coefficient +1
    cc2 = full_chain_complex(full_simplex([1, 2]))
    assert cc2.columns[0] == [[(0, 1)], [(0, 1)]]


def test_chain_complex_totalcut_c6():
    cc = chain_complex(total_cut_complex(cycle(6), 2))
    assert cc.top == 3
    assert cc.basis_size(3) == 9


def cross_polytope_boundary(n):
    """Boundary of the n-dimensional cross-polytope, an (n-1)-sphere: its
    facets take one of {2i+1, 2i+2} for each i < n, and it has 3^n faces."""
    return SimplicialComplex(
        range(1, 2 * n + 1),
        [{2 * i + 1 + (c >> i & 1) for i in range(n)} for c in range(1 << n)],
    )


def test_chain_complex_cap():
    # the face walk counts the faces it makes against 2^cap: 243 faces here
    sphere = cross_polytope_boundary(5)
    for cap in (5, 7):
        with pytest.raises(SizeCapError, match=rf"exceeds the 2\^{cap} budget"):
            chain_complex(sphere, cap)
        with pytest.raises(SizeCapError):
            reduced_homology(sphere, cap)
        with pytest.raises(SizeCapError):
            sphere.simplex_masks(cap)
        with pytest.raises(SizeCapError):
            relative_chain_complex(sphere, void_complex(sphere.ground), cap)
    assert reduced_homology(sphere, 8).groups == ((4, 1, ()),)
    assert len(sphere.simplex_masks(8)) == 243
    # over 24 ground vertices, the full simplex is one complete level
    cc = chain_complex(full_simplex(range(1, 25)))
    assert cc.complete_to == 23 and not cc.bases
    assert reduced_homology(full_simplex(range(1, 25))).describe() == "0"


def test_boundary_check_catches_corrupted_matrices():
    def corrupted(q, j, entry, k=full_simplex([1, 2, 3, 4]), build=full_chain_complex):
        cc = build(k)
        cc.columns[q][j][0] = entry(*cc.columns[q][j][0])
        return cc

    _check_boundary_squares_to_zero(corrupted(2, 0, lambda i, s: (i, s)))  # intact
    # a flipped sign, and a row pointing at a face outside the boundary
    wrong_face = full_chain_complex(full_simplex([1, 2, 3, 4])).columns[2][-1][0][0]
    for cc in (
        corrupted(2, 0, lambda i, s: (i, -s)),
        corrupted(2, 0, lambda i, s: (wrong_face, s)),
        corrupted(3, 0, lambda i, s: (i, -s)),
    ):
        with pytest.raises(RuntimeError, match="boundary composition is nonzero"):
            _check_boundary_squares_to_zero(cc)
    # an entry that is not +-1, in a lower and in the top degree
    for q in (1, 3):
        with pytest.raises(RuntimeError, match="is not \\+-1"):
            _check_boundary_squares_to_zero(corrupted(q, 0, lambda i, s: (i, 2)))
    # two tetrahedra on a shared triangle have every vertex but not every
    # edge; the mask-keyed boundary of degree 1 is checked as the lower map
    glued = SimplicialComplex(range(1, 6), [{1, 2, 3, 4}, {1, 2, 3, 5}])
    assert chain_complex(glued).complete_to == 0
    with pytest.raises(RuntimeError, match="boundary composition is nonzero in degree 2"):
        _check_boundary_squares_to_zero(
            corrupted(1, 0, lambda i, s: (i, -s), glued, chain_complex)
        )
    with pytest.raises(RuntimeError, match="is not \\+-1 in degree 1"):
        _check_boundary_squares_to_zero(
            corrupted(1, 0, lambda i, s: (i, 2), glued, chain_complex)
        )


# -- strong-collapse core ------------------------------------------------------------


def test_strong_core_examples():
    # a cone collapses onto a single vertex
    core = strong_core(join(simplex_boundary([1, 2, 3]), full_simplex([9])))
    assert len(core.ground) == 1 and core.facets == {frozenset(core.ground)}
    # every vertex link of the 6-vertex RP^2 is a 5-cycle: nothing is dominated
    k = rp2()
    assert strong_core(k) is k
    for k in (void_complex([1, 2]), empty_simplex_complex([1, 2])):
        assert strong_core(k) is k
    # the total cut complex of K_{2,2,2} shrinks to a triangle boundary
    k = total_cut_complex(complete_multipartite(2, 2, 2), 2)
    core = strong_core(k)
    assert len(core.ground) == 3 and len(core.facets) == 3
    assert core.dim() == 1 < k.dim()
    # collapsing onto the tetrahedron boundary on 3, 5, 6, 7 turns facets into
    # faces of other facets on the way, and those must be dropped
    k = SimplicialComplex(
        range(1, 8), [{1, 2, 3, 4, 5, 6}, {2, 5, 6, 7}, {3, 5, 7}, {3, 6, 7}, {4, 6, 7}]
    )
    assert strong_core(k) == simplex_boundary([3, 5, 6, 7])
    # phantom vertices leave the ground set
    circle = simplex_boundary([1, 2, 3])
    assert strong_core(SimplicialComplex([1, 2, 3, 7], circle.facets)) == circle


def _grow(k, step):
    """A cone, a suspension or a join with RP^2 of k, on fresh labels."""
    top = max(k.ground)
    if step == "cone":
        return join(k, full_simplex([top + 1]))
    if step == "suspension":
        return join(SimplicialComplex([top + 1, top + 2], [{top + 1}, {top + 2}]), k)
    return join(k, relabel_complex(rp2(), lambda v: top + v))


@settings(max_examples=80, deadline=None)
@given(
    random_complexes(max_ground=5),
    st.lists(st.sampled_from(["cone", "suspension"]), max_size=2),
    st.booleans(),
)
def test_strong_core_matches_unreduced_homology(k, steps, with_rp2):
    # joining RP^2 first carries its Z/2 through the later cones and suspensions
    for step in ["rp2"] * with_rp2 + steps:
        k = _grow(k, step)
    core = strong_core(k)
    assert set(core.ground) <= set(k.ground)
    # the validating constructor rejects facets contained in other facets
    assert SimplicialComplex(core.ground, core.facets) == core
    assert reduced_homology(k) == homology_of_chain(chain_complex(k))


# -- reduced homology ----------------------------------------------------------------


def test_reduced_homology_examples():
    assert reduced_homology(simplex_boundary([1, 2, 3])).groups == ((1, 1, ()),)
    assert reduced_homology(total_cut_complex(cycle(6), 2)).groups == ((2, 1, ()),)
    assert reduced_homology(full_simplex([1, 2, 3])).is_trivial
    assert reduced_homology(void_complex([1])).void
    assert reduced_homology(empty_simplex_complex([1])).groups == ((-1, 1, ()),)


def test_rp2_is_a_closed_surface_and_has_torsion():
    k = rp2()
    edges = {}
    for f in RP2_FACETS:
        for e in combinations(sorted(f), 2):
            edges[e] = edges.get(e, 0) + 1
    assert len(edges) == 15 and set(edges.values()) == {2}
    counts = Counter(m.bit_count() - 1 for m in k.simplex_masks())
    assert counts[0] == 6 and counts[1] == 15 and counts[2] == 10
    assert 6 - 15 + 10 == 1  # Euler characteristic of the projective plane
    assert reduced_homology(k).groups == ((1, 0, (2,)),)


def complete_to_oracle(k):
    """Highest q with every degree up to q a complete skeleton; -2 if none."""
    return max(
        (q for q in range(-1, len(k.ground)) if is_skeleton_full(k, q)), default=-2
    )


def check_truncated_homology(k):
    """Both homology paths against the dense oracle, and s against fullness."""
    truncated = chain_complex(k)
    assert truncated.complete_to == complete_to_oracle(k)
    expected = homology_dense(k)
    assert homology_of_chain(truncated) == expected
    assert reduced_homology(k) == expected


def test_full_skeleton_shortcut_matches_plain_snf():
    # recompute ranks/torsion for every degree without closed-form ranks, on
    # complexes whose complete skeleton reaches high
    s0 = SimplicialComplex([91, 92], [{91}, {92}])
    cases = [
        total_cut_complex(cycle(9), 2),
        total_cut_complex(cycle(9), 3),
        bounded_independence_complex(cycle(9), 3),
        bounded_independence_complex(complete_multipartite(3, 3, 3), 3),
        total_cut_complex(complete_multipartite(3, 3, 3), 2),
        total_cut_complex(complete_multipartite(2, 2, 2, 2), 3),
        total_cut_complex(graph_power(cycle(9), 2), 2),
        bounded_independence_complex(graph_power(cycle(10), 2), 2),
        skeleton(full_simplex(range(1, 8)), 3),
        simplex_boundary(range(1, 7)),
        full_simplex(range(1, 6)),
        empty_simplex_complex([1, 2]),
        void_complex([1, 2]),
        SimplicialComplex([1, 2, 3, 7, 9], simplex_boundary([1, 2, 3]).facets),
        rp2(),
        join(rp2(), simplex_boundary([7, 8, 9])),
        join(s0, rp2()),
    ]
    for k in cases:
        check_truncated_homology(k)
    # RP^2 and its join with a circle have every edge and not every triangle;
    # the Z/2 of RP^2 comes from the mask-keyed boundary of degree s+1 = 2
    for k in (rp2(), join(rp2(), simplex_boundary([7, 8, 9]))):
        assert chain_complex(k).complete_to == 1
    assert homology_of_chain(chain_complex(rp2())).groups == ((1, 0, (2,)),)
    assert chain_complex(skeleton(full_simplex(range(1, 8)), 3)).complete_to == 3
    assert reduced_homology(skeleton(full_simplex(range(1, 8)), 3)).groups == (
        (3, 15, ()),
    )


def homology_dense(k):
    """Reduced homology from a dense SNF of every boundary: no clearing, no
    closed-form ranks."""
    return homology_dense_of_chain(full_chain_complex(k))


def homology_dense_of_chain(cc):
    if cc.void:
        return HomologyProfile((), void=True)
    ranks = {}
    torsion = {}
    for q in range(0, cc.top + 1):
        factors, ranks[q] = smith_normal_form_dense(boundary_dense(cc, q))
        torsion[q] = tuple(f for f in factors if f != 1)
    groups = []
    for q in range(-1, cc.top + 1):
        b = cc.basis_size(q) - ranks.get(q, 0) - ranks.get(q + 1, 0)
        t = torsion.get(q + 1, ())
        if b or t:
            groups.append((q, b, t))
    return HomologyProfile(tuple(groups))


@settings(max_examples=80, deadline=None)
@given(random_complexes())
def test_homology_with_clearing_matches_dense(k):
    check_truncated_homology(k)


def test_torsion_homology_with_clearing_matches_dense():
    s0 = SimplicialComplex([91, 92], [{91}, {92}])
    s0b = SimplicialComplex([93, 94], [{93}, {94}])
    circle = simplex_boundary([95, 96, 97])
    cases = [
        (rp2(), ((1, 0, (2,)),)),
        (join(s0, rp2()), ((2, 0, (2,)),)),
        (join(s0b, join(s0, rp2())), ((3, 0, (2,)),)),
        (join(circle, rp2()), ((3, 0, (2,)),)),
    ]
    for k, groups in cases:
        profile = reduced_homology(k)
        assert profile.groups == groups
        assert profile == homology_dense(k)


@settings(max_examples=60, deadline=None)
@given(random_complexes())
def test_homology_euler_consistency(k):
    # reduced_homology raises internally if Euler characteristics disagree
    profile = reduced_homology(k)
    assert profile.euler() == chain_complex(k).euler_characteristic()


def test_suspension_shifts_profiles():
    rng = random.Random(3)
    for trial in range(10):
        n = rng.randint(1, 6)
        facets = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        ]
        k = SimplicialComplex.from_facet_candidates(range(1, n + 1), facets)
        s0 = SimplicialComplex([91, 92], [{91}, {92}])
        assert reduced_homology(join(s0, k)).groups == reduced_homology(k).shifted(1).groups


# -- cohomology and duality -------------------------------------------------------------


def test_cohomology_from_homology():
    sphere = HomologyProfile(((2, 1, ()),))
    assert cohomology_from_homology(sphere) == sphere
    proj = reduced_homology(rp2())
    coh = cohomology_from_homology(proj)
    assert coh.groups == ((2, 0, (2,)),)
    assert cohomology_from_homology(HomologyProfile()) == HomologyProfile()


def test_cohomology_against_cochain_complex():
    # independent oracle: cohomology = SNF data of the transposed boundaries
    for k in [rp2(), simplex_boundary([1, 2, 3, 4]), total_cut_complex(cycle(6), 2)]:
        profile = cohomology_from_homology(homology_of_chain(chain_complex(k)))
        cc = full_chain_complex(k)
        ranks = {}
        factors = {}
        for q in range(0, cc.top + 1):
            fs, r = smith_normal_form(boundary_rows(cc, q))
            ranks[q] = r
            factors[q] = tuple(f for f in fs if f != 1)
        ranks[cc.top + 1] = 0
        groups = {q: (b, t) for q, b, t in profile.groups}
        for q in range(-1, cc.top + 1):
            betti = cc.basis_size(q) - ranks.get(q, 0) - ranks.get(q + 1, 0)
            torsion = factors.get(q, ())
            assert groups.get(q, (0, ())) == (betti, torsion)


def test_verify_alexander_duality_examples():
    assert verify_alexander_duality(bounded_independence_complex(cycle(5), 2))
    assert verify_alexander_duality(full_simplex([1, 2, 3]))
    k33 = complete_multipartite(3, 3)
    bi = bounded_independence_complex(k33, 2)
    assert reduced_homology(bi).groups == ((1, 4, ()),)
    assert reduced_homology(total_cut_complex(k33, 2)).groups == ((2, 4, ()),)
    assert verify_alexander_duality(bi)
    # no ground-size refusal: 13 and 21 ground vertices, within the budget
    assert verify_alexander_duality(full_simplex(range(1, 14)))
    assert verify_alexander_duality(total_cut_complex(grid(3, 7), 2))


def test_duality_holds_for_torsion():
    # duality moves the projective-plane torsion into degree n-3 cohomology
    # of the dual; verify degreewise equality on the 6-vertex triangulation
    assert verify_alexander_duality(rp2())


def test_alexander_duality_holds_rejects_wrong_profiles():
    # RP^2 with a circle wedged on at vertex 1: H~_1 = Z + Z/2
    wedge = SimplicialComplex(range(1, 9), RP2_FACETS + [{1, 7}, {7, 8}, {1, 8}])
    sphere = simplex_boundary([1, 2, 3, 4])
    for k, profile in [
        (rp2(), HomologyProfile(((1, 0, (2,)),))),
        (wedge, HomologyProfile(((1, 1, (2,)),))),
        (sphere, HomologyProfile(((2, 1, ()),))),
    ]:
        assert reduced_homology(k) == profile
        assert alexander_duality_holds(k, profile)
        wrong = [
            profile.shifted(1),
            profile.shifted(-1),
            # torsion dropped; on the wedge the free part stays, so only the
            # torsion tells the profiles apart
            HomologyProfile(tuple((q, b, ()) for q, b, _ in profile.groups if b)),
            HomologyProfile(tuple((q, b + 1, t) for q, b, t in profile.groups)),
        ]
        for bad in wrong:
            if bad != profile:
                assert not alexander_duality_holds(k, bad), (k, bad)


@settings(max_examples=60, deadline=None)
@given(random_complexes())
def test_duality_holds_on_arbitrary_complexes(k):
    assert verify_alexander_duality(k)


def test_phantom_vertices_do_not_change_homology():
    # a wider ground set leaves the profile alone; only duality sees n
    k = simplex_boundary([1, 2, 3])
    padded = SimplicialComplex([1, 2, 3, 7, 9], k.facets)
    assert reduced_homology(padded) == reduced_homology(k)
    assert verify_alexander_duality(padded)


def test_duality_at_degree_minus_one():
    # the empty-simplex complex on n vertices is dual to the boundary sphere:
    # one Z in degree -1 pairs with one Z in degree n-2
    from cutcomplexes.complexes import empty_simplex_complex

    k = empty_simplex_complex([1, 2, 3, 4])
    assert reduced_homology(k).groups == ((-1, 1, ()),)
    assert reduced_homology(simplex_boundary([1, 2, 3, 4])).groups == ((2, 1, ()),)
    assert verify_alexander_duality(k)


def test_case_b_cycle_power_through_both_sides():
    # C_11^4: the clique complex is a 3-sphere, so duality forces the total
    # cut side into degree 11 - 3 - 3 = 5
    from cutcomplexes import graph_power

    g = graph_power(cycle(11), 4)
    assert reduced_homology(bounded_independence_complex(g, 2)).groups == ((3, 1, ()),)
    assert reduced_homology(total_cut_complex(g, 2)).groups == ((5, 1, ()),)


# -- relative homology --------------------------------------------------------------------


def test_relative_examples():
    k = full_simplex([1, 2])
    boundary = simplex_boundary([1, 2])
    # H(k, k) is the zero group, not the homology of the void complex
    assert relative_homology(k, k).is_trivial
    assert relative_homology(void_complex(k.ground), void_complex(k.ground)).void
    assert relative_homology(k, boundary).groups == ((1, 1, ()),)
    upper = bounded_independence_complex(cycle(7), 3)
    lower = bounded_independence_complex(cycle(7), 2)
    rel = relative_homology(upper, lower)
    assert all(q > 1 for q, _, _ in rel.groups)


def test_relative_validation():
    k = full_simplex([1, 2, 3])
    with pytest.raises(ValueError, match="ground"):
        relative_homology(k, full_simplex([1, 2]))
    bad = SimplicialComplex([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    with pytest.raises(ValueError, match="subcomplex"):
        relative_homology(simplex_boundary([1, 2, 3]), k)
    assert relative_homology(k, bad).groups == ((2, 1, ()),)


def test_relative_homology_with_clearing_matches_dense():
    # the 2-skeleton of a simplex with some tetrahedra, relative to two
    # vertices: relative complexes assemble every degree, so each of them
    # goes through the Smith normal form with clearing
    rng = random.Random(11)
    ground = range(1, 8)
    triangles = [set(t) for t in combinations(ground, 3)]
    for _ in range(6):
        tets = [set(t) for t in rng.sample(list(combinations(ground, 4)), 33)]
        k = SimplicialComplex.from_facet_candidates(ground, triangles + tets)
        pair = SimplicialComplex(ground, [{1}, {2}])
        cc = relative_chain_complex(k, pair)
        assert homology_of_chain(cc) == homology_dense_of_chain(cc)
    for _ in range(10):
        g = random_graph(rng.randint(4, 7), 0.5, rng)
        cc = relative_chain_complex(
            bounded_independence_complex(g, 3), bounded_independence_complex(g, 2)
        )
        assert homology_of_chain(cc) == homology_dense_of_chain(cc)


def test_relative_euler_additivity():
    # chi(K) - chi(L) = chi(K, L) on a sample of nested pairs
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng.randint(4, 7), 0.5, rng)
        upper = bounded_independence_complex(g, 3)
        lower = bounded_independence_complex(g, 2)
        rel = relative_chain_complex(upper, lower)
        chi_rel = rel.euler_characteristic()
        chi_k = chain_complex(upper).euler_characteristic()
        chi_l = chain_complex(lower).euler_characteristic()
        # closed-form basis sizes count the complete degrees in full
        assert chi_k == full_chain_complex(upper).euler_characteristic()
        assert chi_l == full_chain_complex(lower).euler_characteristic()
        assert chi_rel == chi_k - chi_l
        assert homology_of_chain(rel).euler() == chi_rel


# -- wedge claims ------------------------------------------------------------------------


def test_matches_wedge():
    c6 = reduced_homology(total_cut_complex(cycle(6), 2))
    assert matches_wedge(c6, WedgeClaim.spheres(2))
    assert not matches_wedge(c6, WedgeClaim.contractible())
    circle = reduced_homology(simplex_boundary([1, 2, 3]))
    assert not matches_wedge(circle, WedgeClaim.contractible())
    rook33 = reduced_homology(bounded_independence_complex(rook(3, 3), 2))
    assert matches_wedge(rook33, WedgeClaim.spheres(1, 4))
    assert matches_wedge(reduced_homology(void_complex([1])), WedgeClaim.void())
    assert not matches_wedge(
        reduced_homology(full_simplex([1])), WedgeClaim.void()
    )
    assert matches_wedge(reduced_homology(full_simplex([1])), WedgeClaim.contractible())
    # torsion never matches a wedge of spheres
    assert not matches_wedge(reduced_homology(rp2()), WedgeClaim.spheres(1, 1))


def test_wedge_claim_validation():
    with pytest.raises(ValueError):
        WedgeClaim.spheres(-1)
    with pytest.raises(ValueError):
        WedgeClaim("wedge", 2, 0)
    assert WedgeClaim.spheres(2, 4).describe() == "4*S^2"
    assert WedgeClaim.spheres(2).describe() == "S^2"
