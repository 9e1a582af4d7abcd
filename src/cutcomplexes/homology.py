"""Exact integer homology of simplicial complexes.

Chain complexes are augmented (the empty simplex spans degree -1), boundary
matrices are exact integer matrices, and reduced homology is read off Smith
normal forms: Betti numbers from ranks, torsion from invariant factors.

``reduced_homology`` builds the chain complex of the strong-collapse core of
its input (``complexes.strong_core``), not of the input itself.  Deleting a
dominated vertex is a strong collapse and keeps the homotopy type
(Barmak-Minian, DCG 2012), so the groups, torsion included, are those of the
input.  The enumeration budget is still checked against the input.  Relative
homology builds its quotient complex from the pair as given.

Each degree's basis lists its simplex bitmasks in ascending integer order
(colex order on vertex sets), the order in which they are enumerated.

One structural fast path: whenever the chain groups in degrees q and q-1 are
the complete skeleta of the ground set (basis counts hit C(n, q+1) and
C(n, q)), the boundary matrix is the standard simplex boundary, whose rank is
C(n-1, q) with all invariant factors 1.  Everything else goes through the
Smith normal form of ``snf``: unit-pivot elimination, then a dense reduction
of each connected block of the residual.

Degrees are reduced from the top down with clearing: every unit pivot row of
the boundary from degree q+1 names a degree-q column that is dropped from the
boundary from degree q.  This is exact over the integers.  The unit pivots
span a submatrix of determinant +-1, so the boundaries of their columns,
together with the basis elements of the other rows, form a basis of the
degree-q chains; the boundary map vanishes on the former, and on the latter it
is the boundary matrix without the cleared columns.  Rank and invariant
factors therefore do not change.

The composition of consecutive boundaries is checked to vanish on every
constructed complex, exactly and without building it: a composed entry counts
the +1 paths into its row minus the -1 paths, so each column of the
composition vanishes iff the sorted lists of rows reached with each sign are
equal.  The check also rejects any boundary entry other than +-1.  Every
homology computation is checked against the Euler characteristic of its chain
complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex, alexander_dual, strong_core
from .limits import DUALITY_CHECK_CAP, SizeCapError
from .snf import smith_normal_form


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology, one record per degree with a nonzero group.

    ``groups`` holds (degree, betti, torsion) triples in ascending degree,
    torsion as a divisibility chain of invariant factors > 1.  The void
    complex is flagged explicitly: both it and a contractible complex have no
    nonzero groups.
    """

    groups: tuple = ()
    void: bool = False

    def betti(self, q):
        for degree, betti, _ in self.groups:
            if degree == q:
                return betti
        return 0

    def torsion(self, q):
        for degree, _, torsion in self.groups:
            if degree == q:
                return torsion
        return ()

    def group(self, q):
        return self.betti(q), self.torsion(q)

    @property
    def is_trivial(self):
        """All reduced groups vanish (the contractibility surrogate)."""
        return not self.void and not self.groups

    def degrees(self):
        return [degree for degree, _, _ in self.groups]

    def shifted(self, offset=1):
        """Profile with every degree moved up by ``offset`` (suspension law)."""
        return HomologyProfile(
            tuple((q + offset, b, t) for q, b, t in self.groups), self.void
        )

    def euler(self):
        return sum((-1) ** q * b for q, b, _ in self.groups)

    def describe(self):
        if self.void:
            return "void"
        if not self.groups:
            return "0"
        parts = []
        for q, betti, torsion in self.groups:
            summands = []
            if betti == 1:
                summands.append("Z")
            elif betti:
                summands.append(f"Z^{betti}")
            summands.extend(f"Z/{t}" for t in torsion)
            parts.append(f"H~{q}={'+'.join(summands)}")
        return ", ".join(parts)

    def __str__(self):
        return self.describe()


@dataclass(frozen=True)
class WedgeClaim:
    """Expected answer: void, contractible, or a wedge of c spheres S^dim."""

    shape: str
    sphere_dim: int = None
    count: int = None

    def __post_init__(self):
        if self.shape not in ("void", "contractible", "wedge"):
            raise ValueError(f"unknown claim shape {self.shape!r}")
        if self.shape == "wedge":
            if self.count is None or self.count < 1:
                raise ValueError("a wedge claim needs count >= 1")
            if self.sphere_dim is None or self.sphere_dim < 0:
                raise ValueError("a wedge claim needs sphere_dim >= 0")

    @classmethod
    def void(cls):
        return cls("void")

    @classmethod
    def contractible(cls):
        return cls("contractible")

    @classmethod
    def spheres(cls, dim, count=1):
        return cls("wedge", dim, count)

    def describe(self):
        if self.shape == "wedge":
            return f"S^{self.sphere_dim}" if self.count == 1 else f"{self.count}*S^{self.sphere_dim}"
        return self.shape

    def __str__(self):
        return self.describe()


def matches_wedge(profile: HomologyProfile, claim: WedgeClaim):
    """Does a homology profile match a void/contractible/wedge-of-spheres claim?"""
    if claim.shape == "void":
        return profile.void
    if claim.shape == "contractible":
        return profile.is_trivial
    return not profile.void and profile.groups == (
        (claim.sphere_dim, claim.count, ()),
    )


class ChainComplex:
    """Augmented simplicial chain complex with integer boundary matrices.

    ``bases[q]`` lists the degree-q simplices as bitmasks in ascending integer
    (colex) order; ``columns[q]`` holds the boundary of each basis element as
    (row index, sign) pairs into ``bases[q-1]``.  The void complex is the
    zero chain complex (no degrees at all).
    """

    __slots__ = ("ground", "bases", "columns", "void")

    def __init__(self, ground, bases, columns, void):
        self.ground = ground
        self.bases = bases
        self.columns = columns
        self.void = void

    @property
    def top(self):
        return max(self.bases) if self.bases else None

    @property
    def degrees(self):
        return range(-1, self.top + 1) if self.bases else range(0)

    def basis_size(self, q):
        return len(self.bases.get(q, ()))

    def basis(self, q):
        """Degree-q simplices as sorted vertex tuples."""
        ground = self.ground
        out = []
        for m in self.bases.get(q, ()):
            verts = []
            while m:
                low = m & -m
                m ^= low
                verts.append(ground[low.bit_length() - 1])
            out.append(tuple(verts))
        return out

    def boundary_rows(self, q, skip=()):
        """Boundary matrix of degree q as a dict-of-rows sparse matrix.

        Columns whose index is in ``skip`` are left out.
        """
        rows = {}
        for j, col in enumerate(self.columns.get(q, ())):
            if j in skip:
                continue
            for i, s in col:
                rows.setdefault(i, {})[j] = s
        return rows

    def boundary_dense(self, q):
        """Dense boundary matrix (rows: degree q-1 basis, cols: degree q)."""
        rows = self.basis_size(q - 1)
        cols = self.basis_size(q)
        mat = [[0] * cols for _ in range(rows)]
        for j, col in enumerate(self.columns.get(q, ())):
            for i, s in col:
                mat[i][j] = s
        return mat

    def euler_characteristic(self):
        """Alternating sum of basis sizes over the augmented complex."""
        return sum((-1) ** q * len(b) for q, b in self.bases.items())

    def is_full_skeleton_degree(self, q):
        """Does the degree-q chain group carry every (q+1)-subset of the ground set?"""
        n = len(self.ground)
        if q == -1:
            return self.basis_size(-1) == 1
        if q < -1:
            return False
        return self.basis_size(q) == comb(n, q + 1)


def _assemble(ground, masks_by_degree, dropped=None):
    """Shared assembly for absolute and relative chain complexes.

    ``masks_by_degree`` lists each degree's masks in ascending order, which
    becomes the basis order.  ``dropped`` is the set of masks excluded from
    the bases (the subcomplex of a relative pair); boundary entries into
    dropped faces are omitted.
    """
    bases = dict(masks_by_degree)
    columns = {}
    # face mask -> its two possible entries (row, +1) and (row, -1), for the
    # degree below only; columns share these pairs instead of making their own
    faces, below = {}, None
    for q in sorted(bases):
        if below != q - 1:
            faces = {}
        if q != -1:
            cols = []
            for m in bases[q]:
                col = []
                odd = 0
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    face = m ^ low
                    entry = faces.get(face)
                    if entry is not None:
                        col.append(entry[odd])
                    elif dropped is None or face not in dropped:
                        raise RuntimeError("boundary face missing from chain basis")
                    odd ^= 1
                cols.append(col)
            columns[q] = cols
        faces = {m: ((i, 1), (i, -1)) for i, m in enumerate(bases[q])}
        below = q
    cc = ChainComplex(tuple(ground), bases, columns, void=not bases)
    _check_boundary_squares_to_zero(cc)
    return cc


def _signed_rows(col, degree):
    """Split a boundary column into its +1 rows and its -1 rows."""
    plus, minus = [], []
    for i, s in col:
        if s == 1:
            plus.append(i)
        elif s == -1:
            minus.append(i)
        else:
            raise RuntimeError(f"boundary entry {s} is not +-1 in degree {degree}")
    return plus, minus


def _check_boundary_squares_to_zero(cc):
    """Raise unless consecutive boundaries compose to 0, with every entry +-1.

    An entry of the composition is the number of +1 paths into its row minus
    the number of -1 paths, so a column of the composition vanishes exactly
    when the rows reached with sign +1 and with sign -1 agree as multisets.
    """
    for q in sorted(cc.columns):
        if q - 1 not in cc.columns:
            continue
        lower = [_signed_rows(col, q - 1) for col in cc.columns[q - 1]]
        for col in cc.columns[q]:
            up, down = _signed_rows(col, q)
            plus, minus = [], []
            for i in up:
                plus += lower[i][0]
                minus += lower[i][1]
            for i in down:
                plus += lower[i][1]
                minus += lower[i][0]
            plus.sort()
            minus.sort()
            if plus != minus:
                raise RuntimeError(f"boundary composition is nonzero in degree {q}")


def chain_complex(k: SimplicialComplex, cap=None):
    """Augmented chain complex of a complex; void complexes yield the zero complex.

    The boundary of an ascending simplex [v0 < ... < vq] alternates signs over
    vertex omissions; each vertex maps to the empty simplex with coefficient +1.
    """
    if k.is_void:
        return ChainComplex(tuple(k.ground), {}, {}, void=True)
    by_degree = {}
    for m in k.simplex_masks(cap):
        by_degree.setdefault(m.bit_count() - 1, []).append(m)
    return _assemble(k.ground, by_degree)


def relative_chain_complex(k: SimplicialComplex, l: SimplicialComplex, cap=None):
    """Quotient chain complex of a pair: basis = simplices of k not in l."""
    if tuple(l.ground) != tuple(k.ground):
        raise ValueError("relative homology needs complexes on one ground set")
    kmasks = k.simplex_masks(cap)
    lmasks = set(l.simplex_masks(cap)) if not l.is_void else set()
    if not lmasks <= set(kmasks):
        raise ValueError("second complex is not a subcomplex of the first")
    by_degree = {}
    for m in kmasks:
        if m not in lmasks:
            by_degree.setdefault(m.bit_count() - 1, []).append(m)
    return _assemble(k.ground, by_degree, dropped=lmasks)


def homology_of_chain(cc: ChainComplex):
    """Reduced homology profile of an assembled chain complex."""
    if cc.void:
        return HomologyProfile((), void=True)
    top = cc.top
    n = len(cc.ground)
    ranks = {q: 0 for q in range(-1, top + 2)}
    torsion_from = {}
    cleared = set()
    for q in range(top, -1, -1):
        if cc.basis_size(q) == 0:
            continue
        if cc.is_full_skeleton_degree(q) and cc.is_full_skeleton_degree(q - 1):
            # standard simplex boundary: rank C(n-1, q), unit invariant factors
            ranks[q] = comb(n - 1, q)
            torsion_from[q] = ()
            cleared = set()
        else:
            # clearing: columns that were unit pivot rows one degree up drop
            # out without changing rank or torsion (see the module docstring)
            pivots = set()
            factors, rank = smith_normal_form(
                cc.boundary_rows(q, skip=cleared), pivot_rows=pivots
            )
            ranks[q] = rank
            torsion_from[q] = tuple(f for f in factors if f != 1)
            cleared = pivots
    groups = []
    for q in range(-1, top + 1):
        betti = cc.basis_size(q) - ranks[q] - ranks.get(q + 1, 0)
        torsion = torsion_from.get(q + 1, ())
        if betti or torsion:
            groups.append((q, betti, tuple(torsion)))
    profile = HomologyProfile(tuple(groups))
    if profile.euler() != cc.euler_characteristic():
        raise RuntimeError(
            "Euler characteristic mismatch between chain groups and homology"
        )
    return profile


def reduced_homology(k: SimplicialComplex, cap=None):
    """Exact reduced homology: Betti numbers and torsion per degree.

    The enumeration budget applies to ``k`` itself; the chain complex is then
    built on its strong-collapse core, which has the same homotopy type.  The
    complex {emptyset} reports one Z in degree -1; the void complex reports
    the empty, void-flagged profile.
    """
    k.check_enumeration_budget(cap)
    return homology_of_chain(chain_complex(strong_core(k), cap))


def relative_homology(k: SimplicialComplex, l: SimplicialComplex, cap=None):
    """Homology of the pair (k, l) via the quotient chain complex."""
    return homology_of_chain(relative_chain_complex(k, l, cap))


def cohomology_from_homology(profile: HomologyProfile):
    """Integer cohomology via universal coefficients.

    Degreewise: the free part matches homology, and the torsion of degree
    q-1 homology resurfaces in degree q cohomology.
    """
    by_degree = {}
    for q, betti, torsion in profile.groups:
        if betti:
            by_degree.setdefault(q, [0, ()])[0] = betti
        if torsion:
            by_degree.setdefault(q + 1, [0, ()])[1] = tuple(torsion)
    groups = tuple(
        (q, betti, torsion)
        for q, (betti, torsion) in sorted(by_degree.items())
        if betti or torsion
    )
    return HomologyProfile(groups, void=profile.void)


def verify_alexander_duality(k: SimplicialComplex, cap=None):
    """Check H~_i(K) = H~^(n-i-3)(K*) in every degree, torsion included."""
    n = len(k.ground)
    if n > DUALITY_CHECK_CAP:
        raise SizeCapError(
            f"duality verification capped at {DUALITY_CHECK_CAP} ground vertices"
        )
    left = reduced_homology(k, cap)
    dual = alexander_dual(k, cap)
    dual_cohomology = cohomology_from_homology(reduced_homology(dual, cap))
    lhs = {q: (b, t) for q, b, t in left.groups}
    rhs = {n - 3 - q: (b, t) for q, b, t in dual_cohomology.groups}
    return lhs == rhs
