"""Exact integer homology of simplicial complexes.

Chain complexes are augmented (the empty simplex spans degree -1), boundary
matrices are exact integer matrices, and reduced homology is read off Smith
normal forms: Betti numbers from ranks, torsion from invariant factors.

``reduced_homology`` builds the chain complex of the strong-collapse core of
its input (``complexes.strong_core``), not of the input itself.  Deleting a
dominated vertex is a strong collapse and keeps the homotopy type
(Barmak-Minian, DCG 2012), so the groups, torsion included, are those of the
input.  The enumeration budget counts the faces made for the core; the input
is not checked.  Relative homology builds its quotient complex from the pair
as given.

Chain groups are built only above the complete skeleton.  Let s be the
highest degree such that every degree from -1 up to s holds all C(n, q+1)
(q+1)-subsets of the ground set.  Those degrees are never enumerated: their
sizes are binomial coefficients, and each boundary between two of them is the
standard simplex boundary, of rank C(n-1, q) with all invariant factors 1.
``chain_complex`` finds s from face counts, taking faces level by level from
the face walk and stopping at the first complete level; completeness
is closed downward, so every level below it is complete too.  Degrees above s
are assembled, each basis listing its simplex bitmasks in ascending integer
(colex) order.  The rows of the lowest assembled boundary, from degree s+1,
are keyed by the s-face bitmasks themselves, so no list of s-faces is ever
built.  Every assembled degree goes through the Smith normal form of ``snf``:
unit-pivot elimination, then a dense reduction of each connected block of the
residual.  Torsion of degree s comes from the boundary from degree s+1.
Relative chain complexes assemble every degree, with s = -2.

Degrees are reduced from the top down with clearing, each boundary as its
transpose: the SNF reads each simplex's (face, sign) list from ``columns`` as
its row, by reference.  The unit pivot columns of the boundary from degree q+1
are degree-q faces, and their columns are dropped from the boundary from
degree q.  This is exact over the integers.  The unit pivots span a submatrix
of determinant +-1, so the boundaries of the pivot (q+1)-faces, together with
the degree-q faces off the pivot columns, form a basis of the degree-q chains;
the boundary map vanishes on the former, and on the latter it is the boundary
matrix without the cleared columns.  Rank and invariant factors do not change.

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

    @property
    def is_trivial(self):
        """All reduced groups vanish (the contractibility surrogate)."""
        return not self.void and not self.groups

    def shifted(self, offset=1):
        """Profile with every degree moved up by ``offset`` (suspension law)."""
        return HomologyProfile(
            tuple((q + offset, b, t) for q, b, t in self.groups), self.void
        )

    def euler(self):
        return sum(-b if q % 2 else b for q, b, _ in self.groups)

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

    ``complete_to`` is s: every degree from -1 up to s is the complete
    skeleton of the ground set and is held in closed form, never assembled;
    ``basis_size(q)`` is C(n, q+1) there.  It is -2 when every degree is
    assembled.  For q > s, ``bases[q]`` lists the degree-q simplices as
    bitmasks in ascending integer (colex) order, and ``columns[q]`` holds the
    boundary of each basis element as (row key, sign) pairs.  A row key is an
    index into ``bases[q-1]``, except in degree s+1 (when s >= -1), where it
    is the bitmask of the s-face itself.  The void complex is the zero chain
    complex (no degrees at all).
    """

    __slots__ = ("ground", "bases", "columns", "void", "complete_to")

    def __init__(self, ground, bases, columns, void, complete_to=-2):
        self.ground = ground
        self.bases = bases
        self.columns = columns
        self.void = void
        self.complete_to = complete_to

    @property
    def top(self):
        return None if self.void else max(self.bases, default=self.complete_to)

    @property
    def degrees(self):
        return range(0) if self.void else range(-1, self.top + 1)

    def basis_size(self, q):
        if -1 <= q <= self.complete_to:
            return comb(len(self.ground), q + 1)
        return len(self.bases.get(q, ()))

    def euler_characteristic(self):
        """Alternating sum of basis sizes over the augmented complex."""
        sizes = ((q, self.basis_size(q)) for q in self.degrees)
        return sum(-b if q % 2 else b for q, b in sizes)


def _assemble(ground, masks_by_degree, dropped=None, complete_to=-2, void=False):
    """Shared assembly for absolute and relative chain complexes.

    ``masks_by_degree`` lists each assembled degree's masks in ascending
    order, which becomes the basis order.  ``dropped`` is the set of masks
    excluded from the bases (the subcomplex of a relative pair); boundary
    entries into dropped faces are omitted.  Degrees up to ``complete_to``
    are complete and not assembled, so the boundary from the degree above
    them takes its row keys from the face masks.  Only a void complex, never
    an empty quotient such as H(k, k) = 0, is flagged ``void``.
    """
    bases = dict(masks_by_degree)
    columns = {}
    # face mask -> its two possible entries (row, +1) and (row, -1), for the
    # degree below only; columns share these pairs instead of making their own
    faces, below = {}, None
    for q in sorted(bases):
        # above a complete degree every face is there, keyed by its own mask;
        # its pair is made on first use
        keyed = q == complete_to + 1
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
                    if entry is None and keyed:
                        entry = faces[face] = ((face, 1), (face, -1))
                    if entry is not None:
                        col.append(entry[odd])
                    elif dropped is None or face not in dropped:
                        raise RuntimeError("boundary face missing from chain basis")
                    odd ^= 1
                cols.append(col)
            columns[q] = cols
        faces = {m: ((i, 1), (i, -1)) for i, m in enumerate(bases[q])}
        below = q
    cc = ChainComplex(
        tuple(ground), bases, columns, void=void, complete_to=complete_to,
    )
    _check_boundary_squares_to_zero(cc)
    return cc


def _check_boundary_squares_to_zero(cc):
    """Raise unless consecutive boundaries compose to 0, with every entry +-1.

    An entry of the composition is the number of +1 paths into its row minus
    the number of -1 paths, so a column of the composition vanishes exactly
    when the rows reached with sign +1 and with sign -1 agree as multisets.
    Degrees are checked upwards, so the degree below has its signs checked.
    """
    for q in sorted(cc.columns):
        lower = cc.columns.get(q - 1)
        for col in cc.columns[q]:
            plus, minus = [], []
            for i, s in col:
                if s != 1 and s != -1:
                    raise RuntimeError(f"boundary entry {s} is not +-1 in degree {q}")
                if lower is not None:
                    # a path through row i has the product of the two signs
                    for j, t in lower[i]:
                        (plus if t == s else minus).append(j)
            plus.sort()
            minus.sort()
            if plus != minus:
                raise RuntimeError(f"boundary composition is nonzero in degree {q}")


def chain_complex(k: SimplicialComplex, cap=None):
    """Augmented chain complex of a complex; void complexes yield the zero complex.

    Faces come level by level from ``SimplicialComplex.face_levels``, whose
    2^cap budget counts only the levels made.  The first level holding all
    C(n, t) t-subsets of the ground set is counted, not kept, and fixes
    ``complete_to`` = t-1; the walk stops there, at {emptyset} at the
    latest.  The boundary of an ascending simplex [v0 < ... < vq] alternates
    signs over vertex omissions; each vertex maps to the empty simplex with
    coefficient +1.
    """
    if k.is_void:
        return ChainComplex(tuple(k.ground), {}, {}, void=True)
    n = len(k.ground)
    by_degree = {}
    for t, level in k.face_levels(cap):
        if len(level) == comb(n, t):
            break
        by_degree[t - 1] = sorted(level)
    return _assemble(k.ground, by_degree, complete_to=t - 1)


def relative_chain_complex(k: SimplicialComplex, l: SimplicialComplex, cap=None):
    """Quotient chain complex of a pair: basis = simplices of k not in l."""
    if tuple(l.ground) != tuple(k.ground):
        raise ValueError("relative homology needs complexes on one ground set")
    lfaces = set().union(*(level for _, level in l.face_levels(cap)))
    by_degree = {}
    shared = 0
    for t, level in k.face_levels(cap):
        kept = level - lfaces
        shared += len(level) - len(kept)
        if kept:
            by_degree[t - 1] = sorted(kept)
    # the levels of k are disjoint, so l lies in k iff each of its faces is shared
    if shared != len(lfaces):
        raise ValueError("second complex is not a subcomplex of the first")
    return _assemble(k.ground, by_degree, dropped=lfaces, void=k.is_void)


def homology_of_chain(cc: ChainComplex):
    """Reduced homology profile of an assembled chain complex."""
    if cc.void:
        return HomologyProfile((), void=True)
    top = cc.top
    n = len(cc.ground)
    # standard simplex boundaries between complete degrees: unit factors
    ranks = {q: comb(n - 1, q) for q in range(0, cc.complete_to + 1)}
    torsion_from = {}
    cleared = set()
    for q in range(top, max(cc.complete_to, -1), -1):
        if not cc.bases.get(q):
            continue
        # the transpose, one row per column; faces that were unit pivot columns
        # one degree up drop out, keeping rank and torsion (module docstring)
        pivots = set()
        factors, ranks[q] = smith_normal_form(
            {j: col for j, col in enumerate(cc.columns[q]) if j not in cleared},
            pivot_cols=pivots,
        )
        torsion_from[q] = tuple(f for f in factors if f != 1)
        cleared = pivots
    groups = []
    for q in range(-1, top + 1):
        betti = cc.basis_size(q) - ranks.get(q, 0) - ranks.get(q + 1, 0)
        torsion = torsion_from.get(q + 1, ())
        if betti or torsion:
            groups.append((q, betti, torsion))
    profile = HomologyProfile(tuple(groups))
    if profile.euler() != cc.euler_characteristic():
        raise RuntimeError(
            "Euler characteristic mismatch between chain groups and homology"
        )
    return profile


def reduced_homology(k: SimplicialComplex, cap=None):
    """Exact reduced homology: Betti numbers and torsion per degree.

    The chain complex is built on the strong-collapse core of ``k``, which has
    the same homotopy type, and the 2^cap budget counts the faces made for
    the core.  The complex {emptyset} reports one Z in degree -1; the void
    complex reports the empty, void-flagged profile.
    """
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


def alexander_duality_holds(k: SimplicialComplex, profile: HomologyProfile, cap=None):
    """Does H~_i(K) = H~^(n-i-3)(K*) hold in every degree, torsion included?

    ``profile`` is the reduced homology of ``k``, already computed; only the
    dual's homology is computed here.
    """
    n = len(k.ground)
    dual_cohomology = cohomology_from_homology(
        reduced_homology(alexander_dual(k, cap), cap)
    )
    lhs = {q: (b, t) for q, b, t in profile.groups}
    rhs = {n - 3 - q: (b, t) for q, b, t in dual_cohomology.groups}
    return lhs == rhs


def verify_alexander_duality(k: SimplicialComplex, cap=None):
    """Check Alexander duality on ``k`` from scratch; each search in it spends
    its own 2^cap budget."""
    return alexander_duality_holds(k, reduced_homology(k, cap), cap)
