"""Data-driven verification suites for the graph-complex theorems.

Every report entry comes from one recipe type, ``TheoremInstance``, and one
runner, ``run_instance``.  A recipe names an id, a ground size, a build thunk
and what is expected:

- a ``WedgeClaim``: the thunk builds a complex, whose exact reduced homology
  profile is compared against the closed-form answer (a wedge of spheres, a
  contractible complex, or the void complex).  Where the underlying
  connectivity argument is a skeleton-fullness statement, the recipe asks for
  that skeleton to be checked as well; wedge verdicts on at most
  ``DUALITY_CHECK_CAP`` ground vertices also re-check Alexander duality
  against the dual complex.
- a string: the recipe is a predicate (an identity between complexes, a
  relative-homology vanishing, an informational profile), and the thunk runs
  it and returns ``(ok, computed text)``.

Homology can certify a homotopy type only up to these surrogates, so that is
exactly what the reports claim: profile plus skeleton checks, never homotopy
equivalence itself.

A suite is a generator ``recipes(seed)`` that yields recipes lazily.  Making a
recipe may draw random graphs and read graph tables, but builds no complex and
computes no homology; that happens only when ``run_instance`` calls the
thunk.  ``SUITES[name](seed=..., pattern=...)`` runs the recipes whose ids
match the glob ``pattern`` and skips the rest unbuilt.  Randomized suites draw
from the seed (``DEFAULT_SEED`` unless given) in a fixed order and record it
in their notes, so reports are reproducible bit for bit, and a filtered entry
is identical to the same entry in a full run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from functools import partial
from itertools import combinations
from math import comb

from . import graphs as gr
from .complexes import (
    bounded_independence_complex,
    complex_intersection,
    complex_union,
    deletion,
    full_simplex,
    is_skeleton_full,
    join,
    link,
    relabel_complex,
    total_cut_complex,
    _total_cut,
)
from .homology import (
    WedgeClaim,
    alexander_duality_holds,
    matches_wedge,
    reduced_homology,
    relative_homology,
    verify_alexander_duality,
)
from .limits import SizeCapError
from .posets import composition_poset, expected_order_complex_claim, order_complex
from .report import ReportEntry, VerificationReport

DEFAULT_SEED = 1729
# every recipe's ground size stays at or below this many vertices
INSTANCE_GROUND_CAP = 14
# wedge verdicts on at most this many ground vertices carry the duality rider
DUALITY_CHECK_CAP = 12
# random graphs drawn by the duality suite
DUALITY_GRAPHS = 50


# -- recipes and the runner -------------------------------------------------------


@dataclass(frozen=True)
class TheoremInstance:
    """A recipe for one report entry.

    With a ``WedgeClaim`` as ``expected``, ``build()`` returns the complex to
    check; ``skeleton_level`` requests an ``is_skeleton_full`` rider at that
    level (the connectivity certificate the corresponding proof uses), and
    ``duality_rider`` re-checks Alexander duality on instances that fit.  With
    a string as ``expected``, the recipe is a predicate: ``build()`` returns
    ``(ok, computed text)`` and no rider runs.

    ``ground_size`` is the number of vertices the recipe works on, held to
    ``INSTANCE_GROUND_CAP``.  For a composition-poset recipe it is the
    composition size m = d + k - 1, not the number of poset elements (the
    order complex's vertices, which the work budget bounds instead).
    """

    id: str
    ground_size: int
    build: object  # () -> SimplicialComplex, or () -> (ok, computed) for a predicate
    expected: object  # WedgeClaim, or the text a predicate's check stands for
    skeleton_level: int = None
    duality_rider: bool = False
    note: str = ""


def run_instance(inst: TheoremInstance):
    """Run one recipe; a search over its budget makes a failed entry whose
    computed text is ``refused: <message>``, so the rest of a report stays."""
    if inst.ground_size > INSTANCE_GROUND_CAP:
        raise ValueError(
            f"{inst.id}: recipe ground size {inst.ground_size} exceeds the "
            f"suite cap of {INSTANCE_GROUND_CAP}"
        )
    t0 = time.perf_counter()
    try:
        passed, computed, note = _verdict(inst)
    except SizeCapError as exc:
        passed, computed, note = False, f"refused: {exc}", inst.note
    ms = (time.perf_counter() - t0) * 1000
    return ReportEntry(
        id=inst.id,
        expected=inst.expected if isinstance(inst.expected, str) else inst.expected.describe(),
        computed=computed,
        passed=passed,
        ms=ms,
        note=note,
    )


def _verdict(inst):
    """``(passed, computed, note)`` for one recipe."""
    note = inst.note
    if isinstance(inst.expected, str):
        return (*inst.build(), note)
    k = inst.build()
    profile = reduced_homology(k)
    passed = matches_wedge(profile, inst.expected)
    computed = profile.describe()
    if passed and inst.skeleton_level is not None:
        if not is_skeleton_full(k, inst.skeleton_level):
            passed = False
            computed += f" [skeleton not full at level {inst.skeleton_level}]"
        else:
            note = _append_note(note, f"sk_{inst.skeleton_level} full")
    if passed and inst.duality_rider and len(k.ground) <= DUALITY_CHECK_CAP:
        if not alexander_duality_holds(k, profile):
            passed = False
            computed += " [Alexander duality violated]"
        else:
            note = _append_note(note, "duality ok")
    return passed, computed, note


def _append_note(note, extra):
    return f"{note}; {extra}" if note else extra


def run_suite(recipes, seed=DEFAULT_SEED, pattern=None):
    """Run the recipes of ``recipes(seed)`` whose ids match the glob ``pattern``
    (all of them when it is None), one at a time as the generator yields them;
    recipes that do not match are never built."""
    report = VerificationReport()
    for inst in recipes(seed):
        if pattern is None or fnmatch(inst.id, pattern):
            report.add(run_instance(inst))
    return report


# -- auxiliary graphs -----------------------------------------------------------


def petersen():
    """Kneser graph on 2-subsets of a 5-set: vertices adjacent iff disjoint."""
    pairs = list(combinations(range(1, 6), 2))
    index = {p: i + 1 for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p, q in combinations(pairs, 2)
        if not (set(p) & set(q))
    ]
    return gr.Graph(10, edges, labels=pairs)


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return gr.Graph(n, edges)


def random_chordal_graph(n, rng):
    """Random interval graph (intervals overlap => edge); always chordal."""
    intervals = [tuple(sorted((rng.random(), rng.random()))) for _ in range(n)]
    edges = [
        (i + 1, j + 1)
        for i, j in combinations(range(n), 2)
        if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]
    ]
    return gr.Graph(n, edges)


def _partitions(total, smallest=1):
    """Nondecreasing partitions of ``total`` into parts of at least ``smallest``."""
    if total == 0:
        yield ()
    for part in range(smallest, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


# -- closed-form expected values --------------------------------------------------


def multipartite_bi_claim(parts, d):
    """Contractible when some part has fewer than d vertices, else a wedge of
    prod C(n_i - 1, d - 1) spheres of dimension k(d-1) - 1."""
    if min(parts) <= d - 1:
        return WedgeClaim.contractible()
    count = 1
    for p in parts:
        count *= comb(p - 1, d - 1)
    return WedgeClaim.spheres(len(parts) * (d - 1) - 1, count)


def multipartite_cut_claim(parts, d):
    """Void when no part reaches d (no independent d-set at all), contractible
    when parts straddle d, else a wedge of the same count in dimension
    n - k(d-1) - 2."""
    if max(parts) <= d - 1:
        return WedgeClaim.void()
    if min(parts) <= d - 1:
        return WedgeClaim.contractible()
    count = 1
    for p in parts:
        count *= comb(p - 1, d - 1)
    n = sum(parts)
    return WedgeClaim.spheres(n - len(parts) * (d - 1) - 2, count)


def cycle_power_cut_case(n, r):
    """Case split for the 2-total cut complex of C_n^r, r >= 3, n >= 2r + 2.

    Returns (claim, case label).  The n = 2r+2 case is a single sphere
    S^(r-1); beyond that the clique-complex homotopy type of C_n^r transfers
    through Alexander duality: with l the unique index for which r/n falls in
    [l/(2l+1), (l+1)/(2l+3)), the exact boundary r = l*n/(2l+1) gives a wedge
    of n-2r-1 spheres S^(n-2l-3) (n = 3r is the classical instance), and the
    strict interior gives a single sphere S^(n-2l-4) (n >= 3r+1 gives l = 0,
    the stable S^(n-4)).
    """
    if n < 2 * r + 2 or r < 3:
        raise ValueError(f"case split needs r >= 3 and n >= 2r+2, got n={n}, r={r}")
    if n == 2 * r + 2:
        return WedgeClaim.spheres(r - 1), "a"
    if n == 3 * r:
        label = "c"
    elif n >= 3 * r + 1:
        label = "d"
    else:
        label = "b"
    l = 0
    while True:
        if r * (2 * l + 1) == l * n:
            return WedgeClaim.spheres(n - 2 * l - 3, n - 2 * r - 1), label
        if l * n < r * (2 * l + 1) and r * (2 * l + 3) < (l + 1) * n:
            return WedgeClaim.spheres(n - 2 * l - 4), label
        l += 1
        if l > n:
            raise RuntimeError(f"no case index found for n={n}, r={r}")


def grid_wedge_count(dims):
    """Edge count minus spanning-tree edge count of the grid graph."""
    n = 1
    for d in dims:
        n *= d
    edges = sum((d - 1) * (n // d) for d in dims)
    return edges - n + 1


def rook_wedge_count(dims):
    n = 1
    for d in dims:
        n *= d
    k = len(dims)
    return (k - 1) * n + 1 - sum(n // d for d in dims)


def psi_coloring(d, n):
    """The 2d-coloring of C_n whose classes are runs of consecutive vertices.

    With n = l*(2d) + k (0 <= k < 2d), the first k classes take l+1
    consecutive vertices and the remaining 2d-k classes take l.  Returns a
    list c with c[v] the color of vertex v (1-based; c[0] unused).
    """
    two_d = 2 * d
    l, k = divmod(n, two_d)
    color = [0] * (n + 1)
    for t in range(1, k + 1):
        for i in range((l + 1) * (t - 1) + 1, (l + 1) * t + 1):
            color[i] = t
    base = (l + 1) * k
    for t in range(1, two_d - k + 1):
        for i in range(base + l * (t - 1) + 1, base + l * t + 1):
            color[i] = t + k
    return color


# -- suites -----------------------------------------------------------------------


def cycle_recipes(seed):
    """Cycle table: total cut complexes S^(n-2d), bounded independence S^(2d-3)."""
    for d in (2, 3, 4):
        for n in range(2 * d, 14):
            g = gr.cycle(n)
            yield TheoremInstance(
                id=f"cycles/d{d}/n{n:02d}/totalcut",
                ground_size=n,
                build=lambda g=g, d=d: total_cut_complex(g, d),
                expected=WedgeClaim.spheres(n - 2 * d),
                duality_rider=True,
            )
            yield TheoremInstance(
                id=f"cycles/d{d}/n{n:02d}/bi",
                ground_size=n,
                build=lambda g=g, d=d: bounded_independence_complex(g, d),
                expected=WedgeClaim.spheres(2 * d - 3),
                skeleton_level=d - 2,
            )


def cycle_power_recipes(seed):
    """Cycle powers: the stable sphere ranges, the tight n = (r+1)d instances,
    and the full case split for the 2-total cut complex."""
    r = 2
    for d in (2, 3):
        for p in (1, 2):
            for n in range(2 * r * d, 14):
                g = gr.graph_power(gr.cycle(n), p)
                yield TheoremInstance(
                    id=f"cyclepowers/stable/d{d}/p{p}/n{n:02d}/totalcut",
                    ground_size=n,
                    build=lambda g=g, d=d: total_cut_complex(g, d),
                    expected=WedgeClaim.spheres(n - 2 * d),
                    duality_rider=True,
                )
                yield TheoremInstance(
                    id=f"cyclepowers/stable/d{d}/p{p}/n{n:02d}/bi",
                    ground_size=n,
                    build=lambda g=g, d=d: bounded_independence_complex(g, d),
                    expected=WedgeClaim.spheres(2 * d - 3),
                    skeleton_level=d - 2,
                )
    for rr, d in ((2, 2), (3, 2), (2, 3)):
        n = (rr + 1) * d
        g = gr.graph_power(gr.cycle(n), rr)
        yield TheoremInstance(
            id=f"cyclepowers/tight/r{rr}/d{d}/n{n:02d}",
            ground_size=n,
            build=lambda g=g, d=d: total_cut_complex(g, d),
            expected=WedgeClaim.spheres(rr - 1),
            duality_rider=True,
            note=f"n = (r+1)d with r={rr}",
        )
    # conjectural region for squared cycles (3d <= n < 4d-1, d >= 3): the
    # profile is computed and reported but nothing is asserted
    for d, n in ((3, 9), (3, 10), (4, 12), (4, 13)):
        g = gr.graph_power(gr.cycle(n), 2)
        yield TheoremInstance(
            id=f"cyclepowers/conjectural/d{d}/n{n:02d}",
            ground_size=n,
            build=lambda g=g, d=d: (
                True, reduced_homology(total_cut_complex(g, d)).describe()
            ),
            expected="(informational)",
            note="unresolved parameter region; profile reported, not asserted",
        )
    for rr, lo, hi in ((3, 8, 13), (4, 10, 13)):
        # the intermediate range 2r+3 <= n <= 3r-1 can be empty; say so
        if 2 * rr + 3 > 3 * rr - 1:
            yield TheoremInstance(
                id=f"cyclepowers/case/r{rr}/middle-range",
                ground_size=0,
                build=lambda: (True, "range empty"),
                expected="range empty",
                note=f"no n with 2r+3 <= n <= 3r-1 for r={rr}; skipped explicitly",
            )
        for n in range(lo, hi + 1):
            g = gr.graph_power(gr.cycle(n), rr)
            claim, label = cycle_power_cut_case(n, rr)
            yield TheoremInstance(
                id=f"cyclepowers/case/r{rr}/n{n:02d}",
                ground_size=n,
                build=lambda g=g: total_cut_complex(g, 2),
                expected=claim,
                skeleton_level=2 if n >= 2 * rr + 3 else None,
                duality_rider=True,
                note=f"case ({label})",
            )


def multipartite_recipes(seed):
    """Complete multipartite graphs, every part list with at most 12 vertices."""
    for total in range(2, 13):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            g = gr.complete_multipartite(*parts)
            tag = "+".join(map(str, parts))
            for d in (2, 3):
                yield TheoremInstance(
                    id=f"multipartite/d{d}/{tag}/bi",
                    ground_size=total,
                    build=lambda g=g, d=d: bounded_independence_complex(g, d),
                    expected=multipartite_bi_claim(parts, d),
                    skeleton_level=d - 2,
                )
                cut_claim = multipartite_cut_claim(parts, d)
                wants_sk2 = cut_claim.shape == "wedge" and cut_claim.sphere_dim >= 2
                yield TheoremInstance(
                    id=f"multipartite/d{d}/{tag}/totalcut",
                    ground_size=total,
                    build=lambda g=g, d=d: total_cut_complex(g, d),
                    expected=cut_claim,
                    skeleton_level=2 if wants_sk2 else None,
                    duality_rider=cut_claim.shape == "wedge",
                )


def product_recipes(seed):
    """Grids (cartesian products of paths) and rook graphs (of complete graphs)."""
    dims_list = [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (2, 2, 2), (2, 2, 3),
    ]
    for dims in dims_list:
        n = 1
        for d_ in dims:
            n *= d_
        tag = "x".join(map(str, dims))
        grid_g = gr.grid(*dims)
        count = grid_wedge_count(dims)
        yield TheoremInstance(
            id=f"products/grid/{tag}/bi",
            ground_size=n,
            build=lambda g=grid_g: bounded_independence_complex(g, 2),
            expected=WedgeClaim.spheres(1, count),
            note=f"cycle rank {count}",
        )
        yield TheoremInstance(
            id=f"products/grid/{tag}/totalcut",
            ground_size=n,
            build=lambda g=grid_g: total_cut_complex(g, 2),
            expected=WedgeClaim.spheres(n - 4, count),
            skeleton_level=None if dims == (2, 2) else 2,
            duality_rider=True,
        )
        rook_g = gr.rook(*dims)
        fcount = rook_wedge_count(dims)
        yield TheoremInstance(
            id=f"products/rook/{tag}/bi",
            ground_size=n,
            build=lambda g=rook_g: bounded_independence_complex(g, 2),
            expected=WedgeClaim.spheres(1, fcount),
        )
        rook_sk2 = len(dims) >= 3 or min(dims) >= 3
        yield TheoremInstance(
            id=f"products/rook/{tag}/totalcut",
            ground_size=n,
            build=lambda g=rook_g: total_cut_complex(g, 2),
            expected=WedgeClaim.spheres(n - 4, fcount),
            skeleton_level=2 if rook_sk2 else None,
            duality_rider=True,
        )


def union_recipes(seed):
    """Disjoint unions of short path powers: the composition-counting wedge law."""
    families = [
        # (d, component descriptors, tag)
        (2, ["path:3", "path:4"], "P3+P4"),
        (2, ["path:2", "path:3", "path:4"], "P2+P3+P4"),
        (2, ["path:2", "path:2", "path:3", "path:3"], "2xP2+2xP3"),
        (2, ["path:2"] * 5, "5xP2"),
        (3, ["path:4", "path:4"], "P4+P4"),
        (3, ["pathpow:5:2", "path:4"], "P5^2+P4"),
        (3, ["path:3", "path:3", "path:3"], "3xP3"),
        (3, ["pathpow:4:2", "path:3", "path:2"], "P4^2+P3+P2"),
        (3, ["path:3"] * 4, "4xP3"),
        (3, ["path:2", "path:2", "pathpow:4:3", "path:3"], "2xP2+P4^3+P3"),
        (3, ["path:2"] * 5, "5xP2"),
        (3, ["path:1", "path:2", "path:2", "path:2", "path:2"], "P1+4xP2"),
    ]
    for d, descs, tag in families:
        comps = [gr.from_descriptor(t) for t in descs]
        g = gr.disjoint_union(*comps)
        k = len(comps)
        if k <= d - 1:
            claim = WedgeClaim.contractible()
        else:
            claim = WedgeClaim.spheres(d - 2, comb(k - 1, d - 1))
        yield TheoremInstance(
            id=f"unions/bi/d{d}/k{k}/{tag}",
            ground_size=g.n,
            build=lambda g=g, d=d: bounded_independence_complex(g, d),
            expected=claim,
            skeleton_level=d - 2 if claim.shape == "wedge" and d >= 3 else None,
            note=f"{k} chordal components, n={g.n}",
        )
    five_edges = gr.disjoint_union(*[gr.path(2)] * 5)
    yield TheoremInstance(
        id="unions/totalcut/d2/k5/5xP2",
        ground_size=10,
        build=lambda: total_cut_complex(five_edges, 2),
        expected=WedgeClaim.spheres(7, 4),
        skeleton_level=2,
        duality_rider=True,
        note="k = d+3 components",
    )


# -- structural suite -------------------------------------------------------------


def _profiles_equal(p, q):
    return p.void == q.void and p.groups == q.groups


def _betti_map(profile):
    return {deg: b for deg, b, _ in profile.groups if b}


def _closed_dominated_pair(g):
    """First (v, u) with v != u and N[v] subseteq N[u], scanning in label order."""
    for v in g.vertices():
        nv = g.closed_neighbors(v)
        for u in g.vertices():
            if u != v and nv <= g.closed_neighbors(u):
                return v, u
    return None


def _open_dominated_pair(g):
    for v in g.vertices():
        nv = g.adj[v]
        for u in g.vertices():
            if u != v and u not in nv and nv <= g.adj[u]:
                return v, u
    return None


def _cone(g):
    """g plus an apex adjacent to everything (the apex closed-dominates all)."""
    apex = g.n + 1
    edges = g.edges() + [(v, apex) for v in g.vertices()]
    return gr.Graph(apex, edges)


def _seeded(name, note, seed):
    """Notes of recipes on randomly drawn graphs (named rand*/interval*) record the seed."""
    if name.startswith(("rand", "interval")):
        return _append_note(note, f"seed={seed}")
    return note


def _domination_recipes(rng, seed):
    closed_instances = [("cone-C5", _cone(gr.cycle(5))), ("cone-P4", _cone(gr.path(4))),
                        ("K5", gr.complete(5))]
    open_instances = [("C4", gr.cycle(4)), ("K23", gr.complete_multipartite(2, 3)),
                      ("K33", gr.complete_multipartite(3, 3))]
    for i in range(4):
        g = random_graph(rng.randint(5, 9), 0.5, rng)
        if _closed_dominated_pair(g):
            closed_instances.append((f"rand{i}", g))
        elif _open_dominated_pair(g):
            open_instances.append((f"rand{i}", g))
    for name, g in closed_instances:
        pair = _closed_dominated_pair(g)
        if pair is None:
            continue
        v, u = pair
        for d in (2, 3):
            def runner(g=g, v=v, d=d):
                lhs = reduced_homology(bounded_independence_complex(g, d))
                rhs = reduced_homology(
                    bounded_independence_complex(gr.delete_vertices(g, [v]), d)
                )
                ok = _profiles_equal(lhs, rhs)
                return ok, f"{lhs.describe()} vs {rhs.describe()}"

            yield TheoremInstance(
                id=f"structural/domination/closed/{name}/d{d}",
                ground_size=g.n,
                build=runner,
                expected="profiles equal after deleting the dominated vertex",
                note=_seeded(name, f"N[{v}] within N[{u}]", seed),
            )
    for name, g in open_instances:
        pair = _open_dominated_pair(g)
        if pair is None:
            continue
        v, u = pair
        for d in (2, 3):
            def runner(g=g, v=v, d=d):
                big = bounded_independence_complex(g, d)
                lhs = _betti_map(reduced_homology(big))
                small = _betti_map(
                    reduced_homology(
                        bounded_independence_complex(gr.delete_vertices(g, [v]), d)
                    )
                )
                lk = _betti_map(reduced_homology(link(big, [v])))
                rhs = dict(small)
                for deg, b in lk.items():
                    rhs[deg + 1] = rhs.get(deg + 1, 0) + b
                ok = lhs == rhs
                return ok, f"{lhs} vs {rhs}"

            yield TheoremInstance(
                id=f"structural/domination/open/{name}/d{d}",
                ground_size=g.n,
                build=runner,
                expected="Betti numbers split off the suspended link",
                note=_seeded(name, f"N({v}) within N({u})", seed),
            )


def _chordal_recipes(rng, seed):
    instances = [
        ("P6", gr.path(6)),
        ("P7^2", gr.graph_power(gr.path(7), 2)),
        ("P8^2", gr.graph_power(gr.path(8), 2)),
        ("P9^3", gr.graph_power(gr.path(9), 3)),
        ("P10^2", gr.graph_power(gr.path(10), 2)),
        ("P10^4", gr.graph_power(gr.path(10), 4)),
    ]
    for i in range(4):
        instances.append((f"interval{i}", random_chordal_graph(rng.randint(6, 10), rng)))
    for name, g in instances:
        for d in (2, 3):
            def runner(g=g, d=d):
                if gr.chordal_elimination(g) is None:
                    return False, "graph is not chordal"
                profile = reduced_homology(bounded_independence_complex(g, d))
                return profile.is_trivial, profile.describe()

            yield TheoremInstance(
                id=f"structural/chordal/{name}/d{d}",
                ground_size=g.n,
                build=runner,
                expected="0",
                note=_seeded(name, "", seed),
            )


def _restore_labels(sub):
    """Relabelling map from a derived graph's dense labels back to the originals."""
    return {v: sub.original_label(v) for v in sub.vertices()}


def _cut_on_original_labels(g_sub, d):
    """Total cut complex of a derived graph, pushed back to original labels."""
    k = _total_cut(g_sub, d)
    return relabel_complex(k, _restore_labels(g_sub))


def _delcom_expected_pieces(g, v, d):
    """The two complexes on V(g) - v featured in the deletion identities."""
    without_v = gr.delete_vertices(g, [v])
    cut_minus_v = _cut_on_original_labels(without_v, d)
    nv = sorted(g.adj[v])
    rest = gr.delete_vertices(g, list(g.adj[v]) + [v])
    lower = _cut_on_original_labels(rest, d - 1)
    joined = join(full_simplex(nv), lower)
    return cut_minus_v, joined


def _deletion_recipes():
    instances = [(f"C{n}", gr.cycle(n)) for n in range(4, 9)]
    instances += [(f"C{n}^2", gr.graph_power(gr.cycle(n), 2)) for n in range(5, 9)]
    instances += [("C8^3", gr.graph_power(gr.cycle(8), 3))]
    instances += [("K1,3", gr.complete_multipartite(1, 3)),
                  ("K1,4", gr.complete_multipartite(1, 4))]
    for name, g in instances:
        table = g.alpha_table()
        full = (1 << g.n) - 1
        alpha_g = table[full]
        for d in (2, 3, 4):
            if alpha_g < d:
                continue
            for v in g.vertices():
                a_minus_v = table[full ^ (1 << (v - 1))]
                closed = g.closed_masks()[v - 1]
                a_minus_nbhd = table[full & ~closed]
                if a_minus_v <= d - 1:
                    case = "a"
                elif a_minus_nbhd <= d - 2:
                    case = "b"
                else:
                    case = "c"
                if case == "a" and d == 2:
                    # the right-hand side would need the d=1 complex of an
                    # empty graph; no such instance arises in these families
                    continue

                def runner(g=g, v=v, d=d, case=case):
                    whole = _total_cut(g, d)
                    deleted = deletion(whole, [v])
                    cut_minus_v, joined = _delcom_expected_pieces(g, v, d)
                    if case == "a":
                        ok = (
                            deleted.facets == whole.facets
                            and whole.facets == joined.facets
                        )
                        return ok, "del(v) = whole = simplex * lower cut" if ok else "mismatch"
                    if case == "b":
                        ok = deleted.facets == cut_minus_v.facets
                        return ok, "del(v) = cut of g - v" if ok else "mismatch"
                    expected = complex_union(cut_minus_v, joined)
                    ok = deleted.facets == expected.facets
                    return ok, "del(v) = union of the two pieces" if ok else "mismatch"

                yield TheoremInstance(
                    id=f"structural/deletion/{name}/d{d}/v{v}",
                    ground_size=g.n,
                    build=runner,
                    expected=f"case ({case}) set identity",
                    note=f"case ({case})",
                )


def _suspension_recipes():
    instances = [
        ("C6", gr.cycle(6), 2),
        ("C7", gr.cycle(7), 2),
        ("C8", gr.cycle(8), 2),
        ("C8", gr.cycle(8), 3),
        ("C9", gr.cycle(9), 3),
        ("C9^2", gr.graph_power(gr.cycle(9), 2), 2),
        ("C10^2", gr.graph_power(gr.cycle(10), 2), 2),
    ]
    for name, g, d in instances:
        v = 1
        table = g.alpha_table()
        full = (1 << g.n) - 1
        closed = g.closed_masks()[v - 1]
        if table[full ^ 1] < d or table[full & ~closed] < d - 1:
            continue

        def runner(g=g, v=v, d=d):
            whole = reduced_homology(_total_cut(g, d))
            cut_minus_v, joined = _delcom_expected_pieces(g, v, d)
            inter = complex_intersection(cut_minus_v, joined)
            shifted = reduced_homology(inter).shifted(1)
            ok = whole.groups == shifted.groups
            return ok, f"{whole.describe()} vs suspended {shifted.describe()}"

        yield TheoremInstance(
            id=f"structural/suspension/{name}/d{d}",
            ground_size=g.n,
            build=runner,
            expected="profile equals the suspended intersection profile",
        )


def _pair_recipes(rng, seed):
    for i in range(6):
        n = rng.randint(6, 9)
        g = random_graph(n, rng.choice([0.3, 0.5]), rng)
        for d in (2, 3):
            def runner(g=g, d=d):
                lower = bounded_independence_complex(g, d)
                upper = bounded_independence_complex(g, d + 1)
                rel = relative_homology(upper, lower)
                bad = [q for q, b, t in rel.groups if q <= d - 2 and (b or t)]
                return not bad, rel.describe()

            yield TheoremInstance(
                id=f"structural/pairs/bi-step/rand{i}/d{d}",
                ground_size=g.n,
                build=runner,
                expected=f"relative homology zero through degree {d - 2}",
                note=f"n={g.n}; seed={seed}",
            )
    for n in range(5, 11):
        def runner(n=n):
            g = gr.cycle(n)
            lower = bounded_independence_complex(g, 3)
            upper = bounded_independence_complex(gr.graph_power(g, 2), 3)
            rel = relative_homology(upper, lower)
            bad = [q for q, b, t in rel.groups if q <= 2 and (b or t)]
            return not bad, rel.describe()

        yield TheoremInstance(
            id=f"structural/pairs/power-step/C{n}/d3",
            ground_size=n,
            build=runner,
            expected="relative homology zero through degree 2",
        )


def _girth_recipes():
    instances = [
        ("petersen", petersen(), 2),
        ("C08-d2", gr.cycle(8), 2),
        ("C08-d3", gr.cycle(8), 3),
        ("C08-d4", gr.cycle(8), 4),
        ("C12-d3", gr.cycle(12), 3),
        ("C13-d2", gr.cycle(13), 2),
        ("grid3x4-d2", gr.grid(3, 4), 2),
        ("K33-d2", gr.complete_multipartite(3, 3), 2),
        ("C07-d3", gr.cycle(7), 3),
    ]
    for name, g, d in instances:
        k = g.n - 2 * d

        def runner(g=g, d=d, k=k):
            gg = gr.girth(g)
            if not (gg >= 2 * d and g.n >= 2 * d + k):
                return False, f"hypothesis fails: girth {gg}, order {g.n}"
            ok = is_skeleton_full(total_cut_complex(g, d), k)
            return ok, f"sk_{k} full" if ok else f"sk_{k} NOT full"

        yield TheoremInstance(
            id=f"structural/girth/{name}/k{k}",
            ground_size=g.n,
            build=runner,
            expected=f"skeleton full at level {k}",
            note=f"girth {gr.girth(g)}, n={g.n}",
        )


def _coloring_recipes():
    d = 3
    target = gr.cycle(2 * d)
    target_table = target.alpha_table()
    for n in (12, 13):
        color = psi_coloring(d, n)
        for p in (1, 2):
            def runner(n=n, p=p, color=color):
                g = gr.graph_power(gr.cycle(n), p)
                table = g.alpha_table()
                checked = 0
                for m in range(1 << n):
                    if table[m] >= d:
                        continue
                    image = 0
                    mm = m
                    while mm:
                        low = mm & -mm
                        mm ^= low
                        image |= 1 << (color[low.bit_length()] - 1)
                    if target_table[image] >= d:
                        return False, f"simplex mask {m} maps to a non-simplex"
                    checked += 1
                return True, f"{checked} simplices map to simplices"

            yield TheoremInstance(
                id=f"structural/coloring/n{n}/p{p}",
                ground_size=n,
                build=runner,
                expected="every simplex image is a simplex",
                note=f"coloring onto C_{2*d}",
            )


def structural_recipes(seed):
    """Domination, chordality, deletion identities, suspension, pairs, girth,
    and the run-coloring simpliciality check."""
    rng = random.Random(seed)
    yield from _domination_recipes(rng, seed)
    yield from _chordal_recipes(rng, seed)
    yield from _deletion_recipes()
    yield from _suspension_recipes()
    yield from _pair_recipes(rng, seed)
    yield from _girth_recipes()
    yield from _coloring_recipes()


def duality_recipes(seed):
    """Alexander duality on seeded random graphs, every valid d."""
    rng = random.Random(seed)
    for i in range(DUALITY_GRAPHS):
        n = rng.randint(4, 9)
        g = random_graph(n, rng.choice([0.25, 0.4, 0.55, 0.7]), rng)
        alpha = g.alpha_table()[(1 << n) - 1]
        for d in range(2, alpha + 1):
            def runner(g=g, d=d):
                ok = verify_alexander_duality(bounded_independence_complex(g, d))
                return ok, "duality holds" if ok else "duality violated"

            yield TheoremInstance(
                id=f"duality/rand{i:02d}/n{n}/d{d}",
                ground_size=n,
                build=runner,
                expected="H~_i(K) = H~^(n-i-3)(K*)",
                note=f"seed={seed}, m={g.num_edges()}",
            )
        if alpha < 2:
            yield TheoremInstance(
                id=f"duality/rand{i:02d}/n{n}/no-valid-d",
                ground_size=n,
                build=lambda alpha=alpha: (True, f"independence number {alpha}"),
                expected="no d in range",
                note=f"seed={seed}",
            )


def poset_recipes(seed):
    """Order complexes of the composition posets at m = d + k - 1,
    2 <= d <= 4, 1 <= k <= 5."""
    for d in range(2, 5):
        for k in range(1, 6):
            m = d + k - 1
            yield TheoremInstance(
                id=f"poset/order-complex/d{d}/k{k}",
                ground_size=m,
                build=lambda m=m, k=k: order_complex(composition_poset(m, k)),
                expected=expected_order_complex_claim(d, k),
                note=f"{comb(m, k) - 1} poset elements",
            )


RECIPES = {
    "cycles": cycle_recipes,
    "cyclepowers": cycle_power_recipes,
    "multipartite": multipartite_recipes,
    "products": product_recipes,
    "unions": union_recipes,
    "structural": structural_recipes,
    "duality": duality_recipes,
    "poset": poset_recipes,
}
# SUITES[name](seed=..., pattern=...) -> VerificationReport
SUITES = {name: partial(run_suite, recipes) for name, recipes in RECIPES.items()}


def run_all(suite=None, filter_pattern=None, seed=DEFAULT_SEED):
    """Run one suite or all of them; entries are sorted by id for determinism.

    ``filter_pattern`` is a glob matched against recipe ids before anything is
    built; matching nothing is reported as an error to catch typos.
    """
    if suite not in (None, "all") and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    names = sorted(SUITES) if suite in (None, "all") else [suite]
    report = VerificationReport()
    for name in names:
        report.extend(SUITES[name](seed=seed, pattern=filter_pattern or None).entries)
    if filter_pattern and not report.entries:
        raise ValueError(f"filter {filter_pattern!r} matched no suite entries")
    report.sort()
    return report
