"""The benchmark's workloads: inputs made from a seed, the operations it
times, and the checks their outputs must pass.

A workload is a list of operations run in order as one round, and a check
over the outputs of every round.  Operations reach the program only through
its public interface (the package namespace and ``cli.main``), looked up at
call time so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import cutcomplexes as cc
from cutcomplexes import cli, report, verify

import oracles

# The ROADMAP's headline is `cutcomplexes verify` at its default seed.
VERIFY_SEED = 1729
# Every suite but multipartite runs through the CLI.  The multipartite suite
# alone takes about 70 s on a 2-core host, longer than a run may last, so its
# instances on at most MULTIPARTITE_MAX_ORDER vertices (512 of its 1036
# entries, ~6 % of its time) go through the suite's own ``verify.run_instance``
# instead, one operation per part list and d.
CLI_SUITES = ("cycles", "cyclepowers", "duality", "poset", "products", "structural", "unions")
MULTIPARTITE_MAX_ORDER = 10


@dataclass
class Op:
    name: str
    run: object  # () -> output handed to the workload's check


@dataclass
class Workload:
    ops: list
    check: object  # [(op name, output)] -> list of problems found
    round_is_item: bool = False  # item_ms.p50 times whole rounds, not operations


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cutcomplexes {' '.join(argv)} exited {code}")
    return out.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _profile(p):
    """Program HomologyProfile -> (void, {degree: (betti, torsion)})."""
    return p.void, {q: (b, tuple(t)) for q, b, t in p.groups}


def _canon(value):
    return json.dumps(value, sort_keys=True, default=repr)


def _distinct(outputs):
    """Each (op name, output) once: repeated rounds must give identical outputs."""
    firsts, keys, problems = {}, {}, []
    for name, out in outputs:
        key = _canon(out)
        if name not in firsts:
            firsts[name], keys[name] = out, key
        elif keys[name] != key:
            problems.append(f"{name}: output differs between rounds")
    return list(firsts.items()), problems


# -- verify-all --------------------------------------------------------------------


def _multipartite_report(parts, d):
    """The multipartite suite's two entries for one part list and d, built as
    ``verify.suite_multipartite`` builds them and run by ``verify.run_instance``,
    riders included."""
    g = cc.complete_multipartite(*parts)
    tag = "+".join(map(str, parts))
    cut_claim = verify.multipartite_cut_claim(parts, d)
    instances = (
        verify.TheoremInstance(
            id=f"multipartite/d{d}/{tag}/bi",
            ground_size=sum(parts),
            build=lambda: cc.bounded_independence_complex(g, d),
            expected=verify.multipartite_bi_claim(parts, d),
            skeleton_level=d - 2,
        ),
        verify.TheoremInstance(
            id=f"multipartite/d{d}/{tag}/totalcut",
            ground_size=sum(parts),
            build=lambda: cc.total_cut_complex(g, d),
            expected=cut_claim,
            skeleton_level=2 if cut_claim.shape == "wedge" and cut_claim.sphere_dim >= 2 else None,
            duality_rider=cut_claim.shape == "wedge",
        ),
    )
    rep = report.VerificationReport()
    for inst in instances:
        rep.add(verify.run_instance(inst))
    return rep.to_json()


def _check_report(suite, report, ids):
    problems = []
    entries = report["entries"]
    if report["failures"] != 0 or not entries:
        problems.append(f"{suite}: {report['failures']} failures in {len(entries)} entries")
    theorems = 0
    for e in entries:
        eid = e["id"]
        if eid in ids:
            problems.append(f"duplicate entry id {eid}")
        ids.add(eid)
        if not eid.startswith(suite + "/"):
            problems.append(f"{suite}: foreign entry {eid}")
        if not e["pass"]:
            problems.append(f"{eid}: failed")
        if suite not in oracles.THEOREM_SUITES or oracles.NON_THEOREM_IDS.match(eid):
            continue
        claim = oracles.expected_for_id(eid)
        if claim is None:
            problems.append(f"{eid}: no closed form for this theorem entry")
            continue
        theorems += 1
        if e["expected"] != oracles.claim_text(claim):
            problems.append(f"{eid}: expected {e['expected']!r}, paper says {oracles.claim_text(claim)!r}")
        if e["computed"] != oracles.profile_text(*oracles.claim_profile(claim)):
            problems.append(f"{eid}: computed {e['computed']!r} does not match {oracles.claim_text(claim)}")
    if suite in oracles.THEOREM_SUITES and theorems == 0:
        problems.append(f"{suite}: no theorem entries checked")
    return problems


def _untimed(text):
    """A verify report without its per-entry timings, which differ run to run."""
    report = json.loads(text)
    for e in report["entries"]:
        e.pop("ms", None)
    return report


def _check_verify(outputs):
    distinct, problems = _distinct([(name, _untimed(out)) for name, out in outputs])
    ids = set()
    for name, out in distinct:
        problems += _check_report(name.split(":", 1)[1].split("/")[0], out, ids)
    return problems


def verify_all(seed, workdir):
    ops = []
    for suite in CLI_SUITES:
        path = os.path.join(workdir, f"verify-{suite}.json")

        def run(suite=suite, path=path):
            run_cli(["verify", "--suite", suite, "-q", "--json", path, "--seed", str(VERIFY_SEED)])
            return _read(path)

        ops.append(Op(f"verify:{suite}", run))
    for total in range(2, MULTIPARTITE_MAX_ORDER + 1):
        for parts in oracles.partitions(total):
            for d in (2, 3):
                ops.append(Op(f"verify:multipartite/d{d}/{'+'.join(map(str, parts))}",
                              lambda parts=parts, d=d: _multipartite_report(parts, d)))
    # A user's query here is one whole `verify` run, so its item is the round;
    # the median of the operations was not steady (see perfbench/README.md).
    return Workload(ops, _check_verify, round_is_item=True)


# -- wide-graphs -------------------------------------------------------------------

# (graph, d, closed form or None); "random:N:P" graphs come from the seed.
# Five of the nine items have 18 vertices, so the item median falls inside
# that size class rather than on a gap between classes; two 20-vertex items
# carry the largest subset scans.  Rounds stay near 3 s, so a run holds
# about nine of them and their median rides out the host's slow spells.
WIDE_ITEMS = (
    ("grid:3,6", 2, ("wedge", 1, oracles.grid_count((3, 6)))),
    ("rook:3,6", 2, ("wedge", 1, oracles.rook_count((3, 6)))),
    ("cyclepow:18:2", 2, oracles.clique_complex_cycle_power(18, 2)),
    ("random:18:0.3", 2, None),
    ("random:18:0.5", 2, None),
    ("grid:4,5", 2, ("wedge", 1, oracles.grid_count((4, 5)))),
    ("cyclepow:20:3", 2, oracles.clique_complex_cycle_power(20, 3)),
    ("cyclepow:16:2", 3, oracles.cycle_bi(16, 3)),  # stable range n >= 2rd, r = 2
    ("cycle:16", 3, oracles.cycle_bi(16, 3)),
)


def _random_graph(rng, n, p):
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return {"n": n, "edges": edges}


def wide_graphs(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for i, (desc, d, _) in enumerate(WIDE_ITEMS):
        stem = os.path.join(workdir, f"item{i}")
        graph = f"{stem}-graph.json"
        if desc.startswith("random:"):
            _, n, p = desc.split(":")
            with open(graph, "w", encoding="utf-8") as fh:
                json.dump(_random_graph(rng, int(n), float(p)), fh)

        def run(desc=desc, d=d, stem=stem, graph=graph):
            if not desc.startswith("random:"):
                run_cli(["gen", desc, "-o", graph])
            run_cli(["complex", "build", "--kind", "bi", "--d", str(d), "--graph", graph,
                     "-o", f"{stem}-complex.json"])
            run_cli(["homology", "--complex", f"{stem}-complex.json", "-o", f"{stem}-homology.json"])
            run_cli(["dual", "--complex", f"{stem}-complex.json", "-o", f"{stem}-dual.json"])
            return {part: _read(f"{stem}-{part}.json") for part in ("graph", "complex", "homology", "dual")}

        ops.append(Op(f"{desc}/d{d}", run))
    return Workload(ops, _check_wide)


def _check_wide_item(name, out):
    import networkx as nx

    problems = []
    d = int(name.rsplit("/d", 1)[1])
    claim = next(c for dd, k, c in WIDE_ITEMS if f"{dd}/d{k}" == name)
    graph = json.loads(out["graph"])
    n, edges = graph["n"], [tuple(e) for e in graph["edges"]]
    full = (1 << n) - 1
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)

    alpha = max(len(c) for c in nx.find_cliques(nx.complement(g)))
    program_alpha = cc.independence_number(cc.graph_from_json(graph))
    if program_alpha != alpha:
        problems.append(f"{name}: independence number {program_alpha}, networkx says {alpha}")

    k = json.loads(out["complex"])
    facets = {oracles.to_mask(f) for f in k["facets"]}
    if k["ground"] != list(range(1, n + 1)) or k["void"]:
        problems.append(f"{name}: complex ground set or void flag is wrong")
    indep = oracles.independent_set_masks(n, edges, d)
    if d == 2:
        cliques = {oracles.to_mask(c) for c in nx.find_cliques(g)}
        if facets != cliques:
            problems.append(f"{name}: clique complex facets differ from networkx maximal cliques")
    else:
        for f in facets:
            if any(i & ~f == 0 for i in indep):
                problems.append(f"{name}: facet {f:#x} holds an independent {d}-set")
            for v in range(n):
                if not f >> v & 1 and not any(i & ~(f | 1 << v) == 0 for i in indep):
                    problems.append(f"{name}: facet {f:#x} is not maximal")
                    break

    h = json.loads(out["homology"])
    profile = {r["degree"]: (r["betti"], tuple(r["torsion"])) for r in h["reduced"]}
    chi = oracles.reduced_euler_from_facets(n, sorted(facets))
    if h["euler"] != chi or sum((-1) ** q * b for q, (b, _) in profile.items()) != chi:
        problems.append(f"{name}: Euler characteristic {h['euler']}, counted {chi}")
    if claim is not None and (h["void"], profile) != oracles.claim_profile(claim):
        problems.append(f"{name}: homology {profile} is not {oracles.claim_text(claim)}")

    dual = json.loads(out["dual"])
    dual_facets = {oracles.to_mask(f) for f in dual["facets"]}
    if dual_facets != {full ^ i for i in indep}:
        problems.append(f"{name}: dual facets are not the complements of the independent {d}-sets")
    dual_chi = oracles.reduced_euler_from_facets(n, sorted(dual_facets))
    if dual_chi != (-1) ** (n - 1) * chi:
        problems.append(f"{name}: chi~(dual) = {dual_chi}, (-1)^(n-1) chi~(K) = {(-1) ** (n - 1) * chi}")
    return problems


def _check_wide(outputs):
    distinct, problems = _distinct(outputs)
    for name, out in distinct:
        problems += _check_wide_item(name, out)
    return problems


# -- torsion-homology --------------------------------------------------------------

# Join factors, each on its own block of vertex labels: (kind, labels).
# kind is "rp2", "s0" (two points) or "bd" (boundary of a simplex).
_FACTOR_PROFILE = {"rp2": oracles.RP2_PROFILE, "s0": oracles.sphere(0)}
# planted matrices, (generator, shape): three scrambled inside 6x6 blocks
# (16 blocks of rank 5, 30 shears each), where the SNF meets large entries
# and many non-unit pivots but no fill-in between blocks, and three scrambled
# as a whole along a chain of neighbouring rows and columns (96 x 96, rank 80,
# 250 shears), where fill-in and pivot order span the whole matrix.
PLANTED = (((oracles.planted_matrix, (16, 6, 5, 30)),) * 3
           + ((oracles.planted_chain_matrix, (96, 80, 250)),) * 3)


def _factor_profile(kind, labels):
    return _FACTOR_PROFILE.get(kind) or oracles.sphere(len(labels) - 2)


def _link_profile(kind, labels):
    """Link of a vertex inside one factor: a 5-cycle in RP2, {emptyset} in S0,
    a smaller simplex boundary in a boundary."""
    if kind == "rp2":
        return oracles.sphere(1)
    if kind == "s0":
        return oracles.EMPTY_SIMPLEX_PROFILE
    return oracles.sphere(len(labels) - 3) if len(labels) > 2 else oracles.EMPTY_SIMPLEX_PROFILE


def _factor_facets(kind, labels):
    if kind == "rp2":
        return [frozenset(labels[v - 1] for v in f) for f in oracles.RP2_FACETS]
    if kind == "s0":
        return [frozenset([v]) for v in labels]
    return [frozenset(labels) - {v} for v in labels]


def _join_all(factors):
    k = None
    for kind, labels in factors:
        part = cc.SimplicialComplex(labels, _factor_facets(kind, labels))
        k = part if k is None else cc.join(k, part)
    return k


def _join_profiles(profiles):
    out = oracles.EMPTY_SIMPLEX_PROFILE
    for p in profiles:
        out = oracles.join_profile(out, p)
    return out


def _closed_star(k, v):
    return cc.SimplicialComplex(k.ground, [f for f in k.facets if v in f])


def _deletion(k, v):
    """k minus the open star of v: facets through v lose v, then only maximal sets stay."""
    cands = {f - {v} for f in k.facets}
    kept = [f for f in cands if not any(f < g for g in cands)]
    return cc.SimplicialComplex(k.ground, kept)


def torsion_homology(seed, workdir):
    rng = random.Random(seed)

    def rp2(offset):
        perm = list(range(offset + 1, offset + 7))
        rng.shuffle(perm)
        return ("rp2", tuple(perm))

    a, b = rp2(0), rp2(10)
    s1, s2, s3 = ("s0", (21, 22)), ("s0", (31, 32)), ("s0", (41, 42))
    bd2, bd3 = ("bd", (51, 52, 53)), ("bd", (61, 62, 63, 64))
    ops, expected = [], {}

    def add(name, fn, want):
        ops.append(Op(name, fn))
        expected[name] = want

    def joined(factors):
        return False, _join_profiles(_factor_profile(*f) for f in factors)

    homology_cases = {
        "rp2": [a], "susp1": [a, s1], "susp2": [a, s1, s2], "susp3": [a, s1, s2, s3],
        "rp2*bd2": [a, bd2], "rp2*bd3": [a, bd3], "rp2*rp2": [a, b], "rp2*rp2*s0": [a, b, s1],
    }
    for name, factors in homology_cases.items():
        add(f"homology:{name}", lambda f=factors: _profile(cc.reduced_homology(_join_all(f))),
            joined(factors))

    # (K, closed star of v): the star is a cone, so the pair has the homology of K.
    # (K, K minus the open star of v): excision gives H_q = H~_{q-1}(link of v),
    # and the link of v in a join is its link in its factor joined to the rest.
    relative_cases = (
        ("star", "susp1", [a, s1], 0), ("star", "rp2*rp2", [a, b], 1),
        ("link", "susp1", [a, s1], 0), ("link", "susp1-pole", [a, s1], 1),
        ("link", "rp2*rp2", [a, b], 0),
    )
    for kind, name, factors, at in relative_cases:
        v = rng.choice(factors[at][1])
        if kind == "star":
            want = joined(factors)
            sub = _closed_star
        else:
            rest = [_factor_profile(*f) for i, f in enumerate(factors) if i != at]
            want = False, oracles.shift_profile(_join_profiles([_link_profile(*factors[at])] + rest))
            sub = _deletion

        def run(f=factors, v=v, sub=sub):
            k = _join_all(f)
            return _profile(cc.relative_homology(k, sub(k, v)))

        add(f"relative-{kind}:{name}", run, want)

    for name, factors in (("susp1", [a, s1]), ("susp2", [a, s1, s2]),
                          ("rp2*bd3", [a, bd3]), ("rp2*rp2", [a, b])):
        add(f"duality:{name}", lambda f=factors: cc.verify_alexander_duality(_join_all(f)), True)

    for i, (plant, shape) in enumerate(PLANTED):
        mat, diag = plant(rng, *shape)
        nonunit = oracles.invariant_factors(diag)
        want = ([1] * (len(diag) - len(nonunit)) + list(nonunit), len(diag))

        def run(mat=mat):
            factors, r = cc.smith_normal_form(mat)
            return list(factors), r

        add(f"snf:planted{i}", run, want)

    def check(outputs):
        distinct, problems = _distinct(outputs)
        for name, out in distinct:
            if _canon(out) != _canon(expected[name]):
                problems.append(f"{name}: got {out}, expected {expected[name]}")
        return problems

    return Workload(ops, check)


WORKLOADS = {
    "verify-all": verify_all,
    "wide-graphs": wide_graphs,
    "torsion-homology": torsion_homology,
}


def prepare(name, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
