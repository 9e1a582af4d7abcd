"""Acceptance criteria, one test per criterion.

Every homology comparison is exact (integer Betti numbers and torsion); each
criterion prints a single pass/fail line with its runtime and is held to the
stated budget.
"""

import hashlib
import json
import time

from cutcomplexes import (
    SimplicialComplex,
    chain_complex,
    cycle,
    reduced_homology,
    run_all,
    smith_normal_form,
    total_cut_complex,
)

BUDGETS_SECONDS = {
    "cycles": 120,
    "cyclepowers": 300,
    "multipartite": 180,
    "products": 300,
    "unions": 120,
    "duality": 180,
    "structural": 300,
    "poset": 60,
}

# sha256 of json.dumps([[id, expected, computed, passed, note], ...]) over each
# suite's report at the default seed; timings stay out.  Any change to an id,
# a claim, a computed profile, a verdict or a note shows up here.
REPORT_DIGESTS = {
    "cycles": "5344250c1004cdceafa7897deb40e1b4cc4d9aaf029a5ec9e3b7f4042717d95b",
    "cyclepowers": "69fe37de543477b1fb37646256783116516b6174e7f901aa7558c69f4d2c025c",
    "multipartite": "8e4a358bf673899ba63914337aece70ac003fddd1729d98d13167a2d7b372b95",
    "products": "18c84b3c33fdd8edda4ac92d3951dfb83b02959e5aeaf9afb56aed3a092d1217",
    "unions": "49b24d865a1298c26925b659fd3b14b62e73c1d2897f211e7441e867f706d032",
    "duality": "e223f133c796ec045e41b00709f2312d7b821e4d8e908828feea4c3be1b81b3e",
    "structural": "7c89e3d366ebb10c0e594ac47976aa727479f79b93e6a61108863a7e07146a69",
    "poset": "76ec473a549f2948f113445cb2afb9c6bb48e8e4cf4f24a04371b7883d8d545a",
}


def report_digest(report):
    rows = [[e.id, e.expected, e.computed, e.passed, e.note] for e in report.entries]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_suite_criterion(number, suite, description):
    t0 = time.perf_counter()
    report = run_all(suite=suite)
    elapsed = time.perf_counter() - t0
    ok = report.passed
    status = "PASS" if ok else "FAIL"
    print(
        f"[{status}] criterion {number}: {description} "
        f"({report.summary()}, {elapsed:.1f}s)"
    )
    for entry in report.failed_entries()[:20]:
        print(f"    failed: {entry.id} expected {entry.expected} got {entry.computed}")
    assert ok, f"criterion {number} has failing entries"
    assert report_digest(report) == REPORT_DIGESTS[suite], (
        f"criterion {number}: the {suite} report differs from the pinned one"
    )
    budget = BUDGETS_SECONDS[suite]
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (> {budget}s)"
    return report


def test_criterion_1_cycle_table():
    report = run_suite_criterion(
        1, "cycles", "cycle table: S^(n-2d) cut profiles and S^(2d-3) clique-side"
    )
    assert len(report.entries) == 48


def test_criterion_2_cycle_powers():
    report = run_suite_criterion(
        2, "cyclepowers", "cycle powers: stable spheres, tight instances, case split"
    )
    by_id = {e.id: e for e in report.entries}
    b_case = by_id["cyclepowers/case/r4/n11"]
    assert b_case.expected == "S^5" and b_case.passed
    assert "case (b)" in b_case.note
    assert by_id["cyclepowers/case/r3/middle-range"].passed


def test_criterion_3_multipartite():
    run_suite_criterion(
        3, "multipartite", "complete multipartite profiles for all part lists, n <= 12"
    )


def test_criterion_4_products():
    report = run_suite_criterion(
        4, "products", "grid and rook products match the wedge-count formulas"
    )
    from cutcomplexes.verify import grid_wedge_count, rook_wedge_count

    assert rook_wedge_count((2, 2, 2)) == 5
    assert grid_wedge_count((3, 3)) == 4
    by_id = {e.id: e for e in report.entries}
    assert by_id["products/rook/2x2x2/bi"].expected == "5*S^1"
    assert by_id["products/grid/3x3/totalcut"].expected == "4*S^5"


def test_criterion_5_disjoint_unions():
    report = run_suite_criterion(
        5, "unions", "disjoint unions: composition-counting wedges of S^(d-2)"
    )
    by_id = {e.id: e for e in report.entries}
    assert by_id["unions/totalcut/d2/k5/5xP2"].expected == "4*S^7"


def test_criterion_6_duality():
    report = run_suite_criterion(
        6, "duality", "Alexander duality on 50 seeded random graphs, every valid d"
    )
    graphs_seen = {e.id.split("/")[1] for e in report.entries}
    assert len(graphs_seen) == 50


def test_criterion_7_structural():
    report = run_suite_criterion(
        7, "structural", "domination, chordal, deletion identities, suspension, "
        "pairs, girth skeleta, run-coloring"
    )
    ids = {e.id for e in report.entries}
    assert "structural/girth/petersen/k6" in ids
    assert any(i.startswith("structural/coloring/n12") for i in ids)


def test_criterion_8_posets():
    run_suite_criterion(
        8, "poset", "composition-poset order complexes across 2<=d<=4, 1<=k<=5"
    )


def test_criterion_9_engine_oracles():
    t0 = time.perf_counter()
    # the boundary-composition and Euler checks run inside every construction;
    # build a batch and make sure nothing trips
    for n in range(4, 9):
        k = total_cut_complex(cycle(n), 2)
        chain_complex(k)
        reduced_homology(k)
    assert smith_normal_form([[2, 4], [6, 8]]) == ([2, 4], 2)
    rp2 = SimplicialComplex(
        range(1, 7),
        [
            {1, 2, 5}, {1, 2, 6}, {1, 3, 4}, {1, 3, 5}, {1, 4, 6},
            {2, 3, 4}, {2, 3, 6}, {2, 4, 5}, {3, 5, 6}, {4, 5, 6},
        ],
    )
    assert reduced_homology(rp2).groups == ((1, 0, (2,)),)
    elapsed = time.perf_counter() - t0
    print(
        f"[PASS] criterion 9: boundary/Euler checks active, SNF diag(2,4), "
        f"projective-plane torsion Z/2 ({elapsed:.2f}s)"
    )
