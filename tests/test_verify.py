"""Verifier plumbing: expected-value formulas, auxiliary graphs, determinism,
filtering, and report serialization."""

import json

import pytest

import cutcomplexes.homology
import cutcomplexes.verify
from cutcomplexes import SUITES, VerificationReport, WedgeClaim, girth, run_all
from cutcomplexes.verify import (
    DEFAULT_SEED,
    RECIPES,
    cycle_power_cut_case,
    grid_wedge_count,
    multipartite_bi_claim,
    multipartite_cut_claim,
    petersen,
    psi_coloring,
    rook_wedge_count,
)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10
    assert g.num_edges() == 15
    assert all(len(g.adj[v]) == 3 for v in g.vertices())
    assert girth(g) == 5


def test_cycle_power_case_split():
    claim, label = cycle_power_cut_case(8, 3)
    assert label == "a" and claim == WedgeClaim.spheres(2)
    claim, label = cycle_power_cut_case(9, 3)
    assert label == "c" and claim == WedgeClaim.spheres(4, 2)
    claim, label = cycle_power_cut_case(10, 3)
    assert label == "d" and claim == WedgeClaim.spheres(6)
    claim, label = cycle_power_cut_case(11, 4)
    assert label == "b" and claim == WedgeClaim.spheres(5)
    claim, label = cycle_power_cut_case(13, 3)
    assert label == "d" and claim == WedgeClaim.spheres(9)


def test_multipartite_claims():
    assert multipartite_cut_claim((1, 3), 2).shape == "contractible"
    assert multipartite_cut_claim((2, 2), 3).shape == "void"
    assert multipartite_cut_claim((1, 1), 2).shape == "void"
    claim = multipartite_cut_claim((3, 3), 2)
    assert claim == WedgeClaim.spheres(2, 4)
    assert multipartite_bi_claim((3, 3), 2) == WedgeClaim.spheres(1, 4)
    assert multipartite_bi_claim((2, 3), 3).shape == "contractible"
    assert multipartite_bi_claim((3, 4, 5), 3) == WedgeClaim.spheres(5, 18)


def test_product_counts():
    assert grid_wedge_count((3, 3)) == 4
    assert grid_wedge_count((2, 2)) == 1
    assert rook_wedge_count((2, 2, 2)) == 5
    assert rook_wedge_count((3, 3)) == 4
    # recursion satisfied by the closed form
    assert rook_wedge_count((2, 2, 3)) == rook_wedge_count((2, 2, 2)) + rook_wedge_count(
        (2, 2)
    ) + 2 * 2 - 1


def test_psi_coloring_blocks():
    c12 = psi_coloring(3, 12)
    assert c12[1:] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    c13 = psi_coloring(3, 13)
    assert c13[1:] == [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    # every class is a run of consecutive vertices covering the cycle
    assert sorted(set(c13[1:])) == list(range(1, 7))


def strip_timings(report):
    return [
        (e.id, e.expected, e.computed, e.passed, e.note) for e in report.entries
    ]


def test_reports_are_deterministic():
    a = run_all(suite="unions")
    b = run_all(suite="unions")
    assert strip_timings(a) == strip_timings(b)
    c = run_all(suite="structural", seed=3)
    d = run_all(suite="structural", seed=3)
    assert strip_timings(c) == strip_timings(d)


def test_seeded_suites_record_seed():
    report = run_all(suite="duality", seed=7)
    assert report.entries
    assert all("seed=7" in e.note for e in report.entries)


def test_filter_and_errors():
    report = run_all(suite="poset", filter_pattern="poset/*k1")
    assert {e.id for e in report.entries} == {
        f"poset/order-complex/d{d}/k1" for d in (2, 3, 4)
    }
    with pytest.raises(ValueError, match="unknown suite"):
        run_all(suite="nonsense")
    with pytest.raises(ValueError, match="matched no"):
        run_all(suite="poset", filter_pattern="zzz*")


def test_suite_sizes_are_pinned():
    # parameter-range regressions show up as recipe-count changes; counting
    # the generators' recipes builds no complex
    expected = {
        "cycles": 48,          # d in {2,3,4}, n in [2d,13], two complexes each
        "cyclepowers": 50,     # 32 stable + 3 tight + 4 informational + 7 + 4
        "multipartite": 1036,  # 259 partitions of 2..12 into >= 2 parts, x2 d, x2 kinds
        "products": 36,        # 9 dimension lists, grid+rook, two complexes
        "unions": 13,
        "poset": 15,           # 2 <= d <= 4, 1 <= k <= 5
        "structural": 189,
        "duality": 115,        # 50 random graphs at the default seed
    }
    sizes = {
        name: sum(1 for _ in recipes(DEFAULT_SEED)) for name, recipes in RECIPES.items()
    }
    assert sizes == expected


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_filter_applies_before_any_build(monkeypatch):
    calls = {"run_instance": 0, "reduced_homology": 0, "homology_of_chain": 0}
    for module, name in (
        (cutcomplexes.verify, "run_instance"),
        (cutcomplexes.verify, "reduced_homology"),
        (cutcomplexes.homology, "homology_of_chain"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    report = run_all(filter_pattern="structural/girth/*")
    assert len(report.entries) == 9 and report.passed
    assert calls == {"run_instance": 9, "reduced_homology": 0, "homology_of_chain": 0}


def test_filtered_entries_equal_the_full_run():
    full = run_all(suite="structural", seed=3)
    part = run_all(suite="structural", seed=3, filter_pattern="structural/pairs/*")
    matching = [e for e in full.entries if e.id.startswith("structural/pairs/")]
    assert len(part.entries) == len(matching) == 18
    assert strip_timings(part) == strip_timings(VerificationReport(matching))


def test_report_schema():
    report = SUITES["poset"]()
    obj = report.to_json_obj()
    assert set(obj) == {"entries", "failures"}
    assert obj["failures"] == 0
    entry = obj["entries"][0]
    assert {"id", "expected", "computed", "pass", "ms"} <= set(entry)
    json.dumps(obj)  # serializable


def test_report_csv(tmp_path):
    report = SUITES["unions"]()
    out = tmp_path / "report.csv"
    with open(out, "w", newline="") as fh:
        report.write_csv(fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("id,expected,computed,pass,ms")
    assert len(lines) == len(report.entries) + 1


def test_girth_suite_instances_have_the_hypothesis():
    # the fixed girth test set must satisfy girth >= 2d by construction
    from cutcomplexes.verify import _girth_recipes, run_instance

    recipes = list(_girth_recipes())
    assert len(recipes) == 9
    for inst in recipes:
        entry = run_instance(inst)
        assert entry.passed, entry
        assert "NOT" not in entry.computed


def test_instance_cap_is_enforced():
    from cutcomplexes.verify import TheoremInstance, run_instance

    for expected in (WedgeClaim.void(), "holds"):
        inst = TheoremInstance(id="x", ground_size=15, build=lambda: None, expected=expected)
        with pytest.raises(ValueError, match="cap"):
            run_instance(inst)


def test_predicate_recipes_report_their_verdict():
    from cutcomplexes.verify import TheoremInstance, run_instance

    for ok in (True, False):
        inst = TheoremInstance(
            id="p", ground_size=3, build=lambda ok=ok: (ok, "what ran"),
            expected="holds", skeleton_level=0, duality_rider=True, note="n=3",
        )
        entry = run_instance(inst)
        # the verdict is the predicate's own, and no rider touches the entry
        assert (entry.id, entry.expected, entry.computed, entry.passed, entry.note) == (
            "p", "holds", "what ran", ok, "n=3"
        )


def test_duality_rider_follows_the_cap(monkeypatch):
    from cutcomplexes import cycle, total_cut_complex
    from cutcomplexes.verify import TheoremInstance, run_instance

    def note(n):
        inst = TheoremInstance(
            id=f"c{n}", ground_size=n, build=lambda: total_cut_complex(cycle(n), 2),
            expected=WedgeClaim.spheres(n - 4), duality_rider=True,
        )
        entry = run_instance(inst)
        assert entry.passed
        return entry.note

    # the rider runs on ground sets up to DUALITY_CHECK_CAP (12) and no further
    assert (note(12), note(13)) == ("duality ok", "")
    monkeypatch.setattr(cutcomplexes.verify, "DUALITY_CHECK_CAP", 6)
    assert (note(6), note(7)) == ("duality ok", "")
