"""Command-line interface: schemas, piping, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cutcomplexes import cli
from cutcomplexes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle:6")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 6 and len(obj["edges"]) == 6


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "gen", "path:4", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 4


def test_complex_build_descriptor_vs_file(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    run_cli(capsys, "gen", "cycle:6", "-o", str(gfile))
    code, via_file, _ = run_cli(
        capsys, "complex", "build", "--kind", "totalcut", "--d", "2",
        "--graph", str(gfile),
    )
    assert code == 0
    code, via_descriptor, _ = run_cli(
        capsys, "complex", "build", "--kind", "totalcut", "--d", "2", "cycle:6"
    )
    assert code == 0
    assert via_file == via_descriptor
    obj = json.loads(via_file)
    assert len(obj["facets"]) == 9 and not obj["void"]


def test_complex_build_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "complex", "build", "--kind", "bi", "--d", "2")
    assert code == 2 and "exactly one" in err


def test_homology_pipe_equals_file(tmp_path, capsys, monkeypatch):
    cfile = tmp_path / "k.json"
    run_cli(
        capsys, "complex", "build", "--kind", "totalcut", "--d", "2", "cycle:6",
        "-o", str(cfile),
    )
    code, from_file, _ = run_cli(capsys, "homology", "--complex", str(cfile))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(cfile.read_text()))
    code, from_stdin, _ = run_cli(capsys, "homology")
    assert code == 0
    assert from_file == from_stdin
    obj = json.loads(from_file)
    assert obj["reduced"] == [{"degree": 2, "betti": 1, "torsion": []}]
    assert obj["euler"] == 1


def test_homology_of_void_complex(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"ground": [1, 2], "facets": [], "void": true}')
    )
    code, out, _ = run_cli(capsys, "homology")
    assert code == 0
    obj = json.loads(out)
    assert obj["void"] and obj["reduced"] == [] and obj["euler"] == 0


def simplex_boundary_json(n):
    ground = list(range(1, n + 1))
    return json.dumps(
        {"ground": ground, "facets": [ground[:i] + ground[i + 1:] for i in range(n)],
         "void": False}
    )


@pytest.mark.parametrize(
    "text,degree,euler",
    [pytest.param('{"ground": [], "facets": [[]], "void": false}', -1, -1, id="empty")]
    # C(60, 30) is past 2^53, so a float Euler sum would lose the count
    + [pytest.param(simplex_boundary_json(n), n - 2, 1, id=f"boundary-{n}")
       for n in (50, 56, 60, 64)],
)
def test_homology_euler_is_an_integer(text, degree, euler, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "homology")
    assert code == 0, err
    assert f'"euler": {euler},' in out
    obj = json.loads(out)
    assert obj["reduced"] == [{"degree": degree, "betti": 1, "torsion": []}]
    assert type(obj["euler"]) is int


def test_dual_round_trip(tmp_path, capsys):
    cfile = tmp_path / "k.json"
    run_cli(capsys, "complex", "build", "--kind", "bi", "--d", "2", "cycle:4",
            "-o", str(cfile))
    code, out, _ = run_cli(capsys, "dual", "--complex", str(cfile))
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj["facets"]) == [[1, 3], [2, 4]]


def test_poset_subcommand(capsys):
    code, out, _ = run_cli(capsys, "poset", "--d", "2", "--k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ground"] == [1, 2, 3] and obj["facets"] == [[1], [2], [3]]
    code, aug, _ = run_cli(capsys, "poset", "--d", "2", "--k", "3", "--augmented")
    assert json.loads(aug)["ground"] == [1, 2, 3, 4]


def test_poset_subcommand_spends_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    # 1,715 elements and 7^6 maximal chains fit in 2^20
    code, out, err = run_cli(capsys, "poset", "--d", "7", "--k", "7")
    assert code == 0, err
    obj = json.loads(out)
    assert len(obj["ground"]) == 1715 and len(obj["facets"]) == 117649
    # 8^7 chains, and C(39, 20) - 1 elements, are refused quickly
    for d, k, message in ((8, 8, "maximal chain search"), (20, 20, "composition poset")):
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "poset", "--d", str(d), "--k", str(k))
        assert code == 2 and message in err and "exceeds the 2^20 budget" in err
        assert time.perf_counter() - t0 < 10


def test_malformed_graph_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[1, 5]]}')
    code, _, err = run_cli(
        capsys, "complex", "build", "--kind", "bi", "--d", "2", "--graph", str(bad)
    )
    assert code == 2
    assert "out of range" in err
    bad.write_text("{oops")
    code, _, err = run_cli(
        capsys, "complex", "build", "--kind", "bi", "--d", "2", "--graph", str(bad)
    )
    assert code == 2
    assert "line 1" in err
    # JSON true/false are not integers, although Python's bool is an int
    for text, message in (
        ('{"n": true, "edges": []}', 'error: "n" must be a nonnegative integer, got True'),
        ('{"n": 3, "edges": [[true, 2]]}',
         "error: edges[0]: expected [u, v] integers, got [True, 2]"),
    ):
        bad.write_text(text)
        code, _, err = run_cli(
            capsys, "complex", "build", "--kind", "totalcut", "--d", "2", "--graph", str(bad)
        )
        assert (code, err) == (2, message + "\n")


MALFORMED_COMPLEXES = [
    ('{"ground": [1, 2], "facets": [[1, [2]]], "void": false}',
     "error: facets[0]: expected a list of integer vertices, got [1, [2]]"),
    ('{"ground": [1, 2], "facets": [{"a": 1}], "void": false}',
     "error: facets[0]: expected a list of integer vertices, got {'a': 1}"),
    ('{"ground": [1, 2], "facets": [], "void": "no"}',
     "error: \"void\" must be true or false, got 'no'"),
    ('{"ground": [1, 1, 2], "facets": [[1, 2]], "void": false}',
     "error: \"ground\" lists vertex 1 twice"),
    ('{"ground": [1, 2, 3], "facets": [[1, 1, 2], [1, 2]], "void": false}',
     "error: facets[0]: vertex 1 appears twice"),
    ('{"ground": [1, 2], "facets": [[1, 2], [2, 1]], "void": false}',
     "error: facets[1] repeats facets[0]"),
    ('{"ground": [1, 2], "facets": [[1, 3]], "void": false}',
     "error: facets[0]: vertex 3 is not in the ground set"),
]


@pytest.mark.parametrize("text,message", MALFORMED_COMPLEXES)
def test_malformed_complex_json_exits_2(text, message, tmp_path, capsys, monkeypatch):
    cfile = tmp_path / "k.json"
    cfile.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for argv in (["homology"], ["homology", "--complex", str(cfile)],
                 ["dual", "--complex", str(cfile)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n"), argv


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def cross_polytope_payload():
    # boundary of the 5-dimensional cross-polytope: 10 vertices, 243 faces, S^4
    facets = [[2 * i + 1 + (c >> i & 1) for i in range(5)] for c in range(32)]
    return json.dumps({"ground": list(range(1, 11)), "facets": facets, "void": False})


SPHERE_S4 = [{"degree": 4, "betti": 1, "torsion": []}]


def test_force_raises_cap(capsys, monkeypatch, tmp_path):
    # lower the cap through the environment, then override it with --force
    payload = cross_polytope_payload()
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run_cli(capsys, "homology")
    assert code == 2 and "2^5 budget" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "homology", "--force", "12")
    assert code == 0
    assert json.loads(out)["reduced"] == SPHERE_S4
    # the dual's transversal search makes more than 2^5 nodes, at most 2^6;
    # its facets are the complements of the five antipodal pairs
    source = tmp_path / "sphere.json"
    source.write_text(payload)
    code, _, err = run_cli(capsys, "dual", "--complex", str(source), "--force", "5")
    assert code == 2 and "2^5 budget" in err
    code, out, _ = run_cli(capsys, "dual", "--complex", str(source), "--force", "6")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 5


def test_env_var_mirrors_force(capsys, monkeypatch):
    payload = cross_polytope_payload()
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "7")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run_cli(capsys, "homology")
    assert code == 2 and "2^7 budget" in err
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "8")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "homology")
    assert code == 0
    assert json.loads(out)["reduced"] == SPHERE_S4


def test_totalcut_of_grid_over_the_ground_cap(capsys, monkeypatch):
    # 21 ground vertices, within the 2^20 budget at the default cap of 20:
    # the total cut complex is a wedge of 12 = cycle rank S^17, and the
    # bounded independence complex (the grid as a clique complex) of 12 circles
    for kind, degree in (("totalcut", 17), ("bi", 1)):
        code, complex_json, _ = run_cli(
            capsys, "complex", "build", "--kind", kind, "--d", "2", "grid:3,7"
        )
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(complex_json))
        code, out, err = run_cli(capsys, "homology")
        assert code == 0, err
        assert json.loads(out)["reduced"] == [
            {"degree": degree, "betti": 12, "torsion": []}
        ]


def test_dual_of_grid_cut_complex_over_20_vertices(capsys, monkeypatch):
    # Alexander duality moves H~20 = Z^15 of the 4x6 grid's total cut
    # complex to H~1 = Z^15 of its dual, on 24 ground vertices; both
    # dual and homology read the previous step from stdin
    build = ("complex", "build", "--kind", "totalcut", "--d", "2", "grid:4,6")
    code, cut_json, err = run_cli(capsys, *build)
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", io.StringIO(cut_json))
    code, dual_json, err = run_cli(capsys, "dual")
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", io.StringIO(dual_json))
    code, out, err = run_cli(capsys, "homology")
    assert code == 0, err
    assert json.loads(out)["reduced"] == [{"degree": 1, "betti": 15, "torsion": []}]


def test_totalcut_scan_over_the_budget_exits_2(capsys):
    # C(40, 12) vertex 12-sets are far over 2^20: refused before the scan
    build = ("complex", "build", "--kind", "totalcut", "--d", "12", "path:40")
    code, _, err = run_cli(capsys, *build)
    assert code == 2 and "2^20 budget" in err


@pytest.mark.parametrize(
    "env, flags, message",
    [
        (None, ("--force", "-1"), "the budget cap must be a nonnegative integer, got -1"),
        ("-3", (), "CUTCOMPLEXES_MAX_GROUND must be a nonnegative integer, got '-3'"),
        ("many", (), "CUTCOMPLEXES_MAX_GROUND must be a nonnegative integer, got 'many'"),
    ],
)
def test_negative_cap_exits_2(capsys, monkeypatch, env, flags, message):
    if env is None:
        monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    else:
        monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", env)
    monkeypatch.setattr("sys.stdin", io.StringIO(cross_polytope_payload()))
    code, _, err = run_cli(capsys, "homology", *flags)
    assert code == 2 and message in err


@pytest.mark.parametrize(
    "env, flags, message",
    [
        (None, ("--force", "99999999999"),
         "error: the budget cap must be at most 64, got 99999999999\n"),
        ("65", (), "error: CUTCOMPLEXES_MAX_GROUND must be at most 64, got '65'\n"),
        ("9" * 5000, (),
         f"error: CUTCOMPLEXES_MAX_GROUND must be at most 64, got '{'9' * 5000}'\n"),
    ],
    ids=["force", "env", "env-5000-digits"],
)
def test_cap_over_64_exits_2(capsys, monkeypatch, env, flags, message):
    # a cap past 64 is refused by name before a 2^cap budget is built
    if env is None:
        monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    else:
        monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", env)
    payload = '{"ground": [1, 2, 3], "facets": [[1, 2]], "void": false}'
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run_cli(capsys, "homology", *flags) == (2, "", message)
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "homology", "--force", "64")
    assert (code, json.loads(out)["reduced"]) == (0, [])


def test_closed_stdout_exits_141(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["verify", "--suite", "poset"]) == 141


# BI_2 of the 12-cycle scans the C(12, 2) = 66 vertex pairs: over 2^6, within 2^7
BI_BUILD = ("complex", "build", "--kind", "bi", "--d", "2")


def test_complex_build_force_sets_the_budget(capsys, monkeypatch):
    code, _, err = run_cli(capsys, *BI_BUILD, "--force", "6", "cycle:12")
    assert code == 2 and "2^6 budget" in err
    # --force wins over the environment in both directions
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "6")
    code, out, _ = run_cli(capsys, *BI_BUILD, "--force", "7", "cycle:12")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 12


def test_complex_build_env_var_sets_the_budget(capsys, monkeypatch):
    # no ground-size cap: 21 vertices build at the default budget
    monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    code, out, _ = run_cli(capsys, *BI_BUILD, "path:21")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 20
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "6")
    code, _, err = run_cli(capsys, *BI_BUILD, "cycle:12")
    assert code == 2 and "2^6 budget" in err
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "7")
    code, out, _ = run_cli(capsys, *BI_BUILD, "cycle:12")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 12


def test_verify_cli(tmp_path, capsys):
    jout = tmp_path / "r.json"
    cout = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "poset", "--json", str(jout), "--csv", str(cout)
    )
    assert code == 0
    assert "15/15 checks passed" in out
    report = json.loads(jout.read_text())
    assert report["failures"] == 0 and len(report["entries"]) == 15
    assert cout.read_text().startswith("id,expected,computed")


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "gen", "cycle:5", "-o", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    for flag in ("--json", "--csv"):
        code, out, err = run_cli(capsys, "verify", "--suite", "poset", flag, str(tmp_path))
        assert code == 2 and "15/15 checks passed" in out
        assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_verify_filter_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "poset", "--filter", "zzz*")
    assert code == 2 and "matched no" in err


def test_verify_reports_every_entry_over_a_lowered_budget(capsys, monkeypatch, tmp_path):
    # at 2^8 the larger cycles are refused one entry at a time, not the run
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "8")
    jout = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "cycles", "-q", "--json", str(jout))
    assert (code, err) == (1, "")
    assert out.endswith("31/48 checks passed\n")
    entries = json.loads(jout.read_text())["entries"]
    refused = [e for e in entries if e["computed"].startswith("refused: ")]
    assert len(entries) == 48 and len(refused) == 17
    assert all(not e["pass"] and "exceeds the 2^8 budget" in e["computed"] for e in refused)


def test_calls_share_one_parser_without_sharing_flags(capsys, monkeypatch):
    # the parser is built on the first call and reused; a --force given to
    # one call does not carry over to the next
    payload = cross_polytope_payload()
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "homology", "--force", "12")
    assert code == 0 and json.loads(out)["reduced"] == SPHERE_S4
    parser = cli._build_parser()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run_cli(capsys, "homology")
    assert code == 2 and "2^5 budget" in err
    assert cli._build_parser() is parser


def test_importing_the_cli_builds_no_parser():
    probe = "import cutcomplexes.cli as c; print(c._build_parser.cache_info().currsize)"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "0\n"


C5_EDGES = [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]
C5_GROUND = [1, 2, 3, 4, 5]
# the JSON values pinned from the former indented output
ONE_LINE_OUTPUTS = [
    (("gen", "cycle:5"), {"edges": C5_EDGES, "n": 5}),
    (("complex", "build", "--kind", "bi", "--d", "2", "cycle:5"),
     {"facets": C5_EDGES, "ground": C5_GROUND, "void": False}),
    (("homology",),
     {"euler": -1, "reduced": [{"betti": 1, "degree": 1, "torsion": []}], "void": False}),
    (("dual",),
     {"facets": [[1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5]],
      "ground": C5_GROUND, "void": False}),
    (("poset", "--d", "2", "--k", "3"),
     {"facets": [[1], [2], [3]], "ground": [1, 2, 3], "void": False}),
]


@pytest.mark.parametrize("argv,value", ONE_LINE_OUTPUTS,
                         ids=["gen", "complex-build", "homology", "dual", "poset"])
def test_json_output_is_one_line(argv, value, capsys, monkeypatch):
    # homology and dual read the clique complex of C5 from stdin
    stdin = json.dumps({"facets": C5_EDGES, "ground": C5_GROUND, "void": False})
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    # json.dumps without indent writes no newline: the output is one line
    assert run_cli(capsys, *argv) == (0, json.dumps(value, sort_keys=True) + "\n", "")


def test_verify_json_report_is_one_line(tmp_path, capsys):
    jout = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--suite", "poset", "--filter",
                         "poset/order-complex/d3/*", "--json", str(jout))
    assert code == 0
    text = jout.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert report["failures"] == 0
    assert [(e["id"], e["expected"], e["computed"], e["pass"], e["note"])
            for e in report["entries"]] == [
        (f"poset/order-complex/d3/k{k}", expected, computed, True, f"{size} poset elements")
        for k, expected, computed, size in (
            (1, "contractible", "0", 2),
            (2, "contractible", "0", 5),
            (3, "S^1", "H~1=Z", 9),
            (4, "3*S^1", "H~1=Z^3", 14),
            (5, "6*S^1", "H~1=Z^6", 20),
        )
    ]
