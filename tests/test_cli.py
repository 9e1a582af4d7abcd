"""Command-line interface: schemas, piping, exit codes."""

import io
import json

import pytest

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


def test_force_raises_cap(capsys, monkeypatch):
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
    # 21 ground vertices, above the cap of 20, within the 2^20 faces the
    # homology of the core makes: a wedge of 12 = cycle rank S^17
    code, complex_json, _ = run_cli(
        capsys, "complex", "build", "--kind", "totalcut", "--d", "2", "grid:3,7"
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(complex_json))
    code, out, err = run_cli(capsys, "homology")
    assert code == 0, err
    assert json.loads(out)["reduced"] == [{"degree": 17, "betti": 12, "torsion": []}]


def test_closed_stdout_exits_141(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["verify", "--suite", "poset"]) == 141


def test_complex_build_force_sets_alpha_table_cap(capsys, monkeypatch):
    build = ("complex", "build", "--kind", "bi", "--d", "2")
    code, _, err = run_cli(capsys, *build, "--force", "5", "path:6")
    assert code == 2 and "capped at 5 vertices" in err
    # --force wins over the environment in both directions
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    code, out, _ = run_cli(capsys, *build, "--force", "6", "path:6")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 5


def test_complex_build_env_var_sets_alpha_table_cap(capsys, monkeypatch):
    build = ("complex", "build", "--kind", "bi", "--d", "2")
    monkeypatch.delenv("CUTCOMPLEXES_MAX_GROUND", raising=False)
    code, _, err = run_cli(capsys, *build, "path:21")
    assert code == 2 and "capped at 20 vertices" in err
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "22")
    code, out, _ = run_cli(capsys, *build, "path:21")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 20
    monkeypatch.setenv("CUTCOMPLEXES_MAX_GROUND", "5")
    code, _, err = run_cli(capsys, *build, "path:6")
    assert code == 2 and "capped at 5 vertices" in err


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
