import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from icbounds import combinatorial
from icbounds.cli import main
from icbounds.lp import Uncertified, solve_min


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def gen(capsys, tmp_path, family, *params):
    path = tmp_path / f"{family}.json"
    code, _, err = run(capsys, "gen", family, *params, "-o", str(path))
    assert code == 0, err
    return path


def test_gen_writes_graph(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    data = json.loads(path.read_text())
    assert data["n"] == 5 and len(data["edges"]) == 5
    assert data["symmetry"] == [[1, 2, 3, 4, 0]]


def test_gen_with_expected_writes_the_familys_values(capsys, tmp_path):
    from icbounds.families import family

    for name, params in (("cycle", {"n": 5}), ("petersen", {}), ("aac", {"n": 2}), ("tri3", {})):
        path = tmp_path / f"{name}.json"
        code, _, err = run(capsys, "gen", name, *(f"{k}={v}" for k, v in params.items()),
                           "--with-expected", "-o", str(path))
        assert code == 0, err
        want = family(name, **params).expected
        assert json.loads(path.read_text())["expected"] == {k: str(v) for k, v in want.items()}
    assert "expected" not in json.loads(gen(capsys, tmp_path, "cycle", "n=5").read_text())


def test_gen_bad_params(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "cycle", "n=2", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in err


def test_gen_missing_param(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "cycle", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "family 'cycle' needs parameter n" in err
    assert not (tmp_path / "x.json").exists()


def test_bounds_c5(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "bounds", str(path), "--alpha", "--chibarf", "--chibar")
    assert out["alpha"]["value"] == "2"
    assert out["chibarf"]["value"] == "5/2"
    assert out["chibar"]["value"] == "3"


def test_bounds_minrk(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "bounds", str(path), "--minrk2", "exact")
    assert out["minrk2"]["value"] == "3"


def test_bounds_minrk_gram(capsys, tmp_path):
    path = gen(capsys, tmp_path, "projective-hadamard", "q=3")
    out = run_json(capsys, "bounds", str(path), "--minrk2", "gram")
    assert out["minrk2"] == {"value": "3", "field": 3, "exact": False}


def test_bounds_minrk_gram_needs_matrix(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, _, err = run(capsys, "bounds", str(path), "--minrk2", "gram")
    assert code == 2
    assert "matrix" in err


def test_report_refuses_a_malformed_file_matrix(capsys, tmp_path):
    # report reads a file's matrix, so a bad one is a validation error
    path = gen(capsys, tmp_path, "projective-hadamard", "q=3")
    good = json.loads(path.read_text())
    for change, message in (
        ({"matrix_field": 0}, "matrix field 0 is not an integer of at least 2"),
        ({"matrix_field": "3"}, "matrix field '3' is not an integer of at least 2"),
        ({"matrix_field": 4}, "matrix field 4 is not a prime"),
        ({"matrix": good["matrix"][:-1] + [["1"] * 9]}, "matrix is not a list of rows of integers"),
        ({"matrix": good["matrix"][:-1]}, "matrix is not 9 x 9"),
    ):
        path.write_text(json.dumps({**good, **change}))
        code, _, err = run(capsys, "report", str(path), "--level", "none")
        assert code == 2 and message in err, err


def test_gen_oddtown_feeds_the_minrank_commands(capsys, tmp_path):
    # the file carries the GF(2) Gram matrix of the 16 sets, which fits the
    # graph: intersections are odd exactly on edges and on the diagonal
    path = gen(capsys, tmp_path, "oddtown", "m=6")
    data = json.loads(path.read_text())
    assert len(data["matrix"]) == 16 and data["matrix_field"] == 2
    out = run_json(capsys, "code", str(path), "--scheme", "minrk")
    assert Fraction(out["scheme"]["rate"]) <= 6 and out["verification"]["passed"] is True
    out = run_json(capsys, "bounds", str(path), "--minrk2", "gram")
    assert int(out["minrk2"]["value"]) <= 6 and out["minrk2"]["field"] == 2


def test_chibarf_of_projective_hadamard_q7(capsys, tmp_path, monkeypatch):
    # the strong cover LP of PH_7 is 49 x 92 114; rounding HiGHS's x at 10^3
    # leaves rows infeasible, and the exact solution of its 49-column
    # optimal basis certifies chi_bar_f = 49/13
    seen = []
    monkeypatch.setattr(combinatorial, "solve_min", lambda p: seen.append(solve_min(p)) or seen[-1])
    path = gen(capsys, tmp_path, "projective-hadamard", "q=7")
    out = run_json(capsys, "bounds", str(path), "--chibarf")
    assert out["chibarf"]["value"] == "49/13"
    assert [(len(o.x), o.method) for o in seen] == [(92114, "basis")]


def test_uncertified_lp_exits_as_a_cap(capsys, tmp_path, monkeypatch):
    # an LP answer whose certificate fails ends the command with exit code 3
    import icbounds.hierarchy as hierarchy

    def uncertified(p):
        raise Uncertified("HiGHS's basis is singular in exact arithmetic")

    path = gen(capsys, tmp_path, "cycle", "n=5")
    monkeypatch.setattr(hierarchy, "solve_min", uncertified)
    assert run(capsys, "hierarchy", str(path), "--level", "2") == (
        3, "", "error: HiGHS's basis is singular in exact arithmetic\n")


def test_hierarchy_c5(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "hierarchy", str(path), "--level", "2", "--sym", "none")
    assert out["value"] == "5/2"
    sym = run_json(capsys, "hierarchy", str(path), "--level", "2", "--sym", "cyclic")
    assert sym["value"] == "5/2"
    assert sym["variables"] < out["variables"]


def test_hierarchy_dump_lp_prints_the_builders_counts(capsys, tmp_path):
    from icbounds.families import family
    from icbounds.hierarchy import build_hierarchy_lp

    path = gen(capsys, tmp_path, "cycle", "n=5")
    f = family("cycle", n=5)
    for sym, generators in (("auto", f.symmetry), ("none", None)):
        out = run_json(capsys, "hierarchy", str(path), "--level", "2", "--sym", sym, "--dump-lp")
        p, meta = build_hierarchy_lp(f.instance, 2, generators)
        assert out["constraint_counts"] == meta.counts
        assert (out["variables"], out["rows"]) == (p.num_vars, p.num_rows)
    assert "constraint_counts" not in run_json(capsys, "hierarchy", str(path), "--level", "2")


def test_hierarchy_lp_cap(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, _, err = run(capsys, "hierarchy", str(path), "--level", "2", "--max-lp-vars", "4")
    assert code == 3
    assert "max-lp-vars" in err


def test_out_of_memory_exits_as_a_cap(capsys, tmp_path, monkeypatch):
    # a solver running out of memory ends the command with exit code 3 and a
    # one-line message, not a traceback
    import icbounds.hierarchy as hierarchy

    def exhausted(p):
        raise MemoryError

    path = gen(capsys, tmp_path, "cycle", "n=5")
    monkeypatch.setattr(hierarchy, "solve_min", exhausted)
    assert run(capsys, "hierarchy", str(path), "--level", "2") == (3, "", "error: out of memory\n")


def test_approx(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=7")
    out = run_json(capsys, "approx", str(path), "--seed", "1")
    assert {"lower", "tau", "classes", "ratio_bound", "sequence"} <= out.keys()
    assert [c["cover_sets"] for c in out["classes"]] == [None]  # trivial class
    # K_8: its one class takes the recursion cover, a single hyperclique
    k8 = tmp_path / "k8.json"
    k8.write_text(json.dumps({"n": 8, "edges": [[u, v] for u in range(8) for v in range(u)]}))
    out = run_json(capsys, "approx", str(k8))
    (cls,) = out["classes"]
    assert (cls["choice"], cls["k"], cls["cover_sets"], cls["term"]) == ("cover", 1, 1, "6")
    assert out["mode"] == "exact"  # the cover has no dense leaf to sample


def test_approx_has_no_mc_flag(capsys, tmp_path):
    # the message count alone decides tau's cover mode
    path = gen(capsys, tmp_path, "cycle", "n=7")
    with pytest.raises(SystemExit) as exc:
        main(["approx", str(path), "--mc"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mc" in capsys.readouterr().err


def test_decide2_both_ways(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "decide2", str(path))
    assert out["verdict"] is False
    assert "aac_witness" in out and "bound" in out
    assert out["undirected_check"] is False
    path2 = gen(capsys, tmp_path, "tri3")
    out2 = run_json(capsys, "decide2", str(path2))
    assert out2["verdict"] is True
    assert out2["scheme"]["rate"] == "2"


def test_decide2_reads_a_file_with_receivers_as_an_instance(capsys, tmp_path):
    # a file with both keys is an instance, which may be directed: no
    # undirected check of its edges, or of its receivers made symmetric
    data = json.loads(gen(capsys, tmp_path, "cycle", "n=5").read_text())
    data["receivers"] = [{"wants": v, "knows": [(v + 1) % 5]} for v in range(5)]
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data))
    out = run_json(capsys, "decide2", str(path))
    assert "undirected_check" not in out


def test_decide2_on_a_complete_graph(capsys, tmp_path):
    # K4's complement has no edge: the decider answers and the undirected
    # cross-check, which refuses such a graph, is skipped
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    out = run_json(capsys, "decide2", str(path))
    assert out["verdict"] is False
    assert "undirected_check" not in out


@pytest.mark.parametrize("generators", [[1, 2], [[0, 1, 2, 3, "x"]]])
def test_hierarchy_refuses_a_malformed_symmetry_file(capsys, tmp_path, generators):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(generators))
    code, _, err = run(capsys, "hierarchy", str(path), "--level", "2", "--sym", f"file:{sym}")
    assert code == 2
    assert "not a list of integers" in err


def test_hierarchy_refuses_an_unknown_symmetry_spec(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, out, err = run(capsys, "hierarchy", str(path), "--level", "2", "--sym", "bogus")
    assert (code, out) == (2, "") and "unknown symmetry spec 'bogus'" in err, err


def test_gen_refuses_a_parameter_that_is_not_key_value(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "cycle", "5", "-o", str(tmp_path / "x.json"))
    assert (code, out) == (2, "") and "family parameter '5' is not key=value" in err, err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("family, params, unknown", [
    ("cycle", ["n=5", "k=3"], "k"), ("tri3", ["n=5"], "n"), ("circulant", ["n=7", "k=2", "q=3"], "q"),
])
def test_gen_refuses_a_parameter_the_family_does_not_take(capsys, tmp_path, family, params, unknown):
    # once written as-is into the file's family.params
    code, out, err = run(capsys, "gen", family, *params, "-o", str(tmp_path / "x.json"))
    assert (code, out) == (2, "") and f"family {family!r} takes no parameter {unknown}" in err, err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["hierarchy", "--level", "2", "--max-lp-vars", "-5"],
    ["report", "--max-lp-vars", "-1"],
    ["report", "--all", "--minrk-cap", "-1"],
    ["bounds", "--minrk2", "exact", "--minrk-cap", "-1"],
    ["code", "--scheme", "minrk", "--minrk-cap", "-2"],
])
def test_a_negative_cap_is_invalid_input(capsys, tmp_path, argv):
    # once read as a cap already spent (exit 3)
    path = gen(capsys, tmp_path, "cycle", "n=5")
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, str(path), *flags)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "is negative" in err, err


def test_a_zero_cap_is_still_a_cap(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, _, err = run(capsys, "hierarchy", str(path), "--level", "2", "--max-lp-vars", "0")
    assert code == 3 and "limit 0" in err, err


def test_hierarchy_refuses_a_generator_that_is_not_a_permutation(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps([[0, 0, 2, 3, 4]]))
    code, _, err = run(capsys, "hierarchy", str(path), "--level", "2", "--sym", f"file:{sym}")
    assert code == 2 and "generator 0 is not a permutation of 0..4" in err, err


WEIGHTED_C3 = {
    "n": 3,
    "receivers": [{"wants": 0, "knows": [1]}, {"wants": 1, "knows": [2]}, {"wants": 2, "knows": [0]}],
    "rates": ["1", "1/2", "1"],
}


def test_a_rate_vector_shorter_than_n_is_refused(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**WEIGHTED_C3, "rates": ["1", "1/2"]}))
    code, _, err = run(capsys, "bounds", str(path), "--alpha")
    assert code == 2 and "rate vector length differs from message count" in err, err


def test_a_symmetry_that_moves_a_rate_is_refused(capsys, tmp_path):
    # the shift maps receiver j onto j + 1 but message 1 (rate 1/2) onto
    # message 2 (rate 1)
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({**WEIGHTED_C3, "symmetry": [[1, 2, 0]]}))
    for argv in (("report", str(path)), ("hierarchy", str(path), "--level", "2")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "generator 0 does not preserve rates" in err, err


def test_report_refuses_a_malformed_symmetry_key(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    data = json.loads(path.read_text())
    data["symmetry"] = [[0, 1, 2, 3, "x"]]
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "not a list of integers" in err


def test_an_empty_symmetry_object_is_refused(capsys, tmp_path):
    # {} is not a list of generators, from --sym file: or from the file's
    # own key; no symmetry (none) and no generators ([]) build one LP
    path = gen(capsys, tmp_path, "cycle", "n=5")
    sym = tmp_path / "sym.json"
    sym.write_text("{}")
    code, _, err = run(capsys, "hierarchy", str(path), "--level", "2", "--sym", f"file:{sym}")
    assert code == 2 and "symmetry is not a list of generators" in err, err
    data = json.loads(path.read_text())
    path.write_text(json.dumps({**data, "symmetry": {}}))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2 and "symmetry is not a list of generators" in err, err
    sym.write_text("[]")
    unreduced = run_json(capsys, "hierarchy", str(path), "--level", "2", "--sym", "none")
    empty = run_json(capsys, "hierarchy", str(path), "--level", "2", "--sym", f"file:{sym}")
    del unreduced["runtime_ms"], empty["runtime_ms"]
    assert empty == unreduced and unreduced["rows"] == 257


def _ph3_with_a_true_entry() -> dict:
    from icbounds.families import family
    from icbounds.instance import graph_dict
    f = family("projective-hadamard", q=3)
    assert f.matrix[0][0] == 1
    return {**graph_dict(f.graph), "matrix": [[True] + f.matrix[0][1:]] + f.matrix[1:],
            "matrix_field": 3}


C5_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]


@pytest.mark.parametrize("data, level, fault", [
    ({"n": 5, "edges": [[0, 1.9], [True, 2], ["3", 4]]}, "none", "1.9 is not an integer"),
    ({"n": 5, "edges": [[0, 1], [True, 2]]}, "none", "true is not an integer"),
    ({"n": 5, "edges": [["3", 4]]}, "none", '"3" is not an integer'),
    ({"n": 3.9, "receivers": [{"wants": 0, "knows": [1]}]}, "none", "3.9 is not an integer"),
    ({"n": 3, "receivers": [{"wants": 1.2, "knows": [0]}]}, "none", "1.2 is not an integer"),
    ({"n": 3, "receivers": [{"wants": 0, "knows": [1.7]}]}, "none", "1.7 is not an integer"),
    ({"n": 5, "edges": C5_EDGES, "symmetry": [[1, 2, 3, 4, False]]}, "2",
     "generator 0 is not a list of integers"),
    (_ph3_with_a_true_entry(), "none", "matrix is not a list of rows of integers"),
    ({"n": 2, "receivers": [{"wants": 0, "knows": []}, {"wants": 1, "knows": []}],
      "rates": [True, "1/2"]}, "none", "true is not a rational"),
], ids=["edge-float", "edge-true", "edge-string", "n-float", "wants-float", "knows-float",
        "generator-false", "matrix-true", "rate-true"])
def test_files_hold_json_integers_only(capsys, tmp_path, data, level, fault):
    # a float, a string or a boolean where an integer belongs is refused,
    # not rounded or read as 0 or 1
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "report", str(path), "--level", level)
    assert code == 2 and fault in err, err


_TIMERS = """
import json, sys, time
import icbounds
from icbounds import cli
at_import = sorted({m.split(".")[0] for m in sys.modules} & {"scipy"})
seen, clock = [], time.perf_counter
def timer():
    seen.append("scipy.optimize._highspy._core" in sys.modules)
    return clock()
time.perf_counter = timer
cli.QUICK_SUITE[:] = [("a claim that solves nothing", lambda: (True, ""))]
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "at_import": at_import, "seen": seen}, fh)
"""


@pytest.mark.parametrize("argv", [["report"], ["hierarchy", "--level", "2"],
                                  ["paper-suite", "quick"]], ids=lambda a: a[0])
def test_timed_commands_load_the_binding_before_the_clock(capsys, tmp_path, argv):
    # in a fresh process, `import icbounds` loads no scipy, and every timer
    # the command starts or stops finds the HiGHS binding already loaded,
    # so no runtime_ms counts its import
    if argv[0] != "paper-suite":
        argv = [argv[0], str(gen(capsys, tmp_path, "cycle", "n=7"))] + argv[1:]
    result = tmp_path / "timers.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", _TIMERS, str(result), *argv], env=env,
                   check=True, capture_output=True)
    got = json.loads(result.read_text())
    assert got["code"] == 0 and got["at_import"] == []
    assert got["seen"] and all(got["seen"]), got["seen"]


def test_code_strongcover(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "code", str(path), "--scheme", "strongcover",
                   "--verify", "exhaustive")
    assert out["scheme"]["rate"] == "5/2"
    assert out["verification"]["passed"] is True


def test_bounds_psif_chibarf_share_one_lp_on_a_graph(capsys, tmp_path, monkeypatch):
    calls = []
    solve = combinatorial.solve_min
    monkeypatch.setattr(combinatorial, "solve_min", lambda p: calls.append(p) or solve(p))
    path = gen(capsys, tmp_path, "complement-cycle", "n=7")
    out = run_json(capsys, "bounds", str(path), "--psif", "--chibarf")
    assert out["psif"]["value"] == out["chibarf"]["value"] == "7/3"
    assert len(calls) == 1
    # two receivers want message 0 with different side information
    path = tmp_path / "multicast.json"
    path.write_text(json.dumps({
        "n": 3,
        "receivers": [{"wants": 0, "knows": [1]}, {"wants": 0, "knows": [2]},
                      {"wants": 1, "knows": [0]}, {"wants": 2, "knows": [0]}],
    }))
    calls.clear()
    out = run_json(capsys, "bounds", str(path), "--psif", "--chibarf")
    assert (out["psif"]["value"], out["chibarf"]["value"]) == ("2", "3")
    assert len(calls) == 2


def test_code_mds_from_the_shared_cover(capsys, tmp_path):
    path = gen(capsys, tmp_path, "complement-cycle", "n=7")
    out = run_json(capsys, "code", str(path), "--scheme", "mds", "--verify", "random:2000:1")
    assert out["scheme"]["rate"] == "7/3"
    assert out["verification"]["passed"] is True


def test_code_exhaustive_proves_mds_c5(capsys, tmp_path):
    # 7^10 message vectors, past the 2^24 that were once enumerated
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "code", str(path), "--scheme", "mds", "--verify", "exhaustive")
    assert out["verification"]["mode"] == "exhaustive"
    assert out["verification"]["trials"] == 7**10
    assert out["verification"]["passed"] is True
    out = run_json(capsys, "code", str(path), "--scheme", "mds",
                   "--verify", "random:20000:1")
    assert out["verification"]["passed"] is True


def test_code_verify_needs_a_trial(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, out, err = run(capsys, "code", str(path), "--scheme", "strongcover",
                         "--verify", "random:0")
    assert code == 2 and not out
    assert "at least 1 random trial" in err


def test_code_verify_refuses_a_spec_it_does_not_parse(capsys, tmp_path):
    # only exhaustive, random, random:N and random:N:SEED are specs; a word
    # that starts like one, a part too many and a negative seed are not
    path = gen(capsys, tmp_path, "cycle", "n=5")
    for spec in ("randomly", "random:5:1:2", "random:5:-1"):
        code, out, err = run(capsys, "code", str(path), "--scheme", "strongcover", "--verify", spec)
        assert code == 2 and not out
        assert f"bad --verify spec {spec!r}" in err
    out = run_json(capsys, "code", str(path), "--scheme", "strongcover", "--verify", "random:5:1")
    assert (out["verification"]["trials"], out["verification"]["seed"]) == (5, 1)


def test_minrk_cap_reaches_minrk2(capsys, tmp_path):
    path = gen(capsys, tmp_path, "petersen")  # 30 free minrank entries
    out = run_json(capsys, "bounds", str(path), "--minrk2", "exact", "--minrk-cap", "30")
    assert out["minrk2"]["value"] == "5"
    out = run_json(capsys, "code", str(path), "--scheme", "minrk", "--minrk-cap", "30",
                   "--verify", "exhaustive")
    assert out["scheme"]["rate"] == "5"
    assert out["verification"]["mode"] == "exhaustive"
    assert out["verification"]["passed"] is True


def test_a_code_past_the_size_cap_exits_3(capsys, tmp_path, monkeypatch):
    # a cover of the triangle over q = 2003 would need a 2003 x 6009
    # encoder, whose decoders would take minutes to solve
    from icbounds import cli, codes

    q, whole = 2003, frozenset({0, 1, 2})
    big = combinatorial.FractionalCover(
        "strong", [(whole, Fraction(q - 1, q)), (whole, Fraction(1, q))], Fraction(1))
    monkeypatch.setattr(cli, "fractional_cover", lambda inst, kind: big)
    monkeypatch.setattr(codes, "_decoders", lambda *a: pytest.fail("the code was built"))
    path = gen(capsys, tmp_path, "cycle", "n=3")
    code, _, err = run(capsys, "code", str(path), "--scheme", "strongcover")
    assert (code, err) == (3, f"error: cap code-size: needed {q * 3 * q}, limit 10000000\n")


def test_report_all_minrk_cap(capsys, tmp_path):
    path = gen(capsys, tmp_path, "petersen")
    code, _, err = run(capsys, "report", str(path), "--all")
    assert code == 3
    assert "minrk-free-entries" in err
    out = run_json(capsys, "report", str(path), "--all", "--minrk-cap", "30")
    assert out["bounds"]["minrk2"]["value"] == "5"
    assert out["bounds"]["chibar"]["value"] == "5"
    plain = run_json(capsys, "report", str(path))
    assert not {"chibar", "minrk2"} & set(plain["bounds"])


def test_report_refuses_minrk_cap_without_all(capsys, tmp_path):
    # only --all computes minrk2, so a cap for it alone is refused, not ignored
    path = gen(capsys, tmp_path, "petersen")
    code, out, err = run(capsys, "report", str(path), "--minrk-cap", "30")
    assert (code, out) == (2, "") and "--minrk-cap applies only with --all" in err, err


@pytest.mark.parametrize("family, params, argv, where", [
    ("cycle", ["n=5"], ["bounds", "--alpha"], "--minrk2 exact"),
    ("projective-hadamard", ["q=3"], ["bounds", "--minrk2", "gram"], "--minrk2 exact"),
    ("cycle", ["n=5"], ["code", "--scheme", "strongcover"], "--scheme minrk"),
    # the file's matrix gives the code, so minrk2 and its cap are never run
    ("projective-hadamard", ["q=3"], ["code", "--scheme", "minrk"], "--scheme minrk"),
], ids=["bounds-alpha", "bounds-gram", "code-strongcover", "code-minrk-matrix"])
def test_minrk_cap_is_refused_where_minrk2_is_not_computed(capsys, tmp_path, family, params,
                                                           argv, where):
    path = gen(capsys, tmp_path, family, *params)
    command, *flags = argv
    code, out, err = run(capsys, command, str(path), *flags, "--minrk-cap", "0")
    assert (code, out) == (2, ""), err
    assert f"--minrk-cap applies only with {where}" in err, err


def test_minrk_on_instance_file(capsys, tmp_path):
    path = gen(capsys, tmp_path, "tri3")  # 3 receivers, one free entry each
    out = run_json(capsys, "bounds", str(path), "--minrk2", "exact")
    assert out["minrk2"] == {"value": "2", "field": 2, "exact": True}
    out = run_json(capsys, "code", str(path), "--scheme", "minrk", "--verify", "exhaustive")
    assert out["scheme"]["rate"] == "2"
    assert out["verification"]["mode"] == "exhaustive"
    assert out["verification"]["passed"] is True
    out = run_json(capsys, "report", str(path), "--all")
    assert out["bounds"]["minrk2"]["value"] == "2"
    # no two of tri3's messages form a strong hyperclique
    chibar = out["bounds"]["chibar"]
    assert (chibar["value"], chibar["direction"]) == ("3", "upper")
    assert not any("skipped" in v for v in out["verdicts"])
    out = run_json(capsys, "bounds", str(path), "--chibar")
    assert out["chibar"] == {"value": "3", "cover": [[0], [1], [2]]}
    code, _, err = run(capsys, "report", str(path), "--all", "--minrk-cap", "2")
    assert code == 3
    assert "minrk-free-entries: needed 3, limit 2" in err


def test_code_cliquecover(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "code", str(path), "--scheme", "cliquecover",
                   "--verify", "exhaustive")
    assert out["scheme"]["rate"] == "3"
    assert out["verification"]["passed"] is True
    # an instance file: the cover is by strong hypercliques
    out = run_json(capsys, "code", str(gen(capsys, tmp_path, "tri3")),
                   "--scheme", "cliquecover", "--verify", "exhaustive")
    assert out["scheme"]["rate"] == "3"
    assert out["verification"]["passed"] is True


def test_report_exact_verdict(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    out = run_json(capsys, "report", str(path), "--level", "2", "--sym", "cyclic")
    assert any("beta = 5/2 exact" in v for v in out["verdicts"])


def test_report_weighted_instance(capsys, tmp_path):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({
        "n": 3,
        "receivers": [{"wants": 0, "knows": [1]}, {"wants": 1, "knows": [2]},
                      {"wants": 2, "knows": [0]}],
        "rates": ["1", "1/2", "1"],
    }))
    out = run_json(capsys, "report", str(path))
    assert out["bounds"]["alpha"]["value"] == "2"
    assert out["bounds"]["chibarf"]["value"] == "5/2"
    # the strong-cover code needs unit rates, so the scheme is left out with a note
    assert "scheme" not in out["bounds"]
    assert "scheme left out: the strong-cover code needs unit rates" in out["verdicts"]


def test_report_levels(capsys, tmp_path):
    path = gen(capsys, tmp_path, "tri3")
    out = run_json(capsys, "report", str(path), "--level", "2,3", "--decide2")
    assert out["bounds"]["b2"]["value"] == "2"
    assert out["bounds"]["b3"]["value"] == "3"
    assert "b3 = 3 exceeds a valid rate" in out["verdicts"]
    # the two-symbol code is below chibarf, so chibarf's code is not built
    assert "scheme" not in out["bounds"]
    assert "scheme left out: two-symbol = 2 is below chibarf = 3" in out["verdicts"]


def test_report_refuses_a_repeated_level(capsys, tmp_path):
    # each level is solved and reported once, so a repeat is a usage error
    path = gen(capsys, tmp_path, "cycle", "n=5")
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path), "--level", "2,3,2"])
    assert exc.value.code == 2
    assert "argument --level: level 2 given twice" in capsys.readouterr().err


def test_report_proves_beta_of_projective_hadamard_q5_by_its_gram_matrix(capsys, tmp_path):
    # the file's F_5 Gram matrix gives a rate-3 code that meets alpha; no
    # level LP (b2 would need 2^25 variables) and no strong-cover code
    path = gen(capsys, tmp_path, "projective-hadamard", "q=5")
    out = run_json(capsys, "report", str(path), "--level", "none")
    gram = out["bounds"]["gram"]
    assert (gram["value"], gram["direction"]) == ("3", "upper")
    assert gram["witness"] == "F_5 Gram-rank code, exhaustive check verified"
    assert out["bounds"]["chibarf"]["value"] == "25/7"
    assert "scheme" not in out["bounds"] and "b2" not in out["bounds"]
    assert out["verdicts"] == ["scheme left out: gram = 3 is below chibarf = 25/7",
                               "beta = 3 exact (alpha meets gram)"]


def test_report_table_format(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, text, err = run(capsys, "--format", "table", "report", str(path),
                          "--level", "2", "--sym", "cyclic")
    assert code == 0, err
    assert "5/2" in text and "~2.5000 approx" in text


def test_csv_format(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cycle", "n=5")
    code, text, err = run(capsys, "--format", "csv", "bounds", str(path), "--alpha")
    assert code == 0, err
    assert "alpha" in text


def test_missing_file(capsys):
    code, _, err = run(capsys, "bounds", "/nonexistent.json")
    assert code == 2


def test_graph_with_self_loop(capsys, tmp_path):
    p = tmp_path / "loop.json"
    p.write_text('{"n": 3, "edges": [[0, 0], [1, 2]]}')
    code, _, err = run(capsys, "bounds", str(p), "--alpha", "--chibar")
    assert code == 2
    assert "self-loop" in err


def test_corrupt_file(capsys, tmp_path):
    p = tmp_path / "bad.json"
    for text in ("{broken", "5"):
        p.write_text(text)
        code, _, err = run(capsys, "decide2", str(p))
        assert code == 2
        assert "error" in err


QUICK_CLAIMS = [
    "beta(C5) = 5/2 with verified scheme",
    "odd cycles C7, C9",
    "complements of C5, C7",
    "tri3: b3 overshoots a rate-2 scheme",
    "rate-2 decider with certificates",
    "circulant(7,2) and cayley3(8)",
    "projective-hadamard q=3",
    "triangle-free oddtown m=6",
    "disjoint-union additivity k*C5",
]


def test_paper_suite_quick(capsys):
    out = run_json(capsys, "paper-suite", "quick")
    assert [c["claim"] for c in out["claims"]] == QUICK_CLAIMS
    assert all(c["pass"] for c in out["claims"]), out["claims"]


def test_paper_suite_full(capsys):
    # beta(Groetzsch) = 11/2 and beta(Chvatal) = 6 are the report's exact verdicts
    out = run_json(capsys, "paper-suite", "full")
    assert [c["claim"] for c in out["claims"]] == QUICK_CLAIMS + [
        "petersen full tier", "groetzsch full tier", "chvatal full tier",
        "projective-hadamard q=5", "projective-hadamard q=7"]
    assert all(c["pass"] for c in out["claims"]), out["claims"]
    details = {c["claim"]: c["detail"] for c in out["claims"]}
    for claim, beta in (("groetzsch full tier", "11/2"), ("chvatal full tier", "6")):
        assert f"scheme={beta} (strong-cover code, exhaustive check verified)" in details[claim]
        assert f"[beta = {beta} exact (b2 meets chibarf)]" in details[claim]
    # beta = 3 < chibarf: alpha meets the Gram-rank code, proved on every
    # vector, and chibarf's strong-cover code is not built
    for q, chibarf in ((5, "25/7"), (7, "49/13")):
        detail = details[f"projective-hadamard q={q}"]
        assert f"chibarf={chibarf} gram=3 (F_{q} Gram-rank code, exhaustive check verified)" in detail
        assert detail.endswith(f"[scheme left out: gram = 3 is below chibarf = {chibarf}; "
                               "beta = 3 exact (alpha meets gram)]")
        assert "strong-cover" not in detail


@pytest.mark.parametrize("family, key, value, claim", [
    ("tri3", "b3", Fraction(5, 2), "tri3: b3 overshoots a rate-2 scheme"),  # a bound the report gives otherwise
    ("cycle", "beta", Fraction(3), "odd cycles C7, C9"),  # a beta its verdict does not pin
    ("cycle", "chi_bar_f", Fraction(5, 2), "beta(C5) = 5/2 with verified scheme"),  # no such bound
    ("aac", "rate2-obstruction", Fraction(2), "rate-2 decider with certificates"),
])
def test_a_wrong_expected_value_fails_its_claim(monkeypatch, family, key, value, claim):
    from icbounds import cli, families

    real = families.family

    def wrong(name, **params):
        f = real(name, **params)
        if name == family:
            f.expected[key] = value
        return f

    monkeypatch.setattr(families, "family", wrong)
    ok, detail = dict(cli.QUICK_SUITE)[claim]()
    assert not ok, detail


def test_a_failed_code_fails_its_claim(monkeypatch):
    # beta is pinned only by a code that passed its exhaustive check
    from icbounds import cli, codes

    failed = codes.VerificationReport("exhaustive", 1, 0, [((0,), 0)])
    monkeypatch.setattr(codes, "verify_code", lambda *a, **k: failed)
    for claim in ("beta(C5) = 5/2 with verified scheme", "tri3: b3 overshoots a rate-2 scheme"):
        ok, detail = dict(cli.QUICK_SUITE)[claim]()
        assert not ok and "check FAILED" in detail, detail


def test_a_sampled_code_does_not_pin_beta(monkeypatch):
    from icbounds import cli, codes

    real = codes.verify_code
    monkeypatch.setattr(codes, "verify_code",
                        lambda inst, scheme, mode="exhaustive", **k: real(inst, scheme, mode="random", **k))
    ok, detail = cli.QUICK_SUITE[0][1]()
    assert not ok and "random check verified" in detail, detail


def test_a_sampled_code_is_not_an_upper_bound(monkeypatch):
    # with the report's check forced to sample, C5's strong-cover code stays
    # info while chibarf, an upper bound by theorem, still pins beta
    from icbounds import codes
    from icbounds.families import family
    from icbounds.report import build_report

    real = codes.verify_code
    monkeypatch.setattr(codes, "verify_code",
                        lambda inst, scheme, mode="exhaustive", **k: real(inst, scheme, mode="random", **k))
    rep = build_report(family("cycle", n=5).instance, "C5")
    scheme = rep.bounds["scheme"]
    assert scheme.check.mode == "random" and scheme.check.passed
    assert scheme.direction == "info" and scheme.witness == "strong-cover code, random check verified"
    assert rep.verdicts == ["beta = 5/2 exact (b2 meets chibarf)"]


def test_a_wrong_rate2_decision_fails_its_claim(monkeypatch):
    # the decider says yes on C5 with a labeling that is not constant on the
    # blind sets: its two-symbol code is refused when built, and the claim fails
    from icbounds import cli, report
    from icbounds.beta2 import Beta2Certificate

    wrong = Beta2Certificate(True, labeling=[0, 1, 2, 3, 4], num_classes=5)
    monkeypatch.setattr(report, "decide_beta_eq_2", lambda inst: wrong)
    got = cli._run_suite_item(*cli.QUICK_SUITE[0])
    assert got["claim"] == "beta(C5) = 5/2 with verified scheme"
    assert not got["pass"]
    assert got["detail"] == "error: receiver 0 cannot decode message 0", got


# The sha256 of every `code` output below (exit status, stdout and stderr,
# one case after another), recorded before the code model became arrays:
# a change to how codes are held must not move a byte of what `code` prints.
# The twosymbol runs on these graphs are refusals (none has rate 2), and
# minrk on C7-bar stops at the default minrk cap, so complement-cycle n=6 adds
# one two-symbol code that is built.
CODE_OUTPUT_DIGEST = "7224120aba813d88b9f2880c17d7d485fe1d0678baa52482f80778706fbd008f"


def test_code_output_is_the_recorded_bytes(capsys, tmp_path):
    import hashlib

    digest = hashlib.sha256()
    for family, n in (("cycle", 5), ("cycle", 7), ("complement-cycle", 7), ("cycle", 9),
                      ("complement-cycle", 6)):
        path = gen(capsys, tmp_path, family, f"n={n}")
        runs = [("--scheme", s) for s in ("cliquecover", "strongcover", "mds", "minrk", "twosymbol")]
        if (family, n) == ("complement-cycle", 7):
            runs.append(("--scheme", "mds", "--verify", "random"))
        if (family, n) == ("complement-cycle", 6):
            runs = [("--scheme", "twosymbol")]
        for argv in runs:
            code, out, err = run(capsys, "code", str(path), *argv)
            digest.update(f"{family} n={n} {' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == CODE_OUTPUT_DIGEST
