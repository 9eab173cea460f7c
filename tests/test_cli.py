"""Command-line surface: output schemas, determinism up to the timing
field, exit-status contract, and resource aborts."""

import json

import pytest

from confhom.cli import main
from confhom.graph import build_family

from test_critical import _shuffled


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_theta4_genus_three_surface(self, capsys):
        code, out = run(capsys, "compute", "--graph", "theta:4", "-n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == {
            "0": {"betti": 1, "torsion": []},
            "1": {"betti": 6, "torsion": []},
            "2": {"betti": 1, "torsion": []},
        }
        assert data["euler"] == -4

    def test_wheel5(self, capsys):
        code, out = run(capsys, "compute", "--graph", "wheel:5", "-n", "5")
        data = json.loads(out)
        assert data["dims"]["2"]["betti"] == 34
        assert data["dims"]["3"]["betti"] == 4
        assert all(not v["torsion"] for v in data["dims"].values())

    def test_petersen_torsion_row(self, capsys):
        code, out = run(capsys, "compute", "--graph", "petersen:10", "-n", "4",
                        "--dims", "2")
        data = json.loads(out)
        assert data["dims"] == {"2": {"betti": 40, "torsion": [2]}}

    def test_critical_cells_of_the_morse_path(self, capsys):
        _, out = run(capsys, "compute", "--graph", "wheel:5", "-n", "5")
        data = json.loads(out)
        assert data["critical_cells"] == [1, 38, 111, 48]
        # the flow's memo: the critical cells and the lower cells it
        # expanded, of which flow_empty have an empty flow
        assert (data["flow_memo"], data["flow_empty"]) == (1268, 107)
        _, out = run(capsys, "compute", "--graph", "k33", "-n", "5")
        data = json.loads(out)
        assert (data["flow_memo"], data["flow_empty"]) == (2050, 227)
        # 3,005 before the flow dropped faces it proves dead
        assert data["flow_memo"] <= 0.7 * 3005
        _, out = run(capsys, "compute", "--graph", "k4", "-n", "3",
                     "--model", "abrams")
        assert json.loads(out)["critical_cells"] == [1, 9, 9, 1]
        for model in ("swiatkowski", "abrams"):
            _, out = run(capsys, "compute", "--graph", "k4", "-n", "3",
                         "--no-reduce", "--model", model)
            assert "critical_cells" not in json.loads(out)

    def test_search_of_the_morse_path(self, capsys, tmp_path):
        # the chosen search per component, (kind, root): the root is a
        # vertex of the listing, and a seeded listing of the same graph
        # keeps the critical cells
        _, out = run(capsys, "compute", "--graph", "wheel:5", "-n", "5")
        data = json.loads(out)
        assert data["search"] == [["dfs", "r0"]]
        path = tmp_path / "wheel5.json"
        path.write_text(_shuffled(build_family("wheel:5"), 2).to_json())
        _, out = run(capsys, "compute", "--graph", str(path), "-n", "5")
        listed = json.loads(out)
        assert listed["search"] == [["dfs", "r2"]]
        assert listed["critical_cells"] == data["critical_cells"]
        _, out = run(capsys, "compute", "--graph", "k4", "-n", "3",
                     "--model", "abrams")
        assert "search" not in json.loads(out)  # the cube matching has none

    def test_deterministic_modulo_timing(self, capsys):
        _, a = run(capsys, "compute", "--graph", "k4", "-n", "3")
        _, b = run(capsys, "compute", "--graph", "k4", "-n", "3")
        da, db = json.loads(a), json.loads(b)
        da.pop("elapsed_ms"), db.pop("elapsed_ms")
        assert da == db

    def test_abrams_model(self, capsys):
        code, out = run(capsys, "compute", "--graph", "star:3", "-n", "2",
                        "--model", "abrams")
        data = json.loads(out)
        assert data["dims"]["1"]["betti"] == 1

    def test_max_cells_abort(self, capsys):
        code, out = run(capsys, "compute", "--graph", "k33", "-n", "4",
                        "--max-cells", "100")
        assert code == 2
        assert "aborted" in json.loads(out)

    def test_max_cells_one_below_the_count(self, capsys):
        code, out = run(capsys, "compute", "--graph", "wheel:7", "-n", "7",
                        "--max-cells", "1894019")
        assert code == 2
        assert "1894020" in json.loads(out)["aborted"]

    def test_dims_range(self, capsys):
        code, out = run(capsys, "compute", "--graph", "k4", "-n", "4",
                        "--dims", "2-3")
        data = json.loads(out)
        assert set(data["dims"]) == {"2", "3"}
        assert data["dims"]["2"]["betti"] == 9

    def test_dims_single_and_degenerate_range(self, capsys):
        for dims, keys in (("2", {"2"}), ("1-1", {"1"})):
            code, out = run(capsys, "compute", "--graph", "k4", "-n", "3",
                            "--dims", dims)
            assert code == 0 and set(json.loads(out)["dims"]) == keys

    @pytest.mark.parametrize("dims", ["-1", "3-1", "", "1-", "-", "a",
                                      "1-2-3", " 2", "1.5"])
    def test_bad_dims_exit_64_naming_the_value(self, capsys, dims):
        code = main(["compute", "--graph", "k4", "-n", "3", "--dims", dims])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert f"--dims {dims!r}" in captured.err

    def test_csv_format(self, capsys):
        code, out = run(capsys, "compute", "--graph", "k4", "-n", "3",
                        "--format", "csv")
        header, row = out.strip().splitlines()
        assert "dims.2.betti" in header

    def test_graph_json_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":["a","b"],"edges":[["a","b"]]}')
        code, out = run(capsys, "compute", "--graph", str(path), "-n", "1")
        assert json.loads(out)["dims"]["0"]["betti"] == 1


class TestPredict:
    @pytest.mark.parametrize("family,n,d,value", [
        ("wheel:7", 7, 3, 527),
        ("k4", 3, 2, 3),
        ("net:4", 6, 2, 60),
    ])
    def test_values(self, capsys, family, n, d, value):
        code, out = run(capsys, "predict", family, "-n", str(n), "-d", str(d))
        assert code == 0
        assert json.loads(out)["dims"][str(d)]["betti"] == value

    def test_out_of_range_exit(self, capsys):
        code, out = run(capsys, "predict", "k4", "-n", "5", "-d", "1")
        assert code == 3

    def test_unknown_family(self, capsys):
        assert main(["predict", "mystery:3", "-n", "2", "-d", "1"]) == 64


class TestVerify:
    def test_relations_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "relations")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_cross_model_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "cross-model", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["ok"] for r in rows)


class TestCycles:
    def test_single_relation(self, capsys):
        code, out = run(capsys, "cycles", "--relation", "y-ab")
        assert code == 0

    def test_spec_construction(self, capsys):
        spec = ('{"kind":"Y","hub":"u","branches":["e1","e2","e3"],'
                '"dressing":{"vertices":[],"edges":{"e1":1}}}')
        code, out = run(capsys, "cycles", "--graph", "theta:3", "-n", "3",
                        "--spec", spec, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["boundary_zero"] is True

    @pytest.mark.parametrize("dressing,name", [
        ({"vertices": ["v1"]}, "'v1'"),
        ({"edges": {"zz": 1}}, "'zz'"),
        ({"edges": {"t": -1, "a": 2}}, "'t'"),
        ({"edges": {"t": 0.5, "a": 0.5}}, "multiplicity 0.5"),
    ], ids=["leaf-vertex", "unknown-edge", "negative-multiplicity",
            "fractional-multiplicity"])
    def test_bad_dressing_is_a_usage_error(self, capsys, dressing, name):
        spec = json.dumps({"kind": "O", "cycle": ["a", "b", "c"],
                           "dressing": dressing})
        code = main(["cycles", "--graph", "lasso", "-n", "2", "--spec", spec])
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    def test_theta_without_edges_is_a_usage_error(self, capsys):
        code = main(["cycles", "--graph", "theta:4", "-n", "3",
                     "--spec", '{"kind": "Theta"}'])
        assert code == 64 and "four edges" in capsys.readouterr().err


    @pytest.mark.parametrize("args,flag", [
        (["-n", "2", "--spec", '{"kind": "O"}'], "--graph"),
        (["--graph", "theta:3", "--spec", '{"kind": "O"}'], "-n"),
        (["--graph", "theta:3", "-n", "2"], "--spec"),
    ], ids=["no-graph", "no-n", "no-spec"])
    def test_a_missing_input_is_a_usage_error(self, capsys, args, flag):
        code = main(["cycles"] + args)
        err = capsys.readouterr().err
        assert code == 64
        assert err == f"error: cycles needs {flag} when no --relation is given\n"

    def test_junction_with_two_branches_is_a_usage_error(self, capsys):
        spec = ('{"kind":"Y","hub":"u","branches":["e1","e2"],'
                '"dressing":{"edges":{"e3":1}}}')
        code = main(["cycles", "--graph", "theta:4", "-n", "3",
                     "--spec", spec])
        err = capsys.readouterr().err
        assert code == 64
        assert err == "error: a junction cycle needs three distinct branches\n"

class TestDump:
    def test_schema(self, capsys, tmp_path):
        out_path = tmp_path / "cx.json"
        code, _ = run(capsys, "dump-complex", "--graph", "theta:3", "-n", "2",
                      "-o", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["dims"] == [13, 24, 9]
        assert set(data["boundary"]) == {"1", "2"}
        assert all(len(t) == 3 for t in data["boundary"]["1"])

    def test_roundtrip_through_engine(self, capsys, tmp_path):
        from confhom.complexes import ChainComplex
        from confhom.homology import homology
        out_path = tmp_path / "cx.json"
        run(capsys, "dump-complex", "--graph", "theta:4", "-n", "3",
            "-o", str(out_path))
        cx = ChainComplex.from_json_dict(json.loads(out_path.read_text()))
        assert homology(cx).betti_vector() == (1, 6, 1)
