"""Command surface: determinism, worked instances, exit codes."""

import json

from mptypes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_command_and_determinism(capsys):
    args = ("--allow-small-p", "lattice", "--x", "1/2,0", "--s", "1/2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    data = json.loads(out1)
    assert data["lattice"]["bounds"] == [[1, 0], [1, 1]]
    assert data["graded_support"]["dim"] == 2


def test_lift_command(capsys):
    code, out, _ = run_cli(
        capsys, "--allow-small-p", "lift", "--x", "0,0", "--s", "1",
        "--phi", "1,2,1", "--samples", "20",
    )
    assert code == 0
    data = json.loads(out)
    assert data["lift"] == [2]
    assert data["minimality_probe"] is True
    assert "H" in data["sl2"]


def test_breakpoints_command(capsys):
    code, out, _ = run_cli(
        capsys, "--allow-small-p", "breakpoints",
        "--x0", "0,0", "--s0", "1", "--x1", "1/2,0", "--s1", "1/2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["plan"]["breakpoints"] == ["0/1", "1/1"]


def test_refine_command_worked_instance(capsys):
    code, out, _ = run_cli(
        capsys, "--allow-small-p", "refine",
        "--y", "3/8,0", "--tau", "5/8", "--phi", "1,2,1",
        "--x", "1/2,0", "--s", "1/2", "--modules", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["record"]["c"] == "5^0"
    assert data["record"]["provenance"]["counts"] == {"A": 4, "B": 1, "C": 0}
    assert data["record"]["terms"] == []
    assert all(data["verification"]["measure_slices"].values())
    assert data["verification"]["fork_identity"]["all_pass"] is True


def test_measure_and_solve_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--allow-small-p", "measure")
    assert code == 0
    data = json.loads(out)
    assert data["independence"] is True
    from fractions import Fraction
    from math import lcm

    rows = [[Fraction(x) for x in row] for row in data["matrix"]["M"]]
    c = [2, lcm(rows[0][1].denominator, rows[1][1].denominator)]
    v = [sum(r[j] * c[j] for j in range(2)) for r in rows]
    assert all(x.denominator == 1 for x in v)
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(
        json.dumps(
            {
                "r": "0/1",
                "source": "round-trip",
                "entries": [
                    [data["matrix"]["probes"][i], int(v[i])] for i in range(2)
                ],
            }
        )
    )
    cm_file = tmp_path / "cm.json"
    code, out, _ = run_cli(
        capsys, "--allow-small-p", "solve",
        "--input", str(vec_file), "--save-matrix", str(cm_file),
    )
    assert code == 0
    res = json.loads(out)
    got = {tuple(o): Fraction(val) for o, val in res["expansion"]["coefficients"]}
    assert got[(1, 1)] == c[0] and got[(2,)] == c[1]
    # reuse the persisted matrix
    code, out2, _ = run_cli(
        capsys, "--allow-small-p", "solve",
        "--input", str(vec_file), "--matrix", str(cm_file),
    )
    assert code == 0 and out2 == out


def test_solve_rejects_tampered_matrix(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--allow-small-p", "measure")
    assert code == 0
    matrix = json.loads(out)["matrix"]
    # nonzero below the dominance order, paired with its exact inverse
    matrix["M"] = [["1/1", "0/1"], ["1/1", "1/1"]]
    matrix["A"] = [["1/1", "0/1"], ["-1/1", "1/1"]]
    cm_file = tmp_path / "cm.json"
    cm_file.write_text(json.dumps(matrix))
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(
        json.dumps({"r": "0/1", "entries": [[p, 1] for p in matrix["probes"]]})
    )
    code, out, err = run_cli(
        capsys, "--allow-small-p", "solve",
        "--input", str(vec_file), "--matrix", str(cm_file),
    )
    assert code == 2 and out == ""
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert error["where"] == "jsonio.matrix_from_json"
    assert "below the order" in error["message"]


def test_config_file_merging(capsys, tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"m": 8, "allow_small_p": True}))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_file), "lattice", "--x", "1/2,0", "--s", "1/2"
    )
    assert code == 0
    assert "warning" not in err


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "--allow-small-p", "lattice", "--x", "1/3,0", "--s", "0", "--m", "8"
    )
    assert code == 2
    error = json.loads(err.strip().splitlines()[-1])
    assert "apartment" in error["error"]["where"]


def test_infeasible_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "--allow-small-p", "refine",
        "--y", "1/4,0", "--tau", "1", "--phi", "0",
        "--x", "0,0", "--s", "1", "--bound", "3",
    )
    assert code == 3
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"]["code"] == 3


def test_small_p_warning_printed_without_flag(capsys):
    code, _, err = run_cli(capsys, "lattice", "--x", "0,0", "--s", "0")
    assert code == 0
    assert "warning" in err


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "--allow-small-p", "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
