"""Command surface: determinism, worked instances, exit codes."""

import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mptypes
from mptypes import cli
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

def pinned_geodesics():
    """30 seeded geodesics of GL_2, GL_3 and GL_4 at m = 16, levels of both signs."""
    rng = random.Random("breakpoints-pin")
    out = []
    for n in (2, 3, 4):
        for _ in range(10):
            d0, d1 = rng.choice((1, 2, 4, 8, 16)), rng.choice((1, 2, 4, 8, 16))
            x0, x1 = (
                [f"{rng.randrange(-2 * d, 2 * d + 1)}/{d}" for _ in range(n - 1)] + ["0"]
                for d in (d0, d1)
            )
            s0, s1 = (f"{rng.randrange(-2 * d, 2 * d + 1)}/{d}" for d in (d0, d1))
            out.append((n, ",".join(x0), s0, ",".join(x1), s1))
    return out


# sha256 of each geodesic's `breakpoints` stdout, recorded before the flat
# six-witness kernel replaced the nested one; any change to these bytes is
# a format change
BREAKPOINTS_SHA256 = (
    "1ba90945760df378cc9feaf27b55c684b7662ab93fec9857b88e153229d7ccab",
    "56115b5002545fb596bbfbfd8208b27ed95645d063f08667fa62e144de96f548",
    "948db0f39c495e045d82d4ee16d1e31bb29bfffbeeaae0f53fb9992c6859a753",
    "229e160e576816e3db232ebcfe4927d7a2b0444ef79b0d476b7d91481175852a",
    "e6a638238ad25275422127ea272a8aee9ca548ab1e27d3c83802c298c4b7ac6b",
    "537980f576d75edffe00e15156ea1ea7039f8b64414f16f0b74709f5ff236e2a",
    "f98a475571960f75fa7e49eb26449211ced02da9421c97acb4753a4076c8e984",
    "e7355b66f4712c518c287079ffbbf2fefad091a1c9e8e8ecc8f59b375eea7b2c",
    "7c15c80cc66ecbb7af7a8a733121ce2b119ad3dff0a023858099383667515ff9",
    "87ebf1b8b7685e166c10d2df5244691193f36c0a5e04695d2573367407aa47d8",
    "6cb3a37e68b6da256f2d5d154ff971a9c64e9aecc3f4ad325ee224235e00c29a",
    "959664689253134cceb2fa5345e65b49a7d30f60cbda4863544c35d20f96e83d",
    "d14de562038458a59d769e35b7aa5812f9d00f6366a4dd5104b2f864b11b98eb",
    "107f37a9a7046043cb89423da5c8834103d0ac4065af35e5791dae15da38c5ce",
    "6cb8e04d0aa80ae510f08b0b9595b0845fef23daa89305d2e9e70daa21468a3a",
    "0a5071b9db0ad99a645dc36f784c05a49424039a9a82933f07bfece207066dba",
    "b8d1b17337b511f1c08f95a4de8e0ff1b4c3d60b2183ca35f1457ce09eb8779c",
    "dcbe9722c5ed5e7543a1bb8e744d4b7d28753025b0cc73aa657404b7bb44544b",
    "a0cafb60d43474ec9648ab53d80e1af398aa5ef181f3127a43a657c5c8400efd",
    "673f30bd68c380aa0ad79c799dad01dae504d0f67d426206d11bb7355ba08ec1",
    "bdb0aaa3c388e89e82d525757191ffc7f9a1dab3fc7925b05b45885e6521d104",
    "a957fd17acd2bae6c3247b21ff074844113c6961cb8af78acad2ad56a5ea2968",
    "f94b66e0fb49f8393cc495975e9ae12e3d661afeb094bc62afa61872ff302e22",
    "413677a92dee97d84c2dc197b0518d44da266cde262f53ce0634a631a1e225b7",
    "6f1c4306564e1d38c83c3253bd3c087f4cd00ae5d781bdbc716d193aa868b8d8",
    "14b7cbb5e2a690597018a1a751945db259caa08044c34d443bb85f8aabb2d1b4",
    "3e8dd092fc066ebfc39d2d8cbf9266683d0fe42d224f7b838a82c433b5e510db",
    "f9cc057d306c5692b5f640ebf5a40f0db77e94b15a8e9b83d2065e9b114b255c",
    "80bfd1737fd772d4282a40aac05b37f152e1ae96ec2e5fbe67d822a4e5e03bf9",
    "a299dc9de3639dded8638aeb2c52a15141279255ec4c41f893d3ebe9e42d92c8",
)


@pytest.mark.parametrize("k", range(30))
def test_breakpoints_bytes_are_pinned(capsys, k):
    n, x0, s0, x1, s1 = pinned_geodesics()[k]
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--n", str(n), "--m", "16", "breakpoints",
        f"--x0={x0}", f"--s0={s0}", f"--x1={x1}", f"--s1={s1}",
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BREAKPOINTS_SHA256[k]


# 20 seeded degenerate lifts at m = 16, --samples 200 --depth 3 and
# --seed = index: GL_3 at q = 7, GL_4 at q = 11, and GL_2 at q = 3 and 2,
# where q <= 2n takes the sl2 "skipped" branch: (index, n, q, x, s, phi)
PINNED_LIFTS = (
    (0, 3, 7, '1/8,7/8,0/1', '3/4', '1,2,2'),
    (1, 3, 7, '5/4,-5/4,0/1', '5/4', '2,3,3;3,1,2'),
    (2, 3, 7, '7/4,7/4,0/1', '1/4', '1,3,2;2,3,2'),
    (3, 3, 7, '-2/1,7/4,0/1', '3/4', '1,2,5'),
    (4, 3, 7, '1/2,-3/4,0/1', '1/2', '1,3,2'),
    (5, 3, 7, '3/2,-1/2,0/1', '3/2', '1,3,2;2,3,1;3,1,6;3,2,2'),
    (6, 3, 7, '3/2,-1/2,0/1', '3/2', '1,3,1;2,3,5;3,1,3;3,2,5'),
    (7, 3, 7, '1/4,5/4,0/1', '7/4', '1,3,6;2,3,1'),
    (8, 4, 11, '-15/8,-5/4,1/2,0/1', '1/4', '2,4,6;3,2,10'),
    (9, 4, 11, '9/8,-9/8,-1/2,0/1', '7/4', '1,2,9'),
    (10, 4, 11, '2/1,3/2,-1/1,0/1', '1/2', '1,2,2;2,1,7;2,3,7;2,4,10;3,2,5;4,2,5'),
    (11, 4, 11, '5/8,-9/8,1/8,0/1', '7/4', '3,2,8'),
    (12, 4, 11, '-5/4,7/4,-13/8,0/1', '3/4', '4,2,5'),
    (13, 4, 11, '-7/4,3/2,1/1,0/1', '3/4', '1,3,4;1,4,2;2,1,4'),
    (14, 4, 11, '-5/4,3/4,-1/4,0/1', '3/4', '4,1,5;4,3,7'),
    (15, 4, 11, '3/2,-2/1,-7/4,0/1', '1/4', '2,3,10;3,1,10'),
    (16, 2, 3, '3/4,0/1', '5/4', '1,2,1'),
    (17, 2, 3, '-5/4,0/1', '3/4', '2,1,2'),
    (18, 2, 2, '-2/1,0/1', '2/1', '2,1,1'),
    (19, 2, 2, '1/1,0/1', '2/1', '2,1,1'),
)

# sha256 of each instance's `lift` stdout, recorded while the probe still
# replayed one reseeded randrange stream per sample; the samples changed
# since, and then the sampler gave way to a certificate that draws none,
# but the bytes did not change
LIFT_SHA256 = (
    "3b9eaf7c3ea512f0d2165f5ffd4adcfdfaa42f8cbb0935ecabd4761799dcc330",
    "acf6ccb93f9ba193fabde4d242db2bd531628290a829625ba92f562153b5fe07",
    "c59e82940d0777cc90b0c24ae269ed2358a547057b64df28bd1c591ea21ccace",
    "b46331ec1477eb865b710e7575b00eade6afdf15ab8d8f929a5596698776d224",
    "46127af7a8a228f4c4e24ca508154c831fa3f605b0ccae73436135e5d8f3178f",
    "83929040e7f6dab830a5c7748c4759a695616add9edcac243ea73967a4715915",
    "93d87ab8fe8e03b81372401c1da3ad6267f0a6a9d3261e09abfb6bee14f37e2a",
    "9c7c9fcd265f6978f8abfd1dbf3f0c1289e41f9bb8fa071e90987dd24f3c2f3b",
    "ddf782bf856dc2c4b198a2c6a3e92689d77688f597017ac4e4cc76f82f4ecfd5",
    "45a53f167498000af5551ae07635cc03e4ac04e6f8638dee2ea96b85e19d754f",
    "7dc527f85090c9db3a0e7555bb3bafe6262ea41a17316fe5ea75c97d38d62cd6",
    "dba18acbcf048ce04c78029e8cb222a248c6edbd44daa13e9fd82a0601734b9a",
    "264d2ee40664a2b33504f736eee1c90a2783570fc34fc993fdabc0ee05e554f6",
    "028116e59c7b0b74029bbb73423562f783a180ac408ed566e258c10a421523b4",
    "4660f1f853cc803a4311213f89f5f06510b0717652cd4a5902197df95ee09504",
    "ba0f7e8370d0448e7d0addc6d2c3c25e3eb8bd5c5a97ffc13b13756c3679ea75",
    "edd325eeb21545a23207315475c9ae3f70b713039fe77d4992402590d45cfd06",
    "389211761a69ba09da0e795b67c7e4f80d2c53b98fd9f643df5b0d74b367f1ff",
    "1c2056c149996e1fb911975b223ca10c784d0f69aa92abff97c558bf2053fa9c",
    "416f3b23434abfbbed451b0f5ebfbbee69acd92ba5dd0081579480686204c291",
)


@pytest.mark.parametrize("k", range(len(PINNED_LIFTS)))
def test_lift_bytes_are_pinned(capsys, k):
    index, n, q, x, s, phi = PINNED_LIFTS[k]
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--n", str(n), "--q", str(q), "--m", "16",
        "--seed", str(index), "lift", f"--x={x}", f"--s={s}", f"--phi={phi}",
        "--samples", "200", "--depth", "3",
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LIFT_SHA256[k]


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


def test_refine_at_q2_verifies_its_modules(capsys, monkeypatch):
    # at p = 2 the characters take the values +-1, which live in F_3
    verified = []
    real = cli.verify_fork_identity

    def counting(cfg, modules, decomposition):
        def drawn():
            for module in modules:
                verified.append(module)
                yield module

        return real(cfg, drawn(), decomposition)

    monkeypatch.setattr(cli, "verify_fork_identity", counting)
    code, out, _ = run_cli(
        capsys, "--allow-small-p", "--n", "3", "--q", "2", "--K", "1", "refine",
        "--y", "0,0,0", "--tau", "1", "--phi", "0", "--x", "0,0,0", "--s", "1",
        "--modules", "3",
    )
    assert code == 0
    assert json.loads(out)["verification"]["fork_identity"] == {"all_pass": True, "modules": 3}
    assert len(verified) == 3
    assert all((m.field.ell, m.field.deg) == (3, 1) for m in verified)


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


def test_gl2_measure_frontier(capsys):
    # the GL_2 count enumerates no residue, so no bound refuses K = 4 or 5
    code, out, _ = run_cli(capsys, "--allow-small-p", "--n", "2", "--q", "5", "--K", "4", "measure")
    assert code == 0
    data = json.loads(out)
    assert data["independence"] is True
    assert data["table"]["orbits"] == [[1, 1], [2]]
    # triangular: probe 1 (lift (2)) misses the zero orbit, the rest are nonzero;
    # the (2)-entry of probe 0 continues 541/625, 13541/15625 by N -> 25N + 16
    assert data["table"]["entries"] == [["1/1", "338541/390625"], ["0/1", "1/5"]]
    code, out, err = run_cli(capsys, "--allow-small-p", "--n", "2", "--q", "5", "--K", "5", "measure")
    assert code == 0
    assert json.loads(out)["table"]["entries"] == [["1/1", "8463541/9765625"], ["0/1", "1/5"]]


def test_a_table_with_dependent_rows_never_reaches_the_writer(capsys, monkeypatch):
    # `measure` writes "independence": true only once M A = I has been
    # checked: a table whose rows repeat its first exits 4 with the message
    # of matrix_problem (test_gl2_measure_table_and_independence pins it)
    real = cli.build_measure_table

    def duplicated(*args, **kwargs):
        table = real(*args, **kwargs)
        return type(table)(
            orbits=table.orbits, probes=table.probes, K=table.K, lam=table.lam,
            normalization=table.normalization, entries=(table.entries[0],) * len(table.entries),
        )

    monkeypatch.setattr(cli, "build_measure_table", duplicated)
    code, out, err = run_cli(capsys, "--allow-small-p", "measure")
    assert (code, out) == (4, "")
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert (error["where"], error["message"]) == (
        "solver.assemble_and_invert", "nonzero entry below the order at ((2), (1,1))"
    )


def test_gl4_measure_at_k1(capsys):
    # the closure ladder decides every GL_4 residue at K = 1
    code, out, err = run_cli(capsys, "--allow-small-p", "--n", "4", "--K", "1", "measure")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["independence"] is True
    table = data["table"]
    orbits = [[1, 1, 1, 1], [2, 1, 1], [2, 2], [3, 1], [4]]
    assert table["orbits"] == orbits
    # probe i has lift orbits[i]; dominance is total for n = 4, so an entry
    # is nonzero exactly on and above the diagonal
    for i, row in enumerate(table["entries"]):
        assert [v != "0/1" for v in row] == [j >= i for j in range(5)]


def cli_error(err):
    return json.loads(err.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize(
    "config",
    [{"n": "3"}, {"K": 1.5}, {"seed": True}, {"bound": None}, {"allow_small_p": 1},
     {"input": 3}, {"output": ["x"]}, [1, 2], "n"],
)
def test_config_values_are_type_checked(capsys, tmp_path, config):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_file), "lattice", "--x", "0,0", "--s", "0"
    )
    assert code == 2 and out == ""
    assert cli_error(err)["where"] == "cli"


def test_config_accepts_null_paths(capsys, tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"input": None, "output": None, "allow_small_p": True}))
    code, _, err = run_cli(capsys, "--config", str(cfg_file), "lattice", "--x", "0,0", "--s", "0")
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1", "--samples", "-1"],
        ["lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1", "--samples", "0"],
        ["refine", "--y", "3/8,0", "--tau", "5/8", "--phi", "1,2,1",
         "--x", "1/2,0", "--s", "1/2", "--modules", "-3"],
        ["refine", "--y", "3/8,0", "--tau", "5/8", "--phi", "1,2,1",
         "--x", "1/2,0", "--s", "1/2", "--modules", "0"],
    ],
)
def test_count_flags_must_be_positive(capsys, argv):
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    assert cli_error(err)["where"] == "cli"


@pytest.mark.parametrize("bound", [-5, 0])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bound_below_one_is_rejected_input(capsys, tmp_path, bound, source):
    if source == "flag":
        argv = ["--bound", str(bound)]
    else:
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"bound": bound}))
        argv = ["--config", str(cfg_file)]
    for command in (["measure"], list(REFINE)):
        code, out, err = run_cli(capsys, "--allow-small-p", *argv, *command)
        assert code == 2 and out == ""
        assert cli_error(err) == {
            "code": 2, "message": f"--bound must be >= 1, got {bound}", "where": "cli"
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["measure"],
        ["solve", "--input", "VEC"],
        ["refine", "--y", "3/8,0", "--tau", "5/8", "--phi", "1,2,1",
         "--x", "1/2,0", "--s", "1/2", "--modules", "3"],
    ],
)
def test_truncation_zero_is_rejected_input(capsys, tmp_path, argv):
    vec = tmp_path / "vector.json"
    vec.write_text(json.dumps({"r": "0/1", "source": "K=0", "entries": []}))
    argv = [str(vec) if a == "VEC" else a for a in argv]
    code, out, err = run_cli(capsys, "--allow-small-p", "--K", "0", *argv)
    assert code == 2 and out == ""
    assert cli_error(err) == {
        "code": 2, "message": "truncation K must be >= 1", "where": "measures"
    }


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


def test_refine_refuses_a_coarse_lift_below_the_finer_lattice(capsys):
    # the coarse lift t^-2 e_12 lies below g_{x>=-1} at x = 0
    code, out, err = run_cli(
        capsys, "--allow-small-p", "refine",
        "--y", "0,0", "--tau", "2", "--phi", "1,2,1", "--x", "0,0", "--s", "1",
    )
    assert code == 2 and out == ""
    assert cli_error(err)["where"] == "refine.enumerate_and_classify"


def test_refine_names_the_points_of_a_failed_incidence(capsys):
    # points print as their coordinates, as DMPPair.describe prints them
    code, out, err = run_cli(
        capsys, "--allow-small-p", "refine", "--n", "2",
        "--y", "1/4,0", "--tau", "1", "--phi", "0", "--x", "0,0", "--s", "2",
    )
    assert code == 2 and out == ""
    assert cli_error(err) == {
        "code": 2,
        "message": "inclusion chains fail between (y=(1/4,0), tau=1) and (x=(0,0), s=2)",
        "where": "refine.enumerate_and_classify",
    }


def test_refine_refuses_level_zero_before_building_a_member(capsys):
    # s = 0 gives the image degree 0, which the degeneracy check refuses
    # before any member's pair is built
    code, out, err = run_cli(
        capsys, "--allow-small-p", "refine",
        "--y", "0,0", "--tau", "1/2", "--phi", "0", "--x", "0,0", "--s", "0",
    )
    assert code == 2 and out == ""
    assert cli_error(err) == {
        "code": 2,
        "message": "degeneracy is defined on pieces of negative degree, got 0",
        "where": "graded.is_degenerate",
    }


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


def test_config_file_that_cannot_be_read_is_rejected(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"n": 2,')
    for path in (missing, truncated):
        code, out, err = run_cli(capsys, "--config", str(path), "lattice", "--x", "0,0", "--s", "0")
        assert code == 2 and out == ""
        error = cli_error(err)
        assert error["where"] == "cli" and str(path) in error["message"]


def test_lift_samples_and_depth_do_not_change_the_output(capsys):
    lift = ("--allow-small-p", "lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1")
    code, out, err = run_cli(capsys, *lift)
    assert code == 0 and err == "" and json.loads(out)["minimality_probe"] is True
    for extra in (("--depth", "-5"), ("--depth", "100000"), ("--samples", "1"), ("--bound", "1")):
        assert run_cli(capsys, *lift, *extra) == (0, out, "")


def fresh_run(*argv):
    """rc, stdout and stderr of the CLI in a new interpreter."""
    src = Path(mptypes.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "mptypes", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_no_parse_leaks_into_the_next_call(capsys, tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"n": 3, "m": 8, "allow_small_p": True}))
    lattice = ("lattice", "--x", "1/2,0", "--s", "1/2")
    lift = ("lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1", "--samples", "20")
    cases = [
        (("--seed", "7", *lift), lift),
        (("--allow-small-p", *lattice), lattice),
        (("--allow-small-p", "measure", "--alt-probes"), ("--allow-small-p", "measure")),
        ((*lattice, "--strict"), lattice),
        (("--config", str(cfg_file), "lattice", "--x", "0,0,0", "--s", "0"), lattice),
    ]
    for earlier, later in cases:
        assert run_cli(capsys, *earlier)[0] == 0
        assert run_cli(capsys, *later) == fresh_run(*later), (earlier, later)
        cli._build_parser().parse_args(earlier)
        parsed = cli._build_parser().parse_args(later)
        assert vars(parsed) == vars(cli._build_parser.__wrapped__().parse_args(later))


def canonical(text):
    """The canonical writer's oracle: the stdlib's sorted, indent-2 form."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# the default GL_2 probe catalog, as `measure` writes it, with a count each
VECTOR = {
    "r": "0/1",
    "source": "by-hand",
    "entries": [
        [{"s": "1/1", "x": ["0/1", "0/1"], "phi": [], "lift": [1, 1]}, 2],
        [{"s": "1/2", "x": ["1/2", "0/1"], "phi": [[1, 2, 1]], "lift": [2]}, 1],
    ],
}

REFINE = ("refine", "--y", "3/8,0", "--tau", "5/8", "--phi", "1,2,1",
          "--x", "1/2,0", "--s", "1/2", "--modules", "3")

# a GL_4 geodesic of 30 intervals
GL4_BREAKPOINTS = ("--n", "4", "breakpoints", "--x0", "1/2,0,-1/4,0", "--s0", "1/2",
                   "--x1=-3/2,5/4,1/8,0", "--s1=-7/8")


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice", "--x", "1/2,0", "--s", "1/2", "--strict"),
        ("lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1", "--samples", "20"),
        ("--q", "3", "lift", "--x", "0,0", "--s", "1", "--phi", "1,2,1", "--samples", "20"),
        ("breakpoints", "--x0", "0,0", "--s0", "1", "--x1", "1/2,0", "--s1", "1/2"),
        REFINE,
        ("measure",),
        ("solve", "--input", "{vector}"),
        GL4_BREAKPOINTS,
    ],
)
def test_stdout_and_output_file_hold_the_canonical_bytes(capsys, tmp_path, argv):
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(VECTOR))
    argv = [a.replace("{vector}", str(vec_file)) for a in argv]
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 0 and err == ""
    out_file = tmp_path / "out.json"
    code, echoed, _ = run_cli(capsys, "--allow-small-p", "--output", str(out_file), *argv)
    assert code == 0 and echoed == ""
    assert out_file.read_bytes() == out.encode("utf-8")
    assert out == canonical(out)
    if "lift" in argv:
        assert ("skipped" in json.loads(out)["sl2"]) == ("--q" in argv)
    if argv == GL4_BREAKPOINTS:  # enough intervals for the plan to repeat rows and matrices
        assert len(json.loads(out)["plan"]["intervals"]) >= 20


def test_saved_matrix_holds_the_canonical_bytes(capsys, tmp_path):
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(VECTOR))
    cm_file = tmp_path / "cm.json"
    code, _, _ = run_cli(
        capsys, "--allow-small-p", "solve", "--input", str(vec_file), "--save-matrix", str(cm_file)
    )
    assert code == 0
    text = cm_file.read_text(encoding="utf-8")
    assert text == canonical(text)
    code, out, _ = run_cli(capsys, "--allow-small-p", "measure")
    assert json.loads(text) == json.loads(out)["matrix"]


def file_error(capsys, path, *argv):
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    error = cli_error(err)
    assert error["where"] == "cli" and str(path) in error["message"]


def bad_input_files(tmp_path):
    """A missing file, a directory, malformed JSON and bytes that are not UTF-8."""
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{bad")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"r": "\xe9"}')
    return [tmp_path / "missing.json", tmp_path, malformed, latin]


def test_unreadable_input_is_rejected(capsys, tmp_path):
    for path in bad_input_files(tmp_path):
        file_error(capsys, path, "solve", "--input", str(path))


def test_unreadable_matrix_is_rejected(capsys, tmp_path):
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(VECTOR))
    for path in bad_input_files(tmp_path):
        file_error(capsys, path, "solve", "--input", str(vec_file), "--matrix", str(path))


PAIR = VECTOR["entries"][0][0]
HALF = VECTOR["entries"][1][0]
MATRIX_KEYS = {"orbits": [[1, 1], [2]], "probes": [PAIR], "M": [], "A": [], "normalization": "n"}


@pytest.mark.parametrize(
    "flag, content, where",
    [
        ("--input", [], "jsonio.mult_vector_from_json"),
        ("--input", {}, "jsonio.mult_vector_from_json"),
        ("--input", {"r": "0/1", "entries": {}}, "jsonio.mult_vector_from_json"),
        ("--input", {"r": "0/1", "entries": [[PAIR]]}, "jsonio.mult_vector_from_json"),
        ("--input", {"r": "0/1", "entries": [[PAIR, "2"]]}, "jsonio.mult_vector_from_json"),
        ("--input", {"r": [0], "entries": []}, "jsonio.parse_frac"),
        ("--input", {"r": 0.1, "entries": []}, "jsonio.parse_frac"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "s": 1.0}, 1]]}, "jsonio.parse_frac"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "x": [0.5, 0]}, 1]]},
         "jsonio.parse_frac"),
        ("--input", {"r": "0/1", "entries": [[PAIR, True]]}, "jsonio.mult_vector_from_json"),
        ("--input", {"r": "0/1", "entries": [[[], 1]]}, "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{"s": "1/1"}, 1]]}, "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "phi": [[1, 2]]}, 1]]},
         "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "phi": [[1, 2, "a"]]}, 1]]},
         "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "phi": [[1, 2, True]], "lift": [2]}, 1]]},
         "jsonio.pair_from_json"),
        # the half-point probe with its one position given as 3 and then 1
        ("--input", {"r": "0/1", "entries": [VECTOR["entries"][0], [{**HALF, "phi": [[1, 2, 3], [1, 2, 1]]}, 1]]},
         "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "x": "0/1"}, 1]]},
         "jsonio.point_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "lift": ["1"]}, 1]]},
         "jsonio.orbit_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "lift": [True, True]}, 1]]},
         "jsonio.orbit_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "x": ["1/3", "1/7", "0/1"]}, 1]]},
         "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "x": ["1/3", "0/1"]}, 1]]},
         "jsonio.pair_from_json"),
        ("--input", {"r": "0/1", "entries": [[{**PAIR, "s": "1/3"}, 1]]},
         "jsonio.pair_from_json"),
        ("--matrix", {}, "jsonio.matrix_from_json"),
        ("--matrix", [], "jsonio.matrix_from_json"),
        ("--matrix", {**MATRIX_KEYS, "orbits": [[1, 1], 2]}, "jsonio.orbit_from_json"),
        ("--matrix", {**MATRIX_KEYS, "orbits": [[True, True], [2]]}, "jsonio.orbit_from_json"),
        ("--matrix", {**MATRIX_KEYS, "probes": ["p"]}, "jsonio.pair_from_json"),
        ("--matrix", {**MATRIX_KEYS, "M": "1/1"}, "jsonio.matrix_from_json"),
        ("--matrix", {**MATRIX_KEYS, "A": [["1/1", None]]}, "jsonio.parse_frac"),
    ],
    ids=[
        "input-array", "input-empty", "entries-object", "entry-single", "count-str",
        "r-array", "r-float", "s-float", "x-float", "count-bool",
        "pair-array", "pair-keys", "phi-width", "phi-str", "phi-bool", "phi-twice", "x-str",
        "lift-str", "lift-bool", "x-length", "x-denominator", "s-denominator", "matrix-empty",
        "matrix-array", "orbit-int", "orbit-bool",
        "probe-str", "M-str", "A-null",
    ],
)
def test_malformed_solve_files_are_rejected(capsys, tmp_path, flag, content, where):
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(content if flag == "--input" else VECTOR))
    argv = ["solve", "--input", str(vec_file)]
    if flag == "--matrix":
        cm_file = tmp_path / "cm.json"
        cm_file.write_text(json.dumps(content))
        argv += ["--matrix", str(cm_file)]
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    assert cli_error(err)["where"] == where


def test_solve_names_a_pair_listed_twice(capsys, tmp_path):
    # the zero probe with multiplicity 3 and then 4: no multiplicity wins silently
    vec_file = tmp_path / "vector.json"
    zero_probe = VECTOR["entries"][0][0]
    vec_file.write_text(json.dumps({**VECTOR, "entries": [[zero_probe, 3], [zero_probe, 4], VECTOR["entries"][1]]}))
    code, out, err = run_cli(capsys, "--allow-small-p", "solve", "--input", str(vec_file))
    assert code == 2 and out == ""
    error = cli_error(err)
    assert error["where"] == "jsonio.mult_vector_from_json"
    assert error["message"] == "pair (s=1, x=(0,0), phi=[0]) is listed twice"


@pytest.mark.parametrize(
    "argv, where",
    [
        (("lift", "--x", "1/3,0", "--s", "1", "--phi", "0"), "cli.lift"),
        (("lift", "--x", "0,0", "--s", "1/3", "--phi", "0"), "cli.lift"),
        (("refine", "--y", "1/3,0", "--tau", "1", "--phi", "0", "--x", "0,0", "--s", "1"),
         "cli.refine"),
        (("refine", "--y", "0,0", "--tau", "1", "--phi", "0", "--x", "0,0", "--s", "1/3"),
         "cli.refine"),
        (("lattice", "--x", "1/3,0", "--s", "1"), "apartment.mp_lattice"),
        (("breakpoints", "--x0", "1/3,0", "--s0", "1", "--x1", "0,0", "--s1", "1"),
         "apartment.breakpoints"),
    ],
    ids=["lift-x", "lift-s", "refine-y", "refine-s", "lattice-x", "breakpoints-x0"],
)
def test_every_command_checks_points_and_levels_against_m(capsys, argv, where):
    code, out, err = run_cli(capsys, "--allow-small-p", "--m", "16", *argv)
    assert code == 2 and out == ""
    error = cli_error(err)
    assert error["where"] == where and "not dividing m = 16" in error["message"]


def test_solve_rejects_a_normalization_that_is_not_a_string(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--allow-small-p", "measure")
    matrix = json.loads(out)["matrix"]
    matrix["normalization"] = 1  # valid otherwise; it would reach the writer
    cm_file = tmp_path / "cm.json"
    cm_file.write_text(json.dumps(matrix))
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps({"r": "0/1", "entries": [[p, 1] for p in matrix["probes"]]}))
    code, out, err = run_cli(
        capsys, "--allow-small-p", "solve", "--input", str(vec_file), "--matrix", str(cm_file),
    )
    assert code == 2 and out == ""
    error = cli_error(err)
    assert error["where"] == "jsonio.matrix_from_json" and "normalization" in error["message"]


# the GL_3 default catalog at q = 5, as `measure` writes it
GL3 = ("--allow-small-p", "--n", "3", "--q", "5", "--K", "1")


def gl3_solve_files(capsys, tmp_path):
    """A GL_3 vector over the default catalog and the matrix saved for it."""
    code, out, _ = run_cli(capsys, *GL3, "measure")
    assert code == 0
    matrix = json.loads(out)["matrix"]
    cm_file = tmp_path / "cm.json"
    cm_file.write_text(json.dumps(matrix))
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(
        {"r": "0/1", "entries": [[p, c] for p, c in zip(matrix["probes"], (31, 1, 0))]}
    ))
    return vec_file, cm_file


@pytest.mark.parametrize("reuse", [True, False], ids=["matrix", "rebuild"])
def test_solve_lifts_each_distinct_pair_once(capsys, tmp_path, monkeypatch, reuse):
    # the vector, the matrix and the rebuilt catalog name the same three
    # pairs; each is lifted once per job, and a second job lifts them again
    from mptypes import orbits

    vec_file, cm_file = gl3_solve_files(capsys, tmp_path)
    lifted = count_calls(monkeypatch, orbits.debacker_lift)
    argv = (*GL3, "solve", "--input", str(vec_file), *(("--matrix", str(cm_file)) if reuse else ()))
    counts, outs = [], []
    for _ in range(2):
        start = len(lifted)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        counts.append(len(lifted) - start)
        outs.append(out)
    assert counts == [3, 3] and outs[0] == outs[1]


@pytest.mark.parametrize(
    "change, where",
    [
        ({"lift": [2, 1]}, "jsonio.pair_from_json"),
        ({"lift": [True, True, True]}, "jsonio.orbit_from_json"),
        ({"s": 1.0}, "jsonio.parse_frac"),
    ],
    ids=["wrong-lift", "lift-bool", "s-float"],
)
def test_a_matrix_probe_unlike_every_vector_pair_is_checked(capsys, tmp_path, change, where):
    # the vector's zero probe has s = 1 as a JSON integer, which parse_frac
    # takes; the matrix probe differs from it in one field that Python
    # equality does not see ([true, true, true] == [1, 1, 1], 1.0 == 1) or in
    # a stored lift, and is refused as it would be on its own
    vec_file, cm_file = gl3_solve_files(capsys, tmp_path)
    vec = json.loads(vec_file.read_text())
    vec["entries"][0][0]["s"] = 1
    vec_file.write_text(json.dumps(vec))
    matrix = json.loads(cm_file.read_text())
    matrix["probes"][0] = {**vec["entries"][0][0], **change}
    cm_file.write_text(json.dumps(matrix))
    code, out, err = run_cli(
        capsys, *GL3, "solve", "--input", str(vec_file), "--matrix", str(cm_file)
    )
    assert code == 2 and out == ""
    assert cli_error(err)["where"] == where


def gl2_solve_files(tmp_path, capsys):
    """VECTOR's file and the matrix a K = 2 `solve` of it saves."""
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(VECTOR))
    cm_file = tmp_path / "cm.json"
    code, _, _ = run_cli(
        capsys, "--allow-small-p", "--K", "2", "solve",
        "--input", str(vec_file), "--save-matrix", str(cm_file),
    )
    assert code == 0
    return vec_file, cm_file


NORM = "counting-density: passing/q^(K*dimO), K="


@pytest.mark.parametrize(
    "K, message, where",
    [
        ("3", f"the --matrix file has normalization '{NORM}2'; K = 3 needs '{NORM}3'", "cli.solve"),
        ("1", f"the --matrix file has normalization '{NORM}2'; K = 1 needs '{NORM}1'", "cli.solve"),
        ("0", "truncation K must be >= 1", "measures"),
        ("-4", "truncation K must be >= 1", "measures"),
    ],
    ids=["K3", "K1", "K0", "K-4"],
)
def test_solve_refuses_a_matrix_saved_at_another_k(capsys, tmp_path, K, message, where):
    # at q = 5 the K = 2 matrix gave c_(1,1) = -6492/125 under --K 3, where
    # a rebuild at K = 3 gives -162492/3125; K = 0 and -4 solved too
    vec_file, cm_file = gl2_solve_files(tmp_path, capsys)
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--K", K, "solve", "--input", str(vec_file), "--matrix", str(cm_file)
    )
    assert code == 2 and out == ""
    assert cli_error(err) == {"code": 2, "message": message, "where": where}


@pytest.mark.parametrize("reuse", [True, False], ids=["matrix", "rebuild"])
def test_solve_refuses_a_negative_depth_bound_on_both_paths(capsys, tmp_path, reuse):
    vec_file, cm_file = gl2_solve_files(tmp_path, capsys)
    vec_file.write_text(json.dumps({**VECTOR, "r": "-3/1"}))
    argv = ["solve", "--input", str(vec_file)] + (["--matrix", str(cm_file)] if reuse else [])
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    assert cli_error(err)["message"] == "depth bound must be >= 0"


@pytest.mark.parametrize("r", ["-3", "-1/2"])
@pytest.mark.parametrize("alt", [False, True], ids=["default", "alt"])
def test_both_catalogs_refuse_a_negative_depth_bound(capsys, r, alt):
    # the alternate catalog refused these with "level must be positive"
    argv = ["measure", f"--r={r}"] + (["--alt-probes"] if alt else [])
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    where = "solver.alt_probes_gl2" if alt else "solver.choose_probes"
    assert cli_error(err) == {"code": 2, "message": "depth bound must be >= 0", "where": where}


def test_unwritable_output_is_rejected(capsys, tmp_path):
    for path in (tmp_path, tmp_path / "no-such-dir" / "out.json"):
        file_error(capsys, path, "--output", str(path), "lattice", "--x", "0,0", "--s", "0")


def test_unwritable_saved_matrix_is_rejected(capsys, tmp_path):
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(VECTOR))
    for path in (tmp_path, tmp_path / "no-such-dir" / "cm.json"):
        file_error(capsys, path, "solve", "--input", str(vec_file), "--save-matrix", str(path))


def count_calls(monkeypatch, real) -> list:
    """Wrap every module binding of the function `real`, so no caller
    escapes the count; the returned list gets one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for info in pkgutil.iter_modules(mptypes.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"mptypes.{info.name}")
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    return calls


def count_classifications(monkeypatch) -> list:
    """One entry per call of `enumerate_and_classify`, from any caller."""
    from mptypes import refine

    return count_calls(monkeypatch, refine.enumerate_and_classify)


def test_selftest_classifies_each_incidence_once(capsys, monkeypatch):
    # the three worked GL_2 incidences serve criteria 2 and 3 from one
    # classification each; 17 more are drawn for the relations
    classified = count_classifications(monkeypatch)
    code, _, _ = run_cli(capsys, "--allow-small-p", "selftest")
    assert code == 0
    assert len(classified) == len({(coarse, finer) for _, coarse, finer in classified}) == 20


def test_refine_classifies_its_incidence_once(capsys, monkeypatch):
    from mptypes import refine

    real_crosscheck = refine._crosscheck_b_class
    crosschecked = []

    def counting_crosscheck(*args, **kwargs):
        crosschecked.append(args)
        return real_crosscheck(*args, **kwargs)

    classified = count_classifications(monkeypatch)
    monkeypatch.setattr(refine, "_crosscheck_b_class", counting_crosscheck)
    code, out, _ = run_cli(capsys, "--allow-small-p", *REFINE)
    assert code == 0
    assert json.loads(out)["verification"]["fork_identity"]["all_pass"] is True
    assert len(classified) == 1 and len(crosschecked) == 1


def test_refine_builds_each_strict_lattice_of_its_incidence_once(capsys, monkeypatch):
    # the classification builds L_{y>-tau} and L_{x>-s}; the relation
    # reads the quotient dimension from it and the fork identity its free
    # positions, so neither builds a lattice again (the measure slices
    # build theirs in `measures`, which this count leaves out)
    from fractions import Fraction

    from mptypes import apartment, measures

    real = apartment.mp_lattice
    built = count_calls(monkeypatch, real)
    monkeypatch.setattr(measures, "mp_lattice", real)
    code, out, _ = run_cli(capsys, "--allow-small-p", *REFINE)
    assert code == 0
    assert json.loads(out)["verification"]["fork_identity"]["all_pass"] is True
    assert [(str(args[1]), args[2]) for args in built] == [
        ("(3/8,0)", Fraction(-5, 8)),
        ("(1/2,0)", Fraction(-1, 2)),
    ]


def test_refine_regrades_the_coarse_lift_once(capsys, monkeypatch):
    # the classification regrades the coarse lift into g_{x=-s} for its B
    # reference; the relation takes its base from the decomposition's image
    from fractions import Fraction

    from mptypes import graded

    regraded = count_calls(monkeypatch, graded.regrade)
    code, out, _ = run_cli(capsys, "--allow-small-p", *REFINE)
    assert code == 0
    assert json.loads(out)["verification"]["fork_identity"]["all_pass"] is True
    assert [(str(args[2]), args[3]) for args in regraded] == [("(1/2,0)", Fraction(-1, 2))]


def test_refine_refuses_k0_before_classifying(capsys, monkeypatch):
    classified = count_classifications(monkeypatch)
    code, out, err = run_cli(capsys, "--allow-small-p", "--K", "0", *REFINE)
    assert code == 2 and out == ""
    assert cli_error(err) == {
        "code": 2, "message": "truncation K must be >= 1", "where": "measures"
    }
    assert classified == []


@pytest.mark.parametrize(
    "phi, message",
    [
        ("1,2,x", "bad coefficient triple '1,2,x'"),
        ("1,2,1;a,1,1", "bad coefficient triple 'a,1,1'"),
        ("1,2", "bad coefficient triple '1,2'"),
        ("1,2,1,1", "bad coefficient triple '1,2,1,1'"),
        ("1,2,1;1,2,2", "position (1,2) given twice"),
        ("1,2,1; 1 , 2 ,0", "position (1,2) given twice"),
    ],
)
@pytest.mark.parametrize("command", ["refine", "lift"])
def test_malformed_phi_is_rejected_input(capsys, command, phi, message):
    if command == "refine":
        argv = ("refine", "--y", "3/8,0", "--tau", "5/8", f"--phi={phi}",
                "--x", "1/2,0", "--s", "1/2", "--modules", "1")
    else:
        argv = ("lift", "--x", "0,0", "--s", "1", f"--phi={phi}", "--samples", "5")
    code, out, err = run_cli(capsys, "--allow-small-p", *argv)
    assert code == 2 and out == ""
    error = cli_error(err)
    assert error["where"] == "cli" and message in error["message"]


def test_refine_bounds_its_modules_before_any_is_drawn(capsys, monkeypatch):
    drawn = []
    real = cli.FiniteModule.random

    def counting(*args, **kwargs):
        drawn.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.FiniteModule, "random", staticmethod(counting))
    # the worked half-point incidence at K = 1, whose subcosets and counts
    # fit in 30 (at K = 2 its counts need more)
    base = ("--allow-small-p", "--K", "1", "--bound", "30", *REFINE[:-1])
    code, out, err = run_cli(capsys, *base, "31")
    assert code == 3 and out == "" and drawn == []
    error = cli_error(err)
    assert error["where"] == "cli.refine" and "31 modules exceed bound 30" in error["message"]
    code, out, _ = run_cli(capsys, *base, "30")
    assert code == 0 and len(drawn) == 30
    assert json.loads(out)["verification"]["fork_identity"] == {"all_pass": True, "modules": 30}


def test_refine_still_refuses_an_enumeration_beyond_the_bound(capsys):
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--bound", "3", "refine",
        "--y", "1/4,0", "--tau", "1", "--phi", "0", "--x", "0,0", "--s", "1",
        "--modules", "1",
    )
    assert code == 3 and out == ""
    assert cli_error(err)["where"] == "refine.enumerate_and_classify"


# the 3 worked families and 17 incidences of the seed-0 `relations` benchmark
# instances: (index, m, y, tau, phi, x, s)
PINNED_REFINES = (
    (0, 16, "3/8,0/1", "5/8", "1,2,1", "1/2,0/1", "1/2"),
    (1, 16, "1/4,0/1", "1/1", "0", "0/1,0/1", "1/1"),
    (2, 16, "3/8,0/1", "11/8", "2,1,1", "0/1,0/1", "1/1"),
    (3, 1, "0/1,0/1", "2/1", "1,2,1", "0/1,0/1", "2/1"),
    (4, 1, "0/1,0/1", "1/1", "1,1,1;1,2,3;2,1,3;2,2,4", "0/1,0/1", "1/1"),
    (5, 1, "-1/1,0/1", "1/1", "1,1,3;1,2,2;2,1,3;2,2,2", "-1/1,0/1", "1/1"),
    (6, 4, "-1/1,0/1", "1/1", "2,1,2", "-1/1,0/1", "1/1"),
    (7, 4, "-1/2,0/1", "1/2", "1,2,3", "-1/2,0/1", "1/2"),
    (8, 4, "1/4,0/1", "7/4", "1,2,4", "0/1,0/1", "2/1"),
    (9, 16, "13/16,0/1", "13/16", "2,1,2", "5/8,0/1", "5/8"),
    (10, 208, "-25/16,0/1", "7/16", "2,1,2", "-13/8,0/1", "3/8"),
    (11, 8, "5/4,0/1", "5/4", "2,1,4", "3/2,0/1", "3/2"),
    (12, 4, "1/4,0/1", "5/4", "2,1,4", "1/2,0/1", "3/2"),
    (13, 8, "-3/4,0/1", "5/4", "2,1,3", "-1/2,0/1", "3/2"),
    (14, 4, "5/4,0/1", "7/4", "1,2,4", "1/1,0/1", "2/1"),
    (15, 12, "-1/4,0/1", "3/4", "2,1,3", "0/1,0/1", "1/1"),
    (16, 4, "-1/4,0/1", "5/4", "1,2,3", "-1/2,0/1", "3/2"),
    (17, 12, "1/4,0/1", "3/4", "1,2,3", "0/1,0/1", "1/1"),
    (18, 4, "-3/4,0/1", "7/4", "1,2,1", "-1/1,0/1", "2/1"),
    (19, 4, "3/4,0/1", "5/4", "1,2,4", "1/2,0/1", "3/2"),
)

# sha256 of each instance's `refine` stdout (K = 2, two modules, seed = index),
# recorded before GL_2 counts were shared by walk and subcosets built directly;
# any change to these bytes is a format change
REFINE_SHA256 = (
    "d2c5e08f2c70f22ab9f695d875f09206294e28adbd0818bc660981f791e28530",
    "e981d80081d9d089666b2c79b5944256a309964ed74ec20b1f97931a165c94d8",
    "75bbe805e610719a77f969b3aff6b3233b09a02bff01486299391121710c4efd",
    "daa4cbb2f89118e4b6225853e5e1252e969fd5ec3affda4e16dec5a4bbfff4d3",
    "1b2274404965fbcee6e0a6f9f23476b8f5ae26d4f8eece70c85eaf0aa8dbddff",
    "0e084fa78e5bf6c83aae659a0af6d9d9cbbdf3789bcf5892a7d5ce02c0c8da45",
    "252fd4c609f7f6b56337cbb77d6640a64bf0a7e301abbf4d35abeb840be15f98",
    "9f7ddf0a74ea9d2f31d1007b0872491e93db2bb506bf59100492d6d48c9ff735",
    "8c2b992e252d9d9f7dfcc7edb952bceb249038f60d63d98e5300b1ec97d9a5a6",
    "2436bc45e5557b2767e4269b90822b4dfcc13f63ba2b8b6ea77acc02a6be78b2",
    "4ef2447e16c3ec808cb285157b8059ddfc02dc12579c6e25684bbbc9b5291b37",
    "adac5879f1b7864ead782bb8dfe30d6903293f67f3580778cbf6053bb56af7c8",
    "3805aa80668819884945f5fa29ec36c1d52d150281d3e9e90efc1cbca6f46251",
    "38d46cdf208009f9fd7d13370dace37cfa21ae4004498f6ec01c5186f0590f83",
    "c4854f4d881afda2078a02100949c27c17eadacb2eeb5bd62413bbdd7aad49da",
    "2d3c4996c678dd3b285c883bcfb48df0786a26793f188effb21fed565f8e9429",
    "7b623378b4acd2fbc1eb22c206f61439ebddd3702ab16be254bcd108a93c759b",
    "197501d5742309c4dd6745a816cadcfb05411ad71672358194a1f8059fbd64d0",
    "7f8e018b8b1e990fc4ad34f50c152282a0152513215995df2d0912d1d44fab7d",
    "2e5d672b198443b16e8e7e1a587236e89973829f5916d5bb0072a171ca67c288",
)


@pytest.mark.parametrize("k", range(len(PINNED_REFINES)))
def test_refine_bytes_are_pinned(capsys, k):
    index, m, y, tau, phi, x, s = PINNED_REFINES[k]
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--m", str(m), "--K", "2", "--seed", str(index),
        "refine", f"--y={y}", f"--tau={tau}", f"--phi={phi}", f"--x={x}", f"--s={s}",
        "--modules", "2",
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFINE_SHA256[k]


# `measure` instances at q = 5: (n, K, --alt-probes); the GL_3, GL_4 and GL_6
# tables run the closure ladder on every residue, and GL_6 is the first n
# whose closure order is not total (its A has 41 zeros above the diagonal)
PINNED_MEASURES = (
    ("2", "1", False), ("2", "2", False), ("2", "3", False),
    ("2", "1", True), ("2", "2", True), ("2", "3", True),
    ("3", "1", False), ("4", "1", False), ("6", "1", False),
)

# sha256 of each instance's `measure` stdout, recorded before the
# single-residue membership API left `measures`; any change to these bytes
# is a format change
MEASURE_SHA256 = (
    "8362bb1dd886ed52177f6d9c91fd1bab50960c66e9fa731271a9d457c1ffb2ea",
    "aab89bf5c2f5c77c6814cf46011e58c298bb063e4f12643ed9d91819f3dafc77",
    "d3f31fcfbff6ad27bda4c9c7b4bd75dd9f86812f5758fa64bc24a35620a02bc7",
    "e8d7c363559ea334292b4cc73300528b912f697f7f91a839122be1755d9627b1",
    "6cfe2b7c338b03d42c65e40ad66762bd260c308350068a7b2782a31766b9583a",
    "7805dafa39acd46c919e11a2d5a77d29bdf2469f9e505e28fbabbb7dcce60da6",
    "4cf242896239a6638c113dc5bf308d7bd07ee3c5db231eae5b54887bc49bba2f",
    "732ac1a1fe19b0ead9658461bafa64600a0dd1cb579b7157968ed04f2dad4ee4",
    # GL_6, recorded before M was inverted by back substitution
    "30f817700562a9e0a8adcde01978446c6edd99a66107d7d36c52b7d2e24826a2",
)


@pytest.mark.parametrize(
    "k", range(len(PINNED_MEASURES)),
    ids=[f"n{n}-K{K}" + ("-alt" if alt else "") for n, K, alt in PINNED_MEASURES],
)
def test_measure_bytes_are_pinned(capsys, k):
    n, K, alt = PINNED_MEASURES[k]
    code, out, err = run_cli(
        capsys, "--allow-small-p", "--n", n, "--q", "5", "--K", K, "measure",
        *(("--alt-probes",) if alt else ()),
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MEASURE_SHA256[k]


# `solve` instances at q = 5 on the default catalog: (n, K, multiplicities in
# probe order), among them the trivial and the induced representations
PINNED_SOLVES = (
    ("2", "2", (1, 0)), ("2", "2", (6, 1)), ("2", "2", (2, 7)),
    ("3", "1", (1, 0, 0)), ("3", "1", (31, 1, 0)), ("3", "1", (186, 11, 1)),
    ("6", "1", (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)),
)

# sha256 of each instance's `solve` stdout, recorded with the measures above
SOLVE_SHA256 = (
    "e16eea7267b6462dee7d5b5ab5ead29bd1b4ec23c19700137d575638bc4597dc",
    "9ce314423695d79ee2317239d9f45853922e1ccfdf3ede8bdf6d90574fe6328f",
    "ee06169f27eb32c28f5267e65aa360f6e9771b6419f46dd5372947338741face",
    "e2fcfa5defc5aa5512d695f8ce3fb19c181bdecedcc891d58238420e84ee61a9",
    "c323864eaf99f01e468f5276af69530dafb257778c6f9e07ee50f2ad462ace05",
    "3c6dfeb136a69bfd2e50351f4d00ac34830294f468ba15ebd9c854924c0f0abd",
    # GL_6, recorded with its measure above
    "0db1d40ea822e0a0061a1939abf811acfc51011ba6eae88f0945da05e2d937c3",
)


@pytest.mark.parametrize(
    "k", range(len(PINNED_SOLVES)),
    ids=[f"n{n}-K{K}-" + "-".join(map(str, m)) for n, K, m in PINNED_SOLVES],
)
def test_solve_bytes_are_pinned(capsys, tmp_path, k):
    # the bytes are the same whether the matrix is built or reused from a file
    n, K, mults = PINNED_SOLVES[k]
    flags = ("--allow-small-p", "--n", n, "--q", "5", "--K", K)
    code, out, _ = run_cli(capsys, *flags, "measure")
    assert code == 0
    matrix = json.loads(out)["matrix"]
    cm_file = tmp_path / "cm.json"
    cm_file.write_text(json.dumps(matrix))
    vec_file = tmp_path / "vector.json"
    vec_file.write_text(json.dumps(
        {"r": "0/1", "entries": [[p, c] for p, c in zip(matrix["probes"], mults)]}
    ))
    for reuse in ((), ("--matrix", str(cm_file))):
        code, out, err = run_cli(capsys, *flags, "solve", "--input", str(vec_file), *reuse)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SOLVE_SHA256[k]
