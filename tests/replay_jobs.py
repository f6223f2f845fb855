"""Replay the perfbench jobs under two source trees and report every difference.

    python3 tests/replay_jobs.py FIRST SECOND

FIRST and SECOND are repository roots, each with `src/mptypes`.  The jobs
of seeds 0-3 of the four perfbench workloads are generated once, by
FIRST's `perfbench/workloads.py` and from the instances recorded in FIRST's
`perfbench/references`, so both trees run the same argv lists and input
files.  Each tree then runs every job in one fresh process with its own
`src` first on `sys.path`: one in-process `mptypes.cli.main(argv)` call
per job, in job order, with stdout and stderr captured and the same work
directory on both sides, so paths in messages agree.

The report is one JSON object on stdout: the job count and every job
whose exit code, stdout, stderr or output file differs (outputs by
sha256).  The exit code is 1 when any job differs and 0 otherwise.
Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

WORKLOADS = ("geodesics", "relations", "tables", "lifts")
SEEDS = range(4)
CHILD_TIMEOUT_S = 1800


def generate(first: Path, jobs_path: Path) -> None:
    """Write the job groups of every workload and seed, as FIRST builds them."""
    sys.path[:0] = [str(first / "src"), str(first / "perfbench")]
    import workloads

    groups = []
    for name in WORKLOADS:
        path = first / "perfbench" / "references" / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        recorded = {e["seed"]: e for e in map(json.loads, filter(None, lines))}
        for seed in SEEDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = workloads.generate(name, seed, recorded.get(seed, {}).get("instances"))
            jobs = [{"argv": j["argv"], "files": j.get("files", {})} for j in spec["jobs"]]
            groups.append({"workload": name, "seed": seed, "jobs": jobs})
    jobs_path.write_text(json.dumps(groups), encoding="utf-8")


def replay(tree: Path, jobs_path: Path, workdir: Path, result_path: Path) -> None:
    """Run every job under TREE's `src`; write rc, stdout, stderr and output digest."""
    sys.path.insert(0, str(tree / "src"))
    import mptypes.cli as cli

    results = []
    for group in json.loads(jobs_path.read_text(encoding="utf-8")):
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "out").mkdir(parents=True)
        for job in group["jobs"]:
            for fname, text in job["files"].items():
                (workdir / fname).write_text(text, encoding="utf-8")
        for k, job in enumerate(group["jobs"]):
            out = workdir / "out" / f"{k}.json"
            argv = [a.replace("{out}", str(out)).replace("{work}", str(workdir)) for a in job["argv"]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = f"SystemExit {exc.code}"
                except Exception as exc:  # noqa: BLE001 - a raise is compared, not fatal
                    rc = f"raised {type(exc).__name__}: {exc}"
            output = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None
            results.append({"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                            "output": output})
    shutil.rmtree(workdir, ignore_errors=True)
    result_path.write_text(json.dumps(results), encoding="utf-8")


def _child(*args: str) -> None:
    subprocess.run([sys.executable, __file__, *args], check=True, timeout=CHILD_TIMEOUT_S)


def main(first: Path, second: Path) -> int:
    first, second = first.resolve(), second.resolve()
    with tempfile.TemporaryDirectory(prefix="replay-jobs-") as tmp:
        base = Path(tmp)
        jobs_path = base / "jobs.json"
        _child("--generate", str(first), str(jobs_path))
        sides = []
        for k, tree in enumerate((first, second)):
            result_path = base / f"result{k}.json"
            _child("--replay", str(tree), str(jobs_path), str(base / "work"), str(result_path))
            sides.append(json.loads(result_path.read_text(encoding="utf-8")))
        groups = json.loads(jobs_path.read_text(encoding="utf-8"))
    labels = [(g["workload"], g["seed"], k, job["argv"])
              for g in groups for k, job in enumerate(g["jobs"])]
    differences = []
    for (workload, seed, k, job_argv), a, b in zip(labels, *sides):
        fields = {f: [a[f], b[f]] for f in ("rc", "stdout", "stderr", "output") if a[f] != b[f]}
        if fields:
            differences.append({"workload": workload, "seed": seed, "job": k,
                                "argv": job_argv, "differs": fields})
    print(json.dumps({"first": str(first), "second": str(second), "seeds": list(SEEDS),
                      "jobs": len(labels), "differences": differences}, indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--generate"]:
        generate(Path(sys.argv[2]), Path(sys.argv[3]))
    elif sys.argv[1:2] == ["--replay"]:
        replay(*map(Path, sys.argv[2:6]))
    elif len(sys.argv) == 3:
        sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
    else:
        sys.exit("usage: " + __doc__.split("\n\n")[1].strip())
