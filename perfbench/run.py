"""mptypes benchmark: seeded CLI job workloads with an exact correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is geodesics, relations, tables, lifts, or all (the four in turn).
Run from the repository root; see perfbench/README.md for the workloads
and metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402 - these live next to this file
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Timings are reported in reference seconds: a job's measured seconds
# times YARDSTICK_REF_S / (median of the worker.calibrate() times nearest
# it, YARDSTICK_WINDOW before and as many after).  The host's speed
# drifts by tens of percent over minutes; the yardstick drifts with it,
# so the ratio tracks the program, not the host, and the median keeps a
# single disturbed yardstick time from scaling a job.  3.3 ms is the
# yardstick on a 2-vCPU x86-64 VM under Python 3.11 at its usual speed.
YARDSTICK_REF_S = 0.0033
YARDSTICK_WINDOW = 3
MIN_JOBS_PER_RUN = 100  # so that job_p90_ms has at least 10 samples beyond it
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith((".b_share", ".distinct_ratio")) or metric == "trace_overhead_ratio":
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(".loc"):
        return "lines"
    return "count"


def source_lines() -> dict:
    """Line counts of each mptypes module and of tests/."""
    def lines(path: Path) -> int:
        return path.read_text(encoding="utf-8").count("\n")

    out = {f"mptypes.{m}.loc": lines(SRC / "mptypes" / f"{m}.py") for m in spans.source_modules()}
    out["tests.loc"] = sum(lines(p) for p in sorted((ROOT / "tests").glob("*.py")))
    return out


def stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _worker(*args: str, timeout: float, capture: bool) -> subprocess.CompletedProcess:
    # bytecode is written, as in an installed package, so that set-up times
    # loading it rather than compiling; subprocess.run kills and reaps the
    # child if the timeout expires
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        timeout=timeout,
        check=True,
        env=env,
    )


def _check_jobs(jobs: list, outdir: Path, convexity: list) -> tuple:
    """Per job: (problems, content digest) from the output files on disk."""
    outputs = []
    for k in range(len(jobs)):
        try:
            outputs.append(json.loads((outdir / f"{k}.json").read_text(encoding="utf-8")))
        except (OSError, ValueError):
            outputs.append(None)
    problems, contents = [], []
    for k, job in enumerate(jobs):
        out = outputs[k]
        if out is None:
            problems.append(["no readable output"])
            contents.append(None)
            continue
        extra = dict(job.get("extra", {}))
        if job["kind"] == "breakpoints":
            extra["convexity"] = convexity[k]
        if job["kind"] == "refine":
            try:
                extra["components"] = _relation_components(out, extra)
            except Exception as exc:  # noqa: BLE001 - an unreadable record fails its job
                problems.append([f"measures not recomputable: {type(exc).__name__}: {exc}"])
                contents.append(None)
                continue
        if job["kind"] == "solve":
            measured = outputs[extra["matrix_job"]]
            extra["matrix"] = measured["matrix"] if measured else {"orbits": [], "probes": [], "M": []}
            (text,) = job["files"].values()
            extra["vector"] = json.loads(text)
        try:
            problems.append(checks.verify(job["kind"], out, extra))
            contents.append(checks.digest(checks.content(job["kind"], out, extra)))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append([f"malformed output: {type(exc).__name__}: {exc}"])
            contents.append(None)
    return problems, contents


def _relation_components(out: dict, extra: dict) -> dict:
    """Per orbit slice, the counting measures of the printed relation's
    pairs (lhs, base, then the terms), recomputed here by the library so
    that checks.py can evaluate the relation itself instead of trusting
    the printed verdicts."""
    from mptypes.apartment import mp_lattice
    from mptypes.jsonio import pair_from_json
    from mptypes.measures import count_measure
    from mptypes.orbits import partitions_of

    cfg = workloads._config(2, extra["q"], extra["m"])
    rec = out["record"]
    pairs = [pair_from_json(cfg, p) for p in [rec["lhs"], rec["base"]] + [p for _, p in rec["terms"]]]
    # the lattice refine verifies against: the coarse non-strict lattice
    lam = mp_lattice(cfg, pairs[0].x, -pairs[0].s, strict=False).bounds
    return {
        str(orbit): [count_measure(cfg, orbit, p, extra["K"], lam) for p in pairs]
        for orbit in partitions_of(cfg.n)
    }


def _scaled(p: dict) -> list:
    """A pass's job latencies in reference seconds."""
    y, w = p["yardstick"], YARDSTICK_WINDOW
    # y[k] and y[k + 1] are timed just before and just after job k
    return [
        t * YARDSTICK_REF_S / statistics.median(y[max(0, k + 1 - w): k + 1 + w])
        for k, t in enumerate(p["latencies"])
    ]


def load_references(name: str) -> dict:
    """Seed -> recorded entry, from references/<name>.jsonl (one seed a line)."""
    path = HERE / "references" / f"{name}.jsonl"
    if not path.is_file():
        return {}
    entries = (json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line)
    return {e["seed"]: e for e in entries}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, set up, run and check one workload; returns the report."""
    ref = load_references(name).get(seed)
    t0 = perf_counter()
    spec = workloads.generate(name, seed, ref.get("instances") if ref else None)
    generation_s = perf_counter() - t0
    jobs = spec["jobs"]
    inputs = checks.digest([workloads.input_digest(j) for j in jobs])

    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    try:
        for job in jobs:
            for fname, text in job.get("files", {}).items():
                (workdir / fname).write_text(text, encoding="utf-8")
        spec_path = workdir / "spec.json"
        instances = spec.pop("instances", None)  # the worker needs only the jobs
        spec.update(seconds=seconds, trace=trace, outdir=str(outdir), workdir=str(workdir),
                    min_passes=math.ceil(MIN_JOBS_PER_RUN / len(jobs)))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        # the first probe also compiles bytecode in a fresh checkout; not timed
        probes = [
            json.loads(_worker("setup", str(SRC), str(spec_path), timeout=60, capture=True).stdout)
            for _ in range(SETUP_PROBES + 1)
        ][1:]
        result_path = workdir / "result.json"
        _worker("run", str(SRC), str(spec_path), str(result_path),
                timeout=WORKER_TIMEOUT_S, capture=False)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        passes = result["passes"] + ([result["trace"]["pass"]] if trace else [])
        problems, contents = _check_jobs(jobs, outdir, passes[-1]["convexity"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = []
    # a recorded seed must run the recorded inputs: anything else is a
    # change of the benchmark, to be recorded again, not of the program
    inputs_ok = ref is None or ref["inputs"] == inputs
    if not inputs_ok:
        notes.append("the inputs differ from those recorded for this seed")
    elif ref is not None:
        for k, (want, got) in enumerate(zip(ref["results"].split(), contents)):
            if want != got:
                problems[k].append("content differs from the recorded reference")

    final = passes[-1]["digests"]
    failed = 0
    for p_idx, p in enumerate(passes):
        for k in range(len(jobs)):
            why = list(problems[k])
            if p["codes"][k] != 0:
                why.append(f"exit code {p['codes'][k]} {p['errors'][k] or ''}".strip())
            if p["digests"][k] != final[k]:
                why.append("output bytes differ between passes")
            if jobs[k]["kind"] == "breakpoints" and p["convexity"][k] is not True:
                why.append("convexity_check did not return True")
            if why:
                failed += 1
                notes.append(f"pass {p_idx} job {k} ({jobs[k]['kind']}): {'; '.join(why)}")
    # [size found, size left] per pass; the first pass runs in a fresh process
    cache_starts = [p["cache_start"] for p in passes]
    cold = cache_starts[0][0] == 0 and not any(left for _, left in cache_starts)
    if not cold:
        notes.append(f"count cache not cold at pass start: {cache_starts}")
    correct = failed == 0 and cold and inputs_ok
    if trace and result["trace"]["unwrapped"]:
        correct = False
        notes.append("bindings left unwrapped: " + ", ".join(result["trace"]["unwrapped"]))

    report = {
        "name": name,
        "stamp": stamp(name, seed),
        "jobs": len(jobs),
        "passes": len(passes),
        "attempted": len(jobs) * len(passes),
        "failed": failed,
        "correct": correct,
        "cache_starts": cache_starts,
        "generation_s": generation_s,
        "has_reference": ref is not None,
        "inputs": inputs,
        "instances": instances,
        "contents": contents,
        "notes": notes,
    }
    report["yardstick_ms"] = [statistics.median(p["yardstick"]) * 1000 for p in passes]
    if trace:
        traced = result["trace"]["pass"]
        untraced = statistics.mean(sum(_scaled(p)) for p in result["passes"])
        layers = dict(result["trace"]["summary"])
        for k in layers:
            if k.endswith(".self_s"):
                layers[k] *= YARDSTICK_REF_S / statistics.median(traced["yardstick"])
        layers["trace_overhead_ratio"] = sum(_scaled(traced)) / untraced
        layers.update(source_lines())
        report["metrics"] = {k: (v, _unit(k)) for k, v in layers.items()}
        report["bindings"] = result["trace"]["bindings"]
    else:
        lat = sorted(x for p in passes for x in _scaled(p))
        p90 = math.ceil(0.9 * len(lat)) - 1
        report["samples"] = {"passes": len(passes), "jobs": len(lat), "beyond_p90": len(lat) - p90 - 1,
                             "setups": len(probes),
                             "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
                             "raw_setup_s": statistics.median(t for t, _ in probes)}
        values = {
            "wall_s": statistics.median(sum(_scaled(p)) for p in passes),
            "job_p50_ms": statistics.median(lat) * 1000,
            "job_p90_ms": lat[p90] * 1000,
            "setup_s": statistics.median(t * YARDSTICK_REF_S / y for t, y in probes),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        report["metrics"] = {k: (values[k], unit) for k, unit in END_TO_END}
    return report


def print_report(r: dict) -> None:
    print(f"== {r['name']}: {r['jobs']} jobs x {r['passes']} passes, "
          f"generated in {r['generation_s']:.2f} s ==")
    print("stamp " + json.dumps(r["stamp"], sort_keys=True))
    ref = "recorded reference + independent checks" if r["has_reference"] else (
        "independent checks only (no recorded reference for these inputs)")
    print(f"correctness: {ref}; count cache [found, left after clearing] per pass "
          f"{r['cache_starts']}")
    print("yardstick per pass (ms): " + ", ".join(f"{y:.3f}" for y in r["yardstick_ms"])
          + f"; timings below are in reference seconds ({YARDSTICK_REF_S * 1000:g} ms yardstick)")
    if "bindings" in r:
        print(f"traced bindings: {len(r['bindings'])}, none left unwrapped" if r["correct"]
              else "traced run not clean, see FAIL lines")
    s = r.get("samples")
    how = {}
    if s:
        how = {
            "wall_s": f"median of {s['passes']} passes; {s['raw_wall_s']:.4f} s as measured",
            "job_p50_ms": f"median of {s['jobs']} jobs",
            "job_p90_ms": f"p90 of {s['jobs']} jobs, {s['beyond_p90']} beyond it",
            "setup_s": f"median of {s['setups']} set-ups; {s['raw_setup_s']:.4f} s as measured",
            "peak_rss_mib": "worker process",
        }
    for k, (v, unit) in r["metrics"].items():
        print(f"  {k:<46} {v!r:>22} {unit:<6} {how.get(k, '')}")
    if s:
        ratio = r["failed"] / r["attempted"]
        print(f"  {'fail_ratio':<46} {ratio!r:>22} {'ratio':<6} "
              f"{r['failed']} of {r['attempted']} jobs failed")
    for note in r["notes"][:20]:
        print("  FAIL " + note)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mptypes" / "cli.py").is_file():
        print(f"perfbench: no mptypes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # workload generation calls the library

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:  # one after another, never at the same time
        try:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {name} did not run: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print_report(r)
        reports.append(r)
    prefix = len(reports) > 1
    metrics = {
        (f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": unit}
        for r in reports
        for k, (v, unit) in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
