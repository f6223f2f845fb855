"""One benchmark process: set-up probe, or the timed passes over a job list.

    python3 worker.py setup SRC SPEC       print [set-up seconds, yardstick seconds]
    python3 worker.py run SRC SPEC RESULT  run passes, write RESULT (JSON)

SPEC is the job list written by run.py.  A fresh process per run makes
the run cold and gives its peak resident memory.  Each pass clears the
count cache first and records the size it found and the size it left:
the first pass must find 0, and every pass must leave 0, so repeats
count instead of reading an earlier pass's cache.
With tracing, one traced pass sits between two untraced passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import warnings
from fractions import Fraction as Q
from time import perf_counter


def _setup(spec: dict):
    """Import the library and do the lazy set-up the jobs would repeat."""
    import mptypes.cli  # noqa: F401 - the import is what is measured
    from mptypes import gf
    from mptypes.apartment import GroupConfig

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfgs = {n: GroupConfig(n=n, q=q, m=16) for n, q in spec["configs"]}
    if spec["ext_field"]:
        gf.ExtField(2, 4)  # F_16, the refine fork-identity field for q = 5
    return cfgs


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine-speed yardstick.

    The host's speed drifts by tens of percent over minutes; run.py divides
    every timing by this loop's time, measured alongside, to cancel it.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return perf_counter() - t0


def _cold_cache() -> list:
    """Clear the count cache: [size found, size left].

    The first pass of a fresh worker must find 0, and every pass must
    leave 0.  A library without ``measures._COUNT_CACHE`` stops the run
    here, so that this check is updated rather than passed by default.
    """
    from mptypes import measures

    found = len(measures._COUNT_CACHE)
    measures.clear_count_cache()
    return [found, len(measures._COUNT_CACHE)]


def _one_pass(jobs, cfgs, outdir: str, workdir: str) -> dict:
    import mptypes.cli as cli
    from mptypes import apartment
    from mptypes.apartment import ApartmentPoint

    cache_start = _cold_cache()
    latencies, codes, errors, convexity = [], [], [], []
    yardstick = [calibrate()]  # entries k and k + 1 bracket job k
    start = perf_counter()
    for k, job in enumerate(jobs):
        out = os.path.join(outdir, f"{k}.json")
        argv = [a.replace("{out}", out).replace("{work}", workdir) for a in job["argv"]]
        conv = job.get("convexity")
        error, ok = None, None
        if os.path.exists(out):
            os.remove(out)  # a job that writes nothing must not pass on a stale file
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
            if conv is not None:
                ok = apartment.convexity_check(
                    cfgs[conv["n"]],
                    ApartmentPoint.of([Q(c) for c in conv["x0"]]), Q(conv["s0"]),
                    ApartmentPoint.of([Q(c) for c in conv["x1"]]), Q(conv["s1"]),
                    Q(conv["t"]),
                )
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        codes.append(rc)
        errors.append(error)
        convexity.append(ok)
        yardstick.append(calibrate())
    wall = perf_counter() - start - sum(yardstick[1:])
    digests = []
    for k in range(len(jobs)):
        try:
            with open(os.path.join(outdir, f"{k}.json"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        except OSError:
            digests.append(None)
    return {
        "wall_s": wall,
        "cache_start": cache_start,
        "latencies": latencies,
        "codes": codes,
        "errors": errors,
        "convexity": convexity,
        "digests": digests,
        "yardstick": yardstick,
    }


def _run(spec: dict, result_path: str) -> None:
    cfgs = _setup(spec)
    jobs, seconds = spec["jobs"], spec["seconds"]
    outdir, workdir = spec["outdir"], spec["workdir"]
    result: dict = {"passes": [], "trace": None}
    if spec["trace"]:
        from spans import Tracer

        # untraced passes before and after the traced one, so that a slow
        # spell of the machine does not pass for tracing overhead
        result["passes"].append(_one_pass(jobs, cfgs, outdir, workdir))
        tracer = Tracer()
        tracer.install()
        try:
            unwrapped = tracer.unwrapped_bindings()
            traced = _one_pass(jobs, cfgs, outdir, workdir)
        finally:
            tracer.uninstall()
        result["passes"].append(_one_pass(jobs, cfgs, outdir, workdir))
        result["trace"] = {
            "pass": traced,
            "summary": tracer.summary(),
            "bindings": sorted(f"{m}.{a}" for m, a in tracer.bindings),
            "unwrapped": sorted(f"{m}.{a}" for m, a in unwrapped),
        }
    else:
        # run the minimum, then start another pass only while it is
        # expected to end within the budget
        begin = perf_counter()
        while True:
            p = _one_pass(jobs, cfgs, outdir, workdir)
            result["passes"].append(p)
            enough = len(result["passes"]) >= spec["min_passes"]
            if enough and perf_counter() - begin + p["wall_s"] > seconds:
                break
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    mode, src, spec_path = argv[0], argv[1], argv[2]
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    if mode == "setup":
        t0 = perf_counter()
        _setup(spec)
        elapsed = perf_counter() - t0
        print(json.dumps([elapsed, sorted(calibrate() for _ in range(5))[2]]))
        return 0
    _run(spec, argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
