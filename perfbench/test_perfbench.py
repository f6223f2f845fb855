"""Benchmark-side tests: complete tracing, tracing that changes no result, and
recorded seeds that still rebuild their recorded inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from spans import LAYER_NAMES, Tracer  # noqa: E402
from worker import _one_pass, _setup  # noqa: E402


def test_every_binding_is_wrapped_and_restored():
    import mptypes.apartment as apartment
    import mptypes.cli as cli
    import mptypes.measures as measures
    import mptypes.refine as refine
    from mptypes.laurent import LMatrix

    original, charpoly = apartment.mp_lattice, LMatrix.charpoly
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        bound = set(tracer.bindings)
        for mod in ("apartment", "measures", "refine", "cli"):
            assert (f"mptypes.{mod}", "mp_lattice") in bound
        assert {f"{m.split('.', 1)[1]}.{a}" for m, a in tracer.bindings} >= set(LAYER_NAMES)
        for mod in (apartment, measures, refine, cli):
            assert mod.mp_lattice is not original
        assert LMatrix.charpoly is not charpoly
    finally:
        tracer.uninstall()
    for mod in (apartment, measures, refine, cli):
        assert mod.mp_lattice is original
    assert LMatrix.charpoly is charpoly


def _sample_jobs() -> list:
    """A few cheap jobs of every workload; the saved matrix precedes its reuse."""
    tables = workloads.generate("tables", 0)["jobs"]
    return (
        workloads.generate("geodesics", 0)["jobs"][:6]
        + workloads.generate("relations", 0)["jobs"][:2]
        + [tables[0]] + tables[5:8]
        + workloads.generate("lifts", 0)["jobs"][:1]
    )


def test_traced_results_equal_untraced(tmp_path):
    jobs = _sample_jobs()
    cfgs = _setup({"configs": [[2, 5], [3, 5], [4, 5]], "ext_field": True})
    out = tmp_path / "out"
    out.mkdir()
    for job in jobs:
        for name, text in job.get("files", {}).items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    plain = _one_pass(jobs, cfgs, str(out), str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        traced = _one_pass(jobs, cfgs, str(out), str(tmp_path))
    finally:
        tracer.uninstall()
    assert plain["codes"] == traced["codes"] == [0] * len(jobs)
    assert plain["digests"] == traced["digests"]
    assert plain["convexity"] == traced["convexity"]
    summary = tracer.summary()
    assert summary["cli.main.calls"] == len(jobs)
    assert summary["apartment.convexity_check.calls"] == 6
    for name in LAYER_NAMES:
        assert summary[f"{name}.self_s"] >= 0.0


def test_recorded_seed_rebuilds_its_recorded_inputs():
    import checks
    import run

    for name in workloads.WORKLOADS:
        ref = run.load_references(name)[0]
        spec = workloads.generate(name, 0, ref.get("instances"))
        assert checks.digest([workloads.input_digest(j) for j in spec["jobs"]]) == ref["inputs"]
