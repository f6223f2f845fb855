"""Measure the class mix of random instances and print workloads.STRATA.

    python3 perfbench/mix.py

For each group of jobs (geodesics of GL_2, GL_3 and GL_4, GL_2
relations, lifts at GL_3 and GL_4) this makes a fixed number of valid
random draws with the same draw functions the workloads use, from seeds
of its own, and prints

* how often each class occurred, and
* the group's strata: the (k + 1/2)/jobs quantiles of the sorted classes
  for k = 0 .. jobs - 1, so that a pass holds each class in proportion
  to its measured share.

The STRATA block it prints is the one in workloads.py.  It takes about
a minute on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path
from pprint import pformat

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

# valid draws per group
SAMPLES = {"geodesics": 5000, "relations": 2000, "lifts": 1000}


def strata(classes: list, jobs: int) -> tuple:
    ordered = sorted(classes)
    return tuple(ordered[int((k + 0.5) * len(ordered) / jobs)] for k in range(jobs))


def sample(draw, size: int) -> tuple:
    """`size` classes of valid draws, and the number of draws it took."""
    classes, tries = [], 0
    while len(classes) < size:
        tries += 1
        d = draw()
        if d is not None:
            classes.append(d[0])
    return classes, tries


def main() -> int:
    groups = [
        (("geodesics", n), jobs, lambda rng, n=n: workloads.geodesic_draw(rng, n))
        for n, jobs in workloads.GEODESIC_JOBS
    ]
    groups.append((("relations", 2), workloads.RELATION_JOBS - 3, workloads.relation_draw))
    for n, q, jobs in workloads.LIFT_GROUPS:
        cfg = workloads._config(n, q)
        groups.append((("lifts", n), jobs, lambda rng, cfg=cfg: workloads.lift_draw(rng, cfg)))

    out = {}
    for key, jobs, draw in groups:
        rng = random.Random(f"mix:{key[0]}:{key[1]}")
        classes, tries = sample(lambda: draw(rng), SAMPLES[key[0]])
        counts = sorted(Counter(classes).items())
        print(f"# {key}: {len(classes)} valid of {tries} draws; class: share")
        for c, k in counts:
            print(f"#   {c}: {k / len(classes):.4f}")
        out[key] = strata(classes, jobs)
    print("STRATA = " + pformat(out, width=96, compact=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
