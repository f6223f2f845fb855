"""Seeded job lists for the four benchmark workloads.

A job is one CLI call, ``mptypes.cli.main(argv)``, plus (for geodesics)
one direct ``convexity_check`` call.  Generation runs before any timing.
Geodesics and tables are built from the seed by this module alone.
Relations and lifts draw their instances (valid incidences, degenerate
elements) with the library's help; for a seed with recorded references
the recorded instances are used instead, so a library change cannot
change the jobs.  The worker receives only the finished argv lists and
input files.

Each workload fixes how much work a pass holds, so that passes drawn
from different seeds take about the same time.  A random instance has a
class (a geodesic's interval count, a relation's quotient dimension and
residue count, a lift's level above or below 1), and every pass holds a
fixed list of classes, ``STRATA``: the (k + 1/2)/jobs quantiles of the
classes of many seeded random draws, as ``mix.py`` measures them.  So a
pass holds each class in proportion to how often a random instance
falls in it.  Tables use the same measure jobs on every seed.
"""

from __future__ import annotations

import json
import random
import warnings
from collections import Counter
from fractions import Fraction as Q
from math import lcm
from typing import Dict, List, Optional, Sequence

from checks import candidate_cuts, digest

WORKLOADS = ("geodesics", "relations", "tables", "lifts")

M = 16  # denominator bound of every job (the CLI default)
DENOMS = (1, 2, 4, 8, 16)

# The class list of each group of jobs, per pass: the (k + 1/2)/jobs
# quantiles of the classes of 5000 (geodesics), 2000 (relations) and
# 1000 (lifts) valid seeded random draws.  `python3 perfbench/mix.py`
# measures the class shares and prints this block.
STRATA = {('geodesics', 2): (1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10, 11, 12, 13, 14, 17),
 ('geodesics', 3): (3, 5, 7, 8, 10, 11, 12, 13, 15, 16, 17, 18, 20, 21, 22, 24, 26, 28, 31, 36),
 ('geodesics', 4): (6, 10, 12, 15, 18, 20, 22, 24, 26, 28, 30, 32, 35, 37, 39, 42, 45, 48, 52,
                    60),
 ('lifts', 3): (False, False, False, False, False, False, False, False, False, False, False,
                False, False, True, True, True, True, True, True, True, True, True, True, True,
                True, True),
 ('lifts', 4): (False, False, False, False, True, True, True, True),
 ('relations', 2): ((0, 250), (0, 250), (0, 250), (0, 250), (0, 1250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250), (0, 6250),
                    (0, 6250), (0, 6250), (0, 6250), (0, 6250), (1, 3750), (1, 3750), (1, 3750),
                    (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750),
                    (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750), (1, 3750),
                    (1, 3750), (3, 3250), (3, 3250), (3, 3250), (3, 3250), (3, 3250), (3, 3250),
                    (3, 3250), (3, 3250), (3, 3250), (3, 3250), (3, 3250), (3, 3250),
                    (3, 3250))}


def _frac(v: Q) -> str:
    return f"{v.numerator}/{v.denominator}"


def _coords(xs: Sequence[Q]) -> str:
    return ",".join(_frac(c) for c in xs)


def _phi(coeffs) -> str:
    """1-based 'i,j,c;...' triples, or '0' for the zero element."""
    return ";".join(f"{i + 1},{j + 1},{c}" for (i, j), c in coeffs) or "0"


def _base(n: int, q: int, m: int = M) -> List[str]:
    return ["--allow-small-p", "--n", str(n), "--q", str(q), "--m", str(m)]


def _config(n: int, q: int, m: int = M):
    from mptypes.apartment import GroupConfig

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


# ---------------------------------------------------------------------------
# geodesics: breakpoints + convexity_check, GL_2 / GL_3 / GL_4
# ---------------------------------------------------------------------------

GEODESIC_JOBS = ((2, 20), (3, 20), (4, 20))  # (n, jobs)


def _random_point(rng: random.Random, n: int, d: int, span: int) -> List[Q]:
    return [Q(rng.randrange(-span * d, span * d + 1), d) for _ in range(n)]


def _fill(classes: Sequence, draw) -> list:
    """One drawn instance per entry of `classes`, in the order of `classes`.

    `draw()` returns (class, instance) or None; a draw whose class still
    has an open entry fills the first one.  So entry k always has the
    same class, whatever the seed.
    """
    want = Counter(classes)
    got: Dict = {c: [] for c in want}
    while any(want.values()):
        d = draw()
        if d is not None and want[d[0]] > 0:
            want[d[0]] -= 1
            got[d[0]].append(d[1])
    return [got[c].pop(0) for c in classes]


def geodesic_draw(rng: random.Random, n: int):
    """A random geodesic of GL_n, classed by its certified interval count."""
    d0, d1 = rng.choice(DENOMS), rng.choice(DENOMS)
    x0, x1 = _random_point(rng, n, d0, 2), _random_point(rng, n, d1, 2)
    s0 = Q(rng.randrange(-2 * d0, 2 * d0 + 1), d0)
    s1 = Q(rng.randrange(-2 * d1, 2 * d1 + 1), d1)
    return len(candidate_cuts(x0, s0, x1, s1)) - 1, (x0, s0, x1, s1)


def geodesics(seed: int) -> dict:
    rng = random.Random(f"geodesics:{seed}")
    jobs = []
    for n, _ in GEODESIC_JOBS:
        for x0, s0, x1, s1 in _fill(STRATA[("geodesics", n)], lambda: geodesic_draw(rng, n)):
            t = Q(rng.randrange(0, M + 1), M)
            argv = _base(n, 5) + [
                "--output", "{out}", "breakpoints",
                f"--x0={_coords(x0)}", f"--s0={_frac(s0)}",
                f"--x1={_coords(x1)}", f"--s1={_frac(s1)}",
            ]
            conv = {
                "n": n, "x0": [_frac(c) for c in x0], "s0": _frac(s0),
                "x1": [_frac(c) for c in x1], "s1": _frac(s1), "t": _frac(t),
            }
            jobs.append({"kind": "breakpoints", "argv": argv, "convexity": conv})
    rng.shuffle(jobs)
    return {"configs": [[n, 5] for n, _ in GEODESIC_JOBS], "ext_field": False, "jobs": jobs}


# ---------------------------------------------------------------------------
# relations: refine on the worked GL_2 families and random valid incidences
# ---------------------------------------------------------------------------

RELATION_JOBS = 80  # the 3 worked families and 77 random incidences
RELATION_K = 2
RELATION_MODULES = 1


def _random_incidence(n: int, q: int, rng: random.Random):
    """A coarse nonzero degenerate pair at an interval point y of a random geodesic,
    the finer point (x, s) at one end of that interval, and the config,
    whose m is the lcm of the denominators; or None."""
    from mptypes.apartment import ApartmentPoint, graded_support
    from mptypes.graded import GradedElement, is_degenerate
    from mptypes.refine import DMPPair

    d0, d1 = rng.choice(DENOMS[:4]), rng.choice(DENOMS[:4])
    x0, x1 = _random_point(rng, n, d0, 1), _random_point(rng, n, d1, 1)
    s0 = Q(rng.randrange(1, 2 * d0 + 1), d0)
    s1 = Q(rng.randrange(1, 2 * d1 + 1), d1)
    ts = candidate_cuts(x0, s0, x1, s1)
    k = rng.randrange(len(ts) - 1)
    mid = (ts[k] + ts[k + 1]) / 2
    end = ts[k] if rng.random() < 0.5 else ts[k + 1]
    at = lambda t: ([(1 - t) * a + t * b for a, b in zip(x0, x1)], (1 - t) * s0 + t * s1)
    (y, tau), (x, s) = at(mid), at(end)
    cfg = _config(n, q, lcm(*(v.denominator for v in y + x + [tau, s])))
    y, x = ApartmentPoint.of(y), ApartmentPoint.of(x)
    sup = graded_support(cfg, y, -tau)
    for _ in range(10 if sup.dim else 0):
        el = GradedElement.make(cfg, y, -tau, {p: rng.randrange(q) for p in sup.positions})
        if not el.is_zero() and is_degenerate(cfg, el):
            return DMPPair.make(cfg, tau, y, el), (x, s), cfg
    return None


def relation_draw(rng: random.Random):
    """A random valid GL_2 incidence, classed by (quotient dimension, residue
    work), where the work is the sum over the relation's pairs of
    q^(merged residue dimension): the size of the K = 2 counting walks
    the job must do.  None when the draw is not a valid incidence."""
    from mptypes.apartment import mp_lattice
    from mptypes.errors import ToolkitError
    from mptypes.measures import merged_residue_dim
    from mptypes.refine import refine_relation

    inst = _random_incidence(2, 5, rng)
    if inst is None:
        return None
    coarse, finer, cfg = inst
    try:
        rec = refine_relation(cfg, coarse, finer)
    except ToolkitError:
        return None
    # the lattice refine verifies against: the coarse non-strict lattice
    lam = mp_lattice(cfg, coarse.x, -coarse.s).bounds
    work = sum(cfg.q ** merged_residue_dim(cfg, p, RELATION_K, lam) for p in rec.pairs())
    return (rec.provenance.quotient_dim, work), inst


def _refine_job(inst: list) -> dict:
    index, m, y, tau, phi, x, s = inst
    argv = _base(2, 5, m) + [
        "--K", str(RELATION_K), "--seed", str(index), "--output", "{out}", "refine",
        f"--y={y}", f"--tau={tau}", f"--phi={phi}", f"--x={x}", f"--s={s}",
        "--modules", str(RELATION_MODULES),
    ]
    return {"kind": "refine", "argv": argv, "extra": {"q": 5, "m": m, "K": RELATION_K}}


def relation_instances(seed: int) -> list:
    """[index, m, y, tau, phi, x, s] per job, in job order."""
    from mptypes.selftest import worked_instances

    cfg = _config(2, 5)
    rng = random.Random(f"relations:{seed}")
    pairs = [(c, f, cfg) for c, f in worked_instances(cfg)]
    pairs += _fill(STRATA[("relations", 2)], lambda: relation_draw(rng))
    insts = [
        [i, cfg.m, _coords(c.x.coords), _frac(c.s), _phi(c.phi.coeffs), _coords(x.coords), _frac(Q(s))]
        for i, (c, (x, s), cfg) in enumerate(pairs)
    ]
    rng.shuffle(insts)
    return insts


def relations(instances: list) -> dict:
    jobs = [_refine_job(inst) for inst in instances]
    return {"configs": [[2, 5]], "ext_field": True, "jobs": jobs}


# ---------------------------------------------------------------------------
# tables: measure tables and the triangular solver
# ---------------------------------------------------------------------------

# (n, K, alternate GL_2 catalog); GL_3 at K = 2 and GL_4 are refused on the
# seed (exit 3) and are left out
TABLE_MEASURES = ((2, 2, False), (2, 2, True), (2, 3, False), (2, 3, True), (3, 1, False))
# default catalogs that solve can rebuild, with the solves each one gets
TABLE_SOLVES = ((2, 2, 33), (2, 3, 33), (3, 1, 33))
# the default probe catalogs, solver.choose_probes(cfg, 0), as the program
# writes them; a multiplicity vector gives one count per probe
TABLE_PROBES = {
    2: [
        {"s": "1/1", "x": ["0/1", "0/1"], "phi": [], "lift": [1, 1]},
        {"s": "1/2", "x": ["1/2", "0/1"], "phi": [[1, 2, 1]], "lift": [2]},
    ],
    3: [
        {"s": "1/1", "x": ["0/1", "0/1", "0/1"], "phi": [], "lift": [1, 1, 1]},
        {"s": "1/1", "x": ["0/1", "0/1", "0/1"], "phi": [[1, 2, 1]], "lift": [2, 1]},
        {"s": "1/1", "x": ["0/1", "0/1", "0/1"], "phi": [[1, 2, 1], [2, 3, 1]], "lift": [3]},
    ],
}


def tables(seed: int) -> dict:
    rng = random.Random(f"tables:{seed}")
    jobs = []
    measure_index: Dict[tuple, int] = {}
    for n, K, alt in TABLE_MEASURES:
        measure_index[(n, K, alt)] = len(jobs)
        argv = _base(n, 5) + ["--K", str(K), "--output", "{out}", "measure"]
        jobs.append({"kind": "measure", "argv": argv + (["--alt-probes"] if alt else [])})
    for n, K, count in TABLE_SOLVES:
        solves = []
        for k in range(count):
            entries = [[p, rng.randrange(0, 61)] for p in TABLE_PROBES[n]]
            vec = {"r": "0/1", "source": "perfbench", "entries": entries}
            name = f"vec_n{n}_K{K}_{k}.json"
            argv = _base(n, 5) + ["--K", str(K), "--input", "{work}/" + name, "--output", "{out}", "solve"]
            matrix = "{work}/" + f"matrix_n{n}_K{K}.json"
            # the first solve rebuilds the table and saves the matrix; the
            # rest alternate between reusing it and rebuilding from the cache
            if k == 0:
                argv += ["--save-matrix", matrix]
            elif k % 2:
                argv += ["--matrix", matrix]
            solves.append({
                "kind": "solve",
                "argv": argv,
                "files": {name: json.dumps(vec, sort_keys=True, indent=2) + "\n"},
                "extra": {"matrix_job": measure_index[(n, K, False)]},
            })
        first, rest = solves[0], solves[1:]
        rng.shuffle(rest)
        jobs += [first] + rest
    configs = sorted({(n, 5) for n, _, _ in TABLE_MEASURES})
    return {"configs": [list(c) for c in configs], "ext_field": False, "jobs": jobs}


# ---------------------------------------------------------------------------
# lifts: orbit lift, minimality probe and sl2 completion
# ---------------------------------------------------------------------------

LIFT_GROUPS = ((3, 7, 26), (4, 11, 8))  # (n, q, jobs)
LIFT_SAMPLES, LIFT_DEPTH = 200, 3


def lift_draw(rng: random.Random, cfg):
    """A random nonzero degenerate element, classed by whether its level s
    is above 1: a job's cost grows with the coefficients its 200 samples
    draw, which jump when s passes 1.  None when the draw is not valid."""
    from mptypes.apartment import ApartmentPoint, graded_support
    from mptypes.graded import GradedElement, is_degenerate

    d, ds = rng.choice(DENOMS[:4]), rng.choice(DENOMS[:4])
    x = ApartmentPoint.of(_random_point(rng, cfg.n, d, 1))
    s = Q(rng.randrange(1, 2 * ds + 1), ds)
    sup = graded_support(cfg, x, -s)
    el = GradedElement.make(cfg, x, -s, {p: rng.randrange(cfg.q) for p in sup.positions})
    if el.is_zero() or not is_degenerate(cfg, el):
        return None
    return s > 1, (x, s, el)


def lift_instances(seed: int) -> list:
    """[n, q, index, x, s, phi] per job, in job order."""
    rng = random.Random(f"lifts:{seed}")
    insts = []
    for n, q, _ in LIFT_GROUPS:
        cfg = _config(n, q)
        for k, (x, s, el) in enumerate(_fill(STRATA[("lifts", n)], lambda: lift_draw(rng, cfg))):
            insts.append([n, q, k, _coords(x.coords), _frac(s), _phi(el.coeffs)])
    rng.shuffle(insts)
    return insts


def lifts(instances: list) -> dict:
    jobs = []
    for n, q, k, x, s, phi in instances:
        argv = _base(n, q) + [
            "--seed", str(k), "--output", "{out}", "lift",
            f"--x={x}", f"--s={s}", f"--phi={phi}",
            "--samples", str(LIFT_SAMPLES), "--depth", str(LIFT_DEPTH),
        ]
        jobs.append({"kind": "lift", "argv": argv, "extra": {"n": n, "q": q}})
    return {"configs": [[n, q] for n, q, _ in LIFT_GROUPS], "ext_field": False, "jobs": jobs}


# workloads whose instances are found with the library's help; the rest
# are built from the seed by this module alone
DRAWN = {"relations": relation_instances, "lifts": lift_instances}


def generate(workload: str, seed: int, instances: Optional[list] = None) -> dict:
    """The workload's spec: set-up data and job list.

    For a DRAWN workload, `instances` (recorded earlier for this seed)
    replaces the draw, so that a library change cannot change the jobs;
    the spec then holds the instances it used.
    """
    if workload not in DRAWN:
        return {"geodesics": geodesics, "tables": tables}[workload](seed)
    if instances is None:
        instances = DRAWN[workload](seed)
    spec = {"relations": relations, "lifts": lifts}[workload](instances)
    spec["instances"] = instances
    return spec


def input_digest(job: dict) -> str:
    """Digest of everything the program receives for one job."""
    return digest({k: job.get(k) for k in ("argv", "files", "convexity")})
