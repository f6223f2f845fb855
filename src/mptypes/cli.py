"""Batch command surface over the library.

All mathematically relevant parameters are explicit flags or config-file
fields; environment variables are never consulted for them.  Outputs are
deterministic JSON (exact rationals as "a/b") and repeated runs with the
same seed and config agree byte for byte.  Exit codes: 0 success, 2
rejected input, 3 infeasible instance, 4 violated internal contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from typing import Dict, List, Optional

from . import jsonio
from .apartment import ApartmentPoint, GroupConfig, breakpoints, graded_support, mp_lattice
from .errors import ToolkitError, ValidationError
from .graded import GradedElement, homogeneous_lift
from .measures import ProbeSet, build_measure_table, independence_check, measure_vector, relation_lattice
from .orbits import minimality_probe, partitions_of, sl2_complete
from .refine import DMPPair, refine_relation, verify_relation
from .solver import (
    MultiplicityVector,
    alt_probes_gl2,
    assemble_and_invert,
    choose_probes,
    solve_expansion,
)
from . import selftest as selftest_mod
from .finite_types import FiniteModule, verify_fork_identity
from . import gf

Q = Fraction


def _parse_point(cfg: GroupConfig, text: str, *, flag: str) -> ApartmentPoint:
    try:
        coords = [jsonio.parse_frac(c.strip()) for c in text.split(",")]
    except ToolkitError:
        raise ValidationError(f"cannot parse {flag}={text!r}", where="cli")
    if len(coords) != cfg.n:
        raise ValidationError(
            f"{flag} has {len(coords)} coordinates, expected {cfg.n}", where="cli"
        )
    return ApartmentPoint.of(coords)


def _parse_phi(cfg: GroupConfig, x: ApartmentPoint, s: Q, text: str) -> GradedElement:
    """Coefficients as 1-based triples 'i,j,c' separated by ';'; '0' is zero."""
    text = text.strip()
    if text in ("", "0"):
        return GradedElement.zero(x, -s)
    coeffs: Dict = {}
    for item in text.split(";"):
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 3:
            raise ValidationError(f"bad coefficient triple {item!r}", where="cli")
        i, j, c = int(parts[0]), int(parts[1]), int(parts[2])
        coeffs[(i - 1, j - 1)] = c
    return GradedElement.make(cfg, x, -s, coeffs)


def _build_parser() -> argparse.ArgumentParser:
    # global flags live on a parent so they are accepted on either side
    # of the subcommand; SUPPRESS keeps the later parser from clobbering
    # values the earlier one already set
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file; explicit flags win")
    g.add_argument("--n", type=int, default=argparse.SUPPRESS, help="matrix size (GL_n)")
    g.add_argument("--q", type=int, default=argparse.SUPPRESS, help="residue field size (prime)")
    g.add_argument("--m", type=int, default=argparse.SUPPRESS, help="denominator bound")
    g.add_argument("--K", type=int, default=argparse.SUPPRESS, help="truncation level")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized runs")
    g.add_argument("--bound", type=int, default=argparse.SUPPRESS, help="enumeration bound")
    g.add_argument("--input", default=argparse.SUPPRESS, help="input JSON file")
    g.add_argument("--output", default=argparse.SUPPRESS, help="output file (default stdout)")
    g.add_argument(
        "--allow-small-p",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress the warning for q below the large-p hypothesis",
    )

    p = argparse.ArgumentParser(
        prog="mptypes",
        description="Exact filtration, coset-refinement and expansion computations for GL_n over F_q((t))",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "lattice", parents=[common], help="filtration lattice and graded support at (x, s)"
    )
    sp.add_argument("--x", required=True, help="point, e.g. '1/2,0'")
    sp.add_argument("--s", required=True, help="level, e.g. '1/2'")
    sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("lift", parents=[common], help="orbit lift, triple completion and minimality probe")
    sp.add_argument("--x", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--phi", required=True, help="triples 'i,j,c;...' (1-based), or '0'")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--depth", type=int, default=3)

    sp = sub.add_parser("breakpoints", parents=[common], help="geodesic subdivision with certificates")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--s0", required=True)
    sp.add_argument("--x1", required=True)
    sp.add_argument("--s1", required=True)

    sp = sub.add_parser("refine", parents=[common], help="emit and verify one refinement relation")
    sp.add_argument("--y", required=True, help="coarse point")
    sp.add_argument("--tau", required=True, help="coarse level")
    sp.add_argument("--phi", required=True, help="coarse element triples")
    sp.add_argument("--x", required=True, help="finer point")
    sp.add_argument("--s", required=True, help="finer level")
    sp.add_argument("--modules", type=int, default=10, help="random modules for the multiplicity check")

    sp = sub.add_parser("measure", parents=[common], help="measure table, triangularity, independence")
    sp.add_argument("--r", default="0", help="depth bound for the probe catalog")
    sp.add_argument("--alt-probes", action="store_true", help="use the alternate GL_2 catalog")

    sp = sub.add_parser("solve", parents=[common], help="expansion coefficients from a multiplicity vector")
    sp.add_argument("--matrix", help="reuse a persisted coefficient matrix")
    sp.add_argument("--save-matrix", help="persist the coefficient matrix for reuse")

    sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    return p


_GLOBAL_DEFAULTS = {
    "config": None,
    "n": 2,
    "q": 5,
    "m": 16,
    "K": 2,
    "seed": 0,
    "bound": 10**6,
    "input": None,
    "output": None,
    "allow_small_p": False,
}


def _apply_defaults(args: argparse.Namespace) -> None:
    """Fill missing global options: flags > config file > built-ins."""
    merged = dict(_GLOBAL_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        bad = set(data) - (set(_GLOBAL_DEFAULTS) - {"config"})
        if bad:
            raise ValidationError(f"unknown config fields {sorted(bad)}", where="cli")
        merged.update(data)
    for key, value in merged.items():
        if not hasattr(args, key):
            setattr(args, key, value)


def _emit(args, payload: dict) -> None:
    text = jsonio.dump(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_lattice(cfg, args) -> dict:
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    shape = mp_lattice(cfg, x, s, strict=args.strict)
    sup = graded_support(cfg, x, s)
    return {
        "lattice": jsonio.shape_to_json(shape),
        "graded_support": {
            "degree": jsonio.frac_str(s),
            "dim": sup.dim,
            "monomials": [[i + 1, j + 1, w] for (i, j), w in sup.entries],
        },
    }


def _cmd_lift(cfg, args) -> dict:
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    phi = _parse_phi(cfg, x, s, args.phi)
    pair = DMPPair.make(cfg, s, x, phi)
    out = {
        "pair": jsonio.pair_to_json(pair),
        "lift": jsonio.orbit_to_json(pair.lift),
        "minimality_probe": minimality_probe(
            cfg, s, x, phi, samples=args.samples, depth=args.depth, seed=args.seed
        ),
    }
    if cfg.q > 2 * cfg.n:
        triple = sl2_complete(cfg, homogeneous_lift(cfg, phi))
        out["sl2"] = {
            "H": _lmatrix_json(triple.H.mat),
            "E": _lmatrix_json(triple.E.mat),
        }
    else:
        out["sl2"] = {"skipped": f"q = {cfg.q} <= 2n = {2 * cfg.n}"}
    return out


def _lmatrix_json(mat) -> List[List[List[List[int]]]]:
    return [[[list(tc) for tc in e.coeffs] for e in row] for row in mat.rows]


def _cmd_breakpoints(cfg, args) -> dict:
    x0 = _parse_point(cfg, args.x0, flag="--x0")
    x1 = _parse_point(cfg, args.x1, flag="--x1")
    plan = breakpoints(cfg, x0, jsonio.parse_frac(args.s0), x1, jsonio.parse_frac(args.s1))
    return {"plan": jsonio.plan_to_json(cfg, plan)}


def _cmd_refine(cfg, args) -> dict:
    y = _parse_point(cfg, args.y, flag="--y")
    tau = jsonio.parse_frac(args.tau)
    phi = _parse_phi(cfg, y, tau, args.phi)
    coarse = DMPPair.make(cfg, tau, y, phi)
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    rec = refine_relation(cfg, coarse, (x, s), bound=args.bound)
    lam = relation_lattice(cfg, rec)
    slices = {}
    for orbit in partitions_of(cfg.n):
        comps = measure_vector(cfg, orbit, rec.pairs(), args.K, lam, enum_bound=args.bound)
        slices[str(orbit)] = verify_relation(cfg, rec, comps)
    fork_ok = True
    if cfg.q != 2:
        field = gf.ext_field(2, _order_of_two(cfg.q))
        import random as _random

        rng = _random.Random(f"cli-refine:{args.seed}")
        for _ in range(args.modules):
            module = FiniteModule.random(cfg, field, x, s, rng.randrange(1, 7), rng)
            if not verify_fork_identity(cfg, module, coarse, (x, s)):
                fork_ok = False
                break
    return {
        "record": jsonio.record_to_json(cfg, rec),
        "verification": {
            "measure_slices": slices,
            "fork_identity": {"modules": args.modules, "all_pass": fork_ok},
        },
    }


def _order_of_two(p: int) -> int:
    a, value = 1, 2 % p
    while value != 1:
        value = value * 2 % p
        a += 1
    return a


def _default_matrix(cfg, args, r):
    probes = alt_probes_gl2(cfg, r) if getattr(args, "alt_probes", False) else choose_probes(cfg, r)
    ps = ProbeSet.make(cfg, probes, K=args.K)
    table = build_measure_table(cfg, ps, list(partitions_of(cfg.n)), enum_bound=args.bound)
    return probes, table, assemble_and_invert(cfg, probes, table)


def _cmd_measure(cfg, args) -> dict:
    r = jsonio.parse_frac(args.r)
    probes, table, cm = _default_matrix(cfg, args, r)
    return {
        "table": jsonio.table_to_json(table),
        "independence": independence_check(table),
        "matrix": jsonio.matrix_to_json(cm),
    }


def _cmd_solve(cfg, args) -> dict:
    if not args.input:
        raise ValidationError("solve requires --input", where="cli.solve")
    with open(args.input, "r", encoding="utf-8") as fh:
        vec = jsonio.mult_vector_from_json(cfg, json.load(fh))
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            cm = jsonio.matrix_from_json(cfg, json.load(fh))
    else:
        _, _, cm = _default_matrix(cfg, args, vec.r)
    if args.save_matrix:
        with open(args.save_matrix, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dump(jsonio.matrix_to_json(cm)))
    res = solve_expansion(cfg, vec, cm)
    return {"expansion": jsonio.expansion_to_json(res)}


def _cmd_selftest(args) -> int:
    results = selftest_mod.run_all(seed=args.seed)
    return 0 if all(r.passed for r in results) else 4


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_defaults(args)
        with warnings.catch_warnings():
            if args.allow_small_p:
                warnings.simplefilter("ignore")
            else:
                warnings.simplefilter("default")
                _original = warnings.showwarning

                def _to_stderr(message, category, filename, lineno, file=None, line=None):
                    print(f"warning: {message}", file=sys.stderr)

                warnings.showwarning = _to_stderr
            cfg = GroupConfig(n=args.n, q=args.q, m=args.m)
            if args.command == "selftest":
                return _cmd_selftest(args)
            dispatch = {
                "lattice": _cmd_lattice,
                "lift": _cmd_lift,
                "breakpoints": _cmd_breakpoints,
                "refine": _cmd_refine,
                "measure": _cmd_measure,
                "solve": _cmd_solve,
            }
            payload = dispatch[args.command](cfg, args)
        _emit(args, payload)
        return 0
    except ToolkitError as exc:
        error = {"error": {"where": exc.where, "message": str(exc), "code": exc.exit_code}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - defects map to the contract code
        error = {"error": {"where": "internal", "message": f"{type(exc).__name__}: {exc}", "code": 4}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
