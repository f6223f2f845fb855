"""Batch command surface over the library.

All mathematically relevant parameters are explicit flags or config-file
fields; environment variables are never consulted for them.  Outputs are
deterministic JSON (exact rationals as "a/b") and repeated runs with the
same seed and config agree byte for byte.  Exit codes: 0 success, 2
rejected input, 3 infeasible instance, 4 violated internal contract.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import warnings
from fractions import Fraction
from typing import Dict, List, Optional

from . import jsonio
from .apartment import (
    ApartmentPoint,
    GroupConfig,
    breakpoints,
    check_level,
    check_point,
    graded_support,
    mp_lattice,
)
from .errors import InfeasibleError, ToolkitError, ValidationError
from .graded import GradedElement, monomials
from .measures import build_measure_table, check_truncation, normalization, relation_slices
from .orbits import minimality_probe, sl2_complete
from .refine import DMPPair, enumerate_and_classify, refine_relation
from .solver import alt_probes_gl2, assemble_and_invert, choose_probes, solve_expansion
from . import selftest as selftest_mod
from .finite_types import FiniteModule, fork_field, verify_fork_identity

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
    """Coefficients as 1-based triples 'i,j,c' separated by ';'; '0' is zero.

    A triple that is not three integers, or a position given twice, is
    rejected input.
    """
    text = text.strip()
    if text in ("", "0"):
        return GradedElement.zero(x, -s)
    coeffs: Dict = {}
    for item in text.split(";"):
        try:
            i, j, c = (int(p) for p in item.split(","))
        except ValueError:
            raise ValidationError(f"bad coefficient triple {item!r}", where="cli") from None
        if (i - 1, j - 1) in coeffs:
            raise ValidationError(f"position ({i},{j}) given twice in --phi", where="cli")
        coeffs[(i - 1, j - 1)] = c
    return GradedElement.make(cfg, x, -s, coeffs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # cached: built once, on the first call rather than at import;
    # parse_args never mutates it and starts each parse from a fresh
    # namespace, so no call leaks into the next
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

    sp = sub.add_parser(
        "lift", parents=[common], help="orbit lift, minimality certificate and triple completion"
    )
    sp.add_argument("--x", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--phi", required=True, help="triples 'i,j,c;...' (1-based), or '0'")
    sp.add_argument(
        "--samples", type=int, default=200,
        help="must be >= 1; no effect on the output (the certificate draws no samples)",
    )
    sp.add_argument(
        "--depth", type=int, default=3,
        help="no effect on the output (the certificate draws no samples)",
    )

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

# JSON types a config field accepts; a bool is never an int here
_CONFIG_TYPES = {
    **dict.fromkeys(("n", "q", "m", "K", "seed", "bound"), int),
    "allow_small_p": bool,
    **dict.fromkeys(("input", "output"), (str, type(None))),
}


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise ValidationError(f"{flag} must be >= 1, got {value}", where="cli")


def _apply_defaults(args: argparse.Namespace) -> None:
    """Fill missing global options: flags > config file > built-ins."""
    merged = dict(_GLOBAL_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        data = _read_json(config_path, "the config file")
        if not isinstance(data, dict):
            raise ValidationError("the config file must hold a JSON object", where="cli")
        bad = set(data) - set(_CONFIG_TYPES)
        if bad:
            raise ValidationError(f"unknown config fields {sorted(bad)}", where="cli")
        for key, value in sorted(data.items()):
            kind = _CONFIG_TYPES[key]
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ValidationError(
                    f"config field {key!r} has the wrong type: {value!r}", where="cli"
                )
        merged.update(data)
    for key, value in merged.items():
        if not hasattr(args, key):
            setattr(args, key, value)


def _read_json(path: str, what: str):
    """The JSON value in the file at `path`; a file that cannot be read or
    parsed is rejected input, named by `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}", where="cli") from exc


def _write_text(path: str, text: str, what: str) -> None:
    """Write `text` to the file at `path`; a path that cannot be written is
    rejected input, named by `what`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} {path!r}: {exc}", where="cli") from exc


def _emit(args, payload: dict) -> None:
    text = jsonio.dump(payload)
    if args.output:
        _write_text(args.output, text, "the --output file")
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
    _require_positive(args.samples, "--samples")
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    check_point(cfg, x, where="cli.lift")
    check_level(cfg, s, where="cli.lift")
    phi = _parse_phi(cfg, x, s, args.phi)
    pair = DMPPair.make(cfg, s, x, phi)
    out = {
        "pair": jsonio.pair_to_json(pair),
        "lift": jsonio.orbit_to_json(pair.lift),
        "minimality_probe": minimality_probe(cfg, pair),
    }
    if cfg.q > 2 * cfg.n:
        triple = sl2_complete(cfg, phi)
        out["sl2"] = {
            "H": _lift_json(cfg, triple.H),
            "E": _lift_json(cfg, triple.E),
        }
    else:
        out["sl2"] = {"skipped": f"q = {cfg.q} <= 2n = {2 * cfg.n}"}
    return out


def _lift_json(cfg, phi: GradedElement) -> List[List[List[List[int]]]]:
    """phi's homogeneous lift: [[w, c]] at each monomial c t^w, [] elsewhere."""
    rows = [[[] for _ in range(cfg.n)] for _ in range(cfg.n)]
    for i, j, w, c in monomials(phi):
        rows[i][j] = [[w, c]]
    return rows


def _cmd_breakpoints(cfg, args) -> dict:
    x0 = _parse_point(cfg, args.x0, flag="--x0")
    x1 = _parse_point(cfg, args.x1, flag="--x1")
    plan = breakpoints(cfg, x0, jsonio.parse_frac(args.s0), x1, jsonio.parse_frac(args.s1))
    return {"plan": plan}


def _cmd_refine(cfg, args) -> dict:
    _require_positive(args.modules, "--modules")
    check_truncation(args.K)  # before the incidence is classified
    y = _parse_point(cfg, args.y, flag="--y")
    tau = jsonio.parse_frac(args.tau)
    check_point(cfg, y, where="cli.refine")
    check_level(cfg, tau, where="cli.refine")
    phi = _parse_phi(cfg, y, tau, args.phi)
    coarse = DMPPair.make(cfg, tau, y, phi)
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    check_point(cfg, x, where="cli.refine")
    check_level(cfg, s, where="cli.refine")
    if args.modules > args.bound:
        raise InfeasibleError(
            f"{args.modules} modules exceed bound {args.bound}", where="cli.refine"
        )
    # classified once, with the cross-check; the relation and the fork
    # identity both read this decomposition
    decomposition = enumerate_and_classify(cfg, coarse, (x, s), bound=args.bound)
    rec = refine_relation(cfg, coarse, (x, s), decomposition=decomposition)
    slices = relation_slices(cfg, rec, args.K, enum_bound=args.bound)
    field = fork_field(cfg)
    rng = random.Random(f"cli-refine:{args.seed}")
    modules = (
        FiniteModule.random(cfg, field, x, s, rng.randrange(1, 7), rng)
        for _ in range(args.modules)
    )
    fork_ok = verify_fork_identity(cfg, modules, decomposition)
    return {
        "record": jsonio.record_to_json(cfg, rec),
        "verification": {
            "measure_slices": {str(o): ok for o, ok in slices.items()},
            "fork_identity": {"modules": args.modules, "all_pass": fork_ok},
        },
    }


def _default_matrix(cfg, args, r, known=()):
    catalog = alt_probes_gl2 if getattr(args, "alt_probes", False) else choose_probes
    table = build_measure_table(cfg, catalog(cfg, r, known), args.K, enum_bound=args.bound)
    return table, assemble_and_invert(cfg, table)


def _cmd_measure(cfg, args) -> dict:
    r = jsonio.parse_frac(args.r)
    table, cm = _default_matrix(cfg, args, r)
    return {
        "table": jsonio.table_to_json(table),
        # written only once assemble_and_invert has checked M A = I exactly
        "independence": True,
        "matrix": jsonio.matrix_to_json(cm),
    }


def _cmd_solve(cfg, args) -> dict:
    check_truncation(args.K)
    if not args.input:
        raise ValidationError("solve requires --input", where="cli.solve")
    # each distinct JSON pair of this job is checked once: the matrix's
    # probes and the rebuilt catalog reuse the vector's pairs
    seen: Dict[str, DMPPair] = {}
    vec = jsonio.mult_vector_from_json(cfg, _read_json(args.input, "the --input file"), seen)
    if args.matrix:
        cm = jsonio.matrix_from_json(cfg, _read_json(args.matrix, "the --matrix file"), seen)
        if cm.normalization != normalization(args.K):
            raise ValidationError(
                f"the --matrix file has normalization {cm.normalization!r}; "
                f"K = {args.K} needs {normalization(args.K)!r}",
                where="cli.solve",
            )
    else:
        _, cm = _default_matrix(cfg, args, vec.r, [p for p, _ in vec.entries])
    if args.save_matrix:
        text = jsonio.dump(jsonio.matrix_to_json(cm))
        _write_text(args.save_matrix, text, "the --save-matrix file")
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
        _require_positive(args.bound, "--bound")
        with warnings.catch_warnings():
            if args.allow_small_p:
                warnings.simplefilter("ignore")
            else:
                warnings.simplefilter("default")

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
