"""Command-line front end: every experiment behind one reproducible entry point.

All file outputs start with a header carrying the version, subcommand, flags,
and seed, so an artifact is self-describing.  Every subcommand is
deterministic given its flags and seed (the single exception is the recorded
wall time inside minimize reports).  Exit codes: 0 success, 1 a verify
check failed, 2 usage or configuration error, 3 an inequality-violation
witness was found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bundles import write_bundle
from .errors import DistillLabError
from .iterate import certify_config, certify_iterate, e_step, initial_iterate, witness_bundle_path
from .multivar import hessian_spectrum_sweep, nonconvexity_demo
from .optimize import (
    DEFAULT_SEED,
    SearchConfig,
    minimize_q,
    report_from_json,
    report_to_json,
)
from .distill import CERTIFY_TOL, q_functional
from .states import WernerParams, beta_bound
from .verify import SUITES, CheckResult, run_suite

# Materialize iterate density matrices only up to this per-side size; beyond
# it certification still runs through the factored search.
ITERATE_MATERIALIZE_CAP = 4096


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except DistillLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _fix_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds: mmap above 4 MiB, trim above 64 MiB.

    Under the default dynamic ones, whether the heap top that a search step's
    stacks just freed goes back to the kernel depends on the memory layout;
    when it does, every step page-faults anew (about 28,000 minor faults per
    side-64 `minimize` pass, against 20).  A no-op without glibc.
    """
    with contextlib.suppress(OSError, AttributeError, TypeError):
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distill-lab",
        description="Numerical experiments on copy-count undistillability functionals.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("bound", help="table of copy-count root bounds")
    p.add_argument("--n", type=int, required=True, help="largest copy count (1..64)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("minimize", help="random-restart minimization of the subset-sum functional")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--grad-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("sweep", help="minimize across a grid of beta values")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-grid", type=str, required=True, help="comma-separated betas in [-1, 0]")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.add_argument("--suite", choices=("all", *SUITES, "report"), default="all")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--in", dest="infile", type=Path, default=None, help="report file for --suite report")
    p.add_argument("--bundle-dir", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hessian", help="spectrum sweep of the critical-point Hessian")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--beta", type=float, default=-0.5)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--bundle-dir", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_hessian)

    p = sub.add_parser("iterate", help="copy-doubling pipeline with certification")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="number of doubling steps")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--bundle-dir", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("demo-nonconvexity", help="midpoint gradient of two flat minima")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--beta", type=float, default=-0.5)
    p.set_defaults(func=_cmd_demo_nonconvexity)

    return parser


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _cmd_bound(args) -> int:
    if not 1 <= args.n <= 64:
        raise DistillLabError(f"--n must lie in 1..64, got {args.n}")
    rows = []
    for n in range(1, args.n + 1):
        root = beta_bound(n, args.tol)
        residual = abs(1.0 + (1.0 + root) ** n - (1.0 - root) ** n)
        rows.append((n, root, residual))
    header = _header("bound", {"n": args.n, "tol": args.tol}, seed=None)
    if args.format == "json":
        payload = {
            "header": header,
            "rows": [{"n": n, "beta0": b, "residual": r} for n, b, r in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [_header_line(header), "n,beta0,residual"]
        lines += [f"{n},{_fmt(b)},{_fmt(r)}" for n, b, r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_minimize(args) -> int:
    cfg = SearchConfig(
        d=args.d,
        n=args.n,
        beta=args.beta,
        restarts=args.restarts,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        seed=args.seed,
    )
    report = minimize_q(cfg)
    flags = asdict(cfg)
    del flags["seed"]
    header = _header("minimize", flags, seed=cfg.seed)
    if args.out is not None:
        payload = {"header": header, "report": report_to_json(report)}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.out}")
    print(f"best_value = {_fmt(report.best_value)}")
    if report.best_value < -CERTIFY_TOL:
        bundle = report.best_point.to_bundle(
            "minimize-violation", d=cfg.d, n=cfg.n, beta=cfg.beta, seed=cfg.seed, best_value=report.best_value
        )
        target_dir = args.out.parent if args.out is not None else Path(".")
        path = write_bundle(bundle, target_dir / f"violation-d{cfg.d}-n{cfg.n}-{cfg.seed}.bundle")
        print(f"negative minimum found; witness bundle: {path}")
        return 3
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = [float(tok) for tok in args.beta_grid.split(",") if tok.strip()]
    except ValueError:
        raise DistillLabError(f"cannot parse --beta-grid {args.beta_grid!r}") from None
    if not grid:
        raise DistillLabError("--beta-grid is empty")
    if any(not -1.0 <= b <= 0.0 for b in grid):
        raise DistillLabError("every grid value must lie in [-1, 0]")
    rows = []
    for beta in sorted(grid):
        cfg = SearchConfig(d=args.d, n=args.n, beta=beta, restarts=args.restarts, seed=args.seed)
        report = minimize_q(cfg)
        rows.append((beta, report.best_value))
    header = _header(
        "sweep",
        {"d": args.d, "n": args.n, "beta_grid": args.beta_grid, "restarts": args.restarts},
        seed=args.seed,
    )
    lines = [_header_line(header), "beta,best_value"]
    lines += [f"{_fmt(beta)},{_fmt(val)}" for beta, val in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "report":
        if args.infile is None:
            raise DistillLabError("--suite report requires --in <file>")
        results = _verify_report(args.infile)
    else:
        results = run_suite(args.suite, seed=args.seed, bundle_dir=args.bundle_dir)
    failed = 0
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _verify_report(path: Path) -> list[CheckResult]:
    try:
        data = json.loads(path.read_text())
        report = report_from_json(data.get("report", data))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DistillLabError(f"cannot load report {path}: {type(exc).__name__}: {exc}") from exc
    cfg = report.config
    point = report.best_point
    recomputed = q_functional(point.to_matrix(cfg.dims), cfg.beta)
    return [
        CheckResult(
            "value-reproduces",
            abs(recomputed - report.best_value) < 1e-9,
            f"recomputed {_fmt(recomputed)} vs stored {_fmt(report.best_value)}",
        ),
        CheckResult(
            "best-matches-restarts",
            abs(min(r.final_value for r in report.per_restart) - report.best_value) < 1e-12,
            "best_value equals the minimum over per-restart values",
        ),
    ]


def _cmd_hessian(args) -> int:
    rows = hessian_spectrum_sweep(
        args.d, args.samples, args.seed, beta=args.beta, bundle_dir=args.bundle_dir
    )
    header = _header(
        "hessian", {"d": args.d, "samples": args.samples, "beta": args.beta}, seed=args.seed
    )
    lines = [_header_line(header), "point_id,seed,d,beta,min_eigenvalue"]
    lines += [
        f"{r.point_id},{r.seed},{args.d},{_fmt(args.beta)},{_fmt(r.min_eigenvalue)}" for r in rows
    ]
    global_min = min(r.min_eigenvalue for r in rows)
    lines.append(f"# summary global_min_eigenvalue={_fmt(global_min)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_iterate(args) -> int:
    params = WernerParams(args.d, args.beta)
    # Validate the search settings before the materialized steps spend time and memory.
    cfg = certify_config(params, args.k, args.restarts, args.seed)
    side = cfg.side**2
    if side <= ITERATE_MATERIALIZE_CAP:
        state = initial_iterate(params)
        for j in range(args.k):
            state = e_step(state)
            print(f"step {j + 1}: side {state.matrix.rows}, trace {_fmt(float(np.trace(state.matrix.data).real))}")
    else:
        print(f"side {side} too large to materialize; certifying through the factored search")
    min_value, _point, witness = certify_iterate(
        params, args.k, restarts=args.restarts, seed=args.seed, bundle_dir=args.bundle_dir
    )
    print(f"k={args.k} ({cfg.n} copies): min quadratic form = {_fmt(min_value)}")
    if witness:
        path = witness_bundle_path(args.bundle_dir, args.k, args.seed)
        print(
            "distillation witness found (state not undistillable at this copy count);"
            f" witness bundle: {path}"
        )
        return 3
    print("no violation found at this copy count")
    return 0


def _cmd_demo_nonconvexity(args) -> int:
    grad, cosine, (end1, end2) = nonconvexity_demo(args.d, beta=args.beta)
    print(f"midpoint gradient norm = {_fmt(float(np.linalg.norm(grad)))}")
    print(f"cosine to sparse pattern = {_fmt(cosine)}")
    print(f"endpoint gradient maxima = {_fmt(end1)}, {_fmt(end2)}")
    return 0


def _header(subcommand: str, flags: dict, seed) -> dict:
    out = {"version": __version__, "subcommand": subcommand, "flags": flags}
    if seed is not None:
        out["seed"] = seed
    return out


def _header_line(header: dict) -> str:
    parts = [f"# distill-lab v{header['version']}", f"subcommand={header['subcommand']}"]
    parts += [f"{k}={v}" for k, v in header["flags"].items()]
    if "seed" in header:
        parts.append(f"seed={header['seed']}")
    return " ".join(parts)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit(text: str, out: Path | None):
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"written to {out}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
