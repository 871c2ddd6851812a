"""Benchmark workloads: the distill-lab command lists and the checks on their outputs.

Every command's ``--seed`` derives from the workload seed, the pass index and
the command's position, so one workload seed fixes every input of a run.
Each check is a second route to the command's claim; a command fails when its
exit code differs from the expected one or when any check rejects its output.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

VALUE_TOL = 1e-9
WITNESS_TOL = 1e-8
ITERATE_TOL = -1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv template, expected exit code, restarts it runs."""

    kind: str
    args: tuple[str, ...]
    expect: int = 0
    restarts: int = 0
    out: str | None = None  # file name of the --out target, inside the pass directory

    def argv(self, seed: int, pass_dir: Path) -> list[str]:
        argv = [self.kind, *self.args, "--seed", str(seed)]
        if self.out is not None:
            argv += ["--out", str(pass_dir / self.out)]
        if self.kind in ("verify", "hessian", "iterate"):
            argv += ["--bundle-dir", str(pass_dir)]
        return argv

    def flag(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Passes with distinct seeds whose median is reported; more for workloads
    # whose work varies with the seed.
    min_passes: int
    # Layers whose public functions must record calls in a traced pass.
    layers: tuple[str, ...]


# Every search restart is capped (--max-iters) where the default of 2000 lets
# a rare restart run far longer than the rest: those restarts set the
# run-to-run spread.  sweep has no cap flag, so it runs only beta = -0.6, where
# restarts converge within 75 iterations; the rest of its grid runs as capped
# minimize commands.  The wide search sits at beta = -0.6, where every restart
# descends below the product witness within 25 iterations and then runs to
# the cap, so its work is the same for every seed.
NARROW_CAP = ("--max-iters", "300")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-narrow",
            (
                Command("minimize", ("--d", "2", "--n", "2", "--beta", "-0.25", *NARROW_CAP),
                        restarts=20, out="min-2-2.json"),
                Command("minimize", ("--d", "3", "--n", "1", "--beta", "-0.6", *NARROW_CAP),
                        expect=3, restarts=20, out="min-3-1.json"),
                Command("sweep", ("--d", "3", "--n", "2", "--beta-grid=-0.6"), restarts=20, out="sweep.csv"),
                *(
                    Command("minimize", ("--d", "3", "--n", "2", "--beta", beta, *NARROW_CAP),
                            restarts=20, out=f"min-3-2{beta}.json")
                    for beta in ("-0.5", "-0.4", "-0.3", "-0.2")
                ),
            ),
            min_passes=2,
            layers=("cli", "optimize", "parallel", "bundles"),
        ),
        Workload(
            "search-wide",
            (
                Command("minimize", ("--d", "2", "--n", "6", "--beta", "-0.6", "--restarts", "4",
                                     "--max-iters", "250"),
                        expect=3, restarts=4, out="min-2-6.json"),
            ),
            min_passes=1,
            layers=("cli", "optimize", "parallel", "bundles"),
        ),
        Workload(
            "doubling",
            (
                Command("iterate", ("--d", "7", "--k", "1", "--beta", "-0.25"), restarts=20),
                Command("iterate", ("--d", "2", "--k", "2", "--beta", "-0.25"), restarts=20),
            ),
            min_passes=1,
            layers=("cli", "iterate", "linalg", "optimize", "parallel"),
        ),
        Workload(
            "oracles",
            (
                # restarts: the Schmidt ascent oracle's random restarts
                # (30 calls x 20 in the schmidt suite, 3 x 20 in lemmas).
                Command("verify", ("--suite", "lemmas"), restarts=60),
                Command("verify", ("--suite", "equivalence")),
                Command("verify", ("--suite", "schmidt"), restarts=600),
                Command("verify", ("--suite", "multivar")),
                Command("hessian", ("--d", "4", "--samples", "4000"), out="hessian.csv"),
            ),
            min_passes=1,
            layers=("cli", "verify", "distill", "linalg", "multivar", "schmidt", "states", "parallel"),
        ),
    )
}


def command_seed(workload: str, seed: int, pass_index: int, position: int) -> int:
    """32-bit command seed; any change of the four inputs changes it."""
    key = f"{workload}/{seed}/{pass_index}/{position}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def witness_value(beta: float, n: int) -> float:
    """Functional value of the product witness, an upper bound on the minimum."""
    return (1.0 + 2.0 * beta) * (1.0 + beta) ** (n - 1)


def check_command(cmd: Command, rc: int, stdout: str, pass_dir: Path, seed: int) -> list[str]:
    """Problems found in one command's exit code and outputs; empty when all hold."""
    problems = []
    if rc != cmd.expect:
        problems.append(f"exit code {rc}, expected {cmd.expect}")
    try:
        problems += CHECKS[cmd.kind](cmd, rc, stdout, pass_dir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems


def _check_minimize(cmd, rc, stdout, pass_dir, seed):
    import numpy as np
    from distill_lab.bundles import read_bundle
    from distill_lab.distill import q_functional
    from distill_lab.optimize import report_from_json

    data = json.loads((pass_dir / cmd.out).read_text())
    report = report_from_json(data["report"])
    cfg = report.config
    point = report.best_point
    problems = []
    recomputed = q_functional(point.to_matrix(cfg.dims), cfg.beta)
    if not abs(recomputed - report.best_value) <= VALUE_TOL:
        problems.append(f"best value {report.best_value!r} re-evaluates to {recomputed!r}")
    bound = witness_value(cfg.beta, cfg.n) + WITNESS_TOL
    if not report.best_value <= bound:
        problems.append(f"best value {report.best_value!r} above the witness bound {bound!r}")
    if rc == 3:
        bundle = read_bundle(pass_dir / f"violation-d{cfg.d}-n{cfg.n}-{seed}.bundle")
        expected = {
            "d": cfg.d, "n": cfg.n, "beta": cfg.beta, "seed": cfg.seed,
            "best_value": report.best_value, "sigma1": point.sigma1, "sigma2": point.sigma2,
        }
        vectors = {"u1": point.u1, "v1": point.v1, "u2": point.u2, "v2": point.v2}
        if bundle.params != expected or set(bundle.vectors) != set(vectors) or not all(
            np.array_equal(bundle.vectors[k], v) for k, v in vectors.items()
        ):
            problems.append("violation bundle does not read back bit-exactly")
    return problems


def _check_sweep(cmd, rc, stdout, pass_dir, seed):
    n = int(cmd.flag("--n"))
    rows = _csv_rows(pass_dir / cmd.out)
    grid = next(a for a in cmd.args if a.startswith("--beta-grid=")).split("=", 1)[1].split(",")
    problems = [] if len(rows) == len(grid) else [f"{len(rows)} sweep rows for {len(grid)} betas"]
    for beta, value in rows:
        bound = witness_value(float(beta), n) + WITNESS_TOL
        if not float(value) <= bound:
            problems.append(f"sweep value {value} at beta {beta} above the witness bound {bound!r}")
    return problems


def _check_iterate(cmd, rc, stdout, pass_dir, seed):
    found = re.findall(r"min quadratic form = (\S+)", stdout)
    if len(found) != 1:
        return ["no minimum printed"]
    value = float(found[0])
    return [] if value >= ITERATE_TOL else [f"minimum {value!r} below {ITERATE_TOL}"]


def _check_hessian(cmd, rc, stdout, pass_dir, seed):
    rows = _csv_rows(pass_dir / cmd.out)
    samples = int(cmd.flag("--samples"))
    if len(rows) != samples:
        return [f"{len(rows)} hessian rows, expected {samples}"]
    if not all(math.isfinite(float(r[-1])) for r in rows):
        return ["non-finite hessian eigenvalue"]
    return []


def _check_verify(cmd, rc, stdout, pass_dir, seed):
    found = re.findall(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    if len(found) != 1 or found[0][0] != found[0][1] or found[0][1] == "0":
        return [f"suite summary is {found!r}, expected N/N checks passed"]
    return []


def _csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV: skips the header comment and the column line."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


CHECKS = {
    "minimize": _check_minimize,
    "sweep": _check_sweep,
    "iterate": _check_iterate,
    "hessian": _check_hessian,
    "verify": _check_verify,
}
