"""distill-lab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload search-narrow --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The commands of a workload go through ``distill_lab.cli.main`` in
this process, one after another (a closed loop with one client), with the
program's default thread count.  A run repeats the command list in passes,
each with its own derived seeds, until ``--seconds`` have passed and the
workload's minimum pass count is met, and reports medians over passes.
``--trace 1`` instead runs the first pass untraced and again traced, and
reports per-layer metrics, kernel probes and the tracing overhead.

The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the machine facts and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, check_command, command_seed

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 7

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "restarts_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

THREAD_ENV = (
    "DISTILL_LAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Child process for setup_s: interpreter start, imports, and input generation.
SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import numpy, distill_lab.cli
from workloads import WORKLOADS, command_seed
w = WORKLOADS[sys.argv[2]]
[c.argv(command_seed(w.name, int(sys.argv[3]), 0, i), Path(".")) for i, c in enumerate(w.commands)]
print("ready", flush=True)
"""


class Digests:
    """SHA-256 of every CSV a command writes, kept across runs in this checkout.

    Keyed by source hash and the command line (seed included, output
    directory not): the first run of a command records, later ones must
    write identical bytes.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, file: Path) -> list[str]:
        if file.suffix != ".csv" or not file.exists():
            return []
        digest = hashlib.sha256(file.read_bytes()).hexdigest()
        key = f"{self.source}/{key}"
        previous = self.known.setdefault(key, digest)
        return [] if previous == digest else [f"{file.name} differs from an earlier run of the same seed"]

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy as np
    from distill_lab import cli

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    resolve = getattr(cli, "_resolve_threads", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "pool_threads": resolve(None) if resolve else None,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, summed over CPUs (Linux /proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Times from spawning a fresh interpreter to its ready line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup child failed with exit code {child.returncode}")
    return samples


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """distill_lab.cli.main in this process, stdout and stderr captured."""
    from distill_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a dead run
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    """Timing and failures of one pass over a workload's command list."""

    wall: float = 0.0
    cpu: float = 0.0
    command_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_pass(workload, seed: int, index: int, pass_dir: Path, digests: Digests, tracer=None) -> Pass:
    result = Pass()
    pass_dir.mkdir(parents=True)
    for position, cmd in enumerate(workload.commands):
        cmd_seed = command_seed(workload.name, seed, index, position)
        argv = cmd.argv(cmd_seed, pass_dir)
        span = tracer.command(position) if tracer is not None else contextlib.nullcontext()
        cpu0 = os.times()
        start = time.perf_counter()
        with span:
            rc, stdout, stderr = run_command(argv)
        elapsed = time.perf_counter() - start
        cpu1 = os.times()
        result.wall += elapsed
        result.cpu += (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        result.command_s.append(elapsed)
        problems = check_command(cmd, rc, stdout, pass_dir, cmd_seed)
        if cmd.out is not None:
            problems += digests.check(" ".join(cmd.argv(cmd_seed, Path("."))), pass_dir / cmd.out)
        result.attempted += 1
        if problems:
            result.failed += 1
            tail = stderr.strip().splitlines()[-1:] or [""]
            result.problems.append(f"{' '.join(argv)}: {'; '.join(problems)} {tail[0]}".strip())
    return result


def timed_run(workload, seed: int, seconds: float, work: Path, digests: Digests):
    setup = setup_seconds(workload.name, seed)
    passes = []
    steal0 = steal_seconds()
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, len(passes), work / f"pass{len(passes)}", digests))
    steal1 = steal_seconds()
    restarts = sum(c.restarts for c in workload.commands)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "restarts_per_s": statistics.median(restarts / p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    stolen = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    return metrics, END_TO_END, passes, {"passes": len(passes), "setup_samples": setup, "steal_s": stolen}


def traced_run(workload, seed: int, work: Path, digests: Digests):
    import tracing

    plain = run_pass(workload, seed, 0, work / "plain", digests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, 0, work / "traced", digests, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    probes, probe_absent = tracing.probe_metrics()
    metrics.update(probes)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    absent = tracer.absent + probe_absent
    metrics["trace.absent"] = len(absent)

    calls = tracing.layer_calls(tracer)
    checks = [(f"layer {layer} recorded no calls", calls[layer] == 0)
              for layer in workload.layers if layer in calls]
    # restarts_per_s rests on the declared restart counts; hold them to the trace.
    counted = metrics["optimize.restarts"] + metrics["schmidt.max_overlap_oracle.restarts"]
    expected = sum(c.restarts for c in workload.commands)
    if not {"optimize.minimize_q", "schmidt.max_overlap_oracle"} & set(absent):
        checks.append((f"traced {counted} restarts, the workload declares {expected}", counted != expected))
    for message, failed in checks:
        traced.attempted += 1
        if failed:
            traced.failed += 1
            traced.problems.append(message)
    spans_file = STATE / "spans" / f"{workload.name}.tsv"
    tracer.write(spans_file)
    extra = {
        "absent": absent,
        "layer_calls": calls,
        "untraced_wall_s": plain.wall,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, tracing.PER_LAYER, [plain, traced], extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("DISTILL_LAB_THREADS") is not None:
        print("error: DISTILL_LAB_THREADS is set; the benchmark runs the default thread count",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import distill_lab.cli
    except ImportError as exc:
        print(f"error: cannot import distill_lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(distill_lab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: distill_lab comes from {distill_lab.cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    digests = Digests(STATE / "csv-digests.json", source_hash())
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        if args.trace:
            metrics, spec, passes, extra = traced_run(workload, args.seed, work, digests)
        else:
            metrics, spec, passes, extra = timed_run(workload, args.seed, args.seconds, work, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests.save()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "fail_frac": failed / attempted,
        "command_s": [p.command_s for p in passes],
        "problems": problems,
        "facts": machine_facts(),
        **extra,
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, (unit, _) in spec.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
