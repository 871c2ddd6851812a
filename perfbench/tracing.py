"""Traced pass: spans recorded from outside the program, per-layer metrics, kernel probes.

Wrappers go on the public functions of each distill_lab module, at every
module attribute that refers to them (``distill_lab.verify.q_functional``,
``distill_lab.distill.partial_trace``, ...), so calls are caught wherever the
program looks the name up.  A span is (id, name, start, end, parent, run id);
spans stay in memory and are written once, after the pass.  A wrapper is
inert while the tracer is inactive, so checks and probes run untraced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

# (layer, defining module, public function)
TARGETS = (
    ("optimize", "distill_lab.optimize", "minimize_q"),
    ("parallel", "distill_lab._parallel", "parallel_map"),
    ("multivar", "distill_lab.multivar", "hessian_spectrum_sweep"),
    ("multivar", "distill_lab.multivar", "hessian_g"),
    ("distill", "distill_lab.distill", "q_functional"),
    ("distill", "distill_lab.distill", "sandwich_evaluator"),
    ("distill", "distill_lab.distill", "check_rank2_inequality"),
    ("distill", "distill_lab.distill", "random_rank_two"),
    ("linalg", "distill_lab.linalg", "partial_trace"),
    ("linalg", "distill_lab.linalg", "kron"),
    ("linalg", "distill_lab.linalg", "permute_subsystems"),
    ("iterate", "distill_lab.iterate", "e_step"),
    ("iterate", "distill_lab.iterate", "certify_iterate"),
    ("schmidt", "distill_lab.schmidt", "max_overlap_oracle"),
    ("states", "distill_lab.states", "beta_bound"),
    ("bundles", "distill_lab.bundles", "write_bundle"),
    ("verify", "distill_lab.verify", "run_suite"),
)

SUITES = ("equivalence", "schmidt", "multivar", "iterate", "lemmas")
MAX_COMMANDS = 7

# Kernel probe points: the dominant (d, n, beta) of each search workload.
PROBES = {"narrow": (3, 2, -0.4), "wide": (2, 6, -0.6)}
PROBE_SAMPLES = 100
PROBE_SEED = 20240228


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``command`` opens a root span."""

    def __init__(self):
        self.spans: list[tuple] = []  # Span fields; tuples keep the wrapper cheap
        self.notes: dict[str, list] = defaultdict(list)  # name -> [(span id, value)]
        self.absent: list[str] = []
        self.active = False
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name, fn, note=None):
        """Wrapper recording one span per call; ``note(bound_args, result)`` adds a value."""
        signature = inspect.signature(fn) if note is not None else None
        record = self.spans.append
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record((sid, name, start, end, parent, self.run))
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.notes[name].append((sid, note(bound.arguments, result)))
            return result

        return wrapper

    def _wrap_parallel_map(self, fn):
        """parallel_map with each task wrapped as a child span of the map call."""

        def parallel_map(task, *args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            traced = self.wrap("parallel.task", task)

            def run_task(index):
                # Worker threads start with an empty stack: hang the task under the map.
                own = self._stack()
                own.append(parent)
                try:
                    return traced(index)
                finally:
                    own.pop()

            return fn(run_task, *args, **kwargs)

        return functools.wraps(fn)(parallel_map)

    def install(self):
        import distill_lab  # noqa: F401  (loads every module the CLI uses)

        notes = {
            "minimize_q": lambda a, r: r,
            "parallel_map": lambda a, r: a.get("threads"),
            "max_overlap_oracle": lambda a, r: int(a["restarts"]),
            "write_bundle": lambda a, r: os.path.getsize(r),
            "run_suite": lambda a, r: a["suite"],
        }
        for layer, module_name, attr in TARGETS:
            name = f"{layer}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            inner = self._wrap_parallel_map(original) if attr == "parallel_map" else original
            wrapper = self.wrap(name, inner, notes.get(attr))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("distill_lab"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextmanager
    def command(self, index: int):
        """Root span of one CLI command; the tracer records only inside it."""
        self.run = index
        self.active = True
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.active = False
            self.spans.append((sid, f"cli.command.{index}", start, end, None, index))

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")
        os.replace(tmp, path)


# name -> (unit, better); every traced run reports each of these.
PER_LAYER = {
    "optimize.minimize_q.busy_s": ("s", "lower"),
    "optimize.restarts": ("count", "higher"),
    "optimize.iters": ("count", "lower"),
    "optimize.iters_p50": ("count", "lower"),
    "optimize.iters_max": ("count", "lower"),
    "optimize.restart_s": ("s", "lower"),
    "optimize.iter_us": ("us", "lower"),
    "optimize.restarts_at_cap": ("count", "lower"),
    "optimize.converged_frac": ("ratio", "higher"),
    **{
        f"{metric}.{label}.{q}": ("ms", "lower")
        for label in PROBES
        for metric in ("optimize.grad_q_ms", "distill.q_functional_probe_ms")
        for q in ("p50", "p90")
    },
    **{f"optimize.{size}.{label}.computed": ("count", "lower") for label in PROBES for size in ("subsets", "side")},
    "probe.samples": ("count", "higher"),
    "parallel.parallel_map.calls": ("count", "lower"),
    "parallel.busy_s": ("s", "lower"),
    "parallel.task_s_sum": ("s", "lower"),
    "parallel.threads": ("count", "lower"),
    "multivar.hessian_spectrum_sweep.busy_s": ("s", "lower"),
    "multivar.hessian_g.calls": ("count", "lower"),
    "multivar.hessian_g_us.p50": ("us", "lower"),
    "multivar.hessian_g_us.p99": ("us", "lower"),
    "distill.q_functional.calls": ("count", "lower"),
    "distill.q_functional_us.p50": ("us", "lower"),
    "distill.q_functional_us.p99": ("us", "lower"),
    "distill.sandwich_evaluator.busy_s": ("s", "lower"),
    "distill.check_rank2_inequality.busy_s": ("s", "lower"),
    "distill.random_rank_two.busy_s": ("s", "lower"),
    "linalg.partial_trace.calls": ("count", "lower"),
    "linalg.partial_trace.busy_s": ("s", "lower"),
    "linalg.kron.busy_s": ("s", "lower"),
    "linalg.permute_subsystems.busy_s": ("s", "lower"),
    "iterate.e_step.busy_s": ("s", "lower"),
    "iterate.e_step.self_s": ("s", "lower"),
    "iterate.certify_iterate.busy_s": ("s", "lower"),
    "schmidt.max_overlap_oracle.busy_s": ("s", "lower"),
    "schmidt.max_overlap_oracle.restarts": ("count", "higher"),
    "states.beta_bound.busy_s": ("s", "lower"),
    "bundles.write_bundle.calls": ("count", "lower"),
    "bundles.bytes_written": ("B", "lower"),
    **{f"verify.suite_s.{suite}": ("s", "lower") for suite in SUITES},
    **{f"cli.command_s.{i}": ("s", "lower") for i in range(MAX_COMMANDS)},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.absent": ("count", "lower"),
}


def quantile(values, q: int) -> float:
    """q-th percentile (1..99) by ``statistics.quantiles``; 0 with no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the probes and the overhead."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in map(Span._make, tracer.spans):
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def us(name):
        return [s.duration * 1e6 for s in by_name[name]]

    reports = [r for _, r in tracer.notes["optimize.minimize_q"]]
    iters = [rec.iterations for r in reports for rec in r.per_restart]
    at_cap = sum(rec.iterations >= r.config.max_iters for r in reports for rec in r.per_restart)
    minimize_ids = {s.id for s in by_name["optimize.minimize_q"]}
    map_under_minimize = {s.id for s in by_name["parallel.parallel_map"] if s.parent in minimize_ids}
    restart_s = [s.duration for s in by_name["parallel.task"] if s.parent in map_under_minimize]
    minimize_busy = busy("optimize.minimize_q")
    if not restart_s and iters:  # no pool layer: spread the search time evenly
        restart_s = [minimize_busy / len(iters)]
    suite_spans = {s.id: s for s in by_name["verify.run_suite"]}
    suites = defaultdict(float)
    for sid, suite in tracer.notes["verify.run_suite"]:
        suites[suite] += suite_spans[sid].duration
    threads = [t for _, t in tracer.notes["parallel.parallel_map"] if t is not None]
    return {
        "optimize.minimize_q.busy_s": minimize_busy,
        "optimize.restarts": len(iters),
        "optimize.iters": sum(iters),
        "optimize.iters_p50": quantile(iters, 50),
        "optimize.iters_max": max(iters, default=0),
        "optimize.restart_s": quantile(restart_s, 50),
        "optimize.iter_us": minimize_busy / sum(iters) * 1e6 if sum(iters) else 0.0,
        "optimize.restarts_at_cap": at_cap,
        "optimize.converged_frac": (len(iters) - at_cap) / len(iters) if iters else 0.0,
        "parallel.parallel_map.calls": calls("parallel.parallel_map"),
        "parallel.busy_s": busy("parallel.parallel_map"),
        "parallel.task_s_sum": busy("parallel.task"),
        "parallel.threads": max(threads, default=0),
        "multivar.hessian_spectrum_sweep.busy_s": busy("multivar.hessian_spectrum_sweep"),
        "multivar.hessian_g.calls": calls("multivar.hessian_g"),
        "multivar.hessian_g_us.p50": quantile(us("multivar.hessian_g"), 50),
        "multivar.hessian_g_us.p99": quantile(us("multivar.hessian_g"), 99),
        "distill.q_functional.calls": calls("distill.q_functional"),
        "distill.q_functional_us.p50": quantile(us("distill.q_functional"), 50),
        "distill.q_functional_us.p99": quantile(us("distill.q_functional"), 99),
        "distill.sandwich_evaluator.busy_s": busy("distill.sandwich_evaluator"),
        "distill.check_rank2_inequality.busy_s": busy("distill.check_rank2_inequality"),
        "distill.random_rank_two.busy_s": busy("distill.random_rank_two"),
        "linalg.partial_trace.calls": calls("linalg.partial_trace"),
        "linalg.partial_trace.busy_s": busy("linalg.partial_trace"),
        "linalg.kron.busy_s": busy("linalg.kron"),
        "linalg.permute_subsystems.busy_s": busy("linalg.permute_subsystems"),
        "iterate.e_step.busy_s": busy("iterate.e_step"),
        "iterate.e_step.self_s": sum(self_time(s, children[s.id]) for s in by_name["iterate.e_step"]),
        "iterate.certify_iterate.busy_s": busy("iterate.certify_iterate"),
        "schmidt.max_overlap_oracle.busy_s": busy("schmidt.max_overlap_oracle"),
        "schmidt.max_overlap_oracle.restarts": sum(r for _, r in tracer.notes["schmidt.max_overlap_oracle"]),
        "states.beta_bound.busy_s": busy("states.beta_bound"),
        "bundles.write_bundle.calls": calls("bundles.write_bundle"),
        "bundles.bytes_written": sum(b for _, b in tracer.notes["bundles.write_bundle"]),
        **{f"verify.suite_s.{suite}": suites[suite] for suite in SUITES},
        **{f"cli.command_s.{i}": busy(f"cli.command.{i}") for i in range(MAX_COMMANDS)},
        "trace.spans": len(tracer.spans),
    }


def layer_calls(tracer: Tracer) -> dict[str, int]:
    """Spans recorded per layer, for ``cli`` and each layer with a wrapped function."""
    present = {layer for layer, _module, attr in TARGETS if f"{layer}.{attr}" not in tracer.absent}
    counts = dict.fromkeys(present | {"cli"}, 0)
    for s in tracer.spans:
        layer = s[1].split(".", 1)[0]
        if layer in counts:
            counts[layer] += 1
    return counts


def probe_metrics() -> tuple[dict[str, float], list[str]]:
    """Kernel probes: grad_q and q_functional timed alone on fixed seeded points.

    Returns the metrics and the probed functions found absent.
    """
    import numpy as np
    from distill_lab.distill import q_functional, random_rank_two

    try:
        from distill_lab.optimize import grad_q
    except ImportError:
        grad_q = None
    out = {"probe.samples": PROBE_SAMPLES}
    for label, (d, n, beta) in PROBES.items():
        rng = np.random.default_rng((PROBE_SEED, d, n))
        grad_ms, value_ms = [], []
        for _ in range(PROBE_SAMPLES):
            point = random_rank_two(rng, d**n)
            x = point.to_matrix((d,) * n)
            if grad_q is not None:
                start = time.perf_counter()
                grad_q(point, d, n, beta)
                grad_ms.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            q_functional(x, beta)
            value_ms.append((time.perf_counter() - start) * 1e3)
        for q in (50, 90):
            out[f"optimize.grad_q_ms.{label}.p{q}"] = quantile(grad_ms, q)
            out[f"distill.q_functional_probe_ms.{label}.p{q}"] = quantile(value_ms, q)
        # Sizes computed from the probe point's shapes, not measured.
        out[f"optimize.side.{label}.computed"] = point.u1.shape[0]
        out[f"optimize.subsets.{label}.computed"] = 2 ** len(x.row_dims)
    return out, ([] if grad_q is not None else ["optimize.grad_q"])
