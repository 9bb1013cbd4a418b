"""In-memory spans around calls into torusnls, and the arithmetic on them.

The probes wrap module and class attributes that the CLI calls through, so
no file of the package changes.  Each span records a name, its start and end
on the wall clock and on the calling thread's CPU clock, its parent span, the
thread, and the run id.  Spans stay in a list until the run ends; then
`layer_figures` reduces them to per-layer sums and counts.

Self time is measured on the thread CPU clock.  On a single-threaded run it
equals wall time within a percent; in the sweep's thread pool it charges each
point only for the time its thread ran, not for the time it waited for the
interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("cli", "integrator", "diagnostics", "spectral", "transforms", "stability")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    thread: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    info: dict | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Collects spans from every thread of one run.

    A span opened on a thread with no open span of its own (a worker of the
    sweep pool) takes as parent the innermost span open on the thread that
    created the tracer.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None):
        """Return fn wrapped so each call records a span named name.

        annotate(args, kwargs, result) may return a dict kept on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            sid = next(self._ids)
            stack.append(sid)
            info = None
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    info = annotate(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                self.spans.append(Span(sid, name, parent, self.run_id,
                                       threading.get_ident(), t0, t1, cpu0, cpu1, info))

        return traced


class SetupDone(BaseException):
    """Raised at the first main-loop call when only set-up is being timed."""


class FirstCall:
    """Records time.monotonic() at the first call through any wrapped attribute.

    With stop set, that first call raises SetupDone instead of running.
    """

    def __init__(self, stop: bool = False):
        self.at: float | None = None
        self.stop = stop

    def wrap(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
                if self.stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        return marked


def _steps(args, kwargs, result):
    return {"steps": int(kwargs["n_steps"] if "n_steps" in kwargs else args[3])}


def _resonance(args, kwargs, result):
    return {"vectors": int(result.n_vectors), "early_exit": result.n_violations > 0}


# (owner, attribute, span name, annotation): the owner is the module or
# class whose attribute the caller looks up, the span is named after the
# module that implements the function.
PROBES = (
    ("torusnls.cli", "random_initial_datum", "cli.random_initial_datum", None),
    ("torusnls.cli", "_check_payload", "cli.check_point", None),
    ("torusnls.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("torusnls.cli", "integrate", "integrator.integrate", _steps),
    ("torusnls.cli", "check_assumption1", "stability.check_assumption1", None),
    ("torusnls.cli", "build_frequency_table", "stability.build_frequency_table", None),
    ("torusnls.cli", "check_assumption2", "stability.check_assumption2", _resonance),
    ("torusnls.cli", "detect_instability", "diagnostics.detect_instability", None),
    ("torusnls.cli", "emit", "diagnostics.emit", None),
    ("torusnls.diagnostics", "build_diagonalizers", "transforms.build_diagonalizers", None),
    ("torusnls.diagnostics:TrajectoryRecorder", "__call__", "diagnostics.observe", None),
    ("torusnls.diagnostics:TrajectoryRecorder", "finalize", "diagnostics.finalize", None),
    ("torusnls.diagnostics", "project_away", "spectral.project_away", None),
    ("torusnls.diagnostics", "sobolev_norm", "spectral.sobolev_norm", None),
    ("torusnls.diagnostics", "u_to_xi", "transforms.u_to_xi", None),
    ("torusnls.diagnostics", "super_actions", "diagnostics.super_actions", None),
    ("torusnls.diagnostics", "weighted_deviation", "diagnostics.weighted_deviation", None),
    ("torusnls.spectral:SpectralField", "mass", "spectral.mass", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer) -> list[str]:
    """Wrap every probe in PROBES; return the names whose attribute is missing."""
    missing = []
    for owner_path, attr, name, annotate in PROBES:
        owner = _owner(owner_path)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(name)
            continue
        setattr(owner, attr, tracer.wrap(name, fn, annotate))
    return missing


def mark_main_loop(marker: FirstCall, names) -> list[str]:
    """Wrap torusnls.cli attributes so the first call into any of them is timed."""
    cli = importlib.import_module("torusnls.cli")
    missing = []
    for attr in names:
        fn = getattr(cli, attr, None)
        if fn is None:
            missing.append(attr)
            continue
        setattr(cli, attr, marker.wrap(fn))
    return missing


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's thread-CPU time minus the part its children on the same
    thread cover.

    Children on other threads ran on their own thread's clock, so they are
    not subtracted.
    """
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    out = {}
    for s in spans:
        lo, hi = s.cpu_start, s.cpu_end
        inner = [(c.cpu_start, c.cpu_end) for c in kids[s.id] if c.thread == s.thread]
        out[s.id] = (hi - lo) - covered_length(inner, lo, hi)
    return out


def layer_figures(spans) -> dict:
    """Reduce one run's spans to the sums and counts the per-layer metrics need.

    Times are thread-CPU seconds summed over calls.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    fig: dict = {f"{m}.self_s": 0.0 for m in MODULES}
    fig.update({f"{m}.calls": 0 for m in MODULES})
    steps = vectors = n_early = n_full = 0
    early_s = full_s = 0.0
    for s in spans:
        total[s.name] += s.cpu
        calls[s.name] += 1
        if s.module in MODULES:
            fig[f"{s.module}.self_s"] += own[s.id]
            fig[f"{s.module}.calls"] += 1
        if s.name == "integrator.integrate":
            steps += s.info["steps"]
        elif s.name == "stability.check_assumption2":
            vectors += s.info["vectors"]
            if s.info["early_exit"]:
                early_s += s.cpu
                n_early += 1
            else:
                full_s += s.cpu
                n_full += 1
    step_self = sum(own[s.id] for s in spans if s.name == "integrator.integrate")
    sweep_wall = sum(s.end - s.start for s in spans if s.name == "cli.cmd_sweep")
    fig.update({
        "steps": steps,
        "step_self_s": step_self,
        "samples": calls["diagnostics.observe"],
        "observe_s": total["diagnostics.observe"],
        "mass_s": total["spectral.mass"],
        "orbital_s": total["spectral.project_away"] + total["spectral.sobolev_norm"],
        "u_to_xi_s": total["transforms.u_to_xi"],
        "super_actions_s": total["diagnostics.super_actions"],
        "weighted_deviation_s": total["diagnostics.weighted_deviation"],
        "emit_s": total["diagnostics.emit"],
        "check_assumption2_s": total["stability.check_assumption2"],
        "vectors": vectors,
        "early_exit_s": early_s,
        "early_exits": n_early,
        "full_s": full_s,
        "fulls": n_full,
        "build_frequency_table_s": total["stability.build_frequency_table"],
        "check_assumption1_s": total["stability.check_assumption1"],
        "build_diagonalizers_s": total["transforms.build_diagonalizers"],
        "random_initial_datum_s": total["cli.random_initial_datum"],
        "check_points_s": total["cli.check_point"],
        "sweep_wall_s": sweep_wall,
        "spans": len(spans),
    })
    return fig
