"""In-memory span tracer that wraps hullexplain's public functions from outside.

Every wrapped call records one span: its name, the enclosing span on the
same thread, start, end, self time (duration minus the time of its child
spans on that thread) and an optional unit count such as rows predicted.
Wrappers are installed at the names callers look up, so no source file
changes; a target that is missing is reported as absent, not raised.
"""
from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None  # enclosing span on the same thread
    start: float
    end: float
    self_s: float
    units: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads; a per-thread stack nests them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, units: Callable | None = None):
        """`fn` with a span named `name` around each call.

        `units(result)` gives the span's unit count; a call that raises
        records 0 units.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, self.clock(), 0.0]  # name, start, child time
            stack.append(frame)
            count = 0.0
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    count = float(units(result))
                return result
            finally:
                end = self.clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                span = Span(name, stack[-1][0] if stack else None, frame[1], end,
                            duration - frame[2], count)
                with self._lock:
                    self.spans.append(span)

        return traced


@dataclass(frozen=True)
class Target:
    """A callable to wrap: attribute `attr` of `owner` ("module" or "module:Class")."""

    owner: str
    attr: str
    span: str
    units: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


def _rows(result):
    return len(result)


def _extremes(result):
    return result.d


def _targets(owner: str, span_module: str, *names: str) -> list[Target]:
    return [Target(owner, name, f"{span_module}.{name}") for name in names]


HX = "hullexplain"
ROOT_SPAN = "cli.main"
# Each public function is wrapped where its callers look it up: the names a
# module imported, or the module attribute when callers go through the
# module (geometry, nam, example_based call their own functions that way).
TARGETS: tuple[Target, ...] = tuple(
    [Target(f"{HX}.cli", "main", ROOT_SPAN)]
    + _targets(f"{HX}.cli", "datasets", "generate", "gen_edge_testset")
    + _targets(f"{HX}.cli", "blackbox", "trees_fit")
    + _targets(f"{HX}.cli", "explainer", "explain_local", "explain_global")
    + _targets(f"{HX}.cli", "surrogate", "lime_explain", "fit_linear")
    + _targets(f"{HX}.cli", "report", "write_report")
    + [Target(f"{HX}.explainer", "find_extreme_points", "geometry.find_extreme_points",
              _extremes),
       Target(f"{HX}.datasets", "find_extreme_points", "geometry.find_extreme_points",
              _extremes),
       Target(f"{HX}.geometry", "find_extreme_points", "geometry.find_extreme_points",
              _extremes)]
    + _targets(f"{HX}.geometry", "geometry", "project_points_onto_hull")
    + _targets(f"{HX}.explainer", "sampling", "map_to_primal")
    + _targets(f"{HX}.explainer", "surrogate", "fit_linear", "recover_primal")
    + _targets(f"{HX}.surrogate", "surrogate", "fit_linear")
    + _targets(f"{HX}.example_based", "surrogate", "fit_linear")
    + _targets(f"{HX}.example_based", "example_based", "importances", "ale_curve")
    + _targets(f"{HX}.nam", "nam", "train", "loss", "gradient")
    + [Target(f"{HX}.rng:Prng", "shuffled", "rng.shuffled"),
       Target(f"{HX}.sampling:SimplexSampler", "draw", "sampling.draw"),
       Target(f"{HX}.blackbox:Predictor", "predict", "blackbox.predict", _rows)]
)


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Install `tracer` on every target for the body; yields the absent labels."""
    saved, absent = [], []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None)
            if not callable(original):
                absent.append(target.label)
                continue
            setattr(owner, target.attr, tracer.wrap(original, target.span, target.units))
            saved.append((owner, target.attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def metric_span(name: str) -> str:
    """The span a per-layer metric is computed from."""
    return {"trace.busy_over_wall": ROOT_SPAN,
            "geometry.extremes_mean": "geometry.find_extreme_points"}.get(
                name, name.rpartition(".")[0])


def layer_metric(spans: list[Span], name: str, root: str = ROOT_SPAN) -> float:
    """Value of one per-layer metric over the spans of a single command.

    `name` is `<span>.<stat>` with stat calls, self_s, rows, p50_ms or
    p95_ms, or one of geometry.extremes_mean and trace.busy_over_wall.
    Busy over wall is the summed time of the outermost work spans (those
    directly under `root` or under nothing) over the duration of `root`;
    above 1 means spans on different threads overlapped.
    """
    if name == "trace.busy_over_wall":
        wall = sum(s.duration for s in spans if s.name == root)
        busy = sum(s.duration for s in spans
                   if s.name != root and s.parent in (None, root))
        return busy / wall if wall > 0 else 0.0
    if name == "geometry.extremes_mean":
        found = [s.units for s in spans if s.name == "geometry.find_extreme_points"]
        return sum(found) / len(found) if found else 0.0
    span_name, _, stat = name.rpartition(".")
    mine = [s for s in spans if s.name == span_name]
    if stat == "calls":
        return float(len(mine))
    if stat == "self_s":
        return float(sum(s.self_s for s in mine))
    if stat == "rows":
        return float(sum(s.units for s in mine))
    if stat in ("p50_ms", "p95_ms"):
        return 1e3 * percentile([s.duration for s in mine], float(stat[1:3]))
    raise ValueError(f"unknown per-layer metric {name!r}")
