"""Spans and counters around the public entry points of the ctdi modules.

The tracer patches the package from outside.  Every function named in a
layer module's ``__all__`` is replaced by a recording wrapper in every ctdi
module namespace that refers to it, so calls between modules and calls
within one module are both seen.  Two class members are wrapped as well:
``RngSpec.stream`` (per-replica stream derivation) and ``SamplePath.__init__``
(path construction and validation).

A span has a name, a start, an end and a parent.  Its self time is its
duration minus the time covered by its child spans; self times and call
counts are aggregated per name as the spans close, and the spans themselves
are kept only down to ``KEEP_DEPTH`` levels so that a traced pass with
hundreds of thousands of calls stays small in memory.  Work counters
(replicas, events, integrand points, cells) are recorded by hooks that read
the arguments or results of the wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "partition_di", "gaussian", "poisson", "quadrature", "capacity", "cli")
KEEP_DEPTH = 3  # top-level spans (cli.main, bench legs), their children and grandchildren


class Tracer:
    """Collects spans, per-name self time and work counters while installed."""

    COUNTERS = (
        "core.poisson_loss.points",
        "gaussian.directed_info_gaussian_mc.replicas",
        "poisson.simulate_channel.events",
        "poisson.renewal_posterior_mean.points",
        "quadrature.composite_simpson.points",
        "quadrature.final_mesh_points",
        "capacity.binary_rate.calls_in_optimizer",
        "partition_di.cells",
    )

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.spans = []  # (span id, parent id or None, name, start, end)
        self._stack = []  # [span id, name, start, time covered by children]
        self._next_id = 0
        self._patches = []
        self.wrapped = set()  # names of the wrapped entry points
        self._last_mesh_points = 0
        self._hooks = {
            "core.poisson_loss": self._count_result_size("core.poisson_loss.points"),
            "gaussian.directed_info_gaussian_mc": self._count_replicas,
            "poisson.simulate_channel": self._count_events,
            "poisson.renewal_posterior_mean": self._count_result_size(
                "poisson.renewal_posterior_mean.points"),
            "quadrature.composite_simpson": self._count_mesh,
            "quadrature.adaptive_simpson": self._count_final_mesh,
            "capacity.binary_rate": self._count_rate_in_optimizer,
            "partition_di.random_joint": self._count_cells,
            "partition_di.random_no_feedback_joint": self._count_cells,
        }

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        span_id, name, start, covered = self._stack.pop()
        end = perf_counter()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self._stack) < KEEP_DEPTH:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself, such as one workload leg."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    # -- counters ----------------------------------------------------------

    def _count_result_size(self, key: str):
        def hook(args, kwargs, out):
            self.counts[key] += np.size(out)
        return hook

    def _count_replicas(self, args, kwargs, out):
        self.counts["gaussian.directed_info_gaussian_mc.replicas"] += out.replicas

    def _count_events(self, args, kwargs, out):
        self.counts["poisson.simulate_channel.events"] += len(out.events)

    def _count_mesh(self, args, kwargs, out):
        # composite_simpson(fn, a, b, n) evaluates n + 1 mesh points
        points = int(args[3] if len(args) > 3 else kwargs["n"]) + 1
        self.counts["quadrature.composite_simpson.points"] += points
        self._last_mesh_points = points

    def _count_final_mesh(self, args, kwargs, out):
        # the accepted mesh is the last one the refinement evaluated
        self.counts["quadrature.final_mesh_points"] += self._last_mesh_points

    def _count_rate_in_optimizer(self, args, kwargs, out):
        if any(frame[1] == "capacity.optimize_binary" for frame in self._stack):
            self.counts["capacity.binary_rate.calls_in_optimizer"] += 1

    def _count_cells(self, args, kwargs, out):
        self.counts["partition_di.cells"] += out.probs.size

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import ctdi.cli  # noqa: F401  (the package does not import its CLI)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ctdi.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ctdi" and not mod_name.startswith("ctdi."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))
        core = sys.modules["ctdi.core"]
        for cls, attr, name in ((core.RngSpec, "stream", "core.stream"),
                                (core.SamplePath, "__init__", "core.SamplePath")):
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, orig))
            self._patches.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
