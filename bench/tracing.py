"""Spans around the public calls of the ibnaming layers, recorded from outside
the package.

While a ``Tracer`` is installed, every public function of the layer modules
(``ingest``, ``solver``, ``measures``, ``frontier_io``, ``analysis``) is
replaced, in every ``ibnaming`` module that bound it, by a wrapper that
records one span per call. The ``cli`` layer gets its spans from
``Tracer.span`` around each in-process command. Spans stay in memory until
``write`` is called.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("ingest", "solver", "measures", "frontier_io", "analysis", "cli")
_WRAPPED_LAYERS = LAYERS[:-1]


class Tracer:
    """Collects (span id, parent id, name, start ns, end ns, phase) records."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.phase = ""
        self.spans: list[tuple[int, int, str, int, int, str]] = []
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.phase))

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.phase))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch the layer functions for the duration of the block."""
        patched = []
        importlib.import_module("ibnaming.cli")  # bind its imports before patching
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ibnaming" or n.startswith("ibnaming.")]
        for layer in _WRAPPED_LAYERS:
            module = importlib.import_module(f"ibnaming.{layer}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def self_times(self, phase: str) -> dict[str, float]:
        """Seconds per layer of the phase's spans, minus time in child spans."""
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end, ph in self.spans:
            if ph == phase:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _, name, start, end, ph in self.spans:
            if ph == phase:
                layer = name.split(".", 1)[0]
                out[layer] += (end - start - child_ns.get(sid, 0)) / 1e9
        return out

    def entry_times(self, phase: str) -> dict[str, float]:
        """Seconds per layer spent inside calls entering it from another layer,
        work it delegates to other layers included."""
        layer_of = {sid: name.split(".", 1)[0] for sid, _, name, _, _, ph in self.spans
                    if ph == phase}
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, parent, _, start, end, ph in self.spans:
            if ph == phase and layer_of.get(parent) != layer_of[sid]:
                out[layer_of[sid]] += (end - start) / 1e9
        return out

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        """Seconds of every span with this name (optionally in one phase)."""
        return [(end - start) / 1e9 for _, _, n, start, end, ph in self.spans
                if n == name and (phase is None or ph == phase)]

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for sid, parent, name, start, end, phase in self.spans:
                f.write(json.dumps({"trace": self.trace_id, "span": sid, "parent": parent,
                                    "name": name, "start_ns": start, "end_ns": end,
                                    "phase": phase}) + "\n")
