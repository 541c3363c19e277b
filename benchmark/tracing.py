"""Spans and counters recorded around shiftlab's public functions.

The tracer wraps every public module-level function of the traced modules
and installs the wrapper under each name through which a caller looks the
function up: the defining module's attribute and every other shiftlab
module that imported it by name (``synthesis.sample_typical_word`` as well
as ``measures.sample_typical_word``).  Nothing inside the program changes;
spans are recorded from the benchmark's side of each call.

A span is (name, start, end, parent).  Its layer is the module that defines
the function.  Layer self time is a span's duration minus the part covered
by child spans of other layers, so a function's self time includes the
same-layer helpers it calls.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "shiftlab"
LAYERS = ("cli", "io", "shifts", "beta", "measures", "spectrum", "synthesis", "classify")


class Tracer:
    """Records spans and counters while installed; keeps them in memory."""

    def __init__(self):
        # (name, start, end, parent index, time covered by other-layer children)
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [span index, layer, start, foreign time]
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers in all namespaces."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        pf = modules[f"{PACKAGE}.spectrum"].PressureFunction
        self._patches.append((pf, "__call__", pf.__call__))
        pf.__call__ = self._wrap_pressure(pf.__call__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        probe = PROBES.get(name)
        if inspect.isgeneratorfunction(fn):
            # a span around a generator would interleave with its consumer;
            # count the calls only
            def counted(*args, **kwargs):
                self.counters[name + "_calls"] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self.counters[name + "_calls"] += 1
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_pressure(self, call):
        counters = self.counters

        def traced_call(pf, q):
            before = len(pf.cache)
            value = call(pf, q)
            counters["spectrum.pressure_evals"] += len(pf.cache) - before
            return value
        return traced_call

    def _enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, 0.0))
        self._stack.append([len(self.spans) - 1, layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, layer, start, foreign = self._stack.pop()
        name, _, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, foreign)
        if self._stack and self._stack[-1][1] != layer:
            # charge this span to the enclosing chain of another layer
            outer = self._stack[-1][1]
            for frame in reversed(self._stack):
                if frame[1] != outer:
                    break
                frame[3] += end - start

    # --- summaries ----------------------------------------------------------

    def _outermost(self, names) -> list[tuple[str, float, float, int, float]]:
        """Spans named in `names` with no ancestor named in `names`, so
        recursive and nested calls are not counted twice."""
        names = set(names)
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def total(self, *names: str) -> float:
        """Wall time inside the named functions."""
        return sum(end - start for _, start, end, _, _ in self._outermost(names))

    def self_time(self, *names: str) -> float:
        """Time inside the named functions minus child spans of other layers."""
        return sum(end - start - foreign for _, start, end, _, foreign in self._outermost(names))

    def layer_self(self, layer: str) -> float:
        """Time in a layer's functions minus the child spans of other layers."""
        total = 0.0
        for name, start, end, parent, foreign in self.spans:
            if _layer(name) == layer and (parent < 0 or _layer(self.spans[parent][0]) != layer):
                total += end - start - foreign
        return total

    # --- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans kept in memory, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _sampled(counters, args, kwargs, result) -> None:
    counters["measures.sampled_symbols"] += len(result)


def _segments(counters, args, kwargs, result) -> None:
    counters["synthesis.segments"] += len(result.schedule.segments)


def _stream_bytes(counters, args, kwargs, result) -> None:
    counters["io.stream_text_bytes"] += len(result)


def _certificate_bytes(counters, args, kwargs, result) -> None:
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    counters["io.certificate_bytes"] += os.path.getsize(os.path.join(out_dir, "certificate.json"))


#: counters read off a call's arguments or result, keyed by span name
PROBES = {
    "measures.sample_typical_word": _sampled,
    "synthesis.synthesize_witness": _segments,
    "io.stream_to_text": _stream_bytes,
    "io.write_orbit_dir": _certificate_bytes,
}
