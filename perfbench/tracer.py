"""Span tracer installed from outside the package.

Timing wrappers replace a public function in every magcone module that
binds it (``verify.radial_profiles`` and ``kernels.radial_profiles`` are
the same function object looked up through two namespaces), so calls made
inside the package are seen exactly like calls made by the benchmark.
Nothing under ``src/`` is edited.

Spans (name, start, end, parent) of the first traced pass stay in memory
and are written out by ``write_spans`` when the benchmark ends.  A span's self time
is its duration minus the time covered by its child spans; for a recursive
function (``quadrature.adaptive_panel``) ``total_s`` counts only the
outermost span, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Collects spans and per-layer statistics while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.record_spans = True
        self.spans: list[tuple[int, float, float, int]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_s, span_index]
        self._open: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)

    def reset(self) -> None:
        """Forget per-pass statistics (spans are kept for the trace file)."""
        self.stats = defaultdict(LayerStats)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats = tracer.stats[name]
            stats.calls += 1
            if on_call is not None:
                on_call(stats.counts, args, kwargs)
            parent = tracer._stack[-1][3] if tracer._stack else -1
            index = -1
            if tracer.record_spans:
                index = len(tracer.spans)
                tracer.spans.append((tracer._name_id(name), 0.0, 0.0, parent))
            frame = [name, time.perf_counter(), 0.0, index]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                duration = end - frame[1]
                stats.self_s += duration - frame[2]
                if tracer._open[name] == 0:
                    stats.total_s += duration
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                if index >= 0:
                    tracer.spans[index] = (tracer.spans[index][0], frame[1], end, parent)
            if on_return is not None:
                on_return(stats.counts, result, args, kwargs)
            return result

        return wrapper

    def install(self, package, layers) -> None:
        """Wrap each (module, function, hooks) layer wherever the package binds it.

        ``layers`` holds tuples ``(module_name, func_name, on_call, on_return)``
        where module_name is relative to the package (``"spectrum"``).
        """
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, func_name, on_call, on_return in layers:
            home = sys.modules[f"{package.__name__}.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, on_call, on_return)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)
                    self._installed.append((mod, func_name, original))

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._installed):
            setattr(mod, func_name, original)
        self._installed.clear()

    def write_spans(self, path) -> None:
        """One JSON array per line: [name, start_s, end_s, parent span index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")
