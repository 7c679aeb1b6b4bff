"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of the layers (the names in
each module's `__all__` that the module defines) and `bkl4.cli.main`.  The
wrapper replaces the function in every `bkl4` module namespace that holds
it, so `circuits.conjugate` is traced as well as `engine.conjugate`.

Each call is a span with a name, start, end and parent span.  A span is
folded into per-function totals (calls, inclusive time, self time = duration
minus the time of its child spans) and per-edge call counts when it closes,
so memory stays bounded on a pass that opens millions of spans; the totals
are written out when the pass ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("words", "engine", "sliding", "circuits", "solver")


# Counts taken at the span boundary, from the arguments or the result.
EXTRA = {
    "engine.normalize_factors": lambda args, result: len(args[0]),
    "circuits.compute_sc": lambda args, result: result.size,
    "circuits.minimal_arrows": lambda args, result: len(result),
    "circuits.quotient_graph": lambda args, result: result.vertex_count,
}


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # frames: [name, child time, SC elements]
        self.active: Counter[str] = Counter()
        self.functions: dict[str, list] = {}  # calls, inclusive, self, extra
        self.edges: Counter[str] = Counter()
        self.hits = 0
        self.hit_elements = 0

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                tracer.active[name] -= 1
                totals = tracer.functions.get(name)
                if totals is None:
                    totals = tracer.functions[name] = [0, 0.0, 0.0, 0]
                totals[0] += 1
                totals[2] += duration - frame[1]
                if not tracer.active[name]:
                    totals[1] += duration
                if parent is not None:
                    parent[1] += duration
                    tracer.edges[parent[0] + ">" + name] += 1
            if extra is not None:
                totals[3] += extra(args, result)
            if name == "circuits.compute_sc":
                for outer in stack:
                    outer[2] += result.size
            elif name == "solver.solve_conjugacy" and result.outcome == "conjugate":
                tracer.hits += 1
                tracer.hit_elements += frame[2]
            return result

        return traced

    def install(self) -> None:
        import bkl4.cli

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bkl4"]
        targets = [(bkl4.cli, "main")]
        for layer in LAYERS:
            module = sys.modules["bkl4." + layer]
            targets.extend((module, n) for n in module.__all__)
        for module, attr in targets:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = self.wrap(module.__name__.split(".")[1] + "." + attr, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def summary(self) -> dict:
        return {
            "functions": self.functions,
            "edges": dict(self.edges),
            "hits": self.hits,
            "hit_elements": self.hit_elements,
        }
