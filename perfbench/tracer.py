"""Per-layer tracing by wrapping the package's public functions.

Every public function of the traced modules is replaced, at every module
binding that refers to it (``cli`` and ``christoffel`` import functions by
name), with a wrapper that records call count and self time: the call's
duration minus the time spent in wrapped calls it made. Counts that follow
from argument and result shapes (kernel evaluations, nominal flops, bytes
read) are added at the same boundary. The program's source is not touched;
``Tracer.installed`` restores every binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

PACKAGE = "christoffel_outliers"
LAYERS = ("dataio", "kernels", "linalg", "christoffel", "baselines", "evaluation", "cli")


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregated self time and call counts per ``<module>.<function>``."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {
            "kernels.evals": 0,
            "linalg.flop": 0.0,
            "linalg.jitter_applied": 0,
            "dataio.bytes_read": 0,
        }
        self._child_time: list[float] = []

    def _count(self, name, args, kwargs, result) -> None:
        c = self.counters
        if name == "kernels.gram_matrix":
            c["kernels.evals"] += _rows(result) ** 2
        elif name == "kernels.cross_vector":
            c["kernels.evals"] += _rows(_arg(args, kwargs, 1, "X")) + 1
        elif name == "linalg.spd_factor":
            c["linalg.flop"] += _rows(_arg(args, kwargs, 0, "A")) ** 3 / 3.0
            if result is not None and result.jitter_applied:
                c["linalg.jitter_applied"] += 1
        elif name == "linalg.spd_solve":
            b = _arg(args, kwargs, 1, "b")
            n = _rows(b)
            rhs = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])
            c["linalg.flop"] += 2.0 * n * n * rhs
        elif name == "linalg.ridge_objective_from_factor":
            n = _rows(_arg(args, kwargs, 1, "g"))
            c["linalg.flop"] += 2.0 * n * n + 6.0 * n
        elif name == "dataio.load_csv":
            c["dataio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if self._child_time:
                    self._child_time[-1] += elapsed
                self._count(name, args, kwargs, result)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions at every binding inside the package."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_total(self) -> float:
        return sum(self.self_s.values())
