"""Per-op call counts and times of wrapped effico functions.

The wrappers exist only between ``install`` and ``restore``; end-to-end
runs never install them.
"""
from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, targets):
        self.targets = targets  # (module, attribute, layer name)
        self.saved = []
        self.current: dict = {}

    def _wrap(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                acc = self.current.setdefault(layer, [0, 0.0, []])
                acc[0] += 1
                acc[1] += dt
                acc[2].append(dt)

        return wrapper

    def install(self):
        for module, attr, layer in self.targets:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def restore(self):
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)

    def begin_op(self):
        self.current = {}

    def end_op(self) -> dict:
        return self.current


def is_wrapped(targets) -> bool:
    return any(hasattr(getattr(module, attr), "__wrapped__") for module, attr, _ in targets)
