"""Span tracing of knotcert's layers from outside the package.

`install()` replaces every public function of the layer modules, and
`cli.main`, by a wrapper that records a span: name, start, end and parent.  A
package module that bound the function with `from .x import f` gets the
wrapper too, because every `knotcert.*` module attribute that *is* the
original function object is replaced; a module calling its own helper through
its globals goes through the wrapper as well.  Private helpers are not
wrapped, so their time counts towards the public caller in the same layer.

Self time is a span's duration minus the durations of its direct children.
Spans stay in memory and are written out by `dump()` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LAYERS = ("diagram", "tait", "invariants", "lattice", "hfk", "obstruct")
OP = "harness.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.short_vectors = 0
        self._stack: list[list] = []  # [span start, child seconds, own index]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        frame = [time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[0]
            self.self_s[nid] += dur - frame[1]
            self.calls[nid] += 1
            if stack:
                stack[-1][1] += dur
            self.spans[frame[2]] = (nid, frame[0], end, parent)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        call = self.call
        if name == "lattice.short_vectors":
            def wrapper(*args, **kwargs):
                out = call(nid, fn, args, kwargs)
                self.short_vectors += len(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        import knotcert.cli  # noqa: F401  (loads every module)

        targets = [("cli.main", sys.modules["knotcert.cli"].main)]
        for layer in LAYERS:
            mod = sys.modules[f"knotcert.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets.append((f"{layer}.{attr}", obj))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "knotcert"]
        for name, fn in targets:
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapper)
        self.op_id = self._name_id(OP)

    def summary(self) -> dict:
        """Per wrapped name: [self seconds, calls]; plus the op spans' total."""
        ops = sum(e - s for nid, s, e, _ in self.spans if nid == self.op_id)
        return {
            "functions": {n: [self.self_s[i], self.calls[i]] for i, n in enumerate(self.names)},
            "short_vectors": self.short_vectors,
            "op_spans_s": ops,
            "spans": len(self.spans),
        }

    def dump(self, path: Path):
        with path.open("w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
