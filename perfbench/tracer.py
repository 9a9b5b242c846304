"""Outside-in tracer: spans around every public function of a package.

``Tracer.install`` wraps each public module-level function defined in a
submodule of the package and rebinds the wrapper under every name that
points at the original in any of the package's modules (``spectral_radius``
is imported into ``entropy``, ``genfun``, ``incremental`` and
``counting``; the package re-exports most names).  Calls made through any
of those bindings therefore record a span; calls inside the defining
module's own namespace are covered too, because module globals are looked
up at call time.  ``uninstall`` puts the originals back.

A span is (function, start, end, parent span, op id, counts, error).
Spans stay in memory until ``dump``.  Counts are read from returned
objects by the extractors in ``COUNTS``; a function that a later version
deletes or moves is simply never wrapped and shows up as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict


def _counts_of(extract):
    """Guard an extractor: an API change yields no count, not a crash."""
    def safe(result):
        try:
            return extract(result)
        except (AttributeError, TypeError, IndexError, KeyError):
            return {}
    return safe


COUNTS = {
    "spectral.spectral_radius": lambda r: {"power_iters": r.iterations},
    "entropy.volume_entropy": lambda r: {"evals": r.iterations},
    "rootutil.bracketed_root": lambda r: {"evals": r[2]},
    "incremental.entropy_after_edge": lambda r: {"evals": r.iterations},
    "incremental.entropy_after_vertex": lambda r: {"evals": r.iterations},
    "counting.enumerate_paths": lambda r: {"paths": len(r.lengths)},
    "persistence.persistent_entropy": lambda r: {
        "steps": len(r.steps),
        "steps_incremental": sum(s.strategy.value != "direct"
                                 for s in r.steps)},
}


def layer_of(module_name: str) -> str:
    """``entrograph._rootutil`` -> ``rootutil``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self, package: str = "entrograph"):
        self.package = package
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: tuple | None = None
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _modules(self):
        pkg = self.package
        return [m for name, m in list(sys.modules.items()) if m is not None
                and (name == pkg or name.startswith(pkg + "."))]

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extract = _counts_of(COUNTS[qualname]) if qualname in COUNTS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if extract is not None:
                rec[5] = extract(result)
            return result
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod in modules:
            if mod.__name__ == self.package:
                continue
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType)
                        and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and id(val) not in self._wrappers):
                    qual = f"{layer_of(mod.__name__)}.{val.__name__}"
                    self._wrappers[id(val)] = self._wrap(qual, val)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def aggregate(self, phase: str) -> dict:
        """Per function: calls, self time, summed counts and errors over
        the spans whose op id (a tuple) starts with ``phase``.  Self time
        is the span's duration minus the durations of its direct
        children.  ``child:<fn>`` counts the calls a function made to
        ``fn`` (e.g. radius re-checks inside ``solve_resolvent``)."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for idx, (fid, start, end, parent, op, counts, err) in \
                enumerate(self.spans):
            if op is None or op[0] != phase:
                continue
            st = out.setdefault(self.names[fid], defaultdict(float))
            st["calls"] += 1
            st["self_s"] += end - start - child[idx]
            for key, val in (counts or {}).items():
                st[key] += val
            if err is not None:
                st["error:" + err] += 1
            if parent >= 0:
                pname = self.names[self.spans[parent][0]]
                out.setdefault(pname, defaultdict(float))[
                    "child:" + self.names[fid].rsplit(".", 1)[-1]] += 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["function", "start", "end", "parent", "op",
                                  "counts", "error"],
                       "functions": self.names, "spans": self.spans}, fh)
