"""Spans and allocation peaks around every public pcortho function, from outside src/.

`install` replaces each public function and method of the layer modules
with a wrapper, at every namespace through which callers reach it: the
defining module, every module that imported the name (for example
`pcortho.projection.ln_w_basis` as well as `pcortho.bases.ln_w_basis`),
the `pcortho` package, and module-level dispatch tables such as the CLI's
command table. `uninstall` puts the originals back.

A span is (name, start, end, parent span, op id). Spans are kept in
compact in-memory arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np

LAYERS = ("cli", "io", "model", "inner", "bases", "projection")
PACKAGE = "pcortho"
# Every function or method that evaluates an inner product.
INNER_PRODUCTS = frozenset({
    "inner.frobenius",
    "inner.w_frobenius",
    "inner.f_pair_w",
    "inner.induced_vector_ip",
    "inner.FrobeniusInner.__call__",
    "inner.WeightedFrobeniusInner.__call__",
    "inner.VectorMetricInner.__call__",
})


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    head, _, tail = mod.rpartition(".")
    return tail if head == PACKAGE and tail in LAYERS else None


def _targets():
    """(canonical name, owner, attribute, original) for every wrapped callable.

    Functions are listed once per namespace that binds them; class methods
    once, on their class. A class's constructor is named after the class.
    """
    modules = [importlib.import_module(PACKAGE)]
    modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
    out, seen_classes = [], set()
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            layer = _layer_of(obj)
            if attr.startswith("_") or layer is None:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{obj.__qualname__}", mod, attr, obj))
            elif inspect.isclass(obj) and obj not in seen_classes:
                seen_classes.add(obj)
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname not in ("__init__", "__call__"):
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{obj.__qualname__}"
                    if mname != "__init__":
                        name += f".{mname}"
                    out.append((name, obj, mname, member))
    return out


class _Installer:
    """Replaces targets with wrappers made by `make(name, fn)`; restores them on uninstall."""

    def __init__(self):
        self._patched = []
        self.current_op = -1

    def span(self, name: str):
        """A harness span around one op or one CLI command; only SpanTracer records them."""
        return nullcontext()

    def install(self):
        wrappers = {}
        for name, owner, attr, original in _targets():
            fn = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
            if id(fn) not in wrappers:
                wrappers[id(fn)] = functools.wraps(fn)(self.make(name, fn))
            new = wrappers[id(fn)]
            if isinstance(original, (classmethod, staticmethod)):
                new = type(original)(new)
            self._patched.append((owner, attr, original, False))
            setattr(owner, attr, new)
        # Dispatch tables (such as cli._COMMANDS) hold functions by value.
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if inspect.isfunction(value) and id(value) in wrappers:
                        self._patched.append((table, key, value, True))
                        table[key] = wrappers[id(value)]

    def uninstall(self):
        for owner, attr, original, is_item in reversed(self._patched):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def make(self, name, fn):
        raise NotImplementedError


class SpanTracer(_Installer):
    """Records one span per call of a wrapped function, plus harness spans."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def make(self, name, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds, outermost inner-product calls."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        is_ip = np.array([n in INNER_PRODUCTS for n in self.names] + [False], dtype=bool)
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], k)
        outer_ip = np.bincount(a["name"][is_ip[a["name"]] & ~is_ip[parent_name]], minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i]),
                "outer_calls": int(outer_ip[i])}
            for i, n in enumerate(self.names)
        }


class AllocTracer(_Installer):
    """Largest tracemalloc peak above the entry level, per wrapped function, over all calls.

    Nested calls are handled by folding each child's peak into its parent's
    before resetting the peak counter.
    """

    def __init__(self):
        super().__init__()
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[list[int]] = []

    def make(self, name, fn):
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]  # entry level, highest level seen so far
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                self._stack.pop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), top - frame[0])
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], top)
                tracemalloc.reset_peak()

        return wrapper
