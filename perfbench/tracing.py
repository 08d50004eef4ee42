"""Span tracing of ldlgen's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
and every public method of the classes that form layer boundaries, with a
wrapper that records one span per call: name, start, end and the span that
caused it (the innermost open span on the same thread).  Names that other
modules bound with ``from ... import`` (for example
``ldlgen.cli.build_generator``) are rebound to the same wrapper.  Spans stay
in memory until `write()`.

Value classes (density profiles, grids, spectral data, block columns) are
not wrapped: their accessors run millions of times inside a layer, and
their time stays in the caller's self time.  A span's self time excludes
the whole wrapper time of its children, so the tracer's own work is
charged to no layer; it shows only in the traced run's total.

The wrapper also counts distinct arguments per function, for the reuse
ratio 1 - distinct / calls.  An argument that is an object (a TMatrix, a
generator) is identified by the object, so the same energy asked of two
cold TMatrix instances counts as two distinct arguments.
"""

import functools
import gzip
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

MODULES = ("model", "bath", "tmatrix", "generator", "dynamics", "verification", "cli")
CLASSES = {"bath": ("GammaTable",), "tmatrix": ("TMatrix",), "generator": ("GKSLGenerator",)}
# TMatrix.gamma only forwards to GammaTable.gamma (bath.gamma); wrapping it
# too would double the spans on the hottest path.
SKIP = {"tmatrix.gamma"}

_ATOMS = frozenset((bool, int, float, complex, str, bytes, type(None)))


class _Buffer:
    """The spans of one thread, one per index: name id, start and end of
    the call, wrapper duration including the tracer's own work, and the
    index of the parent span (-1 for none)."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self.parent = array("q")
        self.stack = []


class Tracer:
    def __init__(self, variants=None, counters=None):
        """`variants` maps a span name to f(args, kwargs) -> suffix, which
        splits one function's spans by an argument.  `counters` maps a span
        name to (counter name, f(result) -> number), summed over calls."""
        self.variants = variants or {}
        self.counters = counters or {}
        self.names = []            # span name by name id
        self.keys = []             # set of argument keys by name id
        self.buffers = []          # one _Buffer per thread that made a call
        self.counts = {name: 0 for name, _ in self.counters.values()}
        self._ids = {}
        self._objects = {}         # id(obj) -> (serial, obj); holding obj keeps ids unique
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
                self.keys.append(set())
            return nid

    def _buffer(self):
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = self._local.buffer = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def _key(self, value):
        if type(value) in _ATOMS:
            return value
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, tuple):
            return tuple([self._key(v) for v in value])
        with self._lock:
            entry = self._objects.get(id(value))
            if entry is None:
                entry = self._objects[id(value)] = (len(self._objects), value)
        return ("object", entry[0])

    def _wrap(self, name, fn):
        variant = self.variants.get(name)
        counter = self.counters.get(name)
        fixed = self._name_id(name)
        key_of = self._key
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            key = [v if type(v) in _ATOMS else key_of(v) for v in args]
            if kwargs:
                key.extend(sorted((k, key_of(v)) for k, v in kwargs.items()))
            nid = fixed if variant is None else self._name_id(name + variant(args, kwargs))
            self.keys[nid].add(tuple(key))
            buf = getattr(local, "buffer", None) or self._buffer()
            stack = buf.stack
            index = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.outer.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.start[index] = start
                buf.end[index] = end
                buf.outer[index] = clock() - enter
            if counter is not None:
                with self._lock:
                    self.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer functions."""
        modules = {m: importlib.import_module(f"ldlgen.{m}") for m in MODULES}
        replaced = {}                  # id(original function) -> wrapper
        installed = []
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", value)
                replaced[id(value)] = wrapper
                installed.append(f"{short}.{attr}")
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                for attr, value in list(vars(cls).items()):
                    if (attr.startswith("_") or not inspect.isfunction(value)
                            or f"{short}.{attr}" in SKIP):
                        continue
                    self._patches.append((cls, attr, value))
                    setattr(cls, attr, self._wrap(f"{short}.{attr}", value))
                    installed.append(f"{short}.{attr}")
        if len(set(installed)) != len(installed):
            raise RuntimeError("two traced functions share a span name")
        # rebind every module-level name that refers to a wrapped function,
        # which covers both the defining module and `from ... import` sites
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ldlgen" and not mod_name.startswith("ldlgen."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._objects.clear()

    # -- results ---------------------------------------------------------------

    def summary(self):
        """{span name: {"calls", "self_s", "reuse_ratio"}} for every span
        name that was called.

        Self time is a span's duration minus the wrapper durations of its
        direct children, so the tracer's own work in a child is charged to
        neither.  Children run nested inside their parent on one thread,
        so they never overlap."""
        rows = [{"calls": 0, "self_s": 0.0} for _ in self.names]
        for buf in self.buffers:
            child = [0.0] * len(buf.name)
            for parent, outer in zip(buf.parent, buf.outer):
                if parent >= 0:
                    child[parent] += outer
            for nid, start, end, inner in zip(buf.name, buf.start, buf.end, child):
                row = rows[nid]
                row["calls"] += 1
                row["self_s"] += end - start - inner
        out = {}
        for name, keys, row in zip(self.names, self.keys, rows):
            if row["calls"]:
                row["reuse_ratio"] = 1.0 - len(keys) / row["calls"]
                out[name] = row
        return out

    @property
    def span_count(self):
        return sum(len(buf.name) for buf in self.buffers)

    def write(self, path):
        """Spans as gzip CSV: thread, name, start, end, parent span index
        (within the same thread)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("thread,name,start,end,parent\n")
            for thread, buf in enumerate(self.buffers):
                for nid, start, end, parent in zip(buf.name, buf.start, buf.end, buf.parent):
                    fh.write(f"{thread},{self.names[nid]},{start!r},{end!r},{parent}\n")
