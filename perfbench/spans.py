"""Spans and counts recorded from outside the program.

The tracer replaces a module attribute with a wrapper at the place where it
is looked up: sqplan modules import names directly (``from .proximity import
closest_pair``), so each importing module's own binding is patched. A span
wrapper records (name, scope, start, end, parent) for every call; a count
wrapper only adds a per-call number, for functions too hot to time.

Spans stay in flat arrays while the workload runs and are reduced once at the
end: a span's self time is its duration minus the durations of its direct
children, which is the part of its interval no child covers because spans
of one thread nest.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_scope = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.scopes: list[str] = []
        self._scope_id: dict[str, int] = {}
        self.scope = self._intern_scope("none")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern_scope(self, scope: str) -> int:
        if scope not in self._scope_id:
            self._scope_id[scope] = len(self.scopes)
            self.scopes.append(scope)
        return self._scope_id[scope]

    def set_scope(self, scope: str) -> None:
        """Label for spans and counts recorded from now on."""
        self.scope = self._intern_scope(scope)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.scopes[self.scope], name)] += value

    def _open(self, name_id: int) -> int:
        k = len(self.start)
        self.span_name.append(name_id)
        self.span_scope.append(self.scope)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(tracer, args, result)."""
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if on_result is not None:
                on_result(self, args, result)
            return result
        return wrapper

    def counter(self, fn, on_call):
        """Wrap fn so each call runs on_call(tracer, args) and nothing else."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(self, args)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, target: str, wrap) -> None:
        """Replace ``module.attr`` (dotted target) by wrap(original)."""
        mod_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[tuple[str, str], dict]:
        """{(scope, name): {"calls", "incl_s", "self_s"}} over closed spans."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        scope = np.frombuffer(self.span_scope, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        key = scope * len(self.names) + name
        calls = np.bincount(key)
        incl = np.bincount(key, weights=dur)
        self_s = np.bincount(key, weights=own)
        out = {}
        for k in np.flatnonzero(calls):
            s, m = divmod(int(k), len(self.names))
            out[(self.scopes[s], self.names[m])] = {
                "calls": int(calls[k]), "incl_s": float(incl[k]),
                "self_s": float(self_s[k])}
        return out
