"""A small in-memory tracer: spans and counters around library functions.

A ``Tracer`` belongs to one traced run.  ``installed`` replaces each hooked
function at every module of the package that binds it (``from .noise import
layer_channel`` makes ``dense.layer_channel`` a second binding of the same
object) and restores all of them when the block ends, even if it raises.
Spans are kept as ``[name, start, end, parent, error]`` records until the
run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span, seen from inside an observer."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(tracer, args,
        kwargs, result)`` runs after a successful call to update counters."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                record[1] = start
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        """Wrap ``fn`` so each call only increments counter ``name``."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package: str, hooks) -> None:
        """Apply ``hooks``: (module, function, make_wrapper(tracer, fn)) triples."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for module, function, make in hooks:
            home = sys.modules.get(f"{package}.{module}")
            original = getattr(home, function, None)
            if original is None:
                self.missing.append(f"{module}.{function}")
                continue
            wrapper = make(self, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self, package: str, hooks):
        try:
            self.install(package, hooks)
            yield self
        finally:
            self.restore()

    def by_name(self) -> dict[str, dict]:
        """Per span name: ``calls`` entered from outside a span of the same
        name, ``total_s`` their durations, and ``self_s``, the durations of
        all its spans minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            if parent < 0 or self.spans[parent][0] != name:
                entry["calls"] += 1
                entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def failures(self, prefix: str) -> Counter:
        """Exception types raised out of spans named ``prefix*``, counting an
        error once where an enclosing ``prefix*`` span raised it too."""
        out: Counter = Counter()
        for name, _, _, parent, error in self.spans:
            if error is None or not name.startswith(prefix):
                continue
            if parent >= 0:
                outer = self.spans[parent]
                if outer[0].startswith(prefix) and outer[4] is not None:
                    continue
            out[error] += 1
        return out
