"""In-memory spans and counts recorded around calls into heunqes modules.

The tracer replaces module attributes with wrappers; nothing inside the
package changes. A span is (id, parent id, name, start, end) with times from
time.perf_counter. A layer's self time is its spans' durations minus the
durations of their direct child spans.
"""

from __future__ import annotations

import functools
import json
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = [None]
        self._restore: list = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1], name, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def install(self, modules, layers: dict) -> None:
        """Wrap every binding of each layer function in `modules`.

        layers maps (module, attribute) of the defining module to
        (span name, optional (counter name, counter function of the call
        arguments)). A function imported by name into another module is
        wrapped there too, so calls through either binding are seen.
        """
        wrapped = {}
        for (home, attr), (name, count) in layers.items():
            original = getattr(home, attr)
            wrapped[id(original)] = (original, self._wrap(original, name, count))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(module, attr, wrapped[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @contextmanager
    def counting_warnings(self):
        """Count every RuntimeWarning emitted inside the block.

        The default filters print only the first warning from each code
        location, so the block switches to "always" and counts instead of
        printing. That makes each warning dearer, so no timed pass runs here.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = self._count_warning
            yield

    def _count_warning(self, message, category, *args, **kwargs) -> None:
        self.counts["runtime_warnings"] += 1

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, own = Counter(), Counter()
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            own[name] += end - start - child[sid]
        return calls, own

    def write(self, path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "counts": self.counts, "spans": self.spans}, handle, separators=(",", ":"))
