"""Spans and call counts recorded around the program's public functions.

The tracer replaces a function by a wrapper in the module namespace where its
caller looks it up (`tclique.update.drain` is what `update_batch` calls), so
the program itself is unchanged. Spans are kept in memory and written as JSON
lines at the end; counted functions get a plain call counter and no span,
because they run millions of times per pass.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self._requested: set[str] = set()
        self._installed: set[str] = set()
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @property
    def absent(self) -> list[str]:
        """Names none of whose functions exist in the program any more."""
        return sorted(self._requested - self._installed)

    def _lookup(self, where: str, attr: str, name: str):
        self._requested.add(name)
        try:
            module = importlib.import_module(where)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            return None, None
        self._installed.add(name)
        return module, fn

    def _install(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(
        self,
        where: str,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], dict]] = None,
    ) -> None:
        """Record a span named `name` around every call of `where.attr`.

        `before(args)` runs ahead of the call; `after(args, result, token)`
        receives its return value and adds fields to the span.
        """
        module, fn = self._lookup(where, attr, name)
        if fn is None:
            return
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            record = {
                "id": len(spans),
                "name": name,
                "parent": opened[-1] if opened else None,
            }
            spans.append(record)
            opened.append(record["id"])
            record["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record["failed"] = True
                raise
            finally:
                record["end"] = clock()
                opened.pop()
            if after:
                record.update(after(args, result, token))
            return result

        self._install(module, attr, wrapper)

    def count(self, where: str, attr: str, name: str) -> None:
        """Count the calls of `where.attr` under `name`."""
        module, fn = self._lookup(where, attr, name)
        if fn is None:
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": own[s["id"]]}) + "\n")
