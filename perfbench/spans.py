"""Spans recorded from outside ptcor by wrapping its public functions.

A span is (name, start, end, parent, root name, op id, info).  Spans stay in memory
and are written out once, when the run ends.  A span's self time is its
wall time minus the wall time of the spans nested directly inside it, so
the self times of one op add up to the op's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "root": self.spans[self._stack[0]]["name"] if self._stack else name,
                           "op": self.op_id, "info": None})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int):
        """Root span of one op (or of one correctness check) when tracing is on."""
        if not self.enabled:
            yield
            return
        self.op_id = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = None

    @contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace owner.attr by a recording wrapper; `info(args, kwargs, result)` adds detail."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if not self.enabled or self.op_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx]["info"] = info(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(recorded) if is_classmethod else recorded)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like `spans`."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, t in zip(self.spans, own):
                fh.write(json.dumps({**s, "self": t}) + "\n")
