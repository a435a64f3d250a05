"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: either around a call the
benchmark makes itself (``call``/``begin``/``end``), or by replacing a
module attribute that library code resolves at call time (``patch``), such
as ``dp.batched_n_ratios`` inside ``dp.batched_n_ratios_auto``.  Nothing in
the library is edited; ``unpatch`` restores every replaced attribute.

A span is ``[name, start, end, parent, op_id, attrs]``; ``parent`` is the
index of the enclosing span (-1 at top level) and ``op_id`` groups the
spans of one closed-loop operation.  The layer of a span is the first
dotted component of its name.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def end(self) -> list:
        t = perf_counter()
        span = self.spans[self._stack.pop()]
        span[END] = t
        return span

    def wrap(self, name: str, fn, attrs_of=None):
        """fn with a span around each call; attrs_of(args, kwargs) -> dict."""

        def traced(*args, **kwargs):
            span = self.begin(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                span[ATTRS] = {**(span[ATTRS] or {}), "error": type(e).__name__}
                raise
            finally:
                self.end()

        return traced

    def patch(self, module, attr: str, name: str | None = None, attrs_of=None) -> None:
        orig = getattr(module, attr)
        setattr(module, attr, self.wrap(name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", orig, attrs_of))
        self._patches.append((module, attr, orig))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # -- analysis -----------------------------------------------------------

    def self_time_by_layer(self, keep=lambda span: True) -> dict[str, float]:
        """Seconds of self time per layer over the spans keep() accepts.

        Self time is a span's duration minus the part its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, covered):
            if keep(s):
                out[s[NAME].split(".", 1)[0]] += (s[END] - s[START]) - c
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS],
                }) + "\n")
