"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` keeps every span in memory -- name, start, end, parent
span and the question or request it belongs to -- and the benchmark writes
them out when it ends. Layers are timed by wrapping the public functions
that the layer above calls through its module namespace (``patch``), so
nothing under ``src/`` changes and an untraced run calls the program
exactly as a user does.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, qid=None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "qid": qid if qid is not None or parent is None else parent["qid"],
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def patch(self, module, attribute: str, name, describe=None) -> None:
        """Time every call of ``module.attribute`` as a span.

        ``name`` is the span name, or a function of the call's arguments
        returning it; ``describe(result, args, kwargs)`` returns attributes
        to record on the span.
        """
        original = getattr(module, attribute)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record["attrs"].update(describe(result, args, kwargs))
                return result

        setattr(module, attribute, traced)
        self._patches.append((module, attribute, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the time its child spans cover.

        Children run on their parent's thread and inside its interval, one
        after another, so their durations add up without overlap.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        return {
            span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
            for span in self.spans
        }

    def self_time_by_name(self) -> dict[str, float]:
        own = self.self_times()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
        return totals

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def write(self, path, header: dict) -> None:
        own = self.self_times()
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            {
                **span,
                "start": span["start"] - origin,
                "end": span["end"] - origin,
                "self": own[span["id"]],
            }
            for span in sorted(self.spans, key=lambda span: span["start"])
        ]
        with open(path, "w") as handle:
            json.dump({**header, "spans": spans}, handle, default=repr)
            handle.write("\n")
