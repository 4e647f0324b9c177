"""Timing, tracing and operation accounting for one benchmark run.

A ``Recorder`` times every stage call of a run into end-to-end buckets
(``verify``, ``invariants``) with one ``perf_counter`` pair per call.  With
tracing on it also keeps every span in memory: name, start, end, parent span,
repetition id and counts.  Library spans come from wrappers that
``instrument`` installs around the public functions of the tricode modules
(the layers) and removes again when the run ends; with tracing off nothing is
wrapped, so the library runs unchanged.
"""

from __future__ import annotations

import functools
import statistics
import time
import traceback
from collections.abc import Callable
from contextlib import contextmanager


class StageFailed(Exception):
    """A stage raised; the rest of its rung depends on it and is skipped."""


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "rep", "counts")

    def __init__(self, id, name, layer, parent, rep):
        self.id, self.name, self.layer, self.parent, self.rep = id, name, layer, parent, rep
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.rep = -1
        self.buckets: list[dict[str, float]] = []  # per repetition
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def begin_rep(self) -> None:
        self.rep += 1
        self.buckets.append({})

    @contextmanager
    def span(self, name: str, layer: str | None = None, bucket: str | None = None):
        sp = None
        if self.traced:
            parent = self._stack[-1].id if self._stack else None
            sp = Span(len(self.spans), name, layer, parent, self.rep)
            self.spans.append(sp)
            self._stack.append(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            t1 = time.perf_counter()
            if bucket:
                cur = self.buckets[-1]
                cur[bucket] = cur.get(bucket, 0.0) + (t1 - t0)
            if sp is not None:
                sp.start, sp.end = t0, t1
                self._stack.pop()

    def op(self, name: str, bucket: str | None, fn, *args, layer: str | None = None, ok=None):
        """One attempted operation, timed into ``bucket``.  An exception (a CLI
        step may also exit) or a result that ``ok`` rejects is counted as a
        failed operation and raised again as StageFailed."""
        self.attempted += 1
        try:
            with self.span(name, layer, bucket):
                out = fn(*args)
        except (Exception, SystemExit) as exc:
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            raise StageFailed(name) from exc
        if ok is not None and not ok(out):
            self.failed += 1
            self.problems.append(f"{name}: returned {out!r}")
            raise StageFailed(name)
        return out

    def check(self, ok: bool, what: str) -> bool:
        """A wrong output counts as a failed operation and makes the run incorrect."""
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.problems.append(f"wrong result: {what}")
        return ok

    def bucket_median(self, bucket: str) -> float:
        return statistics.median(b.get(bucket, 0.0) for b in self.buckets)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans: for each repetition, the self time
        of every library layer (its spans minus their child spans), the whole
        time of every ``cli.*`` step, and the counts of the outermost span of
        each layer; then the median over repetitions."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        per_rep: list[dict[str, float]] = [{} for _ in self.buckets]
        for sp in self.spans:
            if sp.layer is None:
                continue
            row = per_rep[sp.rep]
            dur = sp.end - sp.start
            key = sp.layer + "_s"
            row[key] = row.get(key, 0.0) + (dur if sp.layer.startswith("cli.") else dur - child[sp.id])
            if sp.parent is None or self.spans[sp.parent].layer != sp.layer:
                for name, v in sp.counts.items():
                    row[name] = row.get(name, 0) + v
        keys = {k for row in per_rep for k in row}
        return {k: statistics.median(row.get(k, 0) for row in per_rep) for k in sorted(keys)}


def instrument(rec: Recorder, table) -> Callable[[], None]:
    """Wrap each listed module function in a span of its layer; return the
    function that puts the originals back.  ``table`` rows are
    (layer, module, function names, counter); ``counter`` maps a result to
    the counts attached to its span."""
    saved = []
    for layer, module, names, counter in table:
        for name in names:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, _wrapped(rec, layer, fn, counter))

    def undo() -> None:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)

    return undo


def _wrapped(rec: Recorder, layer: str, fn, counter):
    qualname = f"{fn.__module__}.{fn.__name__}"

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        with rec.span(qualname, layer) as sp:
            out = fn(*args, **kwargs)
        if counter is not None:
            sp.counts.update(counter(out))
        return out

    return inner
