"""Span tracer that times calls into surfbench from outside the package.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper installed at the name its caller looks up: ``surfbench.protocol.fit_cubic``
rather than ``surfbench.cubic.fit_cubic``, because ``protocol`` bound the name
at import time. The package itself is never edited, and the untraced run
installs nothing.

Every call records one span: name, start, end, parent span and item id. Spans
sit in flat arrays in memory and are aggregated, or written out, after the
pass. A span's self time is its duration minus the durations of its direct
child spans; calls are synchronous on one thread, so children never overlap.

A target that no longer exists (a function deleted or a class reshaped by a
later refactor) is skipped: its span name is reported as absent and the run
goes on. A counter hook that fails on a reshaped result is counted under
``<span>.hook_failed`` instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One place to wrap: ``owner`` is a module path, optionally followed by a
    class name (``surfbench.cubic.CubicSurface``); ``attr`` is the name
    looked up on it."""

    owner: str
    attr: str
    span: str
    on_result: Callable | None = None
    item: bool = False  # each call starts a new benchmark item


def _resolve(owner: str):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


@dataclass
class Tracer:
    """Collects spans and counters; ``install``/``uninstall`` patch targets."""

    clock: Callable[[], float] = time.perf_counter
    names: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    absent: list = field(default_factory=list)

    def __post_init__(self):
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_id = array("i")
        self.nested = array("b")
        self.counters.clear()
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._item = -1

    def _name(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    def wrap(self, fn, span: str, on_result=None, item: bool = False):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._name(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if item:
                self._item += 1
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item_id.append(self._item)
            self.nested.append(self._depth[nid] > 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._depth[nid] += 1
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[span + ".failed"] += 1
                raise
            finally:
                self.end[idx] = self.clock()
                self._depth[nid] -= 1
                self._stack.pop()
            if on_result is not None:
                try:
                    on_result(self, args, kwargs, result)
                except Exception:  # a reshaped result must not stop the run
                    self.counters[span + ".hook_failed"] += 1
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every target that exists; record span names left absent."""
        found = set()
        for t in targets:
            self._name(t.span)
            owner = _resolve(t.owner)
            original = getattr(owner, t.attr, None)
            if not callable(original):
                continue
            self._patches.append((owner, t.attr, original))
            setattr(owner, t.attr, self.wrap(original, t.span, t.on_result, t.item))
            found.add(t.span)
        self.absent = sorted({t.span for t in targets} - found)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, span: str) -> np.ndarray:
        """Durations (s) of every call of one span name, in call order."""
        nid = self._ids.get(span)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ids == nid] if nid is not None else dur[:0]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (outermost calls only, so a
        recursive call is not counted twice) and ``self_s``."""
        return aggregate_spans(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.nested, dtype=np.int8).astype(bool),
        )

    def spans(self) -> dict[str, np.ndarray]:
        """The raw span table of the current pass, as arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item_id": np.frombuffer(self.item_id, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }


def aggregate_spans(names, name_id, start, end, parent, nested) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name from a span table."""
    n = len(names)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(name_id, minlength=n)
    busy = np.bincount(name_id[~nested], weights=dur[~nested], minlength=n)
    own = np.bincount(name_id, weights=self_time, minlength=n)
    return {
        name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }
