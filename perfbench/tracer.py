"""In-memory span tracer that wraps entry points from outside the program.

A span records a name, start and end times, the span that was open when it
began (its parent) and the trace id of the request it belongs to.  Spans
stay in memory and are written out once, when the run ends.  Wrapping
replaces a module or class attribute by a timing wrapper, so it sees every
call that goes through that binding; callers that bound the function under
another module's name need their own wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables and named regions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.trace_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, info=None):
        """Timing wrapper around ``fn``; ``info(args, result)`` may attach
        a dict of facts about the call to its span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                try:
                    span.info = info(args, result)
                except Exception as exc:  # a changed signature must not break the solve
                    span.info = {"info_error": repr(exc)}
            return result

        return traced

    def install(self, entry_points) -> None:
        """Patch each ``(owner, attribute, span name, info)`` entry point.
        Owners or attributes the program no longer has are recorded in
        ``missing``."""
        for owner, attr, name, info in entry_points:
            original = getattr(owner, attr, None)
            if owner is None or original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out


def has_ancestor(span: Span, by_id: dict[int, Span], names: set[str]) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name in names:
            return True
        parent = p.parent
    return False
