"""In-memory call spans around ldikit functions, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.wrap`` replaces a
function at the name its caller looks up (``ldikit.pipeline.train_lda``, not
``ldikit.lda.train_lda``, because pipeline imported the name) with a wrapper
that records one span per call and returns the wrapped function's value
unchanged.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call: name, interval, causing span and run id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``run`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._paused = False

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                    end=0.0, parent=parent, run=self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``observe(args, kwargs, result)`` may return a dict of facts about
        the call, stored on the span; it runs after the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if observe is not None:
                span.info.update(observe(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                doc = asdict(span)
                doc["start"] -= origin
                doc["end"] -= origin
                fh.write(json.dumps(doc) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded, so children of one span never overlap.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own
