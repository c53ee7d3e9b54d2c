"""In-memory spans recorded around calls into the program's public functions.

The benchmark changes no program code: it replaces a function or method
with a wrapper for the duration of an episode, records one span per call
(name, start, end, parent span, attributes), and restores the original
on exit.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store for one episode.

    Only calls made on the main thread are recorded: every wrapped entry
    point (round loop, transport collection, trainer) runs there, and a
    single open-span stack is then enough to link children to parents.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def _recording(self) -> bool:
        return threading.current_thread() is self._main

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self._recording():
            yield None
            return
        sp = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def to_json(self) -> list[dict]:
        base = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start_s": s.start - base,
                "dur_s": s.duration,
                "parent": s.parent,
                "attrs": {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))},
            }
            for s in self.spans
        ]


def wrap(owner, attr: str, wrapper_factory, stack: contextlib.ExitStack) -> None:
    """Replace ``owner.attr`` by ``wrapper_factory(original)`` until ``stack`` closes."""
    had_own = attr in vars(owner)
    original = vars(owner)[attr] if had_own else getattr(owner, attr)
    setattr(owner, attr, wrapper_factory(original))

    def restore():
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    stack.callback(restore)


def timed(tracer: Tracer, name: str, before=None, after=None, only_under: str | None = None):
    """Wrapper factory recording one span per call.

    ``before(args, kwargs)`` returns attributes known at call time,
    ``after(args, kwargs, result)`` attributes of the result.
    ``only_under`` records the call only when the innermost open span has
    that name (a direct call from that layer, not a nested one).
    """

    def factory(original):
        def wrapper(*args, **kwargs):
            if only_under is not None:
                cur = tracer.current()
                if cur is None or cur.name != only_under:
                    return original(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else {}
            with tracer.span(name, **attrs) as sp:
                result = original(*args, **kwargs)
                if sp is not None and after is not None:
                    sp.attrs.update(after(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return factory
