"""Outside-in span tracer for the corrqfi benchmark.

The tracer never edits the package.  It wraps a public function and rebinds
the name in every ``corrqfi`` module that holds it (a function imported with
``from .channels import apply_channel`` lives on in ``corrqfi.qfi`` and
``corrqfi.metrology`` as well), so calls made through any of those names
record a span.  ``restore`` puts every original object back.

Spans are kept in memory as tuples and written out once, at the end.  A
span's self time is its duration minus the durations of its direct
children; the time of a traced run that lies outside every root span is the
``untraced`` remainder, so self times plus that remainder equal wall time.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import importlib
import sys
import time
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: tuple = ()
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it installs; restore() undoes it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._clock = clock
        self._stack: list[int] = []
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func: Callable, attrs: Callable | None = None) -> Callable:
        """Return ``func`` wrapped so that each call records a span ``name``.

        ``attrs(*args, **kwargs)`` runs before the span opens and returns a
        tuple stored with the span; it must be cheap and must not raise.
        """
        clock = self._clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            info = attrs(*args, **kwargs) if attrs is not None else ()
            sid = self._next_sid
            self._next_sid += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.run, info, error))

        return traced

    def install(
        self, name: str, module: str, attr: str, attrs: Callable | None = None
    ) -> bool:
        """Trace ``module.attr`` under ``name`` wherever the package binds it.

        Returns False, and changes nothing, when the function does not exist.
        """
        home = importlib.import_module(module)
        original = home.__dict__.get(attr)
        if original is None:
            return False
        wrapper = self.wrap(name, original, attrs)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))
        return True

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def write(self, path) -> None:
        """Write all spans as tab-separated lines with a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tname\tstart\tend\tparent\trun\tattrs\terror\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                attrs = ",".join(str(a) for a in s.attrs)
                fh.write(
                    f"{s.sid}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\t{s.run}\t"
                    f"{attrs}\t{s.error or ''}\n"
                )


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Map span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.sid: s.duration - children[s.sid] for s in spans}


def untraced(spans: Iterable[Span], wall: float) -> float:
    """Wall time not covered by any root span."""
    return wall - sum(s.duration for s in spans if s.parent is None)
