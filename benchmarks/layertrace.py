"""Outside-in span tracing for the berrysim benchmark.

The tracer rebinds, from outside the package, the names one module takes
from another (for example ``berrysim.cli.run_ensemble``).  Every call
across such a boundary then records a span: id, name, start, end, parent
span and command id.  Spans stay in memory until the run ends and are
written out by the caller.  Self times are derived from the spans
afterwards, and health values (leakage, quadrature nodes, ...) are read
from the objects the wrapped calls return, through an optional probe.

Nothing here knows about berrysim; the benchmark supplies the table of
boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    """One call across a traced boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    error: str | None
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


# A probe maps (args, kwargs, result) of a finished call to a small dict
# of counters; ``result`` is None when the call raised.  It must not keep
# references to large arguments or results.
Probe = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Records spans for calls made through the wrappers it installs.

    ``clock`` defaults to ``time.perf_counter``; tests pass a fake one.
    ``command`` is the id stamped on every span; the caller sets it
    before each command it drives.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.found: set[str] = set()
        self.missing: set[str] = set()
        self.command = 0
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        clock = self._clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                info = probe(args, kwargs, None) if probe is not None else None
                spans.append(
                    Span(span_id, name, start, end, parent, self.command,
                         type(exc).__name__, info)
                )
                raise
            end = clock()
            stack.pop()
            info = probe(args, kwargs, result) if probe is not None else None
            spans.append(Span(span_id, name, start, end, parent, self.command, None, info))
            return result

        return traced

    def patch(self, module, attr: str, probe: Probe | None = None) -> bool:
        """Rebind ``module.attr`` to a traced wrapper.

        The span name is ``<last part of the module name>.<attr>``.  A
        name the module no longer has is skipped and listed in
        ``missing``; installed names are listed in ``found``.  The
        return value says whether the name was installed.
        """
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not hasattr(module, attr):
            self.missing.add(name)
            return False
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, probe))
        self.found.add(name)
        return True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus its direct children's.

    Calls are serial, so children of one span never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}
