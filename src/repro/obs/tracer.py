"""Hierarchical sim-time spans for the staging runtime.

A :class:`Span` is one named interval of *simulated* time with a parent
link, a category (matching the execution-breakdown categories where it
instruments a cost charge) and free-form attributes.  The :class:`Tracer`
assigns span ids in execution order, so a deterministic simulation run
produces a deterministic trace.

Parent attribution across interleaved simulator processes
---------------------------------------------------------
Simulator flows are generators that suspend at every ``yield``; a naive
"current span" global would leak spans between concurrently interleaved
processes.  :meth:`Tracer.traced` solves this by *driving* the wrapped
generator: the wrapped flow's span is installed as the current span only
while the flow's own code is executing, and restored at every suspension
point.  Nested ``traced`` wrappers therefore maintain a correct dynamic
span stack per logical flow, with zero simulator events added — traced
and untraced runs execute the identical event sequence.

Zero overhead by default
------------------------
Instrumentation points hold a tracer reference that defaults to
:data:`NULL_TRACER`.  Its ``traced`` returns the wrapped generator
unchanged (not even a generator frame is added), ``begin`` returns the
shared no-op :data:`NULL_SPAN`, and hot paths guard attribute-dict
construction with ``tracer.enabled``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


class Span:
    """One named interval of simulated time in the span tree."""

    __slots__ = ("span_id", "parent_id", "name", "category", "t0", "t1", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        t0: float,
        attrs: dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.t0 = t0
        self.t1: float | None = None  # None while the span is open
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "t0": self.t0,
            "t1": self.t1 if self.t1 is not None else self.t0,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Span {self.span_id} {self.name!r} [{self.t0:.6g}, "
            f"{self.t1 if self.t1 is not None else '...'}]>"
        )


class _NullSpan:
    """Shared do-nothing span handed out by the null tracer."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    category = ""
    t0 = 0.0
    t1 = 0.0
    duration = 0.0
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - never exported
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a span tree driven by an external (simulator) clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._next_id = 1
        self._current: Span | None = None
        self.spans: list[Span] = []  # in start order (== span_id order)

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The span whose flow is executing right now (None at top level)."""
        return self._current

    def begin(
        self,
        name: str,
        category: str = "",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; parent defaults to the current dynamic scope."""
        if parent is None:
            parent = self._current
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            t0=self._clock(),
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current clock reading."""
        span.t1 = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def instant(self, name: str, category: str = "", **attrs: Any) -> Span:
        """A zero-duration marker span (failure detection, batch flush...)."""
        span = self.begin(name, category=category, **attrs)
        span.t1 = span.t0
        return span

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span (no-op at top level)."""
        if self._current is not None:
            self._current.attrs.update(attrs)

    def host_call(self, name: str, fn: Callable[..., Any], *args: Any, category: str = "") -> Any:
        """Run host-side work ``fn(*args)`` inline and return its result.

        Host compute takes no simulated time, so the simulator records no
        span for it; the wall-clock tracer overrides this to time it.
        """
        return fn(*args)

    # ------------------------------------------------------------------
    def traced(
        self,
        name: str,
        gen: Generator,
        category: str = "",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Generator:
        """Wrap a simulator flow in a span, maintaining the dynamic scope.

        The wrapper drives ``gen`` and installs the span as the tracer's
        current span only while ``gen``'s own code runs, restoring the
        previous scope at every suspension — concurrent processes never
        observe each other's spans.  ``parent`` pins the parent span
        explicitly (needed when the flow is handed to ``sim.process`` and
        starts outside the creator's dynamic scope); by default the parent
        is the scope at first resume.  The span closes when the flow
        completes, errors, or is closed by the simulator.
        """
        span: Span | None = None
        try:
            to_send: Any = None
            to_throw: BaseException | None = None
            while True:
                prev = self._current
                if span is None:
                    span = self.begin(name, category=category, parent=parent, **attrs)
                self._current = span
                try:
                    if to_throw is not None:
                        exc, to_throw = to_throw, None
                        item = gen.throw(exc)
                    else:
                        item = gen.send(to_send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._current = prev
                try:
                    to_send = yield item
                except BaseException as exc:  # forwarded into the flow
                    to_throw = exc
        finally:
            if span is not None and span.t1 is None:
                self.end(span)

    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def iter_tree(self, root: Span) -> Iterator[Span]:
        """Depth-first iteration over ``root`` and its descendants."""
        yield root
        for child in self.children(root):
            yield from self.iter_tree(child)

    def clear(self) -> None:
        self.spans.clear()
        self._current = None
        self._next_id = 1


class NullTracer:
    """Tracing disabled: every instrumentation point is a no-op.

    ``traced`` returns the wrapped generator *unchanged* — no wrapper
    frame, no span, no behaviour difference — so instrumented flows run
    exactly as they did before tracing existed.
    """

    enabled = False
    spans: list[Span] = []
    current: Span | None = None

    def begin(self, name: str, category: str = "", parent=None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span, **attrs: Any):
        return span

    def instant(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        return None

    def host_call(self, name: str, fn: Callable[..., Any], *args: Any, category: str = "") -> Any:
        return fn(*args)

    def traced(self, name, gen: Generator, category: str = "", parent=None, **attrs) -> Generator:
        return gen

    def roots(self) -> list[Span]:
        return []

    def children(self, span) -> list[Span]:
        return []

    def find(self, name: str) -> list[Span]:
        return []

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()
