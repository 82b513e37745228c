"""Span/event tracer on the model's virtual cycle clock.

A :class:`Tracer` owns a monotonically advancing *virtual clock* measured
in CPU cycles: the cumulative cost of every
:class:`~repro.core.trace.OperationRecord` priced so far under the active
:class:`~repro.core.costs.CostTable` and
:class:`~repro.core.architecture.ArchitectureProfile`. Nothing ever reads
wall-clock time, so traces of the same seed are byte-identical across
machines and runs — instrumentation inherits the repository's
determinism contract (REP1xx) instead of fighting it.

Three record kinds:

* **operation spans** — emitted by :meth:`Tracer.on_record` (hooked into
  :class:`~repro.core.meter.MeteredCrypto`): one span per primitive
  batch, placed on the track of its protocol phase, covering exactly the
  cycles the cost model charges. The clock advances by that amount, so
  per-algorithm span totals reconcile *exactly* with
  :meth:`~repro.core.model.CostBreakdown.cycles_by_algorithm`.
* **structural spans** — opened with :meth:`Tracer.span` around protocol
  passes, transactions, install/consume flows. They take zero cycles
  themselves; their duration is whatever operations ran inside them.
* **events** — instantaneous marks (:meth:`Tracer.event`) for retries,
  backoff waits, fault injections, crashes, journal commits, recovery
  replays.

The default tracer everywhere is :data:`NULL_TRACER`, whose every method
is a constant no-op, so un-instrumented runs (and all pre-existing
artifacts) stay byte-identical.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.architecture import ArchitectureProfile, SW_PROFILE
from ..core.costs import CostTable, LinearCost, PAPER_TABLE1
from ..core.trace import OperationRecord

from .metrics import MetricsRegistry

#: Category stamped on spans emitted by :meth:`Tracer.on_record`; the
#: Chrome re-importer reconstructs the operation trace from these.
OPERATION_CATEGORY = "operation"

#: Category for structural (protocol/storage) spans.
STRUCTURE_CATEGORY = "structure"

#: Category for instantaneous events.
EVENT_CATEGORY = "event"

#: Default track for spans/events not tied to a protocol phase.
DEFAULT_TRACK = "main"


@dataclass(slots=True)
class Span:
    """One closed interval on the virtual cycle timeline."""

    name: str
    track: str
    category: str
    start: int
    end: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)
    index: int = 0
    #: ``index`` of the enclosing structural span (``None`` at top
    #: level). Maintained by the tracer's open-span stack so the
    #: profiler can fold spans into an exact call tree without
    #: re-inferring nesting from intervals (zero-width structural spans
    #: would make interval containment ambiguous).
    parent: Optional[int] = None

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one argument on the span."""
        self.args[key] = value

    @property
    def duration(self) -> int:
        """Cycles covered; 0 while the span is still open."""
        return (self.end - self.start) if self.end is not None else 0


@dataclass(slots=True)
class Event:
    """One instantaneous mark on the virtual cycle timeline."""

    name: str
    track: str
    ts: int
    args: Dict[str, Any] = field(default_factory=dict)
    index: int = 0


class Tracer:
    """Collects spans/events stamped with priced-cycle timestamps.

    ``profile`` and ``cost_table`` are fixed for the tracer's life: a
    tracer prices one run under one architecture.
    """

    enabled = True

    def __init__(self, profile: ArchitectureProfile = SW_PROFILE,
                 cost_table: CostTable = PAPER_TABLE1,
                 actor: str = "device") -> None:
        self.profile = profile
        self.cost_table = cost_table
        self.actor = actor
        self.now = 0
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._seq = 0
        self._open: List[Span] = []
        #: algorithm value -> (implementation, cost entry), on first use.
        self._pricing: Dict[str, Tuple[str, LinearCost]] = {}

    def advance_to(self, now: int) -> None:
        """Move the virtual clock forward to an externally-owned time.

        The simulation kernel (:mod:`repro.sim`) owns its own virtual
        timeline; this lets it stamp spans and events on a tracer at
        kernel time instead of cumulative priced-operation time. The
        clock never moves backwards — stamping an older time is a no-op,
        keeping exports monotonic.
        """
        if now > self.now:
            self.now = now

    # -- structural spans ------------------------------------------------
    def span(self, name: str, track: str = DEFAULT_TRACK,
             category: str = STRUCTURE_CATEGORY,
             **args: Any) -> "_SpanScope":
        """Open a span at the current virtual time; close it on exit.

        Use as ``with tracer.span(...) as span:``. The span itself
        consumes no cycles — its duration is the cycle cost of the
        operations priced inside the ``with`` block.
        """
        return _SpanScope((self, name, track, category, args))

    # -- events ----------------------------------------------------------
    def event(self, name: str, track: str = DEFAULT_TRACK,
              **args: Any) -> Event:
        """Record an instantaneous event at the current virtual time."""
        self._seq += 1
        event = Event(name, track, self.now, args, self._seq)
        self.events.append(event)
        return event

    # -- operation records (MeteredCrypto hook) --------------------------
    def on_record(self, record: OperationRecord) -> Span:
        """Price one trace record and advance the virtual clock.

        Called by :class:`~repro.core.meter.MeteredCrypto` for every
        primitive batch. Pricing uses exactly the cost entry that
        ``cost_table.cycles(record, implementation)`` uses in
        :class:`~repro.core.model.PerformanceModel`, so span totals and
        breakdown totals cannot disagree.
        """
        # ``_value_`` is the enum member's value without the ``.value``
        # descriptor call, and a str key hashes in C.
        algorithm = record.algorithm._value_
        pricing = self._pricing.get(algorithm)
        if pricing is None:
            implementation = self.profile.implementation(record.algorithm)
            pricing = self._pricing[algorithm] = (
                implementation,
                self.cost_table.cost(record.algorithm, implementation))
        implementation, cost = pricing
        cycles = cost.cycles(record.invocations, record.blocks)
        phase = record.phase._value_
        start = self.now
        self._seq += 1
        span = Span(record.label, phase, OPERATION_CATEGORY, start,
                    start + cycles, {
                        "algorithm": algorithm,
                        "phase": phase,
                        "label": record.label,
                        "invocations": record.invocations,
                        "blocks": record.blocks,
                        "implementation": implementation,
                        "cycles": cycles,
                    }, self._seq,
                    self._open[-1].index if self._open else None)
        self.spans.append(span)
        self.now = start + cycles
        return span

    # -- aggregate views -------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The run's counters and histograms, derived from its records.

        ``events.<name>`` counts events, ``ops.<algorithm>`` counts
        operation spans and ``cycles.<algorithm>`` is the histogram of
        their cycles. Built on each read, so recording stays cheap and
        the spans and events remain the only source of truth.
        """
        registry = MetricsRegistry()
        for span in self.operation_spans():
            algorithm = span.args["algorithm"]
            registry.counter("ops.%s" % algorithm)
            registry.histogram("cycles.%s" % algorithm, span.args["cycles"])
        for event in self.events:
            registry.counter("events.%s" % event.name)
        return registry

    def operation_spans(self) -> List[Span]:
        """Spans emitted from operation records, in emission order."""
        return [span for span in self.spans
                if span.category == OPERATION_CATEGORY]

    def cycles_by_algorithm(self) -> Dict[str, int]:
        """Total operation-span cycles per algorithm value string."""
        totals: Dict[str, int] = {}
        for span in self.operation_spans():
            key = span.args["algorithm"]
            totals[key] = totals.get(key, 0) + span.args["cycles"]
        return totals

    def cycles_by_track(self) -> Dict[str, int]:
        """Total operation-span cycles per track (protocol phase)."""
        totals: Dict[str, int] = {}
        for span in self.operation_spans():
            totals[span.track] = totals.get(span.track, 0) + span.duration
        return totals

    def tracks(self) -> Tuple[str, ...]:
        """All tracks in first-use order (stable across same-seed runs)."""
        seen: List[str] = []
        for item in sorted(self.spans + self.events,
                           key=lambda entry: entry.index):
            track = item.track
            if track not in seen:
                seen.append(track)
        return tuple(seen)


class _SpanScope(tuple):
    """The ``with`` scope of one structural span (:meth:`Tracer.span`).

    A ``(tracer, name, track, category, args)`` tuple, so making one runs
    no Python code. The span is stamped and pushed on entry, and the
    innermost open span is popped and closed on exit, exception or not.
    """

    __slots__ = ()

    def __enter__(self) -> Span:
        tracer, name, track, category, args = self
        stack = tracer._open
        tracer._seq += 1
        span = Span(name, track, category, tracer.now, None, args,
                    tracer._seq, stack[-1].index if stack else None)
        tracer.spans.append(span)
        stack.append(span)
        return span

    def __exit__(self, *exc: Any) -> bool:
        tracer = self[0]
        tracer._open.pop().end = tracer.now
        return False


class _NullSpan:
    """Inert span handle returned by :class:`NullTracer` contexts."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass


class _NullContext:
    """Reusable no-op context manager — zero allocation per use."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Do-nothing tracer: the default wired into every provider.

    Every method is a constant-time no-op that allocates nothing, so
    instrumented code paths cost one attribute lookup and one call when
    tracing is off — the overhead budget
    (:mod:`benchmarks.bench_obs_overhead`) holds it under 5 % on the
    protocol scenarios, and un-traced artifacts stay byte-identical.
    """

    enabled = False
    now = 0

    def span(self, name: str, track: str = DEFAULT_TRACK,
             category: str = STRUCTURE_CATEGORY,
             **args: Any) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, name: str, track: str = DEFAULT_TRACK,
              **args: Any) -> None:
        return None

    def on_record(self, record: OperationRecord) -> None:
        return None

    def advance_to(self, now: int) -> None:
        return None


#: Shared singleton — the default ``tracer`` everywhere.
NULL_TRACER = NullTracer()
