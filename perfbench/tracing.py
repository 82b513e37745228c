"""Layer tracing for the traced benchmark run, installed from outside.

Nothing here edits the program. :func:`install` wraps the public entry
points of each layer (functions and class methods of ``repro.*``) with
small recorders and :meth:`Patcher.restore` puts the originals back.

Two kinds of wrapper exist:

* **Span wrappers** sit at layer boundaries: report section, world
  build, agent operation, ``Kernel.run``, meter (crypto provider)
  operation. Each call becomes a :class:`Span` with a name, start and
  end (``perf_counter_ns``), its parent span and a group id shared by
  the spans of one use case, play or sweep point.
* **Counter wrappers** sit on crypto primitives and on hot simulation
  calls. They never create spans: calls, bytes and busy nanoseconds are
  folded into counters on the innermost open span and into run totals.

Spans stay in memory; :meth:`Recorder.dump` writes them out once, at
the end of the run.
"""

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class Span:
    """One timed call across a layer boundary."""

    __slots__ = ("index", "name", "start", "end", "parent", "group",
                 "counters", "child_ns")

    def __init__(self, index: int, name: str, start: int,
                 parent: Optional["Span"], group: int) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.group = group
        self.counters: Dict[str, int] = {}
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus the part the span's children cover.

        The program is single-threaded, so children never overlap and
        their durations add up to the covered part.
        """
        return self.duration_ns - self.child_ns


class Recorder:
    """In-memory span tree plus run-wide counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, int] = defaultdict(int)
        self.world_keys = set()
        self._stack: List[Span] = []
        self._groups = 0

    def open(self, name: str, new_group: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_group or parent is None:
            self._groups += 1
            group = self._groups
        else:
            group = parent.group
        span = Span(len(self.spans), name, _now(), parent, group)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span.name)
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns

    def count(self, key: str, amount: int = 1) -> None:
        self.totals[key] += amount
        if self._stack:
            counters = self._stack[-1].counters
            counters[key] = counters.get(key, 0) + amount

    def span_stats(self, name: str):
        """``(calls, busy_ns, self_ns)`` over every span called ``name``."""
        calls = busy = own = 0
        for span in self.spans:
            if span.name == name:
                calls += 1
                busy += span.duration_ns
                own += span.self_ns
        return calls, busy, own

    def subtree_counters(self, root_prefix: str) -> Dict[str, Dict[str, int]]:
        """Counters rolled up to the nearest ancestor named ``root_prefix*``."""
        rolled: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        for span in self.spans:
            owner = span
            while owner is not None and not owner.name.startswith(
                    root_prefix):
                owner = owner.parent
            if owner is None:
                continue
            for key, value in span.counters.items():
                rolled[owner.name][key] += value
            rolled[owner.name]["spans." + span.name] += 1
        return rolled

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.index, "name": span.name,
                    "start_ns": span.start, "end_ns": span.end,
                    "parent": (span.parent.index
                               if span.parent is not None else None),
                    "group": span.group, "self_ns": span.self_ns,
                    "counters": span.counters,
                }, sort_keys=True) + "\n")


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Patcher:
    """Installs wrappers and can prove no unwrapped alias survives."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        #: id(original function) -> "module.qualname" for the check.
        self._originals: Dict[int, str] = {}
        self._methods: List[tuple] = []

    def function(self, module, name: str, make: Callable) -> None:
        """Wrap ``module.name`` and every ``repro.*`` global aliasing it."""
        original = getattr(module, name)
        wrapper = make(original)
        self._originals[id(original)] = "%s.%s" % (module.__name__, name)
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append(
                        lambda h=holder, a=attr: setattr(h, a, original))
                elif isinstance(value, (dict, list)):
                    # Dispatch tables such as ``repro.cli._ARTIFACTS``.
                    keys = (value.keys() if isinstance(value, dict)
                            else range(len(value)))
                    for key in list(keys):
                        if value[key] is original:
                            value[key] = wrapper
                            self._undo.append(
                                lambda c=value, k=key: c.__setitem__(
                                    k, original))

    def method(self, cls, name: str, make: Callable) -> None:
        """Wrap ``cls.name`` (plain, class- or static method)."""
        original = cls.__dict__[name]
        if isinstance(original, (classmethod, staticmethod)):
            function = original.__func__
            wrapper = type(original)(make(function))
        else:
            function = original
            wrapper = make(original)
        self._originals[id(function)] = "%s.%s.%s" % (
            cls.__module__, cls.__name__, name)
        setattr(cls, name, wrapper)
        self._methods.append((cls, name))
        self._undo.append(lambda: setattr(cls, name, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def unwrapped_references(self) -> List[str]:
        """Places in ``repro.*`` that still reach a wrapped original.

        Looks at module globals, one level into module-level
        containers, class attributes, and subclasses that override a
        wrapped method without being wrapped themselves (their calls
        would escape the recorder).
        """
        found = []
        originals = self._originals

        def unwrap(value):
            if isinstance(value, (classmethod, staticmethod)):
                return value.__func__
            return value

        for module in _repro_modules():
            for attr, value in vars(module).items():
                values = (value.values() if isinstance(value, dict)
                          else value if isinstance(value, (list, tuple))
                          else (value,))
                for item in values:
                    if id(unwrap(item)) in originals:
                        found.append("%s.%s -> %s" % (
                            module.__name__, attr,
                            originals[id(unwrap(item))]))
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        if id(unwrap(cvalue)) in originals:
                            found.append("%s.%s.%s -> %s" % (
                                module.__name__, value.__name__, cattr,
                                originals[id(unwrap(cvalue))]))
        wrapped = set(self._methods)
        for cls, name in self._methods:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                pending.extend(sub.__subclasses__())
                if (sub.__module__.startswith("repro")
                        and name in sub.__dict__
                        and (sub, name) not in wrapped):
                    found.append("%s.%s.%s overrides a wrapped method"
                                 % (sub.__module__, sub.__name__, name))
        return sorted(set(found))


# -- wrapper factories ---------------------------------------------------

def span_wrapper(recorder: Recorder, name: str, new_group: bool = False,
                 after: Optional[Callable] = None) -> Callable:
    """Factory: every call becomes a span; ``after(span, result, args)``."""
    def make(original):
        def wrapper(*args, **kwargs):
            span = recorder.open(name, new_group)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result
        wrapper.__wrapped__ = original
        return wrapper
    return make


def outermost_span_wrapper(recorder: Recorder, name: str,
                           depth: List[int]) -> Callable:
    """Span wrapper that records only the outermost of nested calls.

    ``MeteredCrypto`` overrides call ``PlainCrypto`` through ``super()``;
    the shared ``depth`` cell keeps one provider call one span.
    """
    def make(original):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            span = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(span)
                depth[0] -= 1
        wrapper.__wrapped__ = original
        return wrapper
    return make


def counter_wrapper(recorder: Recorder, calls: Optional[str] = None,
                    busy: Optional[str] = None,
                    octets: Optional[Callable] = None,
                    octets_key: Optional[str] = None,
                    depth: Optional[List[int]] = None) -> Callable:
    """Factory: fold a primitive call into counters on the open span.

    ``octets(args, result)`` gives the byte count for ``octets_key``.
    A shared ``depth`` cell makes nested calls of one primitive family
    (``cbc_encrypt`` calling ``cbc_encrypt_raw``) count once.
    """
    count = recorder.count

    def make(original):
        def wrapper(*args, **kwargs):
            if depth is not None:
                if depth[0]:
                    return original(*args, **kwargs)
                depth[0] += 1
            start = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                if depth is not None:
                    depth[0] -= 1
            if busy is not None:
                count(busy, _now() - start)
            if calls is not None:
                count(calls)
            if octets is not None:
                count(octets_key, octets(args, result))
            return result
        wrapper.__wrapped__ = original
        return wrapper
    return make
