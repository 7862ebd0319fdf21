"""In-memory spans around the calls into each skewsaw module.

``Tracer.install`` replaces every public function of the traced modules
by a wrapper that records a span ``(name, start, end, parent)``.  Names
bound elsewhere by ``from .walks import ...`` are replaced too, so a call
made through ``observable``, ``series``, ``cli`` or the package namespace
is seen.  ``Tracer.uninstall`` puts the original objects back.

Two kinds of callable are left alone:

* per-item helpers (``HOT``), called once per histogram key or per
  cell; a span per call would cost more than the work it measures, so
  their time stays in the caller's self time;
* ``weights`` and ``geometry``, which have no layer of their own yet;
  ``critical_weights`` and ``ParallelogramDomain.side_of`` are counted
  in the self time of whichever span calls them.

A wrapper calls the original object, so an ``lru_cache`` keeps exactly
the entries it would hold without tracing; the span is marked ``cold``
when the call raised the cache's miss count.  A generator function gets
a leaf span from the call to exhaustion, with the number of items it
yielded; the consumer's own work between items falls inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("walks", "observable", "series", "honeycomb", "loops", "cli")

HOT = frozenset({
    "walks.profile_weight", "walks.state_weight",
    "loops.state_pairs", "loops.state_weight_field", "loops.cell_state_weight",
})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 at the top
    cold: bool = False   # an lru_cache miss happened inside the call
    count: int | None = None  # items yielded, or walks visited

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_of(result) -> int | None:
    walks = getattr(result, "walks", None)
    return walks if isinstance(walks, int) else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        return sid

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        info = getattr(fn, "cache_info", None)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = self._open(name)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    spans[sid].end = time.perf_counter()
                    spans[sid].count = n
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info else 0
            sid = self._open(name)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[sid]
                span.end = time.perf_counter()
                span.cold = bool(info) and info().misses > misses
            span.count = _count_of(result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "skewsaw" or k.startswith("skewsaw.")]
        for layer in LAYERS:
            mod = sys.modules[f"skewsaw.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in HOT:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(name, obj)
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            self._patches.append((other, key, obj))
                            setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, obj in reversed(self._patches):
            setattr(mod, key, obj)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for sid, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(sid, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out
