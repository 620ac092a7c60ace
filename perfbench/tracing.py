"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` wraps public functions of the program from the
outside (class methods or module attributes at the site the caller
looks them up) and records one span per call: name, start, end and the
index of the enclosing span. Nothing is written while the workload
runs; the spans stay in parallel lists and are folded into per-name
and per-layer totals when the run ends.

The workloads are single-threaded closed loops, and the only coroutine
wrapped (the serve round job) runs alone on its event loop, so spans
nest strictly and one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Tracer", "self_times", "layer_of"]

#: a span name, or a function of the call's positional arguments
NameLike = Union[str, Callable[[Tuple[Any, ...]], str]]
#: called with (tracer, args, result) after a wrapped call returns
OnResult = Callable[["Tracer", Tuple[Any, ...], Any], None]


def layer_of(name: str) -> str:
    """Layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]


def self_times(
    starts: List[float], ends: List[float], parents: List[int]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so covered time is never counted twice.
    """
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        intervals = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
        covered = 0.0
        cur_s, cur_e = intervals[0]
        for s, e in intervals[1:]:
            if s > cur_e:
                covered += max(0.0, cur_e - cur_s)
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        covered += max(0.0, cur_e - cur_s)
        out[p] -= covered
    return out


class Tracer:
    """Record spans around wrapped calls; :meth:`uninstall` undoes
    every wrap."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: plain event counts taken at the same boundaries
        self.counts: Counter[str] = Counter()
        #: exact quantities observed on call results (max kept)
        self.values: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def keep_max(self, key: str, value: float) -> None:
        if value > self.values.get(key, float("-inf")):
            self.values[key] = value

    # -- installing wrappers ----------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: NameLike,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = (
            owner.__dict__[attr]
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        tracer = self
        name_of = name if callable(name) else (lambda _args: name)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                i = tracer.begin(name_of(args))
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.end(i)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result

            wrapper: Any = traced_async
        else:

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                i = tracer.begin(name_of(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(i)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result

            wrapper = traced
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def count_calls(self, owner: type, attr: str, key: str) -> None:
        """Count calls of a method without recording spans (for hot,
        trivially short calls such as event emission)."""
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding -----------------------------------------------------------
    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, busy_s, self_s)`` over all spans."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: Dict[str, List[float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i]
            row[2] += selfs[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def by_layer(self) -> Dict[str, Tuple[float, float]]:
        """``layer -> (busy_s, self_s)``.

        Busy time counts a layer's outermost spans only (spans with no
        ancestor in the same layer), so a layer calling itself through
        another layer is not counted twice; self time is the layer's
        spans minus everything their children cover.
        """
        selfs = self_times(self.starts, self.ends, self.parents)
        layers = [layer_of(n) for n in self.names]
        bits: Dict[str, int] = {}
        mask = [0] * len(layers)
        out: Dict[str, List[float]] = {}
        for i, layer in enumerate(layers):
            bit = bits.setdefault(layer, 1 << len(bits))
            p = self.parents[i]
            above = (mask[p] | bits[layers[p]]) if p >= 0 else 0
            mask[i] = above
            row = out.setdefault(layer, [0.0, 0.0])
            if not above & bit:
                row[0] += self.ends[i] - self.starts[i]
            row[1] += selfs[i]
        return {k: (v[0], v[1]) for k, v in out.items()}
