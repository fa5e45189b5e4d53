"""In-memory span tracer that wraps library functions by the names their
callers look them up by.

A target is ``"module:attribute.path"``.  Wrapping replaces that binding
only, so a function imported into several modules needs one target per
importing module.  Targets that no longer exist are recorded in
``Tracer.absent`` and skipped; every installed wrapper is restored by
``Tracer.installed`` even when the traced code raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One binding to wrap.

    ``layer`` is the span name; several targets may share one.
    ``annotate(args, kwargs, result)`` returns a dict stored on the span.
    ``op_root`` spans start a new operation id (one replication or one
    CLI command).  ``count_integrand`` wraps the first argument, an
    integrand, to count its evaluations instead of recording a span.
    """

    ref: str
    layer: str
    annotate: Optional[Callable] = None
    op_root: bool = False
    count_integrand: bool = False


class Span:
    __slots__ = ("layer", "start", "end", "parent", "op", "info")

    def __init__(self, layer, start, parent, op):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None

    def as_record(self) -> dict:
        return {
            "name": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "info": self.info,
        }


def _resolve(ref: str):
    """Return (owner, attribute name) for ``module:attr.path``, or None."""
    module_name, _, path = ref.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        layer = target.layer
        annotate = target.annotate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]].layer == layer:
                # same layer re-entered through a second binding
                return fn(*args, **kwargs)
            outer_op = tracer._op
            if target.op_root:
                tracer._op = tracer._next_op
                tracer._next_op += 1
            span = Span(layer, 0.0, stack[-1] if stack else -1, tracer._op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                tracer._op = outer_op
            span.end = time.perf_counter()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return wrapper

    def _integrand_wrapper(self, target: Target, fn: Callable) -> Callable:
        counters = self.counters
        calls_key = target.layer + ".calls"
        evals_key = target.layer.split(".")[0] + ".integrand_evals"
        counters.setdefault(calls_key, 0)
        counters.setdefault(evals_key, 0)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counters[calls_key] += 1

            def counted(x):
                counters[evals_key] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every resolvable target for the duration of the block."""
        saved = []
        try:
            for target in targets:
                found = _resolve(target.ref)
                if found is None:
                    self.absent.append(target.ref)
                    continue
                owner, attr = found
                own = vars(owner)
                saved.append((owner, attr, attr in own, own.get(attr)))
                fn = getattr(owner, attr)
                if target.count_integrand:
                    wrapper = self._integrand_wrapper(target, fn)
                else:
                    wrapper = self._span_wrapper(target, fn)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, had, original in reversed(saved):
                if had:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own
