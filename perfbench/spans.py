"""In-process span tracing by wrapping a program's module-level functions.

A Tracer replaces each target function at every binding that refers to
it — module globals (including names brought in with ``from x import
f``), module-level dicts such as dispatch tables, and class attributes —
with a wrapper that records a span (name, start, end, parent) and,
optionally, a computed size such as bytes or floating-point operations.
Leaving the ``with`` block puts every original back.

Spans are kept in memory on one stack, so the traced code must call the
targets from a single thread.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into Tracer.spans
    size: float = 0.0   # computed from argument/result shapes, never measured

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``attr`` of module ``module`` ("Class.method" allowed)."""

    module: str
    attr: str
    span: str
    sizer: object = None  # callable(args, kwargs, result) -> float


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restores: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, sizer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), None,
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if sizer is not None:
                span.size = float(sizer(args, kwargs, result))
            return result

        traced.__traced_by__ = self
        return traced

    # -- installing and restoring wrappers ---------------------------------

    def instrument(self, targets, package: str) -> None:
        """Wrap every target at each of its bindings in ``package``'s modules."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == package or name.startswith(package + "."))]
        for target in targets:
            owner = sys.modules.get(target.module)
            *cls_path, attr = target.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self.wrap(target.span, original, target.sizer)
            if cls_path:
                self._replace(owner, attr, wrapper, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper, original)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace_item(value, k, wrapper, original)

    def _replace(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._restores.append(lambda: setattr(owner, key, original))

    def _replace_item(self, mapping, key, wrapper, original) -> None:
        mapping[key] = wrapper
        self._restores.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._restores:
            self._restores.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- queries -----------------------------------------------------------

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def select(self, name: str, under: str | None = None,
               not_under: str | None = None) -> list[int]:
        """Indices of spans called ``name``, filtered by an ancestor's name."""
        chosen = []
        for i, span in enumerate(self.spans):
            if span.name != name:
                continue
            names = set(self.ancestors(i)) if under or not_under else ()
            if under and under not in names:
                continue
            if not_under and not_under in names:
                continue
            chosen.append(i)
        return chosen

    def total(self, indices) -> float:
        return sum(self.spans[i].duration for i in indices)

    def self_time(self, indices) -> float:
        """Durations minus those of their child spans.

        Spans come from one stack, so a span's children are disjoint and
        lie inside it.
        """
        chosen = set(indices)
        children = sum(span.duration for span in self.spans
                       if span.parent in chosen)
        return self.total(indices) - children


def leftover_wrappers(package: str) -> list[str]:
    """Bindings in ``package``'s modules that still hold a traced wrapper."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in vars(mod).items():
            values = [(key, value)]
            if isinstance(value, dict):
                values = [(f"{key}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, type):
                values += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [f"{name}.{k}" for k, v in values
                      if hasattr(v, "__traced_by__")]
    return found
