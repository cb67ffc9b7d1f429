"""Per-module spans recorded from outside the program.

``Recorder.installed()`` wraps the public functions and methods of the
measured layers of ``semitoric`` for the duration of a ``with`` block and
puts the originals back when it ends.  A function is rebound in the module
that defines it and in every ``semitoric`` module that imported it by name,
because a caller looks the name up in its own module; methods are patched
on their class, so every instance sees the wrapper.  The program itself is
not edited.

Each span aggregates ``calls``, ``s`` (time inside the call, children
included) and ``self_s`` (``s`` minus the time of the spans it opened), plus
the number of calls that ended in an exception.  Spans opened while no
other span is open are top-level; their total time is ``top_s``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

PACKAGE = "semitoric"
LAYERS = ("models", "tridiag", "lattice", "invariants", "pipeline", "cli")

# Counters summed at a span boundary: span -> counter of len(returned value).
COUNTERS = {
    "tridiag.eigs_sym_tridiagonal": "tridiag.eig_rows",
    "models.build_blocks": "models.blocks_built",
    "models.joint_spectrum": "models.joint_points",
}


def _noop():
    return None


def span_cost(calls: int = 20000, clock=time.perf_counter) -> float:
    """Seconds one span adds to a call, measured on a function that does
    nothing: the tracing overhead of a unit is about this times its spans."""
    traced = Recorder(clock).wrap("noop", _noop)
    t0 = clock()
    for _ in range(calls):
        traced()
    t1 = clock()
    for _ in range(calls):
        _noop()
    t2 = clock()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def layer_of(module_name: str) -> str | None:
    """``semitoric.invariants.counting`` -> ``invariants``; None if unmeasured."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
        return parts[1]
    return None


class Recorder:
    """Span totals of one traced unit of work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}     # name -> [calls, s, self_s, errors]
        self.counts: dict[str, float] = {}
        self.top_s = 0.0
        self._open: list[float] = []         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name``."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        counter = COUNTERS.get(name)
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                stats[3] += failed
                if open_spans:
                    open_spans[-1] += dur
                else:
                    self.top_s += dur
            if counter is not None:
                self.counts[counter] = self.counts.get(counter, 0) + len(out)
            return out

        return span

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped: dict[int, tuple[object, object]] = {}   # id(original) -> (original, wrapper)
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer is None:
                continue
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not obj.__name__.startswith("_"):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{obj.__name__}", obj))
                elif isinstance(obj, type):
                    self._patch_methods(layer, obj, mod.__file__)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch_methods(self, layer: str, cls: type, source: str) -> None:
        # Only methods written in the module: dataclass-generated ones are
        # compiled from a string and carry no work of the program.
        for attr, fn in list(vars(cls).items()):
            if not isinstance(fn, types.FunctionType) or fn.__code__.co_filename != source:
                continue
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif not attr.startswith("_"):
                name = f"{layer}.{cls.__name__}.{attr}"
            else:
                continue
            self._patch(cls, attr, fn, self.wrap(name, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def metrics(self) -> dict[str, float]:
        """Flat ``<span>.{calls,s,self_s}``, ``<layer>.errors`` and counters."""
        out: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
        for name, (calls, s, self_s, errors) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
            out[f"{name.split('.')[0]}.errors"] += errors
        for counter in COUNTERS.values():
            out[counter] = self.counts.get(counter, 0)
        rows = out["tridiag.eig_rows"]
        out["tridiag.kept_ratio"] = out["models.joint_points"] / rows if rows else 0.0
        return out
