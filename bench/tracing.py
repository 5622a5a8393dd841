"""Span recording around orbiforge's layers, from outside the package.

`install` wraps every public function of each layer module at every module
that binds it (`todd_coxeter` is bound separately in `wallpaper`, `knotcusp`,
`verify` and the package root), so a span knows the module it was called
through.  A few hot methods get count-only wrappers instead of spans.  Spans
live in memory as `[name, site, start, end, parent, op]` and are written out
when the run ends.  `uninstall` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("exactgeom", "fpgroup", "cosetenum", "lattice", "wallpaper",
          "knotcusp", "verify")

# Methods called so often that a span each would swamp the recording: count
# only.  (module, class, method, counter name, whether to add len(args[1])
# as letters)
COUNTED_METHODS = (
    ("exactgeom", "Isometry", "__mul__", "exactgeom.isometry_mul", False),
    ("cosetenum", "CosetTable", "trace", "cosetenum.trace", True),
    ("wallpaper", "ModelGroup", "evaluate", "wallpaper.evaluate", True),
    ("lattice", "Lattice2", "reduce_mod", "lattice.reduce_mod", False),
)
# Methods and cached properties that are stages of their own.
SPAN_METHODS = (
    ("cosetenum", "CosetTable", "validate"),
    ("cosetenum", "CosetTable", "schreier_generators"),
    ("wallpaper", "SubgroupHandle", "schreier_images"),
    ("wallpaper", "SubgroupHandle", "point_group"),
    ("wallpaper", "SubgroupHandle", "lattice"),
    ("wallpaper", "SubgroupHandle", "classes"),
)
NAME, SITE, START, END, PARENT, OP = range(6)


class Recorder:
    """In-memory spans and counters; records only while `enabled`."""

    def __init__(self):
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self.enabled = False

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def span_wrapper(self, name: str, site: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = [name, site, time.perf_counter(), 0.0,
                    rec.stack[-1] if rec.stack else -1, rec.op]
            rec.spans.append(span)
            rec.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                rec.stack.pop()
            if name == "cosetenum.todd_coxeter":
                rec.counts["cosetenum.todd_coxeter.cosets"] += result.index
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable, letters: bool = False) -> Callable:
        counts = self.counts
        rec = self
        calls, letter_key = name + ".calls", name + ".letters"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.enabled:
                counts[calls] += 1
                if letters:
                    counts[letter_key] += len(args[1])
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def package_modules() -> list[tuple[str, Any]]:
    """(short name, module) for the package and every loaded submodule."""
    return sorted((name.rpartition(".")[2], mod) for name, mod in sys.modules.items()
                  if mod is not None and (name == "orbiforge" or name.startswith("orbiforge.")))


def bindings(fn: Callable) -> list[tuple[str, Any, str]]:
    """(site, module, attribute) for every package-level name bound to fn."""
    return [(site, mod, attr) for site, mod in package_modules()
            for attr, val in list(vars(mod).items()) if val is fn]


def public_functions(module) -> list[str]:
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and not name.startswith("_"))


def patch(undo: list[tuple], owner: Any, attr: str, new: Any) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def install(rec: Recorder) -> list[tuple]:
    """Wrap the layers; returns the undo list for `uninstall`."""
    layers = dict(package_modules())
    undo: list[tuple] = []
    for layer in LAYERS:
        mod = layers[layer]
        for fname in public_functions(mod):
            fn = getattr(mod, fname)
            qual = f"{layer}.{fname}"
            for site, binder, attr in bindings(fn):
                patch(undo, binder, attr, rec.span_wrapper(qual, site, fn))
    for layer, cls_name, meth, counter, letters in COUNTED_METHODS:
        cls = getattr(layers[layer], cls_name)
        patch(undo, cls, meth, rec.count_wrapper(counter, vars(cls)[meth], letters))
    for layer, cls_name, meth in SPAN_METHODS:
        cls = getattr(layers[layer], cls_name)
        attr = vars(cls)[meth]
        qual = f"{layer}.{cls_name}.{meth}"
        if isinstance(attr, functools.cached_property):
            patch(undo, attr, "func", rec.span_wrapper(qual, layer, attr.func))
        else:
            patch(undo, cls, meth, rec.span_wrapper(qual, layer, attr))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


# -- derived times -------------------------------------------------------------

def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def totals(spans: list[list[Any]]) -> tuple[dict[tuple[str, str], float],
                                             dict[tuple[str, str], float]]:
    """(inclusive, self) seconds per (name, site).  Inclusive time counts
    only the outermost span of a name, so nested calls are not counted
    twice."""
    selfs = self_times(spans)
    inclusive: Counter = Counter()
    exclusive: Counter = Counter()
    for i, span in enumerate(spans):
        key = (span[NAME], span[SITE])
        exclusive[key] += selfs[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            inclusive[key] += span[END] - span[START]
    return dict(inclusive), dict(exclusive)
