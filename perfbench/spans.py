"""In-memory span tracing of the affinefdr modules, installed from outside.

The tracer wraps the public functions of each module (and a few named
methods) and rebinds every module-level name that refers to the original,
so calls made through `from .x import f` bindings and through module
attributes are both recorded.  Nothing under src/ is edited; `uninstall`
restores every original binding.

A span is (name, parent index, start, end).  Self time of a span is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "simulate", "curves", "hjmm", "realization", "admissibility",
          "cones", "modelfile")

# (module, class, method): methods that carry a layer metric of their own
METHODS = (("hjmm", "CirModel", "initial_set"), ("hjmm", "CirModel", "model_data"),
           ("hjmm", "TwoFactorModel", "initial_set"))


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children.

    `spans` is a sequence of (name, parent, start, end) with parent an index
    into `spans` or -1.  Child intervals are clipped to the parent's
    interval and merged, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), st in zip(spans, self_times(spans)):
        totals[name] += st
    return dict(totals)


class Tracer:
    """Records spans and counts for wrapped callables while installed.

    `hooks` maps a span name to a function (tracer, args, kwargs, result)
    that adds work counts for that call to `counts`, or keys to the sets in
    `distinct`.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._stack = []

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of each layer module of `package`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers = {}  # id of original -> wrapper; the originals stay alive
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is None or meth not in vars(cls):
                continue  # a method that is gone reads as zero
            self._patches.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
