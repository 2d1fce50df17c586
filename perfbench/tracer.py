"""In-memory span tracer that wraps varest's public functions from outside.

``from .model import build_w`` binds ``build_w`` separately in every module
that imports it, so a function is wrapped at each module attribute that holds
it, and each wrapper remembers its binding site.  A span records the function,
its site, start and end (``perf_counter_ns``), the parent span and the dataset
id the benchmark set.  Spans stay in memory until :meth:`Tracer.write`.

Names that do not exist (renamed or merged by a refactor) are reported in
:attr:`Tracer.absent` instead of failing the run.  Only public names are ever
wrapped, so the untraced run never depends on the tracer.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Wraps ``targets`` (``"module.function"`` under ``varest``) on install.

    ``measures`` maps a target to ``f(tracer, args, kwargs, result)`` that adds
    computed quantities with :meth:`add`; ``on_enter`` maps a target to
    ``f(tracer, args, kwargs)`` run before the call (used to refine the
    dataset id).  A measure that no longer fits the function's signature
    marks its quantity broken instead of raising.
    """

    def __init__(self, targets, measures=None, on_enter=None):
        self.targets = tuple(targets)
        self.measures = dict(measures or {})
        self.on_enter = dict(on_enter or {})
        self.spans: list[tuple] = []
        self.quantities: dict[str, int] = defaultdict(int)
        self.broken: set[str] = set()
        self.absent: list[str] = []
        self.dataset = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "varest" or name.startswith("varest."))]
        for target in self.targets:
            modname, fname = target.rsplit(".", 1)
            home = sys.modules.get(f"varest.{modname}")
            original = getattr(home, fname, None)
            if fname.startswith("_") or not callable(original):
                self.absent.append(target)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        site = module.__name__.removeprefix("varest.")
                        setattr(module, attr, self._wrap(target, site, original))
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def add(self, quantity: str, amount: int) -> None:
        self.quantities[quantity] += amount

    def _wrap(self, name, site, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        measure = self.measures.get(name)
        enter = self.on_enter.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                self._guard(name, enter, args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, site, start, end, parent, self.dataset))
            if measure is not None:
                self._guard(name, measure, args, kwargs, result)
            return result

        return wrapper

    def _guard(self, name, hook, *hook_args):
        try:
            hook(self, *hook_args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            self.broken.add(name)

    def summary(self) -> dict:
        """Per function: calls, inclusive ns, self ns, and calls per site."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, site, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "sites": {}})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - child_ns[sid]
            row["sites"][site] = row["sites"].get(site, 0) + 1
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "site", "start_ns", "end_ns", "parent", "dataset")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
