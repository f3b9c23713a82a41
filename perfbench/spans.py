"""In-memory span tracer that wraps eimrb functions from outside the package.

A span is recorded at each wrapped call: site name, start, end, parent
span and the benchmark phase it ran in.  A site is wrapped where its
caller looks it up, because ``from .fem import solve_sparse`` copies the
name into the importing module: wrapping ``eimrb.fem.solve_sparse`` alone
would miss every call made through ``eimrb.nonlinear.solve_sparse``.
A binding that no longer exists is skipped and listed in ``missing``
instead of failing the run, so the tracer keeps working while the
package is refactored.
"""

import functools
import importlib
import inspect
import time
from contextlib import contextmanager


def resolve(path):
    """Return ``(owner, attribute)`` for a dotted path such as
    ``eimrb.rb.ReducedModel.solve``, or None if any part is missing."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not callable(getattr(owner, parts[-1], None)):
            return None
        return owner, parts[-1]
    return None


class Patches:
    """Replaces bindings with wrappers and puts the originals back."""

    def __init__(self):
        self.missing = []
        self._undo = []

    def wrap(self, path, make_wrapper):
        found = resolve(path)
        if found is None:
            self.missing.append(path)
            return
        owner, attr = found
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _iterations(result):
    """Newton iteration count from a solver result, if it carries one:
    ``(field, SolveStats)`` for truth solves, ``RbSolution`` for reduced."""
    if isinstance(result, tuple) and len(result) == 2:
        return getattr(result[1], "iterations", None)
    return getattr(result, "newton_iters", None)


def _mu_of(fn, args, kwargs):
    try:
        mu = inspect.signature(fn).bind(*args, **kwargs).arguments.get("mu")
    except (TypeError, ValueError):
        return None
    return None if mu is None else [float(v) for v in mu]


class Span:
    __slots__ = ("site", "phase", "parent", "start", "end", "iters", "error")

    def __init__(self, site, phase, parent, start):
        self.site = site
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = start
        self.iters = None
        self.error = None


class Tracer:
    """Spans kept in memory; ``summary`` aggregates them per phase and site."""

    def __init__(self):
        self.spans = []
        self.phase_name = "none"
        self.patches = Patches()
        self._stack = []

    @contextmanager
    def phase(self, name):
        previous, self.phase_name = self.phase_name, name
        try:
            with self.span("phase." + name):
                yield
        finally:
            self.phase_name = previous

    @contextmanager
    def span(self, site):
        record = self._open(site)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, site):
        record = Span(site, self.phase_name,
                      self._stack[-1] if self._stack else None,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record):
        record.end = time.perf_counter()
        self._stack.pop()

    def install(self, sites):
        """Wrap every binding in ``sites``: {site name: [dotted paths]}."""
        for site, paths in sites.items():
            for path in paths:
                self.patches.wrap(path, self._wrapper_factory(site))

    def uninstall(self):
        self.patches.restore()

    def _wrapper_factory(self, site):
        def make(fn):
            def traced(*args, **kwargs):
                record = self._open(site)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    record.error = (type(exc).__name__, _mu_of(fn, args, kwargs))
                    raise
                finally:
                    self._close(record)
                record.iters = _iterations(result)
                return result
            return traced
        return make

    def summary(self):
        """{phase: {site: stats}} with calls, total and self seconds,
        iteration counts of successful calls, and failures."""
        child_time = {}
        for record in self.spans:
            if record.parent is not None:
                key = id(record.parent)
                child_time[key] = child_time.get(key, 0.0) + (record.end - record.start)
        out = {}
        for record in self.spans:
            stats = out.setdefault(record.phase, {}).setdefault(record.site, {
                "calls": 0, "s": 0.0, "self_s": 0.0, "iters": [], "failures": 0})
            duration = record.end - record.start
            stats["calls"] += 1
            stats["s"] += duration
            stats["self_s"] += duration - child_time.get(id(record), 0.0)
            if record.error is not None:
                stats["failures"] += 1
            elif record.iters is not None:
                stats["iters"].append(record.iters)
        return out

    def failures(self):
        """[(phase, site, exception class, mu)] for every failed call."""
        return [(r.phase, r.site, r.error[0], r.error[1])
                for r in self.spans if r.error is not None]
