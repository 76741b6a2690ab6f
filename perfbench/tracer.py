"""Outside-in layer tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each layer named on the
roadmap's layer list from the outside, by patching module and class
attributes after import; nothing inside ``src/repro`` is changed.  Each
wrapped call is one span: its wall time and call count are added to the
layer's totals, and a span with no traced parent on its thread counts
toward ``top_level_s``, so end-to-end time minus ``top_level_s`` is the
time no traced layer accounts for.

Three binding details decide where a wrapper has to go:

- ``repro.core.recommend`` the module is shadowed on the package by the
  ``recommend`` function that ``repro.core`` re-exports, so modules are
  taken from ``importlib`` (``sys.modules``), never by attribute.
- ``TuningDaemon._recommendations`` is a ``staticmethod`` and must be
  re-wrapped as one.
- ``repro.core.sweep`` and ``repro.core.cache`` bind functions of other
  modules by name at import, so those functions are wrapped on every
  module that calls them, and methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: ``(module, attribute path, layer)`` for every plain function or method.
LAYER_FUNCTIONS = (
    ("repro.core.envspace", "EnvSpace.grid", "plan.grid"),
    ("repro.core.sweep", "equivalence_groups", "icv.group"),
    ("repro.runtime.executor", "RuntimeExecutor.__init__", "model.build"),
    ("repro.runtime.executor", "RuntimeExecutor.execute", "model.execute"),
    ("repro.core.sweep", "apply_measurement_noise", "noise"),
    ("repro.core.sweep", "sweep_records_to_block", "block.pack"),
    ("repro.core.cache", "sweep_records_to_block", "block.pack"),
    ("repro.core.sweep", "sweep_block_to_records", "block.unpack"),
    ("repro.core.cache", "sweep_block_to_records", "block.unpack"),
    ("repro.core.sweep", "_make_supervisor", "backend.spawn"),
    ("repro.core.sweep", "_make_nodes_backend", "backend.spawn"),
    ("repro.resilience.supervisor", "Supervisor._spawn", "backend.spawn"),
    ("repro.resilience.backends", "NodesBackend._spawn", "backend.spawn"),
    ("repro.core.cache", "SweepCache.get", "cache.get"),
    ("repro.core.cache", "SweepCache.put", "cache.put"),
    ("repro.core.dataset", "records_to_table", "dataset.records_to_table"),
    ("repro.core.dataset", "aggregate_runs", "dataset.aggregate"),
    ("repro.core.dataset", "enrich_with_speedup", "dataset.enrich"),
    ("repro.core.recommend", "best_variable_values", "recommend.best_values"),
    ("repro.core.influence", "influence_by_application", "influence.fit"),
    ("repro.core.influence", "influence_by_architecture", "influence.fit"),
    ("repro.core.influence", "influence_by_arch_application",
     "influence.fit"),
    ("repro.serve.app", "run_sweep", "serve.run_sweep"),
)

#: Generator methods: the span is the time the caller is blocked in
#: ``next()``, i.e. the parent waiting on the backend's result stream.
LAYER_GENERATORS = (
    ("repro.resilience.supervisor", "Supervisor.stream", "backend.wait"),
    ("repro.resilience.backends", "NodesBackend.stream", "backend.wait"),
)

#: Static methods, re-wrapped as static methods.
LAYER_STATICMETHODS = (
    ("repro.serve.app", "TuningDaemon._recommendations",
     "serve.recommendations"),
)


class Tracer:
    """Per-layer wall time, call count, first and slowest call; thread-safe."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.first_call_s: dict[str, float] = {}
        self.max_call_s: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0

    def _depth(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, elapsed: float, top: bool) -> None:
        with self._lock:
            self.seconds[layer] += elapsed
            self.calls[layer] += 1
            self.first_call_s.setdefault(layer, elapsed)
            self.max_call_s[layer] = max(self.max_call_s[layer], elapsed)
            if top:
                self.top_level_s += elapsed

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``."""
        stack = self._depth()
        stack.append(layer)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self._record(layer, elapsed, top=not stack)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed(layer, fn, *args, **kwargs)
        return wrapper

    def wrap_generator(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = self.timed(layer, next, gen)
                    except StopIteration:
                        return
                    yield item
            finally:
                gen.close()
        return wrapper

    def snapshot(self) -> dict:
        """JSON-ready totals (the traced child sends these home)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "first_call_s": dict(self.first_call_s),
                "max_call_s": dict(self.max_call_s),
                "top_level_s": self.top_level_s,
            }


def _owner_and_name(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in this process with ``tracer``."""
    for module_name, path, layer in LAYER_FUNCTIONS:
        owner, name = _owner_and_name(module_name, path)
        fn = (owner.__dict__[name] if isinstance(owner, type)
              else getattr(owner, name))
        setattr(owner, name, tracer.wrap(layer, fn))
    for module_name, path, layer in LAYER_GENERATORS:
        owner, name = _owner_and_name(module_name, path)
        fn = owner.__dict__[name]
        setattr(owner, name, tracer.wrap_generator(layer, fn))
    for module_name, path, layer in LAYER_STATICMETHODS:
        owner, name = _owner_and_name(module_name, path)
        fn = owner.__dict__[name].__func__
        setattr(owner, name, staticmethod(tracer.wrap(layer, fn)))
