"""Span tracing of qgini's layers from outside the package.

A :class:`Tracer` replaces the public functions and value-type constructors
of each ``qgini`` module with timing wrappers, and puts the originals back on
``uninstall``. Module-level functions are replaced in every loaded ``qgini``
namespace that holds them, because ``gini``, ``cli`` and ``checks`` bind
their collaborators with ``from ... import``; methods and ``__init__`` are
replaced on the class, which every namespace shares.

Each wrapped call is one span. A span's self time is its duration minus the
time covered by the spans it encloses, so the self times of all spans inside
one ``cli.run`` add up to that call's duration. Only per-name totals are
kept: calls, self time and total time.
"""

import functools
import sys
import time

# (module, attribute, span name) for module-level functions.
FUNCTION_SPANS = (
    ("qgini.cli", "run", "cli"),
    ("qgini.checks", "run_property_checks", "checks"),
    ("qgini.gini", "gini_index", "gini.index"),
    ("qgini.gini", "gini_report", "gini.report"),
    ("qgini.lorenz", "lorenz_curve", "lorenz.curve"),
    ("qgini.qsystem", "pure_density", "qsystem.pure_density"),
    ("qgini.qsystem", "mix", "qsystem.conjugate_mix"),
    ("qgini.qsystem", "conjugate", "qsystem.conjugate_mix"),
    ("qgini.sampling", "random_density_matrix", "sampling"),
    ("qgini.sampling", "random_state_vector", "sampling"),
    ("qgini.serialize", "to_json", "serialize.to_json"),
    ("qgini.statefile", "load_state_file", "statefile.load"),
    ("qgini.uncertainty", "estimate_sup_gini", "uncertainty.estimate"),
    ("qgini.uncertainty", "example_state", "uncertainty.example_state"),
)

# (module, class, method, span name) for methods, patched on the class.
METHOD_SPANS = (
    ("qgini.qsystem", "QuantumSystem", "__init__", "qsystem.new_system"),
    ("qgini.qsystem", "QuantumSystem", "position_probs", "qsystem.probs"),
    ("qgini.qsystem", "QuantumSystem", "momentum_probs", "qsystem.probs"),
    ("qgini.qsystem", "QuantumSystem", "displacement", "qsystem.displacement"),
    ("qgini.qsystem", "QuantumSystem", "coherent_state", "qsystem.coherent_state"),
    ("qgini.qsystem", "StateVector", "__init__", "qsystem.state_vector"),
    ("qgini.qsystem", "UnitaryMatrix", "__init__", "qsystem.unitary"),
    ("qgini.qsystem", "DensityMatrix", "__init__", "qsystem.density"),
    ("qgini.qsystem", "ProbabilityDistribution", "__init__", "qsystem.distribution"),
    ("qgini.lorenz", "OrderingPermutation", "__init__", "lorenz.validate"),
    ("qgini.lorenz", "LorenzCurve", "__init__", "lorenz.validate"),
    ("qgini.uncertainty", "BoundSet", "__init__", "uncertainty.bounds"),
)


class SpanStats:
    """Totals for one span name."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Installs span wrappers into the loaded qgini modules and aggregates spans.

    Targets that a module no longer defines are skipped and listed in
    ``missing``, so the benchmark keeps running when the package is
    refactored; their metrics then read 0.
    """

    def __init__(self):
        self.stats = {}
        self.missing = []
        self._stack = []
        self._restore = []

    def _span(self, name, func):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = SpanStats()
                entry.calls += 1
                entry.self_s += elapsed - child
                entry.total_s += elapsed

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qgini" or name.startswith("qgini."))
        ]
        for module_name, attr, span in FUNCTION_SPANS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(span, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for module_name, cls_name, method, span in METHOD_SPANS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = None if cls is None else vars(cls).get(method)
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._span(span, original))

    def uninstall(self):
        # restore in reverse so a name patched twice ends at its original
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def get(self, name):
        return self.stats.get(name) or SpanStats()
