"""Per-layer tracing from outside the program.

The tracer replaces chosen lrpoly functions and methods with wrappers that
time each call as a span.  Modules import functions by name (``lr`` calls its
own binding of ``enumerate_lr_tableaux``, ``double_sym`` its own
``_mono_mul``), so every module-level and class-level binding of a wrapped
object is replaced, not only the one in the defining module.

Spans are aggregated in memory per name (call count and self time) rather
than kept one by one: the hot layers make 10^5 to 10^6 spans in one pass.
Self time is a span's duration minus the time covered by its direct child
spans, so recursive memoized functions (``_schur_sym_branch``,
``_reduce_row``) that nest spans of their own name are counted once.
"""

import sys
import time


class Stat:
    """Aggregate of one span name: calls, self seconds and an observed tally."""

    __slots__ = ("calls", "self_s", "tally", "peak")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.tally = 0  # sum of an observed property of the results
        self.peak = 0  # maximum of an observed property of the arguments


class Tracer:
    """Wraps lrpoly callables with span or count wrappers and restores them."""

    def __init__(self):
        self.stats = {}
        self._stack = [0.0]  # child-time accumulators; index 0 is the root
        self._patches = []  # (namespace, attribute, original, wrapper)

    def span(self, name, module, qualname, observe=None):
        """Time every call of ``module.qualname`` as a span called ``name``.

        ``observe(stat, args, result)``, if given, runs after each call to
        update the stat's tally or peak.
        """
        stat = self.stats[name] = Stat()
        original = _resolve(module, qualname)
        if original is None:
            return
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                stack[-1] += duration
                stat.calls += 1
                stat.self_s += duration - children
            if observe is not None:
                observe(stat, args, result)
            return result

        self._patch_bindings(original, wrapper)

    def count(self, name, module, qualname):
        """Count calls of ``module.qualname`` without timing them.

        For leaf functions called about 10^6 times per pass, where a full
        span would swamp the run.
        """
        stat = self.stats[name] = Stat()
        original = _resolve(module, qualname)
        if original is None:
            return

        def wrapper(*args):
            stat.calls += 1
            return original(*args)

        self._patch_bindings(original, wrapper)

    def _patch_bindings(self, original, wrapper):
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._patches.append((namespace, attr, original, wrapper))

    def restore(self):
        """Put every original back; True iff no wrapper is left anywhere."""
        for namespace, attr, original, _ in reversed(self._patches):
            setattr(namespace, attr, original)
        wrappers = {id(w) for _, _, _, w in self._patches}
        clean = all(
            vars(ns).get(attr) is original for ns, attr, original, _ in self._patches
        ) and not any(
            id(value) in wrappers
            for ns in _namespaces()
            for value in vars(ns).values()
        )
        self._patches = []
        return clean

    def bindings_patched(self):
        return len(self._patches)


def _resolve(module, qualname):
    """The object at ``module.qualname`` (dotted within the module), or None.

    A name a later version of the program drops is skipped, and its stats
    read zero, so the benchmark keeps running across refactors.
    """
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def _namespaces():
    """Every lrpoly module and every class those modules define."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "lrpoly" or name.startswith("lrpoly."))
    ]
    classes = [
        value
        for m in modules
        for value in vars(m).values()
        if isinstance(value, type) and value.__module__ == m.__name__
    ]
    return modules + classes
