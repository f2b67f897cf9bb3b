"""Spans and counters recorded from outside the ``carms`` package.

A traced run rebinds selected ``carms`` functions to wrappers that record a
span (name, start, end, parent, work units) or bump a counter around each
call.  The wrappers live only in the benchmark: the package itself carries no
tracing code.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

# (defining module, attribute, span name, units(args, kwargs, result) or None).
# Units are the work a call did (rows, draws, bytes); for the two single-draw
# samplers they are 1 when ratio clipping engaged, so units / calls is the
# clip fraction.
# Every carms.* module that binds the same function object gets the wrapper, so
# e.g. _inverse_cdf_categories_batch is traced whether called through
# carms.sampling, carms.experiments or carms.selfcheck.
SPANS = [
    ("carms.copula", "_sample_dirichlet_copula_batch", "copula.sample", lambda a, k, r: a[0]),
    ("carms.copula", "_sample_gaussian_copula_batch", "copula.sample", lambda a, k, r: a[0]),
    ("carms.sampling", "_inverse_cdf_categories_batch", "sampling.categorize.inverse_cdf",
     lambda a, k, r: a[0]),
    ("carms.sampling", "_gumbel_categories_batch", "sampling.categorize.gumbel",
     lambda a, k, r: a[0]),
    ("carms.sampling", "bivariate_pmf_averaged", "sampling.pair_law", None),
    ("carms.sampling", "bivariate_pmf_entries", "sampling.pair_law", None),
    ("carms.sampling", "sample_antithetic_inverse_cdf", "sampling.single_draw.inverse_cdf",
     lambda a, k, r: int(r[1].clipped)),
    ("carms.sampling", "sample_antithetic_gumbel", "sampling.single_draw.gumbel",
     lambda a, k, r: int(r[1].clipped)),
    ("carms.estimators", "carms", "estimators.carms", None),
    ("carms.experiments", "_carms_estimates", "experiments.carms_core",
     lambda a, k, r: len(a[1])),
    ("carms.experiments", "_empirical_joint_batch", "experiments.empirical_joint",
     lambda a, k, r: len(a[0])),
    ("carms.experiments", "_iid_categories", "experiments.iid", lambda a, k, r: a[0]),
    ("carms.experiments", "_analytic_ratio_matrix", "experiments.ratios", None),
    ("carms.experiments", "run_correlation", "experiments.record", None),
    ("carms.experiments", "toy_objective", "oracle.table_build", None),
    ("carms.oracle", "TabulatedObjective.values_at", "oracle.values_at",
     lambda a, k, r: len(a[1]) if getattr(a[1], "ndim", 0) >= 3 else 1),
    ("carms.cli", "_write_records", "cli.write",
     lambda a, k, r: os.path.getsize(a[0]) if a[0] != "-" else 0),
]
# run_toy yields one record per next(); each next() is an experiments.record span.
GENERATORS = [("carms.experiments", "run_toy", "experiments.record")]
# make_gradient_estimator returns fn(rng, k); each call of that estimator is a
# span experiments.estimate.<method> over k * D (draw, dimension) units.
FACTORIES = [("carms.experiments", "make_gradient_estimator", "experiments.estimate")]
COUNTERS = [
    ("carms.sampling", "_categorize_batch", "sampling.categorize.groups"),
    ("carms.copula", "dirichlet_bivariate_cdf", "sampling.cdf.calls"),
]


class Tracer:
    """In-memory span recorder.

    Each span is [name, start, end, parent_index, units]; parent_index is -1
    for a span opened while no other span was open.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, units=0) -> None:
        self.spans[idx][2] = self.clock()
        self.spans[idx][4] = units
        self._stack.pop()

    def discard(self, idx: int) -> None:
        """Drop open span idx if nothing was recorded inside it, else close it."""
        if idx == len(self.spans) - 1:
            self._stack.pop()
            self.spans.pop()
        else:
            self.close(idx)

    def wrap_span(self, fn, name, units=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, units(args, kwargs, result) if units else 0)
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self.discard(idx)
                    return
                except BaseException:
                    self.close(idx)
                    raise
                self.close(idx)
                yield item

        return wrapper

    def wrap_factory(self, fn, prefix):
        @functools.wraps(fn)
        def wrapper(method, p, *args, **kwargs):
            estimate = fn(method, p, *args, **kwargs)
            dims = len(p) if getattr(p, "ndim", 1) == 2 else 1
            return self.wrap_span(estimate, f"{prefix}.{method}", lambda a, k, r: a[1] * dims)

        return wrapper

    def wrap_counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, spans=SPANS, generators=GENERATORS, factories=FACTORIES,
                counters=COUNTERS) -> None:
        """Rebind every listed function; record absent ones in self.missing."""
        plan = [(m, a, lambda fn, n=n, u=u: self.wrap_span(fn, n, u)) for m, a, n, u in spans]
        plan += [(m, a, lambda fn, n=n: self.wrap_generator(fn, n)) for m, a, n in generators]
        plan += [(m, a, lambda fn, n=n: self.wrap_factory(fn, n)) for m, a, n in factories]
        plan += [(m, a, lambda fn, n=n: self.wrap_counter(fn, n)) for m, a, n in counters]
        for module_name, attr, make in plan:
            if not self._rebind(module_name, attr, make):
                self.missing.append(f"{module_name}.{attr}")

    def _rebind(self, module_name: str, attr: str, make) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_path, _, leaf = attr.rpartition(".")
        if owner_path:  # a method: rebind it on its class
            owner = getattr(module, owner_path, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                return False
            self._set(owner, leaf, make(original))
            return True
        original = getattr(module, leaf, None)
        if not callable(original):
            return False
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            in_package = name == "carms" or name.startswith("carms.")
            if in_package and getattr(mod, leaf, None) is original:
                self._set(mod, leaf, wrapper)
        return True

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, [])):
            lo, hi = max(c_start, reach, start), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
