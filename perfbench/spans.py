"""Spans around gaussbath's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function, in every gaussbath module
that binds it, with a wrapper that records a span (name, start, end, parent)
and the counts named below; ``uninstall`` puts the originals back.  A span's
self time is its duration minus the durations of its direct children.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict


def _solve_counts(counts, args, kwargs, traj):
    # levels and steps follow from the returned trajectory, so they stay
    # meaningful however the solver organises its refinement internally
    steps = traj.grid.steps
    final = round(traj.grid.t_max / traj.dt_used)
    levels = (final // steps).bit_length()
    counts["volterra.levels"] += levels
    counts["volterra.steps"] += sum(steps << k for k in range(levels))
    counts["volterra.final_steps"] += final


def _kernel_counts(counts, args, kwargs, result):
    counts["spectra.memory_kernel.samples"] += result.size if hasattr(result, "size") else 1


def _csv_counts(counts, args, kwargs, result):
    path, _, rows = args
    counts["scenario.rows"] += len(rows)
    counts["scenario.write_csv.bytes"] += os.path.getsize(path)


# (module, function, span name, layer whose self time the span counts to,
#  count hook run on (counts, args, kwargs, result))
TARGETS = (
    ("gaussbath.cli", "main", "cli.main", "cli.main", None),
    ("gaussbath.scenario", "run_scenario", "scenario.run_scenario", "scenario.format", None),
    ("gaussbath.scenario", "run_sweep", "scenario.run_sweep", "scenario.format", None),
    ("gaussbath.scenario", "run_modes", "scenario.run_modes", "scenario.format", None),
    ("gaussbath.scenario", "run_oracle", "scenario.run_oracle", "scenario.format", None),
    ("gaussbath.scenario", "write_csv", "scenario.write_csv", "scenario.write_csv", _csv_counts),
    ("gaussbath.volterra", "solve_amplitude", "volterra.solve_amplitude",
     "volterra.solve_amplitude", _solve_counts),
    ("gaussbath.volterra", "decay_rates", "volterra.decay_rates", "volterra.decay_rates", None),
    ("gaussbath.spectra", "memory_kernel", "spectra.memory_kernel", "spectra.memory_kernel",
     _kernel_counts),
    ("gaussbath.spectra", "level_shift_integral", "spectra.level_shift_integral",
     "spectra.level_shift_integral", None),
    ("gaussbath.boundmode", "find_bound_mode", "boundmode.find_bound_mode",
     "boundmode.find_bound_mode", None),
    ("gaussbath.lattice", "exact_amplitude", "lattice.exact_amplitude",
     "lattice.exact_amplitude", None),
    ("gaussbath.lattice", "discrete_bound_modes", "lattice.discrete_bound_modes",
     "lattice.discrete_bound_modes", None),
    ("gaussbath.gaussian", "measures_from_amplitude", "gaussian.measures_from_amplitude",
     "gaussian.measures_from_amplitude", None),
)
LAYERS = tuple(dict.fromkeys(target[3] for target in TARGETS))
COUNTED = ("spectra.level_shift_integral", "boundmode.find_bound_mode")
COUNTS = (
    "volterra.levels", "volterra.steps", "volterra.final_steps",
    "spectra.memory_kernel.samples", "scenario.rows", "scenario.write_csv.bytes",
) + tuple(name + ".calls" for name in COUNTED)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, func, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gaussbath"]
        for module_name, func_name, span_name, _, count in TARGETS:
            original = getattr(sys.modules.get(module_name), func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(span_name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, wall):
        """Per-layer self times and counts for one traced pass of ``wall`` seconds."""
        layer_of = {target[2]: target[3] for target in TARGETS}
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[layer_of[name]] += end - start - child_time[index]
            if parent is None:
                roots += end - start
        metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
        metrics["harness.self_s"] = wall - roots
        for name in COUNTS:
            metrics[name] = self.counts[name]
        return metrics
