"""Per-layer tracing from outside the package.

``Tracer.install`` wraps each traced public function and puts the wrapper
in place of every reference to the original in the package's modules, so
calls between modules are seen as well as the benchmark's own calls.
Each call becomes a span (layer, start, end, parent) kept in memory;
``totals`` turns the spans into self times and counts at the end.
"""

from __future__ import annotations

import sys
import time
from functools import wraps


def _max_bits(snf) -> int:
    mats = (snf.D, snf.U, snf.V, snf.U_inv, snf.V_inv)
    return max(abs(x).bit_length() for m in mats if m is not None for row in m.entries for x in row)


# (module, function, span name, {counter: function(args, result) -> value})
TRACED = (
    ("intmat", "smith_normal_form", "intmat.smith_normal_form", {"max_bits": lambda a, r: _max_bits(r)}),
    ("intmat", "determinant", "intmat.determinant", {}),
    ("groups", "from_presentation", "groups.from_presentation", {}),
    ("groups", "pointed_is_isomorphic", "groups.pointed_is_isomorphic", {}),
    ("invariants", "invariant_triple", "invariants.invariant_triple", {}),
    ("invariants", "decide_coe", "invariants.decide", {}),
    ("invariants", "decide_flow", "invariants.decide", {}),
    ("shifts", "periodic_orbit_words", "shifts.periodic_orbit_words", {"words": lambda a, r: len(r)}),
    ("shifts", "count_period_points", "shifts.count_period_points", {}),
    ("shifts", "edge_shift", "shifts.edge_shift", {"states": lambda a, r: r.size}),
    ("shifts", "validate", "shifts.validate", {}),
    ("shifts", "higher_block", "shifts.higher_block", {}),
    ("cohomology", "orbit_sum", "cohomology.orbit_sum", {}),
    ("cohomology", "is_positive_class", "cohomology.is_positive_class", {"blocks": lambda a, r: len(a[1].values)}),
    ("realization", "base_matrix", "realization.base_matrix", {}),
    ("realization", "point_vector", "realization.point_vector", {}),
    ("realization", "tail_extension", "realization.tail_extension", {"states": lambda a, r: r.size}),
    ("realization", "realize", "realization.realize", {"states": lambda a, r: r[0].size}),
    ("fileio", "read_matrix_rows", "fileio.read_matrix_rows", {}),
    ("fileio", "read_function_file", "fileio.read_function_file", {}),
    ("cli", "main", "cli.main", {}),
)

# per-layer metrics: (name, unit, better); "calls" and "self_s" come from
# spans, the rest from the counters above or from the workload itself
PER_LAYER = (
    ("intmat.smith_normal_form.calls", "count", "lower"),
    ("intmat.smith_normal_form.self_s", "s", "lower"),
    ("intmat.smith_normal_form.max_bits", "bits", "lower"),
    ("intmat.determinant.calls", "count", "lower"),
    ("intmat.determinant.self_s", "s", "lower"),
    ("groups.from_presentation.calls", "count", "lower"),
    ("groups.from_presentation.self_s", "s", "lower"),
    ("groups.pointed_is_isomorphic.calls", "count", "lower"),
    ("groups.pointed_is_isomorphic.self_s", "s", "lower"),
    ("groups.pointed_is_isomorphic.undecided", "count", "lower"),
    ("invariants.invariant_triple.calls", "count", "lower"),
    ("invariants.invariant_triple.self_s", "s", "lower"),
    ("invariants.decide.self_s", "s", "lower"),
    ("shifts.periodic_orbit_words.self_s", "s", "lower"),
    ("shifts.periodic_orbit_words.words", "count", "lower"),
    ("shifts.count_period_points.calls", "count", "lower"),
    ("shifts.count_period_points.self_s", "s", "lower"),
    ("shifts.edge_shift.self_s", "s", "lower"),
    ("shifts.edge_shift.states", "states", "lower"),
    ("shifts.validate.self_s", "s", "lower"),
    ("shifts.higher_block.self_s", "s", "lower"),
    ("cohomology.orbit_sum.calls", "count", "lower"),
    ("cohomology.orbit_sum.self_s", "s", "lower"),
    ("cohomology.is_positive_class.self_s", "s", "lower"),
    ("cohomology.is_positive_class.blocks", "count", "lower"),
    ("realization.base_matrix.self_s", "s", "lower"),
    ("realization.point_vector.self_s", "s", "lower"),
    ("realization.tail_extension.self_s", "s", "lower"),
    ("realization.tail_extension.states", "states", "lower"),
    ("realization.realize.self_s", "s", "lower"),
    ("realization.realize.states", "states", "lower"),
    ("fileio.read_matrix_rows.self_s", "s", "lower"),
    ("fileio.read_function_file.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
)


class Tracer:
    """Spans and counters for one traced run, grouped by phase.

    Phase 0 is set-up; phases 1, 2, ... are the measured rounds.
    """

    def __init__(self, undecided_error: type):
        self.undecided_error = undecided_error
        self.spans = []  # (name, start, end, parent index or -1, phase)
        self.counters = []  # (name, value, phase)
        self.excluded = []  # seconds of counter work inside each span, not the layer's own
        self.phase = 0
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "markovshift" or name.startswith("markovshift.")]
        for module_name, func_name, span_name, counters in TRACED:
            original = getattr(sys.modules[f"markovshift.{module_name}"], func_name)
            wrapper = self._wrap(original, span_name, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, func, span_name: str, counters: dict):
        spans, stack, counter_log, excluded = self.spans, self._stack, self.counters, self.excluded
        undecided = self.undecided_error
        clock = time.perf_counter

        @wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            excluded.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except undecided:
                counter_log.append((span_name + ".undecided", 1, self.phase))
                raise
            finally:
                spans[index] = (span_name, start, clock(), parent, self.phase)
                stack.pop()
            if counters:
                started = clock()
                for counter, measure in counters.items():
                    counter_log.append((f"{span_name}.{counter}", measure(args, result), self.phase))
                if parent >= 0:
                    excluded[parent] += clock() - started
            return result

        return traced

    def totals(self, rounds: int) -> dict:
        """Set-up once plus the mean round: self time and calls per layer, and counters.

        Set-up and round sums are kept apart so that a count repeated in
        every round divides back to the same integer whatever ``rounds`` is.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        sums = ({}, {})  # set-up, rounds
        peaks: dict = {}

        def add(key, value, phase):
            part = sums[phase > 0]
            part[key] = part.get(key, 0) + value

        for k, (name, start, end, parent, phase) in enumerate(self.spans):
            add(name + ".calls", 1, phase)
            add(name + ".self_s", end - start - child_time[k] - self.excluded[k], phase)
        for name, value, phase in self.counters:
            if name.endswith(".max_bits"):
                peaks[name] = max(peaks.get(name, 0), value)
            else:
                add(name, value, phase)
        out = dict(sums[0])
        for key, value in sums[1].items():
            out[key] = out.get(key, 0) + value / rounds
        out.update(peaks)
        return out
