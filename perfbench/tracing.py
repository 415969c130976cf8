"""Spans around calls into flowcalc's modules, installed from the benchmark.

``Tracer.installed()`` replaces each name in ``TARGETS`` with a wrapper that
records a span (operation id, span id, parent span id, name, start, end) and
restores the originals on exit.  The names are the ones the callers look up
at call time, so ``cli.evaluate`` and ``measures.evaluate`` are wrapped
separately; a class is wrapped by a subclass whose public methods record
spans.  A name that no longer exists is skipped and its layer reported as
untraced.

Span times are CPU time (``clock_ns``).  A span's self time is its
duration minus the time covered by its child spans.  Spans nest (the program is single-threaded), so self times are
computed as the spans close; every span lies inside one ``bench.op`` span
opened by the harness, so the self times of all layers plus ``bench``
add up to the traced time.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import thread_time_ns

# CPU time, not wall time: on a shared virtual machine the host preempts
# the guest (steal time), which stretches wall times of the same work by
# tens of percent from run to run but is not charged as CPU time.  Thread
# CPU time, because the process CPU clock advances only at scheduler ticks
# while a CPU-time interval timer is armed (see ``hostspeed.py``); the
# benchmark process has one thread.
clock_ns = thread_time_ns

# (module, attribute the callers use, layer, function label)
TARGETS = [
    ("flowcalc.cli", "main", "cli", "main"),
    ("flowcalc.cli", "parse", "dsl", "parse"),
    ("flowcalc.dsl", "parse", "dsl", "parse"),
    ("flowcalc.cli", "load_config", "config", "load_config"),
    ("flowcalc.cli", "NameResolver", "config", "NameResolver"),
    ("flowcalc.cli", "evaluate", "engine", "evaluate"),
    ("flowcalc.engine", "evaluate", "engine", "evaluate"),
    ("flowcalc.measures", "evaluate", "engine", "evaluate"),
    ("flowcalc.marginal", "evaluate", "engine", "evaluate"),
    ("flowcalc.cli", "effect", "measures", "effect"),
    ("flowcalc.measures", "effect", "measures", "effect"),
    ("flowcalc.cli", "marginalize", "marginal", "marginalize"),
    ("flowcalc.marginal", "marginalize", "marginal", "marginalize"),
    ("flowcalc.marginal", "recovery_condition", "marginal", "recovery"),
    ("flowcalc.cli", "recovery_equivalence_suite", "marginal", "suite"),
    ("flowcalc.cli", "enumerate_orderings", "orderings", "enumerate"),
]


class Tracer:
    """In-memory spans plus per-span-name call counts and self times."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.untraced: list[str] = []
        self.op = 0
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._seen_texts: set[str] = set()

    def forget_texts(self) -> None:
        """Forget parsed texts: each CLI command is a fresh process, and each
        unit of ``query-mix`` a fresh caller."""
        self._seen_texts.clear()

    def enter(self, name: str) -> list:
        """Open a span; pass the returned frame to ``exit``."""
        span_id = len(self.spans) + len(self._stack)
        frame = [span_id, name, 0, 0]
        self._stack.append(frame)
        frame[2] = clock_ns()
        return frame

    def exit(self, frame: list) -> None:
        end = clock_ns()
        stack = self._stack
        stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        self.spans.append((self.op, span_id, parent, name, start, end))

    def _observe(self, name: str, args, result) -> None:
        if name == "dsl.parse":
            text = args[0]
            self.counts["parse_repeats"] += text in self._seen_texts
            self._seen_texts.add(text)
        elif name == "engine.evaluate":
            self.counts["invalid"] += not result.valid
        elif name == "marginal.suite":
            self.counts["accepted"] += result.n_random + result.n_constructed
            self.counts["redrawn"] += (result.n_redrawn_invalid + result.n_redrawn_ambiguous
                                       + result.n_redrawn_infeasible)
        elif name == "orderings.enumerate":
            self.counts["permutations"] += len(result.permutations)
            self.counts["grid_points"] += result.n_grid_points
            self.counts["classes"] += len(result.classes)
            self.counts["witnesses"] += len(result.witnesses)
            self.counts["fold_points"] += len(result.permutations) * result.n_grid_points
            self.counts["fold_steps"] += len(result.permutations) * len(result.permutations[0]) * result.n_grid_points

    def _wrap_function(self, fn, name: str):
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_class(self, cls, name: str):
        methods = {
            attr: self._wrap_function(value, f"{name}.{attr}")
            for attr, value in vars(cls).items()
            if callable(value) and (attr == "__init__" or not attr.startswith("_"))
        }
        return type(cls.__name__, (cls,), methods)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        for module_name, attr, layer, label in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing = f"{module_name}.{attr} ({layer})"
                if missing not in self.untraced:
                    self.untraced.append(missing)
                continue
            name = f"{layer}.{label}"
            wrap = self._wrap_class if isinstance(original, type) else self._wrap_function
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self, layer: str) -> tuple[int, int]:
        """Calls and self nanoseconds summed over one layer's span names."""
        prefix = layer + "."
        calls = sum(n for name, n in self.calls.items() if name.startswith(prefix))
        self_ns = sum(n for name, n in self.self_ns.items() if name.startswith(prefix))
        return calls, self_ns

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times in nanoseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in sorted(self.spans, key=lambda s: s[1]):
                handle.write("\t".join(map(str, span)) + "\n")
