"""Span tracing at decpir's module boundaries, installed from outside the package.

The tracer replaces, for the duration of a traced run, every module attribute
through which a caller looks up a boundary function (``decpir.retrieval`` looks
up ``capacity_classical`` in its own namespace, ``decpir.analysis`` in its own),
so the package source is never edited.  A boundary whose function is missing
from every listed module is reported as absent instead of failing the run, and
``uninstall`` puts every original attribute back.

Each call records one span ``(name, start_ns, end_ns, parent, op)``; spans stay
in memory and are reduced once the run ends.  Counts are read from return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

# Span name -> modules whose attribute of that function name some caller looks
# up.  The function's attribute name is the last component of the span name.
BOUNDARIES = {
    "retrieval.simulate_trials": ("decpir.retrieval",),
    "retrieval.retrieve_file": ("decpir.retrieval",),
    "model.build_file_store": ("decpir.retrieval",),
    "placement.sample_placement": ("decpir.retrieval",),
    "model.partition_by_storage_set": ("decpir.retrieval",),
    "protocol.generate_query_plan": ("decpir.retrieval", "decpir.privacy"),
    "protocol.answer_queries": ("decpir.retrieval",),
    "protocol.decode_desired": ("decpir.retrieval",),
    "protocol.plan_transcripts": ("decpir.privacy",),
    "protocol.structural_privacy_histogram": ("decpir.privacy",),
    "privacy.transcript_distribution_test": ("decpir.privacy",),
    "privacy.two_sample_chisquare": ("decpir.privacy",),
    "analysis.capacity_classical": ("decpir.analysis", "decpir.retrieval"),
    "analysis.capacity_decentralized": ("decpir.analysis", "decpir.retrieval"),
    "analysis.centralized_envelope": ("decpir.analysis",),
    "analysis.converse_bound_realization": ("decpir.analysis", "decpir.retrieval"),
    "analysis.expected_size_mass": ("decpir.analysis",),
    "analysis.expected_converse_bound": ("decpir.analysis",),
    "analysis.uniform_profile": ("decpir.analysis",),
}


def _observe_plan(tracer: "Tracer", plan) -> None:
    counts = tracer.counts[tracer.op]
    counts["protocol.queries"] += plan.total_queries
    shape = (plan.num_replicas, plan.num_files, plan.desired)
    shapes = tracer.shapes[tracer.op]
    if shape in shapes:
        counts["protocol.plan_shape_repeats"] += 1
    shapes.add(shape)


def _observe_partition(tracer: "Tracer", partition) -> None:
    tracer.counts[tracer.op]["model.storage_sets"] += len(partition.entries)


# Span name -> reader of exact counts from the call's return value.
OBSERVERS = {
    "protocol.generate_query_plan": _observe_plan,
    "model.partition_by_storage_set": _observe_partition,
}


class Tracer:
    """Boundary spans and return-value counts for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.shapes: dict[int, set] = defaultdict(set)
        self.absent: set[str] = set()
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                try:
                    observe(self, result)
                except (AttributeError, TypeError):
                    # The return type changed shape; report the count absent.
                    self.absent.add(name + ":counts")
            return result

        return traced

    def install(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for name, modules in BOUNDARIES.items():
            attr = name.rsplit(".", 1)[1]
            found = False
            for module_name in modules:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                setattr(module, attr, wrappers[id(original)])
                self._patched.append((module, attr, original))
                found = True
            if not found:
                self.absent.add(name)
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[int, Counter]:
        """Per op, the self time in ns and the call count of each span name.

        Self time is a span's duration minus the time its child spans cover;
        with one thread, sibling spans never overlap, so that is the sum of
        the children's durations.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name + ".ns"] += end - start - covered[index]
            out[op][name + ".calls"] += 1
        return out
