"""Per-layer spans for the traced benchmark run, recorded from outside esdp.

``Tracer.install`` replaces the public functions the CLI calls with timing
wrappers; ``uninstall`` puts the originals back. Each wrapper adds its
self time (its duration minus that of wrapped calls inside it) to a layer,
and counts the work it saw in the call's arguments and result.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, layer). Names bound in esdp.cli are the ones the CLI
# calls; the others are looked up through their module at call time.
WRAPPED = [
    ("esdp.extractor", "tokenize", "extractor.tokenize_s"),
    ("esdp.extractor", "extract_items", "extractor.parse_s"),
    ("esdp.cli", "extract_corpus", "extractor.parse_s"),
    ("esdp.cli", "build_sequence_db", "transactions.build_s"),
    ("esdp.kernels", "prefixspan", "kernels.prefixspan_s"),
    ("esdp.cli", "mine_prefixspan", "mining.build_s"),
    ("esdp.cli", "adaptive_mine", "mining.build_s"),
    ("esdp.cli", "make_repository", "repository.make_s"),
    ("esdp.cli", "serialize", "repository.serialize_s"),
    ("esdp.cli", "parse", "repository.parse_s"),
    ("esdp.cli", "merge_update", "repository.merge_s"),
    ("esdp.cli", "abstract_query", "query.abstract_ms"),
    ("esdp.cli", "search", "query.search_ms"),
    ("esdp.cli", "render_skeleton", "query.skeleton_ms"),
    ("esdp.groum", "build_groums_for_methods", "groum.build_s"),
    ("esdp.groum", "patt_explorer", "groum.explore_s"),
]

TIME_LAYERS = sorted({layer for _, _, layer in WRAPPED}) + ["cli.self_s"]


def _count_kernel(counts, result, args):
    counts["kernels.calls"] += 1
    counts["kernels.raw_patterns"] += len(result[0])
    counts["_last_min_support"] = args[1]


def _count_adaptive(counts, result, args):
    counts["mining.patterns"] += len(result)
    counts["mining.adaptive_threshold"] = counts["_last_min_support"]


def _count_explorer(counts, result, args):
    counts["groum.patterns"] += len(result)
    counts["groum.lower_bound_patterns"] += sum(not p.frequency_is_exact for p in result)


def _counter(name, measure):
    def count(counts, result, args):
        counts[name] += measure(result)
    return count


COUNTERS = {
    "tokenize": _counter("extractor.tokens", len),
    "extract_items": _counter("extractor.files", lambda result: 1),
    "extract_corpus": _counter("extractor.items", lambda result: len(result[0])),
    "build_sequence_db": _counter("transactions.records", lambda db: len(db.records)),
    "prefixspan": _count_kernel,
    "mine_prefixspan": _counter("mining.patterns", len),
    "adaptive_mine": _count_adaptive,
    "parse": _counter("repository.patterns_parsed", lambda repo: len(repo.patterns)),
    "serialize": _counter("repository.store_bytes", len),
    "search": _counter("query.results", len),
    "build_groums_for_methods": _counter("groum.graphs", len),
    "patt_explorer": _count_explorer,
}

COUNT_LAYERS = sorted({"extractor.tokens", "extractor.files", "extractor.items",
                       "transactions.records", "kernels.calls", "kernels.raw_patterns",
                       "mining.patterns", "mining.adaptive_threshold",
                       "repository.patterns_parsed", "repository.store_bytes",
                       "query.results", "groum.graphs", "groum.patterns",
                       "groum.lower_bound_patterns"})


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0.0]  # time spent in wrapped calls, per open call

    def install(self) -> None:
        self._reset()
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, COUNTERS.get(attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str, count):
        stack, times, counts = self._stack, self.times, self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                times[layer] += elapsed - inner
            if count is not None:
                count(counts, result, args)
            return result

        return traced

    def collect(self, op_seconds: float) -> dict[str, float]:
        """Seconds per time layer (``cli.self_s``: the call's time outside
        every wrapped function) and the counts, for the call just made."""
        layers = {layer: self.times.get(layer, 0.0) for layer in TIME_LAYERS}
        layers["cli.self_s"] = op_seconds - self._stack[0]
        layers.update({name: self.counts.get(name, 0) for name in COUNT_LAYERS})
        return layers
