"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the program: each traced function is
replaced in its defining module and in every module that imported it by
name (``localtriplet.training.take_snapshot``, ``localtriplet.cli.purity_check``,
...), so calls between modules are caught too. Methods are patched on their
class, and each layer of a newly built ``EmbeddingNet`` gets its own
forward/backward wrapper. Nothing in ``src/`` changes, and ``uninstall``
puts every original back, so untraced cycles run the plain program.

Spans stay in memory as ``[name, start, end, parent]`` and are written out
when the run ends. A span's self time is its duration minus the durations
of its children; calls are strictly nested (one thread), so the children
never overlap.
"""
from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# module -> functions whose calls become spans named "<module>.<function>"
FUNCTIONS = {
    "mathops": ("pairwise_sq_dists", "pairwise_sq_dists_gram", "sq_dists_rowwise"),
    "knn": ("build_index", "take_snapshot", "query_knn", "knn_classify"),
    "mining": ("sample_local", "sample_uniform", "sample_hard"),
    "losses": ("combined_loss",),
    "network": ("save_checkpoint", "load_checkpoint"),
    "training": ("run_epoch", "evaluate_knn"),
    "data": ("make_blobs", "save_dataset", "load_dataset"),
    "verify": ("check_optimal_condition", "purity_check", "pca_reduce"),
    "cli": ("cmd_eval", "cmd_verify"),
}
METHODS = {"network": {"EmbeddingNet": ("forward", "backward", "embed"), "Adam": ("step",)}}
LAYER_KINDS = ("conv2d", "maxpool2", "dense")
# functions whose peak traced allocation is measured in the alloc cycle
ALLOC_SPANS = ("knn.take_snapshot", "verify.check_optimal_condition", "verify.purity_check")


class Tracer:
    """Collects spans, exact counters and allocation peaks while its
    wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._alloc_stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def timed(self, name, fn, after=None):
        """fn wrapped so that each call records a span; ``after(args,
        kwargs, result)`` runs once the span has ended."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _alloc(self, name, fn):
        # Nested measured calls (purity_check -> take_snapshot) share one
        # tracemalloc session: each frame keeps the highest peak seen before
        # an inner reset_peak, and the baseline current size at its start.
        frames = self._alloc_stack

        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frames.append([current, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                base, carried = frames.pop()
                peak = max(carried, tracemalloc.get_traced_memory()[1])
                self.peak_alloc[name] = max(self.peak_alloc[name], (peak - base) / 2**20)
                if frames:
                    frames[-1][1] = max(frames[-1][1], peak)
                if started:
                    tracemalloc.stop()
        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mode: str = "spans"):
        """Wrap every traced function in all modules that bind it. Mode
        "spans" times every call; mode "alloc" only measures the peak
        tracemalloc allocation of the ALLOC_SPANS functions, so that
        tracemalloc never slows the timed spans."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "localtriplet" or key.startswith("localtriplet."))]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"localtriplet.{short}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{short}.{fname}"
                if mode == "spans":
                    wrapped = self.timed(name, original, self._counter_hook(name))
                elif name in ALLOC_SPANS:
                    wrapped = self._alloc(name, original)
                else:
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        if mode != "spans":
            return
        for short, classes in METHODS.items():
            home = sys.modules[f"localtriplet.{short}"]
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for mname in methods:
                    name = f"{short}.{cname}.{mname}"
                    self._patch(cls, mname, self.timed(
                        name, getattr(cls, mname), self._counter_hook(name)))
        net_cls = sys.modules["localtriplet.network"].EmbeddingNet
        original_init = net_cls.__init__

        def init(net, *args, **kwargs):
            original_init(net, *args, **kwargs)
            for layer in net.layers:
                kind = layer.spec.kind
                if kind in LAYER_KINDS:
                    layer.forward = self.timed(f"network.{kind}.forward", layer.forward)
                    layer.backward = self.timed(f"network.{kind}.backward", layer.backward)
        self._patch(net_cls, "__init__", init)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, mode: str = "spans"):
        self.install(mode)
        try:
            yield self
        finally:
            self.uninstall()

    # -- exact counters ------------------------------------------------
    def _counter_hook(self, name):
        c = self.counters
        if name == "mining.sample_local":
            def hook(args, kwargs, t):
                # A local negative lies inside the anchor's neighborhood and a
                # local positive outside it; the uniform fallback is drawn
                # only when that local set is empty, so membership of the
                # drawn index tells which pool it came from.
                snapshot, _labels, anchor = args[:3]
                hood = snapshot.neighbor_ids[anchor]
                c[name + ".local_neg_draws"] += bool((hood == t.n).any())
                c[name + ".local_pos_draws"] += not bool((hood == t.p).any())
            return hook
        if name == "losses.combined_loss":
            def hook(args, kwargs, result):
                active = result[5]
                c[name + ".hinge_active"] += int(active.sum())
                c[name + ".triplets"] += int(active.size)
            return hook
        if name == "network.EmbeddingNet.forward":
            def hook(args, kwargs, result):
                c[name + ".samples"] += int(len(args[1]))
            return hook
        return None

    # -- results -------------------------------------------------------
    def self_times(self, first: int = 0, last: int | None = None):
        """{span name: (calls, self seconds)} over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return {name: (calls, s) for name, (calls, s) in out.items()}

    def durations(self, name: str, first: int = 0, last: int | None = None):
        return [end - start for n, start, end, _p in self.spans[first:last] if n == name]

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample, p in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]
