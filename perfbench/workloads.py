"""The benchmark's workloads and the closed loop that measures them.

Every workload is a closed loop: one caller issues an operation (a training
epoch, an ``eval`` or a ``verify``), waits for it, then issues the next.

A run draws ``Workload.instances`` data instances from its seed and goes
round them, one cycle (set up, train, eval, verify) per instance, until
``seconds`` have passed; every instance gets at least one cycle. The cost
of a kd-tree query follows the learned geometry, so on the blob workloads
one instance's ``eval`` can take twice as long as another's: averaging over
several instances makes a run's figures depend less on which seed it drew.
A cycle repeated on the same instance must produce the same epoch log,
``eval_report.json`` and ``verify_summary.json`` bytes; a differing digest
counts as a failed operation, as do a non-finite loss, an exception and a
non-zero exit code.

Timings: ``setup_s`` is the median over all of the run's setups.
``epoch_s``, ``eval_s`` and ``verify_s`` are the median over all of the
run's samples, of every instance. Each sample is first scaled to the
nominal host speed (see ``Meter``); the unscaled figures are kept in
the result record.

The program is reached only through its public functions and its CLI
entry point; functions are looked up on their modules at call time so that
the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from localtriplet import cli, data, network, training

from tracing import ALLOC_SPANS, FUNCTIONS, LAYER_KINDS, METHODS, Tracer, percentile


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload. Blobs are made by ``data.make_blobs``; the
    image workload clips 784-d blobs (prototypes plus noise) to [0, 1] and
    shapes them as 28x28x1 images."""

    name: str
    classes: int
    per_class: int
    dim: int
    spacing: float
    std: float
    train_fraction: float
    arch: str
    method: str
    lr: float
    epochs: int               # per measured cycle, or of the setup's training run
    instances: int = 1        # data instances per run, all drawn from the run's seed
    images: bool = False
    train_in_setup: bool = False


# The run's seed draws the data (blob layout, samples, held-out split). The
# net's initial weights and the training order come from this fixed seed:
# kd-tree query cost follows the learned geometry, and varying the net's
# seed as well moved one workload's eval time by up to 3x from seed to seed.
NET_SEED = 0


# Set-ups per cycle: a set-up is short (2 ms to 0.3 s), so a few per cycle
# give setup_s, and on blobs3k-eval-verify epoch_s, enough samples.
SETUPS_PER_CYCLE = 3


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Data seeds of a run's instances; distinct run seeds share none."""
    return [seed * 1000 + j for j in range(workload.instances)]


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="blobs-lm_mining",
        classes=4, per_class=250, dim=8, spacing=0.4, std=0.04, train_fraction=0.8,
        arch="mlp:32,16", method="lm_mining", lr=0.005, epochs=5, instances=13),
    Workload(
        name="cnn-mm_hardmin",
        classes=10, per_class=120, dim=784, spacing=0.1, std=0.3, train_fraction=5 / 6,
        arch="cnn", method="mm_hardmin", lr=0.001, epochs=2, images=True),
    Workload(
        name="blobs3k-eval-verify",
        # 2250 training points keep the snapshot on its Gram-matrix branch
        # (above knn.EXACT_SNAPSHOT_MAX_N) with 750 queries per instance
        classes=4, per_class=750, dim=8, spacing=0.4, std=0.04, train_fraction=0.75,
        arch="mlp:32,16", method="mm", lr=0.005, epochs=3, instances=4,
        train_in_setup=True),
)}


# -- host speed -------------------------------------------------------------
# On a shared virtual machine the same code runs up to 2x slower from one
# minute to the next, and its speed can change within seconds, with no load
# of the benchmark's own. So a Meter times a fixed reference that
# calls nothing of the program just before and just after every timed
# operation, and every REFERENCE_INTERVAL_S while it runs, and scales the
# operation's time by NOMINAL_REFERENCE_S / (mean of those reference times):
# a sample taken on a slow stretch of the host reads as it would at the
# nominal speed, while a change to the program moves the scaled times as
# much as the raw ones. The time spent in references is left out of every
# operation's time. Epochs are metered one by one; the epochs of a set-up's
# training run share the set-up's references. The reference has three
# parts of about equal time, one for each kind of work the workloads do: an
# array copy larger than the L2 cache (memory traffic), a pure-Python loop
# (the interpreter) and a loop of small numpy operations on 16-element
# vectors (per-call overhead, as in the kd-tree search). Over fifteen runs
# of the three workloads, the three together kept the run-to-run spread of
# every time lower than any one part or pair did on most metrics (see
# README.md).
REFERENCE_BYTES = 8 * 2**20
REFERENCE_LOOPS = 25_000
REFERENCE_SMALL_OPS = 300
REFERENCE_REPEATS = 2         # the fastest of each part counts
REFERENCE_INTERVAL_S = 0.25
NOMINAL_REFERENCE_S = 0.0045  # the reference's time on an idle 2-vCPU Xeon host
TIMED = ("setup_s", "epoch_s", "eval_s", "verify_s")
_arrays = None


def reference_s() -> float:
    """Wall time of the fixed reference: for each of its three parts the
    fastest of a few runs, so that one interrupt does not count as a slow
    host."""
    global _arrays
    if _arrays is None:
        src = np.random.default_rng(0).standard_normal(REFERENCE_BYTES // 8)
        _arrays = (src, np.empty_like(src))
    src, dst = _arrays
    q = src[:16]
    best = [math.inf] * 3
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        t1 = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_LOOPS):
            acc += i * 0.5
        t2 = time.perf_counter()
        for i in range(REFERENCE_SMALL_OPS):
            d = q - src[16 * i:16 * i + 16]
            acc += float(np.sum(d * d))
        t3 = time.perf_counter()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
    return sum(best)


class Meter:
    """Times operations on a clock that leaves out the meter's own reference
    runs, and samples the host speed around and during each operation.

    ``start()`` takes a reference and arms a SIGALRM timer whose handler
    takes one every REFERENCE_INTERVAL_S; ``stop()`` disarms it, takes a
    closing reference and returns (seconds, mean reference seconds). With
    ``enabled`` false it is a plain clock and the reference is NaN.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._excluded = 0.0      # seconds spent in references so far
        self._refs: list[float] = []
        self._previous_handler = None

    def now(self) -> float:
        """perf_counter less the time spent in references."""
        return time.perf_counter() - self._excluded

    def _reference(self) -> None:
        t0 = time.perf_counter()
        self._refs.append(reference_s())
        self._excluded += time.perf_counter() - t0

    def _alarm(self, _signum, _frame) -> None:
        self._reference()

    def start(self, share_previous: bool = False) -> None:
        """Begin an operation; with ``share_previous`` the closing
        reference of the last one opens this one."""
        if self.enabled:
            self._refs = self._refs[-1:] if share_previous and self._refs else []
            if not self._refs:
                self._reference()
            self._previous_handler = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        self._t0 = self.now()

    def stop(self) -> tuple[float, float]:
        if not self.enabled:
            return self.now() - self._t0, math.nan
        # disarm first: a pending handler then runs before the clock is read
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = self.now() - self._t0
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._reference()
        return seconds, statistics.fmean(self._refs)


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def epoch_log_digest(reports) -> str:
    return sha256_bytes("".join(r.to_json_line() + "\n" for r in reports).encode())


def tail(values):
    """(value, percentile): the highest nearest-rank percentile with at
    least 10 samples beyond it, and never below the 50th (with fewer than
    20 samples that percentile would lie below it)."""
    n = len(values)
    p = max(50.0, 100.0 * (n - 10) / n)
    return percentile(values, p), p


@dataclass
class Tally:
    """Operations attempted and failed, samples and digests of one run."""

    attempted: int = 0
    failed: int = 0
    # key in TIMED -> [(seconds, reference seconds around the sample)]
    samples: dict = field(default_factory=lambda: {k: [] for k in TIMED})
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, key: str, seconds: float, reference: float) -> None:
        self.samples[key].append((seconds, reference))

    def seconds(self, key: str, scaled: bool) -> list[float]:
        """The samples under key, scaled to the nominal host speed or raw."""
        if not scaled:
            return [s for s, _ref in self.samples[key]]
        return [s * NOMINAL_REFERENCE_S / ref for s, ref in self.samples[key]]

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A correctness condition outside any single operation."""
        if not ok:
            self.problems.append(what)

    def same_digest(self, key: str, digest: str) -> bool:
        """Record the first digest under key; later ones must equal it."""
        return self.digests.setdefault(key, digest) == digest


class Bench:
    """One workload instance: its inputs, run directory and measurements."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, references: bool = True):
        self.w = workload
        self.seed = seed          # this instance's data seed
        self.run_dir = workdir / f"data{seed}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.tally = Tally()
        # the traced run reports raw span times and skips the references
        self.meter = Meter(enabled=references)

    # -- setup ---------------------------------------------------------
    def setup(self) -> list[float]:
        """Make the inputs and the net (and for train_in_setup, the trained
        run directory through ``localtriplet train``); returns the times of
        the epochs trained, if any."""
        w = self.w
        if w.train_in_setup:
            return self._setup_cli_train()
        full = data.make_blobs(w.classes, w.per_class, w.dim, w.spacing, w.std, self.seed)
        if w.images:
            full = data.Dataset(np.clip(full.samples, 0.0, 1.0), full.labels, (28, 28, 1))
        train_ds, test_ds, _ = data.split(full, w.train_fraction, 1.0 - w.train_fraction,
                                          self.seed)
        train_ds.split, test_ds.split = "train", "test"
        layers = network.mnist_cnn() if w.arch == "cnn" else network.mlp(
            *(int(d) for d in w.arch[4:].split(",")))
        self.net = network.EmbeddingNet(train_ds.sample_shape, layers, seed=NET_SEED)
        self.initial = [p.copy() for p in self.net.params]
        self.config = training.TrainConfig(method=w.method, e_max=w.epochs,
                                           convergence_eps=0.0, lr=w.lr, seed=NET_SEED)
        self.train_ds = train_ds
        data.save_dataset(self.run_dir / "train.npz", train_ds)
        data.save_dataset(self.run_dir / "test.npz", test_ds)
        h = hashlib.sha256(train_ds.fingerprint().encode() + test_ds.fingerprint().encode())
        for p in self.initial:
            h.update(p.tobytes())
        self.tally.check(self.tally.same_digest("setup", h.hexdigest()), "setup digest differs")
        return []

    def _setup_cli_train(self) -> list[float]:
        w = self.w
        stamps: list[float] = []
        original = cli.train

        def timed_train(*args, log_fn=None, **kwargs):
            stamps.append(self.meter.now())

            def log(report):
                stamps.append(self.meter.now())
                log_fn(report)
            return original(*args, log_fn=log, **kwargs)

        argv = ["train", "--method", w.method, "--data", "blobs",
                "--classes", str(w.classes), "--per-class", str(w.per_class),
                "--dim", str(w.dim), "--spacing", repr(w.spacing), "--std", repr(w.std),
                "--data-seed", str(self.seed), "--seed", str(NET_SEED),
                "--test-fraction", repr(1.0 - w.train_fraction), "--arch", w.arch,
                "--epochs", str(w.epochs), "--convergence-eps", "0", "--lr", repr(w.lr),
                "--out-dir", str(self.run_dir)]
        cli.train = timed_train
        try:
            ok = self._cli(argv)
        finally:
            cli.train = original
        epochs = [b - a for a, b in zip(stamps, stamps[1:])]
        log = (self.run_dir / "epochs.jsonl").read_bytes() if ok else b""
        ok = ok and len(epochs) == w.epochs and self._finite_losses(log.decode())
        ok = self.tally.same_digest("epoch_log", sha256_bytes(log)) and ok
        self.tally.op(ok, "setup training", w.epochs)
        return epochs

    @staticmethod
    def _finite_losses(jsonl: str) -> bool:
        return all(math.isfinite(json.loads(line)["mean_batch_loss"])
                   for line in jsonl.splitlines())

    # -- measured operations --------------------------------------------
    def _cli(self, argv) -> bool:
        """Run ``localtriplet <argv>`` in-process; True on exit code 0."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False
        if code != 0:
            print(f"localtriplet {argv[0]} exited {code}:\n{out.getvalue()}", file=sys.stderr)
        return code == 0

    def _train(self) -> None:
        w, t = self.w, self.tally
        self.net.set_params(self.initial)
        reports = []

        def log(report):
            t.add("epoch_s", *self.meter.stop())
            reports.append(report)
            self.meter.start(share_previous=True)
        self.meter.start()
        try:
            training.train(self.net, self.config, self.train_ds, log_fn=log)
            ok = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.meter.stop()   # the tail after the last epoch's report
        finite = [math.isfinite(r.mean_batch_loss) for r in reports]
        same = t.same_digest("epoch_log", epoch_log_digest(reports))
        for good in finite:
            t.op(good and same, "epoch")
        if not ok:
            t.op(False, "epoch raised")
        network.save_checkpoint(self.run_dir / "checkpoint.npz", self.net,
                                extra={"method": w.method, "k": None,
                                       "stop_reason": "max_epochs", "epochs_run": len(reports)})

    def _report_op(self, command: str, report_name: str, key: str) -> None:
        self.meter.start()
        ok = self._cli([command, "--run-dir", str(self.run_dir)])
        self.tally.add(key, *self.meter.stop())
        if ok:
            payload = (self.run_dir / report_name).read_bytes()
            ok = self.tally.same_digest(report_name, sha256_bytes(payload))
        self.tally.op(ok, command)

    def _eval(self) -> None:
        self._report_op("eval", "eval_report.json", "eval_s")

    def _verify(self) -> None:
        self._report_op("verify", "verify_summary.json", "verify_s")

    def _timed_setup(self) -> None:
        self.meter.start()
        try:
            epochs = self.setup()
        finally:
            seconds, ref = self.meter.stop()
        self.tally.add("setup_s", seconds, ref)
        for epoch in epochs:
            self.tally.add("epoch_s", epoch, ref)

    def steps(self) -> list:
        """The steps of one measured cycle, in order: SETUPS_PER_CYCLE
        set-ups (each one redoes the whole set-up), train (unless trained in
        set-up), eval, verify. Setting up again in every cycle spreads the
        set-up samples over the run, like the other samples."""
        ops = [self._timed_setup] * SETUPS_PER_CYCLE
        if not self.w.train_in_setup:
            ops.append(self._train)
        return ops + [self._eval, self._verify]

    def cycle(self) -> None:
        for step in self.steps():
            step()

    # -- correctness ---------------------------------------------------
    def check_outputs(self) -> tuple[float, float]:
        """Check eval accuracy against a brute-force KNN and the purity
        summary's counts; returns (accuracy, purity)."""
        report = json.loads((self.run_dir / "eval_report.json").read_text())
        summary = json.loads((self.run_dir / "verify_summary.json").read_text())
        expected = knn_accuracy_oracle(self.run_dir, report["k"])
        self.tally.check(report["accuracy"] == expected,
                         f"eval accuracy {report['accuracy']!r} != brute-force {expected!r}")
        counts = summary["pure"] + summary["impure"] + summary["outliers"]
        self.tally.check(counts == summary["n_queries"] and 0.0 <= summary["purity"] <= 1.0,
                         f"inconsistent verify summary {summary}")
        return report["accuracy"], summary["purity"]


def knn_accuracy_oracle(run_dir: Path, k: int) -> float:
    """KNN accuracy by an exhaustive scan: neighbors in ascending
    (distance, id) order, majority vote, ties to the class of the nearest
    tied neighbor. Distances use the same diff-square-sum arithmetic as the
    program, so the result must match exactly."""
    net, _ = network.load_checkpoint(run_dir / "checkpoint.npz")
    train_ds = data.load_dataset(run_dir / "train.npz")
    test_ds = data.load_dataset(run_dir / "test.npz")
    points = net.embed(train_ds.samples)
    queries = net.embed(test_ds.samples)
    preds = np.empty(test_ds.n, dtype=np.int64)
    for i, q in enumerate(queries):
        d = points - q
        dist = np.sqrt(np.sum(d * d, axis=1))
        nearest = train_ds.labels[np.argsort(dist, kind="stable")[:k]]
        classes, counts = np.unique(nearest, return_counts=True)
        tied = classes[counts == counts.max()]
        preds[i] = next(c for c in nearest if c in tied)
    return float(np.mean(preds == test_ds.labels))


def run_untraced(benches: list[Bench], seconds: float) -> dict:
    """Measured cycles round the instances for ``seconds``; the end-to-end
    metrics, with every time scaled to the nominal host speed."""
    run_steps(seconds, [step for bench in benches for step in bench.steps()])
    checked = [bench.check_outputs() for bench in benches]
    scaled = {k: [b.tally.seconds(k, scaled=True) for b in benches] for k in TIMED}
    unscaled = {k: [b.tally.seconds(k, scaled=False) for b in benches] for k in TIMED}
    references = [ref for b in benches for k in TIMED for _s, ref in b.tally.samples[k]]
    metrics, tail_pct = time_metrics(scaled)
    metrics |= {
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "knn_accuracy": (statistics.fmean(acc for acc, _ in checked), "ratio"),
        "purity": (statistics.fmean(pur for _, pur in checked), "ratio"),
    }
    info = {"epoch_s_tail_percentile": tail_pct, "instances": len(benches),
            **{f"{k}_samples": sum(map(len, v)) for k, v in scaled.items()},
            "reference_s": {"median": statistics.median(references),
                            "min": min(references), "max": max(references)},
            "unscaled": {k: v for k, (v, _unit) in time_metrics(unscaled)[0].items()},
            "samples": {k: {b.seed: v[j] for j, b in enumerate(benches)}
                        for k, v in scaled.items()}}
    return {"metrics": metrics, "info": info}


def time_metrics(samples) -> tuple[dict, float]:
    """The time metrics from each key's per-instance sample lists; also the
    percentile that ``epoch_s_tail`` reports."""
    pooled = {k: [s for group in groups for s in group] for k, groups in samples.items()}
    epoch_tail, tail_pct = tail(pooled["epoch_s"])
    return {
        "setup_s": (statistics.median(pooled["setup_s"]), "s"),
        "epoch_s": (statistics.median(pooled["epoch_s"]), "s"),
        "epoch_s_tail": (epoch_tail, "s"),
        "eval_s": (statistics.median(pooled["eval_s"]), "s"),
        "verify_s": (statistics.median(pooled["verify_s"]), "s"),
    }, tail_pct


def run_steps(seconds: float, steps) -> None:
    """Call ``steps`` round after round. After the first full round, stop
    before the first step whose last duration would end it past ``seconds``."""
    start = time.perf_counter()
    last = {}
    while True:
        for i, step in enumerate(steps):
            if len(last) == len(steps) and time.perf_counter() - start + last[i] > seconds:
                return
            t0 = time.perf_counter()
            step()
            last[i] = time.perf_counter() - t0


def run_traced(bench: Bench, seconds: float, tracer: Tracer) -> dict:
    """Untraced and traced cycles of one instance, alternating, for
    ``seconds``, then one cycle with only the allocation probes installed;
    the per-layer metrics of the traced cycle of median wall time."""
    plain, traced = [], []   # plain: wall; traced: (wall, first span, end span, counts)

    def plain_cycle():
        t0 = time.perf_counter()
        bench.cycle()
        plain.append(time.perf_counter() - t0)

    def traced_cycle():
        before = dict(tracer.counters)
        idx = len(tracer.spans)
        with tracer.installed("spans"):
            tracer.timed("cycle", bench.cycle)()
        _name, start, end, _parent = tracer.spans[idx]
        counts = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
        traced.append((end - start, idx, len(tracer.spans), counts))

    run_steps(seconds, [plain_cycle, traced_cycle])
    with tracer.installed("alloc"):
        bench.cycle()
    bench.check_outputs()

    wall, first, last, counts = sorted(traced, key=lambda c: c[0])[len(traced) // 2]
    bench.tally.check(all(c[3] == counts for c in traced),
                      "exact counters differ between traced cycles")
    times = tracer.self_times(first, last)
    knn_ms = [1e3 * d for d in tracer.durations("knn.query_knn", first, last)]
    metrics = layer_metrics(times, counts, tracer.peak_alloc, knn_ms)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (times["cycle"][1], "s")
    metrics["trace.overhead_s"] = (statistics.median(c[0] for c in traced)
                                   - statistics.median(plain), "s")
    info = {"traced_cycles": len(traced), "untraced_cycles": len(plain),
            "counts": dict(sorted(counts.items()))}
    return {"metrics": metrics, "info": info}


def layer_metrics(times, counts, peak_alloc, knn_ms) -> dict:
    """Per-layer metrics named as in BENCHMARK.json's per_layer list.
    Ratios are given with their counts; the base of the local draw ratios
    is ``mining.sample_local.calls``."""
    m = {}
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.{meth}" for mod, classes in METHODS.items()
              for cls, meths in classes.items() for meth in meths]
    for name in names:
        calls, s = times.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (s, "s")
    for kind in LAYER_KINDS:
        for direction in ("forward", "backward"):
            m[f"network.{kind}.{direction}_s"] = (
                times.get(f"network.{kind}.{direction}", (0, 0.0))[1], "s")
    for name in ALLOC_SPANS:
        m[f"{name}.peak_alloc_mb"] = (peak_alloc.get(name, 0.0), "MB")
    m["knn.query_knn.p50_ms"] = (percentile(knn_ms, 50) if knn_ms else 0.0, "ms")
    m["knn.query_knn.p99_ms"] = (percentile(knn_ms, 99) if knn_ms else 0.0, "ms")

    def ratio(num, base):
        return num / base if base else 0.0
    local_calls = m["mining.sample_local.calls"][0]
    for key in ("mining.sample_local.local_neg_draws", "mining.sample_local.local_pos_draws",
                "losses.combined_loss.hinge_active", "losses.combined_loss.triplets",
                "network.EmbeddingNet.forward.samples"):
        m[key] = (counts.get(key, 0), "count")
    for side in ("neg", "pos"):
        m[f"mining.sample_local.local_{side}_ratio"] = (
            ratio(m[f"mining.sample_local.local_{side}_draws"][0], local_calls), "ratio")
    m["losses.combined_loss.hinge_active_ratio"] = (
        ratio(m["losses.combined_loss.hinge_active"][0],
              m["losses.combined_loss.triplets"][0]), "ratio")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
