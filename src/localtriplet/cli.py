"""Command-line workflow: train, eval, verify, compare, export-scatter.

Every command is deterministic given its flags, seed, and input files.
Each option is declared once, in OPTIONS, and COMMANDS lists the options
each command takes, as flags and as keys of a ``key = value`` config file
(the long flag names, dashes or underscores). A value comes from its flag,
else the config file, else (eval and verify) the run's manifest.json
config, else the built-in default. Exit codes: 0 ok, 2 configuration
error, 3 data error, 4 numeric failure. main builds only the named
command's parser: each argparse flag costs a help formatter and a
terminal-size query, and all six commands' flags took a fifth of eval's
time on an 800-point run.

Run artifacts live under ``runs/<timestamp>-<name>/`` (override the root
with LOCALTRIPLET_RUNS_DIR or the directory with --out-dir): a manifest,
dataset caches, the checkpoint, a deterministic epoch log, per-epoch phase
timings (``timings.jsonl``, which varies from run to run), and reports.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import zipfile
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .atomic import atomic_open
from .data import (
    Classes,
    Dataset,
    check_blob_config,
    load_dataset,
    load_mnist_idx,
    make_blobs,
    save_dataset,
    split,
    stratified_subset,
)
from .knn import choose_k
from .losses import LossWeights
from .network import (
    BLAS_THREADS,
    CPUS,
    STAGE_THREADS,
    EmbeddingNet,
    load_checkpoint,
    mlp,
    mnist_cnn,
    save_checkpoint,
)
from .training import (
    METHODS,
    DivergedError,
    TrainConfig,
    embed_finite,
    evaluate_knn,
    train,
)
from .verify import (
    check_optimal_condition,
    pca_reduce,
    purity_check,
    write_scatter_csv,
    write_violations_csv,
)


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", 9912422),
    "train_labels": ("train-labels-idx1-ubyte", 28881),
    "test_images": ("t10k-images-idx3-ubyte", 1648877),
    "test_labels": ("t10k-labels-idx1-ubyte", 4542),
}
MNIST_MIRROR = "https://storage.googleapis.com/cvdf-datasets/mnist/"


class Option(NamedTuple):
    """One option: the value type (str, int or float), default, help text,
    allowed values and whether the flag is required. Its flag is --name
    with dashes; its config-file key is the name with dashes or underscores."""

    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False


OPTIONS = {
    "data": Option(str, "blobs", "dataset family (default blobs)", ("blobs", "mnist")),
    "train_dir": Option(str, None, "directory holding the standard IDX files (mnist)"),
    "subset": Option(int, None, "stratified training-subset size (mnist)"),
    "test_subset": Option(int, None, "stratified test-subset size (mnist)"),
    "val_fraction": Option(float, 0.0, "validation fraction carved from training data"),
    "classes": Option(int, 3, "blob classes"),
    "per_class": Option(int, 150, "blob samples per class"),
    "dim": Option(int, 8, "blob dimensionality"),
    "spacing": Option(float, 12.0, "minimum blob center distance"),
    "std": Option(float, 1.0, "blob cluster standard deviation"),
    "data_seed": Option(int, 1234, "seed for data generation/splits"),
    "test_fraction": Option(float, 1 / 3, "held-out fraction for blob data"),
    "method": Option(str, "lm_mining", choices=METHODS),
    "arch": Option(str, "auto", '"auto", "cnn", or "mlp:D1,D2,..." embedding stack'),
    "k": Option(int, None, "neighbor count (default ceil(sqrt(n)))"),
    "batch_size": Option(int, 128),
    "epochs": Option(int, 50, "maximum epochs"),
    "convergence_eps": Option(float, 1e-4),
    "lr": Option(float, 1e-4),
    "seed": Option(int, 0),
    "w_lm": Option(float, 1000.0),
    "w_ms": Option(float, 1.0),
    "w_md": Option(float, 1.0),
    "w_ss": Option(float, 0.0),
    "w_sd": Option(float, 1.0),
    "c_b": Option(float, 3.0),
    "eps": Option(float, 1e-3, "small hinge constant"),
    "margin_m": Option(float, 1_000_000.0, "fixed margin for mm methods"),
    "out_dir": Option(str),
    "run_dir": Option(str, required=True),
    "which": Option(str, "test", choices=("train", "test")),
    "config": Option(str, help="key = value config file"),
}

# the options that set a LossWeights field and those that set a TrainConfig
# field; _FIELDS names each field whose name differs from its option's
_WEIGHTS = ("w_lm", "w_ms", "w_md", "w_ss", "w_sd", "c_b", "eps", "margin_m")
_SCHEDULE = ("batch_size", "epochs", "convergence_eps", "lr", "seed")
_FIELDS = {"margin_m": "fixed_margin_m", "epochs": "e_max"}

# train and compare take every option but the two that name an existing run
_TRAINING = tuple(name for name in OPTIONS if name not in ("run_dir", "which"))
COMMANDS = {    # command: (help, the options it takes as flags and config keys)
    "train": ("train one method", _TRAINING),
    "eval": ("KNN-evaluate a checkpoint", ("run_dir", "k", "config")),
    "verify": ("purity and optimal-condition checks", ("run_dir", "k", "c_b", "eps", "config")),
    "compare": ("train and score all methods", _TRAINING),
    "export-scatter": ("2-D PCA CSV of embeddings", ("run_dir", "which", "config")),
}


def _read_config_file(path, names) -> dict:
    """The values of a key = value config file, each of its option's type;
    ConfigError for a key outside names or a value its option rejects."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"config file unreadable: {path} ({err})") from err
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file {path}:{lineno}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in names:
            raise ConfigError(f"config file key unknown: {key}")
        opt = OPTIONS[key]
        try:
            values[key] = opt.type(raw)
        except ValueError as err:
            raise ConfigError(f"config file {path}:{lineno}: bad {key} value {raw!r}") from err
        if opt.choices and values[key] not in opt.choices:
            raise ConfigError(f"config file {path}:{lineno}: {key} must be one of {opt.choices}")
    return values


def _trained_options(run: Path) -> dict:
    """The options recorded in the run's manifest.json config. Each value is
    null, or of its option's type (an int passes for a float, a bool for
    neither) and one of its choices; DataError, naming the key, otherwise."""
    manifest = run / "manifest.json"
    if not manifest.exists():
        return {}
    try:
        payload = json.loads(manifest.read_text())
    except (OSError, ValueError) as err:
        raise DataError(f"unreadable manifest: {manifest} ({err})") from err
    config = (payload.get("config") or {}) if isinstance(payload, dict) else None
    if not isinstance(config, dict):
        raise DataError(f"unreadable manifest: {manifest} (its config is not an object)")
    for key, value in config.items():
        opt = OPTIONS.get(key)
        if opt is None or value is None:
            continue
        types = (int, float) if opt.type is float else (opt.type,)
        if type(value) not in types or (opt.choices and value not in opt.choices):
            expected = f"one of {opt.choices}" if opt.choices else f"of type {opt.type.__name__}"
            raise DataError(f"unreadable manifest: {manifest} "
                            f"(config {key} = {value!r} is not {expected})")
    return config


def _resolve(ns: argparse.Namespace, run: Path | None = None):
    """Each option of ns.command from its flag, else the --config file, else
    (given a run directory) the run's manifest.json config, else its default.
    Returns ({name: value}, {name: "flag" | "config" | "manifest" | "default"});
    ConfigError for a float option that is not finite, since no run can hold it
    (every one ends up in a strict-JSON manifest or summary)."""
    names = COMMANDS[ns.command][1]
    flags = vars(ns)
    keys = set(names) - {"config"}     # a config file names no further config file
    layers = [("flag", flags),
              ("config", _read_config_file(flags["config"], keys) if flags.get("config") else {})]
    if run is not None:
        layers.append(("manifest", _trained_options(run)))
    values, sources = {}, {}
    for name in names:
        values[name], sources[name] = next(
            ((layer[name], source) for source, layer in layers if layer.get(name) is not None),
            (OPTIONS[name].default, "default"))
        if isinstance(values[name], float) and not math.isfinite(values[name]):
            raise ConfigError(f"bad_float: {name}={values[name]} from {sources[name]} "
                              "must be finite")
    return values, sources


def _out_dir(opts: dict, name: str) -> Path:
    """A train or compare run's directory; _train_into creates it once a
    method has trained."""
    if opts.get("out_dir"):
        return Path(opts["out_dir"])
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return Path(os.environ.get("LOCALTRIPLET_RUNS_DIR", "runs")) / f"{stamp}-{name}"


def _mnist_paths(train_dir, kind: str):
    if not train_dir:
        raise ConfigError("mnist data needs --train-dir")
    base = Path(train_dir)
    name, _ = MNIST_FILES[kind]
    for candidate in (base / name, base / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise DataError(f"missing data file: {base / name}[.gz]")


def _load_data(opts: dict):
    """Build (train, val, test) datasets from resolved options; a fraction
    or subset size the split rejects is a ConfigError."""
    seed, val_frac = opts["data_seed"], opts["val_fraction"]
    if not 0.0 <= val_frac < 1.0:
        raise ConfigError(f"bad_fraction: val_fraction={val_frac} must be in [0, 1)")
    if opts["data"] == "mnist":
        try:
            full, test = (load_mnist_idx(_mnist_paths(opts["train_dir"], part + "_images"),
                                         _mnist_paths(opts["train_dir"], part + "_labels"))
                          for part in ("train", "test"))
        except (OSError, ValueError) as err:
            raise DataError(str(err)) from err
        test.split = "test"
        try:
            if opts["subset"]:
                full = stratified_subset(full, opts["subset"], seed)
            if opts["test_subset"]:
                test = stratified_subset(test, opts["test_subset"], seed + 1)
            if val_frac > 0:
                train_ds, val_ds, _ = split(full, 1.0 - val_frac, val_frac, seed)
            else:
                train_ds, val_ds = full, None
                train_ds.split = "train"
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return train_ds, val_ds, test
    blobs = [opts[name] for name in ("classes", "per_class", "dim", "spacing", "std")]
    try:
        check_blob_config(*blobs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    try:
        full = make_blobs(*blobs, seed)
    except ValueError as err:     # packing_failed
        raise DataError(str(err)) from err
    test_frac = opts["test_fraction"]
    train_frac = 1.0 - test_frac - val_frac
    if train_frac <= 0:
        raise ConfigError("test_fraction + val_fraction must leave training data")
    try:
        if val_frac > 0:
            return split(full, train_frac, val_frac, seed)
        train_ds, test, _unused = split(full, train_frac, test_frac, seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    train_ds.split, test.split = "train", "test"
    return train_ds, None, test


def _check_k(k, n_train: int) -> int:
    """k, or ceil(sqrt(n_train)) when None; ConfigError unless
    1 <= k <= n_train - 1 (each point needs k neighbors besides itself)."""
    k = choose_k(n_train) if k is None else k
    if not 1 <= k <= n_train - 1:
        raise ConfigError(f"bad_k: k={k}, need 1 <= k <= {n_train - 1} for "
                          f"{n_train} training points")
    return k


def _build_net(opts: dict, dataset: Dataset) -> EmbeddingNet:
    arch = opts["arch"]
    if arch == "auto":
        arch = "cnn" if len(dataset.sample_shape) == 3 else "mlp:64,32"
    dims = arch[4:].split(",") if arch.startswith("mlp:") else []
    try:
        if arch == "cnn":
            layers = mnist_cnn()
        elif any(dims):
            layers = mlp(*(int(s) for s in dims if s))
        else:
            raise ValueError('expected "auto", "cnn" or "mlp:D1,D2,..."')
        return EmbeddingNet(dataset.sample_shape, layers, seed=opts["seed"])
    except ValueError as err:
        raise ConfigError(f"bad --arch {arch!r}: {err}") from err


def _checked(build, names, opts: dict, sources: dict):
    """build(**{field: value}) for the options in names. Each option is built
    alone first, so that a value build refuses is a ConfigError naming that
    option as the CLI spells it and where its value came from."""
    for name in names:
        field = _FIELDS.get(name, name)
        try:
            build(**{field: opts[name]})
        except ValueError as err:
            raise ConfigError(f"{str(err).replace(field, name)} "
                              f"({name} from {sources[name]})") from err
    return build(**{_FIELDS.get(name, name): opts[name] for name in names})


def _train_config(opts: dict, sources: dict) -> TrainConfig:
    weights = _checked(LossWeights, _WEIGHTS, opts, sources)
    return _checked(partial(TrainConfig, method=opts["method"], k=opts["k"], weights=weights),
                    _SCHEDULE, opts, sources)


def _write_json(path: Path, payload: dict) -> str:
    """Write payload as strict JSON (no NaN or infinity) and return the text."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        raise DivergedError(f"diverged: non-finite value for {path.name}") from err
    with atomic_open(path, "w") as f:
        f.write(text + "\n")
    return text


def _manifest(out_dir: Path, command: str, opts: dict, train_ds: Dataset,
              outputs: list[str]) -> None:
    opts = {k: v for k, v in opts.items() if k != "out_dir"}
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config": opts,
        "dataset_fingerprint": train_ds.fingerprint(),
        "seed": opts.get("seed"),
        "outputs": sorted(outputs),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": CPUS,
            "blas_threads": BLAS_THREADS,
            "stage_threads": STAGE_THREADS,
        },
    }
    _write_json(out_dir / "manifest.json", payload)


def _train_into(out_dir: Path, opts: dict, sources: dict):
    """Shared by cmd_train and cmd_compare: one full training run, whose
    directory is created only once it has trained.
    Returns (net, train, test, reports, stop reason, k)."""
    train_ds, val_ds, test_ds = _load_data(opts)
    k = _check_k(opts["k"], train_ds.n)
    net = _build_net(opts, train_ds)
    config = _train_config(opts, sources)

    lines: list[str] = []
    try:
        net, reports, reason = train(net, config, train_ds, val=val_ds,
                                     log_fn=lambda r: lines.append(r.to_json_line()))
    except ValueError as err:     # a training set the method cannot train on
        raise DataError(str(err)) from err
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "epochs.jsonl", "w") as f:
        f.write("".join(line + "\n" for line in lines))
    with atomic_open(out_dir / "timings.jsonl", "w") as f:
        f.write("".join(r.timing_json_line() + "\n" for r in reports))
    save_checkpoint(out_dir / "checkpoint.npz", net,
                    extra={"method": config.method, "k": config.k,
                           "stop_reason": reason, "epochs_run": len(reports)})
    save_dataset(out_dir / "train.npz", train_ds)
    outputs = ["checkpoint.npz", "epochs.jsonl", "timings.jsonl", "train.npz", "manifest.json"]
    if val_ds is not None:
        save_dataset(out_dir / "val.npz", val_ds)
        outputs.append("val.npz")
    if test_ds is not None and test_ds.n:
        save_dataset(out_dir / "test.npz", test_ds)
        outputs.append("test.npz")
    _manifest(out_dir, "train", opts, train_ds, outputs)
    return net, train_ds, test_ds, reports, reason, k


def cmd_train(ns: argparse.Namespace) -> int:
    opts, sources = _resolve(ns)
    out_dir = _out_dir(opts, opts["method"])
    _net, _train, _test, reports, reason, _k = _train_into(out_dir, opts, sources)
    last = reports[-1].mean_batch_loss if reports else float("nan")
    print(f"trained {opts['method']} for {len(reports)} epochs ({reason}); "
          f"final mean batch loss {last:.6g}")
    print(f"artifacts in {out_dir}")
    return 0


def _load_run(run_dir):
    """(net, train, test or None, run path) of a finished run."""
    if not run_dir:
        raise ConfigError("--run-dir is required")
    run = Path(run_dir)
    ckpt = run / "checkpoint.npz"
    train_npz = run / "train.npz"
    if not ckpt.exists() or not train_npz.exists():
        raise DataError(f"missing data file: {ckpt if not ckpt.exists() else train_npz}")
    net, _extra = _read_run_file(load_checkpoint, ckpt)
    test_npz = run / "test.npz"
    train_ds, test_ds = (_read_run_file(load_dataset, path) if path.exists() else None
                         for path in (train_npz, test_npz))
    for path, ds in ((train_npz, train_ds), (test_npz, test_ds)):
        if ds is not None and ds.samples.shape[1] != np.prod(net.input_shape):
            raise DataError(f"unreadable run file: {path} (samples of width "
                            f"{ds.samples.shape[1]}, the network takes {net.input_shape})")
    return net, train_ds, test_ds, run


def _read_run_file(load, path):
    """load(path), with a corrupt or malformed file reported as a DataError."""
    try:
        return load(path)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as err:
        raise DataError(f"unreadable run file: {path} ({err})") from err


def cmd_eval(ns: argparse.Namespace) -> int:
    opts, sources = _resolve(ns, Path(ns.run_dir))
    net, train_ds, queries, run = _load_run(opts["run_dir"])
    if queries is None or not queries.n:
        raise DataError(f"missing data file: {run / 'test.npz'}")
    k = _check_k(opts["k"], train_ds.n)
    accuracy, _preds, confusion = evaluate_knn(net, train_ds, queries, k)
    classes = sorted(set(np.concatenate([train_ds.labels, queries.labels]).tolist()))
    report = {
        "k": k,
        "sources": {"k": sources["k"]},
        "n_train": train_ds.n,
        "n_queries": queries.n,
        "accuracy": accuracy,
        "classes": classes,
        "confusion": confusion.tolist(),
    }
    _write_json(run / "eval_report.json", report)
    print(f"knn accuracy (k={k}) on {queries.n} queries: {accuracy:.4f}")
    for i, c in enumerate(classes):
        print(f"  class {c}: " + " ".join(str(v) for v in confusion[i]))
    return 0


def _scatter_xy(emb: np.ndarray) -> np.ndarray:
    """2-D PCA coordinates; a 1-d embedding keeps its coordinate as x, y = 0."""
    if emb.shape[1] < 2:
        return np.column_stack([emb[:, 0], np.zeros(emb.shape[0])])
    return pca_reduce(emb, 2)[0]


def cmd_verify(ns: argparse.Namespace) -> int:
    opts, sources = _resolve(ns, Path(ns.run_dir))
    # the c_b and eps that train refuses, refused before the run is loaded
    _checked(LossWeights, ("c_b", "eps"), opts, sources)
    net, train_ds, queries, run = _load_run(opts["run_dir"])
    k = _check_k(opts["k"], train_ds.n)
    settings = {"k": k, "c_b": opts["c_b"], "eps": opts["eps"]}
    train_emb = embed_finite(net, train_ds)
    condition = check_optimal_condition(train_emb, train_ds.labels, k,
                                        settings["c_b"], settings["eps"])
    # finite embeddings can still overflow their distances, as in training:
    # a d_ak, or every distance from an anchor to the rest of its class (no
    # finite positive, -inf, where the class has another member)
    classes = Classes(train_ds.labels)
    no_positive = (classes.count[classes.of] > 1) & (condition.max_pos == -np.inf)
    if not np.all(np.isfinite(condition.d_ak)) or np.any(no_positive):
        raise DivergedError("diverged: distances of the train split's embeddings overflow")
    write_violations_csv(run / "violations.csv", condition)
    summary = {
        **settings,
        "sources": {name: sources[name] for name in settings},
        "n_anchors_checked": condition.n_checked,
        "n_skipped": len(condition.skipped_anchors),
        "n_violations": len(condition.violations),
        "worst_residual": condition.worst_residual,
    }
    if queries is not None and queries.n:
        query_emb = embed_finite(net, queries)
        purity = purity_check(train_emb, train_ds.labels, query_emb, k, d_ak=condition.d_ak)
        write_scatter_csv(run / "purity.csv", _scatter_xy(query_emb), queries.labels,
                          status=purity.query_status)
        summary.update({
            "n_queries": purity.n_queries,
            "outliers": purity.outlier_count,
            "pure": purity.pure_count,
            "impure": purity.impure_count,
            "purity": purity.purity,
        })
    print(_write_json(run / "verify_summary.json", summary))
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    opts, sources = _resolve(ns)
    out_dir = _out_dir(opts, "compare")
    rows = []
    for method in METHODS:
        net, train_ds, test_ds, reports, reason, k = _train_into(
            out_dir / method, dict(opts, method=method, out_dir=None), sources)
        if test_ds is None or not test_ds.n:
            raise DataError("compare needs held-out test data")
        accuracy, _p, _c = evaluate_knn(net, train_ds, test_ds, k)
        rows.append((method, accuracy, len(reports), reason))
        print(f"{method:12s} accuracy {accuracy:.4f} ({len(reports)} epochs, {reason})")
    with atomic_open(out_dir / "compare.csv", "w") as f:
        f.write("method,accuracy,epochs,stop_reason\n")
        for method, acc, n_ep, reason in rows:
            f.write(f"{method},{acc!r},{n_ep},{reason}\n")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_export_scatter(ns: argparse.Namespace) -> int:
    opts, _ = _resolve(ns)
    net, train_ds, queries, run = _load_run(opts["run_dir"])
    ds = train_ds if opts["which"] == "train" else queries
    if ds is None or not ds.n:
        raise DataError(f"missing data file: {run / 'test.npz'}")
    write_scatter_csv(run / "scatter.csv", _scatter_xy(embed_finite(net, ds)), ds.labels)
    print(f"wrote {run / 'scatter.csv'} ({ds.n} points)")
    return 0


def cmd_fetch_mnist(ns: argparse.Namespace) -> int:
    import urllib.request    # here, so that no other command imports http, email and ssl
    dest = Path(ns.dest)
    dest.mkdir(parents=True, exist_ok=True)
    for kind, (name, expected_size) in MNIST_FILES.items():
        target = dest / (name + ".gz")
        if target.exists() and target.stat().st_size == expected_size:
            print(f"{target} already present")
            continue
        url = MNIST_MIRROR + name + ".gz"
        print(f"fetching {url}")
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                payload = resp.read()
        except OSError as err:    # urllib.error.URLError among them
            raise DataError(f"download failed for {url}: {err}") from err
        if len(payload) != expected_size:
            raise DataError(f"size mismatch for {name}.gz: "
                            f"{len(payload)} != {expected_size}")
        target.write_bytes(payload)
        print(f"wrote {target} ({expected_size} bytes)")
    return 0


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given the name of a command, one that holds only that
    command's subparser, whose help, usage, errors and Namespace are the same."""
    parser = argparse.ArgumentParser(
        prog="localtriplet",
        description="Train and verify neighborhood-margin triplet embeddings.")
    commands = [*COMMANDS, "fetch-mnist"]
    # the full parser's choices in the usage line of any error it prints
    metavar = "{" + ",".join(commands) + "}" if only in commands else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for command in [only] if metavar else commands:
        if command == "fetch-mnist":
            p = sub.add_parser(command, help="download the IDX files (needs network)")
            p.add_argument("--dest", default="data/mnist")
        else:
            help_text, names = COMMANDS[command]
            p = sub.add_parser(command, help=help_text)
            for name in names:
                opt = OPTIONS[name]
                p.add_argument("--" + name.replace("_", "-"), type=opt.type,
                               choices=opt.choices, required=opt.required,
                               default=argparse.SUPPRESS, help=opt.help)
        # looked up on each call, so that a wrapped cmd_* is the one run
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, DataError, DivergedError) as err:
        prefix = {2: "config error", 3: "data error", 4: "numeric failure"}[err.exit_code]
        print(f"{prefix}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
