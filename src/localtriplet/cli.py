"""Command-line workflow: train, eval, verify, compare, export-scatter.

Every command is deterministic given its flags, seed, and input files.
Configuration precedence is flags > config file > built-in defaults; the
config file is plain ``key = value`` lines using the long flag names
(dashes or underscores). Exit codes: 0 ok, 2 configuration error, 3 data
error, 4 numeric failure.

Run artifacts live under ``runs/<timestamp>-<name>/`` (override the root
with LOCALTRIPLET_RUNS_DIR or the directory with --out-dir): a manifest,
dataset caches, the checkpoint, a deterministic epoch log, per-epoch phase
timings (``timings.jsonl``, which varies from run to run), and reports.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_open
from .data import (
    Dataset,
    load_dataset,
    load_mnist_idx,
    make_blobs,
    save_dataset,
    split,
    stratified_subset,
)
from .knn import choose_k
from .losses import LossWeights
from .network import EmbeddingNet, mnist_cnn, mlp, load_checkpoint, save_checkpoint
from .training import (
    METHODS,
    DivergedError,
    TrainConfig,
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

_DATA_DEFAULTS = {
    "data": "blobs",
    "train_dir": None,
    "subset": None,
    "test_subset": None,
    "val_fraction": 0.0,
    "classes": 3,
    "per_class": 150,
    "dim": 8,
    "spacing": 12.0,
    "std": 1.0,
    "data_seed": 1234,
    "test_fraction": 1 / 3,
}

_TRAIN_DEFAULTS = {
    "method": "lm_mining",
    "arch": "auto",
    "k": None,
    "batch_size": 128,
    "epochs": 50,
    "convergence_eps": 1e-4,
    "lr": 1e-4,
    "seed": 0,
    "w_lm": 1000.0,
    "w_ms": 1.0,
    "w_md": 1.0,
    "w_ss": 0.0,
    "w_sd": 1.0,
    "c_b": 3.0,
    "eps": 1e-3,
    "margin_m": 1_000_000.0,
    "out_dir": None,
    "config": None,
}


def _read_config_file(path) -> dict:
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
        key, value = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


# keys whose built-in default is None but which carry typed values
_COERCE_OVERRIDES = {"k": int, "subset": int, "test_subset": int, "c_b": float, "eps": float}


def _coerce(key, value, like):
    if isinstance(value, str):
        if key in _COERCE_OVERRIDES:
            return _COERCE_OVERRIDES[key](value)
        if like is None or isinstance(like, str):
            return value
        if isinstance(like, bool):
            return value.lower() in ("1", "true", "yes")
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float):
            return float(value)
    return value


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults."""
    provided = vars(ns)
    merged = dict(defaults)
    config_path = provided.get("config", defaults.get("config"))
    if config_path:
        file_values = _read_config_file(config_path)
        for key, raw in file_values.items():
            if key not in merged:
                raise ConfigError(f"config file key unknown: {key}")
            merged[key] = _coerce(key, raw, defaults.get(key))
    for key, value in provided.items():
        if key in ("command", "func"):
            continue
        merged[key] = value
    return merged


def _add_data_flags(p: argparse.ArgumentParser):
    s = argparse.SUPPRESS
    p.add_argument("--data", choices=["blobs", "mnist"], default=s,
                   help="dataset family (default blobs)")
    p.add_argument("--train-dir", default=s,
                   help="directory holding the standard IDX files (mnist)")
    p.add_argument("--subset", type=int, default=s,
                   help="stratified training-subset size (mnist)")
    p.add_argument("--test-subset", type=int, default=s,
                   help="stratified test-subset size (mnist)")
    p.add_argument("--val-fraction", type=float, default=s,
                   help="validation fraction carved from training data")
    p.add_argument("--classes", type=int, default=s, help="blob classes")
    p.add_argument("--per-class", type=int, default=s, help="blob samples per class")
    p.add_argument("--dim", type=int, default=s, help="blob dimensionality")
    p.add_argument("--spacing", type=float, default=s, help="minimum blob center distance")
    p.add_argument("--std", type=float, default=s, help="blob cluster standard deviation")
    p.add_argument("--data-seed", type=int, default=s, help="seed for data generation/splits")
    p.add_argument("--test-fraction", type=float, default=s,
                   help="held-out fraction for blob data")


def _add_train_flags(p: argparse.ArgumentParser):
    s = argparse.SUPPRESS
    p.add_argument("--method", choices=list(METHODS), default=s)
    p.add_argument("--arch", default=s,
                   help='"auto", "cnn", or "mlp:D1,D2,..." embedding stack')
    p.add_argument("--k", type=int, default=s, help="neighbor count (default ceil(sqrt(n)))")
    p.add_argument("--batch-size", type=int, default=s)
    p.add_argument("--epochs", type=int, default=s, help="maximum epochs")
    p.add_argument("--convergence-eps", type=float, default=s)
    p.add_argument("--lr", type=float, default=s)
    p.add_argument("--seed", type=int, default=s)
    p.add_argument("--w-lm", type=float, default=s)
    p.add_argument("--w-ms", type=float, default=s)
    p.add_argument("--w-md", type=float, default=s)
    p.add_argument("--w-ss", type=float, default=s)
    p.add_argument("--w-sd", type=float, default=s)
    p.add_argument("--c-b", type=float, default=s)
    p.add_argument("--eps", type=float, default=s, help="small hinge constant")
    p.add_argument("--margin-m", type=float, default=s, help="fixed margin for mm methods")
    p.add_argument("--out-dir", default=s)
    p.add_argument("--config", default=s, help="key = value config file")


def _runs_root() -> Path:
    import os
    return Path(os.environ.get("LOCALTRIPLET_RUNS_DIR", "runs"))


def _make_out_dir(opts: dict, name: str) -> Path:
    if opts.get("out_dir"):
        out = Path(opts["out_dir"])
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        out = _runs_root() / f"{stamp}-{name}"
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    """Build (train, val, test) datasets from resolved options."""
    if opts["data"] == "mnist":
        try:
            full = load_mnist_idx(_mnist_paths(opts["train_dir"], "train_images"),
                                  _mnist_paths(opts["train_dir"], "train_labels"))
            test = load_mnist_idx(_mnist_paths(opts["train_dir"], "test_images"),
                                  _mnist_paths(opts["train_dir"], "test_labels"))
        except (OSError, ValueError) as err:
            raise DataError(str(err)) from err
        test.split = "test"
        if opts["subset"]:
            full = stratified_subset(full, opts["subset"], opts["data_seed"])
        if opts["test_subset"]:
            test = stratified_subset(test, opts["test_subset"], opts["data_seed"] + 1)
        if opts["val_fraction"] and opts["val_fraction"] > 0:
            train_ds, val_ds, _ = split(full, 1.0 - opts["val_fraction"],
                                        opts["val_fraction"], opts["data_seed"])
        else:
            train_ds, val_ds = full, None
            train_ds.split = "train"
        return train_ds, val_ds, test
    if opts["data"] == "blobs":
        try:
            full = make_blobs(opts["classes"], opts["per_class"], opts["dim"],
                              opts["spacing"], opts["std"], opts["data_seed"])
        except ValueError as err:
            raise DataError(str(err)) from err
        test_frac = opts["test_fraction"]
        val_frac = opts["val_fraction"] or 0.0
        train_frac = 1.0 - test_frac - val_frac
        if train_frac <= 0:
            raise ConfigError("test_fraction + val_fraction must leave training data")
        if val_frac > 0:
            train_ds, val_ds, test = split(full, train_frac, val_frac, opts["data_seed"])
        else:
            train_ds, test, _unused = split(full, train_frac, test_frac, opts["data_seed"])
            train_ds.split, test.split = "train", "test"
            val_ds = None
        return train_ds, val_ds, test
    raise ConfigError(f"unknown data family: {opts['data']}")


def _build_net(opts: dict, dataset: Dataset) -> EmbeddingNet:
    arch = opts["arch"]
    if arch == "auto":
        arch = "cnn" if len(dataset.sample_shape) == 3 else "mlp:64,32"
    if arch == "cnn":
        if dataset.sample_shape != (28, 28, 1):
            raise ConfigError(f"cnn arch expects 28x28x1 input, data is {dataset.sample_shape}")
        return EmbeddingNet(dataset.sample_shape, mnist_cnn(), seed=opts["seed"])
    if arch.startswith("mlp:"):
        try:
            dims = [int(s) for s in arch[4:].split(",") if s]
        except ValueError as err:
            raise ConfigError(f"bad --arch {arch!r}") from err
        if not dims:
            raise ConfigError(f"bad --arch {arch!r}")
        return EmbeddingNet(dataset.sample_shape, mlp(*dims), seed=opts["seed"])
    raise ConfigError(f"unknown --arch {arch!r}")


def _weights(opts: dict) -> LossWeights:
    try:
        return LossWeights(w_lm=opts["w_lm"], w_ms=opts["w_ms"], w_md=opts["w_md"],
                           w_ss=opts["w_ss"], w_sd=opts["w_sd"], c_b=opts["c_b"],
                           eps=opts["eps"], fixed_margin_m=opts["margin_m"])
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _train_config(opts: dict) -> TrainConfig:
    try:
        return TrainConfig(method=opts["method"], k=opts["k"], weights=_weights(opts),
                           batch_size=opts["batch_size"], e_max=opts["epochs"],
                           convergence_eps=opts["convergence_eps"], lr=opts["lr"],
                           seed=opts["seed"])
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _manifest(out_dir: Path, command: str, opts: dict, train_ds: Dataset,
              outputs: list[str]) -> None:
    opts = {k: v for k, v in opts.items() if k not in ("func", "command", "out_dir")}
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config": opts,
        "dataset_fingerprint": train_ds.fingerprint(),
        "seed": opts.get("seed"),
        "outputs": sorted(outputs),
    }
    _write_json(out_dir / "manifest.json", payload)


def _train_into(out_dir: Path, opts: dict):
    """Shared by cmd_train and cmd_compare: one full training run."""
    train_ds, val_ds, test_ds = _load_data(opts)
    net = _build_net(opts, train_ds)
    config = _train_config(opts)

    lines: list[str] = []
    net, reports, reason = train(net, config, train_ds, val=val_ds,
                                 log_fn=lambda r: lines.append(r.to_json_line()))
    (out_dir / "epochs.jsonl").write_text("".join(line + "\n" for line in lines))
    (out_dir / "timings.jsonl").write_text(
        "".join(r.timing_json_line() + "\n" for r in reports))
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
    return net, train_ds, test_ds, reports, reason


def cmd_train(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, {**_DATA_DEFAULTS, **_TRAIN_DEFAULTS})
    out_dir = _make_out_dir(opts, opts["method"])
    net, train_ds, _test, reports, reason = _train_into(out_dir, opts)
    last = reports[-1].mean_batch_loss if reports else float("nan")
    print(f"trained {opts['method']} for {len(reports)} epochs ({reason}); "
          f"final mean batch loss {last:.6g}")
    print(f"artifacts in {out_dir}")
    return 0


def _load_run(ns_opts: dict):
    run_dir = ns_opts.get("run_dir")
    if not run_dir:
        raise ConfigError("--run-dir is required")
    run = Path(run_dir)
    ckpt = run / "checkpoint.npz"
    train_npz = run / "train.npz"
    if not ckpt.exists() or not train_npz.exists():
        raise DataError(f"missing data file: {ckpt if not ckpt.exists() else train_npz}")
    net, extra = load_checkpoint(ckpt)
    train_ds = load_dataset(train_npz)
    queries = None
    test_npz = run / "test.npz"
    if test_npz.exists():
        queries = load_dataset(test_npz)
    return net, extra, train_ds, queries, run


def _run_settings(ns: argparse.Namespace, opts: dict, run: Path, defaults: dict):
    """Resolve eval/verify settings: flags, then the config file, then the
    run's training config in manifest.json, then defaults. Returns
    ({key: value}, {key: "flag" | "config" | "manifest" | "default"})."""
    manifest, trained = run / "manifest.json", {}
    if manifest.exists():
        try:
            trained = json.loads(manifest.read_text()).get("config") or {}
        except (OSError, ValueError) as err:
            raise DataError(f"unreadable manifest: {manifest} ({err})") from err
    values, sources = {}, {}
    for key, default in defaults.items():
        if opts.get(key) is not None:
            values[key], sources[key] = opts[key], "flag" if key in vars(ns) else "config"
        elif trained.get(key) is not None:
            values[key], sources[key] = trained[key], "manifest"
        else:
            values[key], sources[key] = default, "default"
    if values["k"] < 1:
        raise ConfigError(f"bad_k: {values['k']}")
    return values, sources


def cmd_eval(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, {"run_dir": None, "k": None, "config": None})
    net, _extra, train_ds, queries, run = _load_run(opts)
    if queries is None or not queries.n:
        raise DataError(f"missing data file: {run / 'test.npz'}")
    settings, sources = _run_settings(ns, opts, run, {"k": choose_k(train_ds.n)})
    k = settings["k"]
    accuracy, _preds, confusion = evaluate_knn(net, train_ds, queries, k)
    classes = sorted(set(np.concatenate([train_ds.labels, queries.labels]).tolist()))
    report = {
        "k": k,
        "sources": sources,
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


def cmd_verify(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, {"run_dir": None, "k": None, "c_b": None, "eps": None,
                         "config": None})
    net, _extra, train_ds, queries, run = _load_run(opts)
    settings, sources = _run_settings(
        ns, opts, run, {"k": choose_k(train_ds.n), "c_b": _TRAIN_DEFAULTS["c_b"],
                        "eps": _TRAIN_DEFAULTS["eps"]})
    k = settings["k"]
    train_emb = net.embed(train_ds.samples)
    condition = check_optimal_condition(train_emb, train_ds.labels, k,
                                        settings["c_b"], settings["eps"])
    write_violations_csv(run / "violations.csv", condition)
    summary = {
        **settings,
        "sources": sources,
        "n_anchors_checked": condition.n_checked,
        "n_skipped": len(condition.skipped_anchors),
        "n_violations": len(condition.violations),
        "worst_residual": condition.worst_residual,
    }
    if queries is not None and queries.n:
        query_emb = net.embed(queries.samples)
        purity = purity_check(train_emb, train_ds.labels, query_emb, k, d_ak=condition.d_ak)
        xy, _, _ = pca_reduce(query_emb, 2) if query_emb.shape[1] >= 2 else (
            np.column_stack([query_emb[:, 0], np.zeros(queries.n)]), None, None)
        write_scatter_csv(run / "purity.csv", xy, queries.labels,
                          status=purity.query_status)
        summary.update({
            "n_queries": purity.n_queries,
            "outliers": purity.outlier_count,
            "pure": purity.pure_count,
            "impure": purity.impure_count,
            "purity": purity.purity,
        })
    _write_json(run / "verify_summary.json", summary)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, {**_DATA_DEFAULTS, **_TRAIN_DEFAULTS})
    out_dir = _make_out_dir(opts, "compare")
    rows = []
    for method in METHODS:
        method_opts = dict(opts, method=method, out_dir=None)
        sub = out_dir / method
        sub.mkdir(parents=True, exist_ok=True)
        net, train_ds, test_ds, reports, reason = _train_into(sub, method_opts)
        if test_ds is None or not test_ds.n:
            raise DataError("compare needs held-out test data")
        k = opts["k"] if opts["k"] else choose_k(train_ds.n)
        accuracy, _p, _c = evaluate_knn(net, train_ds, test_ds, k)
        rows.append((method, accuracy, len(reports), reason))
        print(f"{method:12s} accuracy {accuracy:.4f} ({len(reports)} epochs, {reason})")
    with open(out_dir / "compare.csv", "w") as f:
        f.write("method,accuracy,epochs,stop_reason\n")
        for method, acc, n_ep, reason in rows:
            f.write(f"{method},{acc!r},{n_ep},{reason}\n")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_export_scatter(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, {"run_dir": None, "which": "test", "config": None})
    net, _extra, train_ds, queries, run = _load_run(opts)
    ds = train_ds if opts["which"] == "train" else queries
    if ds is None or not ds.n:
        raise DataError(f"missing data file: {run / 'test.npz'}")
    emb = net.embed(ds.samples)
    xy, _components, _ev = pca_reduce(emb, 2)
    write_scatter_csv(run / "scatter.csv", xy, ds.labels)
    print(f"wrote {run / 'scatter.csv'} ({ds.n} points)")
    return 0


def cmd_fetch_mnist(ns: argparse.Namespace) -> int:
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
        except (urllib.error.URLError, OSError) as err:
            raise DataError(f"download failed for {url}: {err}") from err
        if len(payload) != expected_size:
            raise DataError(f"size mismatch for {name}.gz: "
                            f"{len(payload)} != {expected_size}")
        target.write_bytes(payload)
        print(f"wrote {target} ({expected_size} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localtriplet",
        description="Train and verify neighborhood-margin triplet embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one method")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="KNN-evaluate a checkpoint")
    p_eval.add_argument("--run-dir", required=True)
    p_eval.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p_eval.add_argument("--config", default=argparse.SUPPRESS)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="purity and optimal-condition checks")
    p_verify.add_argument("--run-dir", required=True)
    p_verify.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--c-b", type=float, default=argparse.SUPPRESS)
    p_verify.add_argument("--eps", type=float, default=argparse.SUPPRESS)
    p_verify.add_argument("--config", default=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="train and score all methods")
    _add_data_flags(p_compare)
    _add_train_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_scatter = sub.add_parser("export-scatter", help="2-D PCA CSV of embeddings")
    p_scatter.add_argument("--run-dir", required=True)
    p_scatter.add_argument("--which", choices=["train", "test"],
                           default=argparse.SUPPRESS)
    p_scatter.add_argument("--config", default=argparse.SUPPRESS)
    p_scatter.set_defaults(func=cmd_export_scatter)

    p_fetch = sub.add_parser("fetch-mnist", help="download the IDX files (needs network)")
    p_fetch.add_argument("--dest", default="data/mnist")
    p_fetch.set_defaults(func=cmd_fetch_mnist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except DivergedError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
